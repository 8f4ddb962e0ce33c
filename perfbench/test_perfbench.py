"""Checks of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.cap_threads()
sys.path.insert(0, str(run.SRC))
from tracing import COUNT_METRICS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((run.HERE / "reference.json").read_text())


def traced_ops(name: str, seed: int, ops: int) -> tuple[dict, dict]:
    workload = WORKLOADS[name](seed, REFERENCE[name])
    tracer = Tracer()
    tracer.install()
    try:
        phase = run.measure(workload, 0, float("inf"), 1, max_ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    return phase, tracer.metrics()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}
    first_phase, first = traced_ops(name, 7, 2)
    second_phase, second = traced_ops(name, 7, 2)
    assert first_phase["failures"] == [] == second_phase["failures"]
    assert {metric: first[metric] for metric in COUNT_METRICS} == \
        {metric: second[metric] for metric in COUNT_METRICS}
    assert first["dsp.convolve.calls"] > 0
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a), fn in originals.items())


def test_scaled_ms_divides_each_op_by_the_mean_probe_around_it():
    phase = {"latencies": [0.1, 0.2, 0.1, 0.1, 0.1, 0.1],
             "probe_ms": [10.0, 10.0, 10.0, 10.0, 10.0, 40.0]}
    # windows of five: ops 0-2 use probes 0-4 (mean 10), ops 3-5 probes 1-5 (mean 16)
    assert run.PROBE_WINDOW == 5
    assert run.scaled_ms(phase, ref_ms=10.0) == pytest.approx(
        [100.0, 200.0, 100.0, 62.5, 62.5, 62.5])
    assert run.scaled_ms({"latencies": [0.1], "probe_ms": [5.0]}, ref_ms=10.0) == [200.0]
