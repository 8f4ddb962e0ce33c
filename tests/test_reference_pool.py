"""The benchmark's recorded outputs, checked in the unit suite.

``perfbench/reference.json`` pins every value that passes through a
converter to within 1e-9..1e-10 relative, so a rounding change anywhere
before the DAC or ADC (a different convolution method, a reordered sum)
flips quantizer decisions and fails these entries. Running the first few
entries of each workload here catches that before a benchmark run does.
The workload module is loaded by path and only read. Run as a script,
``PYTHONPATH=src python tests/test_reference_pool.py`` replays every entry
of every pool in canonical order and exits 1 on any mismatch.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENTRIES = 8


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _problems(name: str, entries: int) -> list[str]:
    """The reference mismatches of a workload's first ``entries`` entries."""
    workload = WORKLOADS[name](None, REFERENCE[name])  # canonical order
    problems = [workload.check(i, workload.run(i)) for i in range(entries)]
    return [p for p in problems if p is not None]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_entries_match_reference(name):
    assert _problems(name, ENTRIES) == []


if __name__ == "__main__":
    mismatches = 0
    for name in sorted(WORKLOADS):
        pool = WORKLOADS[name].pool_size
        problems = _problems(name, pool)
        print(f"{name}: {pool - len(problems)}/{pool} entries match the reference")
        for problem in problems:
            print(f"  {problem}")
        mismatches += len(problems)
    sys.exit(1 if mismatches else 0)
