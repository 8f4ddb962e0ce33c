"""The benchmark's recorded outputs, checked in the unit suite.

``perfbench/reference.json`` pins every value that passes through a
converter to within 1e-9..1e-10 relative, so a rounding change anywhere
before the DAC or ADC (a different convolution method, a reordered sum)
flips quantizer decisions and fails these entries. Running the first few
entries of each workload here catches that before a benchmark run does.
The workload module is loaded by path and only read.
"""

import importlib.util
import json
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_entries_match_reference(name):
    workload = WORKLOADS[name](None, REFERENCE[name])  # canonical order
    problems = [workload.check(i, workload.run(i)) for i in range(ENTRIES)]
    assert [p for p in problems if p is not None] == []
