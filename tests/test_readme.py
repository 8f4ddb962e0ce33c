"""README's quick start runs as written, and its sweep specs load."""

import json
import re
from pathlib import Path

from cvqkdsim.config import dataclass_from_dict
from cvqkdsim.experiments import SweepSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    # the first python block; the second runs a 100-iteration optimization
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_json_blocks_are_sweep_specs():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        dataclass_from_dict(SweepSpec, json.loads(block))
