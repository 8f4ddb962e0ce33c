"""README's quick start runs as written, its other Python blocks name only
what the package exports, and its sweep specs load."""

import ast
import importlib
import json
import re
from pathlib import Path

from cvqkdsim.config import dataclass_from_dict
from cvqkdsim.experiments import SweepSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_quick_start_runs():
    # the first python block; the second runs a 100-iteration optimization
    exec(compile(_python_blocks()[0], str(README), "exec"), {})


def test_python_blocks_compile_and_import_existing_names():
    blocks = _python_blocks()
    assert len(blocks) >= 2
    imported = []
    for block in blocks:
        tree = ast.parse(block, str(README))
        compile(tree, str(README), "exec")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("cvqkdsim"):
                imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_json_blocks_are_sweep_specs():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        dataclass_from_dict(SweepSpec, json.loads(block))
