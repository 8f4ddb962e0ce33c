"""The package runs on numpy alone in one process: importing it loads no
scipy, multiprocessing or concurrent.futures module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_modules(*roots: str) -> str:
    code = ("import sys, cvqkdsim, cvqkdsim.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_modules("scipy") == "[]"


def test_import_loads_no_process_or_executor_module():
    # optimize imports its thread pool only when it runs more than one worker
    assert _loaded_modules("multiprocessing", "concurrent") == "[]"
