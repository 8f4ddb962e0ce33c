"""The package runs on numpy alone in one process: importing it loads no
scipy, multiprocessing or concurrent.futures module, and its numbers do not
depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _child_output(code: str, **env: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports the package
    from ``src/``, with ``env`` added to this process's environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=60,
                          check=True)
    return done.stdout.strip()


def _loaded_modules(*roots: str) -> str:
    return _child_output("import sys, cvqkdsim, cvqkdsim.cli; "
                         f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")


def test_import_loads_no_scipy():
    assert _loaded_modules("scipy") == "[]"


def test_import_loads_no_process_or_executor_module():
    # optimize imports its thread pool only when it runs more than one worker
    assert _loaded_modules("multiprocessing", "concurrent") == "[]"


# a 50k-symbol chain keeps 49,816 symbol pairs, past the ~10k elements above
# which OpenBLAS splits a dot product by thread
_ESTIMATE = """
from cvqkdsim.link import LinkConfig, baseline_filters, estimate_parameters, run_chain
config = LinkConfig(distance_km=50.0, num_symbols=50_000, seed=3)
result = run_chain(config, *baseline_filters(config), 2.0)
est = estimate_parameters(result.tx_symbols, result.rx_symbols)
print(est.tau_hat.hex(), est.n_ex_hat.hex())
"""


def test_estimate_bits_do_not_depend_on_blas_threads():
    # the thread count is set only in each child's environment; with BLAS
    # dot products the two children differ in tau_hat's last bits on a host
    # with two or more CPUs
    one, two = (_child_output(_ESTIMATE, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two
