"""cvqkdsim benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload chain-100k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else. The loop issues the next
op only when the previous one has returned. Every op's outputs are checked
against ``reference.json``; an op that raises or mismatches counts as
failed.

``--trace 0`` prints the end-to-end metrics. Op latencies are scaled to
the speed of a quiet reference host by the probe timed after each op (see
``probe.py``); set-up time is not scaled. ``--trace 1`` spends the first
half of ``--seconds`` untraced and the second half with the per-layer
timing wrappers installed, and prints the per-layer metrics. The last line
of standard output is the result object; a fuller record (environment,
latencies, failures) goes to ``perfbench/out/``, and a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Two cores host the runs and the loop has one caller: keep numpy, scipy
# and BLAS single-threaded. Set before numpy is first imported.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# p90 needs at least ten samples beyond it, so an untraced run keeps going
# past --seconds until it has this many ops (but never past HARD_EXTRA_S).
MIN_SAMPLES = 110
HARD_EXTRA_S = 60.0
SETUP_REPEATS = 3
# The host's slow spells are shorter than a chain op; one probe call samples
# them too thinly, the mean over a few calls around an op does not.
PROBE_WINDOW = 5

IMPORT_TIMER = ("import time; t = time.perf_counter(); import cvqkdsim; "
                "print(time.perf_counter() - t)")


def cap_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_import_seconds() -> float:
    """Time ``import cvqkdsim`` in a fresh interpreter (same source tree)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvqkdsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_cap": THREAD_CAP,
    }


def measure(workload, start: int, seconds: float, min_ops: int,
            max_ops: int | None = None, tracer=None, probe=None) -> dict:
    """Closed loop from op ``start`` for ``seconds`` (and at least ``min_ops``).

    With a ``probe``, the host-speed probe runs right after each op and its
    time is kept beside the op's latency.
    """
    latencies: list[float] = []
    probe_ms: list[float] = []
    failures: list[str] = []
    i = start
    loop_start = perf_counter()
    deadline = loop_start + seconds
    while True:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter()
        try:
            values = workload.run(i)
            problem = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            values = None
            problem = f"op {i}: {type(exc).__name__}: {exc}"
            if not failures:
                traceback.print_exc(file=sys.stderr)
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(t1 - t0)
        if probe is not None:
            probe_ms.append(probe())
        if problem is None:
            problem = workload.check(i, values)
        if problem is not None:
            failures.append(problem)
        latencies.append(t1 - t0)
        i += 1
        if max_ops is not None and len(latencies) >= max_ops:
            break
        if t1 >= deadline and (len(latencies) >= min_ops
                               or t1 >= deadline + HARD_EXTRA_S):
            break
    return {"latencies": latencies, "probe_ms": probe_ms, "failures": failures,
            "elapsed_s": perf_counter() - loop_start, "next": i}


def setup(workload_cls, seed: int, reference: dict):
    """Build the workload and run one warm-up op, SETUP_REPEATS times.

    Returns the last workload and the median time of one set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = workload_cls(seed, reference)
        workload.run(0)
        times.append(perf_counter() - t0)
        workload.reset()
    return workload, statistics.median(times)


def scaled_ms(phase: dict, ref_ms: float) -> list[float]:
    """Each op's latency in ms, scaled by ``ref_ms`` over the host's probe time.

    The probe time for op ``i`` is the mean of the PROBE_WINDOW probe calls
    centred on it (shifted inwards at either end of the run).
    """
    probes, latencies = phase["probe_ms"], phase["latencies"]
    n = len(latencies)
    width = min(PROBE_WINDOW, n)
    out = []
    for i, seconds in enumerate(latencies):
        lo = max(0, min(i - width // 2, n - width))
        out.append(seconds * 1e3 * ref_ms / statistics.fmean(probes[lo:lo + width]))
    return out


def end_to_end(phase: dict, setup_s: float, ref_ms: float) -> tuple[dict, dict]:
    """(metric -> (value, unit), sample counts) of an untraced phase."""
    ms = sorted(scaled_ms(phase, ref_ms))
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 2 else ms[0]
    failed = len(phase["failures"])
    return {
        "ops_per_s_scaled": (n * 1e3 / sum(ms), "1/s"),
        "op_p50_scaled_ms": (statistics.median(ms), "ms"),
        "op_p90_scaled_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1.0 - failed / n, "ratio"),
        "setup_s": (setup_s, "s"),
    }, {"samples": n, "samples_beyond_p90": sum(x > p90 for x in ms)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvqkdsim" / "__init__.py").is_file():
        print(f"no cvqkdsim source tree at {SRC}", file=sys.stderr)
        return 2
    threads = cap_threads()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import cvqkdsim
    import_s = perf_counter() - t0
    if Path(cvqkdsim.__file__).resolve().parent != SRC / "cvqkdsim":
        print(f"imported cvqkdsim from {cvqkdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    from tracing import UNITS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    imports = [import_s] + [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    workload, build_s = setup(workload_cls, args.seed, reference)
    setup_s = statistics.median(imports) + build_s

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "thread_env": threads, "import_s": imports, "build_s": build_s}
    if args.trace == 0:
        phases = [measure(workload, 0, args.seconds, MIN_SAMPLES, probe=probe.Probe())]
        metrics, samples = end_to_end(phases[0], setup_s, probe.REF_MS)
        record.update(samples)
    else:
        plain = measure(workload, 0, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, plain["next"], args.seconds / 2, 1,
                             tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = (
            (len(traced["latencies"]) / traced["elapsed_s"])
            / (len(plain["latencies"]) / plain["elapsed_s"]))
        metrics = {name: (value, UNITS[name]) for name, value in layer.items()}
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, failures=failures[:20],
                  latencies_ms=[[x * 1e3 for x in p["latencies"]] for p in phases],
                  probe_ms=[p["probe_ms"] for p in phases])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
