"""Repeat benchmark runs and summarize their spread, or compare two summaries.

    python3 perfbench/repeat.py --seeds 1 2 3 4 5 --out perfbench/out/a.json
    python3 perfbench/repeat.py --compare perfbench/out/a.json perfbench/out/b.json

A summary holds, per workload and end-to-end metric, every run's value,
the median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A comparison reports, per workload and metric, how much worse the second
median is than the first, as a share of the first, against the bound.
Runs are made one after another; a seed may be repeated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"correct": all(r["correct"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name, spec in METRICS.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out["metrics"][name] = {"values": values, "q1": q1, "median": median,
                                "q3": q3, "spread": spread, "bound": spec["bound"],
                                "within_third_of_bound": spread < spec["bound"] / 3}
    return out


def worse_share(name: str, before: float, after: float) -> float:
    change = (after - before) / before
    return change if METRICS[name]["better"] == "lower" else -change


def compare(first: dict, second: dict) -> dict:
    report = {}
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        rows = {}
        for name, spec in METRICS.items():
            a = first["workloads"][workload]["metrics"][name]["median"]
            b = second["workloads"][workload]["metrics"][name]["median"]
            worse = worse_share(name, a, b)
            rows[name] = {"first": a, "second": b, "worse_share": worse,
                          "bound": spec["bound"], "within_bound": worse <= spec["bound"]}
        report[workload] = rows
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2)
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        report = compare(first, second)
        for workload, rows in report.items():
            for name, row in rows.items():
                print(f"{workload:14s} {name:12s} {row['first']:12.5g} -> "
                      f"{row['second']:12.5g}  worse {row['worse_share']:+.4f} "
                      f"(bound {row['bound']})  {'ok' if row['within_bound'] else 'OVER'}")
        print(json.dumps(report))
        return 0

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        results = [one_run(workload, seed, args.seconds) for seed in args.seeds]
        summary["workloads"][workload] = summarize(results)
        for name, row in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:14s} {name:12s} median {row['median']:12.5g} "
                  f"spread {row['spread']:.4f} (bound {row['bound']})", flush=True)
    env = json.loads((HERE / "out" / f"{workloads[-1]}.seed{args.seeds[-1]}.trace0.json")
                     .read_text())["environment"]
    summary["environment"] = env
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
