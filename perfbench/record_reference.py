"""Record ``reference.json``: the outputs of every pool entry, in order.

    python3 perfbench/record_reference.py [--workload NAME ...]

The references pin the outputs of the commit they were recorded at; a run
checks each op against them within the tolerances its workload states.
Record again only when a workload's definition changes, never to make a
changed program pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference["environment"] = run.environment()
    for name in args.workload or sorted(WORKLOADS):
        cls = WORKLOADS[name]
        workload = cls(None, None)
        values = [list(workload.run(i)) for i in range(cls.pool_size)]
        reference[name] = {"fields": [f[0] for f in cls.fields], "values": values,
                           **cls.derived_reference(values)}
        print(f"{name}: {len(values)} entries", file=sys.stderr)
    path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
