"""flexicolor request benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  One client sends requests in a closed loop, in this process: each
request calls flexicolor.cli.main for "solve <doc> --method M --out
<res>", then "verify <doc> <res>" (and "oracle <doc>" on oracle-audit).
Exit status 0 or 1 completes a request; any other status, an exception
or a failed correctness gate counts it as failed.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced passes over the pool
and prints the per-layer metrics, writing the spans under .perfbench/.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flexicolor", "cli.py")):
        print(f"error: no flexicolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
