"""Compare the benchmark of a base commit with the working tree, in pairs.

    python3 tools/compare.py --workload NAME [--workload NAME ...]
        [--seed N ...] [--pairs K] [--base REV] [--seconds S] [--json PATH]

Exports REV (HEAD by default) twice with `git archive`, as A and A', and
runs `perfbench/run.py --trace 0` from A, A' and the working tree in
turn, K times per workload and seed, rotating which of the three runs
first.  Each round gives one A/B pair (A against the working tree) and
one A/A pair (A against A'): two checkouts of one commit show how far
apart the host puts identical code.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the median of the paired ratios B/A with their
quartiles, how many pairs B won, the same ratios for the A/A pairs, and
a verdict:
  gain   B won at least nine tenths of the pairs and the medians differ
         by more than the distance between A's quartiles;
  worse  B's median is worse than A's by more than the metric's bound;
  held   otherwise.
A run that is not `correct` is reported and left out of the pairs.
--json writes every run's metrics and the summary.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, directory: str) -> str:
    """Extract the tree of `rev` into `directory`."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(directory, filter="data")
    return directory


def bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced run from `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return result


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metric: dict, base: list, head: list, aa: list, rounds: int) -> dict:
    """The figures and the verdict of one metric; base[i] and head[i]
    form a pair, as do base[i] and aa[i].  `rounds` counts the rounds
    run, those with a run not correct included, which B did not win."""
    name, lower = metric["name"], metric["better"] == "lower"

    def better(b, a):
        return b < a if lower else b > a

    ratios = [b / a for a, b in zip(base, head) if a]
    aa_ratios = [b / a for a, b in zip(base, aa) if a]
    bq, hq = quartiles(base), quartiles(head)
    wins = sum(map(better, head, base))
    gain = wins >= 0.9 * rounds and abs(hq[1] - bq[1]) > bq[2] - bq[0] and better(hq[1], bq[1])
    change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    worse = (change if lower else -change) > metric["bound"]
    return {
        "metric": name,
        "base": bq,
        "head": hq,
        "ratio": quartiles(ratios) if ratios else None,
        "aa_ratio": quartiles(aa_ratios) if aa_ratios else None,
        "wins": wins,
        "pairs": rounds,
        "verdict": "gain" if gain else "worse" if worse else "held",
    }


def _fmt(q) -> str:
    return "-" if q is None else f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (BENCHMARK.json's run_seconds by default)")
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    seeds = args.seed or [1]
    report = {"base": args.base, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            "A": export(args.base, os.path.join(tmp, "a")),
            "A'": export(args.base, os.path.join(tmp, "a2")),
            "B": ROOT,
        }
        names = list(sides)
        for workload in args.workload:
            runs = {side: [] for side in sides}
            failed = []
            for seed in seeds:
                for i in range(args.pairs):
                    order = names[i % 3 :] + names[: i % 3]
                    got = {s: bench(sides[s], workload, seed, seconds) for s in order}
                    bad = [s for s in order if not got[s].get("correct")]
                    if bad:
                        failed.append({"seed": seed, "round": i, "sides": bad,
                                       "results": {s: got[s] for s in bad}})
                        print(f"{workload} seed {seed} round {i}: not correct on {bad}",
                              file=sys.stderr)
                        continue
                    for s in sides:
                        runs[s].append({"seed": seed, "order": order,
                                        **{k: v["value"] for k, v in got[s]["metrics"].items()}})
                    print(f"{workload} seed {seed} round {i} done ({' '.join(order)})",
                          file=sys.stderr)
            rows = []
            if runs["A"]:
                for metric in spec["end_to_end"]:
                    name = metric["name"]
                    rows.append(summary(
                        metric,
                        [r[name] for r in runs["A"]],
                        [r[name] for r in runs["B"]],
                        [r[name] for r in runs["A'"]],
                        len(runs["A"]) + len(failed),
                    ))
            report["workloads"][workload] = {"runs": runs, "failed": failed, "summary": rows}
            print(f"\n{workload}: seeds {seeds}, {len(runs['A'])} rounds, "
                  f"{len(failed)} with a run not correct")
            print(f"  {'metric':<16} {'A median [q1, q3]':<28} {'B median [q1, q3]':<28} "
                  f"{'B/A':<26} {'wins':<7} {'A/A':<26} verdict")
            for row in rows:
                print(f"  {row['metric']:<16} {_fmt(row['base']):<28} {_fmt(row['head']):<28} "
                      f"{_fmt(row['ratio']):<26} {row['wins']:>2}/{row['pairs']:<4} "
                      f"{_fmt(row['aa_ratio']):<26} {row['verdict']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
