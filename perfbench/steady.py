"""Steadiness check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py [--workload NAME ...]

Runs perfbench/run.py ten times per workload and set, one run at a time,
with the run length of BENCHMARK.json.  Both sets use the seeds 1 to 10,
so a metric that is fixed for a seed (satisfied_share, bound_met_rate)
must give the same median twice.  For every end-to-end metric it reports
each set's median and spread (the distance between the first and third
quartile as a share of the median) and the signed change of the second
median against the first, counted in the metric's worse direction.

A workload is steady when no run failed and, for every metric, the
change lies within the metric's bound either way and each spread lies
within the bound.  The spread of setup_s is printed but not judged:
set-up is judged on its median change alone.  Exits 0 when every
workload is steady, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)  # ten runs in each of the two sets
EXEMPT_SPREAD = ("setup_s",)  # set-up is judged on its median only


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`;
    negative when it is better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(metric: dict, first: list, second: list) -> dict:
    """Verdict for one metric given its values in the two sets of runs."""
    medians = (statistics.median(first), statistics.median(second))
    spreads = (spread(first), spread(second))
    worse = worsening(*medians, metric["better"])
    ok = abs(worse) <= metric["bound"]
    if metric["name"] not in EXEMPT_SPREAD:
        ok = ok and max(spreads) <= metric["bound"]
    return {"medians": medians, "spreads": spreads, "worse": worse, "ok": ok}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_set(workload: str, number: int, seconds: int) -> list:
    results = []
    for seed in SEEDS:
        res = run_once(workload, seed, seconds)
        results.append(res)
        print(f"{workload} set {number} seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()), flush=True)
    return results


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    all_steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first, second = (run_set(workload, k, spec["run_seconds"]) for k in (1, 2))
        failed = sum(r["failed"] + (not r["correct"]) for r in first + second)
        print(f"\n{workload}: {'no failed request' if not failed else f'{failed} FAILED'}")
        print(f"  {'metric':<16} {'unit':<6} {'bound':>5}  median1    spread1  "
              "median2    spread2   worse  verdict   (worse < 0: second set better)")
        steady = not failed
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict = judge(metric, *([r["metrics"][name]["value"] for r in s]
                                      for s in (first, second)))
            steady = steady and verdict["ok"]
            cols = "  ".join(f"{m:<10.5g} {s:>7.3f}" for m, s in zip(verdict["medians"], verdict["spreads"]))
            note = "  (spread not judged)" if name in EXEMPT_SPREAD else ""
            print(f"  {name:<16} {metric['unit']:<6} {metric['bound']:>5}  {cols}"
                  f"  {verdict['worse']:>+6.3f}  {'ok' if verdict['ok'] else 'NOT STEADY'}{note}")
        print(f"  {workload} steady: {'yes' if steady else 'no'}\n", flush=True)
        all_steady = all_steady and steady
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
