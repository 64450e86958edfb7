"""Request pools for the three benchmark workloads.

Every pool is built from the workload seed alone.  Instance parameters
come from a fixed grid (sizes, degrees, partitions, request kinds), and the
seed only draws the random structure inside each cell, so two seeds give
pools of the same shape and cost.  Each job is one client request: one
canonical instance document plus the solve arguments that go with it.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

from flexicolor import instances
from flexicolor.listcolor import Request


@dataclass(frozen=True)
class Job:
    label: str  # family and size, for failure messages
    doc: str  # path of the serialized instance document
    inst: instances.InstanceFile  # the instance the correctness gate checks against
    solve_args: tuple  # arguments after "solve <doc>"
    oracle: bool = False  # also run "oracle <doc>" and check against it


def _request(g, L: dict, rng: random.Random, kind: str, size: int) -> Request:
    """A request of the given kind on `size` distinct vertices."""
    vs = sorted(rng.sample(range(g.n), size))
    if kind == "unweighted":
        return Request("unweighted", prefs={v: rng.choice(sorted(L[v])) for v in vs})
    if kind == "unique":
        return Request(
            "unique",
            prefs={v: rng.choice(sorted(L[v])) for v in vs},
            weights={v: Fraction(rng.randint(1, 10)) for v in vs},
        )
    table = {}
    for v in vs:
        for c in sorted(L[v]):
            if rng.random() < 0.5:
                table[(v, c)] = Fraction(rng.randint(1, 10))
    if not table:
        table[(vs[0], min(L[vs[0]]))] = Fraction(1)
    return Request("weighted", table=table)


class _Writer:
    """Serializes instances into numbered documents under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def job(self, label, inst, solve_args, oracle=False) -> Job:
        path = os.path.join(self.directory, f"{self.count:05d}.fi")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instances.serialize(inst))
        return Job(label, path, inst, tuple(solve_args), oracle)


# ---------------------------------------------------------------------------
# maxdeg-docs

# (n, maxdeg) cells.  Delta=3 stays at n=60: random_bounded_degree retries
# rejected samples at Delta=3, and the retries blow up with n.
MAXDEG_CELLS = ((60, 3), (75, 4), (100, 4), (125, 4), (100, 5), (125, 5), (150, 5))
# (request kind, request size as a share of n, method)
MAXDEG_KINDS = (
    ("unweighted", 1.0, "maxdeg"),
    ("unweighted", 0.5, "maxdeg"),
    ("unique", 0.5, "maxdeg-weighted"),
    ("weighted", 0.5, "maxdeg-weighted"),
)
MAXDEG_REPS = 2  # copies of the kind x cell x palette grid in one pool


def maxdeg_docs(seed: int, w: _Writer) -> list:
    rng = random.Random(seed)
    jobs = []
    for kind, share, method in MAXDEG_KINDS * MAXDEG_REPS:
        for n, delta in MAXDEG_CELLS:
            # tight lists (palette = maxdeg) make bad components and run
            # the b-value loop; loose lists (maxdeg + 2) skip it
            for palette in (delta, delta + 2):
                inst = instances.random_bounded_degree(
                    rng.randrange(2**31), n, delta, palette=palette
                )
                inst.request = _request(inst.g, inst.L, rng, kind, int(share * n))
                label = f"bounded n={n} delta={delta} palette={palette} {kind}"
                jobs.append(w.job(label, inst, ("--method", method)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# ktree-shared

# 2-tree groups hold 8 requests and 3-tree groups 6, so 32 of the 56
# requests in a pool are 2-tree ones: the median lands in the middle of
# the smallest 2-tree group and p90 well inside the 16 requests on the two
# largest 2-trees, where single slow requests move it least.
TWO_TREE_SIZES = (1000, 1300, 2000, 2000)
TWO_TREE_GROUP = 8
LAMBDA_CELLS = (((1, 3), 24), ((2, 2), 28), ((1, 1, 2), 32), ((2, 2), 36))
LAMBDA_GROUP = 6
KINDS = ("unweighted", "unique", "weighted")


def _class_split_lists(n: int, lam: tuple, rng: random.Random) -> dict:
    """Lists taking lam[i] colors from class i, classes of size lam[i]+1."""
    classes, first = [], 1
    for part in lam:
        classes.append(range(first, first + part + 1))
        first += part + 1
    return {
        v: {c for cls, part in zip(classes, lam) for c in rng.sample(cls, part)}
        for v in range(n)
    }


def _group(w, rng, size: int, label, inst, solve_args) -> list:
    """`size` documents sharing inst's graph and lists, each with its own
    request.  The i-th request covers (i+1)/size of the vertices, so every
    seed gives a group the same mix of request kinds and sizes."""
    jobs = []
    for i in range(size):
        kind = KINDS[i % len(KINDS)]
        req = _request(inst.g, inst.L, rng, kind, (i + 1) * inst.g.n // size)
        shared = instances.InstanceFile(inst.g, inst.L, req, inst.ktree, name=inst.name)
        jobs.append(w.job(f"{label} {kind}", shared, solve_args))
    return jobs


def ktree_shared(seed: int, w: _Writer) -> list:
    rng = random.Random(seed)
    groups = []
    for n, (lam, lam_n) in zip(TWO_TREE_SIZES, LAMBDA_CELLS):
        inst = instances.random_ktree(rng.randrange(2**31), n, 2, request_kind="")
        groups.append(_group(w, rng, TWO_TREE_GROUP, f"2-tree n={n}", inst,
                             ("--method", "two-tree")))
        inst = instances.random_ktree(rng.randrange(2**31), lam_n, sum(lam) - 1, request_kind="")
        inst.L = _class_split_lists(lam_n, lam, rng)
        lam_arg = ",".join(str(p) for p in lam)
        groups.append(_group(w, rng, LAMBDA_GROUP, f"3-tree n={lam_n} lam={lam_arg}", inst,
                             ("--method", "lambda", "--lam", lam_arg)))
    rng.shuffle(groups)
    return [job for g in groups for job in g]


# ---------------------------------------------------------------------------
# oracle-audit


def _oracle_pool(rng: random.Random) -> list:
    """(label, instance, solve args) at desk scale: n 10-14 for 2-trees,
    up to ORACLE_BOUNDED_MAX_N and ORACLE_TREEDEPTH_MAX_N for bounded-degree
    and treedepth documents; every list product stays within
    oracle.DEFAULT_BUDGET."""
    out = []
    for n in (10, 11, 12, 13, 14):
        if n <= ORACLE_BOUNDED_MAX_N:
            inst = instances.random_bounded_degree(rng.randrange(2**31), n, 3)
            inst.request = _request(inst.g, inst.L, rng, "unweighted", rng.randint(1, n))
            out.append((f"bounded n={n}", inst, ("--method", "maxdeg")))
            inst = instances.random_bounded_degree(rng.randrange(2**31), n, 3)
            kind = KINDS[1 + n % 2]
            inst.request = _request(inst.g, inst.L, rng, kind, rng.randint(1, n))
            out.append((f"bounded n={n} {kind}", inst, ("--method", "maxdeg-weighted")))
        inst = instances.random_ktree(rng.randrange(2**31), n, 2, request_kind="")
        inst.request = _request(inst.g, inst.L, rng, KINDS[n % 3], rng.randint(1, n))
        out.append((f"2-tree n={n}", inst, ("--method", "two-tree")))
        if n <= ORACLE_TREEDEPTH_MAX_N:
            inst = instances.random_treedepth(rng.randrange(2**31), n, 3, request_kind="")
            inst.request = _request(inst.g, inst.L, rng, KINDS[1 + n % 2], rng.randint(1, n))
            out.append((f"treedepth n={n}", inst, ("--method", "treedepth")))
    inst = instances.random_three_connected(rng.randrange(2**31), 10)
    out.append(("3-connected n=10", inst, ("--method", "degeneracy")))
    for lam, n in (((2, 2), 10), ((1, 3), 11)):
        inst = instances.random_ktree(rng.randrange(2**31), n, 3, request_kind="")
        inst.L = _class_split_lists(n, lam, rng)
        inst.request = _request(inst.g, inst.L, rng, "unique", rng.randint(1, n))
        lam_arg = ",".join(str(p) for p in lam)
        out.append((f"3-tree n={n} lam={lam_arg}", inst,
                    ("--method", "lambda", "--lam", lam_arg)))
    # figure fixtures a solver accepts; fig-cycle and fig-diamond have
    # optimum 0, which no certified solver can meet, so they are left out
    for delta in (3, 4, 5):
        out.append((f"two-cliques-matching {delta}",
                    instances.two_cliques_matching(delta), ("--method", "maxdeg")))
    fig = instances.fig_3tree()
    fig.request = _request(fig.g, fig.L, rng, "unique", rng.randint(1, fig.g.n))
    out.append(("fig-3tree", fig, ("--method", "lambda", "--lam", "2,2")))
    return out


# The oracle's time on one bounded-degree document with n 13-14 or one
# treedepth document with n 12 varies with the drawn graph by about its
# own mean, so a few of them decided a pass's time: its oracle leaf count
# had a quartile spread of 0.075 across seeds.  Those families stop at n 12 and 11 (2-trees still reach
# n 14), and twenty rounds spread the rest.  One pass takes about 22 s.
ORACLE_ROUNDS = 20
ORACLE_BOUNDED_MAX_N = 12
ORACLE_TREEDEPTH_MAX_N = 11


def oracle_audit(seed: int, w: _Writer) -> list:
    rng = random.Random(seed)
    jobs = [
        w.job(label, inst, args, oracle=True)
        for _ in range(ORACLE_ROUNDS)
        for label, inst, args in _oracle_pool(rng)
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "maxdeg-docs": maxdeg_docs,
    "ktree-shared": ktree_shared,
    "oracle-audit": oracle_audit,
}


def build(name: str, seed: int, directory: str) -> list:
    """Generate, serialize and write the pool of `name` for `seed`."""
    os.makedirs(directory, exist_ok=True)
    return WORKLOADS[name](seed, _Writer(directory))
