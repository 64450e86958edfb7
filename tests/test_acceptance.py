"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers; any
violation fails the test outright.
"""
import random
import time
from fractions import Fraction
from math import comb, factorial

import networkx as nx

from flexicolor.degeneracy import (
    Hypergraph,
    epsilon_value,
    flexible_degeneracy_order,
    hypergraph_spanning_set,
    is_three_connected,
)
from flexicolor.graph import Graph
from flexicolor.instances import (
    fig_3tree,
    fig_cycle,
    fig_diamond,
    fig_triplet_cover,
    random_bounded_degree,
    random_ktree,
    random_three_connected,
    random_treedepth,
    two_cliques_matching,
)
from flexicolor.listcolor import (
    Request,
    reduce_to_unique,
    satisfied_amount,
)
from flexicolor.maxdeg import classify_components, solve_unweighted, solve_weighted
from flexicolor.oracle import optimal_satisfaction
from flexicolor.treedepth import derandomized_coloring
from flexicolor.treewidth import (
    best_of_family,
    build_SA,
    family_size,
    two_tree_family,
)
from reference import (
    bruteforce_bad_component,
    check_admissible_everywhere,
    check_family,
    exact_game_connectivity,
    game_connectivity_by_trees,
    is_three_edge_connected,
    reference_exact_request_probability,
    reference_lambda_family,
    removable_ratio,
)


def test_ac01_unweighted_maxdeg_bound():
    start = time.perf_counter()
    count = 0
    for seed in range(1008):
        delta = 3 + seed % 3
        n = delta + 2 + seed % (15 - delta)
        size = 1 + seed % n
        inst = random_bounded_degree(
            seed, n, delta, request_kind="unweighted", request_size=size
        )
        out = solve_unweighted(inst.g, inst.L, inst.request)
        R = len(inst.request.prefs)
        assert out.satisfied >= Fraction(R, 6 * delta), seed
        assert out.satisfied >= out.certified_fraction * out.request_total
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"AC1 PASS: {count} instances, {elapsed:.1f}s, 0 violations")


def test_ac02_weighted_maxdeg_bound():
    count = 0
    for seed in range(300):
        delta = 3 + seed % 3
        n = delta + 2 + seed % (13 - delta)
        kind = "unique" if seed % 2 == 0 else "weighted"
        inst = random_bounded_degree(seed, n, delta, request_kind=kind)
        out = solve_weighted(inst.g, inst.L, inst.request)
        total = inst.request.total()
        if kind == "unique":
            assert out.satisfied >= total / Fraction(2 * delta**3), seed
        else:
            assert out.satisfied >= total / Fraction(2 * delta**4), seed
        assert out.satisfied >= out.certified_fraction * out.request_total
        count += 1
    print(f"AC2 PASS: {count} weighted instances, 0 violations")


def test_ac03_oracle_fixtures():
    d = fig_diamond()
    assert optimal_satisfaction(d.g, d.L, d.request).optimum == 0
    c = fig_cycle()
    assert optimal_satisfaction(c.g, c.L, c.request).optimum == 0
    t = two_cliques_matching(3)
    assert optimal_satisfaction(t.g, t.L, t.request).optimum == 1
    print("AC3 PASS: diamond=0, ten-cycle=0, two-cliques=1 exactly")


def test_ac04_two_tree_family_scale():
    rng = random.Random(42)
    # admissibility on mid-size trees
    for seed in range(5):
        inst = random_ktree(seed, 500, 2, list_size=3)
        fam = two_tree_family(inst.g, inst.ktree, inst.L)
        check_family(inst.g, inst.L, fam)
        check_admissible_everywhere(inst.g, inst.L, fam)
    # 1000 random weighted requests on one n=200 instance
    inst = random_ktree(7, 200, 2, list_size=3)
    fam = two_tree_family(inst.g, inst.ktree, inst.L)
    for _ in range(1000):
        vs = rng.sample(range(inst.g.n), rng.randint(1, inst.g.n))
        req = Request(
            "unique",
            prefs={v: rng.choice(sorted(inst.L[v])) for v in vs},
            weights={v: Fraction(rng.randint(1, 99)) for v in vs},
        )
        best = best_of_family(inst.g, inst.L, fam, req)
        assert satisfied_amount(inst.g, inst.L, best, req) * 3 >= req.total()
    # linear-time construction at scale
    big = random_ktree(11, 100_000, 2, list_size=3)
    t0 = time.perf_counter()
    fam_big = two_tree_family(big.g, big.ktree, big.L)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"n=100000 took {elapsed:.2f}s"
    check_admissible_everywhere(big.g, big.L, fam_big)
    print(
        f"AC4 PASS: admissible everywhere, 1000 requests >= total/3, "
        f"n=100000 in {elapsed:.2f}s"
    )


def _partitions(total, max_part=3):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in _partitions(total - first, max_part):
            yield (first,) + rest


def _lambda_fixture(seed, n, lam):
    rng = random.Random(seed)
    k = sum(lam) - 1
    inst = random_ktree(seed, n, k, list_size=k + 1)
    base = 1
    classes = []
    for p in lam:
        classes.append(tuple(range(base, base + p + 2)))
        base += p + 2
    L = {}
    for v in range(inst.g.n):
        lst = set()
        for i, p in enumerate(lam):
            lst |= set(rng.sample(classes[i], p))
        L[v] = lst
    return inst.g, inst.ktree, tuple(classes), L


def test_ac05_counting_identity():
    checked = 0
    for k in range(1, 5):
        for lam in _partitions(k + 1):
            n = min(12, k + 5)
            g, order, classes, L = _lambda_fixture(k * 10 + len(lam), n, lam)
            fam = reference_lambda_family(g, order, lam, classes, L)
            counts = check_family(g, L, fam)
            # size identity, level by level: the factor consistent with
            # the per-pair frequency |D|/(k+1) is
            # (C(k, lam_t - 1) + C(k, lam_t)) * lam_t!
            assert len(fam.members) == family_size(lam)
            if len(lam) > 1:
                kk = sum(lam) - 1
                t = lam[-1]
                assert len(fam.members) == (
                    (comb(kk, t - 1) + comb(kk, t))
                    * factorial(t)
                    * family_size(lam[:-1])
                )
            for v in range(g.n):
                for c in L[v]:
                    assert counts[(v, c)] * (k + 1) == len(fam.members), (lam, v, c)
            checked += 1
    # figure walkthrough: seed {1,2} grows to {1,2,4,5,7,8} (1-based)
    f3 = fig_3tree()
    S = build_SA(f3.g, f3.ktree, {0, 1}, 1)
    assert {v + 1 for v in S} == {1, 2, 4, 5, 7, 8}
    print(
        f"AC5 PASS: identity exact for {checked} (k, partition) combos; "
        "figure subset matches"
    )


def test_ac06_treedepth_probabilities():
    count = 0
    pairs = 0
    for seed in range(500):
        n = 8 + seed % 13
        height = 2 + seed % 3
        kind = "unique" if seed % 2 == 0 else "weighted"
        ti = random_treedepth(seed, n, height, request_kind=kind)
        inst = (ti.g, ti.forest, ti.L)
        k = ti.forest.height()
        if kind == "unique":
            unique = ti.request
        else:
            unique = reduce_to_unique(ti.request)
            if not unique.prefs:
                continue
        for v, c in unique.prefs.items():
            p = reference_exact_request_probability(*inst, v, c, unique)
            assert p >= Fraction(1, k), (seed, v, c, p)
            pairs += 1
        col = derandomized_coloring(*inst, unique)
        sat = satisfied_amount(ti.g, ti.L, col, ti.request)
        if kind == "unique":
            assert sat * k >= ti.request.total(), seed
        else:
            assert sat * k * k >= ti.request.total() or sat * k * max(
                len(ti.L[v]) for v in range(ti.g.n)
            ) >= ti.request.total(), seed
        count += 1
    print(
        f"AC6 PASS: {count} instances, {pairs} exact probabilities >= 1/k, "
        "0 violations"
    )


def test_ac07_spanning_set_bound():
    rng = random.Random(77)
    accepted = 0
    tried = 0
    while accepted < 200 and tried < 20000:
        tried += 1
        n = rng.randint(2, 30)
        d = rng.randint(2, 6)
        m = rng.randint(max(3, (3 * n + d - 1) // d), 3 * n + 5)
        edges = []
        for _ in range(m):
            size = rng.randint(1, min(d, n))
            edges.append(tuple(sorted(rng.sample(range(n), size))))
        h = Hypergraph.build(n, edges)
        if not is_three_edge_connected(h):
            continue
        A = hypergraph_spanning_set(h, d)
        assert len(A) <= (1 - epsilon_value(d)) * len(h.edges), (n, d)
        accepted += 1
    assert accepted >= 200
    assert epsilon_value(2) == Fraction(1, 3)
    assert epsilon_value(3) == Fraction(1, 4)
    assert epsilon_value(4) == Fraction(3, 19)
    print(f"AC7 PASS: {accepted} accepted hypergraphs, 0 bound violations")


def test_ac08_degeneracy_pipeline():
    # a 3-connected graph has minimum degree 3, so a non-regular instance
    # forces maximum degree at least 4; the family runs at maxdeg 4
    count = 0
    for seed in range(100):
        n = 12 + 2 * (seed % 7)
        inst = random_three_connected(seed, n)
        assert is_three_connected(inst.g)
        R0 = sorted(inst.request.domain())
        out = flexible_degeneracy_order(inst.g, R0)
        ordering = out.ordering
        ordering.validate(inst.g)  # back-degree bullet
        pos = {v: i for i, v in enumerate(ordering.order)}
        for v in ordering.first:  # first-among-neighbors bullet
            assert all(pos[u] > pos[v] for u in inst.g.neighbors(v))
        sat = len(ordering.first & set(R0))
        assert sat >= out.certified_fraction * len(R0), seed
        delta = inst.g.max_degree()
        assert out.certified_fraction >= epsilon_value(delta) / (
            2 * (delta + 1) ** 2
        )
        count += 1
    print(f"AC8 PASS: {count} 3-connected non-regular instances, 0 violations")


def test_ac09_game_connectivity():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert exact_game_connectivity(c4)[0] == Fraction(1, 2)
    assert exact_game_connectivity(k4)[0] == Fraction(3, 4)
    assert removable_ratio(fig_triplet_cover().g, range(5)) == Fraction(2, 5)

    swept = 0
    for ng in nx.graph_atlas_g():
        n = ng.number_of_nodes()
        if n < 3 or n > 7:
            # on one or two vertices a spanning tree makes every vertex
            # a leaf while the remove-set form must keep one; the
            # formulations provably differ there, so the equivalence
            # sweep starts at three vertices
            continue
        if not nx.is_connected(ng):
            continue
        nodes = sorted(ng.nodes())
        idx = {u: i for i, u in enumerate(nodes)}
        g = Graph(n, [(min(idx[a], idx[b]), max(idx[a], idx[b])) for a, b in ng.edges()])
        assert exact_game_connectivity(g)[0] == game_connectivity_by_trees(g), g
        swept += 1
    assert swept > 800
    print(
        f"AC9 PASS: goldens 1/2, 3/4, 2/5; formulations agree on "
        f"{swept} connected graphs with 3 <= n <= 7"
    )


def test_ac10_cross_validation():
    solver_checked = 0
    for seed in range(60):
        delta = 3 + seed % 2
        inst = random_bounded_degree(seed, 9 + seed % 2, delta)
        out = solve_unweighted(inst.g, inst.L, inst.request)
        opt = optimal_satisfaction(inst.g, inst.L, inst.request)
        assert out.satisfied <= opt.optimum
        assert out.certified_fraction * out.request_total <= opt.optimum
        rq = Request(
            "unique",
            prefs=dict(inst.request.prefs),
            weights={v: Fraction(1 + v % 4) for v in inst.request.prefs},
        )
        ow = solve_weighted(inst.g, inst.L, rq)
        optw = optimal_satisfaction(inst.g, inst.L, rq)
        assert ow.satisfied <= optw.optimum
        assert ow.certified_fraction * ow.request_total <= optw.optimum
        solver_checked += 1

    # bad-component classification vs the independent brute force on all
    # pruned subgraphs encountered
    agree = 0
    for seed in range(40):
        inst = random_bounded_degree(seed + 500, 10, 3)
        g, L = inst.g, inst.L
        prefs = dict(inst.request.prefs)
        S = set()
        for v in sorted(prefs):
            if all(u not in S for u in g.neighbors(v)):
                S.add(v)
        for rep in classify_components(g, L, S, prefs):
            sub, ids = g.induced(rep.vertices)
            if sub.n > 10:
                continue
            relabeled = {i: rep.pruned_lists[ids[i]] for i in range(sub.n)}
            assert rep.bad == bruteforce_bad_component(sub, relabeled)
            agree += 1
    assert agree > 60
    print(
        f"AC10 PASS: {solver_checked} solver runs within oracle optimum; "
        f"{agree} component classifications agree with brute force"
    )
