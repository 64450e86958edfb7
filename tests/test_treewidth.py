import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from flexicolor.errors import PreconditionError
from flexicolor.graph import Graph
from flexicolor.instances import fig_3tree, random_ktree
from flexicolor.listcolor import Request, satisfied_amount
from flexicolor.treewidth import (
    _seed_edge,
    best_of_family,
    build_SA,
    check_admissible_everywhere,
    extend_phi,
    family_size,
    is_admissible,
    lambda_family,
    tree_pair_family,
    two_tree_family,
)
from reference import reference_seed_edge


class TestTreePairFamily:
    def test_path_covers_both_lists(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        L = {0: {1, 2}, 1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
        fam = tree_pair_family(g, L)
        fam.verify(g, L)
        assert len(fam.members) == 2 and fam.period == 2

    def test_random_trees(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 15)
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            L = {v: set(rng.sample(range(1, 6), 2)) for v in range(n)}
            fam = tree_pair_family(g, L)
            fam.verify(g, L)


class TestSixColoringFamily:
    def test_worked_edge_extension(self):
        # lists {1,2,3} at u, {1,2,4} at v, {1,3,4} at w; the pair family
        # (1,2),(1,4),(2,1),(2,4),(3,1),(3,2) on the edge uv extends to
        # exactly 4,3,3,1,4,1 at w
        phis = [
            {0: 1, 1: 2},
            {0: 1, 1: 4},
            {0: 2, 1: 1},
            {0: 2, 1: 4},
            {0: 3, 1: 1},
            {0: 3, 1: 2},
        ]
        Lu, Lv, Lw = {1, 2, 3}, {1, 2, 4}, {1, 3, 4}
        assert is_admissible(phis, 0, 1, Lu, Lv)
        out = extend_phi([dict(p) for p in phis], 0, 1, 2, Lw)
        assert [p[2] for p in out] == [4, 3, 3, 1, 4, 1]
        assert is_admissible(out, 0, 2, Lu, Lw)
        assert is_admissible(out, 1, 2, Lv, Lw)

    def test_admissibility_conditions(self):
        phis = [
            {0: 1, 1: 2},
            {0: 1, 1: 2},  # repeated pair
            {0: 2, 1: 1},
            {0: 2, 1: 3},
            {0: 3, 1: 1},
            {0: 3, 1: 3},
        ]
        assert not is_admissible(phis, 0, 1, {1, 2, 3}, {1, 2, 3})

    def test_seed_edge_matches_pattern_search(self):
        # every ordered pair of 3-subsets of {1..7}: 35 * 35 = 1225 edges
        subsets = [set(c) for c in combinations(range(1, 8), 3)]
        checked = 0
        for Lu in subsets:
            for Lv in subsets:
                seed = _seed_edge(0, 1, Lu, Lv)
                assert seed == reference_seed_edge(0, 1, Lu, Lv), (Lu, Lv)
                assert is_admissible(seed, 0, 1, Lu, Lv)
                checked += 1
        assert checked == 1225

    def test_two_tree_family_small(self):
        inst = random_ktree(0, 12, 2, list_size=3)
        fam = two_tree_family(inst.g, inst.ktree, inst.L)
        fam.verify(inst.g, inst.L)
        check_admissible_everywhere(inst.g, inst.L, fam)
        assert len(fam.members) == 6 and fam.period == 3

    def test_best_of_family_averaging(self):
        rng = random.Random(8)
        inst = random_ktree(3, 20, 2, list_size=3)
        for _ in range(20):
            vs = rng.sample(range(inst.g.n), rng.randint(1, inst.g.n))
            req = Request(
                "unique",
                prefs={v: rng.choice(sorted(inst.L[v])) for v in vs},
                weights={v: Fraction(rng.randint(1, 9)) for v in vs},
            )
            best = best_of_family(inst.g, inst.L, fam := two_tree_family(inst.g, inst.ktree, inst.L), req)
            assert satisfied_amount(inst.g, inst.L, best, req) * 3 >= req.total()


class TestBuildSA:
    def test_figure_walkthrough(self):
        # seed subset {1,2} of the drawn 3-tree grows to {1,2,4,5,7,8}
        # in the figure's 1-based labels
        inst = fig_3tree()
        S = build_SA(inst.g, inst.ktree, {0, 1}, 1)
        assert {v + 1 for v in S} == {1, 2, 4, 5, 7, 8}

    def test_seed_size_checked(self):
        inst = fig_3tree()
        with pytest.raises(PreconditionError):
            build_SA(inst.g, inst.ktree, {0}, 1)

    def test_clique_trace_covers_all_subsets(self):
        # every k-clique meets the grown sets in all subsets of the two
        # admissible sizes, over all seeds
        inst = random_ktree(6, 9, 3)
        g, order = inst.g, inst.ktree
        k, lam_t = 3, 1
        head = list(order.sequence[:k])
        seeds = [
            set(A)
            for size in (k - lam_t, k - lam_t + 1)
            for A in combinations(head, size)
        ]
        grown = [build_SA(g, order, A, lam_t) for A in seeds]
        cliques = [
            c
            for c in combinations(range(g.n), k)
            if all(g.has_edge(a, b) for a, b in combinations(c, 2))
        ]
        for K in cliques:
            traces = {frozenset(set(K) & S) for S in grown}
            expected = {
                frozenset(A)
                for size in (k - lam_t, k - lam_t + 1)
                for A in combinations(K, size)
            }
            assert traces == expected


class TestFamilySize:
    def test_base_cases(self):
        assert family_size((1,)) == 1
        assert family_size((2,)) == 2
        assert family_size((3,)) == 6

    def test_level_recurrence(self):
        for lam in [(1, 2), (2, 1), (3, 1), (1, 1, 2), (2, 2), (3, 3)]:
            k = sum(lam) - 1
            t = lam[-1]
            assert family_size(lam) == (
                (comb(k, t - 1) + comb(k, t)) * factorial(t) * family_size(lam[:-1])
            )


def make_lambda_instance(seed, n, lam):
    """Random k-tree with lists drawn to match the partition classes."""
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


class TestLambdaFamily:
    @pytest.mark.parametrize("lam", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 2), (3, 1)])
    def test_counting_identity(self, lam):
        g, order, classes, L = make_lambda_instance(sum(lam), 8, lam)
        fam = lambda_family(g, order, lam, classes, L)
        fam.verify(g, L)
        assert len(fam.members) == family_size(lam)
        k = sum(lam) - 1
        counts = fam.frequencies()
        for v in range(g.n):
            for c in L[v]:
                assert counts[(v, c)] * (k + 1) == len(fam.members)

    def test_rejects_overlapping_classes(self):
        g, order, classes, L = make_lambda_instance(1, 6, (1, 2))
        bad = (classes[0], classes[0] + classes[1])
        with pytest.raises(PreconditionError, match="overlap"):
            lambda_family(g, order, (1, 2), bad, L)

    def test_rejects_large_parts(self):
        inst = random_ktree(2, 7, 3, list_size=4, palette=4)
        L = {v: {1, 2, 3, 4} for v in range(inst.g.n)}
        with pytest.raises(PreconditionError, match="open problem"):
            lambda_family(inst.g, inst.ktree, (4,), ((1, 2, 3, 4),), L)

    def test_rejects_wrong_class_count(self):
        g, order, classes, L = make_lambda_instance(3, 6, (1, 2))
        with pytest.raises(PreconditionError):
            lambda_family(g, order, (1, 2), (classes[0],), L)

    def test_best_of_family_fraction(self):
        g, order, classes, L = make_lambda_instance(4, 9, (1, 2))
        fam = lambda_family(g, order, (1, 2), classes, L)
        rng = random.Random(0)
        for _ in range(10):
            vs = rng.sample(range(g.n), rng.randint(1, g.n))
            req = Request(
                "unweighted", prefs={v: rng.choice(sorted(L[v])) for v in vs}
            )
            best = best_of_family(g, L, fam, req)
            assert satisfied_amount(g, L, best, req) * fam.period >= len(vs)
