import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor.errors import InternalInvariantError, PreconditionError
from flexicolor.graph import Graph, KTreeOrder, validate_ktree_order
from flexicolor.instances import fig_3tree, random_ktree
from flexicolor.listcolor import Request, satisfied_amount
from flexicolor.treewidth import (
    ColoringFamily,
    _extend,
    _state,
    best_of_family,
    build_SA,
    family_size,
    lambda_family,
    tree_pair_family,
    two_tree_family,
)
from reference import (
    check_admissible_everywhere,
    check_family,
    is_admissible,
    reference_best_of_family,
    reference_extend_values,
    reference_lambda_family,
    reference_seed_edge,
    reference_two_tree_family,
)


class TestTreePairFamily:
    def test_path_covers_both_lists(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        L = {0: {1, 2}, 1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
        fam = tree_pair_family(g, L)
        check_family(g, L, fam)
        assert len(fam.members) == 2 and fam.period == 2

    def test_random_trees(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 15)
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            L = {v: set(rng.sample(range(1, 6), 2)) for v in range(n)}
            fam = tree_pair_family(g, L)
            check_family(g, L, fam)


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
        values = _extend_values(
            tuple(p[0] for p in phis), tuple(p[1] for p in phis), Lw
        )
        out = [{**p, 2: c} for p, c in zip(phis, values)]
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
                edge = two_tree_family(
                    Graph(2, [(0, 1)]), KTreeOrder(2, (0, 1)), {0: Lu, 1: Lv}
                )
                seed = [dict(enumerate(phi)) for phi in edge.members]
                assert seed == reference_seed_edge(0, 1, Lu, Lv), (Lu, Lv)
                assert is_admissible(seed, 0, 1, Lu, Lv)
                checked += 1
        assert checked == 1225

    def test_table_step_matches_backtracking_on_admissible_patterns(self):
        # Lw = {0, 1, 2}; each equality block of us and of vs holds one of
        # Lw's colors (no two blocks the same one) or a color of its own,
        # which covers every input up to relabelling the colors: all 15
        # perfect matchings for us, the 8 disjoint from it for vs, and
        # 34 * 34 ways to place Lw's colors on their blocks
        positions = tuple(range(6))
        matchings = list(_perfect_matchings(positions))
        assert len(matchings) == 15
        checked = 0
        for mu in matchings:
            for mv in matchings:
                if set(mu) & set(mv):
                    continue
                for us in _place_colors(mu, 10):
                    for vs in _place_colors(mv, 20):
                        assert _extend_values(us, vs, {0, 1, 2}) == (
                            reference_extend_values(us, vs, {0, 1, 2})
                        ), (us, vs)
                        checked += 1
        assert checked == 15 * 8 * 34 * 34

    def test_table_step_matches_backtracking_on_any_input(self):
        # any equality patterns, including ones no admissible coloring has
        rng = random.Random(0)
        found = 0
        for _ in range(5000):
            k = rng.randint(3, 9)
            us = tuple(rng.randrange(k) for _ in range(6))
            vs = tuple(rng.randrange(k) for _ in range(6))
            Lw = set(rng.sample(range(k), 3))
            values = reference_extend_values(us, vs, Lw)
            assert _extend_values(us, vs, Lw) == values, (us, vs, Lw)
            found += values is not None
        assert 1000 < found < 4000

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_family_matches_reference_on_relabelled_two_trees(self, data):
        n = data.draw(st.integers(2, 80))
        palette = data.draw(st.integers(3, 7))
        # vertex i joins both ends of an earlier edge; the relabelling
        # gives orders that are not the identity
        edges = [(0, 1)]
        for i in range(2, n):
            a, b = edges[data.draw(st.integers(0, len(edges) - 1))]
            edges += [(a, i), (b, i)]
        label = data.draw(st.permutations(range(n)))
        g = Graph(n, [(label[a], label[b]) for a, b in edges])
        order = KTreeOrder(2, tuple(label))
        assert validate_ktree_order(g, order) is None
        colors = st.lists(
            st.integers(1, palette), min_size=3, max_size=3, unique=True
        )
        L = {v: set(data.draw(colors)) for v in range(n)}
        fam = two_tree_family(g, order, L)
        ref = reference_two_tree_family(g, order, L)
        assert fam.members == ref.members
        assert fam.period == 3

    def test_two_tree_family_small(self):
        inst = random_ktree(0, 12, 2, list_size=3)
        fam = two_tree_family(inst.g, inst.ktree, inst.L)
        check_family(inst.g, inst.L, fam)
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


class TestBestOfFamily:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        n=st.integers(2, 30),
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["unweighted", "unique", "weighted"]),
        reverse=st.booleans(),
    )
    def test_matches_reference_pick(self, k, n, seed, kind, reverse):
        # tree-pair and 2-tree families, in both member orders, against
        # the pick over dict members: requests of every kind, with zero
        # weights and with colors no member uses (which can leave the
        # best member below the averaging bound, so both must raise)
        inst = random_ktree(seed, max(n, k + 1), k, list_size=k + 1)
        g, L = inst.g, inst.L
        fam = (tree_pair_family(g, L) if k == 1
               else two_tree_family(g, inst.ktree, L))
        if reverse:
            fam = ColoringFamily(fam.members[::-1], fam.period)
        rng = random.Random(seed)
        unused = max(max(lst) for lst in L.values()) + 1
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        pick = {
            v: unused if rng.random() < 0.1 else rng.choice(sorted(L[v]))
            for v in vs
        }
        if kind == "unweighted":
            req = Request(kind, prefs=pick)
        elif kind == "unique":
            weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for v in vs}
            req = Request(kind, prefs=pick, weights=weights)
        else:
            req = Request(kind, table={
                (v, c): Fraction(rng.randint(0, 4), rng.randint(1, 3))
                for v in vs for c in sorted(L[v]) + [unused]
                if rng.random() < 0.5
            })
        assert _picked(best_of_family, g, L, fam, req) == _picked(
            reference_best_of_family, fam, req
        )
        # every member ties on an empty request: the first one wins
        assert best_of_family(g, L, fam, Request("unweighted")) == dict(
            enumerate(fam.members[0])
        )


def _picked(pick, *args):
    """The member pick returns, or the error it raises below the
    averaging bound."""
    try:
        return pick(*args)
    except InternalInvariantError:
        return InternalInvariantError


def _extend_values(us: tuple, vs: tuple, Lw):
    """The table step against two neighbors' six colors: the new vertex's
    six colors, or None."""
    state = _extend(_state(us), _state(vs), Lw)
    return None if state is None else state[0]


def _perfect_matchings(positions: tuple):
    """Every split of the positions into pairs, as sorted pair tuples."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for k, other in enumerate(positions[1:], 1):
        rest = positions[1:k] + positions[k + 1:]
        for m in _perfect_matchings(rest):
            yield ((first, other),) + m


def _place_colors(matching: tuple, fresh: int):
    """Every six-tuple whose equality blocks are the matching's pairs, with
    each block holding one of the colors 0, 1, 2 or its own color from
    fresh on, no two blocks the same color."""
    for labels in product(range(4), repeat=3):
        placed = [x for x in labels if x < 3]
        if len(placed) != len(set(placed)):
            continue
        values = [None] * 6
        for b, ((i, j), x) in enumerate(zip(matching, labels)):
            values[i] = values[j] = x if x < 3 else fresh + b
        yield tuple(values)


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
        fam = reference_lambda_family(g, order, lam, classes, L)
        counts = check_family(g, L, fam)
        assert len(fam.members) == family_size(lam)
        k = sum(lam) - 1
        for v in range(g.n):
            for c in L[v]:
                assert counts[(v, c)] * (k + 1) == len(fam.members)

    def test_rejects_overlapping_classes(self):
        g, order, classes, L = make_lambda_instance(1, 6, (1, 2))
        bad = (classes[0], classes[0] + classes[1])
        with pytest.raises(PreconditionError, match="overlap"):
            lambda_family(g, order, (1, 2), bad, L, Request("unweighted"))

    def test_rejects_large_parts(self):
        inst = random_ktree(2, 7, 3, list_size=4, palette=4)
        L = {v: {1, 2, 3, 4} for v in range(inst.g.n)}
        with pytest.raises(PreconditionError, match="open problem"):
            lambda_family(
                inst.g, inst.ktree, (4,), ((1, 2, 3, 4),), L, Request("unweighted")
            )

    def test_rejects_wrong_class_count(self):
        g, order, classes, L = make_lambda_instance(3, 6, (1, 2))
        with pytest.raises(PreconditionError):
            lambda_family(g, order, (1, 2), (classes[0],), L, Request("unweighted"))

    def test_best_of_family_fraction(self):
        # checks the averaging bound on the walk's winner; the pick from
        # a whole lambda family is checked in test_walk_picks_the_first_best_member
        g, order, classes, L = make_lambda_instance(4, 9, (1, 2))
        rng = random.Random(0)
        for _ in range(10):
            vs = rng.sample(range(g.n), rng.randint(1, g.n))
            req = Request(
                "unweighted", prefs={v: rng.choice(sorted(L[v])) for v in vs}
            )
            best = lambda_family(g, order, (1, 2), classes, L, req)
            assert satisfied_amount(g, L, best, req) * 3 >= len(vs)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda parts: 2 <= sum(parts) <= 7
        ),
        extra=st.integers(0, 3),
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["unweighted", "unique", "weighted"]),
    )
    def test_walk_picks_the_first_best_member(self, lam, extra, seed, kind):
        # the walk's winner is the member the reference picks from the
        # whole family, on requests that include colors outside the
        # sub-lists a level splits the lists into, and zero weights
        lam = tuple(lam)
        g, order, classes, L = make_lambda_instance(seed, sum(lam) + extra, lam)
        rng = random.Random(seed)
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        pick = {v: rng.choice(sorted(L[v])) for v in vs}
        if kind == "unweighted":
            req = Request(kind, prefs=pick)
        elif kind == "unique":
            weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for v in vs}
            req = Request(kind, prefs=pick, weights=weights)
        else:
            req = Request(kind, table={
                (v, c): Fraction(rng.randint(0, 4), rng.randint(1, 3))
                for v in vs for c in L[v] if rng.random() < 0.6
            })
        fam = reference_lambda_family(g, order, lam, classes, L)
        assert lambda_family(g, order, lam, classes, L, req) == (
            reference_best_of_family(fam, req)
        )
