import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor.errors import PreconditionError
from flexicolor.graph import Graph
from flexicolor.instances import (
    fig_diamond,
    random_bounded_degree,
    two_cliques_matching,
)
from flexicolor.listcolor import Request, check_coloring
from flexicolor.maxdeg import (
    _local_b_values,
    classify_components,
    solve_unweighted,
    solve_weighted,
)
from flexicolor.oracle import optimal_satisfaction
from reference import bruteforce_bad_component, reference_b_value


class TestPreconditions:
    def test_complete_graph_rejected(self):
        g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        L = {v: {1, 2, 3} for v in range(4)}
        with pytest.raises(PreconditionError, match="complete"):
            solve_unweighted(g, L, Request("unweighted", prefs={0: 1}))

    def test_low_degree_rejected(self):
        g = Graph(4, [(i, (i + 1) % 4) for i in range(4)])
        L = {v: {1, 2, 3} for v in range(4)}
        with pytest.raises(PreconditionError, match="degree"):
            solve_unweighted(g, L, Request("unweighted", prefs={0: 1}))

    def test_figure_diamond_lists_violate_the_class(self):
        # degree-2 vertex carrying only 2 colors is outside the solver's
        # list class, which wants degree+1 below the maximum degree
        inst = fig_diamond()
        with pytest.raises(PreconditionError, match="list size"):
            solve_unweighted(inst.g, inst.L, inst.request)


class TestFixtureBounds:
    def test_diamond_single_request(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        L = {v: {1, 2, 3} for v in range(4)}
        out = solve_unweighted(g, L, Request("unweighted", prefs={0: 1}))
        assert out.satisfied >= 1
        assert out.coloring[0] == 1

    def test_two_cliques_matching(self):
        inst = two_cliques_matching(3)
        out = solve_unweighted(inst.g, inst.L, inst.request)
        # the oracle optimum on this construction is exactly 1
        assert optimal_satisfaction(inst.g, inst.L, inst.request).optimum == 1
        assert out.satisfied == 1
        assert out.satisfied >= out.certified_fraction * out.request_total

    def test_empty_request(self):
        inst = two_cliques_matching(3)
        out = solve_unweighted(inst.g, inst.L, Request("unweighted"))
        assert out.satisfied == 0
        check_coloring(inst.g, inst.L, out.coloring)


class TestClassification:
    def test_matches_bruteforce_on_pruned_components(self):
        rng = random.Random(17)
        agreed = 0
        for seed in range(40):
            inst = random_bounded_degree(seed, rng.randint(6, 10), 3)
            g, L = inst.g, inst.L
            prefs = dict(inst.request.prefs)
            S = set()
            for v in sorted(prefs):
                if all(u not in S for u in g.neighbors(v)):
                    S.add(v)
            reports = classify_components(g, L, S, prefs)
            for rep in reports:
                sub, ids = g.induced(rep.vertices)
                relabeled = {
                    i: rep.pruned_lists[ids[i]] for i in range(sub.n)
                }
                assert rep.bad == bruteforce_bad_component(sub, relabeled)
                agreed += 1
        assert agreed > 40

    def test_b_value_two_components_destroyed(self):
        # center r joins two tight triangles; removing r from the
        # precolored set frees a color in both, destroying two bad
        # components at once
        g = Graph(
            7,
            [
                (0, 1), (0, 2), (1, 2),
                (3, 4), (3, 5), (4, 5),
                (6, 0), (6, 3), (6, 1),
            ],
        )
        L = {
            0: {1, 2, 3},
            1: {1, 2, 3},
            2: {1, 2},
            3: {1, 2, 3},
            4: {1, 2},
            5: {1, 2},
            6: {1, 2, 3},
        }
        prefs = {6: 3}
        assert reference_b_value(g, L, {6}, prefs, 6) == 2
        assert local_and_reference(g, L, {6}, prefs)[0] == {6: 2}


def greedy_independent(g, order):
    S = set()
    for v in order:
        if all(u not in S for u in g.neighbors(v)):
            S.add(v)
    return S


def local_and_reference(g, L, S, prefs):
    local = _local_b_values(g, L, S, prefs, classify_components(g, L, S, prefs))
    return local, {r: reference_b_value(g, L, S, prefs, r) for r in S}


class TestLocalBValues:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(3, 5),
        st.integers(0, 9),
        st.sampled_from(["random", "same", "degree"]),
    )
    def test_local_equals_whole_graph_b_value(self, seed, delta, extra, lists):
        # palette delta keeps most lists tight, so bad components abound;
        # "same" requests one color everywhere, so pruned lists collide;
        # "degree" cuts every list to the vertex degree (outside the
        # solvers' class, inside b's definition), so components merge
        # into bad ones
        inst = random_bounded_degree(seed, delta + 1 + extra, delta, palette=delta)
        g, L = inst.g, inst.L
        rng = random.Random(seed)
        if lists == "degree":
            L = {v: set(rng.sample(sorted(L[v]), g.degree(v))) for v in range(g.n)}
        prefs = {
            v: min(L[v]) if lists == "same" else rng.choice(sorted(L[v]))
            for v in range(g.n)
        }
        order = list(range(g.n))
        rng.shuffle(order)
        local, reference = local_and_reference(g, L, greedy_independent(g, order), prefs)
        assert local == reference

    def test_merging_good_components_into_a_bad_one(self):
        # K33 with S one side: 0 and 4 request the same color, so each
        # leaf keeps one color with degree 0, and a leaving 0 (or 4)
        # joins them into a tight star, a bad component
        g = Graph(6, [(a, b) for a in (0, 4, 5) for b in (1, 2, 3)])
        L = {v: {1, 2, 3} for v in range(6)}
        prefs = {0: 2, 4: 2, 5: 3}
        local, reference = local_and_reference(g, L, {0, 4, 5}, prefs)
        assert local == reference == {0: -1, 4: -1, 5: 0}


# classify_components on two-cliques-matching, the one fixture the
# solvers accept, for each delta and two precolored sets: each report's
# vertices, pruned lists, coloring (None when bad) and, for a bad
# component only, its block tags and terminal blocks
CLIQUES_PINNED = {
    (3, ((0, 1),)): [
        ((1, 2, 3, 4, 5), {1: {2, 3}, 2: {2, 3}, 3: {2, 3}, 4: {1, 2, 3}, 5: {1, 2, 3}},
         {1: 3, 2: 2, 3: 2, 4: 1, 5: 3}, (), ()),
    ],
    (3, ((0, 1), (4, 2))): [
        ((1, 2, 3, 5), {1: {3}, 2: {2, 3}, 3: {3}, 5: {1, 3}}, None,
         (((1, 2), "clique"), ((2, 5), "clique"), ((3, 5), "clique")),
         ((1, 2), (3, 5))),
    ],
    (4, ((0, 1),)): [
        ((1, 2, 3, 4, 5, 6, 7),
         {1: {2, 3, 4}, 2: {2, 3, 4}, 3: {2, 3, 4}, 4: {2, 3, 4},
          5: {1, 2, 3, 4}, 6: {1, 2, 3, 4}, 7: {1, 2, 3, 4}},
         {1: 4, 2: 2, 3: 3, 4: 2, 5: 1, 6: 3, 7: 4}, (), ()),
    ],
    (4, ((0, 1), (5, 2))): [
        ((1, 2, 3, 4, 6, 7),
         {1: {3, 4}, 2: {2, 3, 4}, 3: {2, 3, 4}, 4: {3, 4}, 6: {1, 3, 4}, 7: {1, 3, 4}},
         {1: 4, 2: 2, 3: 3, 4: 3, 6: 1, 7: 4}, (), ()),
    ],
    (5, ((0, 1),)): [
        ((1, 2, 3, 4, 5, 6, 7, 8, 9),
         {1: {2, 3, 4, 5}, 2: {2, 3, 4, 5}, 3: {2, 3, 4, 5}, 4: {2, 3, 4, 5},
          5: {2, 3, 4, 5}, 6: {1, 2, 3, 4, 5}, 7: {1, 2, 3, 4, 5},
          8: {1, 2, 3, 4, 5}, 9: {1, 2, 3, 4, 5}},
         {1: 5, 2: 2, 3: 3, 4: 4, 5: 2, 6: 1, 7: 3, 8: 4, 9: 5}, (), ()),
    ],
    (5, ((0, 1), (6, 2))): [
        ((1, 2, 3, 4, 5, 7, 8, 9),
         {1: {3, 4, 5}, 2: {2, 3, 4, 5}, 3: {2, 3, 4, 5}, 4: {2, 3, 4, 5},
          5: {3, 4, 5}, 7: {1, 3, 4, 5}, 8: {1, 3, 4, 5}, 9: {1, 3, 4, 5}},
         {1: 5, 2: 2, 3: 3, 4: 4, 5: 3, 7: 1, 8: 4, 9: 5}, (), ()),
    ],
}


class TestPinnedFixtureValues:
    @pytest.mark.parametrize("key", sorted(CLIQUES_PINNED))
    def test_two_cliques_matching(self, key):
        delta, fixed = key
        inst = two_cliques_matching(delta)
        prefs = dict(fixed)
        got = classify_components(inst.g, inst.L, set(prefs), prefs)
        assert [
            (r.vertices, r.pruned_lists, r.coloring, r.block_tags, r.terminal_blocks)
            for r in got
        ] == CLIQUES_PINNED[key]
        if not any(r.bad for r in got):
            coloring = dict(prefs)
            for r in got:
                coloring.update(r.coloring)
            check_coloring(inst.g, inst.L, coloring)


class TestConnectivityChecks:
    def test_whole_graph_components_found_twice(self, monkeypatch):
        # once for the solver preconditions, once for the Brooks
        # coloring's; the components of g minus the precolored set are
        # connected by construction
        inst = random_bounded_degree(3, 40, 4)
        seen = []
        components = Graph.components
        monkeypatch.setattr(
            Graph, "components", lambda h: seen.append(h) or components(h)
        )
        solve_unweighted(inst.g, inst.L, inst.request)
        assert sum(h is inst.g for h in seen) == 2


class TestRandomBounds:
    def test_unweighted_certified_bound_and_oracle(self):
        for seed in range(40):
            delta = 3 + seed % 3
            inst = random_bounded_degree(seed, 8 + seed % 4, delta)
            out = solve_unweighted(inst.g, inst.L, inst.request)
            check_coloring(inst.g, inst.L, out.coloring)
            assert out.satisfied >= out.certified_fraction * out.request_total
            assert out.certified_fraction >= Fraction(1, 6 * delta)
            opt = optimal_satisfaction(inst.g, inst.L, inst.request)
            assert out.satisfied <= opt.optimum

    def test_weighted_unique_bound(self):
        rng = random.Random(23)
        for seed in range(25):
            inst = random_bounded_degree(seed, 10, 3, request_kind="unique")
            out = solve_weighted(inst.g, inst.L, inst.request)
            assert out.satisfied >= out.certified_fraction * out.request_total
            assert out.certified_fraction >= Fraction(1, 2 * 27)
            opt = optimal_satisfaction(inst.g, inst.L, inst.request)
            assert out.satisfied <= opt.optimum

    def test_weighted_general_bound(self):
        for seed in range(25):
            inst = random_bounded_degree(seed, 10, 3, request_kind="weighted")
            out = solve_weighted(inst.g, inst.L, inst.request)
            assert out.satisfied >= out.certified_fraction * out.request_total
            max_list = max(len(inst.L[v]) for v in range(inst.g.n))
            assert out.certified_fraction >= Fraction(1, 2 * 27 * max_list)

    def test_trace_reports_moves_and_mode(self):
        inst = random_bounded_degree(7, 12, 4)
        out = solve_unweighted(inst.g, inst.L, inst.request)
        assert "chi_hat" in out.trace and "moves" in out.trace
        assert out.trace["chi_hat"] <= 5
