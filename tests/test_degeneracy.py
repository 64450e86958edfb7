import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from flexicolor import degeneracy
from flexicolor.errors import InternalInvariantError, PreconditionError
from flexicolor.graph import Graph
from flexicolor.degeneracy import (
    DegeneracyOrdering,
    Hypergraph,
    epsilon_value,
    flexible_degeneracy_order,
    hypergraph_spanning_set,
    is_three_connected,
)
from flexicolor.instances import fig_triplet_cover, random_three_connected
from linecount import lines_run
from reference import (
    exact_game_connectivity,
    game_connectivity_by_trees,
    is_three_edge_connected,
    leaf_ratio,
    reference_leaf_tree,
    reference_ordering_from_tree,
    removable_ratio,
)


def brute_three_edge_connected(h):
    """Literal cut enumeration of the definition."""
    if h.n <= 1:
        return True
    for mask in range(1, (1 << h.n) - 1):
        crossing = 0
        for e in h.edges:
            sides = {mask >> v & 1 for v in e}
            if len(sides) == 2:
                crossing += 1
        if crossing < 3:
            return False
    return True


def prism(m):
    edges = []
    for i in range(m):
        edges.append((min(i, (i + 1) % m), max(i, (i + 1) % m)))
        edges.append((min(m + i, m + (i + 1) % m), max(m + i, m + (i + 1) % m)))
        edges.append((i, m + i))
    return Graph(2 * m, sorted(set(edges)))


class TestEpsilon:
    def test_recurrence_values(self):
        assert epsilon_value(2) == Fraction(1, 3)
        assert epsilon_value(3) == Fraction(1, 4)
        assert epsilon_value(4) == Fraction(3, 19)
        assert epsilon_value(5) == Fraction(3, 23)
        assert epsilon_value(6) == Fraction(1, 9)

    def test_rejects_small(self):
        with pytest.raises(PreconditionError):
            epsilon_value(1)


class TestOrderingFromTree:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(4, 30).map(lambda h: 2 * h),
        kind=st.sampled_from(["instance", "random", "all", "empty"]),
    )
    def test_walk_matches_the_tree_reference(self, seed, n, kind):
        """The ordering is the reference walk of the tree the pipeline
        used to build: a BFS tree of an induced copy of g - R'' from w,
        with each kept leaf hung on its least neighbor outside R''."""
        inst = random_three_connected(seed, n)
        g = inst.g
        rng = random.Random(seed)
        R0 = {
            "instance": inst.request.domain(),
            "random": {v for v in range(n) if rng.random() < 0.5},
            "all": set(range(n)),
            "empty": set(),
        }[kind]
        w = degeneracy.certified_fraction(g, R0)[2]
        assume(R0 != {w})
        out = flexible_degeneracy_order(g, R0)
        R_pp = set(out.trace.get("R_pp", ()))
        assert out.trace.get("w", w) == w
        ref = reference_ordering_from_tree(
            g, reference_leaf_tree(g, R_pp, w), R_pp, w
        )
        assert out.ordering == ref

    def test_output_checks_cover_the_old_input_checks(self):
        # the wheel W5: center 0 of degree 5, rim 1..5 of degree 3
        g = Graph(
            6,
            [(0, i) for i in range(1, 6)]
            + [(i, i + 1) for i in range(1, 5)]
            + [(1, 5)],
        )
        ordering = degeneracy._leaves_first_ordering(g, {0}, 1)
        assert ordering.k == 4 and 0 in ordering.first
        # a start vertex of maximum degree ends up after all five
        # neighbors
        with pytest.raises(PreconditionError, match="5 earlier neighbors"):
            degeneracy._leaves_first_ordering(g, set(), 0)
        # adjacent leaves cannot both precede each other
        with pytest.raises(InternalInvariantError, match="designated leaf"):
            degeneracy._leaves_first_ordering(g, {0, 5}, 1)
        # removing 0, 2 and 4 cuts 3 off
        with pytest.raises(InternalInvariantError, match="disconnected"):
            degeneracy._leaves_first_ordering(g, {0, 2, 4}, 1)

    def test_validate_catches_back_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        bad = DegeneracyOrdering((1, 2, 3, 0), 1, frozenset())
        with pytest.raises(PreconditionError):
            bad.validate(g)


class TestHypergraphConnectivity:
    def test_matches_bruteforce(self):
        rng = random.Random(12)
        agree = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(2, 9)
            edges = []
            for _ in range(m):
                size = rng.randint(1, min(3, n))
                edges.append(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph.build(n, edges)
            assert is_three_edge_connected(h) == brute_three_edge_connected(h)
            agree += 1
        assert agree == 60

    def test_singletons_do_not_help(self):
        h = Hypergraph.build(2, [(0, 1), (0, 1), (0,), (1,)])
        assert not is_three_edge_connected(h)
        h2 = Hypergraph.build(2, [(0, 1)] * 3)
        assert is_three_edge_connected(h2)


class TestSpanningSet:
    def test_multigraph_case(self):
        h = Hypergraph.build(3, [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
        A = hypergraph_spanning_set(h, 2)
        assert len(A) == 2

    def test_triple_edges(self):
        h = Hypergraph.build(
            5,
            [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4), (0, 1, 4), (1, 2, 3)],
        )
        A = hypergraph_spanning_set(h, 3)
        assert len(A) <= (1 - Fraction(1, 4)) * len(h.edges)

    def test_rejects_oversized_edge(self):
        h = Hypergraph.build(4, [(0, 1, 2, 3)] * 3)
        with pytest.raises(PreconditionError, match="exceeds"):
            hypergraph_spanning_set(h, 3)

    def test_random_accepted_instances(self):
        rng = random.Random(3)
        accepted = 0
        while accepted < 40:
            n = rng.randint(2, 8)
            d = rng.randint(2, 5)
            m = rng.randint(3, 14)
            edges = []
            for _ in range(m):
                size = rng.randint(1, min(d, n))
                edges.append(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph.build(n, edges)
            if not is_three_edge_connected(h):
                continue
            A = hypergraph_spanning_set(h, d)
            assert len(A) <= (1 - epsilon_value(d)) * len(h.edges)
            accepted += 1

    def test_recursion_receives_three_edge_connected_hypergraphs(self):
        # hypergraph_spanning_set trusts its input to be 3-edge-connected,
        # and _spanning_set_rec that contracting the components keeps it
        # so and keeps the edge-size bound; check every hypergraph the
        # recursion is handed, from random accepted inputs and from the
        # pipeline, whose top hypergraph no code in the package tests
        received = []
        rec = degeneracy._spanning_set_rec

        def spy(h, d):
            received.append((h, d))
            return rec(h, d)

        rng = random.Random(3)
        accepted = 0
        with mock.patch.object(degeneracy, "_spanning_set_rec", spy):
            while accepted < 40:
                n, d, m = rng.randint(2, 8), rng.randint(2, 5), rng.randint(3, 14)
                h = Hypergraph.build(n, [
                    rng.sample(range(n), rng.randint(1, min(d, n))) for _ in range(m)
                ])
                if is_three_edge_connected(h):
                    hypergraph_spanning_set(h, d)
                    accepted += 1
            for n in (10, 20, 40):
                flexible_degeneracy_order(random_three_connected(1, n).g, range(n))
        assert not hasattr(degeneracy, "_hyper_edge_connectivity")
        assert not hasattr(degeneracy, "is_three_edge_connected")
        assert len(received) > 40 + 3  # some calls recursed
        for h, d in received:
            assert h.max_edge_size() <= d
            assert is_three_edge_connected(h)
            if h.n <= 14:
                assert brute_three_edge_connected(h)


class TestPipeline:
    def test_rejects_regular(self):
        g = prism(5)
        with pytest.raises(PreconditionError, match="regular"):
            flexible_degeneracy_order(g, [0, 1])

    def test_rejects_not_three_connected(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)])
        with pytest.raises(PreconditionError, match="3-connected"):
            flexible_degeneracy_order(g, [1])

    def test_rejects_lone_low_degree_request(self):
        # K8 minus a 3-star at vertex 7 and two disjoint edges: vertex 7
        # is the unique vertex below the maximum degree
        removed = {(0, 7), (1, 7), (2, 7), (3, 4), (5, 6)}
        edges = [
            (a, b)
            for a in range(8)
            for b in range(a + 1, 8)
            if (a, b) not in removed
        ]
        g = Graph(8, edges)
        assert is_three_connected(g)
        low = [v for v in range(8) if g.degree(v) < g.max_degree()]
        assert low == [7]
        with pytest.raises(PreconditionError, match="excluded"):
            flexible_degeneracy_order(g, [7])
        out = flexible_degeneracy_order(g, [0, 7])
        assert out.satisfied >= out.certified_fraction * 2

    def test_complete_bipartite_runs(self):
        g = Graph(7, [(a, 3 + b) for a in range(3) for b in range(4)])
        assert is_three_connected(g)
        out = flexible_degeneracy_order(g, [3, 4, 5, 6])
        out.ordering.validate(g)
        assert out.satisfied >= out.certified_fraction * 4

    def test_random_instances_meet_bound(self):
        for seed in range(25):
            inst = random_three_connected(seed, 12 + 2 * (seed % 5))
            R0 = sorted(inst.request.domain())
            out = flexible_degeneracy_order(inst.g, R0)
            out.ordering.validate(inst.g)
            sat = len(out.ordering.first & set(R0))
            assert sat == out.satisfied
            assert sat >= out.certified_fraction * len(R0)

    def test_empty_request(self):
        inst = random_three_connected(1, 12)
        out = flexible_degeneracy_order(inst.g, [])
        assert out.satisfied == 0
        out.ordering.validate(inst.g)


class TestGameConnectivity:
    def test_known_values(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert exact_game_connectivity(c4)[0] == Fraction(1, 2)
        assert exact_game_connectivity(k4)[0] == Fraction(3, 4)

    def test_triplet_cover_core_ratio(self):
        inst = fig_triplet_cover()
        assert removable_ratio(inst.g, range(5)) == Fraction(2, 5)

    def test_formulations_agree_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(3, 6)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(n):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            assert exact_game_connectivity(g)[0] == game_connectivity_by_trees(g)

    def test_leaf_ratio_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert leaf_ratio(g, {0, 2}) == 1
        assert leaf_ratio(g, {1}) == 0


def brute_three_connected(g):
    """The definition, literally: every pair of vertices removed leaves a
    connected graph; one induced subgraph per pair."""
    if g.n < 4 or not g.is_connected():
        return False
    for a in range(g.n):
        for b in range(a + 1, g.n):
            rest, _ = g.induced([v for v in range(g.n) if v not in (a, b)])
            if not rest.is_connected():
                return False
    return True


@st.composite
def small_graphs(draw):
    """Graphs on at most 12 vertices: dense random ones (often
    3-connected) and the same with a few edges cut or a pendant vertex
    (often not)."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.3, 0.6, 0.85]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    if edges and draw(st.booleans()):
        del edges[: draw(st.integers(1, min(3, len(edges))))]
    if n > 1 and draw(st.booleans()):
        # leave the last vertex with at most two neighbours
        edges = [e for e in edges if e[1] != n - 1] + [(0, n - 1), (1, n - 1)][: n - 1]
        edges = sorted(set(edges))
    return Graph(n, edges)


class TestThreeConnected:
    @settings(max_examples=400, deadline=None)
    @given(small_graphs())
    def test_agrees_with_the_definition(self, g):
        assert is_three_connected(g) == brute_three_connected(g)

    def test_known_answers(self):
        assert is_three_connected(random_three_connected(3, 12).g)
        # a path with chords of length two: each pair of neighbours is a
        # 2-cut
        g = Graph(6, [(v, v + 1) for v in range(5)] + [(v, v + 2) for v in range(4)])
        assert not is_three_connected(g) and not brute_three_connected(g)
        # K4 minus an edge: its two degree-3 vertices separate the others
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert not is_three_connected(g) and not brute_three_connected(g)

    def test_work_about_quadratic(self):
        def work(n):
            count, connected = lines_run(
                is_three_connected, random_three_connected(1, n).g
            )
            assert connected
            return count

        # twice the vertices: one low-link pass per vertex does about 4
        # times the work, one connectivity check per pair about 8 times
        ratio = work(160) / work(80)
        assert ratio < 5, ratio
