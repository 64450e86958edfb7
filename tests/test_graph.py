import gc
import random
import time
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from flexicolor import graph as graph_module
from flexicolor.errors import DisconnectedGraphError, PreconditionError
from flexicolor.graph import (
    BrooksObstructionError,
    Graph,
    KTreeOrder,
    TreedepthForest,
    block_cut_tree,
    proper_coloring,
    validate_ktree_order,
)
from flexicolor.instances import InstanceFile, parse, random_bounded_degree, serialize
from linecount import lines_run
from reference import reference_forest_error, reference_power


def random_connected(rng, n, extra=2):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra * n):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_sparse(rng, n, density):
    """Possibly disconnected graph, each pair an edge with the given
    probability."""
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density],
    )


def circulant(n, offsets):
    return Graph(n, sorted({tuple(sorted((v, (v + k) % n))) for v in range(n) for k in offsets}))


def brooks_chain(delta, pieces, perm=None):
    """A delta-regular graph with cut vertices, delta 3 or 4: a chain of
    copies of K_{delta+1}, each giving up one edge (a port) per link.
    For delta 3 a port edge is subdivided and a link is a bridge between
    the subdivision vertices; for delta 4 a port edge is removed and a
    link is a new vertex joined to the four ends of two ports.  Vertex v
    is relabeled perm[v]."""
    n, edges, prev = 0, [], None
    for i in range(pieces):
        k = range(n, n + delta + 1)
        n += delta + 1
        ports = {"left": (k[0], k[1]), "right": (k[2], k[3])}
        if i == 0:
            del ports["left"]
        if i == pieces - 1:
            del ports["right"]
        edges += [e for e in combinations(k, 2) if e not in ports.values()]
        ends = {}
        for side, (a, b) in ports.items():
            if delta == 3:
                edges += [(a, n), (b, n)]
                ends[side] = [n]
                n += 1
            else:
                ends[side] = [a, b]
        if prev is not None:
            if delta == 3:
                edges.append((prev[0], ends["left"][0]))
            else:
                edges += [(v, n) for v in prev + ends["left"]]
                n += 1
        prev = ends.get("right")
    perm = perm or list(range(n))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def tag_from_induced(g, vertices):
    """A block's tag computed from the subgraph its vertices induce."""
    sub, _ = g.induced(vertices)
    if sub.is_complete():
        return "clique"
    if sub.is_cycle() and len(vertices) % 2 == 1:
        return "odd-cycle"
    return "other"


class TestGraphBasics:
    def test_rejects_loops_and_parallel(self):
        with pytest.raises(PreconditionError):
            Graph(3, [(0, 0)])
        with pytest.raises(PreconditionError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(PreconditionError):
            Graph(2, [(0, 5)])

    def test_neighbors_and_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert g.degree(0) == 3 and g.degree(1) == 1
        assert g.max_degree() == 3
        assert g.has_edge(1, 0) and not g.has_edge(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 14), st.sets(st.tuples(st.integers(0, 13), st.integers(0, 13))))
    def test_trusted_constructor_equals_the_checking_one(self, n, pairs):
        edges = sorted({(u, v) for u, v in pairs if u < v < n})
        trusted, checked = Graph._from_sorted(n, edges), Graph(n, edges[::-1])
        assert trusted == checked and trusted.edges == checked.edges
        for v in range(n):
            assert trusted.neighbors(v) == checked.neighbors(v)
            for u in range(-1, n + 1):
                assert trusted.has_edge(v, u) == (u in checked.neighbors(v))

    def test_subgraph_builders_match_the_checking_constructor(self):
        def same_as_checked(h):
            ref = Graph(h.n, h.edges[::-1])
            return h.edges == ref.edges and all(
                h.neighbors(v) == ref.neighbors(v) for v in range(h.n)
            )

        g = random_connected(random.Random(4), 30)
        sub, ids = g.induced(v for v in range(30) if v % 3)
        pos = {v: i for i, v in enumerate(ids)}
        assert sub.edges == tuple(
            (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
        )
        assert same_as_checked(sub)
        for comp, part in g.components_without({0, 3, 6}):
            assert part == g.induced(comp)[0] and same_as_checked(part)

    def test_components_sorted(self):
        g = Graph(5, [(3, 4), (0, 1)])
        assert g.components() == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()
        with pytest.raises(DisconnectedGraphError):
            g.require_connected()

    def test_power_cube(self):
        # path 0-1-2-3-4: cube connects everything within distance 3
        g = Graph(5, [(i, i + 1) for i in range(4)])
        g3 = reference_power(g, 3)
        assert g3.has_edge(0, 3) and not g3.has_edge(0, 4)
        # only 0 and 4 are more than 3 apart, so they alone share a color
        assert proper_coloring(g, 3, "greedy") == {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 14), st.floats(0.05, 0.6))
    def test_power_is_distance_at_most_d(self, seed, n, density):
        g = random_sparse(random.Random(seed), n, density)
        for d in (1, 2, 3):
            want = {
                (s, t)
                for s in range(n)
                for t, dist in enumerate(g.bfs_distances(s))
                if s < t and 0 < dist <= d
            }
            assert set(reference_power(g, d).edges) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 14), st.floats(0.05, 0.6))
    def test_components_without(self, seed, n, density):
        rng = random.Random(seed)
        g = random_sparse(rng, n, density)
        removed = {v for v in range(n) if rng.random() < 0.3}
        sub, ids = g.induced([v for v in range(n) if v not in removed])
        want = [
            ([ids[i] for i in comp], sub.induced(comp)[0])
            for comp in sub.components()
        ]
        assert g.components_without(removed) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 14),
        st.integers(0, 3),
        st.floats(0.05, 0.6),
        st.sampled_from(["empty", "all", "some"]),
    )
    def test_components_within(self, seed, n, isolated, density, which):
        # `isolated` edgeless vertices follow the n of random_sparse
        rng = random.Random(seed)
        g = Graph(n + isolated, random_sparse(rng, n, density).edges)
        within = {
            "empty": [],
            "all": list(range(g.n)),
            "some": [v for v in range(g.n) if rng.random() < 0.6],
        }[which]
        sub, ids = g.induced(within)
        want = [[ids[i] for i in comp] for comp in sub.components()]
        assert g.components(within) == want
        # any iterable, in any order and with repeats
        assert g.components(iter(within[::-1] + within)) == want
        if which == "all":
            assert want == g.components()

    def test_induced_relabels(self):
        g = Graph(5, [(0, 2), (2, 4), (1, 3)])
        sub, ids = g.induced([0, 2, 4])
        assert ids == [0, 2, 4]
        assert sub.edges == ((0, 1), (1, 2))

    def test_complete_and_cycle_predicates(self):
        assert Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]).is_complete()
        assert Graph(5, [(i, (i + 1) % 5) for i in range(5)]).is_cycle()
        assert not Graph(4, [(0, 1), (1, 2), (2, 3)]).is_cycle()


class TestBlockCutTree:
    def test_bowtie(self):
        # two triangles sharing vertex 2
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        t = block_cut_tree(g)
        assert len(t.blocks) == 2
        assert set(t.cut_vertices) == {2}
        assert all(b.tag == "clique" for b in t.blocks)
        assert sum(b.terminal for b in t.blocks) == 2

    def test_c5_is_single_odd_cycle_block(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        t = block_cut_tree(g)
        assert len(t.blocks) == 1 and t.blocks[0].tag == "odd-cycle"

    def test_c4_is_other(self):
        g = Graph(4, [(i, (i + 1) % 4) for i in range(4)])
        t = block_cut_tree(g)
        assert t.blocks[0].tag == "other"

    def test_path_blocks_are_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        t = block_cut_tree(g)
        assert len(t.blocks) == 3
        assert sorted(t.cut_vertices) == [1, 2]


    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 14), st.integers(0, 3))
    def test_tags_match_induced_subgraphs(self, seed, n, extra):
        rng = random.Random(seed)
        g = random_connected(rng, n, extra) if extra else circulant(max(n, 3), (1,))
        for b in block_cut_tree(g).blocks:
            assert b.tag == tag_from_induced(g, b.vertices)

    def test_tags_on_bounded_degree_graphs(self):
        tags = set()
        for seed in range(30):
            g = random_bounded_degree(seed, 8 + seed % 7, 3 + seed % 3).g
            for b in block_cut_tree(g).blocks:
                assert b.tag == tag_from_induced(g, b.vertices)
                tags.add(b.tag)
        assert tags == {"clique", "odd-cycle", "other"}


class TestProperColoring:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 14), st.floats(0.05, 0.6))
    def test_greedy_equals_greedy_on_reference_power(self, seed, n, density):
        g = random_sparse(random.Random(seed), n, density)
        for d in (1, 3):
            h = reference_power(g, d)
            # the id-order greedy over range(maxdeg(h) + 1) on the whole
            # power graph, as proper_coloring ran before it walked g
            want = graph_module._list_greedy(
                h, [range(h.max_degree() + 1)] * n, range(n), {}
            )
            assert proper_coloring(g, d, "greedy") == want

    def test_brooks_needs_power_one(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(PreconditionError, match="power 1"):
            proper_coloring(g, 3, "brooks")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 12))
    def test_greedy_is_proper_and_bounded(self, seed, n):
        g = random_connected(random.Random(seed), n)
        col = proper_coloring(g, 1, "greedy")
        for u, v in g.edges:
            assert col[u] != col[v]
        assert len(set(col.values())) <= g.max_degree() + 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 12))
    def test_brooks_uses_at_most_delta(self, seed, n):
        g = random_connected(random.Random(seed), n)
        try:
            col = proper_coloring(g, 1, "brooks")
        except BrooksObstructionError:
            # complete graphs and odd cycles are the only legal refusals
            assert g.is_complete() or (g.is_cycle() and g.n % 2 == 1)
            return
        for u, v in g.edges:
            assert col[u] != col[v]
        assert len(set(col.values())) <= max(g.max_degree(), 3)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(5, 18), st.data())
    def test_brooks_covers_two_connected_regular_circulants(self, n, data):
        # C_n(S) with 1 in S is connected and vertex-transitive, hence
        # regular and 2-connected; a second jump makes the degree >= 3
        jumps = {1} | data.draw(
            st.sets(st.integers(2, n // 2), min_size=1), label="jumps"
        )
        g = Graph(n, sorted({
            (min(i, (i + s) % n), max(i, (i + s) % n))
            for i in range(n) for s in jumps
        }))
        assume(not g.is_complete())
        delta = g.max_degree()
        assert delta >= 3 and all(g.degree(v) == delta for v in range(n))
        assert not block_cut_tree(g).cut_vertices
        with mock.patch.object(
            graph_module,
            "_brooks_two_connected",
            wraps=graph_module._brooks_two_connected,
        ) as two_connected:
            col = proper_coloring(g, 1, "brooks")
        assert two_connected.call_count == 1
        for u, v in g.edges:
            assert col[u] != col[v]
        assert len(set(col.values())) <= delta

    @pytest.mark.parametrize("delta,n,cuts", [(3, 10, {4, 9}), (4, 11, {10})])
    def test_brooks_with_a_cut_vertex(self, delta, n, cuts):
        # delta 3: two K4 with one edge subdivided, the subdivision
        # vertices joined by a bridge; delta 4: two K5 - ab with a vertex
        # joined to a, b, a' and b'
        g = brooks_chain(delta, 2)
        assert g.n == n and block_cut_tree(g).cut_vertices == cuts
        assert_brooks_regular(g, delta)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 4]), st.integers(2, 5), st.randoms(use_true_random=False)
    )
    def test_brooks_on_regular_chains(self, delta, pieces, rnd):
        n = brooks_chain(delta, pieces).n
        g = brooks_chain(delta, pieces, rnd.sample(range(n), n))
        assert block_cut_tree(g).cut_vertices
        assert_brooks_regular(g, delta)

    def test_brooks_on_complete_raises(self):
        g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        for _ in range(2):  # a refusal is not kept: it is raised again
            with pytest.raises(BrooksObstructionError):
                proper_coloring(g, 1, "brooks")

    def test_brooks_on_even_cycle(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        col = proper_coloring(g, 1, "brooks")
        assert len(set(col.values())) == 2


def assert_brooks_regular(g, delta):
    assert all(g.degree(v) == delta for v in range(g.n))
    col = proper_coloring(g, 1, "brooks")
    for u, v in g.edges:
        assert col[u] != col[v]
    assert len(set(col.values())) <= delta


class TestKTreeOrder:
    def test_valid_two_tree(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert validate_ktree_order(g, KTreeOrder(2, (0, 1, 2, 3))) is None

    def test_rejects_bad_back_clique(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        v = validate_ktree_order(g, KTreeOrder(2, (0, 1, 2, 3)))
        assert v is not None
        assert v.index >= 2

    def test_k0_means_edgeless(self):
        assert validate_ktree_order(Graph(3, []), KTreeOrder(0, (0, 1, 2))) is None
        v = validate_ktree_order(Graph(2, [(0, 1)]), KTreeOrder(0, (0, 1)))
        assert v is not None

    def test_validate_time_linear_on_a_fan(self):
        def best_of_three(n):
            # each vertex v >= 2 attaches to the edge (0, v - 1), so vertex
            # 0 is a back-neighbour of every other vertex
            g = Graph(n, [(0, v) for v in range(1, n)] + [(v - 1, v) for v in range(2, n)])
            order = KTreeOrder(2, tuple(range(n)))
            best = float("inf")
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    assert validate_ktree_order(g, order) is None
                    best = min(best, time.process_time() - start)
                finally:
                    gc.enable()
            return best

        # four times the vertices: about 4 times the time when a
        # back-pair adjacency test is cheap, about 16 times when it scans
        # vertex 0's adjacency.  The scan runs in C, so lines_run would
        # not see it.
        ratio = best_of_three(16000) / best_of_three(4000)
        assert ratio < 8, ratio


class TestTreedepthForest:
    def test_depth_height_ancestors(self):
        f = TreedepthForest((None, 0, 1, None))
        assert f.depth(2) == 2 and f.height() == 3
        assert [u for u in range(4) if f.is_ancestor(u, 2)] == [0, 1]

    def test_validate_rejects_cross_edge(self):
        f = TreedepthForest((None, 0, 0))
        g = Graph(3, [(1, 2)])  # siblings, not ancestor related
        with pytest.raises(PreconditionError):
            f.validate(g)

    def test_validate_accepts_closure_subgraph(self):
        f = TreedepthForest((None, 0, 1))
        TreedepthForest((None, 0, 1)).validate(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        f.validate(Graph(3, [(0, 2)]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_same_first_error_as_the_walks(self, n, data):
        # parents and edges drawn freely, so some forests have parent
        # cycles and some edges join vertices unrelated in the forest
        parent = tuple(
            data.draw(st.one_of(st.none(), st.integers(0, n - 1)), label=f"p{v}")
            for v in range(n)
        )
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        g = Graph(n, sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]}))
        f = TreedepthForest(parent)
        want = reference_forest_error(f, g)
        try:
            f.validate(g)
            got = None
        except PreconditionError as exc:
            got = str(exc)
        assert got == want
        if "cycle" not in (want or ""):
            # the walks up from every vertex that the tour replaces
            above = []
            for v in range(n):
                chain, u = set(), parent[v]
                while u is not None:
                    chain.add(u)
                    u = parent[u]
                above.append(chain)
            assert [f.depth(v) for v in range(n)] == list(map(len, above))
            assert f.height() == max(map(len, above)) + 1
            for u, v in combinations(range(n), 2):
                assert f.is_ancestor(u, v) == (u in above[v])
                assert f.is_ancestor(v, u) == (v in above[u])

    def test_validate_time_linear_in_depth(self):
        def work(n):
            # a path under a path forest: height n, every edge a
            # parent link
            inst = InstanceFile(
                Graph(n, [(v - 1, v) for v in range(1, n)]),
                {v: {0} for v in range(n)},
                forest=TreedepthForest((None, *range(n - 1))),
            )
            return lines_run(parse, serialize(inst))[0]

        # four times the vertices: a linear check does about 4 times the
        # work, a walk to the root from every vertex about 16 times
        ratio = work(8000) / work(2000)
        assert ratio < 6, ratio


class TestPowerScaling:
    def test_cube_coloring_time_linear_in_n(self):
        def work(n):
            g = circulant(n, (1, 2))  # maximum degree 4
            return lines_run(proper_coloring, g, 3, "greedy")[0]

        # four times the vertices: a bounded search per source does about
        # 4 times the work, a search of the whole graph per source about
        # 16 times
        ratio = work(8000) / work(2000)
        assert ratio < 8, ratio
