import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor.cli import main
from flexicolor.errors import BudgetExceededError
from flexicolor.graph import Graph
from flexicolor.instances import (
    InstanceFile,
    random_ktree,
    serialize,
    two_cliques_matching,
)
from flexicolor.listcolor import Request, check_coloring, satisfied_amount
from flexicolor.oracle import elimination_order, optimal_satisfaction
from linecount import lines_run
from reference import bruteforce_bad_component


def reference_dfs(g: Graph, L: dict, request: Request) -> tuple:
    """(optimum, enumerated) by visiting every proper list coloring
    depth-first, vertices in the order 0, 1, ..., n - 1."""
    gain = {vc: request.amount(w) for vc, w in request.gain.items()}
    zero = request.amount(0)
    best = [None, 0]  # value, leaves
    color = {}

    def rec(v, value):
        if v == g.n:
            best[1] += 1
            if best[0] is None or value > best[0]:
                best[0] = value
            return
        used = {color[u] for u in g.neighbors(v) if u in color}
        for c in L[v] - used:
            color[v] = c
            rec(v + 1, value + gain.get((v, c), zero))
            del color[v]

    rec(0, zero)
    return (zero if best[0] is None else best[0]), best[1]


@st.composite
def oracle_cases(draw):
    """A graph on at most 8 vertices, lists from a palette of 4 (often
    too short to color) and a request of any kind."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, sorted(edges))
    L = {v: draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)) for v in range(n)}
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    kind = draw(st.sampled_from(["unweighted", "unique", "weighted"]))
    if kind == "weighted":
        table = {
            (v, c): draw(st.one_of(st.just(Fraction(0)), weight))
            for v in range(n)
            for c in sorted(L[v])
            if draw(st.booleans())
        }
        return g, L, Request("weighted", table=table)
    vs = sorted(draw(st.sets(st.integers(0, n - 1))))
    prefs = {v: draw(st.sampled_from(sorted(L[v]))) for v in vs}
    if kind == "unweighted":
        return g, L, Request("unweighted", prefs=prefs)
    weights = {v: draw(weight) for v in vs}
    return g, L, Request("unique", prefs=prefs, weights=weights)


def path_with_singletons(n: int) -> tuple:
    """The path 0-1-...-(n-1) with lists {1}, {2}, {1}, ...: one coloring."""
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    return g, {v: {1 + v % 2} for v in range(n)}


class TestOptimalSatisfaction:
    def test_single_vertex(self):
        g = Graph(1, [])
        res = optimal_satisfaction(g, {0: {1, 2}}, Request("unweighted", prefs={0: 2}))
        assert res.optimum == 1 and res.coloring == {0: 2}

    def test_edge_conflict_forces_one(self):
        g = Graph(2, [(0, 1)])
        L = {0: {1, 2}, 1: {1, 2}}
        r = Request("unweighted", prefs={0: 1, 1: 1})
        res = optimal_satisfaction(g, L, r)
        assert res.optimum == 1

    def test_weighted_prefers_heavy_side(self):
        g = Graph(2, [(0, 1)])
        L = {0: {1, 2}, 1: {1, 2}}
        r = Request(
            "unique", prefs={0: 1, 1: 1}, weights={0: Fraction(1), 1: Fraction(10)}
        )
        res = optimal_satisfaction(g, L, r)
        assert res.optimum == 10 and res.coloring[1] == 1

    def test_uncolorable_returns_none(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        L = {v: {1, 2} for v in range(3)}
        res = optimal_satisfaction(g, L, Request("unweighted", prefs={0: 1}))
        assert res.coloring is None and not res.colorable
        assert res.optimum == 0

    def test_optimum_matches_bruteforce_sweep(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 6)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            g = Graph(n, sorted(edges))
            L = {v: set(rng.sample(range(1, 5), 2)) for v in range(n)}
            r = Request(
                "unweighted", prefs={v: rng.choice(sorted(L[v])) for v in range(n)}
            )
            res = optimal_satisfaction(g, L, r)
            # independent recomputation by full product enumeration
            from itertools import product

            best = None
            for combo in product(*[sorted(L[v]) for v in range(n)]):
                if any(combo[u] == combo[v] for u, v in g.edges):
                    continue
                val = sum(1 for v in range(n) if combo[v] == r.prefs[v])
                best = val if best is None else max(best, val)
            if best is None:
                assert not res.colorable
            else:
                assert res.optimum == best
                check_coloring(g, L, res.coloring)
                assert satisfied_amount(g, L, res.coloring, r) == best

    def test_budget_guard(self):
        g = Graph(12, [(i, i + 1) for i in range(11)])
        L = {v: set(range(1, 9)) for v in range(12)}
        with pytest.raises(BudgetExceededError):
            optimal_satisfaction(g, L, Request("unweighted", prefs={0: 1}), budget=10)

    def test_ties_take_the_smallest_color(self):
        # 0 goes first (degree 1, list 2, smaller id); read back in
        # reverse, 1 takes 1, the smallest color of a best coloring, and
        # 0 the smallest color left to it
        g = Graph(2, [(0, 1)])
        res = optimal_satisfaction(g, {0: {1, 2}, 1: {1, 2}}, Request("unweighted"))
        assert res.coloring == {0: 2, 1: 1} and res.enumerated == 2

    def test_deterministic(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        L = {v: {1, 2, 3} for v in range(4)}
        r = Request("unweighted", prefs={0: 1, 2: 2})
        a = optimal_satisfaction(g, L, r)
        b = optimal_satisfaction(g, L, r)
        assert a.optimum == b.optimum and a.coloring == b.coloring


class TestFrontierSweep:
    """Bucket elimination against the depth-first reference, its cells
    and its scaling."""

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_matches_reference_dfs(self, case):
        g, L, request = case
        res = optimal_satisfaction(g, L, request)
        optimum, enumerated = reference_dfs(g, L, request)
        assert res.optimum == optimum and type(res.optimum) is type(optimum)
        assert res.enumerated == enumerated
        assert res.colorable == (enumerated > 0)
        if res.colorable:
            check_coloring(g, L, res.coloring)
            assert satisfied_amount(g, L, res.coloring, request) == optimum
        colorable = optimal_satisfaction(g, L, Request("unweighted")).colorable
        assert colorable == (enumerated > 0)

    def test_ktree_order_and_states(self):
        # every scope of this 2-tree, with 3 * 10**15 proper colorings,
        # has two vertices, so each of its 60 vertices takes at most 3**3
        # cells
        inst = random_ktree(7, 60, 2)
        request = Request("unweighted", prefs=inst.request.prefs)
        res = optimal_satisfaction(inst.g, inst.L, request)
        assert res.optimum == 39 and res.enumerated == 3086392575467520
        assert res.cells == elimination_order(inst.g, inst.L)[2] <= 60 * 3**3
        check_coloring(inst.g, inst.L, res.coloring)
        assert satisfied_amount(inst.g, inst.L, res.coloring, request) == 39

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 60), st.sampled_from([2, 3]))
    def test_min_degree_scopes_of_ktrees(self, seed, extra, k):
        inst = random_ktree(seed, k + 1 + extra, k)
        _, scopes, _ = elimination_order(inst.g, inst.L, budget=10**30)
        assert max(map(len, scopes)) <= k

    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_order_and_sweep_about_linear(self, shape):
        # a quadratic order (a rescan of every vertex per step) gives 16
        def run(n):
            if shape == "path":
                g, L = path_with_singletons(n)
            else:
                g = Graph(n, [(0, v) for v in range(1, n)])
                L = {v: {1 if v == 0 else 2} for v in range(n)}
            work, res = lines_run(optimal_satisfaction, g, L, Request("unweighted"))
            assert res.enumerated == 1
            return work

        assert run(8000) / run(2000) < 8

    def test_two_tree_doubling(self):
        # a path decomposition of a random 2-tree widens with n; the
        # elimination's scopes do not, so 4 times the vertices cost
        # about 4 times the work
        def run(n):
            inst = random_ktree(3, n, 2)
            work, res = lines_run(optimal_satisfaction, inst.g, inst.L, inst.request)
            assert res.colorable
            return work

        assert run(1200) / run(300) < 8

    def test_two_cliques_matching_count(self):
        inst = two_cliques_matching(5)
        res = optimal_satisfaction(inst.g, inst.L, inst.request)
        assert res.enumerated == 5280 and res.optimum == 1

    def test_long_path_through_cli(self, capsys, tmp_path):
        # one vertex per step: a recursive search ran out of stack here
        g, L = path_with_singletons(3000)
        doc = tmp_path / "path.fi"
        doc.write_text(serialize(InstanceFile(g, L, Request("unweighted", prefs={0: 1}))))
        code = main(["oracle", str(doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimum 1\ncolorable yes\nenumerated 1\n" in out

    def test_long_path_is_colorable(self):
        g, L = path_with_singletons(3000)
        assert optimal_satisfaction(g, L, Request("unweighted")).colorable
        L[1] = {1}
        assert not optimal_satisfaction(g, L, Request("unweighted")).colorable


def wide_degree_four(n: int) -> tuple:
    """A cycle through 0, ..., n - 1 and one through a random order of the
    same vertices: maximum degree 4, an expander, so every elimination
    order is wide; lists {1, 2, 3}."""
    order = random.Random(n).sample(range(n), n)
    edges = {(v, (v + 1) % n) for v in range(n)}
    edges |= {(order[i - 1], order[i]) for i in range(n)}
    g = Graph(n, sorted({(min(e), max(e)) for e in edges if e[0] != e[1]}))
    return g, {v: {1, 2, 3} for v in range(n)}


class TestCellBudget:
    def test_ktree_document_within_default_budget(self, capsys, tmp_path):
        # its list product, 3**60, exceeds the default budget; its cells
        # do not
        doc = str(tmp_path / "ktree.fi")
        assert main(["generate", "ktree", "--seed", "7", "--n", "60", "--out", doc]) == 0
        assert main(["oracle", doc]) == 0
        out, err = capsys.readouterr()
        assert "colorable yes" in out and err == ""

    def test_wide_document_exits_3(self, capsys, tmp_path):
        g, L = wide_degree_four(20000)
        doc = tmp_path / "wide.fi"
        doc.write_text(serialize(InstanceFile(g, L, Request("unweighted", prefs={0: 1}))))
        assert main(["oracle", str(doc)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error budget ") and err.count("\n") == 1

    def test_wide_order_abandoned_early(self):
        # the order stops when its cells pass the budget, so doubling n
        # adds only the linear set-up (1.8 times the work); finishing
        # the order first, with its fill cliques of hundreds of vertices,
        # gives 3.8
        def run(n):
            g, L = wide_degree_four(n)

            def attempt():
                with pytest.raises(BudgetExceededError):
                    optimal_satisfaction(g, L, Request("unweighted"))

            return lines_run(attempt)[0]

        assert run(2000) / run(1000) < 2.5


class TestBadComponentBruteforce:
    def test_k1_with_empty_list(self):
        assert bruteforce_bad_component(Graph(1, []), {0: set()})
        assert not bruteforce_bad_component(Graph(1, []), {0: {1}})

    def test_tight_triangle_is_bad(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert bruteforce_bad_component(g, {v: {1, 2} for v in range(3)})

    def test_tight_odd_cycle_is_bad(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert bruteforce_bad_component(g, {v: {1, 2} for v in range(5)})

    def test_even_cycle_is_not_bad(self):
        g = Graph(4, [(i, (i + 1) % 4) for i in range(4)])
        assert not bruteforce_bad_component(g, {v: {1, 2} for v in range(4)})

    def test_slack_list_is_not_bad(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        L = {0: {1, 2, 3}, 1: {1, 2}, 2: {1, 2}}
        assert not bruteforce_bad_component(g, L)

    def test_good_blocks_with_tight_lists_always_colorable(self):
        # with every list tight, a component that is not bad has some
        # block that is neither clique nor odd cycle, which guarantees a
        # coloring for every such list choice
        rng = random.Random(4)
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(n):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            L = {
                v: set(rng.sample(range(1, 7), g.degree(v))) for v in range(n)
            }
            if any(not L[v] for v in range(n)):
                continue
            if not bruteforce_bad_component(g, L):
                assert optimal_satisfaction(g, L, Request("unweighted")).colorable
                checked += 1
        assert checked > 10
