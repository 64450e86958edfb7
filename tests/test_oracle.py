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
from flexicolor.oracle import optimal_satisfaction, sweep_order
from linecount import lines_run
from reference import bruteforce_bad_component, reference_sweep_order


def reference_dfs(g: Graph, L: dict, request: Request) -> tuple:
    """(optimum, coloring, enumerated) by visiting every proper list
    coloring depth-first in the oracle's `sweep_order`, colors ascending;
    the first coloring of the largest value is kept."""
    order = sweep_order(g, L)
    if request.kind == "unweighted":
        gain, zero = {vc: 1 for vc in request.prefs.items()}, 0
    elif request.kind == "unique":
        gain = {(v, c): request.weights[v] for v, c in request.prefs.items()}
        zero = Fraction(0)
    else:
        gain, zero = dict(request.table), Fraction(0)
    best = [None, None, 0]  # value, coloring, leaves
    color = {}

    def rec(i, value):
        if i == len(order):
            best[2] += 1
            if best[0] is None or value > best[0]:
                best[0], best[1] = value, dict(color)
            return
        v = order[i]
        used = {color[u] for u in g.neighbors(v) if u in color}
        for c in sorted(L[v]):
            if c not in used:
                color[v] = c
                rec(i + 1, value + gain.get((v, c), zero))
                del color[v]

    rec(0, zero)
    if best[1] is None:
        return zero, None, 0
    return tuple(best)


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

    def test_deterministic(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        L = {v: {1, 2, 3} for v in range(4)}
        r = Request("unweighted", prefs={0: 1, 2: 2})
        a = optimal_satisfaction(g, L, r)
        b = optimal_satisfaction(g, L, r)
        assert a.optimum == b.optimum and a.coloring == b.coloring


class TestFrontierSweep:
    """The frontier dynamic program against the depth-first reference."""

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_matches_reference_dfs(self, case):
        g, L, request = case
        res = optimal_satisfaction(g, L, request)
        optimum, coloring, enumerated = reference_dfs(g, L, request)
        assert res.optimum == optimum and type(res.optimum) is type(optimum)
        assert res.coloring == coloring
        assert res.enumerated == enumerated
        colorable = optimal_satisfaction(g, L, Request("unweighted")).colorable
        assert colorable == (enumerated > 0)

    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_order_matches_rescan(self, case):
        g, L, _ = case
        assert sweep_order(g, L) == reference_sweep_order(g, L)

    def test_ktree_order_and_states(self):
        # the min-frontier order keeps the sweep of this 2-tree, with
        # 3 * 10**15 proper colorings, to a few thousand states
        inst = random_ktree(7, 60, 2)
        assert sweep_order(inst.g, inst.L) == reference_sweep_order(inst.g, inst.L)
        request = Request("unweighted", prefs=inst.request.prefs)
        res = optimal_satisfaction(inst.g, inst.L, request, budget=10**30)
        assert res.optimum == 39 and res.enumerated == 3086392575467520
        assert res.states <= 5000
        check_coloring(inst.g, inst.L, res.coloring)
        assert satisfied_amount(inst.g, inst.L, res.coloring, request) == 39

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
