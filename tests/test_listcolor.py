import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor.errors import PreconditionError
from flexicolor.graph import Graph
from flexicolor.listcolor import (
    Request,
    check_coloring,
    degree_choosable_coloring,
    precolor_and_extend,
    reduce_to_unique,
    satisfied_amount,
    validate_lists,
)
from linecount import lines_run
from reference import bruteforce_bad_component


def cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


def clique(k):
    return list(combinations(range(k), 2))


# block shapes by tag, each on vertices 0..k-1; the "other" ones are
# C4, C6, K4 - e and K33
SHAPES = {
    "clique": [clique(2), clique(3), clique(4)],
    "odd-cycle": [cycle(5), cycle(7)],
    "other": [cycle(4), cycle(6), clique(4)[1:],
              [(a, b) for a in range(3) for b in range(3, 6)]],
}


def glued_blocks(rng, kinds, extra=0, n_max=9):
    """A connected graph on at most n_max vertices glued from blocks of
    the given kinds at cut vertices, plus `extra` random edges, with
    tight lists: deg(v) colors each, from a palette of at most one more
    color than the largest degree."""
    n, edges = 1, set()
    shapes = [shape for kind in kinds for shape in SHAPES[kind]]
    while True:
        shape = rng.choice(shapes)
        size = 1 + max(map(max, shape))
        if n + size - 1 > n_max:
            break
        ids = [rng.randrange(n), *range(n, n + size - 1)]
        edges.update(tuple(sorted((ids[a], ids[b]))) for a, b in shape)
        n += size - 1
        if rng.random() < 0.3:
            break
    for _ in range(extra):
        if n > 2:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
    g = Graph(n, sorted(edges))
    top = g.max_degree() + rng.randint(0, 1)
    return g, {v: set(rng.sample(range(1, top + 1), g.degree(v))) for v in range(n)}


def prism(n):
    """The circular ladder on n vertices: two cycles of n/2 vertices
    joined by a perfect matching; 3-regular and 2-connected."""
    k = n // 2
    return Graph(n, sorted(
        tuple(sorted(e)) for i in range(k)
        for e in ((i, (i + 1) % k), (k + i, k + (i + 1) % k), (i, k + i))
    ))


def all_small_graphs(n):
    """All connected graphs on n labeled vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if g.is_connected():
            yield g


class TestValidation:
    def test_missing_and_empty_lists(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(PreconditionError):
            validate_lists(g, {0: {1}})
        with pytest.raises(PreconditionError):
            validate_lists(g, {0: {1}, 1: set()})

    def test_request_kinds(self):
        with pytest.raises(PreconditionError):
            Request("other")
        with pytest.raises(PreconditionError):
            Request("unique", prefs={0: 1}, weights={0: 0})
        r = Request("weighted", table={(0, 1): Fraction(2), (0, 2): Fraction(0)})
        assert r.domain() == {0}
        assert r.total() == 2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_weight_signs_refused_at_the_first_offender(self, data):
        # rational weights of every sign, with floats and missing weights
        # mixed in: the request names the first offender in its own order
        weight = st.one_of(
            st.fractions(-3, 3, max_denominator=4),
            st.integers(-3, 3),
            st.floats(-3, 3),
        )
        prefs = {v: 1 for v in data.draw(st.permutations(range(6)))}
        weights = data.draw(st.dictionaries(st.sampled_from(list(prefs)), weight))
        offender = next(
            (v for v in prefs if weights.get(v) is None or weights[v] <= 0), None
        )
        if offender is None:
            Request("unique", prefs=prefs, weights=weights)
        else:
            with pytest.raises(PreconditionError) as err:
                Request("unique", prefs=prefs, weights=weights)
            assert str(err.value) == (
                "uniquely weighted request needs a positive weight at "
                f"vertex {offender}"
            )

        g = Graph(3, [(0, 1)])
        L = {0: {1, 2}, 1: {1, 2}, 2: {2, 3}}
        keys = st.tuples(st.integers(-1, 3), st.integers(1, 3))
        table = data.draw(st.dictionaries(keys, weight, max_size=8))
        message = None
        for (v, c), w in table.items():
            if not 0 <= v < g.n:
                message = f"request vertex {v} out of range"
            elif c not in L[v]:
                message = f"requested color {c} at vertex {v} is not in its list"
            elif w < 0:
                message = f"negative weight at vertex {v}, color {c}"
            if message is not None:
                break
        request = Request("weighted", table=table)
        if message is None:
            request.validate(g, L)
        else:
            with pytest.raises(PreconditionError) as err:
                request.validate(g, L)
            assert str(err.value) == message

    def test_check_coloring_names_offender(self):
        g = Graph(2, [(0, 1)])
        L = {0: {1, 2}, 1: {1, 2}}
        with pytest.raises(PreconditionError, match="vertex 1"):
            check_coloring(g, L, {0: 1, 1: 3})
        with pytest.raises(PreconditionError, match=r"\(0,1\)"):
            check_coloring(g, L, {0: 1, 1: 1})
        with pytest.raises(PreconditionError, match="misses"):
            check_coloring(g, L, {0: 1})

    def test_satisfied_amount_kinds(self):
        g = Graph(2, [(0, 1)])
        L = {0: {1, 2}, 1: {1, 2}}
        col = {0: 1, 1: 2}
        assert satisfied_amount(g, L, col, Request("unweighted", prefs={0: 1, 1: 1})) == 1
        r = Request("unique", prefs={0: 1}, weights={0: Fraction(5)})
        assert satisfied_amount(g, L, col, r) == 5
        rw = Request("weighted", table={(0, 1): Fraction(2), (1, 1): Fraction(7)})
        assert satisfied_amount(g, L, col, rw) == 2


class TestReduceToUnique:
    def test_argmax_with_smallest_color_tiebreak(self):
        r = Request(
            "weighted",
            table={(0, 1): Fraction(3), (0, 2): Fraction(5), (0, 3): Fraction(5)},
        )
        u = reduce_to_unique(r)
        assert u.kind == "unique"
        assert u.prefs == {0: 2} and u.total() == 5

    def test_drops_zero_weight_vertices(self):
        r = Request("weighted", table={(0, 1): Fraction(0), (1, 1): Fraction(1)})
        u = reduce_to_unique(r)
        assert 0 not in u.prefs

    def test_reduction_factor_bound(self):
        # kept weight is at least total / max list size
        rng = random.Random(11)
        for _ in range(30):
            L = {v: set(rng.sample(range(1, 6), 3)) for v in range(4)}
            table = {}
            for v in range(4):
                for c in L[v]:
                    table[(v, c)] = Fraction(rng.randint(0, 9))
            r = Request("weighted", table=table)
            if r.total() == 0:
                continue
            u = reduce_to_unique(r)
            assert u.total() * 3 >= r.total()


weights = st.fractions(min_value=0, max_value=20, max_denominator=12)


@st.composite
def colored_requests(draw):
    """A path with lists {1, 2, 3}, a proper coloring of it, a request of
    any kind with integer or fractional weights, and the weight of each
    of its (vertex, color) pairs as drawn (1 for an unweighted one)."""
    n = draw(st.integers(1, 12))
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    L = {v: {1, 2, 3} for v in range(n)}
    shift = draw(st.integers(0, 1))
    coloring = {v: 1 + (v + shift) % 2 for v in range(n)}
    vs = draw(st.lists(st.integers(0, n - 1), unique=True))
    kind = draw(st.sampled_from(["unweighted", "unique", "weighted"]))
    if kind == "weighted":
        keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)),
                             unique=True))
        table = {key: draw(weights) for key in keys}
        return g, L, coloring, Request("weighted", table=table), table
    prefs = {v: draw(st.integers(1, 3)) for v in vs}
    if kind == "unweighted":
        drawn = dict.fromkeys(prefs.items(), 1)
        return g, L, coloring, Request("unweighted", prefs=prefs), drawn
    ws = {v: draw(weights.filter(lambda w: w > 0)) for v in vs}
    drawn = {(v, c): ws[v] for v, c in prefs.items()}
    return g, L, coloring, Request("unique", prefs=prefs, weights=ws), drawn


class TestGainTable:
    """A request holds one int table over one scale; its totals and
    satisfied amounts are int sums stated over the scale."""

    @settings(max_examples=300, deadline=None)
    @given(colored_requests())
    def test_amounts_equal_one_by_one_sums(self, case):
        g, L, coloring, r, drawn = case
        # added one by one: ints for an unweighted request, else Fractions
        start = 0 if r.kind == "unweighted" else Fraction(0)
        total = sum(drawn.values(), start)
        hit = sum((w for (v, c), w in drawn.items() if coloring[v] == c), start)
        got_total, got_hit = r.total(), satisfied_amount(g, L, coloring, r)
        assert (got_total, type(got_total)) == (total, type(total))
        assert (got_hit, type(got_hit)) == (hit, type(hit))

    @settings(max_examples=300, deadline=None)
    @given(colored_requests())
    def test_table_is_the_weights_over_one_scale(self, case):
        _, _, _, r, drawn = case
        assert all(type(x) is int and x >= 0 for x in r.gain.values())
        assert type(r.scale) is int and r.scale >= 1
        assert Fraction(sum(r.gain.values()), r.scale) == r.total()
        # every pair, zero weights too, in the order given
        assert list(r.gain) == list(drawn)
        assert all(Fraction(x, r.scale) == drawn[vc] for vc, x in r.gain.items())
        # the least common denominator: no smaller scale holds every
        # weight as an int
        assert gcd(r.scale, *r.gain.values()) == 1

    def test_zero_entries_of_a_table_stay(self):
        table = {(0, 1): Fraction(1, 2), (0, 2): 0, (1, 1): 0.25, (2, 1): 0}
        r = Request("weighted", table=table)
        assert r.gain == {(0, 1): 2, (0, 2): 0, (1, 1): 1, (2, 1): 0} and r.scale == 4
        assert r.domain() == {0, 1}
        assert r.total() == Fraction(3, 4)


class TestDegreeChoosable:
    def test_even_cycle_tight_lists_colorable(self):
        g = Graph(4, [(i, (i + 1) % 4) for i in range(4)])
        L = {v: {1, 2} for v in range(4)}
        col = degree_choosable_coloring(g, L)
        check_coloring(g, L, col)

    def test_odd_cycle_tight_lists_infeasible(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        L = {v: {1, 2} for v in range(5)}
        assert degree_choosable_coloring(g, L) is None

    def test_slack_vertex_fast_path(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        L = {v: {1, 2} for v in range(5)}
        L[0] = {1, 2, 3}
        col = degree_choosable_coloring(g, L)
        check_coloring(g, L, col)

    def test_list_below_degree_rejected(self):
        # the one list-size check is where the lists are pruned
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(PreconditionError, match="below its degree"):
            precolor_and_extend(g, {0: {1}, 1: {1, 2}, 2: {1, 2}}, {})

    def test_bad_component_of_any_size_is_none(self):
        # path blocks are cliques (edges) and all lists are tight, so the
        # path is bad at every length, colorable or not; no search runs
        def tight_path(n):
            L = {v: {1, 2} for v in range(n)}
            L[0] = L[n - 1] = {1}
            return Graph(n, [(i, i + 1) for i in range(n - 1)]), L

        assert bruteforce_bad_component(*tight_path(15))
        for n in (15, 30, 3000):
            assert degree_choosable_coloring(*tight_path(n)) is None

    def test_none_exactly_on_bad_components(self):
        def agrees(g, L):
            out = degree_choosable_coloring(g, L)
            if bruteforce_bad_component(g, L):
                assert out is None
            else:
                check_coloring(g, L, out)

        # all connected graphs n <= 5, a few random list choices of at
        # least the degree, mostly tight
        rng = random.Random(3)
        checked = 0
        for n in (3, 4, 5):
            for g in all_small_graphs(n):
                for _ in range(2):
                    L = {
                        v: set(
                            rng.sample(range(1, 5), min(4, max(1, g.degree(v))))
                        )
                        for v in range(n)
                    }
                    agrees(g, L)
                    checked += 1
        assert checked > 100
        # tight lists on glued blocks with a few chords, n <= 9
        for _ in range(400):
            kinds = ("clique", "odd-cycle", "other")
            agrees(*glued_blocks(rng, kinds, extra=rng.randint(0, 2)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_tight_gallai_trees_get_none(self, seed):
        g, L = glued_blocks(random.Random(seed), ("clique", "odd-cycle"))
        assert bruteforce_bad_component(g, L)
        assert degree_choosable_coloring(g, L) is None

    def test_tight_prism_components_scale_linearly(self):
        def work(n):
            L = {v: {1, 2, 3} for v in range(n)}
            return lines_run(precolor_and_extend, prism(n), L, {0: 1})[0]

        # fixing vertex 0 leaves one component with every list tight,
        # colored by the construction; a search would blow up or recurse.
        # The mean ratio over two doublings is about 2 for linear work and
        # 4 for quadratic.
        small, large = work(2000), work(8000)
        assert (large / small) ** 0.5 < 3, (small, large)


def merged(fixed, components):
    """The fixed colors and every component's coloring, as one dict."""
    coloring = dict(fixed)
    for _, _, _, col in components:
        coloring.update(col)
    return coloring


class TestPrecolorAndExtend:
    def test_extends_around_fixed_triangle_vertex(self):
        # bowtie: requests at a pendant triangle vertex
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        L = {0: {1, 2, 3}, 1: {1, 2, 3}, 2: {1, 2, 3, 4}, 3: {1, 2, 3}, 4: {1, 2, 3}}
        [(ids, sub, lists, col)] = precolor_and_extend(g, L, {0: 1})
        assert ids == [1, 2, 3, 4] and sub == g.induced(ids)[0]
        assert lists == {1: {2, 3}, 2: {2, 3, 4}, 3: {1, 2, 3}, 4: {1, 2, 3}}
        col = merged({0: 1}, [(ids, sub, lists, col)])
        assert col[0] == 1
        check_coloring(g, L, col)

    def test_rejects_adjacent_fixed_vertices(self):
        g = Graph(3, [(0, 1), (1, 2)])
        L = {v: {1, 2} for v in range(3)}
        with pytest.raises(PreconditionError):
            precolor_and_extend(g, L, {0: 1, 1: 2})

    def test_rejects_off_list_fixed_color(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(PreconditionError):
            precolor_and_extend(g, {0: {1}, 1: {1, 2}}, {0: 9})

    def test_infeasible_component_reports_original_ids(self):
        # fixing color 1 at the center strips the pendant triangle 3,4,5
        # down to a tight K3 on lists {2,3}
        g = Graph(
            6,
            [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)],
        )
        L = {
            0: {1, 2, 3},
            1: {1, 2, 3},
            2: {1, 2, 3},
            3: {1, 2, 3},
            4: {2, 3},
            5: {2, 3},
        }
        out = precolor_and_extend(g, L, {0: 1})
        assert [(ids, col is None) for ids, _, _, col in out] == [
            ([1, 2], False), ([3, 4, 5], True)
        ]
        ids, sub, lists, col = out[0]
        check_coloring(
            sub,
            {i: lists[v] for i, v in enumerate(ids)},
            {i: col[v] for i, v in enumerate(ids)},
        )
