from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor.errors import PreconditionError
from flexicolor.graph import Graph, TreedepthForest
from flexicolor.instances import random_treedepth
from flexicolor.listcolor import Request, check_coloring, reduce_to_unique, satisfied_amount
from flexicolor.treedepth import derandomized_coloring
from reference import (
    reference_derandomized_coloring,
    reference_exact_request_probability,
    reference_sample_coloring,
)


def path_instance():
    # path 0-1-2 rooted as a chain: treedepth 3
    g = Graph(3, [(0, 1), (1, 2)])
    forest = TreedepthForest((None, 0, 1))
    L = {v: {1, 2, 3} for v in range(3)}
    return g, forest, L


class TestValidation:
    def test_short_list_rejected(self):
        g = Graph(2, [(0, 1)])
        L = {0: {1, 2}, 1: {1}}
        with pytest.raises(PreconditionError, match="list size"):
            derandomized_coloring(
                g, TreedepthForest((None, 0)), L, Request("unweighted")
            )

    def test_weighted_request_must_be_reduced(self):
        r = Request("weighted", table={(0, 1): Fraction(1)})
        with pytest.raises(PreconditionError, match="reduce_to_unique"):
            reference_sample_coloring(*path_instance(), 0, r)


class TestSampling:
    def test_samples_are_valid_colorings(self):
        for seed in range(20):
            ti = random_treedepth(seed, 14, 3)
            col = reference_sample_coloring(
                ti.g, ti.forest, ti.L, seed * 7 + 1, ti.request
            )
            check_coloring(ti.g, ti.L, col)

    def test_empirical_matches_exact_on_path(self):
        inst = path_instance()
        r = Request("unique", prefs={2: 2}, weights={2: Fraction(1)})
        p = reference_exact_request_probability(*inst, 2, 2, r)
        hits = sum(
            reference_sample_coloring(*inst, s, r)[2] == 2 for s in range(4000)
        )
        assert abs(hits / 4000 - float(p)) < 0.05


class TestExactProbability:
    def test_requested_color_at_least_one_over_k(self):
        for seed in range(15):
            ti = random_treedepth(seed, 10, 3)
            k = ti.forest.height()
            for v, c in ti.request.prefs.items():
                p = reference_exact_request_probability(
                    ti.g, ti.forest, ti.L, v, c, ti.request
                )
                assert p >= Fraction(1, k)

    def test_probabilities_sum_to_one_over_trimmed_lists(self):
        inst = path_instance()
        r = Request("unique", prefs={1: 3}, weights={1: Fraction(1)})
        total = sum(
            reference_exact_request_probability(*inst, 1, c, r) for c in (1, 2, 3)
        )
        assert total == 1

    def test_trimming_can_zero_a_nonrequested_color(self):
        # star center keeps colors 1..3 of 4; leaf requests drive the
        # trim so some non-requested color never appears at a leaf
        g = Graph(3, [(0, 1), (0, 2)])
        forest = TreedepthForest((None, 0, 0))
        L = {0: {1, 2}, 1: {1, 2, 9}, 2: {1, 2}}
        r = Request("unique", prefs={1: 1}, weights={1: Fraction(1)})
        # list at vertex 1 trims to {1, smallest other} = {1, 2}; color 9
        # can never be used
        assert reference_exact_request_probability(g, forest, L, 1, 9, r) == 0
        assert reference_exact_request_probability(
            g, forest, L, 1, 1, r
        ) >= Fraction(1, 2)


class TestDerandomized:
    def test_beats_expectation_and_k_fraction(self):
        for seed in range(20):
            ti = random_treedepth(seed + 50, 12, 3)
            col = derandomized_coloring(ti.g, ti.forest, ti.L, ti.request)
            check_coloring(ti.g, ti.L, col)
            sat = satisfied_amount(ti.g, ti.L, col, ti.request)
            assert sat * ti.forest.height() >= ti.request.total()

    def test_general_weighted_after_reduction(self):
        for seed in range(10):
            ti = random_treedepth(seed, 10, 3, request_kind="weighted")
            unique = reduce_to_unique(ti.request)
            if not unique.prefs:
                continue
            col = derandomized_coloring(ti.g, ti.forest, ti.L, unique)
            sat = satisfied_amount(ti.g, ti.L, col, ti.request)
            max_list = max(len(ti.L[v]) for v in range(ti.g.n))
            assert sat * ti.forest.height() * max_list >= ti.request.total()

    def test_accepts_every_request_kind(self):
        # unweighted requests weigh one each, and a general weighted one
        # is cut to its heaviest color per vertex inside the solver
        ti = random_treedepth(3, 12, 3, request_kind="weighted")
        inst = (ti.g, ti.forest, ti.L)
        unique = reduce_to_unique(ti.request)
        unit = {v: Fraction(1) for v in unique.prefs}
        unweighted = Request("unweighted", prefs=dict(unique.prefs))
        assert derandomized_coloring(*inst, ti.request) == derandomized_coloring(
            *inst, unique
        )
        assert derandomized_coloring(*inst, unweighted) == derandomized_coloring(
            *inst, Request("unique", prefs=dict(unique.prefs), weights=unit)
        )


class TestEstimator:
    """The one-pass estimator meets the paper's bound with its own
    invariants, and gives up little against the exact derandomizer."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(1, 8),
        st.sampled_from(["unique", "weighted"]),
    )
    def test_proper_and_bound_met(self, seed, n, height, kind):
        # satisfied_amount checks the coloring; an InternalInvariantError
        # (the estimator fell, or ended below total/k) fails the test
        ti = random_treedepth(seed, n, height, request_kind=kind)
        col = derandomized_coloring(ti.g, ti.forest, ti.L, ti.request)
        sat = satisfied_amount(ti.g, ti.L, col, ti.request)
        factor = ti.forest.height()
        if kind == "weighted":
            factor *= max(len(ti.L[v]) for v in range(ti.g.n))
        assert sat * factor >= ti.request.total()

    def test_within_one_percent_of_the_exact_derandomizer(self):
        # a fixed corpus: heights 1 to 4, n 1 to 12, unique and weighted
        # requests alternately
        ours = exact = Fraction(0)
        for seed in range(600):
            kind = "unique" if seed % 2 == 0 else "weighted"
            ti = random_treedepth(seed, 1 + seed % 12, 1 + seed % 4, request_kind=kind)
            inst = (ti.g, ti.forest, ti.L)
            unique = ti.request
            if kind == "weighted":
                unique = reduce_to_unique(ti.request)
            ours += satisfied_amount(
                ti.g, ti.L, derandomized_coloring(*inst, unique), unique
            )
            exact += satisfied_amount(
                ti.g, ti.L, reference_derandomized_coloring(*inst, unique)[0], unique
            )
        assert ours >= Fraction(99, 100) * exact
