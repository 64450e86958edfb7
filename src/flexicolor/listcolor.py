"""List assignments, color requests, satisfaction accounting, and the
degree-choosable coloring shared by all solvers: constructed as the
degree-choosability proof builds it, with only bad components searched,
by the oracle's frontier sweep.

A list assignment is a plain dict mapping each vertex to a set of
non-negative integer colors; a coloring is a dict vertex -> color.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import attrgetter, eq, floordiv, itemgetter, mul
from typing import Iterable, Union

from .errors import BudgetExceededError, PreconditionError
from .graph import Graph, choosable_coloring
from .oracle import _sweep

ListAssignment = dict


def validate_lists(g: Graph, L: dict) -> None:
    for v in range(g.n):
        if v not in L:
            raise PreconditionError(f"vertex {v} has no list")
        if not L[v]:
            raise PreconditionError(f"vertex {v} has an empty list")
        for c in L[v]:
            if not isinstance(c, int) or c < 0:
                raise PreconditionError(
                    f"vertex {v} has invalid color {c!r} in its list"
                )


# ---------------------------------------------------------------------------
# Requests


def exact_sum(weights: Iterable) -> Fraction:
    """The sum of the weights, of the value and type that adding them one
    by one to Fraction(0) gives: a Fraction for rational weights.

    The numerators are scaled to the least common denominator and added
    as integers, so only one Fraction is built, where adding the
    weights one by one normalises a Fraction at every step.
    """
    weights = list(weights)
    try:
        dens = list(map(attrgetter("denominator"), weights))
    except AttributeError:  # a weight that is no rational, such as a float
        return sum(weights, Fraction(0))
    nums = map(attrgetter("numerator"), weights)
    d = lcm(*set(dens))
    if d == 1:
        return Fraction(sum(nums))
    return Fraction(sum(map(mul, nums, map(floordiv, repeat(d), dens))), d)


def _least_numerator(weights: Iterable):
    """The least numerator of the weights, whose sign is the weight's for
    rationals (1 if there are none); None if a weight has no numerator,
    such as a float or a missing weight."""
    try:
        return min(map(attrgetter("numerator"), weights), default=1)
    except AttributeError:
        return None


@dataclass(frozen=True)
class Request:
    """A color request on a graph.

    kind "unweighted": prefs maps requested vertex -> preferred color.
    kind "unique": prefs plus a positive weight per requested vertex.
    kind "weighted": table maps (vertex, color) -> non-negative weight.
    """

    kind: str
    prefs: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("unweighted", "unique", "weighted"):
            raise PreconditionError(f"unknown request kind {self.kind!r}")
        if self.kind == "unique":
            least = _least_numerator(map(self.weights.get, self.prefs))
            if least is not None and least > 0:
                return
            for v in self.prefs:
                w = self.weights.get(v)
                if w is None or w <= 0:
                    raise PreconditionError(
                        f"uniquely weighted request needs a positive weight "
                        f"at vertex {v}"
                    )

    def domain(self) -> set:
        if self.kind == "weighted":
            return {v for (v, c), w in self.table.items() if w > 0}
        return set(self.prefs)

    def total(self) -> Union[int, Fraction]:
        if self.kind == "unweighted":
            return len(self.prefs)
        if self.kind == "unique":
            return exact_sum(self.weights.values())
        return exact_sum(self.table.values())

    def validate(self, g: Graph, L: dict) -> None:
        if self.kind == "weighted":
            least = _least_numerator(self.table.values())
            check_signs = least is None or least < 0
            for (v, c), w in self.table.items():
                if not (0 <= v < g.n):
                    raise PreconditionError(f"request vertex {v} out of range")
                if c not in L[v]:
                    raise PreconditionError(
                        f"requested color {c} at vertex {v} is not in its list"
                    )
                if check_signs and w < 0:
                    raise PreconditionError(
                        f"negative weight at vertex {v}, color {c}"
                    )
            return
        for v, c in self.prefs.items():
            if not (0 <= v < g.n):
                raise PreconditionError(f"request vertex {v} out of range")
            if c not in L[v]:
                raise PreconditionError(
                    f"requested color {c} at vertex {v} is not in its list"
                )


def check_coloring(g: Graph, L: dict, coloring: dict) -> None:
    """Raise unless coloring is a total, on-list, proper coloring."""
    for v in range(g.n):
        if v not in coloring:
            raise PreconditionError(f"coloring misses vertex {v}")
        if coloring[v] not in L[v]:
            raise PreconditionError(
                f"vertex {v} is colored {coloring[v]}, not in its list"
            )
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            raise PreconditionError(
                f"edge ({u},{v}) is monochromatic in color {coloring[u]}"
            )


def satisfied_count(coloring: dict, request: Request) -> Union[int, Fraction]:
    """How much of the request the coloring satisfies, without checking
    the coloring: every requested vertex must be colored."""
    color_of = coloring.__getitem__
    if request.kind == "weighted":
        table = request.table
        vertices, colors = map(itemgetter(0), table), map(itemgetter(1), table)
        hits = map(eq, map(color_of, vertices), colors)
        return exact_sum(compress(table.values(), hits))
    prefs = request.prefs
    hits = map(eq, map(color_of, prefs), prefs.values())
    if request.kind == "unweighted":
        return sum(hits)
    return exact_sum(map(request.weights.__getitem__, compress(prefs, hits)))


def satisfied_amount(
    g: Graph, L: dict, coloring: dict, request: Request
) -> Union[int, Fraction]:
    """How much of the request the coloring satisfies.

    Validates the coloring first; counting happens only on valid input.
    """
    check_coloring(g, L, coloring)
    return satisfied_count(coloring, request)


def reduce_to_unique(request: Request, L: dict) -> Request:
    """Keep one maximum-weight color per vertex (tie: smallest color).

    The retained total is at least total / max list size, since each
    vertex keeps its heaviest entry out of at most |L(v)| entries.
    """
    if request.kind != "weighted":
        raise PreconditionError("reduce_to_unique expects a general weighted request")
    per_vertex: dict = {}
    for (v, c), w in request.table.items():
        per_vertex.setdefault(v, []).append((c, w))
    prefs = {}
    weights = {}
    for v, entries in per_vertex.items():
        c, w = max(entries, key=lambda cw: (cw[1], -cw[0]))
        if w > 0:
            prefs[v] = c
            weights[v] = Fraction(w)
    return Request(kind="unique", prefs=prefs, weights=weights)


# ---------------------------------------------------------------------------
# Degree-choosable coloring


# the most vertices of a bad component that the frontier sweep searches
COMPONENT_CAP = 20


@dataclass(frozen=True)
class Infeasible:
    """No coloring: the instance is a bad component with no escape."""

    component: tuple
    reason: str


def degree_choosable_coloring(g: Graph, L: dict) -> Union[dict, Infeasible]:
    """Proper on-list coloring of a connected graph with |L(v)| >= deg(v).

    The coloring is constructed as the degree-choosability proof builds
    it (graph.choosable_coloring).  Only a bad component (all lists
    tight, every block a clique or an odd cycle) may have none; it is
    searched by the oracle's frontier sweep, which returns the
    lexicographically first coloring in smallest-list-first order, or
    Infeasible.  g and L must pass InstanceFile(g, L).validate().
    """
    g.require_connected()
    for v in range(g.n):
        if len(L[v]) < g.degree(v):
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])} below degree {g.degree(v)}"
            )
    color = choosable_coloring(g, [sorted(L[v]) for v in range(g.n)])
    if color is not None:
        return color
    if g.n > COMPONENT_CAP:
        raise BudgetExceededError(
            f"bad component on {g.n} vertices exceeds cap {COMPONENT_CAP}"
        )
    found = _sweep(g, L, {})[2]
    if found is not None:
        return found
    return Infeasible(
        component=tuple(range(g.n)),
        reason="all lists tight and every block a clique or odd cycle; "
        "exhaustive search found no coloring",
    )


def precolor_and_extend(g: Graph, L: dict, fixed: dict) -> Union[dict, Infeasible]:
    """Color the fixed vertices as given and extend to the whole graph.

    Fixed vertices must be independent with on-list colors.  Their
    colors are deleted from neighbors' lists and each remaining
    component is colored by degree_choosable_coloring.  g and L must
    pass InstanceFile(g, L).validate().
    """
    for v, c in fixed.items():
        if not (0 <= v < g.n):
            raise PreconditionError(f"fixed vertex {v} out of range")
        if c not in L[v]:
            raise PreconditionError(
                f"fixed color {c} at vertex {v} is not in its list"
            )
    fixed_set = set(fixed)
    for u, v in g.edges:
        if u in fixed_set and v in fixed_set:
            raise PreconditionError(
                f"fixed vertices {u} and {v} are adjacent"
            )
    rest = [v for v in range(g.n) if v not in fixed_set]
    if not rest:
        return dict(fixed)
    pruned = {}
    for v in rest:
        removed = {fixed[u] for u in g.neighbors(v) if u in fixed_set}
        pruned[v] = set(L[v]) - removed
        if not pruned[v]:
            raise PreconditionError(
                f"vertex {v} has no colors left after fixing its neighbors"
            )
    out = dict(fixed)
    for comp_ids, comp_g in g.components_without(fixed_set):
        comp_L = {i: pruned[v] for i, v in enumerate(comp_ids)}
        res = degree_choosable_coloring(comp_g, comp_L)
        if isinstance(res, Infeasible):
            return Infeasible(
                component=tuple(comp_ids[i] for i in res.component),
                reason=res.reason,
            )
        for i, c in res.items():
            out[comp_ids[i]] = c
    return out
