"""List assignments, color requests, satisfaction accounting, and the
degree-choosable coloring of the components a precolored set leaves,
constructed as the degree-choosability proof builds it, with no search.
The construction has no coloring exactly when a component is bad (every
list tight, every block a clique or an odd cycle); the solvers decide
badness by it alone.

A list assignment is a plain dict mapping each vertex to a set of
non-negative integer colors; a coloring is a dict vertex -> color.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import attrgetter, eq, floordiv, gt, itemgetter, mul
from typing import Iterable, Optional, Union

from .errors import PreconditionError
from .graph import Graph, choosable_coloring

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

    def scaled_weight_map(self) -> tuple:
        """(d, {(vertex, color): weight * d}) over every requested pair
        with a positive weight, d the least common denominator of the
        weights, so that they add and compare as ints: (1, 1 per
        preference) for unweighted requests.  One pass over the pairs
        reads numerators and denominators; they are rescaled only when
        d > 1."""
        if self.kind == "unweighted":
            return 1, dict.fromkeys(self.prefs.items(), 1)
        if self.kind == "unique":
            pairs = self.prefs.items()
            weights = list(map(self.weights.__getitem__, self.prefs))
        else:
            pairs, weights = self.table, list(self.table.values())
        nums = map(attrgetter("numerator"), weights)
        dens = list(map(attrgetter("denominator"), weights))
        d = lcm(*set(dens))
        if d > 1:
            nums = map(mul, nums, map(floordiv, repeat(d), dens))
        if self.kind == "unique":  # its weights are positive
            return d, dict(zip(pairs, nums))
        nums = list(nums)
        return d, dict(compress(zip(pairs, nums), map(gt, nums, repeat(0))))

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


def reduce_to_unique(request: Request) -> Request:
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


def degree_choosable_coloring(g: Graph, L: dict) -> Optional[dict]:
    """Proper on-list coloring of a connected graph with |L(v)| >= deg(v),
    constructed as the degree-choosability proof builds it
    (graph.choosable_coloring); None exactly when the graph is a bad
    component: every list tight and every block a clique or an odd cycle.
    """
    return choosable_coloring(g, [sorted(L[v]) for v in range(g.n)])


def precolor_and_extend(g: Graph, L: dict, fixed: dict) -> list:
    """Color the fixed vertices as given and extend to each component of
    g minus them.

    Fixed vertices must be independent with on-list colors.  Their
    colors are deleted from neighbors' lists, which must keep at least
    their degree in g minus the fixed vertices.  Returns one
    (vertices, subgraph, pruned lists, coloring) per component, ordered
    by smallest vertex: its sorted vertices, the subgraph they induce
    (vertex i standing for the i-th of them), and the pruned lists and
    degree_choosable_coloring keyed by vertex, the coloring None when
    the component is bad.  g and L must pass InstanceFile(g, L).validate().
    """
    for v, c in fixed.items():
        if not (0 <= v < g.n):
            raise PreconditionError(f"fixed vertex {v} out of range")
        if c not in L[v]:
            raise PreconditionError(
                f"fixed color {c} at vertex {v} is not in its list"
            )
    for v in sorted(fixed):
        for u in g.neighbors(v):
            if u > v and u in fixed:
                raise PreconditionError(f"fixed vertices {v} and {u} are adjacent")
    out = []
    for ids, sub in g.components_without(fixed):
        lists = {}
        for i, v in enumerate(ids):
            lists[v] = set(L[v]) - {fixed[u] for u in g.neighbors(v) if u in fixed}
            if len(lists[v]) < sub.degree(i):
                raise PreconditionError(
                    f"vertex {v} keeps {len(lists[v])} colors after fixing its "
                    f"neighbors, below its degree {sub.degree(i)} among the rest"
                )
        coloring = degree_choosable_coloring(sub, [lists[v] for v in ids])
        if coloring is not None:
            coloring = {ids[i]: c for i, c in coloring.items()}
        out.append((ids, sub, lists, coloring))
    return out
