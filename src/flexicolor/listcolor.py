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

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import inf, lcm
from operator import itemgetter, methodcaller
from typing import Optional, Union

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

KINDS = ("unweighted", "unique", "weighted")

# the most digits int() and str() convert (the interpreter's limit; 0
# means none): a request whose scale or scaled total has more is refused,
# so every amount it states can be written
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_TOO_LONG = 10**MAX_DIGITS if MAX_DIGITS else None

# an amount of a request: an int for an unweighted request, else a Fraction
Amount = Union[int, Fraction]


def _check_digits(x: int, what: str) -> None:
    if _TOO_LONG is not None and abs(x) >= _TOO_LONG:
        raise PreconditionError(
            f"request {what} has more than {MAX_DIGITS} digits"
        )


def _over_one_scale(weights: list) -> Optional[tuple]:
    """(nums, scale) of the weights, scale their least common denominator
    and nums[i] the int weights[i] * scale; None if a weight is missing
    or an infinite or nan float."""
    if set(map(type, weights)) <= {int}:
        return weights, 1
    try:
        ratios = list(map(methodcaller("as_integer_ratio"), weights))
    except (AttributeError, ValueError, OverflowError):
        return None
    scale = 1
    for d in set(map(itemgetter(1), ratios)):
        scale = lcm(scale, d)
        _check_digits(scale, "common denominator")
    return [n * (scale // d) for n, d in ratios], scale


def _gain_table(kind: str, pairs: list, weights: Optional[list]) -> tuple:
    """(gain, scale) of the request of `kind` whose (vertex, color) pairs
    carry `weights` (None: 1 each): gain[pair] is its weight times scale,
    the least common denominator of the weights."""
    if kind not in KINDS:
        raise PreconditionError(f"unknown request kind {kind!r}")
    if weights is None:
        return dict.fromkeys(pairs, 1), 1
    scaled = _over_one_scale(weights)
    if kind == "unique" and (scaled is None or min(scaled[0], default=1) <= 0):
        v = next(v for (v, _), w in zip(pairs, weights) if w is None or not 0 < w < inf)
        raise PreconditionError(
            f"uniquely weighted request needs a positive weight at vertex {v}"
        )
    if scaled is None:
        raise PreconditionError("a request weight is missing or not finite")
    nums, scale = scaled
    _check_digits(sum(nums), "scaled total")
    return dict(zip(pairs, nums)), scale


@dataclass(frozen=True, init=False)
class Request:
    """A color request on a graph: one table gain of (vertex, color) ->
    int over one positive int scale, the pair weighing gain / scale.

    kind "unweighted": prefs maps requested vertex -> preferred color,
    each pair weighing 1.
    kind "unique": prefs plus a positive weight per requested vertex.
    kind "weighted": table maps (vertex, color) -> non-negative weight;
    its zero entries stay in gain.
    Weights are ints, Fractions or floats, and scale is the least common
    denominator of them.  PreconditionError is raised for a unique
    weight that is not positive, and for a scale or a scaled total with
    more than MAX_DIGITS digits.
    """

    kind: str
    gain: dict
    scale: int

    def __init__(self, kind: str, prefs=None, weights=None, table=None):
        if kind == "weighted":
            table = table or {}
            pairs, ws = list(table), list(table.values())
        else:
            prefs = prefs or {}
            pairs = list(prefs.items())
            ws = None if kind == "unweighted" else list(map((weights or {}).get, prefs))
        self._put(kind, *_gain_table(kind, pairs, ws))

    @classmethod
    def from_pairs(cls, kind: str, pairs: list, weights: Optional[list]) -> "Request":
        """The request of `kind` whose (vertex, color) pairs, distinct and,
        unless kind is "weighted", of distinct vertices, carry `weights`
        (None for an unweighted request)."""
        return cls.__new__(cls)._put(kind, *_gain_table(kind, pairs, weights))

    def _put(self, kind: str, gain: dict, scale: int) -> "Request":
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "scale", scale)
        return self

    @property
    def prefs(self) -> dict:
        """A new dict of requested vertex -> color; only the kinds other
        than "weighted" have one pair per vertex."""
        return dict(self.gain.keys())

    def amount(self, units: int) -> Amount:
        """The amount `units` of gain states: units / scale."""
        return units if self.kind == "unweighted" else Fraction(units, self.scale)

    def domain(self) -> set:
        return {v for (v, _), w in self.gain.items() if w > 0}

    def total(self) -> Amount:
        return self.amount(sum(self.gain.values()))

    def validate(self, g: Graph, L: dict) -> None:
        n = g.n
        for (v, c), w in self.gain.items():
            if 0 <= v < n and c in L[v] and w >= 0:
                continue
            if not (0 <= v < n):
                raise PreconditionError(f"request vertex {v} out of range")
            if c not in L[v]:
                raise PreconditionError(
                    f"requested color {c} at vertex {v} is not in its list"
                )
            raise PreconditionError(f"negative weight at vertex {v}, color {c}")


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


def satisfied_count(coloring: dict, request: Request) -> Amount:
    """How much of the request the coloring satisfies, without checking
    the coloring: a pair counts when coloring holds it."""
    hits = map(coloring.items().__contains__, request.gain)
    return request.amount(sum(compress(request.gain.values(), hits)))


def satisfied_amount(
    g: Graph, L: dict, coloring: dict, request: Request
) -> Amount:
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
    best: dict = {}  # vertex -> (weight, -color) of its heaviest pair
    for (v, c), w in request.gain.items():
        if v not in best or (w, -c) > best[v]:
            best[v] = (w, -c)
    gain = {(v, -c): w for v, (w, c) in best.items() if w > 0}
    return Request.__new__(Request)._put("unique", gain, request.scale)


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
