"""Derandomized list coloring of graphs given with a shallow rooted
forest.

The paper's distribution colors the root of each component (its
shallowest vertex) uniformly from its list, deletes that color
downward, trims every untouched list by one entry (never a requested
color), and recurses per component with one list slot less.  A request
is alive while its color is still in its vertex's list.  An alive
request in a component at level h is met with probability at least
1/h: each ancestor at level j takes its color with probability at most
1/j and the vertex itself with 1/h_v, and the product telescopes.  So

    phi = (weight satisfied so far)
          + sum over open components C of (alive weight in C) / (level of C)

is a pessimistic estimator of the satisfied weight that starts at
total/k (conditional expectations, Raghavan 1988).  The solver walks
the components once and gives each root the color that keeps phi
highest; the average over the root's h colors is the current phi or
more, so phi never falls and the coloring satisfies total/k or more.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError, PreconditionError
from .graph import Graph, TreedepthForest
from .listcolor import Request, reduce_to_unique, scaled_to_integers


@dataclass(frozen=True)
class TdInstance:
    g: Graph
    forest: TreedepthForest
    L: dict

    @property
    def k(self) -> int:
        return self.forest.height()

    def validate(self) -> None:
        """Check each list against the forest height.  The graph, forest
        and lists must pass InstanceFile(g, L, forest=forest).validate()."""
        k = self.k
        for v in range(self.g.n):
            if len(self.L[v]) < k:
                raise PreconditionError(
                    f"vertex {v} has list size {len(self.L[v])}, "
                    f"needs {k} for forest height {k}"
                )


def _trimmed_lists(inst: TdInstance, prefs: dict) -> dict:
    """Lists cut to exactly the forest height: requested color first,
    then smallest colors."""
    k = inst.k
    out = {}
    for v in range(inst.g.n):
        keep = []
        if v in prefs:
            keep.append(prefs[v])
        for c in sorted(inst.L[v]):
            if len(keep) == k:
                break
            if c not in keep:
                keep.append(c)
        out[v] = sorted(keep)
    return out


def _component_root(comp: list, forest: TreedepthForest) -> int:
    root = min(comp, key=lambda v: (forest.depth(v), v))
    for v in comp:
        if v != root and not forest.is_ancestor(root, v):
            raise InternalInvariantError(
                f"component root {root} is not an ancestor of vertex {v}"
            )
    return root


def _delete_and_trim(
    lists: dict, comp: list, root: int, c: int, prefs: dict, h: int
) -> dict:
    """One recursion step of list maintenance after coloring the root."""
    out = {}
    for v in comp:
        if v == root:
            continue
        lst = [x for x in lists[v] if x != c]
        if len(lst) == h:
            # root color missed this list; drop the largest entry that
            # is not the requested color here
            drop = None
            for x in sorted(lst, reverse=True):
                if x != prefs.get(v):
                    drop = x
                    break
            if drop is None:
                raise InternalInvariantError(
                    f"cannot trim list at vertex {v} without touching "
                    "its requested color"
                )
            lst = [x for x in lst if x != drop]
        if len(lst) != h - 1:
            raise PreconditionError(
                f"vertex {v} has {len(lst)} usable colors at a level "
                f"needing {h - 1}"
            )
        out[v] = lst
    return out


class _Recursion:
    def __init__(self, inst: TdInstance, prefs: dict):
        inst.validate()
        self.g = inst.g
        self.adj = {v: inst.g.neighbors(v) for v in range(inst.g.n)}
        self.prefs = prefs
        self.forest = inst.forest
        self.lists0 = _trimmed_lists(inst, prefs)
        self.k = inst.k

    def components(self, vertices: list, without: Optional[int] = None) -> list:
        vs = set(vertices)
        if without is not None:
            vs.discard(without)
        seen = set()
        comps = []
        for s in sorted(vs):
            if s in seen:
                continue
            comp = []
            stack = [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.adj[v]:
                    if u in vs and u not in seen:
                        seen.add(u)
                        stack.append(u)
            comps.append(sorted(comp))
        return comps


def derandomized_coloring(inst: TdInstance, request: Request) -> dict:
    """Deterministic coloring that satisfies total/height of the request
    or more.  A general weighted request is first cut to one heaviest
    color per vertex (reduce_to_unique), which keeps total/(max list
    size) or more; unweighted requests weigh one each.

    inst and request must pass InstanceFile(inst.g, inst.L, request,
    forest=inst.forest).validate(); the caller checks the coloring.
    """
    if request.kind == "weighted":
        request = reduce_to_unique(request, inst.L)
    prefs = dict(request.prefs)
    # phi is kept in ints: the weights are scaled by their common
    # denominator, and at a root of level h the values of its colors by
    # m = max(h - 1, 1) and phi before it by h
    scale, weights = scaled_to_integers({v: request.weights.get(v, 1) for v in prefs})
    rec = _Recursion(inst, prefs)
    out = {}
    stack = [
        (comp, rec.lists0, rec.k)
        for comp in rec.components(list(range(inst.g.n)))
    ]
    while stack:
        comp, lists, h = stack.pop()
        root = _component_root(comp, rec.forest)
        choices = sorted(lists[root])
        if len(choices) != h:
            raise PreconditionError(
                f"vertex {root} has list size {len(choices)} at a level "
                f"needing {h}"
            )
        alive = defaultdict(int)  # alive weight below root, by color
        for v in comp:
            if v != root and v in prefs and prefs[v] in lists[v]:
                alive[prefs[v]] += weights[v]
        below = sum(alive.values())
        own = prefs.get(root)
        before = below + (weights[root] if own in choices else 0)
        m = max(h - 1, 1)
        best = None
        for c in choices:  # ascending, so ties keep the smallest color
            value = weights[root] * m if c == own else 0
            if h > 1:
                value += below - alive[c]
            if best is None or value > best:
                best, color = value, c
        if best * h < before * m:
            raise InternalInvariantError(
                f"estimator fell from {Fraction(before, h * scale)} to "
                f"{Fraction(best, m * scale)} at root {root}"
            )
        out[root] = color
        if len(comp) > 1:
            sub_lists = _delete_and_trim(lists, comp, root, color, prefs, h)
            for sub in rec.components(comp, without=root):
                stack.append((sub, sub_lists, h - 1))
    satisfied = sum(weights[v] for v in prefs if out[v] == prefs[v])
    total = sum(weights.values())
    # every request is alive in the trimmed lists, so the estimator
    # starts at total/k: this is its end invariant and the paper's bound
    if satisfied * rec.k < total:
        raise InternalInvariantError(
            f"derandomized weight {Fraction(satisfied, scale)} is below the "
            f"estimator's start total/{rec.k}"
        )
    return out
