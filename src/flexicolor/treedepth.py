"""Derandomized list coloring of graphs given with a shallow rooted
forest.

The paper's distribution colors the root of each component of g (its
shallowest vertex in the forest) uniformly from its list, deletes that
color downward, trims every untouched list by one entry (never a
requested color), and recurses on the components of g among the
vertices below that root, with one list slot less.  A request
is alive while its color is still in its vertex's list.  An alive
request in a component at level h is met with probability at least
1/h: each ancestor at level j takes its color with probability at most
1/j and the vertex itself with 1/h_v, and the product telescopes.  So

    phi = (weight satisfied so far)
          + sum over open components C of (alive weight in C) / (level of C)

is a pessimistic estimator of the satisfied weight that starts at
total/k (conditional expectations, Raghavan 1988).  The solver takes
each of these components once, as Graph.components finds them among
the vertices below the last root, and gives each root the color that
keeps phi highest; the average over the root's h colors is the current
phi or more, so phi never falls and the coloring satisfies total/k or
more.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import InternalInvariantError, PreconditionError
from .graph import Graph, TreedepthForest
from .listcolor import Request, reduce_to_unique


def _trimmed_lists(n: int, L: dict, prefs: dict, k: int) -> dict:
    """Lists cut to exactly the forest height k: requested color first,
    then smallest colors.  Raises when a list is shorter than k."""
    out = {}
    for v in range(n):
        if len(L[v]) < k:
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])}, "
                f"needs {k} for forest height {k}"
            )
        keep = [prefs[v]] if v in prefs else []
        for c in sorted(L[v]):
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
            drop = max((x for x in lst if x != prefs.get(v)), default=None)
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


def derandomized_coloring(
    g: Graph, forest: TreedepthForest, L: dict, request: Request
) -> dict:
    """Deterministic coloring of g from the lists L that satisfies
    total/k of the request or more, k the height of the forest.  A
    general weighted request is first cut to one heaviest color per
    vertex (reduce_to_unique), which keeps total/(max list size) or
    more; unweighted requests weigh one each.

    g, L, request and forest must pass InstanceFile(g, L, request,
    forest=forest).validate(); a list shorter than k raises
    PreconditionError.  The caller checks the coloring.
    """
    if request.kind == "weighted":
        request = reduce_to_unique(request)
    prefs = request.prefs
    # phi is kept in ints: in units of the request's gain table, and at
    # a root of level h the values of its colors scaled by m = max(h - 1,
    # 1) and phi before it by h
    weights = {v: w for (v, _), w in request.gain.items()}
    k = forest.height()
    lists = _trimmed_lists(g.n, L, prefs, k)
    out = {}
    stack = [(comp, lists, k) for comp in g.components()]
    while stack:
        comp, lists, h = stack.pop()
        root = _component_root(comp, forest)
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
                f"estimator fell from {Fraction(before, h * request.scale)} to "
                f"{Fraction(best, m * request.scale)} at root {root}"
            )
        out[root] = color
        if len(comp) > 1:
            sub_lists = _delete_and_trim(lists, comp, root, color, prefs, h)
            # sub_lists holds the vertices of comp other than root
            for sub in g.components(sub_lists):
                stack.append((sub, sub_lists, h - 1))
    satisfied = sum(weights[v] for v in prefs if out[v] == prefs[v])
    total = sum(weights.values())
    # every request is alive in the trimmed lists, so the estimator
    # starts at total/k: this is its end invariant and the paper's bound
    if satisfied * k < total:
        raise InternalInvariantError(
            f"derandomized weight {Fraction(satisfied, request.scale)} is below the "
            f"estimator's start total/{k}"
        )
    return out
