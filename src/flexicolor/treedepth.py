"""Recursive coloring distribution for graphs given with a shallow
rooted forest, exact request probabilities under that distribution, and
a derandomized solver.

The distribution colors the deepest available root uniformly, deletes
its color downward, trims every untouched list by one entry (never a
requested color), and recurses per component with one list slot less.
One exact-expectation pass over that recursion gives both the
derandomized coloring and the request probabilities: it values every
root color by the exact conditional expectation of a gain and keeps
the coloring of the best one.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError, PreconditionError
from .graph import Graph, TreedepthForest
from .listcolor import Request, check_coloring


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


def _unique_prefs(request: Optional[Request]) -> dict:
    if request is None:
        return {}
    if request.kind == "weighted":
        raise PreconditionError(
            "general weighted requests must go through reduce_to_unique first"
        )
    return dict(request.prefs)


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


def _component_root(comp: list, depth: dict, ancestors: dict) -> int:
    root = min(comp, key=lambda v: (depth[v], v))
    for v in comp:
        if v != root and root not in ancestors[v]:
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
        self.depth = {v: inst.forest.depth(v) for v in range(inst.g.n)}
        self.anc = {v: inst.forest.ancestors(v) for v in range(inst.g.n)}
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

    def sample(self, comp: list, lists: dict, h: int, rng: random.Random) -> dict:
        root = _component_root(comp, self.depth, self.anc)
        if len(lists[root]) != h:
            raise PreconditionError(
                f"vertex {root} has list size {len(lists[root])} at a "
                f"level needing {h}"
            )
        c = rng.choice(sorted(lists[root]))
        out = {root: c}
        if len(comp) == 1:
            return out
        sub_lists = _delete_and_trim(lists, comp, root, c, self.prefs, h)
        for sub in self.components(comp, without=root):
            out.update(self.sample(sub, sub_lists, h - 1, rng))
        return out

    def expectation(self, comp: list, lists: dict, h: int, gain: dict) -> tuple:
        """Exact expected gain of the distribution on comp, and the
        coloring that takes at each root the color of largest conditional
        expectation, the smallest such color on ties.  gain maps
        (vertex, color) to what coloring vertex with color earns."""
        root = _component_root(comp, self.depth, self.anc)
        choices = sorted(lists[root])
        if len(choices) != h:
            raise PreconditionError(
                f"vertex {root} has list size {len(choices)} at a level "
                f"needing {h}"
            )
        total = Fraction(0)
        best_value = best = None
        for rc in choices:
            value = gain.get((root, rc), 0)
            coloring = {root: rc}
            if len(comp) > 1:
                sub_lists = _delete_and_trim(lists, comp, root, rc, self.prefs, h)
                for sub in self.components(comp, without=root):
                    sub_value, sub_coloring = self.expectation(
                        sub, sub_lists, h - 1, gain
                    )
                    value += sub_value
                    coloring.update(sub_coloring)
            total += value
            if best_value is None or value > best_value:
                best_value, best = value, coloring
        return total / h, best


def sample_coloring(
    inst: TdInstance, seed: int, request: Optional[Request] = None
) -> dict:
    """One coloring drawn from the recursive distribution.  inst and
    request must pass InstanceFile(inst.g, inst.L, request,
    forest=inst.forest).validate()."""
    prefs = _unique_prefs(request)
    rec = _Recursion(inst, prefs)
    rng = random.Random(seed)
    out = {}
    for comp in rec.components(list(range(inst.g.n))):
        out.update(rec.sample(comp, rec.lists0, rec.k, rng))
    check_coloring(inst.g, inst.L, out)
    return out


def exact_request_probability(
    inst: TdInstance, v: int, c: int, request: Optional[Request] = None
) -> Fraction:
    """Probability that the sampler uses color c at vertex v, exactly.
    inst and request must pass InstanceFile(inst.g, inst.L, request,
    forest=inst.forest).validate()."""
    if c not in inst.L[v]:
        raise PreconditionError(f"color {c} is not in the list of vertex {v}")
    prefs = _unique_prefs(request)
    rec = _Recursion(inst, prefs)
    for comp in rec.components(list(range(inst.g.n))):
        if v in comp:
            return rec.expectation(comp, rec.lists0, rec.k, {(v, c): 1})[0]
    raise InternalInvariantError(f"vertex {v} missing from every component")


def derandomized_coloring(inst: TdInstance, request: Request) -> dict:
    """Deterministic coloring with satisfied weight at least the
    distribution's expectation, hence at least total/height.

    Chooses each root color by exact conditional expectation.  inst
    and request must pass InstanceFile(inst.g, inst.L, request,
    forest=inst.forest).validate(); the caller checks the coloring.
    """
    if request.kind != "unique":
        raise PreconditionError(
            "derandomization expects a uniquely weighted request"
        )
    prefs = _unique_prefs(request)
    weights = {v: Fraction(request.weights[v]) for v in prefs}
    gain = {(v, c): weights[v] for v, c in prefs.items()}
    rec = _Recursion(inst, prefs)
    out = {}
    expectation = Fraction(0)
    for comp in rec.components(list(range(inst.g.n))):
        value, coloring = rec.expectation(comp, rec.lists0, rec.k, gain)
        expectation += value
        out.update(coloring)
    satisfied = sum(
        (weights[v] for v in prefs if out[v] == prefs[v]), Fraction(0)
    )
    if satisfied < expectation:
        raise InternalInvariantError(
            f"derandomized weight {satisfied} fell below the "
            f"expectation {expectation}"
        )
    total = sum(weights.values(), Fraction(0))
    if prefs and inst.k and satisfied * inst.k < total:
        raise InternalInvariantError(
            f"derandomized weight {satisfied} is below total/{inst.k}"
        )
    return out
