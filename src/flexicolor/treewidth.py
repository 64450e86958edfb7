"""Coloring families on trees, 2-trees and k-trees with class-split lists.

The central object is an ordered family of proper list colorings with an
exact per-vertex multiplicity contract: each color of each list appears
the same number of times at its vertex across the family.  Picking the
best member then satisfies a 1/(k+1) fraction of any weighted request
by averaging.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Optional

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)
from .graph import Graph, KTreeOrder, validate_ktree_order
from .listcolor import Request, satisfied_count


@dataclass(frozen=True)
class ColoringFamily:
    """Ordered colorings where each (vertex, list color) pair appears in
    exactly |members|/period members."""

    members: tuple
    period: int

    @property
    def multiplicity(self) -> int:
        return len(self.members) // self.period

    def frequencies(self) -> dict:
        counts: dict = {}
        for phi in self.members:
            for v, c in phi.items():
                counts[(v, c)] = counts.get((v, c), 0) + 1
        return counts

    def verify(self, g: Graph, L: dict) -> None:
        """Assert the full contract: proper, on-list, exact multiplicity."""
        if not self.members or len(self.members) % self.period:
            raise InternalInvariantError(
                f"family size {len(self.members)} is not a multiple of "
                f"{self.period}"
            )
        m = self.multiplicity
        counts = self.frequencies()
        for phi in self.members:
            for v in range(g.n):
                if phi.get(v) not in L[v]:
                    raise InternalInvariantError(
                        f"family member colors vertex {v} off-list"
                    )
            for u, v in g.edges:
                if phi[u] == phi[v]:
                    raise InternalInvariantError(
                        f"family member is improper at edge ({u},{v})"
                    )
        for v in range(g.n):
            for c in L[v]:
                if counts.get((v, c), 0) != m:
                    raise InternalInvariantError(
                        f"color {c} appears {counts.get((v, c), 0)} times at "
                        f"vertex {v}, expected {m}"
                    )


def best_of_family(
    g: Graph, L: dict, family: ColoringFamily, request: Request
) -> dict:
    """Family member with the largest satisfied amount (first on ties).

    Averaging over the family guarantees the winner satisfies at least
    total/period of the request weight.  g and L are not read: members
    are scored without being checked, and the caller checks the winner.
    """
    if not family.members:
        raise PreconditionError("empty coloring family")
    best = None
    best_val = None
    for phi in family.members:
        val = satisfied_count(phi, request)
        if best_val is None or val > best_val:
            best, best_val = phi, val
    total = request.total()
    if best_val * family.period < total:
        raise InternalInvariantError(
            f"best member satisfies {best_val}, below total/{family.period} "
            f"of {total}"
        )
    return best


# ---------------------------------------------------------------------------
# Trees: two colorings covering every 2-list


def tree_pair_family(g: Graph, L: dict) -> ColoringFamily:
    """Two proper colorings of a tree that jointly use each 2-list.

    g and L must pass InstanceFile(g, L).validate().
    """
    if not g.is_connected() or g.m != g.n - 1:
        raise PreconditionError("input is not a tree")
    for v in range(g.n):
        if len(L[v]) != 2:
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])}, expected 2"
            )
    phi1: dict = {}
    phi2: dict = {}
    root = 0
    phi1[root], phi2[root] = sorted(L[root])
    stack = [root]
    seen = {root}
    while stack:
        p = stack.pop()
        for v in g.neighbors(p):
            if v in seen:
                continue
            seen.add(v)
            a, b = sorted(L[v])
            # at most one of the two assignments clashes with the parent
            if a != phi1[p] and b != phi2[p]:
                phi1[v], phi2[v] = a, b
            elif b != phi1[p] and a != phi2[p]:
                phi1[v], phi2[v] = b, a
            else:
                raise InternalInvariantError(
                    f"no list-covering assignment at tree vertex {v}"
                )
            stack.append(v)
    return ColoringFamily((phi1, phi2), 2)


# ---------------------------------------------------------------------------
# 2-trees: six colorings, each list color twice per vertex

def is_admissible(phis: list, u: int, v: int, Lu, Lv) -> bool:
    """The four conditions tying six colorings to an edge uv."""
    pairs = set()
    for phi in phis:
        a, b = phi[u], phi[v]
        if a == b:
            return False
        if (a, b) in pairs:
            return False
        pairs.add((a, b))
    for vertex, lst in ((u, Lu), (v, Lv)):
        counts: dict = {}
        for phi in phis:
            c = phi[vertex]
            counts[c] = counts.get(c, 0) + 1
        if any(counts.get(c, 0) != 2 for c in lst) or set(counts) != set(lst):
            return False
    return True


def _extend_values(us: tuple, vs: tuple, Lw) -> Optional[tuple]:
    """Colors for the new vertex against its two neighbors' six colors.

    Backtracks over positions trying the three list colors in ascending
    order, so the result is the lexicographically smallest arrangement
    using each color exactly twice and keeping both new edges admissible.
    """
    colors = sorted(Lw)
    counts = [2, 2, 2]
    out = [None] * 6
    pairs_u: set = set()
    pairs_v: set = set()

    def rec(i: int) -> bool:
        if i == 6:
            return True
        for ci, c in enumerate(colors):
            if counts[ci] == 0 or c == us[i] or c == vs[i]:
                continue
            pu, pv = (us[i], c), (vs[i], c)
            if pu in pairs_u or pv in pairs_v:
                continue
            counts[ci] -= 1
            out[i] = c
            pairs_u.add(pu)
            pairs_v.add(pv)
            if rec(i + 1):
                return True
            counts[ci] += 1
            pairs_u.discard(pu)
            pairs_v.discard(pv)
        return False

    return tuple(out) if rec(0) else None


def extend_phi(phis: list, u: int, v: int, w: int, Lw) -> list:
    """Extend a six-coloring set admissible at uv to a new vertex w
    adjacent to u and v, keeping admissibility at uw and vw.

    A valid arrangement always exists here; not finding one means the
    inputs were invalid or there is a bug, so the failure is loud.
    """
    if len(set(Lw)) != 3:
        raise PreconditionError(f"new vertex needs a 3-list, got {sorted(Lw)}")
    if len(phis) != 6:
        raise PreconditionError(f"expected six colorings, got {len(phis)}")
    us = tuple(phi[u] for phi in phis)
    vs = tuple(phi[v] for phi in phis)
    values = _extend_values(us, vs, Lw)
    if values is None:
        raise InternalInvariantError(
            f"no admissible extension at vertex {w}; the colorings were "
            "not admissible at the base edge"
        )
    for phi, c in zip(phis, values):
        phi[w] = c
    return phis


def _seed_edge(u: int, v: int, Lu, Lv) -> list:
    """Lexicographically smallest admissible six-coloring of one edge.

    u takes its colors in ascending order, each twice, the smallest
    arrangement of all; v then takes the smallest arrangement of its
    list that keeps the edge admissible, which is what extending a new
    vertex against two copies of u's colors finds.
    """
    us = tuple(c for c in sorted(Lu) for _ in range(2))
    vs = _extend_values(us, us, Lv)
    if vs is None:
        raise InternalInvariantError(
            f"no admissible seed for lists {sorted(Lu)} and {sorted(Lv)}"
        )
    return [{u: a, v: b} for a, b in zip(us, vs)]


def two_tree_family(g: Graph, order: KTreeOrder, L: dict) -> ColoringFamily:
    """Six colorings of a 2-tree, each 3-list color twice per vertex,
    admissible at every edge.

    g, L and order must pass InstanceFile(g, L, ktree=order).validate().
    """
    if order.k != 2:
        raise PreconditionError(f"expected a 2-tree order, got width {order.k}")
    for v in range(g.n):
        if len(L[v]) != 3:
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])}, expected 3"
            )
    seq = order.sequence
    phis = _seed_edge(seq[0], seq[1], L[seq[0]], L[seq[1]])
    pos = order.position()
    for i in range(2, g.n):
        w = seq[i]
        u, v = sorted(
            (x for x in g.neighbors(w) if pos[x] < i), key=lambda x: pos[x]
        )
        extend_phi(phis, u, v, w, L[w])
    return ColoringFamily(tuple(dict(p) for p in phis), 3)


def check_admissible_everywhere(g: Graph, L: dict, family: ColoringFamily) -> None:
    phis = list(family.members)
    for u, v in g.edges:
        if not is_admissible(phis, u, v, L[u], L[v]):
            raise InternalInvariantError(f"family not admissible at edge ({u},{v})")


# ---------------------------------------------------------------------------
# k-trees with class-split lists

# the most members lambda_family builds before it gives up
FAMILY_CAP = 10**6


def build_SA(g: Graph, order: KTreeOrder, A: Iterable[int], lam_t: int) -> set:
    """The vertex subset grown from A by the back-neighbor counting rule.

    Scanning v_{k+1}..v_n in order, a vertex joins when exactly
    k - lam_t of its back-neighbors are already in the set.
    """
    k = order.k
    A = set(A)
    head = set(order.sequence[:k])
    if not A <= head:
        raise PreconditionError("seed subset must lie in the first k vertices")
    if len(A) not in (k - lam_t, k - lam_t + 1):
        raise PreconditionError(
            f"seed subset size {len(A)} must be {k - lam_t} or {k - lam_t + 1}"
        )
    S = set(A)
    pos = order.position()
    for i in range(k, g.n):
        v = order.sequence[i]
        back_in = sum(
            1 for u in g.neighbors(v) if pos[u] < i and u in S
        )
        if back_in == k - lam_t:
            S.add(v)
    return S


def family_size(lam: tuple) -> int:
    """Exact family size for a partition, from the level recurrence
    (C(k, lam_t - 1) + C(k, lam_t)) * lam_t! per level."""
    if len(lam) == 1:
        return {1: 1, 2: 2, 3: 6}[lam[0]]
    k = sum(lam) - 1
    lam_t = lam[-1]
    return (
        (comb(k, lam_t - 1) + comb(k, lam_t))
        * factorial(lam_t)
        * family_size(lam[:-1])
    )


def _induced_with_order(
    g: Graph, order: KTreeOrder, vertices: set, k: int
) -> tuple:
    sub, ids = g.induced(vertices)
    pos = {v: i for i, v in enumerate(order.sequence)}
    new_seq = sorted(range(sub.n), key=lambda i: pos[ids[i]])
    sub_order = KTreeOrder(k, tuple(new_seq))
    violation = validate_ktree_order(sub, sub_order)
    if violation is not None:
        raise InternalInvariantError(
            f"induced subgraph is not a {k}-tree: {violation.message}"
        )
    return sub, ids, sub_order


def _lift(phi: dict, ids: list) -> dict:
    return {ids[i]: c for i, c in phi.items()}


def _base_family(g: Graph, order: KTreeOrder, lam1: int, L: dict) -> ColoringFamily:
    if lam1 == 1:
        # independent set with singleton lists: one forced coloring
        if g.m != 0:
            raise PreconditionError("width-0 instance must be edgeless")
        phi = {}
        for v in range(g.n):
            if len(L[v]) != 1:
                raise PreconditionError(
                    f"vertex {v} has list size {len(L[v])}, expected 1"
                )
            phi[v] = next(iter(L[v]))
        return ColoringFamily((phi,), 1)
    if lam1 == 2:
        return tree_pair_family(g, L)
    if lam1 == 3:
        return two_tree_family(g, order, L)
    raise PreconditionError(
        f"parts of size {lam1} are unsupported; whether families with the "
        "same guarantees exist for parts above 3 is an open problem"
    )


def lambda_family(
    g: Graph, order: KTreeOrder, lam: tuple, classes: tuple, L: dict
) -> ColoringFamily:
    """Family of list colorings on a k-tree whose lists split across
    disjoint color classes, with each class contributing a fixed number
    of list entries per vertex.  Every (vertex, color) pair appears in
    exactly 1/(k+1) of the members.

    g, L and order must pass InstanceFile(g, L, ktree=order).validate().
    """
    lam = tuple(lam)
    k = sum(lam) - 1
    if order.k != k:
        raise PreconditionError(
            f"order width {order.k} does not match partition sum {k + 1}"
        )
    if any(p < 1 or p > 3 for p in lam):
        raise PreconditionError(
            "partition parts must be between 1 and 3; larger parts are an "
            "open problem"
        )
    if len(classes) != len(lam):
        raise PreconditionError("one color class per partition part required")
    for i, Ci in enumerate(classes):
        for j in range(i + 1, len(classes)):
            if set(Ci) & set(classes[j]):
                raise PreconditionError(f"color classes {i} and {j} overlap")
    for v in range(g.n):
        for i, Ci in enumerate(classes):
            if len(set(L[v]) & set(Ci)) != lam[i]:
                raise PreconditionError(
                    f"vertex {v} has {len(set(L[v]) & set(Ci))} colors in "
                    f"class {i}, expected {lam[i]}"
                )
        if len(L[v]) != k + 1:
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])}, expected {k + 1}"
            )
    size = family_size(lam)
    if size > FAMILY_CAP:
        raise BudgetExceededError(
            f"family would have {size} members, above the cap {FAMILY_CAP}"
        )
    fam = _lambda_family_rec(g, order, lam, classes, L)
    if len(fam.members) != size:
        raise InternalInvariantError(
            f"family has {len(fam.members)} members, recurrence says {size}"
        )
    return fam


def _lambda_family_rec(
    g: Graph, order: KTreeOrder, lam: tuple, classes: tuple, L: dict
) -> ColoringFamily:
    k = sum(lam) - 1
    if len(lam) == 1:
        return _base_family(g, order, lam[0], L)
    lam_t = lam[-1]
    Ct = set(classes[-1])
    head = list(order.sequence[:k])
    subset_sizes = (k - lam_t + 1, k - lam_t)
    members = []
    per_A_size = None
    for size_a in subset_sizes:
        for A in combinations(sorted(head), size_a):
            S = build_SA(g, order, A, lam_t)
            comp = set(range(g.n)) - S

            if S:
                g1, ids1, order1 = _induced_with_order(g, order, S, k - lam_t)
                L1 = {
                    i: set(L[ids1[i]]) - Ct
                    for i in range(g1.n)
                }
                inner = _lambda_family_rec(
                    g1, order1, lam[:-1], classes[:-1], L1
                )
                inner_members = [_lift(phi, ids1) for phi in inner.members]
            else:
                inner_members = [{}]

            if comp:
                g2, ids2, order2 = _induced_with_order(g, order, comp, lam_t - 1)
                L2 = {i: set(L[ids2[i]]) & Ct for i in range(g2.n)}
                outer = _base_family(g2, order2, lam_t, L2)
                outer_members = [_lift(phi, ids2) for phi in outer.members]
            else:
                outer_members = [{}] * factorial(lam_t)

            block = [
                {**phi1, **phi2}
                for phi1 in inner_members
                for phi2 in outer_members
            ]
            if per_A_size is None:
                per_A_size = len(block)
            elif len(block) != per_A_size:
                raise InternalInvariantError(
                    "subset families have unequal sizes"
                )
            members.extend(block)
    return ColoringFamily(tuple(members), k + 1)
