"""Coloring families on trees, 2-trees and k-trees with class-split lists.

The central object is an ordered family of proper list colorings with an
exact per-vertex multiplicity contract: each color of each list appears
the same number of times at its vertex across the family.  Picking the
best member then satisfies a 1/(k+1) fraction of any weighted request
by averaging.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod
from operator import itemgetter
from typing import Iterable, Optional

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)
from .graph import Graph, KTreeOrder, validate_ktree_order
from .listcolor import Request


@dataclass(frozen=True)
class ColoringFamily:
    """Ordered colorings, each a tuple indexed by vertex: members[j][v]
    is vertex v's color in member j.  Each (vertex, list color) pair
    appears in exactly |members|/period members."""

    members: tuple
    period: int


def best_of_family(
    g: Graph, L: dict, family: ColoringFamily, request: Request
) -> dict:
    """Family member with the largest satisfied amount (first on ties),
    as a dict vertex -> color.

    Averaging over the family guarantees the winner satisfies at least
    total/period of the request weight.  g and L are not read: members
    are scored on the request's gain table without being checked, and
    the caller checks the winner.
    """
    if not family.members:
        raise PreconditionError("empty coloring family")
    gain = request.gain
    value, member = _first_best(family.members, gain)
    _check_averaging(value, family.period, sum(gain.values()))
    return dict(enumerate(member))


def _first_best(members, gain: dict) -> tuple:
    """(value, member) of the first member with the largest value, the
    sum of gain[v, c] over the pairs with member[v] == c.  Only gain's
    pairs are read: O(|gain|) per member, whatever the vertex count."""
    scored = (
        (sum(w for (v, c), w in gain.items() if phi[v] == c), phi)
        for phi in members
    )
    return max(scored, key=itemgetter(0))


def _check_averaging(value: int, period: int, total: int) -> None:
    """By averaging, the best member of a family in which every pair
    appears in 1/period of the members satisfies total/period; value
    and total are sums of the request's gain table."""
    if value * period < total:
        raise InternalInvariantError(
            f"best member satisfies {value}, below total/{period} of {total}"
        )


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
    phi1, phi2 = [None] * g.n, [None] * g.n
    root = 0
    phi1[root], phi2[root] = sorted(L[root])
    stack = [root]
    while stack:
        p = stack.pop()
        for v in g.neighbors(p):
            if phi1[v] is not None:
                continue
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
    return ColoringFamily((tuple(phi1), tuple(phi2)), 2)


# ---------------------------------------------------------------------------
# 2-trees: six colorings, each list color twice per vertex

# the 15 pairs of positions i < j among six
_PAIRS = tuple(combinations(range(6), 2))


def _equal_pairs(values: tuple) -> int:
    """Bit k set where the k-th pair of positions holds equal values."""
    return sum(
        1 << k for k, (i, j) in enumerate(_PAIRS) if values[i] == values[j]
    )


# every arrangement of three ranks, each twice, over six positions, in
# lexicographic order: its equal pairs, its mask with bit 3*i + r set
# where position i takes rank r, a getter for its colors from the sorted
# list, and the bits 3*i of the positions that take each rank
_ARRANGEMENTS = tuple(
    (
        _equal_pairs(ranks),
        sum(1 << 3 * i + r for i, r in enumerate(ranks)),
        itemgetter(*ranks),
        tuple(sum(1 << 3 * i for i, x in enumerate(ranks) if x == r)
              for r in range(3)),
    )
    for ranks in sorted(set(permutations((0, 0, 1, 1, 2, 2))))
)


@lru_cache(maxsize=None)
def _arrangements(clashes: int) -> tuple:
    """The arrangements that give different ranks to both positions of
    every pair in clashes; at most 2**15 keys, and 60 on admissible
    colorings, whose clashes are the six edges of a 6-cycle."""
    return tuple(a for a in _ARRANGEMENTS if not a[0] & clashes)


def _state(values: tuple) -> tuple:
    """A vertex's six colors, one per member, with their equal pairs and
    their color masks: bit 3*i set for each position i holding the
    color, by color."""
    masks: dict = {}
    for i, c in enumerate(values):
        masks[c] = masks.get(c, 0) | 1 << 3 * i
    return values, _equal_pairs(values), masks


def _extend(su: tuple, sv: tuple, Lw) -> Optional[tuple]:
    """The state of a new vertex with three colors next to vertices in
    states su and sv.

    Its colors are the lexicographically smallest arrangement of Lw's
    colors, each twice, that avoids u's and v's colors at every position
    and gives different colors to every two positions that hold the same
    color at u, or at v, so that both new edges stay admissible; None if
    there is none.
    """
    colors = sorted(Lw)
    c0, c1, c2 = colors
    _, eu, mu = su
    _, ev, mv = sv
    forbidden = (
        mu.get(c0, 0) | mv.get(c0, 0)
        | (mu.get(c1, 0) | mv.get(c1, 0)) << 1
        | (mu.get(c2, 0) | mv.get(c2, 0)) << 2
    )
    for equal, mask, get, rank_masks in _arrangements(eu | ev):
        if not mask & forbidden:
            return get(colors), equal, dict(zip(colors, rank_masks))
    return None


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
    pos = order.position()
    states = [None] * g.n
    # the first vertex takes its colors in ascending order, each twice,
    # the smallest arrangement of all; the second extends against two
    # copies of it, which gives the smallest admissible first edge
    first = sorted(L[seq[0]])
    states[seq[0]] = _state(tuple(c for c in first for _ in range(2)))
    for i in range(1, g.n):
        w = seq[i]
        back = [x for x in g.neighbors(w) if pos[x] < i]
        # the extension is symmetric in the two back-neighbors
        u, v = back * 2 if i == 1 else back
        states[w] = _extend(states[u], states[v], L[w])
        if states[w] is None:
            raise InternalInvariantError(
                f"no admissible extension at vertex {w}; the colorings of "
                "its back-neighbors were not admissible"
            )
    return ColoringFamily(tuple(zip(*(s[0] for s in states))), 3)


# ---------------------------------------------------------------------------
# k-trees with class-split lists

# the most blocks times vertices lambda_family walks before it gives up:
# a walk visits family_size(lam) / prod(lam_i!) blocks, each built and
# scored in about n steps per level
FAMILY_CAP = 2 * 10**6


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
    pos = order.position()
    new_seq = sorted(range(sub.n), key=lambda i: pos[ids[i]])
    sub_order = KTreeOrder(k, tuple(new_seq))
    violation = validate_ktree_order(sub, sub_order)
    if violation is not None:
        raise InternalInvariantError(
            f"induced subgraph is not a {k}-tree: {violation.message}"
        )
    return sub, ids, sub_order


def _base_family(g: Graph, order: KTreeOrder, lam1: int, L: dict) -> ColoringFamily:
    if lam1 == 1:
        # independent set with singleton lists: one forced coloring
        if g.m != 0:
            raise PreconditionError("width-0 instance must be edgeless")
        for v in range(g.n):
            if len(L[v]) != 1:
                raise PreconditionError(
                    f"vertex {v} has list size {len(L[v])}, expected 1"
                )
        return ColoringFamily((tuple(next(iter(L[v])) for v in range(g.n)),), 1)
    if lam1 == 2:
        return tree_pair_family(g, L)
    if lam1 == 3:
        return two_tree_family(g, order, L)
    raise PreconditionError(
        f"parts of size {lam1} are unsupported; whether families with the "
        "same guarantees exist for parts above 3 is an open problem"
    )


def lambda_family(
    g: Graph,
    order: KTreeOrder,
    lam: tuple,
    classes: tuple,
    L: dict,
    request: Request,
) -> dict:
    """The first best member, for the request, of the family of list
    colorings on a k-tree whose lists split across disjoint color
    classes, class i giving lam[i] colors of every list.  Every
    (vertex, color) pair appears in exactly 1/(k+1) of the members, so
    by averaging the member satisfies 1/(k+1) of the request's total.

    The family is never built.  A level has one block of members per
    seed subset A, the products of the families on S_A and on V - S_A,
    and the satisfied amount adds up over the two.  So a block's first
    best member pairs the first best of its two families, and the
    family's is the first best block's.  Above FAMILY_CAP blocks walked
    times vertices, BudgetExceededError is raised before any is built.

    g, L, order and request must pass
    InstanceFile(g, L, request, ktree=order).validate().
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
    blocks = size // prod(factorial(p) for p in lam)
    if blocks * g.n > FAMILY_CAP:
        raise BudgetExceededError(
            f"family walk would visit {blocks} blocks of {g.n} vertices "
            f"each, above the cap of {FAMILY_CAP}"
        )
    gain = request.gain
    value, winner, members = _walk(g, order, lam, classes, L, range(g.n), gain)
    if members != size:
        raise InternalInvariantError(
            f"family has {members} members, recurrence says {size}"
        )
    _check_averaging(value, k + 1, sum(gain.values()))
    return winner


def _walk(
    g: Graph, order: KTreeOrder, lam: tuple, classes: tuple, L: dict, ids, gain: dict
) -> tuple:
    """(value, winner, members) of the family on g: the largest total
    gain of a member, the first member reaching it keyed by original
    vertex (ids[v] for vertex v of g), and the number of members."""
    if len(lam) == 1:
        family = _base_family(g, order, lam[0], L).members
        local = {u: v for v, u in enumerate(ids)}
        value, phi = _first_best(family, {
            (local[u], c): w for (u, c), w in gain.items() if u in local
        })
        return value, {ids[v]: c for v, c in enumerate(phi)}, len(family)
    k = sum(lam) - 1
    lam_t = lam[-1]
    Ct = set(classes[-1])
    head = sorted(order.sequence[:k])
    best = None
    members = 0
    for size_a in (k - lam_t + 1, k - lam_t):
        for A in combinations(head, size_a):
            S = build_SA(g, order, A, lam_t)
            comp = set(range(g.n)) - S
            # an empty side has one empty member, or lam_t! of them
            inner, outer = (0, {}, 1), (0, {}, factorial(lam_t))
            if S:
                g1, ids1, order1 = _induced_with_order(g, order, S, k - lam_t)
                L1 = {i: set(L[ids1[i]]) - Ct for i in range(g1.n)}
                inner = _walk(
                    g1, order1, lam[:-1], classes[:-1], L1,
                    [ids[i] for i in ids1], gain,
                )
            if comp:
                g2, ids2, order2 = _induced_with_order(g, order, comp, lam_t - 1)
                L2 = {i: set(L[ids2[i]]) & Ct for i in range(g2.n)}
                outer = _walk(
                    g2, order2, lam[-1:], classes[-1:], L2,
                    [ids[i] for i in ids2], gain,
                )
            value = inner[0] + outer[0]
            if best is None or value > best[0]:
                best = (value, inner[1], outer[1])
            members += inner[2] * outer[2]
    return best[0], {**best[1], **best[2]}, members
