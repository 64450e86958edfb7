"""Exact ground truth for desk-scale instances.

Computes the exact optimum over all proper list colorings with a
dynamic program over the colors of the frontier, so every solver's
satisfied amount and certified bound can be checked against it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceededError
from .graph import Graph
from .listcolor import Request, scaled_to_integers

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class OracleResult:
    optimum: Union[int, Fraction]
    coloring: Optional[dict]  # None iff no proper list coloring exists
    enumerated: int  # number of proper list colorings
    states: int  # reachable frontier states, summed over the sweep's steps

    @property
    def colorable(self) -> bool:
        return self.coloring is not None


def _check_budget(g: Graph, L: dict, budget: int) -> None:
    prod = 1
    for v in range(g.n):
        prod *= len(L[v])
        if prod > budget:
            raise BudgetExceededError(
                f"list-assignment search space exceeds budget {budget}"
            )


def sweep_order(g: Graph, L: dict) -> list:
    """The order in which the sweep colors the vertices of g.

    Greedily, the uncolored vertex of smallest key (frontier size after
    coloring it, |L(v)|, v), where the frontier is the colored vertices
    that have an uncolored neighbor.  Coloring v adds v to the frontier
    if v has an uncolored neighbor and removes each frontier neighbor
    whose last uncolored neighbor is v; `grow[v]` is that change.  It
    changes only for the uncolored neighbors of the vertex just colored
    and for the last uncolored neighbor of a frontier vertex that is down
    to one, so a heap with lazy deletion gives the order in
    O((n + m) log n).
    """
    adj = [g.neighbors(v) for v in range(g.n)]
    left = [len(a) for a in adj]  # uncolored neighbors
    grow = [min(d, 1) for d in left]
    heap = [(grow[v], len(L[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    done = [False] * g.n
    order = []
    while heap:
        key, _, v = heapq.heappop(heap)
        if done[v] or key != grow[v]:
            continue
        done[v] = True
        order.append(v)
        changed = []
        for u in adj[v]:
            left[u] -= 1
            if not done[u]:
                drop = (left[u] == 0) + (left[v] == 1)
                if drop:
                    grow[u] -= drop
                    changed.append(u)
            elif left[u] == 1:
                w = next(w for w in adj[u] if not done[w])
                grow[w] -= 1
                changed.append(w)
        for u in changed:
            heapq.heappush(heap, (grow[u], len(L[u]), u))
    return order


def _steps(g: Graph, L: dict, gain: dict, order: list) -> tuple:
    """The transition of each vertex of `order`, and the slot mask.

    The frontier before step i holds the vertices colored at steps < i
    that have a neighbor colored at a step >= i.  A state is an int that
    keeps the palette index of each frontier vertex's color in that
    vertex's slot of `width` bits; a vertex takes the lowest free slot
    when it is colored, and its slot is cleared and freed at the step
    after which it has no uncolored neighbor.  A step is (nbr, slots,
    keep, options): the mask of the slots of the vertex's colored
    neighbors, their shifts, the mask that clears the slots freed at
    this step, and the vertex's (palette index, color, gain, index in
    its slot) options, colors ascending.
    """
    palette = sorted(set().union(*L.values()))
    index = {c: d for d, c in enumerate(palette)}
    width = max(1, (len(palette) - 1).bit_length())
    mask = (1 << width) - 1
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    last = [max((pos[u] for u in g.neighbors(v)), default=-1) for v in range(g.n)]
    slot: dict = {}  # frontier vertex -> its slot
    steps = []
    for i, v in enumerate(order):
        slots = tuple(slot[u] * width for u in g.neighbors(v) if u in slot)
        free = set(range(len(slot) + 1)) - set(slot.values())
        slot[v] = min(free)
        shift = slot[v] * width
        keep = -1
        for u in [u for u in slot if last[u] <= i]:
            keep &= ~(mask << slot.pop(u) * width)
        options = tuple(
            (index[c], c, gain.get((v, c), 0), index[c] << shift) for c in sorted(L[v])
        )
        steps.append((sum(mask << k for k in slots), slots, keep, options))
    return steps, mask


def _sweep(g: Graph, L: dict, gain: dict) -> tuple:
    """(count, best, coloring, states) over the proper list colorings of g.

    Colors the vertices in `sweep_order`.  A forward pass collects the
    reachable frontier states of each step and each one's children
    (color, gain, next state); a step computes the options a state
    leaves free once per projection of the state onto the slots of the
    vertex's colored neighbors.  A backward pass keeps, for each state
    with a proper completion, its number of proper completions and the
    largest total gain among them, for one step, and its first child of
    that gain, for the coloring.  The coloring is the
    lexicographically first optimal one along the order, colors
    ascending; with no proper coloring the result is (0, 0, None,
    states).  `states` is the number of reachable states, summed over
    the steps.
    """
    order = sweep_order(g, L)
    steps, mask = _steps(g, L, gain, order)
    levels, reached = [], {0}
    for nbr, slots, keep, options in steps:
        free, level = {}, {}
        for s in reached:
            p = s & nbr
            opts = free.get(p)
            if opts is None:
                used = {(p >> k) & mask for k in slots}
                opts = free[p] = [(c, gn, d) for i, c, gn, d in options if i not in used]
            level[s] = [(c, gn, (s | d) & keep) for c, gn, d in opts]
        levels.append(level)
        reached = {t for kids in level.values() for _, _, t in kids}
    states = sum(map(len, levels))
    live, picks = {0: (1, 0)}, [None] * g.n
    for i in reversed(range(g.n)):
        here, pick = {}, {}
        for s, kids in levels[i].items():
            count, top = 0, None
            for c, gn, t in kids:
                after = live.get(t)
                if after:
                    count += after[0]
                    val = after[1] + gn
                    if top is None or val > top:
                        top, pick[s] = val, (c, t)
            if count:
                here[s] = count, top
        live, picks[i], levels[i] = here, pick, None
    if 0 not in live:
        return 0, 0, None, states
    coloring, s = {}, 0
    for v, pick in zip(order, picks):
        coloring[v], s = pick[s]
    count, best = live[0]
    return count, best, coloring, states


def optimal_satisfaction(
    g: Graph, L: dict, request: Request, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Exact maximum satisfied amount over all proper list colorings.

    A frontier dynamic program (`_sweep`) in the order of `sweep_order`;
    the budget still bounds the product of the list sizes.  Weights are
    exact rationals, scaled to integers by the common denominator for
    the sweep.  `enumerated` is the number of proper list colorings, and
    the coloring is the lexicographically first optimal one along the
    order, colors ascending (the first optimum a depth-first sweep of
    that order meets).  `states` counts the frontier states the sweep
    reached.  The optimum is an int for unweighted requests
    and a Fraction otherwise.  g, L and request must pass
    InstanceFile(g, L, request).validate().
    """
    _check_budget(g, L, budget)
    if request.kind == "unweighted":
        weights = {(v, c): 1 for v, c in request.prefs.items()}
    elif request.kind == "unique":
        weights = {(v, c): request.weights[v] for v, c in request.prefs.items()}
    else:
        weights = {vc: w for vc, w in request.table.items() if w > 0}
    scale, gain = scaled_to_integers(weights)
    count, best, coloring, states = _sweep(g, L, gain)
    optimum = best if request.kind == "unweighted" else Fraction(best, scale)
    return OracleResult(optimum, coloring, count, states)
