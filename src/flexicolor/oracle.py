"""Exact ground truth for desk-scale instances.

Computes the exact optimum over all proper list colorings with a
dynamic program over the colors of the frontier, so every solver's
satisfied amount and certified bound can be checked against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .errors import BudgetExceededError
from .graph import Graph

if TYPE_CHECKING:
    from .listcolor import Request

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class OracleResult:
    optimum: Union[int, Fraction]
    coloring: Optional[dict]  # None iff no proper list coloring exists
    enumerated: int  # number of proper list colorings

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


def _steps(g: Graph, L: dict, gain: dict, order: list) -> tuple:
    """The transition of each vertex of `order`, and the slot mask.

    The frontier before step i holds the vertices colored at steps < i
    that have a neighbor colored at a step >= i.  A state is an int that
    keeps the palette index of each frontier vertex's color in that
    vertex's slot of `width` bits; a vertex takes the lowest free slot
    when it is colored, and its slot is cleared and freed at the step
    after which it has no uncolored neighbor.  A step is (shift, keep,
    slots, options): the shift of the vertex's slot, the mask that clears
    the slots freed at this step, the shifts of its colored neighbors'
    slots, and its (palette index, color, gain) options, colors ascending.
    """
    palette = sorted(set().union(*L.values()))
    index = {c: d for d, c in enumerate(palette)}
    width = max(1, (len(palette) - 1).bit_length())
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
            keep &= ~(((1 << width) - 1) << slot.pop(u) * width)
        options = tuple((index[c], c, gain.get((v, c), 0)) for c in sorted(L[v]))
        steps.append((shift, keep, slots, options))
    return steps, (1 << width) - 1


def _children(step: tuple, mask: int, s: int) -> list:
    """(color, gain, next state) for each option state `s` leaves free."""
    shift, keep, slots, options = step
    used = {(s >> k) & mask for k in slots}
    return [(c, gn, (s | d << shift) & keep) for d, c, gn in options if d not in used]


def _sweep(g: Graph, L: dict, gain: dict) -> tuple:
    """(count, best, coloring) over the proper list colorings of g.

    Colors vertices smallest list first, ties by vertex id.  A forward
    pass collects the reachable frontier states of each step.  A backward
    pass gives each of them its number of proper completions, kept for
    one step, and the largest total gain among them (None when there is
    no completion), kept for the coloring.  The coloring is the
    lexicographically first optimal one along that order, colors
    ascending; with no proper coloring the result is (0, 0, None).
    """
    order = sorted(range(g.n), key=lambda v: (len(L[v]), v))
    steps, mask = _steps(g, L, gain, order)
    levels: list = [{0}]
    for step in steps:
        levels.append({t for s in levels[-1] for _, _, t in _children(step, mask, s)})
    best_at: list = [None] * g.n + [{0: 0}]
    counts = {0: 1}
    for i in reversed(range(g.n)):
        nxt, level_counts, table = best_at[i + 1], {}, {}
        for s in levels[i]:
            count, best = 0, None
            for _, gn, t in _children(steps[i], mask, s):
                if counts[t]:
                    count += counts[t]
                    val = nxt[t] + gn
                    if best is None or val > best:
                        best = val
            level_counts[s], table[s] = count, best
        best_at[i], counts, levels[i] = table, level_counts, None
    if not counts[0]:
        return 0, 0, None
    coloring, s, target = {}, 0, best_at[0][0]
    for i, v in enumerate(order):
        for c, gn, t in _children(steps[i], mask, s):
            val = best_at[i + 1][t]
            if val is not None and val + gn == target:
                coloring[v], s, target = c, t, val
                break
    return counts[0], best_at[0][0], coloring


def optimal_satisfaction(
    g: Graph, L: dict, request: Request, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Exact maximum satisfied amount over all proper list colorings.

    A frontier dynamic program (`_sweep`) in smallest-list-first order;
    the budget still bounds the product of the list sizes.  Weights are
    exact rationals, scaled to integers by the common denominator for
    the sweep.  `enumerated` is the number of proper list colorings, and
    the coloring is the lexicographically first optimal one along the
    order, colors ascending (the first optimum a depth-first sweep of
    that order meets).  The optimum is an int for unweighted requests
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
    scale = math.lcm(*(Fraction(w).denominator for w in weights.values()))
    gain = {vc: int(w * scale) for vc, w in weights.items()}
    count, best, coloring = _sweep(g, L, gain)
    optimum = best if request.kind == "unweighted" else Fraction(best, scale)
    return OracleResult(optimum, coloring, count)
