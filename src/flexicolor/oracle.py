"""Exact ground truth for instances of small treewidth.

Computes the exact optimum over all proper list colorings, and their
number, by bucket elimination (Dechter, "Bucket elimination", AI 113,
1999), so every solver's satisfied amount and certified bound can be
checked against it.  The work is bounded by the cells of the
elimination order, which are linear in n on k-trees and on forests of
bounded height.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import BudgetExceededError
from .graph import Graph
from .listcolor import Amount, Request

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class OracleResult:
    optimum: Amount
    coloring: Optional[dict]  # None iff no proper list coloring exists
    enumerated: int  # number of proper list colorings
    cells: int  # cells of the elimination order (see elimination_order)

    @property
    def colorable(self) -> bool:
        return self.coloring is not None


def elimination_order(g: Graph, L: dict, budget: int = DEFAULT_BUDGET) -> tuple:
    """(order, scopes, cells) of eliminating g's vertices by min-degree.

    Repeatedly eliminates the vertex of smallest (degree in the fill
    graph, |L(v)|, v); its scope is its set of fill-graph neighbors,
    which then become a clique.  `cells` is Σ_v |L(v)|·∏_{u ∈ scope(v)}
    |L(u)|; BudgetExceededError is raised as soon as it passes `budget`,
    before that vertex's fill edges are added.
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    heap = [(len(a), len(L[v]), v) for v, a in enumerate(adj)]
    heapq.heapify(heap)
    order, scopes, cells = [], [], 0
    while heap:
        degree, _, v = heapq.heappop(heap)
        scope = adj[v]
        if scope is None or degree != len(scope):
            continue  # eliminated, or a stale degree
        size = len(L[v])
        for u in scope:
            size *= len(L[u])
        cells += size
        if cells > budget:
            raise BudgetExceededError(f"elimination needs more than {budget} cells")
        adj[v] = None
        order.append(v)
        scopes.append(scope)
        for u in scope:
            adj[u] = (adj[u] | scope) - {u, v}
            heapq.heappush(heap, (len(adj[u]), len(L[u]), u))
    return order, scopes, cells


def _getter(positions: list):
    """A function taking a tuple to the tuple of its items at `positions`."""
    if len(positions) == 1:
        return lambda key, i=positions[0]: (key[i],)
    return itemgetter(*positions) if positions else lambda key: ()


def _join(left: tuple, right: tuple, adj: list) -> tuple:
    """The product of two tables (variables, {colors: (count, best gain)}),
    each over colorings proper on its variables: the pairs of rows that
    agree on the shared variables and color no edge between the others
    alike, as (c₁·c₂, b₁ + b₂).  adj[v] is the set of v's neighbors."""
    lvars, lrows = left
    rvars, rrows = right
    at = {u: i for i, u in enumerate(lvars)}
    shared = [i for i, u in enumerate(rvars) if u in at]
    new = [i for i, u in enumerate(rvars) if u not in at]
    checks = [
        (at[u], j)
        for j, i in enumerate(new)
        for u in lvars
        if u in adj[rvars[i]] and u not in rvars
    ]
    rshared, rnew = _getter(shared), _getter(new)
    index: dict = {}
    for key, value in rrows.items():
        index.setdefault(rshared(key), []).append((rnew(key), *value))
    lshared = _getter([at[rvars[i]] for i in shared])
    rows = {
        key + ext: (count * c, best + b)
        for key, (count, best) in lrows.items()
        for ext, c, b in index.get(lshared(key), ())
        if not any(key[i] == ext[j] for i, j in checks)
    }
    return lvars + tuple(rvars[i] for i in new), rows


def _extend(table: tuple, u: int, colors: list, adj: list) -> tuple:
    """`table` with one more variable u, colored from `colors` unlike
    its neighbors among the variables."""
    names, rows = table
    near = _getter([i for i, w in enumerate(names) if w in adj[u]])
    return names + (u,), {
        key + (c,): value
        for key, value in rows.items()
        for used in (near(key),)
        for c in colors
        if c not in used
    }


def _eliminate(g: Graph, L: dict, gain: dict, order: list, scopes: list) -> tuple:
    """(count, best, coloring) over the proper list colorings of g.

    Each vertex v of `order` joins the tables sent to it, the largest
    first (none: its own list), then the lists of the rest of its scope.
    Summing v out keeps, per coloring of the scope, the number of
    colorings, the best gain and the smallest color of v that reaches
    it; the table goes to the first-eliminated vertex of the scope.  The
    readback colors the vertices in reverse order, each with the color
    kept for the colors already fixed on its scope.  With no proper
    coloring the result is (0, 0, None).
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    position = {v: i for i, v in enumerate(order)}
    inbox: dict = {}
    picks = {}
    count, best = 1, 0
    for v, scope in zip(order, scopes):
        tables = sorted(inbox.pop(v, ()), key=lambda t: len(t[1]), reverse=True)
        table = tables.pop(0) if tables else ((v,), {(c,): (1, 0) for c in L[v]})
        for other in tables:
            table = _join(table, other, adj)
        for u in sorted(scope - set(table[0])):
            table = _extend(table, u, sorted(L[u]), adj)
        names, rows = table
        i = names.index(v)
        others = [j for j in range(len(names)) if j != i]
        restof, gv = _getter(others), {c: gain.get((v, c), 0) for c in L[v]}
        summed, pick = {}, {}
        for key, (c, b) in rows.items():
            color, rest = key[i], restof(key)
            b += gv[color]
            old = summed.get(rest)
            if old is None:
                summed[rest], pick[rest] = (c, b), color
            elif b > old[1] or (b == old[1] and color < pick[rest]):
                summed[rest], pick[rest] = (old[0] + c, b), color
            else:
                summed[rest] = (old[0] + c, old[1])
        if not summed:
            return 0, 0, None
        rest = tuple(names[j] for j in others)
        picks[v] = rest, pick
        if rest:
            inbox.setdefault(min(rest, key=position.__getitem__), []).append((rest, summed))
        else:
            count, best = count * summed[()][0], best + summed[()][1]
    coloring = {}
    for v in reversed(order):
        rest, pick = picks[v]
        coloring[v] = pick[tuple(coloring[u] for u in rest)]
    return count, best, coloring


def optimal_satisfaction(
    g: Graph, L: dict, request: Request, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Exact maximum satisfied amount over all proper list colorings.

    Bucket elimination (`_eliminate`) in the order of
    `elimination_order`, whose cells the budget bounds; above it
    BudgetExceededError is raised before any table is built.  The
    tables add the ints of the request's gain table; the optimum is
    their best sum stated as the request's amount (Request.amount).
    `enumerated` is the number of proper list colorings.  In the optimal
    coloring each vertex, in reverse elimination order, takes the
    smallest color that reaches the best value given the colors already
    fixed on its scope.  g, L and request must pass
    InstanceFile(g, L, request).validate().
    """
    order, scopes, cells = elimination_order(g, L, budget)
    count, best, coloring = _eliminate(g, L, request.gain, order, scopes)
    return OracleResult(request.amount(best), coloring, count, cells)
