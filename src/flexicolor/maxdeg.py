"""Flexibility solvers for bounded-degree graphs.

Two pipelines over the same skeleton: pick an independent subset of the
requested vertices, precolor it and extend to the rest by the
degree-choosable construction, and while a component has no such
extension (a bad component) un-fix a request next to it.  One pass over
the components both classifies and colors them, and the last pass gives
the coloring.  The unweighted solver certifies a 1/(6 maxdeg) fraction,
the weighted one 1/(2 maxdeg^4) via distance-3 independence and a
unique-weight reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError, PreconditionError
from .graph import Graph, block_cut_tree, proper_coloring
from .listcolor import (
    Amount,
    Request,
    degree_choosable_coloring,
    precolor_and_extend,
    reduce_to_unique,
    satisfied_amount,
)


@dataclass(frozen=True)
class ComponentReport:
    """One component of g minus the precolored set, with pruned lists and
    their degree-choosable coloring, None when the component is bad."""

    vertices: tuple
    pruned_lists: dict
    coloring: Optional[dict]
    block_tags: tuple  # ((block vertex tuple, tag), ...) if bad, else ()
    terminal_blocks: tuple  # vertex tuples of terminal blocks if bad, else ()

    @property
    def bad(self) -> bool:
        return self.coloring is None


@dataclass
class SolverOutcome:
    coloring: dict
    satisfied: Amount
    certified_fraction: Fraction
    request_total: Amount
    trace: dict = field(default_factory=dict)


def _check_class_L(g: Graph, L: dict, delta: int) -> None:
    for v in range(g.n):
        d = g.degree(v)
        need = d + 1 if d < delta else d
        if len(L[v]) < need:
            raise PreconditionError(
                f"vertex {v} has list size {len(L[v])}, needs {need} "
                f"(degree {d}, maxdeg {delta})"
            )


def _check_solver_preconditions(g: Graph, L: dict) -> int:
    g.require_connected()
    delta = g.max_degree()
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    if g.is_complete():
        raise PreconditionError(
            f"input is the complete graph on {g.n} vertices; excluded"
        )
    _check_class_L(g, L, delta)
    return delta


def classify_components(g: Graph, L: dict, S: set, prefs: dict) -> list:
    """Components of g minus S, with S precolored by prefs, each colored
    by precolor_and_extend.

    A component is bad when the degree-choosable construction has no
    coloring of it: every pruned list is tight to the degree inside the
    component and every block is a clique or an odd cycle.  Only bad
    components get their blocks.
    """
    for r in S:
        if r not in prefs:
            raise PreconditionError(f"precolored vertex {r} has no requested color")
    reports = []
    for ids, sub, lists, coloring in precolor_and_extend(
        g, L, {r: prefs[r] for r in S}
    ):
        orig = tuple(ids)
        block_tags = terminal = ()
        if coloring is None:
            blocks = block_cut_tree(sub).blocks
            block_tags = tuple(
                (tuple(orig[i] for i in b.vertices), b.tag) for b in blocks
            )
            terminal = tuple(
                tuple(orig[i] for i in b.vertices) for b in blocks if b.terminal
            )
        reports.append(ComponentReport(orig, lists, coloring, block_tags, terminal))
    return reports


def _pruned_list(g: Graph, L: dict, S: set, prefs: dict, v: int, freed: int) -> set:
    """L(v) minus the requested colors of v's neighbors in S other than
    `freed`."""
    return set(L[v]) - {prefs[r] for r in g.neighbors(v) if r in S and r != freed}


def _check_terminal_counting(
    g: Graph, reports: list, S: set, delta: int
) -> None:
    """Edge-count facts that hold for every bad component, so any
    failure is a bug or a violated precondition."""
    for rep in reports:
        if not rep.bad:
            continue
        comp = set(rep.vertices)
        out_edges = sum(
            1 for v in comp for u in g.neighbors(v) if u in S
        )
        k = len(rep.vertices)
        # a component is complete exactly when it is one clique block
        is_kdelta = (
            k == delta
            and len(rep.block_tags) == 1
            and rep.block_tags[0][1] == "clique"
        )
        if is_kdelta or k == 1:
            if out_edges != delta:
                raise InternalInvariantError(
                    f"bad component {rep.vertices} should have exactly "
                    f"{delta} edges to the precolored set, found {out_edges}"
                )
        elif out_edges < 2 * delta - 2:
            raise InternalInvariantError(
                f"bad component {rep.vertices} has only {out_edges} edges "
                f"to the precolored set, expected >= {2 * delta - 2}"
            )


def _local_b_values(
    g: Graph, L: dict, Rpp: set, prefs: dict, reports: list
) -> dict:
    """b(r) for every r in the independent set Rpp, from the reports of
    g - Rpp: the bad components next to r, less one if the component r
    forms with them once it leaves Rpp is bad.  Every other component
    keeps its vertices and pruned lists, so this equals the count found
    by classifying the whole graph with and without r; the construction
    is asked about the merged component only when it can be tight."""
    owner = {}
    slack = []  # per report, its vertices whose pruned list has room
    for i, rep in enumerate(reports):
        room = []
        for v in rep.vertices:
            owner[v] = i
            deg = sum(1 for u in g.neighbors(v) if u not in Rpp)
            if len(rep.pruned_lists[v]) > deg:
                room.append(v)
        slack.append(room)
    bs = {}
    for r in sorted(Rpp):
        nbrs = g.neighbors(r)
        near = {owner[u] for u in nbrs}
        b = sum(1 for i in near if reports[i].bad)
        # merged lists grow only next to r, so a slack vertex elsewhere
        # keeps the merged component from being tight
        if len(L[r]) == len(nbrs) and all(
            len(slack[i]) <= len(nbrs) and all(v in nbrs for v in slack[i])
            for i in near
        ):
            ids, sub = g.component_without(r, Rpp)
            lists = [_pruned_list(g, L, Rpp, prefs, v, r) for v in ids]
            if degree_choosable_coloring(sub, lists) is None:
                b -= 1
        bs[r] = b
    return bs


def certified_fraction(g: Graph, L: dict, request: Request) -> tuple:
    """The fraction of the request's total that solve_unweighted (for an
    unweighted request) or solve_weighted (for a weighted one)
    certifies, and the proper coloring whose color count chi it is
    counted from: 1/(6 chi) for the Brooks coloring of g, 1/(2 chi) for
    the greedy coloring of the cube of g, divided by the longest list
    for a general weighted request.  Nothing requested certifies 0,
    with no coloring (None)."""
    if not request.domain():
        return Fraction(0), None
    if request.kind == "unweighted":
        coloring = proper_coloring(g, 1, "brooks")
        return Fraction(1, 6 * len(set(coloring.values()))), coloring
    coloring = proper_coloring(g, 3, "greedy")
    fraction = Fraction(1, 2 * len(set(coloring.values())))
    if request.kind == "weighted":
        fraction /= max(len(L[v]) for v in range(g.n))
    return fraction, coloring


def best_class(coloring: dict, R: set, weights: Optional[dict] = None) -> set:
    """The color class of the coloring restricted to R with the most
    vertices, or the most weight by the int weights vertex -> weight
    (tie: smallest color)."""
    classes: dict = {}
    for v in R:
        classes.setdefault(coloring[v], set()).add(v)
    if weights is None:
        best = max(classes.items(), key=lambda kv: (len(kv[1]), -kv[0]))
    else:
        best = max(
            classes.items(),
            key=lambda kv: (sum(map(weights.__getitem__, kv[1])), -kv[0]),
        )
    return best[1]


def _finish(
    g: Graph,
    L: dict,
    prefs: dict,
    Rpp: set,
    reports: list,
    request: Request,
    certified_fraction: Fraction,
    trace: dict,
) -> SolverOutcome:
    """The requested colors on Rpp merged with the colorings that
    `reports` gives of the components of g - Rpp, checked against the
    certified bound."""
    coloring = {r: prefs[r] for r in Rpp}
    for rep in reports:
        if rep.bad:
            raise InternalInvariantError(
                f"extension failed on component {rep.vertices} although all "
                "bad components were destroyed"
            )
        coloring.update(rep.coloring)
    sat = satisfied_amount(g, L, coloring, request)
    total = request.total()
    if sat < certified_fraction * total:
        raise InternalInvariantError(
            f"satisfied amount {sat} fell below the certified bound "
            f"{certified_fraction} * {total}"
        )
    return SolverOutcome(coloring, sat, certified_fraction, total, trace)


def solve_unweighted(g: Graph, L: dict, request: Request) -> SolverOutcome:
    """Proper list coloring satisfying at least |R|/(6 chi) requests,
    where chi <= maxdeg is the color count of the Brooks coloring the
    independent set is taken from.

    g, L and request must pass InstanceFile(g, L, request).validate().
    """
    if request.kind != "unweighted":
        raise PreconditionError("solve_unweighted expects an unweighted request")
    delta = _check_solver_preconditions(g, L)
    # the preconditions exclude K_n and maxdeg < 3, so Brooks applies
    certified, brooks = certified_fraction(g, L, request)
    if brooks is None:
        reports = classify_components(g, L, set(), {})
        trace = {"note": "empty request"}
        return _finish(g, L, {}, set(), reports, request, certified, trace)
    prefs = request.prefs
    R_prime = best_class(brooks, set(prefs))
    chi_hat = len(set(brooks.values()))
    trace: dict = {"R_prime": sorted(R_prime), "chi_hat": chi_hat, "moves": []}

    Rpp = set(R_prime)
    R_plus: set = set()
    discharging: Optional[dict] = None
    while True:
        reports = classify_components(g, L, Rpp, prefs)
        _check_terminal_counting(g, reports, Rpp, delta)
        bad = [rep for rep in reports if rep.bad]
        if not bad:
            break
        bs = _local_b_values(g, L, Rpp, prefs, reports)
        big = [r for r, b in bs.items() if b >= 2]
        if big:
            r = min(big)
            trace["moves"].append(("b>=2", r, bs[r]))
        else:
            if discharging is None:
                discharging = _discharging_diagnostics(g, reports, Rpp)
            bad_vs = {v for rep in bad for v in rep.vertices}
            candidates = [
                r
                for r in sorted(Rpp)
                if any(u in bad_vs for u in g.neighbors(r)) and bs[r] >= 1
            ]
            if not candidates:
                raise InternalInvariantError(
                    "bad components remain but no precolored vertex can "
                    "destroy one"
                )
            r = candidates[0]
            trace["moves"].append(("b>=1", r, bs[r]))
        Rpp.discard(r)
        R_plus.add(r)

    trace["R_plus"] = sorted(R_plus)
    trace["R_pp"] = sorted(Rpp)
    if discharging is not None:
        trace["discharging"] = discharging
    return _finish(g, L, prefs, Rpp, reports, request, certified, trace)


def _discharging_diagnostics(g: Graph, reports: list, Rpp: set) -> dict:
    """Auxiliary bipartite graph between survivors and bad components,
    taken at a state where no move destroys two components at once."""
    bad = [rep for rep in reports if rep.bad]
    deg_r = {r: 0 for r in Rpp}
    deg_a = []
    for rep in bad:
        comp = set(rep.vertices)
        nbrs = {r for r in Rpp if any(u in comp for u in g.neighbors(r))}
        deg_a.append(len(nbrs))
        for r in nbrs:
            deg_r[r] += 1
    for r, d in deg_r.items():
        if d > 2:
            raise InternalInvariantError(
                f"vertex {r} touches {d} bad components although no "
                "double-destroying move exists"
            )
    for rep, d in zip(bad, deg_a):
        if d < 2:
            raise InternalInvariantError(
                f"bad component {rep.vertices} has {d} precolored "
                "neighbors, expected >= 2"
            )
    if 4 * len(Rpp) < 5 * len(bad):
        raise InternalInvariantError(
            f"{len(Rpp)} survivors for {len(bad)} bad components "
            "violates the 5/4 counting bound"
        )
    return {
        "deg_r": dict(sorted(deg_r.items())),
        "deg_components": deg_a,
        "survivors": len(Rpp),
        "bad_components": len(bad),
    }


def solve_weighted(g: Graph, L: dict, request: Request) -> SolverOutcome:
    """Weighted solver via distance-3 independence.

    Uniquely weighted input certifies total/(2 chi3) satisfied weight,
    general weighted input total/(2 chi3 maxlist); chi3 is the color
    count of the greedy coloring of the cube of the graph (at most
    maxdeg^3).
    g, L and request must pass InstanceFile(g, L, request).validate().
    """
    delta = _check_solver_preconditions(g, L)
    trace: dict = {}
    if request.kind == "weighted":
        unique = reduce_to_unique(request)
        trace["reduced_from_general"] = True
    elif request.kind == "unique":
        unique = request
    else:
        raise PreconditionError("solve_weighted expects a weighted request")

    certified, cube_coloring = certified_fraction(g, L, request)
    if cube_coloring is None:
        reports = classify_components(g, L, set(), {})
        trace = {"note": "empty request"}
        return _finish(g, L, {}, set(), reports, request, certified, trace)
    prefs = unique.prefs
    weights = {v: w for (v, _), w in unique.gain.items()}
    R_prime = best_class(cube_coloring, set(prefs), weights)
    chi3 = len(set(cube_coloring.values()))
    trace.update(R_prime=sorted(R_prime), chi3=chi3)
    # distance-3 independence: no vertex outside R' sees two R' vertices
    for v in range(g.n):
        if v in R_prime:
            continue
        seen = [u for u in g.neighbors(v) if u in R_prime]
        if len(seen) > 1:
            raise InternalInvariantError(
                f"vertex {v} has two neighbors {seen[:2]} in the "
                "distance-3 independent set"
            )

    reports = classify_components(g, L, R_prime, prefs)
    _check_terminal_counting(g, reports, R_prime, delta)
    R_plus: set = set()
    for rep in reports:
        if not rep.bad:
            continue
        term_vs = {v for blk in rep.terminal_blocks for v in blk}
        candidates = sorted(
            r
            for r in R_prime
            if any(u in term_vs for u in g.neighbors(r))
        )
        if not candidates:
            raise InternalInvariantError(
                f"bad component {rep.vertices} has no precolored vertex "
                "adjacent to a terminal block"
            )
        r = min(candidates, key=lambda x: (weights[x], x))
        R_plus.add(r)

    w_prime = sum(map(weights.__getitem__, R_prime))
    w_plus = sum(map(weights.__getitem__, R_plus))
    if 2 * w_plus > w_prime:
        raise InternalInvariantError(
            "removed weight exceeds half the independent set's weight"
        )
    Rpp = R_prime - R_plus
    after = classify_components(g, L, Rpp, prefs)
    if any(rep.bad for rep in after):
        raise InternalInvariantError(
            "bad components survived the terminal-block removal"
        )
    trace["R_plus"] = sorted(R_plus)
    trace["R_pp"] = sorted(Rpp)
    return _finish(g, L, prefs, Rpp, after, request, certified, trace)
