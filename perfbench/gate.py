"""Correctness gate applied to every benchmark request.

The gate holds the instance the document was written from and
recomputes each answer itself: the coloring is checked and its satisfied
amount recounted, a degeneracy ordering is revalidated and its
first-among-neighbors set recomputed.  It then checks the stated totals,
the bound-met flag, the exit codes and the verify report, and on the
oracle workload the exact optimum.  Any mismatch raises GateError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from flexicolor.degeneracy import DegeneracyOrdering
from flexicolor.errors import PreconditionError
from flexicolor.listcolor import check_coloring, satisfied_amount


class GateError(Exception):
    """A request whose output is wrong or whose exit status is a failure."""


@dataclass(frozen=True)
class Checked:
    satisfied: Fraction
    total: Fraction
    bound_met: bool


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fields(text: str, header: str) -> tuple:
    """Scalar fields and color lines of a result or oracle document."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise GateError(f"document does not start with {header!r}")
    scalars, coloring = {}, {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "color":
            v, c = rest.split(" ")
            coloring[int(v)] = int(c)
        else:
            scalars[key] = rest
    return scalars, coloring


def _recount(inst, doc: dict, coloring: dict) -> Fraction:
    g, request = inst.g, inst.request
    if doc.get("method") != "degeneracy":
        check_coloring(g, inst.L, coloring)
        return Fraction(satisfied_amount(g, inst.L, coloring, request))
    order = tuple(int(v) for v in doc["order"].split(" "))
    stated_first = frozenset(int(v) for v in doc.get("first", "").split(" ") if v)
    DegeneracyOrdering(order, int(doc["degeneracy"]), stated_first).validate(g)
    pos = {v: i for i, v in enumerate(order)}
    first = {v for v in range(g.n) if all(pos[u] > pos[v] for u in g.neighbors(v))}
    if stated_first - first:
        raise GateError("result marks vertices first among neighbors that are not")
    return Fraction(len(first & request.domain()))


def check(job, codes: tuple, verify_out: str, result_text: str,
          oracle_text: str = "") -> Checked:
    """Check one completed request; `codes` are the solve, verify and
    (on oracle jobs) oracle exit statuses."""
    solve_code, verify_code = codes[0], codes[1]
    if solve_code not in (0, 1) or verify_code not in (0, 1):
        raise GateError(f"exit statuses {codes}")
    doc, coloring = _fields(result_text, "flexicolor-result 1")
    method = job.solve_args[job.solve_args.index("--method") + 1]
    if doc.get("method") != method:
        raise GateError(f"result names method {doc.get('method')!r}, asked {method!r}")
    try:
        satisfied = _recount(job.inst, doc, coloring)
    except PreconditionError as exc:
        raise GateError(f"result does not check: {exc}") from None
    request = job.inst.request
    total = Fraction(len(request.domain()) if method == "degeneracy" else request.total())
    certified = Fraction(doc["certified"])
    if Fraction(doc["satisfied"]) != satisfied or Fraction(doc["total"]) != total:
        raise GateError(
            f"result states satisfied {doc['satisfied']} of {doc['total']}, "
            f"recomputed {satisfied} of {total}"
        )
    met = satisfied >= certified * total
    flag = "yes" if met else "no"
    if doc.get("bound-met") != flag or solve_code != (0 if met else 1):
        raise GateError(f"bound-met stated {doc.get('bound-met')!r}, exit {solve_code}; recomputed {flag}")
    expected = f"verified satisfied={_fmt(satisfied)} bound-met={flag}"
    if verify_code != solve_code or verify_out.strip() != expected:
        raise GateError(f"verify said {verify_out.strip()!r} with exit {verify_code}")
    if job.oracle:
        _check_oracle(job.inst, codes[2], oracle_text, satisfied, certified * total)
    return Checked(satisfied, total, met)


def _check_oracle(inst, code, text: str, satisfied: Fraction, bound: Fraction) -> None:
    if code != 0:
        raise GateError(f"oracle exit status {code}")
    doc, coloring = _fields(text, "flexicolor-oracle 1")
    optimum = Fraction(doc["optimum"])
    try:
        achieved = satisfied_amount(inst.g, inst.L, coloring, inst.request)
    except PreconditionError as exc:
        raise GateError(f"oracle coloring does not check: {exc}") from None
    if achieved != optimum:
        raise GateError(f"oracle coloring satisfies {achieved}, optimum stated {optimum}")
    if not optimum >= satisfied >= bound:
        raise GateError(f"need optimum {optimum} >= satisfied {satisfied} >= bound {bound}")
    if int(doc["enumerated"]) < 1:
        raise GateError("oracle enumerated no coloring")
