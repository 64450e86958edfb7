"""Command-line surface: generate, solve, oracle, verify.

Results are plain line-oriented documents with exact rational bounds;
the exit status of solve and verify is 0 exactly when the certified
bound is met.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from itertools import count
from operator import eq, not_
from typing import Optional

from .degeneracy import (
    DegeneracyOrdering,
    certified_fraction as degeneracy_fraction,
    first_among_neighbors,
    flexible_degeneracy_order,
)
from .errors import (
    BudgetExceededError,
    FlexicolorError,
    FormatError,
    PreconditionError,
)
from .instances import (
    FAMILIES,
    FIXTURES,
    FORMAT_HEADER,
    INT,
    InstanceFile,
    LineRun,
    first_bad,
    format_fraction,
    parse,
    parse_fraction,
    parse_int,
    parse_ints,
    serialize,
)
from .listcolor import satisfied_amount
from .maxdeg import certified_fraction as maxdeg_fraction
from .maxdeg import solve_unweighted, solve_weighted
from .oracle import DEFAULT_BUDGET, optimal_satisfaction
from .treedepth import derandomized_coloring
from .treewidth import best_of_family, lambda_family, two_tree_family

RESULT_HEADER = "flexicolor-result 1"
ORACLE_HEADER = "flexicolor-oracle 1"

METHODS = (
    "maxdeg",
    "maxdeg-weighted",
    "two-tree",
    "lambda",
    "treedepth",
    "degeneracy",
)


def _read_document(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"document is not UTF-8 text: {exc.reason}") from None


def _load_instance(path: str) -> InstanceFile:
    text = _read_document(path)
    if not text.startswith(FORMAT_HEADER):
        # checked before anything is built: a graph-only header such as
        # DIMACS "p edge n m" may declare any number of vertices
        raise PreconditionError(
            "document is no flexicolor instance; graph-only input such as "
            "DIMACS carries no request"
        )
    return parse(text)


def _emit(lines: list, out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the most search nodes (passes over every list) the color-class search
# makes before it gives up: the search backtracks over the palette,
# exponentially in the worst case, while lists that have a partition
# need a few nodes per palette color, whatever their number
CLASS_SEARCH_NODES = 2000


def _infer_classes(L: dict, lam: tuple) -> tuple:
    """Partition of the palette putting exactly lam[i] colors of every
    list into class i, found by backtracking over colors.

    BudgetExceededError is raised at the node that would pass
    CLASS_SEARCH_NODES.
    """
    no_partition = f"lists admit no color-class partition with parts {lam}"
    # each node scans the distinct lists: the parser shares one per spelling
    lists = set(map(frozenset, L.values()))
    # every list takes lam[i] colors from each class i, so sum(lam) in all
    size = sum(lam)
    if any(len(lst) != size for lst in lists):
        raise PreconditionError(no_partition)
    palette = sorted(set().union(*lists))
    t = len(lam)
    assign: dict = {}
    nodes = 0

    def counts_ok(final: bool) -> bool:
        # per-class counts never exceed the part sizes; at the end they
        # must match exactly
        nonlocal nodes
        nodes += 1
        if nodes > CLASS_SEARCH_NODES:
            raise BudgetExceededError(
                f"color-class search passed {CLASS_SEARCH_NODES} nodes"
            )
        for lst in lists:
            done = [0] * t
            for c in lst:
                if c in assign:
                    done[assign[c]] += 1
            for i in range(t):
                if done[i] > lam[i]:
                    return False
                if final and done[i] != lam[i]:
                    return False
        return True

    def rec(i: int) -> bool:
        if i == len(palette):
            return counts_ok(True)
        for cls in range(t):
            assign[palette[i]] = cls
            if counts_ok(False) and rec(i + 1):
                return True
            del assign[palette[i]]
        return False

    if not rec(0):
        raise PreconditionError(no_partition)
    return tuple(
        tuple(c for c in palette if assign[c] == i) for i in range(t)
    )


def _solve(args) -> int:
    inst = _load_instance(args.instance)
    g, L, request = inst.g, inst.L, inst.request
    if request is None:
        raise PreconditionError("instance carries no request to solve for")
    method = args.method
    lines = [RESULT_HEADER, f"method {method}"]

    if method == "degeneracy":
        outcome = flexible_degeneracy_order(g, sorted(request.domain()))
        total = len(request.domain())
        satisfied = outcome.satisfied
        certified = outcome.certified_fraction
        lines += [
            f"satisfied {satisfied}",
            f"certified {format_fraction(certified)}",
            f"total {total}",
            f"degeneracy {outcome.ordering.k}",
            "order " + " ".join(str(v) for v in outcome.ordering.order),
            "first " + " ".join(str(v) for v in sorted(outcome.ordering.first)),
        ]
        met = satisfied >= certified * total
        lines.append(f"bound-met {'yes' if met else 'no'}")
        _emit(lines, args.out)
        return 0 if met else 1

    if method in ("maxdeg", "maxdeg-weighted"):
        solver = solve_unweighted if method == "maxdeg" else solve_weighted
        outcome = solver(g, L, request)
        coloring, satisfied = outcome.coloring, outcome.satisfied
        certified, total = outcome.certified_fraction, outcome.request_total
    else:
        certified = _certified_fraction(method, inst)
        if method == "two-tree":
            # kept on g while the order and the lists stay equal by value;
            # built by this module's name, so tracers that rebind it count
            order = inst.ktree
            lists = tuple(map(frozenset, map(L.__getitem__, range(g.n))))
            family = g.fact(
                "two-tree family", (order, lists), lambda: two_tree_family(g, order, L)
            )
            coloring = best_of_family(g, L, family, request)
        elif method == "lambda":
            if not args.lam:
                raise PreconditionError(
                    "method lambda needs --lam, e.g. --lam 1,2"
                )
            lam = tuple(
                parse_int(p, None, "--lam part") for p in args.lam.split(",")
            )
            if min(lam) < 1:
                raise PreconditionError(
                    f"--lam parts must be positive, got {args.lam}"
                )
            classes = _infer_classes(L, lam)
            coloring = lambda_family(g, inst.ktree, lam, classes, L, request)
        else:  # treedepth
            coloring = derandomized_coloring(g, inst.forest, L, request)
        # the one check of the coloring in solve
        satisfied = satisfied_amount(g, L, coloring, request)
        total = request.total()

    lines += [
        f"satisfied {format_fraction(satisfied)}",
        f"certified {format_fraction(certified)}",
        f"total {format_fraction(total)}",
    ]
    for v in sorted(coloring):
        lines.append(f"color {v} {coloring[v]}")
    met = satisfied >= certified * total
    lines.append(f"bound-met {'yes' if met else 'no'}")
    _emit(lines, args.out)
    return 0 if met else 1


def _oracle(args) -> int:
    inst = _load_instance(args.instance)
    if inst.request is None:
        raise PreconditionError("instance carries no request")
    res = optimal_satisfaction(inst.g, inst.L, inst.request, args.budget)
    lines = [
        ORACLE_HEADER,
        f"optimum {format_fraction(res.optimum)}",
        f"colorable {'yes' if res.colorable else 'no'}",
        f"enumerated {res.enumerated}",
    ]
    if res.coloring is not None:
        for v in sorted(res.coloring):
            lines.append(f"color {v} {res.coloring[v]}")
    _emit(lines, args.out)
    return 0


def _generate(args) -> int:
    name = args.name
    if name in FIXTURES:
        inst = FIXTURES[name]()
    elif name in FAMILIES:
        kwargs = {"seed": args.seed if args.seed is not None else 0, "n": args.n}
        if name == "bounded-degree":
            kwargs["delta"] = args.delta
        elif name == "ktree":
            kwargs["k"] = args.k
        elif name == "treedepth":
            kwargs["height"] = args.height
        inst = FAMILIES[name](**kwargs)
    else:
        known = sorted(list(FIXTURES) + list(FAMILIES))
        raise PreconditionError(f"unknown generator {name!r}; known: {known}")
    _emit(serialize(inst).splitlines(), args.out)
    return 0


# argument count of each result key; None admits any count
_RESULT_ARITY = {
    "method": 1,
    "satisfied": 1,
    "certified": 1,
    "total": 1,
    "color": 2,
    "degeneracy": 1,
    "order": None,
    "first": None,
    "bound-met": 1,
}


_COLOR_LINES = LineRun(f"color ({INT}) ({INT})\n", "color v c", 3)


def _parse_result(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != RESULT_HEADER:
        raise FormatError(f"missing header {RESULT_HEADER!r}", line=1)
    # the same lines, each ended by "\n", so that color runs are read
    # straight from the text
    text = "\n".join(lines + [""])
    del lines
    doc: dict = {"coloring": {}}
    pos, i = len(RESULT_HEADER) + 1, 2
    while pos < len(text):
        end = text.index("\n", pos) + 1
        key, *args = text[pos : end - 1].split(" ")
        if key not in _RESULT_ARITY:
            raise FormatError(f"unknown key {key!r}", line=i)
        if key == "color":
            coloring = doc["coloring"]
            end, cols = _COLOR_LINES.read(text, pos, i)
            vs, cs = (list(map(int, col)) for col in cols)
            colors = dict(zip(vs, cs))
            if len(colors) < len(vs) or not coloring.keys().isdisjoint(colors):
                first = dict(zip(reversed(vs), range(len(vs) - 1, -1, -1)))
                bad = first_bad(
                    map(eq, map(first.__getitem__, vs), count()),
                    map(not_, map(coloring.__contains__, vs)),
                )
                raise FormatError(
                    f"second color line for vertex {vs[bad]}", line=i + bad
                )
            coloring.update(colors)
            pos, i = end, i + len(vs)
            continue
        arity = _RESULT_ARITY[key]
        if arity is not None and len(args) != arity:
            raise FormatError(
                f"{key} takes {arity} argument(s), got {len(args)}", line=i
            )
        if key.replace("-", "_") in doc:
            raise FormatError(f"second {key} line", line=i)
        if key == "method":
            doc["method"] = args[0]
        elif key in ("satisfied", "certified", "total"):
            doc[key] = parse_fraction(args[0], i, "rational")
        elif key == "degeneracy":
            doc["degeneracy"] = parse_int(args[0], i, "degeneracy")
        elif key == "order":
            doc["order"] = tuple(parse_ints(args, i, "order entry"))
        elif key == "first":
            doc["first"] = frozenset(parse_ints(args, i, "first entry"))
        else:
            if args[0] not in ("yes", "no"):
                raise FormatError("bound-met takes yes or no", line=i)
            doc["bound_met"] = args[0] == "yes"
        pos, i = end, i + 1
    for needed in ("method", "satisfied", "certified", "total"):
        if needed not in doc:
            raise FormatError(f"result misses {needed!r}")
    return doc


def _certified_fraction(method: str, inst: InstanceFile) -> Fraction:
    """The fraction `method` certifies on inst, for verify, and for solve
    with the methods whose solver does not count it.

    For maxdeg, maxdeg-weighted and degeneracy it is counted from the
    proper coloring the solver takes its independent set from, made
    once, with no solve.
    Raises when inst lacks the order or forest the method needs, when
    the request is not of the method's kind, or when the coloring the
    fraction is counted from does not exist.
    """
    request = inst.request
    if method == "degeneracy":
        return degeneracy_fraction(inst.g, request.domain())[0]
    if method in ("maxdeg", "maxdeg-weighted"):
        if (method == "maxdeg") != (request.kind == "unweighted"):
            raise PreconditionError(
                f"method {method} does not solve {request.kind} requests"
            )
        return maxdeg_fraction(inst.g, inst.L, request)[0]
    if method == "two-tree":
        if inst.ktree is None or inst.ktree.k != 2:
            raise PreconditionError(
                "method two-tree needs an instance with a 2-tree order"
            )
        return Fraction(1, 3)
    if method == "lambda":
        if inst.ktree is None:
            raise PreconditionError(
                "method lambda needs an instance with a k-tree order"
            )
        return Fraction(1, inst.ktree.k + 1)
    # treedepth
    if inst.forest is None:
        raise PreconditionError(
            "method treedepth needs an instance with a treedepth forest"
        )
    k = inst.forest.height()
    if request.kind == "weighted":
        k *= max(len(inst.L[v]) for v in range(inst.g.n))
    return Fraction(1, k)


def _verify(args) -> int:
    inst = _load_instance(args.instance)
    doc = _parse_result(_read_document(args.result))
    if doc["method"] not in METHODS:
        raise PreconditionError(f"result names unknown method {doc['method']!r}")
    g, L, request = inst.g, inst.L, inst.request
    if request is None:
        raise PreconditionError("instance carries no request")

    if doc["method"] == "degeneracy":
        if "order" not in doc or "degeneracy" not in doc:
            raise FormatError("degeneracy result misses its ordering")
        ordering = DegeneracyOrdering(
            doc["order"], doc["degeneracy"], doc.get("first", frozenset())
        )
        ordering.validate(g)
        true_first = first_among_neighbors(g, doc["order"])
        satisfied = Fraction(len(true_first & request.domain()))
        total = len(request.domain())
    else:
        coloring = doc["coloring"]
        stray = [v for v in coloring if not 0 <= v < g.n]
        if stray:
            raise PreconditionError(
                f"result colors vertex {stray[0]}, outside 0..{g.n - 1}"
            )
        # satisfied_amount checks the coloring before it counts
        satisfied = satisfied_amount(g, L, coloring, request)
        total = request.total()

    if satisfied != doc["satisfied"]:
        raise PreconditionError(
            f"stated satisfied amount {doc['satisfied']} differs from the "
            f"recomputed {satisfied}"
        )
    if total != doc["total"]:
        raise PreconditionError(
            f"stated total {doc['total']} differs from the recomputed {total}"
        )
    certified = _certified_fraction(doc["method"], inst)
    if certified != doc["certified"]:
        raise PreconditionError(
            f"stated certified fraction {doc['certified']} differs from the "
            f"recomputed {certified}"
        )
    if doc["method"] == "degeneracy" and doc["degeneracy"] != g.max_degree() - 1:
        raise PreconditionError(
            f"stated degeneracy {doc['degeneracy']} differs from the "
            f"recomputed {g.max_degree() - 1}"
        )
    met = satisfied >= certified * total
    if doc.get("bound_met", met) != met:
        raise PreconditionError(
            f"stated bound-met {'yes' if doc['bound_met'] else 'no'} differs "
            f"from the recomputed {'yes' if met else 'no'}"
        )
    print(
        f"verified satisfied={format_fraction(satisfied)} "
        f"bound-met={'yes' if met else 'no'}"
    )
    return 0 if met else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flexicolor",
        description="Constructive flexible list coloring toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a fixture or random instance")
    gen.add_argument("name")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--n", type=int, default=12)
    gen.add_argument("--delta", type=int, default=3)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--height", type=int, default=3)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_generate)

    slv = sub.add_parser("solve", help="run a solver on an instance")
    slv.add_argument("instance")
    slv.add_argument("--method", choices=METHODS, required=True)
    slv.add_argument("--lam", default=None)
    slv.add_argument("--out", default=None)
    slv.set_defaults(func=_solve)

    orc = sub.add_parser("oracle", help="exact optimum over all proper list colorings")
    orc.add_argument("instance")
    orc.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="most cells the elimination may take (exit 3 above it)")
    orc.add_argument("--out", default=None)
    orc.set_defaults(func=_oracle)

    ver = sub.add_parser("verify", help="re-check an emitted result")
    ver.add_argument("instance")
    ver.add_argument("result")
    ver.set_defaults(func=_verify)
    return p


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        where = f" line={exc.line}" if getattr(exc, "line", None) else ""
        print(f"error format{where} {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error budget {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error precondition {exc}", file=sys.stderr)
        return 2
    except FlexicolorError as exc:
        print(f"error internal {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error io {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
