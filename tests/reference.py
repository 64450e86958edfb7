"""Reference implementations kept to check the faster code against.

`reference_parse` is the line-by-line instance parser that `parse`
replaced, with the number parsers it used: it reads one line at a time,
with one parse_int per number and one order comparison per line.
`parse` must accept exactly the same documents and reject every other
one at the same line.  `reference_parse_result` is the line-by-line
result parser that `cli._parse_result` replaced, under the same rule.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from flexicolor.errors import FormatError, PreconditionError
from flexicolor.graph import Graph, KTreeOrder, TreedepthForest
from flexicolor.cli import RESULT_HEADER
from flexicolor.instances import FORMAT_HEADER, InstanceFile, format_fraction
from flexicolor.listcolor import Request


def parse_int(tok: str, lineno: Optional[int], what: str) -> int:
    """The integer `tok` spells, which must be written as str() writes it:
    ASCII digits, an optional "-", no "+" and no leading zeros."""
    try:
        value = int(tok)
    except ValueError:
        value = None
    if value is None or str(value) != tok:
        raise FormatError(
            f"{what} must be a canonical integer, got {tok!r}", line=lineno
        )
    return value


def parse_fraction(tok: str, lineno: int, what: str) -> Fraction:
    """The rational `tok` spells, which must be written as
    format_fraction writes it."""
    num, _, den = tok.partition("/")
    try:
        value = Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or format_fraction(value) != tok:
        raise FormatError(f"bad {what} {tok!r}", line=lineno)
    return value


# section ranks keep the canonical order enforceable; only the keys in
# _REPEATED may take more than one line
_RANKS = {
    "name": 1,
    "seed": 2,
    "vertices": 3,
    "edge": 4,
    "list": 5,
    "ktree": 6,
    "order": 7,
    "td-parent": 8,
    "request-kind": 9,
    "request": 10,
}
_REPEATED = frozenset({"edge", "list", "request"})


def reference_parse(text: str) -> InstanceFile:
    """Strict parser that accepts exactly what `serialize` writes.

    Sections come in canonical order; edge and request lines strictly
    increase, lists come in vertex order, and every number is spelled
    canonically.  The order checks also find a duplicate line with one
    comparison, which keeps parsing linear in the document size.
    """
    lines = text.split("\n")
    if lines[0] != FORMAT_HEADER:
        raise FormatError(f"missing header {FORMAT_HEADER!r}", line=1)
    if lines[-1]:
        raise FormatError("document must end with a newline", line=len(lines))
    name = ""
    seed: Optional[int] = None
    n: Optional[int] = None
    edges: list = []
    L: dict = {}
    ktree: Optional[KTreeOrder] = None
    kt_k: Optional[int] = None
    forest: Optional[TreedepthForest] = None
    kind: Optional[str] = None
    last_request = None
    prefs: dict = {}
    weights: dict = {}
    table: dict = {}
    rank = 0
    for i, raw in enumerate(lines[1:-1], start=2):
        if not raw.strip():
            raise FormatError("blank line not allowed", line=i)
        key, *args = raw.split(" ")
        if key not in _RANKS:
            raise FormatError(f"unknown key {key!r}", line=i)
        if _RANKS[key] < rank or (_RANKS[key] == rank and key not in _REPEATED):
            raise FormatError(f"key {key!r} out of order or repeated", line=i)
        rank = _RANKS[key]
        if key == "name":
            if len(args) != 1 or not args[0]:
                raise FormatError("name takes one token", line=i)
            name = args[0]
        elif key == "seed":
            if len(args) != 1:
                raise FormatError("seed takes one integer", line=i)
            seed = parse_int(args[0], i, "seed")
        elif key == "vertices":
            if len(args) != 1:
                raise FormatError("vertices takes one integer", line=i)
            n = parse_int(args[0], i, "vertex count")
            if n <= 0:
                raise FormatError("vertex count must be positive", line=i)
        elif key == "edge":
            if n is None:
                raise FormatError("edge before vertices", line=i)
            if len(args) != 2:
                raise FormatError("edge takes two endpoints", line=i)
            u, v = (parse_int(a, i, "endpoint") for a in args)
            if not (0 <= u < v < n):
                raise FormatError(
                    f"edge ({u},{v}) must satisfy 0 <= u < v < {n}", line=i
                )
            if edges and (u, v) <= edges[-1]:
                a, b = edges[-1]
                raise FormatError(
                    f"edge ({u},{v}) after ({a},{b}): edge lines must strictly "
                    "increase",
                    line=i,
                )
            edges.append((u, v))
        elif key == "list":
            if n is None:
                raise FormatError("list before vertices", line=i)
            if len(args) < 2:
                raise FormatError("list needs a vertex and colors", line=i)
            v = parse_int(args[0], i, "list vertex")
            if not (0 <= v < n):
                raise FormatError(f"list vertex {v} out of range", line=i)
            if v != len(L):
                raise FormatError(
                    f"list of vertex {v} out of order, expected vertex {len(L)}",
                    line=i,
                )
            cols = [parse_int(a, i, "color") for a in args[1:]]
            if cols != sorted(set(cols)):
                raise FormatError(
                    f"colors of vertex {v} must be strictly increasing", line=i
                )
            L[v] = set(cols)
        elif key == "ktree":
            if len(args) != 1:
                raise FormatError("ktree takes one integer", line=i)
            kt_k = parse_int(args[0], i, "ktree parameter")
        elif key == "order":
            if kt_k is None:
                raise FormatError("order requires a preceding ktree line", line=i)
            seq = tuple(parse_int(a, i, "order entry") for a in args)
            if sorted(seq) != list(range(n or 0)):
                raise FormatError("order is not a vertex permutation", line=i)
            ktree = KTreeOrder(kt_k, seq)
        elif key == "td-parent":
            if n is None or len(args) != n:
                raise FormatError(
                    f"td-parent needs exactly {n} entries", line=i
                )
            ps = [parse_int(a, i, "parent") for a in args]
            if not all(-1 <= p < n for p in ps):
                raise FormatError("a parent must be -1 or a vertex", line=i)
            forest = TreedepthForest(
                tuple(None if p == -1 else p for p in ps)
            )
        elif key == "request-kind":
            if len(args) != 1 or args[0] not in ("unweighted", "unique", "weighted"):
                raise FormatError("unknown request kind", line=i)
            kind = args[0]
        elif key == "request":
            if kind is None:
                raise FormatError("request before request-kind", line=i)
            if kind == "unweighted" and len(args) != 2:
                raise FormatError("request takes vertex and color", line=i)
            if kind != "unweighted" and len(args) != 3:
                raise FormatError(
                    "request takes vertex, color and weight", line=i
                )
            v = parse_int(args[0], i, "request vertex")
            c = parse_int(args[1], i, "request color")
            # serialize sorts by vertex, and a weighted table by color next
            at = (v, c) if kind == "weighted" else v
            if last_request is not None and at <= last_request:
                raise FormatError("request lines must strictly increase", line=i)
            last_request = at
            if kind == "weighted":
                table[(v, c)] = parse_fraction(args[2], i, "weight")
            else:
                prefs[v] = c
                if kind == "unique":
                    weights[v] = parse_fraction(args[2], i, "weight")
    if n is None:
        raise FormatError("missing vertices line")
    if len(L) != n:
        raise FormatError(f"missing lists for vertices {list(range(len(L), n))}")
    if ktree is None and kt_k is not None:
        raise FormatError("ktree line without an order line")
    try:
        g = Graph(n, edges)
        request = None
        if kind == "unweighted":
            request = Request("unweighted", prefs=prefs)
        elif kind == "unique":
            request = Request("unique", prefs=prefs, weights=weights)
        elif kind == "weighted":
            request = Request("weighted", table=table)
        inst = InstanceFile(g, L, request, ktree, forest, name, seed)
        inst.validate()
    except PreconditionError as exc:
        raise FormatError(str(exc))
    return inst


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


def reference_parse_result(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != RESULT_HEADER:
        raise FormatError(f"missing header {RESULT_HEADER!r}", line=1)
    doc: dict = {"coloring": {}}
    for i, raw in enumerate(lines[1:], start=2):
        key, *args = raw.split(" ")
        if key not in _RESULT_ARITY:
            raise FormatError(f"unknown key {key!r}", line=i)
        arity = _RESULT_ARITY[key]
        if arity is not None and len(args) != arity:
            raise FormatError(
                f"{key} takes {arity} argument(s), got {len(args)}", line=i
            )
        if key == "method":
            doc["method"] = args[0]
        elif key in ("satisfied", "certified", "total"):
            doc[key] = parse_fraction(args[0], i, "rational")
        elif key == "color":
            v, c = (parse_int(a, i, "color field") for a in args)
            if v in doc["coloring"]:
                raise FormatError(f"second color line for vertex {v}", line=i)
            doc["coloring"][v] = c
        elif key == "degeneracy":
            doc["degeneracy"] = parse_int(args[0], i, "degeneracy")
        elif key == "order":
            doc["order"] = tuple(parse_int(a, i, "order entry") for a in args)
        elif key == "first":
            doc["first"] = frozenset(parse_int(a, i, "first entry") for a in args)
        else:
            if args[0] not in ("yes", "no"):
                raise FormatError("bound-met takes yes or no", line=i)
            doc["bound_met"] = args[0] == "yes"
    for needed in ("method", "satisfied", "certified", "total"):
        if needed not in doc:
            raise FormatError(f"result misses {needed!r}")
    return doc
