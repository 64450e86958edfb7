"""Instance serialization, fixture generators, and random families.

The on-disk format is line oriented and canonical: serializing a parsed
document reproduces it byte for byte.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress, count, islice, repeat
from operator import eq, gt, lt, not_
from typing import Optional

from .errors import FormatError, PreconditionError
from .graph import Graph, KTreeOrder, TreedepthForest, validate_ktree_order
from .listcolor import KINDS, MAX_DIGITS, Request, validate_lists

FORMAT_HEADER = "flexicolor-instance 1"


@dataclass
class InstanceFile:
    g: Graph
    L: dict
    request: Optional[Request] = None
    ktree: Optional[KTreeOrder] = None
    forest: Optional[TreedepthForest] = None
    name: str = ""
    seed: Optional[int] = None
    # the parsed body this instance came from; None unless parse made it
    _body: Optional["_Body"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def body_fact(self, key: str, build):
        """build(g, ktree, L) for the body parse read this instance from,
        built once from the body's own graph, order and lists and kept
        on the body under key: every parse of that body shares it while
        the body stays in parse's slot, so it must not be mutated.  An
        instance parse did not make gets build(self.g, self.ktree,
        self.L) on every call.  A build that raises keeps nothing."""
        body = self._body
        if body is None:
            return build(self.g, self.ktree, self.L)
        facts = body.facts
        if key not in facts:
            facts[key] = build(body.g, body.sections.ktree, body.sections.L)
        return facts[key]

    def validate(self) -> None:
        """The one check of the instance invariants: the lists, the
        request, the k-tree order and the forest.  parse and serialize
        run it; the solvers take inputs that pass it as given."""
        self._raise_first(*_failures(self.g, self.L, self.ktree, self.forest))

    def _raise_first(self, lists, order, forest) -> None:
        """Raise the first failed check in the order lists, request,
        k-tree order, forest; lists, order and forest are the failure
        messages of those checks, None where one passed."""
        if lists is not None:
            raise PreconditionError(lists)
        if self.request is not None:
            self.request.validate(self.g, self.L)
        for failure in (order, forest):
            if failure is not None:
                raise PreconditionError(failure)


def _failures(g: Graph, L: dict, ktree, forest) -> tuple:
    """The failure messages of the checks of the lists, the k-tree order
    and the forest, None for each that passes or is absent."""

    def failure(check, *args) -> Optional[str]:
        try:
            check(*args)
        except PreconditionError as exc:
            return str(exc)
        return None

    bad = None if ktree is None else validate_ktree_order(g, ktree)
    return (
        failure(validate_lists, g, L),
        None if bad is None else f"order invalid at position {bad.index}: {bad.message}",
        None if forest is None else failure(forest.validate, g),
    )


def format_fraction(x, scale: int = 1) -> str:
    """The canonical spelling of the rational x / scale: "7" or "7/2",
    never "7/1"."""
    f = Fraction(x, scale)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize(inst: InstanceFile) -> str:
    inst.validate()
    lines = [FORMAT_HEADER]
    if inst.name:
        lines.append(f"name {inst.name}")
    if inst.seed is not None:
        lines.append(f"seed {inst.seed}")
    lines.append(f"vertices {inst.g.n}")
    for u, v in sorted(inst.g.edges):
        lines.append(f"edge {u} {v}")
    for v in range(inst.g.n):
        cols = " ".join(str(c) for c in sorted(inst.L[v]))
        lines.append(f"list {v} {cols}")
    if inst.ktree is not None:
        lines.append(f"ktree {inst.ktree.k}")
        lines.append("order " + " ".join(str(v) for v in inst.ktree.sequence))
    if inst.forest is not None:
        lines.append(
            "td-parent "
            + " ".join(str(p if p is not None else -1) for p in inst.forest.parent)
        )
    r = inst.request
    if r is not None:
        lines.append(f"request-kind {r.kind}")
        pairs = sorted(r.gain.items())
        if r.kind == "unweighted":
            lines += [f"request {v} {c}" for (v, c), _ in pairs]
        else:
            lines += [
                f"request {v} {c} {format_fraction(w, r.scale)}" for (v, c), w in pairs
            ]
    return "\n".join(lines) + "\n"


# A canonical integer as str() writes it, with no more digits than int()
# converts (MAX_DIGITS).  The patterns spell digits as ASCII [0-9]: the
# regex digit class, like int(), also takes the digits of other scripts.
_MORE_DIGITS = f"[0-9]{{0,{MAX_DIGITS - 1}}}" if MAX_DIGITS else "[0-9]*"
INT = f"(?:0|-?[1-9]{_MORE_DIGITS})"
_NAT = f"(?:0|[1-9]{_MORE_DIGITS})"
# a rational in any spelling; the value check keeps only canonical ones
_RATIONAL = "-?[0-9]+(?:/[0-9]+)?"
_INT_TOKEN = re.compile(INT)
_INT_TOKENS = re.compile(f"{INT}(?: {INT})*")


def parse_int(tok: str, lineno: Optional[int], what: str) -> int:
    """The integer `tok` spells, which must be written as str() writes it:
    ASCII digits, an optional "-", no "+" and no leading zeros."""
    if _INT_TOKEN.fullmatch(tok) is None:
        raise FormatError(
            f"{what} must be a canonical integer, got {tok!r}", line=lineno
        )
    return int(tok)


def parse_ints(toks: list, lineno: int, what: str) -> list:
    """parse_int over all the tokens of one line, with one pattern match."""
    if toks and _INT_TOKENS.fullmatch(" ".join(toks)) is None:
        for tok in toks:  # raises at the first non-canonical token
            parse_int(tok, lineno, what)
    return list(map(int, toks))


def _canonical_fraction(tok: str):
    """The rational `tok` spells, an int if it has no "/", when
    format_fraction writes it so; else None."""
    num, _, den = tok.partition("/")
    try:
        value = Fraction(int(num), int(den)) if den else int(num)
    except (ValueError, ZeroDivisionError):
        return None
    return value if format_fraction(value) == tok else None


def parse_fraction(tok: str, lineno: int, what: str):
    """The rational `tok` spells, an int if it has no "/", which must be
    written as format_fraction writes it."""
    value = _canonical_fraction(tok)
    if value is None:
        raise FormatError(f"bad {what} {tok!r}", line=lineno)
    return value


class LineRun:
    """The lines of one repeated section, read as one run.

    `line` is the pattern of one well-formed line, with one group per
    field; `width` is its number of space-separated tokens, or None when
    a field spans several tokens.  Matches of the repeated pattern find
    where the run of well-formed lines ends.
    """

    # lines per pattern match: the matcher keeps backtracking state for
    # every repetition until the match ends, so unbounded repetition
    # would hold hundreds of bytes per line of the run
    CHUNK = 64

    def __init__(self, line: str, form: str, width: Optional[int] = None):
        self._line = re.compile(line)
        self._lines = re.compile(f"(?:{line}){{0,{self.CHUNK}}}")
        self.form = form
        self.width = width

    def read(self, text: str, pos: int, lineno: int) -> tuple:
        """(end, columns) of the run starting at text[pos:], which is
        line `lineno`: columns[j] holds field j of every line, as
        strings.  The run stops before the first line that is not well
        formed; a run that would be empty raises FormatError there."""
        end = pos
        while (stop := self._lines.match(text, end).end()) > end:
            end = stop
        if end == pos:
            line = text[pos : text.find("\n", pos)]
            raise FormatError(
                f"malformed line {line!r}, expected {self.form!r}", line=lineno
            )
        if self.width is None:
            return end, list(zip(*self._line.findall(text, pos, end)))
        toks = text[pos:end].split()
        return end, [toks[j :: self.width] for j in range(1, self.width)]


def first_bad(*flags) -> Optional[int]:
    """Index of the first line of a run at which some flag is false, or
    None; flags[j] yields one flag per line."""
    firsts = [next(compress(count(), map(not_, f)), None) for f in flags]
    return min((i for i in firsts if i is not None), default=None)


def increasing(keys: list):
    """One flag per line: whether its key exceeds the previous line's."""
    return chain((True,), map(lt, keys, islice(keys, 1, None)))


_EDGES = LineRun(f"edge ({_NAT}) ({_NAT})\n", "edge u v", 3)
_LISTS = LineRun(f"list ({_NAT})((?: {INT})+)\n", "list v c1 c2 ...")
_REQUESTS = LineRun(f"request ({INT}) ({INT})\n", "request v c", 3)
_WEIGHTED_REQUESTS = LineRun(
    f"request ({INT}) ({INT}) ({_RATIONAL})\n", "request v c weight", 4
)


def _edge_lines(text: str, pos: int, lineno: int, n: int) -> tuple:
    """(end, edges) of the run of edge lines at text[pos:]."""
    end, (us, vs) = _EDGES.read(text, pos, lineno)
    us, vs = list(map(int, us)), list(map(int, vs))
    edges = list(zip(us, vs))
    bad = first_bad(map(lt, us, vs), map(gt, repeat(n), vs), increasing(edges))
    if bad is not None:
        raise FormatError(
            f"edge {edges[bad]}: edges must satisfy 0 <= u < v < {n} and "
            "edge lines must strictly increase",
            line=lineno + bad,
        )
    return end, edges


def _list_lines(text: str, pos: int, lineno: int, n: int) -> tuple:
    """(end, lists) of the run of list lines at text[pos:]."""
    end, (vs, spelled) = _LISTS.read(text, pos, lineno)
    vs = list(map(int, vs))
    # lists repeat across vertices, so each spelling is converted once,
    # to one frozenset that all its vertices share
    colors = {s: tuple(map(int, s.split())) for s in set(spelled)}
    ordered = {s for s, cs in colors.items() if all(map(lt, cs, cs[1:]))}
    bad = first_bad(
        map(eq, vs, count()), map(gt, repeat(n), vs), map(ordered.__contains__, spelled)
    )
    if bad is not None:
        raise FormatError(
            f"list of vertex {vs[bad]}: lists must come in vertex order "
            f"0..{n - 1}, colors strictly increasing",
            line=lineno + bad,
        )
    lists = {s: frozenset(cs) for s, cs in colors.items()}
    return end, dict(enumerate(map(lists.__getitem__, spelled)))


def _request_lines(text: str, pos: int, lineno: int, kind: str) -> tuple:
    """(end, pairs, weights) of the run of request lines at text[pos:]:
    the (vertex, color) pairs and their weights, None for an unweighted
    request."""
    run = _REQUESTS if kind == "unweighted" else _WEIGHTED_REQUESTS
    end, cols = run.read(text, pos, lineno)
    vs, cs = list(map(int, cols[0])), list(map(int, cols[1]))
    pairs = list(zip(vs, cs))
    # serialize sorts by vertex, and a weighted table by color next
    flags = [increasing(pairs if kind == "weighted" else vs)]
    weights = None
    if kind != "unweighted":
        values = {t: _canonical_fraction(t) for t in set(cols[2])}
        canonical = {t for t, w in values.items() if w is not None}
        flags.append(map(canonical.__contains__, cols[2]))
        weights = list(map(values.__getitem__, cols[2]))
    bad = first_bad(*flags)
    if bad is not None:
        raise FormatError(
            "request lines must strictly increase, weights written canonically",
            line=lineno + bad,
        )
    return end, pairs, weights


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


@dataclass
class _Sections:
    """What the section lines read so far set, and the rank of the last
    section read."""

    rank: int = 0
    name: str = ""
    seed: Optional[int] = None
    n: Optional[int] = None
    edges: list = field(default_factory=list)
    L: dict = field(default_factory=dict)
    kt_k: Optional[int] = None
    ktree: Optional[KTreeOrder] = None
    forest: Optional[TreedepthForest] = None
    kind: Optional[str] = None
    pairs: list = field(default_factory=list)
    weights: Optional[list] = None

    def read(self, text: str, pos: int, i: int) -> int:
        """Read the sections of text[pos:], whose first line is line i,
        raising at the first malformed line; returns the number the
        line after them would have."""
        while pos < len(text):
            end = text.index("\n", pos) + 1
            raw = text[pos : end - 1]
            if not raw.strip():
                raise FormatError("blank line not allowed", line=i)
            key, *args = raw.split(" ")
            if key not in _RANKS:
                raise FormatError(f"unknown key {key!r}", line=i)
            if _RANKS[key] < self.rank or (
                _RANKS[key] == self.rank and key not in _REPEATED
            ):
                raise FormatError(f"key {key!r} out of order or repeated", line=i)
            self.rank = _RANKS[key]
            lines = 1
            n = self.n
            if key == "name":
                if len(args) != 1 or not args[0]:
                    raise FormatError("name takes one token", line=i)
                self.name = args[0]
            elif key == "seed":
                if len(args) != 1:
                    raise FormatError("seed takes one integer", line=i)
                self.seed = parse_int(args[0], i, "seed")
            elif key == "vertices":
                if len(args) != 1:
                    raise FormatError("vertices takes one integer", line=i)
                self.n = parse_int(args[0], i, "vertex count")
                if self.n <= 0:
                    raise FormatError("vertex count must be positive", line=i)
            elif key == "edge":
                if n is None:
                    raise FormatError("edge before vertices", line=i)
                end, self.edges = _edge_lines(text, pos, i, n)
                lines = len(self.edges)
            elif key == "list":
                if n is None:
                    raise FormatError("list before vertices", line=i)
                end, self.L = _list_lines(text, pos, i, n)
                lines = len(self.L)
            elif key == "ktree":
                if len(args) != 1:
                    raise FormatError("ktree takes one integer", line=i)
                self.kt_k = parse_int(args[0], i, "ktree parameter")
            elif key == "order":
                if self.kt_k is None:
                    raise FormatError("order requires a preceding ktree line", line=i)
                seq = tuple(parse_ints(args, i, "order entry"))
                # the length first: n may be far larger than the document
                if len(seq) != (n or 0) or sorted(seq) != list(range(len(seq))):
                    raise FormatError("order is not a vertex permutation", line=i)
                self.ktree = KTreeOrder(self.kt_k, seq)
            elif key == "td-parent":
                if n is None or len(args) != n:
                    raise FormatError(
                        f"td-parent needs exactly {n} entries", line=i
                    )
                ps = parse_ints(args, i, "parent")
                if min(ps) < -1 or max(ps) >= n:
                    raise FormatError("a parent must be -1 or a vertex", line=i)
                self.forest = TreedepthForest(
                    tuple(None if p == -1 else p for p in ps)
                )
            elif key == "request-kind":
                if len(args) != 1 or args[0] not in KINDS:
                    raise FormatError("unknown request kind", line=i)
                self.kind = args[0]
            else:
                if self.kind is None:
                    raise FormatError("request before request-kind", line=i)
                end, self.pairs, self.weights = _request_lines(
                    text, pos, i, self.kind
                )
                lines = len(self.pairs)
            pos, i = end, i + lines
        return i

    def request(self) -> Optional[Request]:
        if self.kind is None:
            return None
        return Request.from_pairs(self.kind, self.pairs, self.weights)


@dataclass(frozen=True)
class _Body:
    """The body of a document read, built and checked.  `missing` is the
    end-of-document error and `failures` the messages of the instance
    checks, kept for parse to raise once it has read the tail, which
    carries on from the rank of `sections` and from line `lineno`.  g is
    None when `missing` is set; `sections.L` is never handed out, each
    parse gets a copy.  `facts` holds what InstanceFile.body_fact built
    from the body."""

    sections: _Sections
    lineno: int
    g: Optional[Graph]
    missing: Optional[str]
    failures: tuple
    facts: dict = field(default_factory=dict, compare=False)


def _read_body(body: str) -> _Body:
    """Read, build and check the body of a document; a malformed line
    raises, at the line a reading of the whole document reports."""
    s = _Sections()
    lineno = s.read(body, len(FORMAT_HEADER) + 1, 2)
    if s.n is None:
        return _Body(s, lineno, None, "missing vertices line", ())
    if len(s.L) != s.n:
        missing = f"missing lists for vertices {len(s.L)}..{s.n - 1}"
        return _Body(s, lineno, None, missing, ())
    if s.ktree is None and s.kt_k is not None:
        return _Body(s, lineno, None, "ktree line without an order line", ())
    g = Graph._from_sorted(s.n, s.edges)
    return _Body(s, lineno, g, None, _failures(g, s.L, s.ktree, s.forest))


# (body, _read_body(body)) of the last body parsed, or None.  Requests on
# one instance repeat its body, and solve and verify parse one document,
# so one entry serves them; it is cleared before another body is read,
# so the process never holds two.
_last_body: list = [None]


def parse(text: str) -> InstanceFile:
    """Strict parser that accepts exactly what `serialize` writes.

    Sections come in canonical order; edge and request lines strictly
    increase, lists come in vertex order, and every number is spelled
    canonically.  Each repeated section (edge, list and request lines)
    is read as one run: one compiled pattern checks the spelling of all
    its lines, its numbers are converted by map(int, ...), and its order is
    checked by pairwise comparisons, so parsing stays linear in the
    document with little Python work per line.

    The body of the document, its lines before the first one that starts
    with "request-kind", is read, built and checked once per process for
    as long as it is the last body parsed: a document with the same body
    reuses its graph, lists, order and forest, and what body_fact built
    from them, and only the tail, the request, is read and checked
    again.  The result and the first error do not depend on it; the
    lists of the result are frozensets.
    """
    if text.partition("\n")[0] != FORMAT_HEADER:
        raise FormatError(f"missing header {FORMAT_HEADER!r}", line=1)
    if not text.endswith("\n"):
        raise FormatError(
            "document must end with a newline", line=text.count("\n") + 1
        )
    # the body ends where the first line starting "request-kind" begins
    split = text.find("\nrequest-kind") + 1 or len(text)
    key = text[:split]
    last = _last_body[0]
    if last is None or last[0] != key:
        last = _last_body[0] = None
        last = _last_body[0] = (key, _read_body(key))
    body, s = last[1], last[1].sections
    tail = _Sections(rank=s.rank)
    tail.read(text, split, body.lineno)
    if body.missing is not None:
        raise FormatError(body.missing)
    try:
        inst = InstanceFile(
            body.g, dict(s.L), tail.request(), s.ktree, s.forest, s.name, s.seed
        )
        inst._raise_first(*body.failures)
    except PreconditionError as exc:
        raise FormatError(str(exc))
    inst._body = body
    return inst


# ---------------------------------------------------------------------------
# Fixtures


def fig_cycle() -> InstanceFile:
    """Ten-cycle with size-2 lists on which no request is satisfiable.

    Eight vertices carry the drawn lists and requests; the two remaining
    ones, 5 and 6, get the smallest completion (by list pair, then
    requested colors) that keeps the exact optimum at zero:
    L5 = L6 = {1, 2} with requests 5 -> 1 and 6 -> 2.
    """
    g = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
    L = {
        0: {1, 2},
        1: {2, 3},
        2: {1, 3},
        3: {1, 2},
        4: {1, 2},
        5: {1, 2},
        6: {1, 2},
        7: {1, 2},
        8: {1, 2},
        9: {1, 2},
    }
    prefs = {0: 2, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 2, 9: 1}
    return InstanceFile(
        g, L, Request("unweighted", prefs=prefs), name="fig-cycle"
    )


def fig_diamond() -> InstanceFile:
    """Diamond with degree-sized lists where no request is satisfiable."""
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    L = {0: {1, 2}, 1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 3}}
    request = Request("unweighted", prefs={0: 2, 1: 1, 2: 1, 3: 3})
    return InstanceFile(g, L, request, name="fig-diamond")


# 1-based neighbor table of the drawn 3-tree, vertex i+1 -> id i
_FIG_3TREE_ADJ = {
    1: (2, 3, 4),
    2: (1, 3, 4, 5, 6),
    3: (1, 2, 4, 5),
    4: (1, 2, 3, 5, 6, 7, 8),
    5: (2, 3, 4, 6, 7, 8),
    6: (2, 4, 5, 7, 8),
    7: (4, 5, 6),
    8: (4, 5, 6),
}


def fig_3tree(L: Optional[dict] = None) -> InstanceFile:
    """Eight-vertex 3-tree used for the subset-family walkthrough."""
    edges = sorted(
        {
            (min(a, b) - 1, max(a, b) - 1)
            for a, nbrs in _FIG_3TREE_ADJ.items()
            for b in nbrs
        }
    )
    g = Graph(8, edges)
    if L is None:
        L = {v: {1, 2, 3, 4} for v in range(8)}
    inst = InstanceFile(
        g, L, ktree=KTreeOrder(3, tuple(range(8))), name="fig-3tree"
    )
    inst.validate()
    return inst


def fig_triplet_cover() -> InstanceFile:
    """Five core vertices plus one vertex per 3-subset of them.

    Removing any three core vertices disconnects the graph, so at most
    two of the five can ever be spanning-tree leaves.
    """
    edges = []
    for i, trip in enumerate(combinations(range(5), 3)):
        for r in trip:
            edges.append((r, 5 + i))
    g = Graph(15, edges)
    L = {v: {1, 2, 3} for v in range(15)}
    return InstanceFile(g, L, name="fig-triplet-cover")


def two_cliques_matching(delta: int = 3) -> InstanceFile:
    """Two copies of K_delta joined by a perfect matching, color 1
    requested on all of one clique; at most one request is satisfiable."""
    if delta < 3:
        raise PreconditionError(f"clique size must be >= 3, got {delta}")
    edges = []
    for a, b in combinations(range(delta), 2):
        edges.append((a, b))
        edges.append((delta + a, delta + b))
    for a in range(delta):
        edges.append((a, delta + a))
    g = Graph(2 * delta, edges)
    L = {v: set(range(1, delta + 1)) for v in range(2 * delta)}
    request = Request("unweighted", prefs={v: 1 for v in range(delta)})
    return InstanceFile(g, L, request, name=f"two-cliques-{delta}")


FIXTURES = {
    "fig-cycle": fig_cycle,
    "fig-diamond": fig_diamond,
    "fig-3tree": fig_3tree,
    "fig-triplet-cover": fig_triplet_cover,
    "two-cliques-matching": two_cliques_matching,
}


# ---------------------------------------------------------------------------
# Random families


def _random_request(
    g: Graph, L: dict, rng: random.Random, kind: str, size: Optional[int] = None
) -> Request:
    if size is None:
        size = rng.randint(1, g.n)
    vs = rng.sample(range(g.n), size)
    if kind == "unweighted":
        return Request(
            "unweighted", prefs={v: rng.choice(sorted(L[v])) for v in vs}
        )
    if kind == "unique":
        return Request(
            "unique",
            prefs={v: rng.choice(sorted(L[v])) for v in vs},
            weights={v: rng.randint(1, 10) for v in vs},
        )
    table = {}
    for v in vs:
        for c in sorted(L[v]):
            if rng.random() < 0.5:
                table[(v, c)] = rng.randint(0, 10)
    if not table:
        v = vs[0]
        table[(v, sorted(L[v])[0])] = 1
    return Request("weighted", table=table)


def random_bounded_degree(
    seed: int,
    n: int,
    delta: int,
    palette: int = 0,
    request_kind: str = "unweighted",
    request_size: Optional[int] = None,
) -> InstanceFile:
    """Connected graph with maximum degree exactly delta (never the
    complete graph on delta+1 vertices), minimum admissible lists, and a
    random request."""
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    if n < delta + 1:
        raise PreconditionError(
            f"need at least {delta + 1} vertices to reach degree {delta}"
        )
    rng = random.Random(seed)
    palette = palette or delta + 2
    while True:
        deg = [0] * n
        edges = set()
        order = list(range(1, n))
        rng.shuffle(order)
        stuck = False
        for v in order:
            candidates = [u for u in range(v) if deg[u] < delta]
            if not candidates:
                stuck = True
                break
            u = rng.choice(candidates)
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        if stuck:
            continue
        extras = rng.randint(0, n)
        for _ in range(extras):
            u, v = rng.sample(range(n), 2)
            e = (min(u, v), max(u, v))
            if e in edges or deg[u] >= delta or deg[v] >= delta:
                continue
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
        g = Graph(n, sorted(edges))
        if g.max_degree() != delta:
            continue
        if g.n == delta + 1 and g.is_complete():
            continue
        if not g.is_connected():
            continue
        break
    L = {}
    for v in range(n):
        size = delta if g.degree(v) == delta else g.degree(v) + 1
        L[v] = set(rng.sample(range(1, palette + 1), size))
    request = _random_request(g, L, rng, request_kind, request_size)
    return InstanceFile(
        g, L, request, name=f"random-bounded-{delta}", seed=seed
    )


def random_ktree(
    seed: int,
    n: int,
    k: int,
    list_size: Optional[int] = None,
    palette: int = 0,
    request_kind: str = "unique",
    request_size: Optional[int] = None,
) -> InstanceFile:
    """Random k-tree with its construction order and (k+1)-sized lists."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if n < k + 1:
        raise PreconditionError(f"a {k}-tree needs at least {k + 1} vertices")
    rng = random.Random(seed)
    edges = [(a, b) for a, b in combinations(range(k + 1), 2)]
    # the k-cliques a new vertex may attach to, in creation order
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        for u in base:
            edges.append((u, v))
        for sub in combinations(base, k - 1):
            cliques.append(tuple(sorted(sub + (v,))))
    g = Graph(n, edges)
    order = KTreeOrder(k, tuple(range(n)))
    list_size = list_size or k + 1
    palette = palette or list_size + 2
    L = {
        v: set(rng.sample(range(1, palette + 1), list_size)) for v in range(n)
    }
    inst = InstanceFile(g, L, ktree=order, name=f"random-{k}tree", seed=seed)
    inst.validate()
    if request_kind:
        inst.request = _random_request(g, L, rng, request_kind, request_size)
    return inst


def random_treedepth(
    seed: int,
    n: int,
    height: int,
    palette: int = 0,
    request_kind: str = "unique",
    request_size: Optional[int] = None,
) -> InstanceFile:
    """Random rooted forest of bounded height with a random subgraph of
    its ancestor closure, lists of the height's size."""
    if n < 1:
        raise PreconditionError(f"vertex count must be >= 1, got {n}")
    if height < 1:
        raise PreconditionError(f"height must be >= 1, got {height}")
    rng = random.Random(seed)
    parent: list = []
    depth = []
    for v in range(n):
        shallow = [u for u in range(v) if depth[u] < height - 1]
        if v == 0 or not shallow or rng.random() < 0.2:
            parent.append(None)
            depth.append(0)
        else:
            p = rng.choice(shallow)
            parent.append(p)
            depth.append(depth[p] + 1)
    edges = []
    for v in range(n):
        u = parent[v]
        chain = []
        while u is not None:
            chain.append(u)
            u = parent[u]
        for u in chain:
            if parent[v] == u or rng.random() < 0.5:
                edges.append((min(u, v), max(u, v)))
    g = Graph(n, sorted(set(edges)))
    forest = TreedepthForest(tuple(parent))
    k = forest.height()
    palette = palette or k + 3
    L = {v: set(rng.sample(range(1, palette + 1), k)) for v in range(n)}
    inst = InstanceFile(g, L, forest=forest, name="random-treedepth", seed=seed)
    inst.validate()
    if request_kind:
        inst.request = _random_request(g, L, rng, request_kind, request_size)
    return inst


def random_three_connected(
    seed: int, n: int, request_size: Optional[int] = None
) -> InstanceFile:
    """Circular ladder plus a few chords: 3-connected, maximum degree 4,
    never regular.  Vertex count must be even and at least 8."""
    if n % 2 or n < 8:
        raise PreconditionError(
            f"family needs an even vertex count >= 8, got {n}"
        )
    rng = random.Random(seed)
    m = n // 2
    edges = set()
    for i in range(m):
        edges.add((min(i, (i + 1) % m), max(i, (i + 1) % m)))
        edges.add(
            (min(m + i, m + (i + 1) % m), max(m + i, m + (i + 1) % m))
        )
        edges.add((i, m + i))
    deg = {v: 3 for v in range(n)}
    chords = rng.randint(1, 3)
    added = 0
    while added < chords:
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e in edges or deg[u] >= 4 or deg[v] >= 4:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
        added += 1
    g = Graph(n, sorted(edges))
    L = {v: set(range(1, g.max_degree() + 1)) for v in range(n)}
    inst = InstanceFile(g, L, name="random-3connected", seed=seed)
    if request_size is None:
        request_size = rng.randint(1, n)
    vs = sorted(rng.sample(range(n), request_size))
    inst.request = Request(
        "unweighted", prefs={v: sorted(L[v])[0] for v in vs}
    )
    return inst


FAMILIES = {
    "bounded-degree": random_bounded_degree,
    "ktree": random_ktree,
    "treedepth": random_treedepth,
    "three-connected": random_three_connected,
}
