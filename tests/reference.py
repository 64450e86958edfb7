"""Reference implementations kept to check the faster code against.

`reference_parse` is the line-by-line instance parser that `parse`
replaced, with the number parsers it used: it reads one line at a time,
with one parse_int per number and one order comparison per line.
`parse` must accept exactly the same documents and reject every other
one at the same line.  `reference_parse_result` is the line-by-line
result parser that `cli._parse_result` replaced, under the same rule.

`reference_sample_coloring`, `reference_exact_request_probability` and
`reference_derandomized_coloring` are the treedepth distribution that
`derandomized_coloring` estimates, taking the same g, forest and
lists and walking the same trimmed lists and components: a sampler, an
exact probability walk down to the asked vertex, and the derandomizer
by exact conditional expectation, which values each root color with an
expected-weight recursion and recurses again on the best one (work
about h!·n at height h).  The tests hold the probabilities to
the paper's 1/k and the one-pass estimator's weight to within 1% of the
exact derandomizer's on a fixed corpus.

`reference_b_value` counts the bad components that disappear when r
stops being precolored by classifying the whole graph twice;
`maxdeg._local_b_values` must give the same count for every r.

`reference_seed_edge` finds the first edge of a 2-tree's six colorings
by enumerating all 90 arrangements of three colors twice each, for u
and then for v, and keeping the first admissible pair, one dict per
member; `treewidth.two_tree_family` must color that edge the same way.
`reference_extend_values` is the backtracking search per vertex that
`treewidth._extend` replaced with a table lookup, and
`reference_two_tree_family` builds the six colorings of a 2-tree from
the two searches, growing one dict per member.  `is_admissible` and
`check_admissible_everywhere` check the four conditions that tie the
six colorings to each edge; they read a member as phi[vertex], so they
take dicts and vertex-indexed tuples alike.

`reference_lambda_family` builds the whole family of a k-tree with
class-split lists, lifting and merging one dict per (inner, outer) pair
of every block; `treewidth.lambda_family` walks the same recursion for
its first best member only, and must return the member
`reference_best_of_family` picks from this one.

`reference_best_of_family` is the pick that `treewidth.best_of_family`
replaced: it turns every member into a dict, scores it with
`satisfied_count` over the whole request, keeps the first best and
checks the averaging bound.  `best_of_family` must pick the same member
and raise on the same families.

`check_family` checks the contract of a coloring family: every member
is a proper on-list coloring, and each (vertex, list color) pair
appears in exactly |members|/period members.

The reference families hold their members as the package's do, as
tuples indexed by vertex.

`is_three_edge_connected` decides 3-edge-connectivity of a hypergraph
by unit-capacity max-flow from vertex 0 to every other vertex;
`degeneracy.hypergraph_spanning_set` trusts its input to be so, and the
tests check every hypergraph it and its recursion receive.

`reference_ordering_from_tree` is the tree walk that
`degeneracy._leaves_first_order` replaced: it takes the spanning tree as
an edge list, checks it (a tree of g, w below the maximum degree, the
leaf set independent and made of leaves), rebuilds its adjacency and
walks it.  `reference_leaf_tree` builds that tree as the degeneracy
pipeline did, from an induced copy of g - R'' and one anchor edge per
kept leaf; `flexible_degeneracy_order` must give the ordering that the
walk of this tree gives.

`bruteforce_bad_component` decides whether a component is bad from an
independent block finder that tries every vertex subset;
`listcolor.degree_choosable_coloring` must return None on exactly
these components, and `maxdeg.classify_components` flag them.

`exact_game_connectivity` (the worst requested set's best removable
fraction, over all subsets), `removable_ratio`, `leaf_ratio` and
`game_connectivity_by_trees` (over all spanning trees) are the game
connectivity that the degeneracy solver's certified fraction bounds
from below, by brute force at desk scale.
"""
from __future__ import annotations

import random
from fractions import Fraction
from collections import deque
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, NamedTuple, Optional

from flexicolor.errors import (
    BudgetExceededError,
    FormatError,
    InternalInvariantError,
    PreconditionError,
)
from flexicolor.graph import Graph, KTreeOrder, TreedepthForest
from flexicolor.cli import RESULT_HEADER
from flexicolor.degeneracy import (
    DegeneracyOrdering,
    Hypergraph,
    _UnionFind,
    first_among_neighbors,
)
from flexicolor.instances import FORMAT_HEADER, InstanceFile, format_fraction
from flexicolor.listcolor import Request, check_coloring, satisfied_count
from flexicolor.maxdeg import classify_components
from flexicolor.treedepth import _component_root, _delete_and_trim, _trimmed_lists
from flexicolor.treewidth import (
    ColoringFamily,
    _base_family,
    _induced_with_order,
    build_SA,
    family_size,
)


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
        stored = "bound_met" if key == "bound-met" else key
        if stored in doc:
            raise FormatError(f"second {key} line", line=i)
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


class _Td(NamedTuple):
    """What the treedepth references walk: the graph, its forest and the
    unique request's colors by vertex."""

    g: Graph
    forest: TreedepthForest
    prefs: dict


def _start(
    g: Graph, forest: TreedepthForest, L: dict, request: Optional[Request]
) -> tuple:
    """(record, lists trimmed to the forest height, that height)."""
    prefs = {}
    if request is not None:
        if request.kind == "weighted":
            raise PreconditionError(
                "general weighted requests must go through reduce_to_unique first"
            )
        prefs = dict(request.prefs)
    k = forest.height()
    return _Td(g, forest, prefs), _trimmed_lists(g.n, L, prefs, k), k


def _below(td: _Td, comp: list, root: int) -> list:
    """The components of g among the vertices of comp other than root."""
    return td.g.components(v for v in comp if v != root)


def _sample(td: _Td, comp: list, lists: dict, h: int, rng: random.Random) -> dict:
    root = _component_root(comp, td.forest)
    if len(lists[root]) != h:
        raise PreconditionError(
            f"vertex {root} has list size {len(lists[root])} at a "
            f"level needing {h}"
        )
    c = rng.choice(sorted(lists[root]))
    out = {root: c}
    if len(comp) == 1:
        return out
    sub_lists = _delete_and_trim(lists, comp, root, c, td.prefs, h)
    for sub in _below(td, comp, root):
        out.update(_sample(td, sub, sub_lists, h - 1, rng))
    return out


def reference_sample_coloring(
    g: Graph,
    forest: TreedepthForest,
    L: dict,
    seed: int,
    request: Optional[Request] = None,
) -> dict:
    """One coloring drawn from the recursive distribution."""
    td, lists, k = _start(g, forest, L, request)
    rng = random.Random(seed)
    out = {}
    for comp in g.components():
        out.update(_sample(td, comp, lists, k, rng))
    check_coloring(g, L, out)
    return out


def _probability(td: _Td, comp: list, lists: dict, h: int, v: int, c: int) -> Fraction:
    root = _component_root(comp, td.forest)
    choices = sorted(lists[root])
    if len(choices) != h:
        raise PreconditionError(
            f"vertex {root} has list size {len(choices)} at a level "
            f"needing {h}"
        )
    if v == root:
        return Fraction(int(c in choices), h)
    total = Fraction(0)
    for rc in choices:
        sub_lists = _delete_and_trim(lists, comp, root, rc, td.prefs, h)
        for sub in _below(td, comp, root):
            if v in sub:
                total += Fraction(1, h) * _probability(
                    td, sub, sub_lists, h - 1, v, c
                )
                break
    return total


def _expected_weight(td: _Td, comp: list, lists: dict, h: int, weights: dict) -> Fraction:
    root = _component_root(comp, td.forest)
    total = Fraction(0)
    for rc in sorted(lists[root]):
        value = Fraction(0)
        if td.prefs.get(root) == rc:
            value += weights[root]
        if len(comp) > 1:
            sub_lists = _delete_and_trim(lists, comp, root, rc, td.prefs, h)
            for sub in _below(td, comp, root):
                value += _expected_weight(td, sub, sub_lists, h - 1, weights)
        total += Fraction(1, h) * value
    return total


def _derandomize(td: _Td, comp: list, lists: dict, h: int, weights: dict) -> dict:
    root = _component_root(comp, td.forest)
    best_c = None
    best_val = None
    for rc in sorted(lists[root]):
        value = Fraction(0)
        if td.prefs.get(root) == rc:
            value += weights[root]
        if len(comp) > 1:
            sub_lists = _delete_and_trim(lists, comp, root, rc, td.prefs, h)
            for sub in _below(td, comp, root):
                value += _expected_weight(td, sub, sub_lists, h - 1, weights)
        if best_val is None or value > best_val:
            best_c, best_val = rc, value
    out = {root: best_c}
    if len(comp) > 1:
        sub_lists = _delete_and_trim(lists, comp, root, best_c, td.prefs, h)
        for sub in _below(td, comp, root):
            out.update(_derandomize(td, sub, sub_lists, h - 1, weights))
    return out


def reference_exact_request_probability(
    g: Graph,
    forest: TreedepthForest,
    L: dict,
    v: int,
    c: int,
    request: Optional[Request] = None,
) -> Fraction:
    td, lists, k = _start(g, forest, L, request)
    for comp in g.components():
        if v in comp:
            return _probability(td, comp, lists, k, v, c)
    raise AssertionError(f"vertex {v} missing from every component")


def reference_derandomized_coloring(
    g: Graph, forest: TreedepthForest, L: dict, request: Request
) -> tuple:
    """(coloring, expectation) of the two-pass derandomizer."""
    td, lists, k = _start(g, forest, L, request)
    weights = {v: Fraction(w, request.scale) for (v, _), w in request.gain.items()}
    out = {}
    expectation = Fraction(0)
    for comp in g.components():
        expectation += _expected_weight(td, comp, lists, k, weights)
        out.update(_derandomize(td, comp, lists, k, weights))
    return out, expectation


def reference_b_value(g: Graph, L: dict, Rpp: set, prefs: dict, r: int) -> int:
    """Decrease in the number of bad components when r stops being
    precolored."""
    if r not in Rpp:
        raise PreconditionError(f"vertex {r} is not in the precolored set")
    c1 = sum(1 for rep in classify_components(g, L, Rpp, prefs) if rep.bad)
    c2 = sum(
        1 for rep in classify_components(g, L, Rpp - {r}, prefs) if rep.bad
    )
    return c1 - c2


# all ways to place three colors twice each over six positions, as
# color-index patterns in lexicographic order
_PATTERNS: tuple = tuple(sorted(set(permutations((0, 0, 1, 1, 2, 2)))))


def reference_seed_edge(u: int, v: int, Lu, Lv) -> Optional[list]:
    """Lexicographically smallest admissible six-coloring of one edge,
    or None if there is none."""
    cu = sorted(Lu)
    cv = sorted(Lv)
    for pat_u in _PATTERNS:
        us = tuple(cu[i] for i in pat_u)
        for pat_v in _PATTERNS:
            vs = tuple(cv[i] for i in pat_v)
            if any(a == b for a, b in zip(us, vs)):
                continue
            if len(set(zip(us, vs))) != 6:
                continue
            return [{u: a, v: b} for a, b in zip(us, vs)]
    return None


def reference_extend_values(us: tuple, vs: tuple, Lw) -> Optional[tuple]:
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


def reference_two_tree_family(g: Graph, order: KTreeOrder, L: dict) -> ColoringFamily:
    """The six colorings of a 2-tree, grown one dict per member by the
    seed search and the backtracking extension."""
    seq = order.sequence
    phis = reference_seed_edge(seq[0], seq[1], L[seq[0]], L[seq[1]])
    pos = order.position()
    for i in range(2, g.n):
        w = seq[i]
        u, v = sorted(
            (x for x in g.neighbors(w) if pos[x] < i), key=lambda x: pos[x]
        )
        values = reference_extend_values(
            tuple(phi[u] for phi in phis), tuple(phi[v] for phi in phis), L[w]
        )
        if values is None:
            raise InternalInvariantError(f"no admissible extension at vertex {w}")
        for phi, c in zip(phis, values):
            phi[w] = c
    return ColoringFamily(tuple(_column(phi, g.n) for phi in phis), 3)


def _column(phi: dict, n: int) -> tuple:
    """The coloring phi of vertices 0..n-1 as a vertex-indexed tuple."""
    return tuple(phi[v] for v in range(n))


def _lift(phi: tuple, ids: list) -> dict:
    return {ids[i]: c for i, c in enumerate(phi)}


def reference_lambda_family(
    g: Graph, order: KTreeOrder, lam: tuple, classes: tuple, L: dict
) -> ColoringFamily:
    """Every member of the family of list colorings on a k-tree with
    class-split lists, in the order the recursion lists them.  g, L and
    order must pass InstanceFile(g, L, ktree=order).validate() and the
    class checks of `treewidth.lambda_family`."""
    lam = tuple(lam)
    size = family_size(lam)
    fam = _reference_lambda_rec(g, order, lam, classes, L)
    if len(fam.members) != size:
        raise InternalInvariantError(
            f"family has {len(fam.members)} members, recurrence says {size}"
        )
    return fam


def _reference_lambda_rec(
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
                inner = _reference_lambda_rec(
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
                _column({**phi1, **phi2}, g.n)
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


def reference_best_of_family(family: ColoringFamily, request: Request) -> dict:
    """The first member, as a dict, with the largest `satisfied_count`;
    InternalInvariantError if it satisfies less than total/period."""
    best = None
    best_val = None
    for member in family.members:
        phi = dict(enumerate(member))
        val = satisfied_count(phi, request)
        if best_val is None or val > best_val:
            best, best_val = phi, val
    if best_val * family.period < request.total():
        raise InternalInvariantError(
            f"best member satisfies {best_val}, below "
            f"total/{family.period} of {request.total()}"
        )
    return best


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


def check_admissible_everywhere(g: Graph, L: dict, family: ColoringFamily) -> None:
    phis = list(family.members)
    for u, v in g.edges:
        if not is_admissible(phis, u, v, L[u], L[v]):
            raise InternalInvariantError(f"family not admissible at edge ({u},{v})")


def check_family(g: Graph, L: dict, family: ColoringFamily) -> dict:
    """Raise unless every member is a proper on-list coloring and each
    (vertex, list color) pair appears in exactly |members|/period
    members; return how often each pair appears."""
    members, period = family.members, family.period
    if not members or len(members) % period:
        raise InternalInvariantError(
            f"family size {len(members)} is not a multiple of {period}"
        )
    counts: dict = {}
    for phi in members:
        if len(phi) != g.n:
            raise InternalInvariantError(
                f"family member colors {len(phi)} vertices, expected {g.n}"
            )
        for v in range(g.n):
            if phi[v] not in L[v]:
                raise InternalInvariantError(
                    f"family member colors vertex {v} off-list"
                )
        for u, v in g.edges:
            if phi[u] == phi[v]:
                raise InternalInvariantError(
                    f"family member is improper at edge ({u},{v})"
                )
        for v, c in enumerate(phi):
            counts[(v, c)] = counts.get((v, c), 0) + 1
    m = len(members) // period
    for v in range(g.n):
        for c in L[v]:
            if counts.get((v, c), 0) != m:
                raise InternalInvariantError(
                    f"color {c} appears {counts.get((v, c), 0)} times at "
                    f"vertex {v}, expected {m}"
                )
    return counts


def _hyper_edge_connectivity(h: Hypergraph) -> int:
    """Edge connectivity, computed only far enough to compare with 3.

    Max-flow with unit capacity per hyperedge between vertex 0 and every
    other vertex; augmenting paths stop once 3 are found.
    """
    need = 3
    if h.n <= 1:
        return need
    # node ids: vertices 0..n-1, edge e -> in node n+2i, out node n+2i+1
    INF = len(h.edges) + need + 1
    best = need
    for t in range(1, h.n):
        cap: dict = {}

        def add(a, b, c):
            cap[(a, b)] = cap.get((a, b), 0) + c
            cap.setdefault((b, a), 0)

        adj: dict = {}
        for i, e in enumerate(h.edges):
            ein, eout = h.n + 2 * i, h.n + 2 * i + 1
            add(ein, eout, 1)
            adj.setdefault(ein, []).append(eout)
            adj.setdefault(eout, []).append(ein)
            for v in e:
                add(v, ein, INF)
                add(eout, v, INF)
                adj.setdefault(v, []).append(ein)
                adj.setdefault(ein, []).append(v)
                adj.setdefault(eout, []).append(v)
                adj.setdefault(v, []).append(eout)
        flow = 0
        while flow < best:
            # BFS augmenting path from 0 to t
            prev = {0: None}
            q = deque([0])
            while q and t not in prev:
                a = q.popleft()
                for b in adj.get(a, ()):
                    if b not in prev and cap.get((a, b), 0) > 0:
                        prev[b] = a
                        q.append(b)
            if t not in prev:
                break
            b = t
            while prev[b] is not None:
                a = prev[b]
                cap[(a, b)] -= 1
                cap[(b, a)] += 1
                b = a
            flow += 1
        best = min(best, flow)
        if best < need:
            return best
    return best


def is_three_edge_connected(h: Hypergraph) -> bool:
    return _hyper_edge_connectivity(h) >= 3


def _spanning_tree_edges(g: Graph, root: int) -> list:
    """BFS spanning tree as parent edges."""
    parent = {root: None}
    q = deque([root])
    edges = []
    while q:
        v = q.popleft()
        for u in g.neighbors(v):
            if u not in parent:
                parent[u] = v
                edges.append((v, u))
                q.append(u)
    if len(parent) != g.n:
        raise PreconditionError("graph is disconnected; no spanning tree")
    return edges


def reference_leaf_tree(g: Graph, R_pp: set, w: int) -> list:
    """The spanning tree the degeneracy pipeline walks, as an edge list:
    a BFS tree of the copy of g - R_pp induced from g, rooted at w, and
    each kept leaf r hung on its least neighbor outside R_pp."""
    core, core_ids = g.induced(v for v in range(g.n) if v not in R_pp)
    core_pos = {v: i for i, v in enumerate(core_ids)}
    tree = [
        (core_ids[a], core_ids[b])
        for a, b in _spanning_tree_edges(core, core_pos[w])
    ]
    for r in sorted(R_pp):
        anchor = min(u for u in g.neighbors(r) if u not in R_pp)
        tree.append((anchor, r))
    return tree


def reference_ordering_from_tree(
    g: Graph, tree_edges: Iterable[tuple], I: set, w: int
) -> DegeneracyOrdering:
    """Degeneracy order from a spanning tree whose leaves include I.

    Walk the tree minus I starting at the low-degree vertex w, then the
    I vertices; reversing the visit order gives a (maxdeg-1)-degeneracy
    order where every I vertex precedes all of its neighbors.
    """
    delta = g.max_degree()
    I = set(I)
    if g.degree(w) >= delta:
        raise PreconditionError(
            f"start vertex {w} has degree {g.degree(w)}, needs < {delta}"
        )
    if w in I:
        raise PreconditionError(f"start vertex {w} must not be in the leaf set")
    tree_adj: dict = {v: [] for v in range(g.n)}
    count = 0
    for u, v in tree_edges:
        if not g.has_edge(u, v):
            raise PreconditionError(f"tree edge ({u},{v}) is not a graph edge")
        tree_adj[u].append(v)
        tree_adj[v].append(u)
        count += 1
    if count != g.n - 1:
        raise PreconditionError(
            f"spanning tree needs {g.n - 1} edges, got {count}"
        )
    for v in I:
        for u in g.neighbors(v):
            if u in I:
                raise PreconditionError(
                    f"leaf set is not independent: edge ({v},{u})"
                )
        if len(tree_adj[v]) != 1:
            raise PreconditionError(
                f"vertex {v} has tree degree {len(tree_adj[v])}, not a leaf"
            )

    # preorder over the tree minus I, started at w
    visit = []
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        visit.append(v)
        for u in sorted(tree_adj[v], reverse=True):
            if u not in seen and u not in I:
                seen.add(u)
                stack.append(u)
    if len(visit) != g.n - len(I):
        raise PreconditionError(
            "tree minus the leaf set does not span the rest of the graph"
        )
    visit.extend(sorted(I))
    order = tuple(reversed(visit))
    first = first_among_neighbors(g, order)
    if not I <= first:
        raise InternalInvariantError(
            "a designated leaf does not precede all of its neighbors"
        )
    ordering = DegeneracyOrdering(order, delta - 1, first)
    ordering.validate(g)
    return ordering


def _bruteforce_blocks(g: Graph) -> list:
    """Blocks as maximal 2-connected-ish vertex sets, from first principles.

    A candidate set is a block iff it induces a connected subgraph with
    no cut vertex, uses at least one edge (or is a single vertex in an
    edgeless graph), and no strict superset does the same.
    """
    if g.n == 1:
        return [(0,)]
    candidates = []
    vs = list(range(g.n))
    for mask in range(1, 1 << g.n):
        sub_vs = [v for v in vs if mask >> v & 1]
        if len(sub_vs) < 2:
            continue
        sub, _ = g.induced(sub_vs)
        if not sub.is_connected() or sub.m == 0:
            continue
        if len(sub_vs) == 2:
            candidates.append(tuple(sub_vs))
            continue
        has_cut = False
        for i in range(sub.n):
            rest, _ = sub.induced([x for x in range(sub.n) if x != i])
            if not rest.is_connected():
                has_cut = True
                break
        if not has_cut:
            candidates.append(tuple(sub_vs))
    blocks = [
        c
        for c in candidates
        if not any(set(c) < set(d) for d in candidates if d != c)
    ]
    return sorted(blocks)


def bruteforce_bad_component(g: Graph, L: dict) -> bool:
    """Recompute the bad-component definition from scratch.

    Bad means every list is tight to the degree and every block induces
    a clique or an odd cycle.  Uses an independent block finder so it
    cross-validates the solver-side classification.
    """
    if g.n > 16:
        raise PreconditionError(f"brute-force block finder capped at 16, got {g.n}")
    g.require_connected()
    # empty lists are legal here: an isolated pruned vertex may have
    # lost every color, which is exactly the tight K_1 case
    if any(len(L[v]) != g.degree(v) for v in range(g.n)):
        return False
    for blk in _bruteforce_blocks(g):
        sub, _ = g.induced(blk)
        if sub.is_complete():
            continue
        if sub.is_cycle() and sub.n % 2 == 1:
            continue
        return False
    return True


def _connected_mask(adj_masks: list, mask: int) -> bool:
    if mask == 0:
        return False
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        v = stack.pop()
        new = adj_masks[v] & mask & ~seen
        while new:
            b = new & -new
            seen |= b
            stack.append(b.bit_length() - 1)
            new &= ~b
    return seen == mask


def exact_game_connectivity(g: Graph, cap: int = 16) -> tuple:
    """Worst case over requested sets of the best removable fraction.

    A subset is removable when the rest of the graph stays connected and
    every removed vertex keeps an outside neighbor.  Returns the value
    and one minimizing requested set.
    """
    g.require_connected()
    n = g.n
    if n > cap:
        raise BudgetExceededError(f"exact search capped at {cap} vertices, got {n}")
    if n == 0:
        raise PreconditionError("empty graph")
    adj_masks = [
        sum(1 << u for u in g.neighbors(v)) for v in range(n)
    ]
    full = (1 << n) - 1
    valid = [False] * (1 << n)
    valid[0] = True
    for m in range(1, 1 << n):
        rest = full & ~m
        if rest == 0 or not _connected_mask(adj_masks, rest):
            continue
        ok = True
        mm = m
        while mm:
            b = mm & -mm
            v = b.bit_length() - 1
            if not (adj_masks[v] & rest):
                ok = False
                break
            mm &= ~b
        valid[m] = ok
    best = [0] * (1 << n)
    for m in range(1, 1 << n):
        pc = m.bit_count()
        if valid[m]:
            best[m] = pc
        mm = m
        hi = 0
        while mm:
            b = mm & -mm
            hi = max(hi, best[m & ~b])
            mm &= ~b
        best[m] = max(best[m], hi)
    kappa = None
    witness = None
    for m in range(1, 1 << n):
        val = Fraction(best[m], m.bit_count())
        if kappa is None or val < kappa:
            kappa = val
            witness = m
    ws = tuple(v for v in range(n) if witness >> v & 1)
    return kappa, ws


def removable_ratio(g: Graph, R: Iterable[int]) -> Fraction:
    """Best fraction of R removable while keeping the rest connected and
    every removed vertex anchored outside.  Searches subsets of R only."""
    g.require_connected()
    R = sorted(set(R))
    if not R:
        raise PreconditionError("requested set must be non-empty")
    for size in range(len(R), 0, -1):
        for sub in combinations(R, size):
            rest = [v for v in range(g.n) if v not in sub]
            if not rest:
                continue
            rg, _ = g.induced(rest)
            if not rg.is_connected():
                continue
            outside = set(rest)
            if all(any(u in outside for u in g.neighbors(v)) for v in sub):
                return Fraction(size, len(R))
    return Fraction(0)


def leaf_ratio(g: Graph, R: Iterable[int]) -> Fraction:
    """Best fraction of R realizable as leaves of a spanning tree,
    by enumerating spanning trees outright."""
    R = set(R)
    if not R:
        raise PreconditionError("requested set must be non-empty")
    best = 0
    for leaves in _leaf_sets(g):
        best = max(best, len(R & leaves))
    return Fraction(best, len(R))


def _leaf_sets(g: Graph) -> set:
    """Leaf sets of all spanning trees (deduplicated)."""
    if g.n == 1:
        return {frozenset([0])}
    out = set()
    edges = g.edges
    for subset in combinations(range(len(edges)), g.n - 1):
        uf = _UnionFind(g.n)
        ok = True
        deg = [0] * g.n
        for i in subset:
            u, v = edges[i]
            if not uf.union(u, v):
                ok = False
                break
            deg[u] += 1
            deg[v] += 1
        if ok:
            out.add(frozenset(v for v in range(g.n) if deg[v] == 1))
    return out


def game_connectivity_by_trees(g: Graph, cap: int = 8) -> Fraction:
    """Spanning-tree formulation of game connectivity, for cross-checks."""
    g.require_connected()
    if g.n > cap:
        raise BudgetExceededError(f"tree enumeration capped at {cap} vertices")
    masks = [sum(1 << v for v in ls) for ls in _leaf_sets(g)]
    kappa = None
    for m in range(1, 1 << g.n):
        best = max((m & lm).bit_count() for lm in masks)
        val = Fraction(best, m.bit_count())
        if kappa is None or val < kappa:
            kappa = val
    return kappa


def reference_power(g: Graph, d: int) -> Graph:
    """Graph with edges between distinct vertices at distance <= d in g,
    from a d-step breadth-first search per source."""
    if d < 1:
        raise PreconditionError(f"power must be >= 1, got {d}")
    edges = []
    for s in range(g.n):
        seen = {s}
        frontier = [s]
        for _ in range(d):
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        edges.extend((s, t) for t in sorted(seen) if t > s)
    return Graph._from_sorted(g.n, edges)


def reference_forest_error(forest: TreedepthForest, g: Graph) -> Optional[str]:
    """The message of the first error in the forest as a treedepth
    certificate of g, or None."""
    parent = forest.parent
    if len(parent) != g.n:
        return f"forest covers {len(parent)} vertices, graph has {g.n}"

    def ancestors(v):
        out = set()
        while parent[v] is not None:
            v = parent[v]
            out.add(v)
        return out

    for v in range(g.n):
        seen = {v}
        u = parent[v]
        while u is not None:
            if u in seen:
                return f"parent cycle through vertex {v}"
            seen.add(u)
            u = parent[u]
    for u, v in g.edges:
        if u not in ancestors(v) and v not in ancestors(u):
            return f"edge ({u},{v}) joins vertices unrelated in the forest"
    return None
