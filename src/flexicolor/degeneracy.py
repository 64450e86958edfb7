"""Flexible degeneracy orderings.

A reversed walk of a spanning tree turns its leaves into vertices that
precede all their neighbors in a (maxdeg-1)-degeneracy order.  The tree
is a BFS tree of g minus the leaves with the leaves hung on it, and it
is walked as the BFS discovers it, never built.  For 3-connected
non-regular graphs, a hypergraph spanning-set recursion keeps a constant
fraction of any requested set as such leaves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import InternalInvariantError, PreconditionError
from .graph import Graph, block_cut_tree, proper_coloring
from .maxdeg import best_class


@dataclass(frozen=True)
class DegeneracyOrdering:
    """Vertex order with a back-degree bound and a first-among-neighbors
    set."""

    order: tuple
    k: int
    first: frozenset

    def validate(self, g: Graph) -> None:
        if sorted(self.order) != list(range(g.n)):
            raise PreconditionError("order is not a permutation of the vertices")
        stray = sorted(v for v in self.first if not 0 <= v < g.n)
        if stray:
            raise PreconditionError(
                f"first-among-neighbors vertex {stray[0]} outside 0..{g.n - 1}"
            )
        pos = {v: i for i, v in enumerate(self.order)}
        for v in range(g.n):
            back = sum(1 for u in g.neighbors(v) if pos[u] < pos[v])
            if back > self.k:
                raise PreconditionError(
                    f"vertex {v} has {back} earlier neighbors, bound is {self.k}"
                )
        for v in self.first:
            for u in g.neighbors(v):
                if pos[u] < pos[v]:
                    raise PreconditionError(
                        f"vertex {v} is marked first among neighbors but "
                        f"{u} precedes it"
                    )


def first_among_neighbors(g: Graph, order: tuple) -> frozenset:
    """The vertices that come before all of their neighbors in order, a
    permutation of g's vertices."""
    pos = {v: i for i, v in enumerate(order)}
    return frozenset(
        v for v in range(g.n) if all(pos[u] > pos[v] for u in g.neighbors(v))
    )


def _leaves_first_order(g: Graph, I: set, w: int) -> tuple:
    """The spanning-tree walk, with no tree built: a BFS of g - I from w
    over g's sorted adjacency, in which each vertex's children are the
    vertices it discovers, walked in preorder with children ascending;
    then I ascending, and the whole visit reversed.  Every I vertex comes
    before all of its neighbors, and every other vertex but w before its
    BFS parent.  Leaves out the vertices that g - I does not connect
    to w."""
    children = {}
    seen = I | {w}
    queue = [w]
    for v in queue:
        kids = [u for u in g.neighbors(v) if u not in seen]
        seen.update(kids)
        queue.extend(kids)
        children[v] = kids
    visit, stack = [], [w]
    while stack:
        v = stack.pop()
        visit.append(v)
        stack.extend(reversed(children[v]))
    visit.extend(sorted(I))
    return tuple(reversed(visit))


def _leaves_first_ordering(g: Graph, I: set, w: int) -> DegeneracyOrdering:
    """The (maxdeg-1)-degeneracy ordering of the walk from w, checked:
    g - I is connected, every I vertex precedes all of its neighbors, and
    no vertex has more than maxdeg-1 earlier neighbors."""
    order = _leaves_first_order(g, I, w)
    if len(order) != g.n:
        raise InternalInvariantError(
            "graph minus the kept leaves is disconnected"
        )
    first = first_among_neighbors(g, order)
    if not I <= first:
        raise InternalInvariantError(
            "a designated leaf does not precede all of its neighbors"
        )
    ordering = DegeneracyOrdering(order, g.max_degree() - 1, first)
    ordering.validate(g)
    return ordering


# ---------------------------------------------------------------------------
# Hypergraphs and the spanning-set recursion


def epsilon_table(d_max: int) -> dict:
    """Avoidable-fraction constants: 1/3 at size 2, then
    eps(d) = 3 eps' / (d + 3 eps') with eps' taken at ceil(d/3 + 1)."""
    table = {2: Fraction(1, 3)}
    for d in range(3, d_max + 1):
        ep = table[(d + 5) // 3]
        table[d] = 3 * ep / (d + 3 * ep)
    return table


def epsilon_value(d: int) -> Fraction:
    if d < 2:
        raise PreconditionError(f"edge size bound must be >= 2, got {d}")
    return epsilon_table(d)[d]


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..n-1; edges are vertex subsets, singletons and
    repeated edges allowed."""

    n: int
    edges: tuple

    @staticmethod
    def build(n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        out = []
        for e in edges:
            vs = tuple(sorted(set(e)))
            if not vs:
                raise PreconditionError("empty hyperedge not allowed")
            for v in vs:
                if not (0 <= v < n):
                    raise PreconditionError(f"hyperedge vertex {v} out of range")
            out.append(vs)
        return Hypergraph(n, tuple(out))

    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _components_touched(uf: _UnionFind, e: tuple) -> set:
    return {uf.find(v) for v in e}


def _merge(uf: _UnionFind, roots) -> int:
    """Union the components of the distinct roots into the least one;
    the number of unions made."""
    roots = sorted(roots)
    return sum(uf.union(roots[0], r) for r in roots[1:])


def hypergraph_spanning_set(h: Hypergraph, d: int) -> list:
    """Indices of a connected spanning edge set of size at most
    (1 - eps(d)) |E|.

    Size-2 case takes a spanning tree.  Otherwise edges meeting many
    components are collected greedily; depending on how many were
    found, the set is either completed with component-merging edges or
    the components are contracted and the recursion continues with a
    smaller edge-size bound.

    h must be 3-edge-connected, which is not checked: the pipeline's
    hypergraph is, because g is 3-connected and removing two hyperedges
    removes two vertices of g.  The result is checked to span h.
    """
    if d < 2:
        raise PreconditionError(f"edge size bound must be >= 2, got {d}")
    if h.max_edge_size() > d:
        raise PreconditionError(
            f"hyperedge of size {h.max_edge_size()} exceeds the bound {d}"
        )
    n, E = h.n, h.edges
    result = _spanning_set_rec(h, d)
    uf = _UnionFind(n)
    comps = n - sum(_merge(uf, _components_touched(uf, E[i])) for i in result)
    if comps != 1:
        raise InternalInvariantError("selected edges do not span the hypergraph")
    eps = epsilon_value(d)
    if len(result) > (1 - eps) * len(E):
        raise InternalInvariantError(
            f"selected {len(result)} of {len(E)} edges, above the "
            f"(1 - {eps}) bound"
        )
    return sorted(result)


def _spanning_set_rec(h: Hypergraph, d: int) -> list:
    n, E = h.n, h.edges
    if n <= 1:
        return []
    if d == 2:
        uf = _UnionFind(n)
        out = []
        for i, e in enumerate(E):
            if len(e) == 2 and uf.union(e[0], e[1]):
                out.append(i)
        return out

    need = (d + 8) // 3  # ceil(d/3 + 2)
    uf = _UnionFind(n)
    comps = n
    A1, a1_set = [], set()
    progress = True
    while progress:
        progress = False
        for i, e in enumerate(E):
            if i in a1_set:
                continue
            touched = _components_touched(uf, e)
            if len(touched) >= need:
                comps -= _merge(uf, touched)
                A1.append(i)
                a1_set.add(i)
                progress = True

    k = Fraction(3, d)
    if d == 3:
        alpha_min = Fraction(1, 4)
    else:
        ep = epsilon_value((d + 5) // 3)
        alpha_min = (k * ep - k + 1) / (1 + k * ep)
    if Fraction(len(A1)) >= alpha_min * k * n:
        # complete with component-merging edges, in input order
        out = list(A1)
        for i, e in enumerate(E):
            if comps == 1:
                break
            touched = _components_touched(uf, e)
            if len(touched) > 1:
                comps -= _merge(uf, touched)
                out.append(i)
        return out

    # contract the components and recurse with smaller edges
    root_ids: dict = {}
    for v in range(n):
        r = uf.find(v)
        if r not in root_ids:
            root_ids[r] = len(root_ids)
    back = []
    small_edges = []
    for i, e in enumerate(E):
        if i in a1_set:
            continue
        contracted = tuple(sorted({root_ids[uf.find(v)] for v in e}))
        small_edges.append(contracted)
        back.append(i)
    # each uncollected edge meets fewer than `need` components, and a cut
    # of the contraction is a cut of h that no A1 edge crosses, so the
    # contraction is 3-edge-connected with edges of size <= need - 1
    chosen = _spanning_set_rec(Hypergraph(len(root_ids), tuple(small_edges)), need - 1)
    return list(A1) + [back[i] for i in chosen]


# ---------------------------------------------------------------------------
# The full pipeline on 3-connected non-regular graphs


def is_three_connected(g: Graph) -> bool:
    """Exact vertex 3-connectivity: removal of any two vertices leaves a
    connected graph on at least one vertex.

    Equivalently, for every vertex a, g - a is connected and has no cut
    vertex; one block-cut tree per a decides that, O(n (n + m)) in all.
    """
    if g.n < 4:
        return False
    if not g.is_connected():
        return False
    for a in range(g.n):
        rest, _ = g.induced(v for v in range(g.n) if v != a)
        if not rest.is_connected() or block_cut_tree(rest).cut_vertices:
            return False
    return True


@dataclass
class DegeneracyOutcome:
    ordering: DegeneracyOrdering
    satisfied: int  # |first-among-neighbors  intersect  requested|
    certified_fraction: Fraction
    request_size: int
    trace: dict = field(default_factory=dict)


def certified_fraction(g: Graph, R0: set) -> tuple:
    """The fraction of the requested set R0 that flexible_degeneracy_order
    certifies, the greedy coloring whose color count chi it is counted
    from, and the vertex w the ordering ends with: eps(maxdeg)/(2 chi),
    or 0 with no coloring (None) when R0 holds nothing but w.  w is the
    least vertex below the maximum degree outside R0, or the least one
    below it when R0 holds them all."""
    delta = g.max_degree()
    low = [v for v in range(g.n) if g.degree(v) < delta]
    if not low:
        raise PreconditionError("graph is regular; a lower-degree vertex is required")
    outside = [v for v in low if v not in R0]
    w = min(outside) if outside else min(low)
    if not R0 - {w}:
        return Fraction(0), None, w
    coloring = proper_coloring(g, 1, "greedy")
    return epsilon_value(delta) / (2 * len(set(coloring.values()))), coloring, w


def flexible_degeneracy_order(g: Graph, R0: Iterable[int]) -> DegeneracyOutcome:
    """Degeneracy ordering putting a certified fraction of the requested
    vertices before all of their neighbors.

    Pipeline: drop the reserved low-degree vertex, take an independent
    subset from a greedy coloring, build the component hypergraph, keep
    the spanning-set complement as leaves of a spanning tree, and walk
    that tree from the reserved vertex as a BFS of g minus the leaves
    discovers it; the tree itself is never built.
    """
    R0 = set(R0)
    for v in R0:
        if not (0 <= v < g.n):
            raise PreconditionError(f"requested vertex {v} out of range")
    delta = g.max_degree()
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    certified, coloring, w = certified_fraction(g, R0)
    if not is_three_connected(g):
        raise PreconditionError("graph is not 3-connected")
    if R0 == {w} and all(g.degree(v) == delta for v in range(g.n) if v != w):
        raise PreconditionError(
            f"request consisting only of the unique low-degree vertex "
            f"{w} is excluded"
        )

    if coloring is None:
        ordering = _leaves_first_ordering(g, set(), w)
        return DegeneracyOutcome(
            ordering, 0, certified, len(R0), {"note": "empty request"}
        )

    R_prime = best_class(coloring, R0 - {w})
    chi_hat = len(set(coloring.values()))
    eps = epsilon_value(delta)

    comps = g.components_without(R_prime)
    comp_of = {v: ci for ci, (comp, _) in enumerate(comps) for v in comp}
    r_list = sorted(R_prime)
    hyper = Hypergraph.build(
        len(comps),
        [
            sorted({comp_of[u] for u in g.neighbors(r)})
            for r in r_list
        ],
    )
    chosen = hypergraph_spanning_set(hyper, delta)
    R_plus = {r_list[i] for i in chosen}
    R_pp = R_prime - R_plus
    if len(R_pp) * 1 < eps * len(R_prime):
        raise InternalInvariantError(
            f"kept {len(R_pp)} of {len(R_prime)} independent requests, "
            f"below the {eps} fraction"
        )

    ordering = _leaves_first_ordering(g, R_pp, w)
    satisfied = len(ordering.first & R0)
    if satisfied < certified * len(R0):
        raise InternalInvariantError(
            f"{satisfied} satisfied requests fall below the certified "
            f"fraction {certified} of {len(R0)}"
        )
    trace = {
        "w": w,
        "chi_hat": chi_hat,
        "epsilon": eps,
        "R_prime": sorted(R_prime),
        "R_plus": sorted(R_plus),
        "R_pp": sorted(R_pp),
    }
    return DegeneracyOutcome(ordering, satisfied, certified, len(R0), trace)
