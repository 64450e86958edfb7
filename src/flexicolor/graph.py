"""Simple undirected graphs and the structural decompositions the solvers
rely on: block-cut trees, k-tree orders, treedepth forests and colorings
of g and of its powers, the latter read off g by bounded walks.

Vertices are dense integers 0..n-1.  All values are immutable after
construction; every tie-break is by smallest vertex id or smallest color.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from typing import Container, Iterable, Optional

from .errors import (
    DisconnectedGraphError,
    InternalInvariantError,
    PreconditionError,
)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.  It keeps
    one value per fact, rebuilt when its inputs differ (see `fact`)."""

    __slots__ = ("n", "_adj", "_edges", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise PreconditionError(f"vertex count must be non-negative, got {n}")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"loop at vertex {u} not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise PreconditionError(f"parallel edge ({e[0]},{e[1]}) not allowed")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._edges = tuple(sorted(seen))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._facts = {}

    @classmethod
    def _from_sorted(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Trusted constructor for edges already known to be pairs
        0 <= u < v < n in strictly increasing order.  Each vertex then
        receives its smaller neighbours in increasing order before its
        larger ones, so its adjacency comes out sorted with no check or
        sort; the result equals Graph(n, edges)."""
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        g = object.__new__(cls)
        g.n = n
        g._edges = tuple(edges)
        g._adj = tuple(map(tuple, adj))
        g._facts = {}
        return g

    def fact(self, name, key, build):
        """build(), kept under name with key, the inputs it was built
        from, and returned while the kept key is key or equals it; another
        key builds again.  A build that raises keeps nothing.  Callers
        share the value, so it must not be mutated."""
        kept = self._facts.get(name)
        if kept is None or not (kept[0] is key or kept[0] == key):
            kept = self._facts[name] = (key, build())
        return kept[1]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """A binary search of u's sorted adjacency: O(log deg u)."""
        adj = self._adj[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def components(
        self, within: Optional[Iterable[int]] = None
    ) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex.
        With `within`, those of the subgraph the given vertices induce,
        found by walking their adjacency only."""
        if within is None:
            vertices = range(self.n)
            unseen = [True] * self.n
        else:
            vertices = sorted(set(within))
            unseen = defaultdict(bool, dict.fromkeys(vertices, True))
        adj = self._adj
        comps = []
        for s in vertices:
            if not unseen[s]:
                continue
            comp = []
            stack = [s]
            unseen[s] = False
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in adj[v]:
                    if unseen[u]:
                        unseen[u] = False
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def require_connected(self) -> None:
        comps = self.components()
        if len(comps) > 1:
            raise DisconnectedGraphError(comps[0], comps[1])

    def bfs_distances(self, source: int) -> list[int]:
        """Distances from source; unreachable vertices get -1."""
        dist = [-1] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            v = q.popleft()
            for u in self._adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    q.append(u)
        return dist

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph; returns (graph, original ids by new id)."""
        ids = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(ids)}
        edges = [
            (pos[u], pos[v])
            for u, v in self._edges
            if u in pos and v in pos
        ]
        return Graph._from_sorted(len(ids), edges), ids

    def component_without(
        self, source: int, removed: Container[int]
    ) -> tuple[list[int], "Graph"]:
        """The component of source once the vertices in `removed` (other
        than source) are deleted: its sorted vertices and the subgraph
        they induce, vertex i standing for the i-th of them.  Walks only
        that component's adjacency."""
        adj = self._adj
        comp = [source]
        seen = {source}
        for v in comp:
            for u in adj[v]:
                if u not in seen and u not in removed:
                    seen.add(u)
                    comp.append(u)
        comp.sort()
        pos = {v: i for i, v in enumerate(comp)}
        edges = [
            (pos[v], pos[u]) for v in comp for u in adj[v] if v < u and u in pos
        ]
        return comp, Graph._from_sorted(len(comp), edges)

    def components_without(
        self, removed: Container[int]
    ) -> list[tuple[list[int], "Graph"]]:
        """Every component of the graph minus `removed`, ordered by
        smallest vertex, each as component_without gives it."""
        out = []
        done: set[int] = set()
        for s in range(self.n):
            if s in removed or s in done:
                continue
            comp, sub = self.component_without(s, removed)
            done.update(comp)
            out.append((comp, sub))
        return out

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def is_cycle(self) -> bool:
        return (
            self.n >= 3
            and self.m == self.n
            and all(len(a) == 2 for a in self._adj)
            and self.is_connected()
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Block-cut tree


@dataclass(frozen=True)
class Block:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    tag: str  # "clique" | "odd-cycle" | "other"
    terminal: bool


@dataclass(frozen=True)
class BlockCutTree:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]


def _block_tag(k: int, m: int) -> str:
    """Tag of a block with k vertices and m edges.  A block is a bridge
    or 2-connected, so it is a clique exactly when m = k(k-1)/2 and a
    cycle exactly when m = k.  Precedence clique > odd-cycle, so K3 is
    tagged "clique"."""
    if m == k * (k - 1) // 2:
        return "clique"
    if m == k and k % 2 == 1:
        return "odd-cycle"
    return "other"


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Blocks and cut vertices of a connected graph; a block is terminal
    when it holds at most one cut vertex (a leaf of the block-cut tree).
    Iterative Hopcroft-Tarjan on the edge stack."""
    if g.n < 1:
        raise PreconditionError("graph must have at least one vertex")
    g.require_connected()
    if g.n == 1:
        blk = Block((0,), (), "clique", True)
        return BlockCutTree((blk,), frozenset())

    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cut = [False] * g.n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []
    timer = 0

    for root in range(g.n):
        if disc[root] >= 0:
            continue
        root_children = 0
        stack = [(root, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] < 0:
                    parent[u] = v
                    if v == root:
                        root_children += 1
                    edge_stack.append((v, u))
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, iter(g.neighbors(u))))
                    advanced = True
                    break
                elif u != parent[v] and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    if p != root or root_children >= 1:
                        # pop the block delimited by edge (p, v)
                        blk = []
                        while edge_stack:
                            e = edge_stack.pop()
                            blk.append(e)
                            if e == (p, v):
                                break
                        raw_blocks.append(blk)
                    if p != root:
                        cut[p] = True
        if root_children >= 2:
            cut[root] = True

    blocks = []
    for blk_edges in raw_blocks:
        vs = tuple(sorted({x for e in blk_edges for x in e}))
        es = tuple(sorted((u, v) if u < v else (v, u) for u, v in blk_edges))
        blocks.append((vs, es))
    blocks.sort()

    cut_vertices = frozenset(v for v in range(g.n) if cut[v])
    final_blocks = []
    for vs, es in blocks:
        terminal = sum(1 for v in vs if v in cut_vertices) <= 1
        final_blocks.append(Block(vs, es, _block_tag(len(vs), len(es)), terminal))
    return BlockCutTree(tuple(final_blocks), cut_vertices)


# ---------------------------------------------------------------------------
# Proper colorings: greedy, degree-choosable lists, Brooks


class BrooksObstructionError(PreconditionError):
    """Brooks mode was asked for a complete graph or an odd cycle."""

    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"Brooks coloring impossible: graph is a {kind}")


def _decreasing_distance_order(g: Graph, root: int) -> list[int]:
    dist = g.bfs_distances(root)
    return sorted(range(g.n), key=lambda v: (-dist[v], v))


def _list_greedy(g: Graph, lists, order: Iterable[int], color: dict) -> dict:
    """Extend `color` over `order`: each vertex takes the first color of
    its ascending list that no colored neighbor has.  The constructions
    below order the vertices so that one is always left."""
    for v in order:
        used = {color[u] for u in g.neighbors(v) if u in color}
        c = next(filterfalse(used.__contains__, lists[v]), None)
        if c is None:
            raise InternalInvariantError(f"greedy ran out of colors at vertex {v}")
        color[v] = c
    return color


def _slack_greedy(g: Graph, lists) -> Optional[dict]:
    """Greedy in decreasing distance from the first vertex whose list is
    longer than its degree, or None when every list is tight.  Every
    other vertex has a nearer neighbor, colored after it, so it keeps a
    free color; the root has more colors than neighbors."""
    root = next((v for v in range(g.n) if len(lists[v]) > g.degree(v)), None)
    if root is None:
        return None
    return _list_greedy(g, lists, _decreasing_distance_order(g, root), {})


def _greedy_after(g: Graph, lists, color: dict, root: int) -> Optional[dict]:
    """Extend `color` greedily over the uncolored vertices in decreasing
    distance from root among them, or None when they are disconnected."""
    rest, ids = g.induced(v for v in range(g.n) if v not in color)
    if not rest.is_connected():
        return None
    order = [ids[i] for i in _decreasing_distance_order(rest, ids.index(root))]
    return _list_greedy(g, lists, order, color)


def _color_block(b: Graph, lists: list) -> dict:
    """Coloring of a 2-connected graph, neither a clique nor an odd
    cycle, from ascending lists with len(lists[x]) >= deg(x)."""
    color = _slack_greedy(b, lists)
    if color is not None:
        return color
    sets = list(map(set, lists))
    for u in range(b.n):
        for v in b.neighbors(u):
            if sets[u] - sets[v]:
                # b - u is connected and v keeps deg(v) colors with one
                # neighbor fewer: v is a slack root there
                return _greedy_after(b, lists, {u: min(sets[u] - sets[v])}, v)
    # adjacent lists are equal, so all are, and b is regular
    palette = lists[0]
    if len(palette) == 2:  # an even cycle
        dist = b.bfs_distances(0)
        return {x: palette[dist[x] % 2] for x in range(b.n)}
    return {x: palette[i] for x, i in _brooks_two_connected(b, len(palette)).items()}


def choosable_coloring(g: Graph, lists) -> Optional[dict]:
    """Proper coloring of a connected graph from ascending lists with
    len(lists[v]) >= deg(v), built as the degree-choosability proof
    builds it (Borodin 1977; Erdős, Rubin and Taylor 1979), with no
    search.  Each vertex takes the first free color of its list.

    With a slack vertex, greedy from it.  Otherwise the vertices off the
    first block B that is neither a clique nor an odd cycle are colored
    greedily towards B, which leaves each vertex x of B at least
    deg_B(x) colors, and B is colored by `_color_block`.  None when
    every list is tight and every block is a clique or an odd cycle (a
    tight Gallai tree), the one case that may have no coloring.
    """
    color = _slack_greedy(g, lists)
    if color is not None:
        return color
    blk = next((b for b in block_cut_tree(g).blocks if b.tag == "other"), None)
    if blk is None:
        return None
    inside = set(blk.vertices)
    order = _decreasing_distance_order(g, blk.vertices[0])
    color = _list_greedy(g, lists, [v for v in order if v not in inside], {})
    b, ids = (g, range(g.n)) if len(inside) == g.n else g.induced(inside)
    left = []
    for v in ids:
        taken = {color[u] for u in g.neighbors(v) if u in color}
        left.append([c for c in lists[v] if c not in taken])
    for x, c in _color_block(b, left).items():
        color[ids[x]] = c
    return color


def _brooks_coloring(g: Graph) -> dict[int, int]:
    """Proper coloring of a connected graph with at most max_degree
    colors: the degree-choosable construction with every list
    range(max_degree).  It is checked at every edge."""
    g.require_connected()
    delta = g.max_degree()
    if g.is_complete():
        raise BrooksObstructionError("complete graph")
    if g.is_cycle() and g.n % 2 == 1:
        raise BrooksObstructionError("odd cycle")
    color = choosable_coloring(g, [range(delta)] * g.n)
    if color is None:
        # a regular Gallai tree is a single clique or odd cycle
        raise InternalInvariantError("Brooks coloring met a tight Gallai tree")
    for u, v in g.edges:
        if color[u] == color[v]:
            raise InternalInvariantError(f"improper Brooks coloring at edge ({u},{v})")
    return color


def _brooks_two_connected(g: Graph, delta: int) -> dict[int, int]:
    # find a with non-adjacent neighbors b, c whose removal keeps g
    # connected; colored alike, they leave a a free color
    for a in range(g.n):
        nbrs = g.neighbors(a)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                b, c = nbrs[i], nbrs[j]
                if g.has_edge(b, c):
                    continue
                color = _greedy_after(g, [range(delta)] * g.n, {b: 0, c: 0}, a)
                if color is not None:
                    return color
    # Lovasz: every 2-connected Delta-regular non-complete graph with
    # Delta >= 3 has such a triple
    raise InternalInvariantError(
        "no Brooks triple in a 2-connected regular non-complete graph"
    )


def _greedy_coloring(g: Graph, power: int) -> dict[int, int]:
    """The greedy coloring of g^power that proper_coloring describes."""
    adj, col = g._adj, [-1] * g.n
    for s in range(g.n):
        # the ball of radius `power` around s, by breadth-first search
        ball, frontier = {s}, [s]
        for _ in range(power):
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in ball:
                        ball.add(u)
                        nxt.append(u)
            frontier = nxt
        used = {col[u] for u in ball}
        c = 0
        while c in used:
            c += 1
        col[s] = c
    return dict(enumerate(col))


def proper_coloring(g: Graph, power: int, mode: str) -> dict[int, int]:
    """Proper coloring of g^power, which joins the vertices at distance
    <= power in g.  mode "greedy" gives each vertex in id order the least
    color missing from its ball of radius `power`, found by a walk in g,
    so g^power is never built; mode "brooks" colors g (power 1 only) with
    at most maxdeg colors and fails on complete graphs and odd cycles.

    Each (power, mode) is colored once per graph: g keeps the coloring
    as a fact and every call gets a copy of it.  A call that raises keeps
    nothing.
    """
    if power not in (1, 3):
        raise PreconditionError(f"power must be 1 or 3, got {power}")
    if mode not in ("greedy", "brooks"):
        raise PreconditionError(f"unknown coloring mode {mode!r}")
    if mode == "brooks" and power != 1:
        raise PreconditionError(f"Brooks coloring needs power 1, got {power}")
    return dict(g.fact((power, mode), None, lambda: (
        _greedy_coloring(g, power) if mode == "greedy" else _brooks_coloring(g)
    )))


# ---------------------------------------------------------------------------
# k-tree orders


@dataclass(frozen=True)
class KTreeOrder:
    """Construction order of a k-tree: v_1..v_n with k back-neighbors each."""

    k: int
    sequence: tuple[int, ...]

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.sequence)}


@dataclass(frozen=True)
class OrderViolation:
    index: int  # position in the sequence (0-based), or -1 for global issues
    message: str


def validate_ktree_order(g: Graph, order: KTreeOrder) -> Optional[OrderViolation]:
    """None if the order certifies g as a k-tree, else the first violation."""
    k, seq = order.k, order.sequence
    if k < 0:
        return OrderViolation(-1, f"width {k} is negative")
    if sorted(seq) != list(range(g.n)):
        return OrderViolation(-1, "sequence is not a permutation of the vertices")
    if k == 0:
        if g.m > 0:
            u, v = g.edges[0]
            return OrderViolation(-1, f"0-tree must be edgeless but has edge ({u},{v})")
        return None
    if g.n < k:
        return OrderViolation(-1, f"need at least {k} vertices for width {k}")
    pos = order.position()
    head = seq[:k]
    for i, u in enumerate(head):
        for v in head[i + 1 :]:
            if not g.has_edge(u, v):
                return OrderViolation(
                    max(pos[u], pos[v]),
                    f"initial vertices {u} and {v} are not adjacent",
                )
    for i in range(k, g.n):
        v = seq[i]
        back = [u for u in g.neighbors(v) if pos[u] < i]
        if len(back) != k:
            return OrderViolation(
                i, f"vertex {v} has {len(back)} back-neighbors, expected {k}"
            )
        for a in range(len(back)):
            for b in range(a + 1, len(back)):
                if not g.has_edge(back[a], back[b]):
                    return OrderViolation(
                        i,
                        f"back-neighbors {back[a]} and {back[b]} of vertex {v} "
                        "are not adjacent",
                    )
    return None


# ---------------------------------------------------------------------------
# Treedepth forests


@dataclass(frozen=True)
class TreedepthForest:
    """Rooted forest on the vertices of a graph, closure-containing it."""

    parent: tuple[Optional[int], ...]  # parent[v] is None for roots

    @cached_property
    def _tour(self) -> tuple[list[int], list[int], list[int]]:
        """Depth, preorder index and subtree size of every vertex, from one
        walk down from the roots.  The vertices it misses lie on or lead
        into a parent cycle; the least of them is named in the error."""
        n = len(self.parent)
        children: list[list[int]] = [[] for _ in range(n)]
        stack = []
        for v, p in enumerate(self.parent):
            (stack if p is None else children[p]).append(v)
        depth, pre, size = [0] * n, [-1] * n, [1] * n
        order = []
        while stack:
            v = stack.pop()
            pre[v] = len(order)
            order.append(v)
            for c in children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        if len(order) < n:
            raise PreconditionError(f"parent cycle through vertex {pre.index(-1)}")
        for v in reversed(order):
            if self.parent[v] is not None:
                size[self.parent[v]] += size[v]
        return depth, pre, size

    def depth(self, v: int) -> int:
        return self._tour[0][v]

    def height(self) -> int:
        """Vertices on the longest root-to-leaf path."""
        return max(self._tour[0], default=-1) + 1

    def is_ancestor(self, u: int, v: int) -> bool:
        """Whether u is strictly above v, from their preorder intervals."""
        _, pre, size = self._tour
        return pre[u] < pre[v] < pre[u] + size[u]

    def validate(self, g: Graph) -> None:
        if len(self.parent) != g.n:
            raise PreconditionError(
                f"forest covers {len(self.parent)} vertices, graph has {g.n}"
            )
        self._tour  # raises on a parent cycle, edges or not
        for u, v in g.edges:
            if not (self.is_ancestor(u, v) or self.is_ancestor(v, u)):
                raise PreconditionError(
                    f"edge ({u},{v}) joins vertices unrelated in the forest"
                )
