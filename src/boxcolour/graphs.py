"""Simple undirected graphs, standard generators, and the cartesian product.

Vertices are always 0..n-1.  Edges are stored as sorted (u, v) pairs in
lexicographic order, so edge indices are stable across runs and output is
byte-for-byte reproducible.  Graphs are immutable after construction; degrees
and adjacency are precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph with stable vertex and edge indexing.

    `labels`, when present, carry provenance such as product coordinate
    tuples; they take no part in equality, which is purely structural
    (same n, same edge set).
    """

    __slots__ = ("n", "edges", "labels", "degrees", "_adj", "_incident", "_index")

    def __init__(self, n: int, edges: Iterable[Sequence[int]], labels: Optional[Sequence] = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[Edge] = set()
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add(_norm_edge(u, v))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
            if len(set(labels)) != n:
                raise ValueError("labels must be pairwise distinct")
        self._build(n, tuple(sorted(seen)), labels)

    @classmethod
    def _from_sorted(
        cls, n: int, edges: Sequence[Edge], labels: Optional[tuple] = None
    ) -> "Graph":
        """Trusted constructor for edges already in range, normalized, sorted
        and distinct, and labels (if any) already one per vertex and distinct."""
        g = object.__new__(cls)
        g._build(n, tuple(edges), labels)
        return g

    def _build(self, n: int, edges: tuple[Edge, ...], labels: Optional[tuple]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

        adj: list[list[int]] = [[] for _ in range(n)]
        incident: list[list[int]] = [[] for _ in range(n)]
        index: dict[Edge, int] = {}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append(v)
            adj[v].append(u)
            incident[u].append(i)
            incident[v].append(i)
            index[(u, v)] = i
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_incident", tuple(tuple(a) for a in incident))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "degrees", tuple(len(a) for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices into `edges` of the edges incident to v."""
        return self._incident[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._index

    def edge_index(self, u: int, v: int) -> int:
        return self._index[_norm_edge(u, v)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Generators


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(m: int, n: int) -> Graph:
    """The m x n grid: cartesian product of two paths, labelled (row, col)."""
    return _product_layout(path(m), path(n))[0]


def hypercube(d: int) -> Graph:
    """The d-dimensional hypercube: vertices 0..2^d - 1, adjacent when they
    differ in one bit.

    Vertex v is labelled by its d bits, most significant first, which makes
    it the row-major vertex of the d-fold product of single edges.
    """
    if d < 1:
        raise ValueError("hypercube dimension must be at least 1")
    n = 1 << d
    bits = [1 << k for k in range(d)]
    edges = [(v, v | bit) for v in range(n) for bit in bits if not v & bit]
    labels = tuple(tuple((v >> k) & 1 for k in range(d - 1, -1, -1)) for v in range(n))
    return Graph._from_sorted(n, edges, labels)


# ---------------------------------------------------------------------------
# Cartesian product


@dataclass(frozen=True)
class GEdge:
    """A product edge running inside a copy of the first factor."""

    g_edge: Edge
    h_vertex: int


@dataclass(frozen=True)
class HEdge:
    """A product edge running inside a copy of the second factor."""

    h_edge: Edge
    g_vertex: int


ProductEdgeKind = GEdge | HEdge


def product_vertex(g_index: int, h_index: int, h_order: int) -> int:
    """Row-major index of the product vertex (g_index, h_index)."""
    return g_index * h_order + h_index


def product_coords(index: int, h_order: int) -> tuple[int, int]:
    return divmod(index, h_order)


def product_edge_endpoints(kind: ProductEdgeKind, h_order: int) -> Edge:
    """Recover the product edge (as a vertex-index pair) from its kind."""
    if isinstance(kind, GEdge):
        (u1, u2), v = kind.g_edge, kind.h_vertex
        return _norm_edge(product_vertex(u1, v, h_order), product_vertex(u2, v, h_order))
    (v1, v2), u = kind.h_edge, kind.g_vertex
    return _norm_edge(product_vertex(u, v1, h_order), product_vertex(u, v2, h_order))


def _product_layout(g: Graph, h: Graph) -> tuple[Graph, list[int]]:
    """The product g x h, built in sorted edge order, and each edge's origin.

    Vertex (i, j) is i * h.n + j.  Its edges to larger vertices go first to
    (i, j') for the h-neighbours j' > j, then to (i', j) for the
    g-neighbours i' > i, all in increasing order; so walking the vertices
    in order yields the sorted edge list with no sort and no dedup.

    `origin[k]` numbers the k-th product edge in provenance order: g-edge e
    inside the copy of g at h-vertex j is j * g.m + e, and h-edge f inside
    the copy of h at g-vertex i is h.n * g.m + i * h.m + f.
    """
    nh, mg, mh = h.n, g.m, h.m

    def upper(f: Graph, v: int) -> list[tuple[int, int]]:
        return [(w, e) for w, e in zip(f.neighbours(v), f.incident_edges(v)) if w > v]

    h_up = [upper(h, j) for j in range(nh)]
    h_base = nh * mg
    edges: list[Edge] = []
    origin: list[int] = []
    for i in range(g.n):
        row = i * nh
        h_row = h_base + i * mh
        g_up = upper(g, i)
        for j in range(nh):
            p = row + j
            for w, f in h_up[j]:
                edges.append((p, row + w))
                origin.append(h_row + f)
            for w, e in g_up:
                edges.append((p, w * nh + j))
                origin.append(j * mg + e)

    g_labels = g.labels if g.labels is not None else range(g.n)
    h_labels = h.labels if h.labels is not None else range(nh)
    labels = tuple((gl, hl) for gl in g_labels for hl in h_labels)
    return Graph._from_sorted(g.n * nh, edges, labels), origin


def cartesian_product(g: Graph, h: Graph) -> tuple[Graph, tuple[ProductEdgeKind, ...]]:
    """Cartesian product of two graphs plus a per-edge classifier.

    The product has vertex set V(g) x V(h) indexed row-major, and an edge
    between (u1, u2) and (v1, v2) exactly when the pair agrees in one
    coordinate and is adjacent in the other.  The classifier is aligned
    with the product's edge list and tags each edge with the factor edge
    it came from and the coordinate held fixed.
    """
    product, origin = _product_layout(g, h)
    kinds = [GEdge(e, j) for j in range(h.n) for e in g.edges]
    kinds += [HEdge(f, i) for i in range(g.n) for f in h.edges]
    return product, tuple(kinds[o] for o in origin)


# ---------------------------------------------------------------------------
# Structure queries


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if g.n < 1:
        raise ValueError("connectivity is undefined for the empty graph")
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in g.neighbours(u):
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


@dataclass(frozen=True)
class GraphClass:
    max_degree: int
    is_regular: bool
    is_complete: bool
    is_odd_cycle: bool


def classify(h: Graph) -> GraphClass:
    """Degree/shape flags used when budgeting vertex colours.

    Requires a connected graph on at least two vertices.
    """
    if h.n < 2:
        raise ValueError("classification needs a non-trivial graph")
    if not is_connected(h):
        raise ValueError("classification needs a connected graph")
    delta = h.max_degree
    regular = all(d == delta for d in h.degrees)
    comp = h.m == h.n * (h.n - 1) // 2
    odd_cycle = regular and delta == 2 and h.n % 2 == 1
    return GraphClass(delta, regular, comp, odd_cycle)
