"""Simple undirected graphs, standard generators, and the cartesian product.

Vertices are always 0..n-1, and a vertex is nothing but its index.
Edges are stored as sorted (u, v) pairs in lexicographic order, so edge
indices are stable across runs and output is byte-for-byte reproducible.
Graphs are immutable after construction; degrees, neighbours and incident
edge indices are precomputed, and edge lookups scan a vertex's neighbours.

The product of g and h is laid out row-major: vertex (i, j) is i * h.n + j,
and `product_coords` recovers the pair.

A graph has at most MAX_VERTICES = 2^20 vertices.  The per-vertex lists are
allocated up front, so a vertex count read from a file is checked against
that limit before anything is built: a 14-byte edge list announcing 10^10
vertices is an input error, not a request for memory.  The generators and
the product also check their edge count, known from their parameters,
against MAX_EDGES = 2^22 before building: within the vertex limit, K_n can
have 5.5 * 10^11 edges and the 20-cube 10^7.  An edge list read from a
file is bounded by the file's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Edge = tuple[int, int]

MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 22


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _check_size(m: int) -> None:
    if m > MAX_EDGES:
        raise ValueError(f"edge count {m} exceeds the limit of {MAX_EDGES}")


def _check_dimension(d: int) -> None:
    """The d-cube has 2^d vertices, checked without computing 2^d, and
    d * 2^(d-1) edges."""
    if d < 1:
        raise ValueError("hypercube dimension must be at least 1")
    if d >= MAX_VERTICES.bit_length():
        raise ValueError(f"the {d}-cube exceeds the vertex limit of {MAX_VERTICES}")
    _check_size(d << (d - 1))


class Graph:
    """Immutable simple graph with stable vertex and edge indexing.

    Equality is structural: same n, same edge set.
    """

    __slots__ = ("n", "edges", "degrees", "_adj", "_incident")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        _check_order(n)
        seen: set[Edge] = set()
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add(_norm_edge(u, v))
        self._build(n, tuple(sorted(seen)))

    @classmethod
    def _from_sorted(cls, n: int, edges: Sequence[Edge]) -> "Graph":
        """Trusted constructor for edges already in range, normalized, sorted
        and distinct."""
        g = object.__new__(cls)
        g._build(n, tuple(edges))
        return g

    def _build(self, n: int, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

        adj: list[list[int]] = [[] for _ in range(n)]
        incident: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            adj[u].append(v)
            adj[v].append(u)
            incident[u].append(i)
            incident[v].append(i)
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_incident", tuple(tuple(a) for a in incident))
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
        return 0 <= u < self.n and v in self._adj[u]

    def edge_index(self, u: int, v: int) -> int:
        if not self.has_edge(u, v):
            raise KeyError((u, v))
        return self._incident[u][self._adj[u].index(v)]

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
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_size(n * (n - 1) // 2)
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def grid(m: int, n: int) -> Graph:
    """The m x n grid: the product of two paths; (row, col) is row * n + col."""
    _check_order(m * n)
    return _product_layout(path(m), path(n))[0]


def hypercube(d: int) -> Graph:
    """The d-dimensional hypercube: vertices 0..2^d - 1, adjacent when they
    differ in one bit.

    A vertex's d bits, most significant first, are its coordinates in the
    d-fold product of single edges, so the cube equals that product laid
    out row-major.
    """
    _check_dimension(d)
    n = 1 << d
    bits = [1 << k for k in range(d)]
    edges = [(v, v | bit) for v in range(n) for bit in bits if not v & bit]
    return Graph._from_sorted(n, edges)


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


def product_coords(index: int, h_order: int) -> tuple[int, int]:
    """Inverse of the row-major layout: vertex i * h_order + j is (i, j)."""
    return divmod(index, h_order)


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
    _check_order(g.n * h.n)
    nh, mg, mh = h.n, g.m, h.m
    _check_size(g.n * mh + nh * mg)

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
    return Graph._from_sorted(g.n * nh, edges), origin


def cartesian_product(g: Graph, h: Graph) -> tuple[Graph, tuple[GEdge | HEdge, ...]]:
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
