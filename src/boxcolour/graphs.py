"""Simple undirected graphs, standard generators, and the cartesian product.

Vertices are always 0..n-1, and a vertex is nothing but its index.
Edges are stored as sorted (u, v) pairs in lexicographic order, so edge
indices are stable across runs and output is byte-for-byte reproducible.
Graphs are immutable after construction.  A graph stores only n, its
edges and, once one is read, its degrees.  It keeps no adjacency:
`adjacency(g)` builds the neighbours afresh for the two walks that need
them.  So a graph that is only compared, checked or written, as `verify`
and `compose` do with their large inputs and outputs, or whose degrees
alone are read, as the solver reads most of the `scan` corpus, never
pays for one.

`cartesian_product` lays the product of g and h out row-major, vertex
(i, j) being i * h.n + j, and tells each edge's origin; it builds no index.

A graph has at most MAX_VERTICES = 2^20 vertices.  Degrees and adjacency
hold a value per vertex, so a vertex count read from a file is checked
against that limit on construction: a 14-byte edge list announcing 10^10
vertices is an input error, not a request for memory.  The generators
and the product also check their edge count, known from their
parameters, against MAX_EDGES = 2^22 before building: within the vertex
limit, K_n can have 5.5 * 10^11 edges and the 20-cube 10^7.  An edge
list read from a file is bounded by the file's size; a graph6 line,
whose bytes spell six edges each, by MAX_EDGES, checked on its set bits
before any edge is built.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice
from operator import eq, itemgetter

Edge = tuple[int, int]

MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 22


class Record:
    """Immutable value record, a slotted stand-in for a frozen dataclass.

    A subclass lists its fields, in order, as its `__slots__`; it is built
    from them positionally or by keyword, and a subclass with defaults or
    checks gives `__init__` its own signature and calls this one, or sets
    its fields itself with `object.__setattr__`.  A call with every field
    positional and no keyword sets them straight away; only other calls
    match keywords to names.  Records
    are equal, and hash alike, when they are of the same class and their
    fields are equal, and their repr is the dataclass one,
    `ColourPalette(g_size=1, h_size=0)`.  Unlike `dataclasses`, this costs
    nothing at import: no methods are generated.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = list(args)
            for name in names[len(args):]:
                if name not in kwargs:
                    raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
                values.append(kwargs.pop(name))
            if kwargs or len(values) != len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = values
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_int(value, what: str) -> int:
    """`value` itself if its type is int; a value of any other type, a
    bool or a float included, raises."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _check_order(n: int) -> None:
    _check_int(n, "vertex count")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _valid_sorted(n: int, pairs: Sequence[Edge]) -> bool:
    """Whether sorted, normalised pairs all join two distinct vertices of
    0..n-1: the first pair holds the smallest endpoint, and a self-loop is
    a pair of equal ends."""
    if not pairs:
        return True
    low, high = itemgetter(0), itemgetter(1)
    return (
        pairs[0][0] >= 0
        and max(map(high, pairs)) < n
        and not any(map(eq, map(low, pairs), map(high, pairs)))
    )


def _first_bad_edge(n: int, edges: Iterable[Sequence[int]]) -> None:
    """Check the edges one by one, in order, and raise for the first one
    with an endpoint that is not an int, out of range, or a self-loop."""
    for u, v in edges:
        _check_int(u, "edge endpoint")
        _check_int(v, "edge endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
    raise ValueError(f"edges must be pairs of vertices 0..{n - 1}")


def _has_repeats(ordered: Sequence) -> bool:
    """Whether a sorted sequence holds two equal neighbours."""
    return any(map(eq, ordered, islice(ordered, 1, None)))


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

    Construction normalises each edge to (min, max), sorts the edges once
    (linear on input already in that order, as the writers emit it) and
    drops repeats by comparing neighbours.  The normalising pass keeps
    only edges whose endpoints are of type int, so not bools or floats,
    and range and self-loops are checked in bulk on the sorted edges; only
    when an edge was dropped or that check fails are the edges checked
    one by one in input order, so the error names the first bad edge as
    given.  `degrees` and `max_degree` read degrees counted on first
    use; `degrees` catches the unset slot itself: a class with
    `__getattr__` loses CPython's specialised attribute reads, so every
    `g.n` and `g.edges` would pay for it.

    Equality is structural: same n, same edge set.
    """

    __slots__ = ("n", "edges", "_degrees")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        _check_order(n)
        edges = list(edges)
        try:
            pairs = [(u, v) if u < v else (v, u) for u, v in edges
                     if type(u) is type(v) is int]
            pairs.sort()
            valid = len(pairs) == len(edges) and _valid_sorted(n, pairs)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            _first_bad_edge(n, edges)
        if _has_repeats(pairs):
            pairs = [e for e, before in zip(pairs, [None] + pairs) if e != before]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(pairs))

    @classmethod
    def _from_sorted(cls, n: int, edges: Sequence[Edge]) -> "Graph":
        """Trusted constructor for edges already in range, normalized, sorted
        and distinct."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", tuple(edges))
        return g

    def _count_degrees(self) -> tuple[int, ...]:
        """Count, store and return the degrees; `degrees` calls this when
        reading `_degrees` not yet set raises AttributeError."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        degrees = tuple(deg)
        object.__setattr__(self, "_degrees", degrees)
        return degrees

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return Graph._from_sorted, (self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        try:
            return self._degrees
        except AttributeError:
            return self._count_degrees()

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours in increasing order, built from the sorted
    edges on every call and stored nowhere."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


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
    if m < 1 or n < 1:
        raise ValueError(f"grid {m}x{n} needs at least one row and one column")
    _check_order(m * n)
    return cartesian_product(path(m), path(n))[0]


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


def _higher_neighbours(f: Graph) -> list[list[tuple[int, int]]]:
    """Each vertex's larger neighbours in increasing order, with the index
    of the edge to each: the run of sorted edges that start at the vertex."""
    up: list[list[tuple[int, int]]] = [[] for _ in range(f.n)]
    for e, (u, w) in enumerate(f.edges):
        up[u].append((w, e))
    return up


def cartesian_product(g: Graph, h: Graph) -> tuple[Graph, list[int]]:
    """The cartesian product g x h, built in sorted edge order, and each
    edge's origin.

    The product has vertex set V(g) x V(h), laid out row-major: vertex
    (i, j) is i * h.n + j.  It has an edge between two vertices exactly
    when they agree in one coordinate and are adjacent in the other.  The
    edges of vertex (i, j) to larger vertices go first to (i, j') for the
    h-neighbours j' > j, then to (i', j) for the g-neighbours i' > i, all
    in increasing order; so walking the vertices in order yields the
    sorted edge list with no sort and no dedup.

    `origin[k]` numbers the k-th product edge in provenance order: g-edge e
    inside the copy of g at h-vertex j is j * g.m + e, and h-edge f inside
    the copy of h at g-vertex i is h.n * g.m + i * h.m + f.
    """
    _check_order(g.n * h.n)
    nh, mg, mh = h.n, g.m, h.m
    _check_size(g.n * mh + nh * mg)
    g_up, h_up = _higher_neighbours(g), _higher_neighbours(h)
    h_base = nh * mg
    edges: list[Edge] = []
    origin: list[int] = []
    for i, g_up_i in enumerate(g_up):
        row = i * nh
        h_row = h_base + i * mh
        for j in range(nh):
            p = row + j
            for w, f in h_up[j]:
                edges.append((p, row + w))
                origin.append(h_row + f)
            for w, e in g_up_i:
                edges.append((p, w * nh + j))
                origin.append(j * mg + e)
    return Graph._from_sorted(g.n * nh, edges), origin


# ---------------------------------------------------------------------------
# Structure queries


def _root(parent: list[int], x: int) -> int:
    """x's root in the union-find forest `parent`, halving the path on the
    way (Tarjan and van Leeuwen, JACM 1984)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> bool:
    """Join x's and y's sets under the smaller root; False if they were
    already one."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


def _components(n: int, edges: Sequence[Edge]) -> list[int]:
    """Component number of every vertex, numbered by smallest vertex."""
    parent = list(range(n))
    for u, v in edges:
        _union(parent, u, v)
    label: dict[int, int] = {}
    return [label.setdefault(_root(parent, v), len(label)) for v in range(n)]


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if g.n < 1:
        raise ValueError("connectivity is undefined for the empty graph")
    return max(_components(g.n, g.edges)) == 0


def classify(h: Graph) -> tuple[int, bool]:
    """The degree facts used when budgeting vertex colours: the max
    degree, and whether h is regular.

    Requires a connected graph on at least two vertices.
    """
    if h.n < 2:
        raise ValueError("classification needs a non-trivial graph")
    if not is_connected(h):
        raise ValueError("classification needs a connected graph")
    delta = h.max_degree
    return delta, all(d == delta for d in h.degrees)
