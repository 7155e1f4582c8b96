"""Edge and vertex colourings plus the independent verifier.

A colour is its rank in a palette, 0 to size - 1: g_size ranks, then
h_size more (`compose` puts the matching factor's colours there).  Only
the wire tells the two families apart: rank r is written "r" below g_size
and "j'" for r = g_size + j, by `colour_label` and `parse_colour_label`.

The verifier here is the trusted oracle for every other module.  One pass
over the edges fills, per colour used on two or more edges, its mates:
vertex -> the other end of its edge of that colour, -1 where it has none.
A class with at least n/8 edges keeps them in a list of n, which costs
about what a dict of its mates would at that share; a smaller class keeps
them in a dict that reads -1 for a vertex it lacks, so one walk reads
both by subscript.  At most 8m/n classes reach the share, so the lists hold
at most 8m slots.  The same pass records one end of each edge of a dense
class, where its walks start; a sparse class starts from its dict's keys.
A class that covers fewer than two vertices per edge makes the colouring
improper, and a second pass over the edges then picks the witness.  In a
proper colouring any two colour classes form a subgraph of maximum degree
2, a union of paths and cycles, so acyclicity is a walk along those
alternating paths, once per colour pair, from the class with fewer starts.
The walks mark vertices in one list of n integers, each pair with a stamp
of its own, so no pair allocates a set: O(k*m) time over all pairs and
O(n + m) memory.  A colour used on one edge is never walked, since a
two-coloured cycle holds at least two edges of each colour, and neither is
a pair whose classes are known to share no vertex.  While the k(k-1)/2
pairs of the k classes with two or more edges number at most 4m, each pair
of sparse classes is tested, and a pair with a dense class is walked
untested, since a list offers no faster test than the walk; beyond that,
each vertex lists its classes once, in O(m) memory, and each class finds
its partners at its vertices, a step per pair and shared vertex, which the
pair's walk pays anyway.  Either way the pairs come in rank order, so the
walks, and the witness, are the same.  The walk only detects a cycle.  The witness, in the first pair that
has one, is the cycle closed by the first edge of the pair, in index
order, whose ends a union-find pass over the pair's earlier edges has
already joined; it is read off the two classes' mates.  This is the rule
of the brute-force reference in the tests and of the benchmark's
independent checker, so all three name the same cycle.

Library code checks each colouring once per trust boundary, where it
leaves the code that built it or enters from a caller.  Greedy checks
each colouring it returns; `compose` checks the factor colourings it is
handed and the colouring it returns; `compose_many` checks its factors
and only its final output, since every fold relabels the previous one
injectively (see `compose`), the four-cycle that two single edges make
included; and `solver.exact_aci` checks only the witness it returns, into
which its factors' witnesses and inner folds are relabelled the same way.
"""

from __future__ import annotations

from collections import _count_elements
from collections.abc import Iterable, Iterator
from itertools import combinations

from .graphs import (
    Edge,
    Graph,
    Record,
    _check_int,
    _check_order,
    _first_bad_edge,
    _has_repeats,
    _union,
    _valid_sorted,
)


# ---------------------------------------------------------------------------
# Palettes and wire labels


class ColourPalette(Record):
    """Colour ranks 0 .. size - 1: the g family, then the h family."""

    __slots__ = ("g_size", "h_size")

    def __init__(self, g_size: int, h_size: int = 0):
        if _check_int(g_size, "palette size") < 0 or _check_int(h_size, "palette size") < 0:
            raise ValueError("palette sizes must be non-negative")
        object.__setattr__(self, "g_size", g_size)
        object.__setattr__(self, "h_size", h_size)

    @property
    def size(self) -> int:
        return self.g_size + self.h_size


def colour_label(colour: int, g_size: int) -> str:
    """Wire label of a rank: "3" for rank 3 below `g_size`, "3'" for rank
    g_size + 3."""
    return str(colour) if colour < g_size else f"{colour - g_size}'"


def parse_colour_label(label: str, palette: ColourPalette | None = None) -> int:
    """Inverse of `colour_label`: the rank in `palette` that `label` names.
    `colour_label` is the only writer of labels: ASCII digits with no
    leading zero, then at most one "'".  Anything else, such as " 3", "+3",
    "03" or "1_0", raises ValueError, and so does a label beyond its
    family's size.  With no palette only the syntax is checked, and -1
    returned."""
    flag = label.endswith("'")
    text = label[:-1] if flag else label
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"invalid colour label {label!r}")
    if palette is None:
        return -1
    index = int(text)
    if index >= (palette.h_size if flag else palette.g_size):
        raise ValueError(f"colour {label} outside palette {palette}")
    return palette.g_size + index if flag else index


# ---------------------------------------------------------------------------
# Colourings


class EdgeColouring(Record):
    """Total assignment of palette colours to the edges of a graph.

    `colours[i]` is the colour of `graph.edges[i]`.
    """

    __slots__ = ("graph", "colours", "palette")

    def __init__(self, graph: Graph, colours: Iterable[int], palette: ColourPalette):
        colours = tuple(colours)
        if len(colours) != graph.m:
            raise ValueError(f"expected {graph.m} edge colours, got {len(colours)}")
        size = palette.size
        if colours and not (
            {int}.issuperset(map(type, colours)) and 0 <= min(colours) <= max(colours) < size
        ):
            for c in colours:  # name the first edge's
                if not 0 <= _check_int(c, "colour") < size:
                    raise ValueError(f"colour {colour_label(c, palette.g_size)} outside palette {palette}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "palette", palette)

    @classmethod
    def single_family(cls, graph: Graph, colours: Iterable[int], k: int) -> "EdgeColouring":
        """A colouring with ranks 0..k-1 from a one-family palette."""
        return cls(graph, colours, ColourPalette(k))

    def to_json_dict(self) -> dict:
        g, edges = self.palette.g_size, self.graph.edges
        return {
            "n": self.graph.n,
            "palette": {"g": g, "h": self.palette.h_size},
            "edges": [[u, v, colour_label(c, g)] for (u, v), c in zip(edges, self.colours)],
        }

    @classmethod
    def from_json_dict(cls, data) -> "EdgeColouring":
        """Inverse of `to_json_dict`; a malformed document raises ValueError,
        and so does an edge listed twice, in either orientation.

        One pass over the rows checks the syntax of each distinct label once
        and collects the edges, normalised, and their labels; one sort by
        edge then gives the graph's edge order, which is the writer's.
        Repeats, range and self-loops are checked in bulk on the sorted
        edges, and then each distinct label is read as a rank of the
        palette.  When a check fails, the rows are checked again in order,
        or for a label outside the palette the edges in the graph's order,
        so the error is the one a reader taking them one by one meets
        first."""
        if not isinstance(data, dict):
            raise ValueError("colouring JSON must be an object")
        missing = [key for key in ("n", "palette", "edges") if key not in data]
        if missing:
            raise ValueError(f"colouring JSON lacks {', '.join(map(repr, missing))}")
        sizes, rows = data["palette"], data["edges"]
        if not (isinstance(sizes, dict) and "g" in sizes and "h" in sizes):
            raise ValueError("colouring JSON 'palette' must be an object with 'g' and 'h'")
        if not isinstance(rows, list):
            raise ValueError("colouring JSON 'edges' must be a list")
        ranks: dict[str, int] = {}  # each distinct label, and its rank once the palette is read
        edges: list[Edge] = []
        labels: list[str] = []
        try:
            for row in rows:
                if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], str)):
                    raise ValueError(f"edge row must be [u, v, colour label], got {row!r}")
                u, v, label = row
                if type(u) is not int or type(v) is not int:
                    _check_int(u, "edge endpoint")
                    _check_int(v, "edge endpoint")
                edges.append((u, v) if u < v else (v, u))
                if label not in ranks:
                    ranks[label] = parse_colour_label(label)
                labels.append(label)
        except ValueError:
            # a row-by-row reader stops at an edge listed twice in an earlier
            # row, or in this one, before this row's own error
            _first_repeat(edges)
            raise
        order = sorted(range(len(edges)), key=edges.__getitem__)
        ordered_edges = tuple([edges[i] for i in order])
        if _has_repeats(ordered_edges):
            _first_repeat(edges)
        palette = ColourPalette(
            _check_int(sizes["g"], "palette size"), _check_int(sizes["h"], "palette size")
        )
        n = data["n"]
        _check_order(n)
        if not _valid_sorted(n, ordered_edges):
            _first_bad_edge(n, edges)
        try:
            ranks = {label: parse_colour_label(label, palette) for label in ranks}
        except ValueError:
            # name the first label outside the palette in the graph's edge order
            for i in order:
                parse_colour_label(labels[i], palette)
            raise
        colours = [ranks[labels[i]] for i in order]
        return cls(Graph._from_sorted(n, ordered_edges), colours, palette)

    def __repr__(self) -> str:
        return f"EdgeColouring({self.graph!r}, {colours_used(self)} colours)"


def _first_repeat(edges: list[Edge]) -> None:
    """Raise for the first edge, in row order, that an earlier row listed."""
    seen: set[Edge] = set()
    for e in edges:
        if e in seen:
            raise ValueError(f"edge {e} is listed twice")
        seen.add(e)


def colours_used(x: EdgeColouring) -> int:
    """Number of distinct colours actually appearing on edges."""
    return len(set(x.colours))


# ---------------------------------------------------------------------------
# Violations


class NotProper(Record):
    """Two incident edges, `edge1` and `edge2`, sharing a colour at `vertex`."""

    __slots__ = ("vertex", "edge1", "edge2")

    def to_json_dict(self) -> dict:
        return {
            "kind": "not_proper",
            "vertex": self.vertex,
            "edges": [list(self.edge1), list(self.edge2)],
        }


class BichromaticCycle(Record):
    """A closed walk alternating exactly two colours, whose wire labels are
    `colour_a` and `colour_b`.

    The vertex sequence `cycle` is canonical: it starts at the smallest
    vertex and runs toward its smaller cycle neighbour; the closing edge
    back to the start is implicit.
    """

    __slots__ = ("colour_a", "colour_b", "cycle")

    def to_json_dict(self) -> dict:
        return {
            "kind": "bichromatic_cycle",
            "colours": [self.colour_a, self.colour_b],
            "cycle": list(self.cycle),
        }


Violation = NotProper | BichromaticCycle


def canonical_cycle(vertices: Iterable[int]) -> tuple[int, ...]:
    """Rotate a closed vertex sequence to its smallest vertex and orient it
    toward the smaller of that vertex's two cycle neighbours."""
    seq = list(vertices)
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


# ---------------------------------------------------------------------------
# Checks


# a colour class with at least n / _DENSE_SHARE edges keeps its mates in a
# list of n; at most _DENSE_SHARE * m / n classes reach that share, so the
# lists hold at most _DENSE_SHARE * m slots
_DENSE_SHARE = 8


class _SparseMates(dict):
    """The mates of a class below the dense share: vertex -> mate, where a
    vertex the class does not cover reads -1, as in a dense class's list."""

    __slots__ = ()

    def __missing__(self, v: int) -> int:
        return -1


_Mates = list[int] | _SparseMates


def _mate_maps(x: EdgeColouring) -> dict[int, tuple[_Mates, Iterable[int]]] | None:
    """Per colour used on two or more edges, its mates (vertex -> the other
    end of its edge of that colour, -1 where it has none) and the vertices
    a walk over it starts from: one end of each edge, in index order, for a
    dense class, and the keys of its dict, both ends, for a sparse one;
    None if some vertex meets two edges of one colour."""
    n = x.graph.n
    # Counter's own counting loop, without Counter's Python-level set-up,
    # which costs more than the rest of the check on a 7-vertex graph
    sizes: dict[int, int] = {}
    _count_elements(sizes, x.colours)
    classes = {}
    for c, size in sizes.items():
        if size > 1:  # a colour on one edge is never paired
            mate = [-1] * n if size * _DENSE_SHARE >= n else _SparseMates()
            classes[c] = (mate, [] if type(mate) is list else mate)
    for (u, v), c in zip(x.graph.edges, x.colours):
        entry = classes.get(c)
        if entry is not None:
            mate, starts = entry
            mate[u] = v
            mate[v] = u
            if starts is not mate:
                starts.append(u)
    # a class is a matching iff its edges cover twice as many vertices
    for c, (mate, _) in classes.items():
        covered = n - mate.count(-1) if type(mate) is list else len(mate)
        if covered != 2 * sizes[c]:
            return None
    return classes


def _first_clash(x: EdgeColouring) -> NotProper | None:
    """The smallest vertex met twice by one colour, at the first of its
    edges, in index order, whose colour an earlier one has; None for a
    proper colouring.  One pass over the edges keeps the first edge of
    each (vertex, colour), so no incidence index is built."""
    edges = x.graph.edges
    first: dict[tuple[int, int], int] = {}
    best: NotProper | None = None
    for ei, ((u, v), c) in enumerate(zip(edges, x.colours)):
        for w in (u, v):
            earlier = first.setdefault((w, c), ei)
            if earlier != ei and (best is None or w < best.vertex):
                best = NotProper(w, edges[earlier], edges[ei])
    return best


def check_proper_vertex(g: Graph, colours: list[int]) -> Edge | None:
    """None iff no edge of g is monochromatic under `colours`, one per
    vertex; otherwise the first such edge."""
    if len(colours) != g.n:
        raise ValueError(f"expected {g.n} vertex colours, got {len(colours)}")
    for u, v in g.edges:
        if colours[u] == colours[v]:
            return (u, v)
    return None


def _has_cycle(
    starts_a: Iterable[int], mate_a: _Mates, mate_b: _Mates, seen: list[int], stamp: int,
) -> bool:
    """Whether the union of two matchings, given by their mates and by at
    least one end of each edge of `a`, holds a cycle.  Its components are
    paths and cycles; each one holding an edge of `a` is walked once, so
    pass the smaller matching as `a`.  A vertex is marked by setting its
    entry of `seen` to `stamp`, which must differ from every entry already
    there."""
    for u in starts_a:
        if seen[u] == stamp:
            continue
        # forward from u along its a-edge; a cycle closes back at u
        w = mate_a[u]
        seen[w] = stamp
        while True:
            v = mate_b[w]
            if v == u:
                return True
            if v < 0:
                break
            w = mate_a[v]
            if w < 0:
                break
            seen[v] = seen[w] = stamp
        # an open path: mark the a-edges on u's other side as well
        v = mate_b[u]
        while v >= 0:
            w = mate_a[v]
            if w < 0:
                break
            seen[v] = seen[w] = stamp
            v = mate_b[w]
    return False


def _cycle_witness(x: EdgeColouring, a: int, b: int, mate_a: _Mates, mate_b: _Mates) -> list[int]:
    """The cycle closed by the first edge coloured a or b, in index order,
    whose ends a union-find pass over the earlier such edges has already
    joined, as a vertex sequence; the {a, b} subgraph must hold a cycle.
    That subgraph has maximum degree 2, so the edge's component is the
    cycle itself, read off the mates of a and b from one of its ends."""
    parent = list(range(x.graph.n))
    for (u, v), c in zip(x.graph.edges, x.colours):
        if (c == a or c == b) and not _union(parent, u, v):
            break
    # a cycle alternates a and b and has even length, so it closes after a b-step
    cycle, w = [], u
    while True:
        cycle.append(w)
        w = mate_a[w]
        cycle.append(w)
        w = mate_b[w]
        if w == u:
            return cycle


# pairs per edge up to which testing each pair is faster than listing the
# pairs from the vertices, as timed on paths and random colourings
_PAIRS_PER_EDGE = 4


def _meeting_pairs(
    classes: list[tuple[_Mates, Iterable[int]]], n: int, m: int,
) -> Iterator[tuple[int, int]]:
    """The pairs i < j of classes, each given by its mates and starts, that
    may share a vertex, in lexicographic order, for a graph of order n and
    size m.  While the k classes give at most `_PAIRS_PER_EDGE` pairs per
    edge, each pair of sparse classes is tested and every pair with a dense
    class is passed; beyond that, each vertex lists its classes once, in
    O(m) memory, and class i's partners are the classes j > i listed at its
    vertices."""
    k = len(classes)
    if k * (k - 1) // 2 <= _PAIRS_PER_EDGE * m:
        sparse = [mate.keys() if type(mate) is _SparseMates else None for mate, _ in classes]
        if sparse.count(None) == k:
            # every class is dense, so every pair is walked untested
            yield from combinations(range(k), 2)
            return
        for i, ends_a in enumerate(sparse):
            for j in range(i + 1, k):
                if ends_a is None or sparse[j] is None or not ends_a.isdisjoint(sparse[j]):
                    yield i, j
        return
    ends = [
        starts if type(mate) is _SparseMates else starts + [mate[u] for u in starts]
        for mate, starts in classes
    ]
    at: list[list[int]] = [[] for _ in range(n)]
    for i, ends_a in enumerate(ends):
        for v in ends_a:
            at[v].append(i)
    for i, ends_a in enumerate(ends):
        for j in sorted({j for v in ends_a for j in at[v] if j > i}):
            yield i, j


def check_acyclic(x: EdgeColouring) -> Violation | None:
    """Full verification: properness first, then a walk per colour pair.

    An improper colouring yields the first colour met twice at a vertex,
    vertices and their incident edges taken in index order.  Otherwise
    colour pairs are scanned in rank order, skipping colours used on a
    single edge and pairs found to share no vertex, and within the
    first pair holding a cycle the witness is the cycle closed by the first
    edge, in index order, whose ends the pair's earlier edges already join.
    Memory is O(n + m), whatever the number of colours.
    """
    mates = _mate_maps(x)
    if mates is None:
        return _first_clash(x)
    paired = sorted(mates)
    classes = [mates[c] for c in paired]
    # one mark list for every walk: each pair marks with a stamp of its own
    seen = [0] * x.graph.n
    stamp = 0
    for i, j in _meeting_pairs(classes, x.graph.n, x.graph.m):
        (mate_a, starts_a), (mate_b, starts_b) = classes[i], classes[j]
        stamp += 1
        # the walks start from the class with fewer starts; the cycle found
        # is the same
        if len(starts_b) < len(starts_a):
            cyclic = _has_cycle(starts_b, mate_b, mate_a, seen, stamp)
        else:
            cyclic = _has_cycle(starts_a, mate_a, mate_b, seen, stamp)
        if cyclic:
            witness = _cycle_witness(x, paired[i], paired[j], mate_a, mate_b)
            a, b = (colour_label(c, x.palette.g_size) for c in (paired[i], paired[j]))
            return BichromaticCycle(a, b, canonical_cycle(witness))
    return None
