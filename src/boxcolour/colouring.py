"""Edge and vertex colourings plus the independent verifier.

Colour identifiers are small integers carrying a primed-flag in the low
bit: colour j of the unprimed family is ``2*j``, colour j' of the primed
family is ``2*j + 1``.  A palette records how many colours each family
holds; its canonical order puts all unprimed colours before all primed
ones.  Single-family colourings simply use a palette with no primed part.

The verifier here is the trusted oracle for every other module.  One pass
over the edges builds, per colour, a mate map: vertex -> the other end of
its edge of that colour; a vertex met twice by one colour makes the
colouring improper, and a scan of the vertices in index order then picks
the witness.  In a proper colouring any two colour classes form a subgraph
of maximum degree 2, a union of paths and cycles, so acyclicity is a walk
along those alternating paths, once per colour pair, over the mate map of
the smaller class.  The walks mark vertices in one list of n integers, each
pair with a stamp of its own, so no pair allocates a set: O(k*m) time over
all pairs and O(n + m) memory.  A colour used on one edge is never walked,
since a two-coloured cycle holds at least two edges of each colour, and
neither is a pair whose classes share no vertex.  The walk only detects a
cycle; the first pair that has one is walked again with edge indices to
pick its witness.

Library code checks each colouring once per trust boundary, where it
leaves the code that built it or enters from a caller.  The search and
greedy check each colouring they return; `compose` checks the factor
colourings it is handed and the colouring it returns; `compose_many`
checks its factors and only its final output, since every fold relabels
the previous one injectively (see `compose`); the four-cycle's literal
colouring, which the construction returns for two single edges, is
checked by the entry point that hands it out, like any composed
colouring, and not again inside a fold; and `solver.exact_aci` checks a
composed colouring once, after mapping it onto its input graph.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .graphs import (
    Edge,
    Graph,
    Record,
    _check_order,
    _first_bad_edge,
    _has_repeats,
    _valid_sorted,
)


# ---------------------------------------------------------------------------
# Colour identifiers


def unprimed(index: int) -> int:
    return index << 1


def primed(index: int) -> int:
    return (index << 1) | 1


def colour_order_key(colour: int) -> tuple[int, int]:
    """Sort key realizing the palette order: unprimed first, then primed."""
    return (colour & 1, colour >> 1)


def colour_label(colour: int) -> str:
    """Wire label: '3' for unprimed colour 3, \"3'\" for primed colour 3."""
    base = str(colour >> 1)
    return base + "'" if colour & 1 else base


def parse_colour_label(label: str) -> int:
    """Inverse of `colour_label`, which is the only writer of labels: ASCII
    digits with no leading zero, then at most one "'".  Anything else,
    such as " 3", "+3", "03" or "1_0", raises ValueError."""
    flag = label.endswith("'")
    text = label[:-1] if flag else label
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"invalid colour label {label!r}")
    index = int(text)
    return primed(index) if flag else unprimed(index)


class ColourPalette(Record):
    """Ordered disjoint union of an unprimed and a primed colour family."""

    __slots__ = ("g_size", "h_size")

    def __init__(self, g_size: int, h_size: int = 0):
        if g_size < 0 or h_size < 0:
            raise ValueError("palette sizes must be non-negative")
        Record.__init__(self, g_size, h_size)

    @property
    def size(self) -> int:
        return self.g_size + self.h_size

    def __contains__(self, colour: int) -> bool:
        return colour >= 0 and colour >> 1 < (self.h_size if colour & 1 else self.g_size)

    def rank(self, colour: int) -> int:
        """Dense 0-based position of a colour in the canonical order."""
        if colour not in self:
            raise ValueError(f"colour {colour_label(colour)} outside palette {self}")
        index = colour >> 1
        return self.g_size + index if colour & 1 else index


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
        for c in set(colours):
            if c not in palette:
                # name the first edge's colour outside the palette
                c = next(c for c in colours if c not in palette)
                raise ValueError(f"colour {colour_label(c)} outside palette {palette}")
        Record.__init__(self, graph, colours, palette)

    @classmethod
    def single_family(cls, graph: Graph, indices: Iterable[int], k: int) -> "EdgeColouring":
        """Wrap dense colour indices 0..k-1 as an unprimed-only colouring."""
        return cls(graph, (unprimed(i) for i in indices), ColourPalette(k, 0))

    def distinct_colours(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.colours), key=colour_order_key))

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "palette": {"g": self.palette.g_size, "h": self.palette.h_size},
            "edges": [
                [u, v, colour_label(c)] for (u, v), c in zip(self.graph.edges, self.colours)
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "EdgeColouring":
        """Inverse of `to_json_dict`; a malformed document raises ValueError,
        and so does an edge listed twice, in either orientation.

        One pass over the rows parses each distinct label once and collects
        the edges, normalised, and their colours; one sort by edge then
        gives the graph's edge order, which is the writer's.  Repeats,
        range and self-loops are checked in bulk on the sorted edges.  When
        a check fails, the rows are checked again in order, so the error is
        the one a reader taking the rows one by one meets first."""
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
        codes: dict[str, int] = {}
        edges: list[Edge] = []
        colours: list[int] = []
        try:
            for row in rows:
                if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], str)):
                    raise ValueError(f"edge row must be [u, v, colour label], got {row!r}")
                u, v, label = row
                if type(u) is not int or type(v) is not int:
                    _json_int(u, "edge endpoint")
                    _json_int(v, "edge endpoint")
                edges.append((u, v) if u < v else (v, u))
                colour = codes.get(label)
                if colour is None:
                    colour = codes[label] = parse_colour_label(label)
                colours.append(colour)
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
            _json_int(sizes["g"], "palette size"), _json_int(sizes["h"], "palette size")
        )
        n = _json_int(data["n"], "vertex count")
        _check_order(n)
        if not _valid_sorted(n, ordered_edges):
            _first_bad_edge(n, edges)
        return cls(Graph._from_sorted(n, ordered_edges), [colours[i] for i in order], palette)

    def __repr__(self) -> str:
        return f"EdgeColouring({self.graph!r}, {len(self.distinct_colours())} colours)"


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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


class VertexColouring(Record):
    """Total assignment of colour indices 0..d-1 to the vertices of a graph."""

    __slots__ = ("graph", "colours")

    def __init__(self, graph: Graph, colours: Iterable[int]):
        colours = tuple(colours)
        if len(colours) != graph.n:
            raise ValueError(f"expected {graph.n} vertex colours, got {len(colours)}")
        for c in colours:
            if c < 0:
                raise ValueError("vertex colour indices must be non-negative")
        Record.__init__(self, graph, colours)

    def count(self) -> int:
        return len(set(self.colours))

    def __repr__(self) -> str:
        return f"VertexColouring({self.graph!r}, {self.count()} colours)"


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
    """A closed walk alternating exactly two colours, `colour_a` and
    `colour_b`.

    The vertex sequence `cycle` is canonical: it starts at the smallest
    vertex and runs toward its smaller cycle neighbour; the closing edge
    back to the start is implicit.
    """

    __slots__ = ("colour_a", "colour_b", "cycle")

    def to_json_dict(self) -> dict:
        return {
            "kind": "bichromatic_cycle",
            "colours": [colour_label(self.colour_a), colour_label(self.colour_b)],
            "cycle": list(self.cycle),
        }


Violation = Union[NotProper, BichromaticCycle]


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


def _mate_maps(x: EdgeColouring) -> Optional[dict[int, dict[int, int]]]:
    """Per colour used, vertex -> the other end of its edge of that colour;
    None if some vertex meets two edges of one colour."""
    mates: dict[int, dict[int, int]] = {}
    for (u, v), c in zip(x.graph.edges, x.colours):
        mate = mates.get(c)
        if mate is None:
            mates[c] = {u: v, v: u}
        elif u in mate or v in mate:
            return None
        else:
            mate[u] = v
            mate[v] = u
    return mates


def _first_clash(x: EdgeColouring) -> Optional[NotProper]:
    """The first colour met twice at a vertex, with vertices and their
    incident edges scanned in index order; None for a proper colouring."""
    g = x.graph
    edges, colours = g.edges, x.colours
    for v in range(g.n):
        here: dict[int, int] = {}
        for ei in g.incident_edges(v):
            c = colours[ei]
            if c in here:
                return NotProper(v, edges[here[c]], edges[ei])
            here[c] = ei
    return None


def check_proper_vertex(y: VertexColouring) -> Optional[Edge]:
    """None iff no edge is monochromatic; otherwise the first such edge."""
    for u, v in y.graph.edges:
        if y.colours[u] == y.colours[v]:
            return (u, v)
    return None


def _has_cycle(
    mate_a: dict[int, int], mate_b: dict[int, int], seen: list[int], stamp: int,
) -> bool:
    """Whether the union of two matchings, given by their mate maps, holds a
    cycle.  Its components are paths and cycles; each one holding an edge
    of `a` is walked once, so pass the smaller matching as `a`.  A vertex
    is marked by setting its entry of `seen` to `stamp`, which must differ
    from every entry already there."""
    for u in mate_a:
        if seen[u] == stamp:
            continue
        # forward from u along its a-edge; a cycle closes back at u
        w = mate_a[u]
        seen[w] = stamp
        while True:
            v = mate_b.get(w)
            if v is None:
                break
            if v == u:
                return True
            w = mate_a.get(v)
            if w is None:
                break
            seen[v] = seen[w] = stamp
        # an open path: mark the a-edges on u's other side as well
        v = mate_b.get(u)
        while v is not None:
            w = mate_a.get(v)
            if w is None:
                break
            seen[v] = seen[w] = stamp
            v = mate_b.get(w)
    return False


def _cycle_witness(x: EdgeColouring, a: int, b: int) -> list[int]:
    """The cycle of the {a, b} subgraph whose largest edge index is smallest,
    as a vertex sequence; the subgraph must hold a cycle.

    Every a-edge is a start, in increasing index order, and each component
    holding one is walked once, from its first a-edge; pass the smaller
    class as `a`.  A union-find pass over the edges in index order closes
    exactly this cycle first: a cycle closes at its largest edge.
    """
    edges = x.graph.edges
    steps: dict[int, dict[int, tuple[int, int]]] = {a: {}, b: {}}
    starts = []
    for ei, c in enumerate(x.colours):
        step = steps.get(c)
        if step is not None:
            u, v = edges[ei]
            step[u] = (v, ei)
            step[v] = (u, ei)
            if c == a:
                starts.append(ei)
    step_a, step_b = steps[a], steps[b]
    seen: set[int] = set()
    best: list[int] = []
    best_top = -1
    for ei in starts:
        if best and ei > best_top:
            break  # every cycle still unseen contains a larger edge
        if ei in seen:
            continue
        u, w = edges[ei]
        walk, top, closed = [u, w], ei, False
        while True:
            step = step_b.get(w)
            if step is None:
                break
            w, ej = step
            if ej > top:
                top = ej
            if w == u:
                closed = True
                break
            walk.append(w)
            step = step_a.get(w)
            if step is None:
                break
            w, ej = step
            seen.add(ej)
            if ej > top:
                top = ej
            walk.append(w)
        if closed:
            if not best or top < best_top:
                best, best_top = walk, top
            continue
        # an open path: mark the a-edges on its other side as well
        w = u
        while True:
            step = step_b.get(w)
            if step is None:
                break
            step = step_a.get(step[0])
            if step is None:
                break
            w, ej = step
            seen.add(ej)
    return best


def check_acyclic(x: EdgeColouring) -> Optional[Violation]:
    """Full verification: properness first, then a walk per colour pair.

    An improper colouring yields the first colour met twice at a vertex,
    vertices and their incident edges taken in index order.  Otherwise
    colour pairs are scanned in palette order, skipping colours used on a
    single edge and pairs whose classes share no vertex, and within the
    first pair holding a cycle the witness is the cycle whose largest edge
    index is smallest.  Memory is O(n + m), whatever the number of colours.
    """
    mates = _mate_maps(x)
    if mates is None:
        return _first_clash(x)
    # a two-coloured cycle holds at least two edges of each colour
    paired = sorted((c for c, mate in mates.items() if len(mate) > 2), key=colour_order_key)
    classes = [(c, mates[c], mates[c].keys()) for c in paired]
    # one mark list for every walk: each pair marks with a stamp of its own
    seen = [0] * x.graph.n
    stamp = 0
    for i, (a, mate_a, ends_a) in enumerate(classes):
        for b, mate_b, ends_b in classes[i + 1 :]:
            if ends_a.isdisjoint(ends_b):
                continue
            # the walks start from the smaller class; the cycle found is the same
            small, large = (a, b) if len(mate_a) <= len(mate_b) else (b, a)
            stamp += 1
            if _has_cycle(mates[small], mates[large], seen, stamp):
                return BichromaticCycle(a, b, canonical_cycle(_cycle_witness(x, small, large)))
    return None
