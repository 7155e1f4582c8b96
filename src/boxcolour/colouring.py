"""Edge and vertex colourings plus the independent verifier.

Colour identifiers are small integers carrying a primed-flag in the low
bit: colour j of the unprimed family is ``2*j``, colour j' of the primed
family is ``2*j + 1``.  A palette records how many colours each family
holds; its canonical order puts all unprimed colours before all primed
ones.  Single-family colourings simply use a palette with no primed part.

The verifier here is the trusted oracle for every other module.  Properness
is a per-vertex scan, which also builds each vertex's colour -> (neighbour,
edge) map.  In a proper colouring any two colour classes form a subgraph of
maximum degree 2, a union of paths and cycles, so acyclicity is a walk along
those alternating paths, once per colour pair, starting from the edges of
the smaller class: O(k*m) over all pairs rather than a pass over every edge
per pair.

Library code checks each colouring once per trust boundary, where it
leaves the code that built it or enters from a caller.  The search and
greedy check each colouring they return; `compose` checks the factors it
is handed and the colouring it returns; `compose_many` checks its factors
and only its final output, since every fold relabels the previous one
injectively (see `compose`); and `solver.exact_aci` checks a composed
colouring once, after mapping it onto its input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .graphs import Edge, Graph, _norm_edge


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
    text = label.strip()
    flag = text.endswith("'")
    if flag:
        text = text[:-1]
    index = int(text)
    if index < 0:
        raise ValueError(f"negative colour index in label {label!r}")
    return primed(index) if flag else unprimed(index)


@dataclass(frozen=True)
class ColourPalette:
    """Ordered disjoint union of an unprimed and a primed colour family."""

    g_size: int
    h_size: int = 0

    def __post_init__(self):
        if self.g_size < 0 or self.h_size < 0:
            raise ValueError("palette sizes must be non-negative")

    @property
    def size(self) -> int:
        return self.g_size + self.h_size

    def __contains__(self, colour: int) -> bool:
        index = colour >> 1
        return index < (self.h_size if colour & 1 else self.g_size)

    def rank(self, colour: int) -> int:
        """Dense 0-based position of a colour in the canonical order."""
        if colour not in self:
            raise ValueError(f"colour {colour_label(colour)} outside palette {self}")
        index = colour >> 1
        return self.g_size + index if colour & 1 else index


# ---------------------------------------------------------------------------
# Colourings


class EdgeColouring:
    """Total assignment of palette colours to the edges of a graph.

    `colours[i]` is the colour of `graph.edges[i]`.
    """

    __slots__ = ("graph", "colours", "palette")

    def __init__(self, graph: Graph, colours: Iterable[int], palette: ColourPalette):
        colours = tuple(colours)
        if len(colours) != graph.m:
            raise ValueError(f"expected {graph.m} edge colours, got {len(colours)}")
        for c in colours:
            if c not in palette:
                raise ValueError(f"colour {colour_label(c)} outside palette {palette}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "palette", palette)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeColouring is immutable")

    @classmethod
    def single_family(cls, graph: Graph, indices: Iterable[int], k: int) -> "EdgeColouring":
        """Wrap dense colour indices 0..k-1 as an unprimed-only colouring."""
        return cls(graph, (unprimed(i) for i in indices), ColourPalette(k, 0))

    @classmethod
    def from_edge_map(
        cls, graph: Graph, mapping: Mapping[Edge, int], palette: ColourPalette
    ) -> "EdgeColouring":
        """Build from an edge -> colour map; a missing edge is an error."""
        colours = []
        for e in graph.edges:
            if e not in mapping:
                raise ValueError(f"partial colouring: edge {e} has no colour")
            colours.append(mapping[e])
        return cls(graph, colours, palette)

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
        and so does an edge listed twice, in either orientation."""
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
        mapping: dict[Edge, int] = {}
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], str)):
                raise ValueError(f"edge row must be [u, v, colour label], got {row!r}")
            e = _norm_edge(_json_int(row[0], "edge endpoint"), _json_int(row[1], "edge endpoint"))
            if e in mapping:
                raise ValueError(f"edge {e} is listed twice")
            mapping[e] = parse_colour_label(row[2])
        palette = ColourPalette(
            _json_int(sizes["g"], "palette size"), _json_int(sizes["h"], "palette size")
        )
        graph = Graph(_json_int(data["n"], "vertex count"), mapping)
        return cls.from_edge_map(graph, mapping, palette)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.colours == other.colours
            and self.palette == other.palette
        )

    def __repr__(self) -> str:
        return f"EdgeColouring({self.graph!r}, {len(self.distinct_colours())} colours)"


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def colours_used(x: EdgeColouring) -> int:
    """Number of distinct colours actually appearing on edges."""
    return len(set(x.colours))


class VertexColouring:
    """Total assignment of colour indices 0..d-1 to the vertices of a graph."""

    __slots__ = ("graph", "colours")

    def __init__(self, graph: Graph, colours: Iterable[int]):
        colours = tuple(colours)
        if len(colours) != graph.n:
            raise ValueError(f"expected {graph.n} vertex colours, got {len(colours)}")
        for c in colours:
            if c < 0:
                raise ValueError("vertex colour indices must be non-negative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colours", colours)

    def __setattr__(self, name, value):
        raise AttributeError("VertexColouring is immutable")

    def count(self) -> int:
        return len(set(self.colours))

    def __repr__(self) -> str:
        return f"VertexColouring({self.graph!r}, {self.count()} colours)"


# ---------------------------------------------------------------------------
# Violations


@dataclass(frozen=True)
class NotProper:
    """Two incident edges sharing a colour at `vertex`."""

    vertex: int
    edge1: Edge
    edge2: Edge

    def to_json_dict(self) -> dict:
        return {
            "kind": "not_proper",
            "vertex": self.vertex,
            "edges": [list(self.edge1), list(self.edge2)],
        }


@dataclass(frozen=True)
class BichromaticCycle:
    """A closed walk alternating exactly two colours.

    The vertex sequence is canonical: it starts at the smallest vertex and
    runs toward its smaller cycle neighbour; the closing edge back to the
    start is implicit.
    """

    colour_a: int
    colour_b: int
    cycle: tuple[int, ...]

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
    k = len(seq)
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


# ---------------------------------------------------------------------------
# Checks


def _colour_incidence(
    x: EdgeColouring,
) -> tuple[list[dict[int, tuple[int, int]]], Optional[NotProper]]:
    """Per vertex, colour -> (neighbour, edge index) over its incident edges.

    Vertices and their incident edges are scanned in index order; the first
    colour met twice at a vertex is returned as the NotProper witness, and
    the map is then incomplete.  For a proper colouring the map is total and
    every colour occurs at most once per vertex.
    """
    g = x.graph
    edges, colours = g.edges, x.colours
    at: list[dict[int, tuple[int, int]]] = []
    for v in range(g.n):
        here: dict[int, tuple[int, int]] = {}
        for w, ei in zip(g.neighbours(v), g.incident_edges(v)):
            c = colours[ei]
            if c in here:
                return at, NotProper(v, edges[here[c][1]], edges[ei])
            here[c] = (w, ei)
        at.append(here)
    return at, None


def check_proper_vertex(y: VertexColouring) -> Optional[Edge]:
    """None iff no edge is monochromatic; otherwise the first such edge."""
    for u, v in y.graph.edges:
        if y.colours[u] == y.colours[v]:
            return (u, v)
    return None


def _pair_cycle(
    at: list[dict[int, tuple[int, int]]],
    edges: tuple[Edge, ...],
    starts: list[int],
    a: int,
    b: int,
) -> Optional[list[int]]:
    """The cycle of the {a, b} subgraph whose largest edge index is smallest,
    as a vertex sequence; None if that subgraph is a forest.

    `starts` lists the a-coloured edge indices in increasing order.  Every
    vertex meets at most one edge of each colour, so the components are
    paths and cycles; each one holding an a-edge is walked once, from its
    first a-edge.  A union-find pass over the edges in index order closes
    exactly this cycle first: a cycle closes at its largest edge.
    """
    seen: set[int] = set()
    best, best_top = None, -1
    for ei in starts:
        if best is not None and ei > best_top:
            break  # every cycle still unseen contains a larger edge
        if ei in seen:
            continue
        u, w = edges[ei]
        walk, top, closed = [u, w], ei, False
        while True:
            step = at[w].get(b)
            if step is None:
                break
            w, ej = step
            if ej > top:
                top = ej
            if w == u:
                closed = True
                break
            walk.append(w)
            step = at[w].get(a)
            if step is None:
                break
            w, ej = step
            seen.add(ej)
            if ej > top:
                top = ej
            walk.append(w)
        if closed:
            if best is None or top < best_top:
                best, best_top = walk, top
            continue
        # an open path: mark the a-edges on its other side as well
        w = u
        while True:
            step = at[w].get(b)
            if step is None:
                break
            step = at[step[0]].get(a)
            if step is None:
                break
            w, ej = step
            seen.add(ej)
    return best


def check_acyclic(x: EdgeColouring) -> Optional[Violation]:
    """Full verification: properness first, then the walk per colour pair.

    An improper colouring yields its first NotProper.  Otherwise colour
    pairs are scanned in palette order, and within a pair the witness is
    the cycle whose largest edge index is smallest.
    """
    at, bad = _colour_incidence(x)
    if bad is not None:
        return bad
    buckets: dict[int, list[int]] = {c: [] for c in set(x.colours)}
    for ei, c in enumerate(x.colours):
        buckets[c].append(ei)
    used = sorted(buckets, key=colour_order_key)
    edges = x.graph.edges
    for i, a in enumerate(used):
        for b in used[i + 1 :]:
            # the walk starts from the smaller class; the cycle found is the same
            if len(buckets[a]) <= len(buckets[b]):
                cyc = _pair_cycle(at, edges, buckets[a], a, b)
            else:
                cyc = _pair_cycle(at, edges, buckets[b], b, a)
            if cyc is not None:
                return BichromaticCycle(a, b, canonical_cycle(cyc))
    return None
