"""Enumeration of small connected graphs up to isomorphism.

Built by augmentation: every connected graph on n vertices is a connected
graph on n-1 vertices plus one new vertex joined to a non-empty subset
(delete any leaf of a spanning tree to see this).  Candidates are bucketed
by cheap invariants and deduplicated with a backtracking isomorphism test.

The search works on adjacency bitmasks: bit w of adj[v] is set when vw is
an edge.  A candidate's masks are its base's masks plus the subset mask of
the new vertex, and its triangle count is the base's plus the base edges
inside the subset.  The bucket key is (n, m, triangles, sorted (degree,
sorted neighbour degrees)), and the isomorphism test maps a vertex only to
one with the same (degree, neighbour degrees).  (Up to 7 vertices no two
classes share a key, so there the test only ever confirms a duplicate.)  A
`Graph` is built only for each representative kept, from its sorted edges.

Candidates are met in a fixed order (bases in order, then subsets by size,
then lexicographically), buckets keep the order their keys first appear in,
and the first candidate of each class is kept.  So the representatives,
their labellings and their order are those of the plain enumeration on
`Graph` objects that the tests keep as the reference.

Class counts for n = 1..7: 1, 1, 2, 6, 21, 112, 853.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph

# A level's representatives as graphs, and as (adjacency masks, sorted
# edges, triangle count) for augmenting them into the next level.
_Form = tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]
_CACHE: dict[int, tuple[tuple[Graph, ...], list[_Form]]] = {}


def _isomorphic(
    back: list[list[int]], colour_a: list[tuple], adj_b: tuple[int, ...],
    classes_b: dict[tuple, list[int]],
) -> bool:
    """Is there a bijection a -> b preserving adjacency and vertex colours?

    The vertices of a are placed in index order; `back[v]` lists v's
    neighbours below v, and `classes_b` lists b's vertices per colour.  v
    may go to w only if w's edges to the images placed so far are exactly
    the images of v's edges to the vertices placed."""
    n = len(back)
    image = [0] * n  # bit of each placed vertex's image

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        want = 0
        for p in back[v]:
            want |= image[p]
        for w in classes_b[colour_a[v]]:
            bit = 1 << w
            if used & bit or adj_b[w] & used != want:
                continue
            image[v] = bit
            if extend(v + 1, used | bit):
                return True
        return False

    return extend(0, 0)


def _level(n: int) -> tuple[tuple[Graph, ...], list[_Form]]:
    if n in _CACHE:
        return _CACHE[n]
    if n == 1:
        _CACHE[1] = ((Graph._from_sorted(1, ()),), [((0,), (), 0)])
        return _CACHE[1]

    new = n - 1
    new_bit = 1 << new
    subsets = [
        (sum(1 << v for v in subset), subset)
        for size in range(1, n)
        for subset in combinations(range(new), size)
    ]
    # key -> [(adjacency masks, colour classes, edges, triangles)]
    buckets: dict[tuple, list[tuple]] = {}
    for base_adj, base_edges, base_tri in _level(new)[1]:
        base_deg = [a.bit_count() for a in base_adj]
        base_nbrs = [[w for w in range(new) if a >> w & 1] for a in base_adj]
        base_back = [[w for w in nbrs if w < v] for v, nbrs in enumerate(base_nbrs)]
        m = len(base_edges)
        for mask, subset in subsets:
            size = len(subset)
            deg = base_deg.copy()
            for v in subset:
                deg[v] += 1
            deg.append(size)
            # (degree, sorted neighbour degrees) per vertex
            colour = []
            for v, nbrs in enumerate(base_nbrs):
                around = [deg[w] for w in nbrs]
                if mask >> v & 1:
                    around.append(size)
                colour.append((deg[v], tuple(sorted(around))))
            colour.append((size, tuple(sorted(deg[v] for v in subset))))
            tri = base_tri + sum((base_adj[v] & mask).bit_count() for v in subset) // 2
            key = (n, m + size, tri, tuple(sorted(colour)))
            bucket = buckets.get(key)
            if bucket is not None:
                back = base_back + [subset]
                if any(_isomorphic(back, colour, b_adj, b_classes)
                       for b_adj, b_classes, _, _ in bucket):
                    continue
            else:
                bucket = buckets[key] = []
            adj = [a | new_bit if mask >> v & 1 else a for v, a in enumerate(base_adj)]
            adj.append(mask)
            classes: dict[tuple, list[int]] = {}
            for v, c in enumerate(colour):
                classes.setdefault(c, []).append(v)
            edges = tuple(sorted(base_edges + tuple((v, new) for v in subset)))
            bucket.append((tuple(adj), classes, edges, tri))

    reps = [rep for bucket in buckets.values() for rep in bucket]
    graphs = tuple(Graph._from_sorted(n, edges) for _, _, edges, _ in reps)
    forms = [(adj, edges, tri) for adj, _, edges, tri in reps]
    _CACHE[n] = (graphs, forms)
    return _CACHE[n]


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return _level(n)[0]


def connected_graphs_up_to(max_n: int) -> list[Graph]:
    """Corpus of all connected graphs with 1..max_n vertices, ordered by n."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out
