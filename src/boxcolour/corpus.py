"""Enumeration of small connected graphs up to isomorphism.

Built by augmentation: every connected graph on n vertices is a connected
graph on n-1 vertices plus one new vertex joined to a non-empty subset
(delete any leaf of a spanning tree to see this).  Candidates are bucketed
by cheap invariants and deduplicated with a backtracking isomorphism test.

The search works on adjacency bitmasks: bit w of adj[v] is set when vw is
an edge.  A candidate's masks are its base's masks plus the subset mask of
the new vertex, and its triangle count is the base's plus the base edges
inside the subset.  Each vertex v gets one int colour,

    deg(v) << s*n  |  sum over neighbours w of 1 << s*deg(w),

with s = n.bit_length(): field d, of s bits, counts v's neighbours of
degree d.  Every count and every degree is at most n - 1 < 2^s, so the
fields never carry into each other and two vertices get equal ints exactly
when they have equal degrees and equal sorted neighbour degrees: the int
is an injective encoding of the pair (degree, sorted neighbour degrees),
built without a sort.  The bucket key is (n, m, triangles, sorted
colours), and the isomorphism test maps a vertex only to one of the same
colour.  (Up to 7 vertices no two classes share a key, so there the test
only ever confirms a duplicate.)  A `Graph` is built only for each
representative kept, from its sorted edges.

A candidate's key is read off three tables per base, each a list over the
2^(n-1) subset masks S of the base's vertices:

    rise[S]   sums unit[deg(w) + 1] - unit[deg(w)]  over w in S,
    reach[S]  sums unit[deg(w) + 1]                 over w in S,
    inner[S]  counts the base edges with both ends in S,

with deg the base degrees (at most n - 2, so unit[deg(w) + 1] exists).
Joining the new vertex to S raises each w in S by one degree, which moves
w's count in its neighbours' colours up one field.  So base vertex v gets
its base colour plus rise[S & adj[v]], plus (1 << top) + unit[|S|] when v
is in S, for its own new edge and its new neighbour of degree |S|.  The
new vertex gets (|S| << top) + reach[S], and the candidate's triangles
are the base's plus inner[S], one per base edge the new vertex sees both
ends of.  These are the ints the definition gives, with no per-candidate
degree list and no walk over neighbours.

Candidates are met in a fixed order (bases in order, then subsets by size,
then lexicographically), buckets keep the order their keys first appear in,
and the first candidate of each class is kept.  So the representatives,
their labellings and their order are those of the plain enumeration on
`Graph` objects that the tests keep as the reference.

Twin pruning skips candidates before their key is computed.  Base
vertices x < y are twins when adj[x] & ~bit(y) == adj[y] & ~bit(x), so
swapping them is an automorphism of the base.  A subset S holding y but
not x then gives the same class as S' = S - y + x on the same base: the
swap, fixing the new vertex, maps one candidate onto the other.  S' has
the same size and is lexicographically smaller (the two agree below x,
where S' has x and S something larger), so it comes earlier in the order
and S is not the first candidate of its class.  A skipped candidate is
never a class's first, so no key first appears at a skipped candidate,
and the classes, their representatives and their order are unchanged.
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998,
prunes by the base's whole automorphism group; twins are the special
case found without computing the group.)  At n = 7 this keeps 4,818 of
7,056 candidates, and at n = 8 79,937 of 108,331.

Class counts for n = 1..9: 1, 1, 2, 6, 21, 112, 853, 11,117, 261,080.
Enumeration stops at MAX_ORDER = 9 vertices: n = 10 has 11,716,571
classes, over 40 times as many as all smaller orders together.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph

MAX_ORDER = 9

# A level's representatives as graphs, and as (adjacency masks, sorted
# edges, triangle count) for augmenting them into the next level.
_Form = tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]
_CACHE: dict[int, tuple[tuple[Graph, ...], list[_Form]]] = {}


def _isomorphic(
    back: list[list[int]], colour_a: list, adj_b: tuple[int, ...],
    classes_b: dict[object, list[int]],
) -> bool:
    """Is there a bijection a -> b preserving adjacency and vertex colours?

    The vertices of a are placed in index order; `back[v]` lists v's
    neighbours below v, and `classes_b` lists b's vertices per colour, which
    may be any hashable value.  v may go to w only if w's edges to the
    images placed so far are exactly the images of v's edges to the
    vertices placed."""
    return _extend(0, 0, back, colour_a, adj_b, classes_b, [0] * len(back))


def _extend(
    v: int, used: int, back: list[list[int]], colour_a: list,
    adj_b: tuple[int, ...], classes_b: dict[object, list[int]], image: list[int],
) -> bool:
    """Place a's vertices v, v+1, ... given the bits `image` of the images
    of those below v, whose union is `used`.  A module-level function, not
    a closure, so a call leaves no reference cycle for the collector."""
    if v == len(back):
        return True
    want = 0
    for p in back[v]:
        want |= image[p]
    for w in classes_b[colour_a[v]]:
        bit = 1 << w
        if used & bit or adj_b[w] & used != want:
            continue
        image[v] = bit
        if _extend(v + 1, used | bit, back, colour_a, adj_b, classes_b, image):
            return True
    return False


def _colour_fields(n: int) -> tuple[int, list[int]]:
    """(top, unit) for graphs on n vertices: a vertex of degree d whose
    neighbours have degrees d_1, ..., d_k gets the colour d << top plus the
    sum of unit[d_i]; see the module docstring."""
    s = n.bit_length()
    return s * n, [1 << s * d for d in range(n)]


def _base_tables(
    base_adj: tuple[int, ...], top: int, unit: list[int],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """A base's vertex colours on the fields (top, unit) of the next order,
    and its tables rise, reach and inner over subset masks; see the module
    docstring.  Adding vertex w to the masks below bit w doubles each
    table, one comprehension per vertex."""
    deg = [a.bit_count() for a in base_adj]
    rise, reach, inner = [0], [0], [0]
    for w, a in enumerate(base_adj):
        before, after = unit[deg[w]], unit[deg[w] + 1]
        rise += [r + after - before for r in rise]
        reach += [r + after for r in reach]
        inner += [t + (a & rest).bit_count() for rest, t in enumerate(inner)]
    # reach - rise sums unit[deg w] over a mask: the base's own fields
    colour = [(d << top) + reach[a] - rise[a] for d, a in zip(deg, base_adj)]
    return colour, rise, reach, inner


def _candidate(
    base_adj: tuple[int, ...], tables: tuple[list[int], ...], mask: int,
    subset: tuple[int, ...], top: int, unit: list[int],
) -> tuple[list[int], int]:
    """The vertex colours of the base plus a new vertex joined to `subset`,
    whose bits are `mask`, and the number of base edges inside the subset,
    read off the base's tables."""
    base_colour, rise, reach, inner = tables
    size = len(subset)
    colour = [c + rise[mask & a] for c, a in zip(base_colour, base_adj)]
    joined = (1 << top) + unit[size]
    for v in subset:
        colour[v] += joined
    colour.append((size << top) + reach[mask])
    return colour, inner[mask]


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
    top, unit = _colour_fields(n)
    # key -> [(adjacency masks, colour classes, edges, triangles)]
    buckets: dict[tuple, list[tuple]] = {}
    for base_adj, base_edges, base_tri in _level(new)[1]:
        base_back = [[w for w in range(v) if a >> w & 1] for v, a in enumerate(base_adj)]
        m = len(base_edges)
        # y -> the twins x < y, for y that has any; see the module docstring
        twins = []
        for y in range(1, new):
            ybit = 1 << y
            xs = 0
            for x in range(y):
                xbit = 1 << x
                if base_adj[x] & ~ybit == base_adj[y] & ~xbit:
                    xs |= xbit
            if xs:
                twins.append((ybit, xs))
        tables = _base_tables(base_adj, top, unit)
        for mask, subset in subsets:
            if twins and any(mask & ybit and mask & xs != xs for ybit, xs in twins):
                continue
            colour, inside = _candidate(base_adj, tables, mask, subset, top, unit)
            tri = base_tri + inside
            key = (n, m + len(subset), tri, tuple(sorted(colour)))
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
            classes: dict[int, list[int]] = {}
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
    _check_corpus_order(n)
    return _level(n)[0]


def connected_graphs_up_to(max_n: int) -> list[Graph]:
    """Corpus of all connected graphs with 1..max_n vertices, ordered by n."""
    _check_corpus_order(max_n)
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out


def _check_corpus_order(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_ORDER:
        raise ValueError(f"corpus enumeration stops at {MAX_ORDER} vertices, got {n}")
