"""Random graph models and the subgraph enumeration the analysis relies on.

Two families are supported: Erdos-Renyi graphs with a fixed edge count, and
bond-percolated square/cubic lattices.  Sampling is deterministic per seed,
and the draws behind it are pinned by this package rather than by library
internals:

- sparse ER graphs read their endpoints from `seeding.randbelow_batches`,
  the bulk form of successive `randrange(n)` calls;
- dense ER graphs run a partial Fisher-Yates shuffle written out below, one
  `randrange(i, npairs)` call per step;
- lattices keep each bond on a `seeding.uniform01` coin, the bulk form of
  successive `random()` calls, taken in `_lattice_edge_array` order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from math import log1p
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .seeding import randbelow_batches, uniform01


@dataclass(frozen=True)
class LatticeInfo:
    """Geometry tag for lattice graphs: dimension d in {2, 3} and side L."""

    d: int
    L: int


# scipy's `connected_components` gives int32 vertex labels, and every command
# builds them, so no graph may have more vertices than int32 can number
MAX_VERTICES = 2**31 - 1


def check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} is above {MAX_VERTICES}: component labels are int32")


def fields_equal(a, b) -> bool:
    """`==` for dataclasses that compares their array fields by value."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


def int_rows(items, width: int, what: str) -> np.ndarray:
    """`items`, an integer array or a sequence of `width`-tuples of ints, as a
    C-contiguous (len, width) int64 array.

    An entry outside int64 becomes -1, which every caller rejects as out of range.
    """
    try:
        rows = np.ascontiguousarray(items, dtype=np.int64).reshape(len(items), width)
    except OverflowError:
        return int_rows([[x if abs(x) < 2**63 else -1 for x in row] for row in items], width, what)
    except ValueError:  # ragged, or rows of another width
        raise ValueError(f"{what} must be {width}-tuples") from None
    # the int64 cast truncates floats and parses strings; neither is an index
    if rows.size and not np.array_equal(rows, items):
        raise ValueError(f"{what} must be integers")
    return rows


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph; edges canonical (u < v) and sorted.

    `edge_array` is the one record of the edges, a read-only (m, 2) int64
    array; it may be given as any integer array or sequence of int pairs.
    `edges` rebuilds the pairs as Python ints each time it is read.
    """

    n: int
    edge_array: np.ndarray
    lattice: Optional[LatticeInfo] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        check_vertex_count(self.n)
        rows = int_rows(self.edge_array, 2, "edges")
        m = len(rows)
        u, v = rows.T
        # the first edge out of range, and the first that does not follow its
        # predecessor; a tie reports the range
        bad = np.flatnonzero((u < 0) | (u >= v) | (v >= self.n))
        unsorted = np.flatnonzero((u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1])))
        i = int(bad[0]) if len(bad) else m
        k = int(unsorted[0]) + 1 if len(unsorted) else m
        # messages quote the edges as given, so an entry past int64 shows as is
        if i < m and i <= k:
            a, b = self.edge_array[i]
            raise ValueError(f"edge ({a},{b}) out of range or misordered")
        if k < m:
            a, b = self.edge_array[k]
            raise ValueError(f"edges not sorted and distinct at ({a},{b})")
        rows.flags.writeable = False
        object.__setattr__(self, "edge_array", rows)

    __eq__ = fields_equal

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.edge_array.T.tolist()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def model_tag(self) -> str:
        if self.lattice is None:
            return "er"
        return f"lat{self.lattice.d}"


# ---------------------------------------------------------------------------
# sampling


def _first_distinct_pairs(n: int, m: int, rng: random.Random) -> np.ndarray:
    """The first m distinct canonical pairs of a `randrange(n)` stream, sorted.

    The stream is read as (u, v) draws and a draw with u == v is skipped,
    exactly as a hash-set loop drawing u then v would; needs 0 < m < n(n-1)/2.
    """
    npairs = n * (n - 1) // 2
    # draws expected to reach m distinct pairs (coupon collection), with the
    # u == v draws on top; randbelow_batches adds its own slack
    draws = -npairs * log1p(-m / npairs) * n / (n - 1)
    batches = randbelow_batches(rng, n, 2 * int(draws) + 2)
    stream = next(batches)
    while True:
        half = len(stream) // 2
        u, v = stream[0 : 2 * half : 2], stream[1 : 2 * half : 2]
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        codes, first = np.unique(lo * n + hi, return_index=True)
        if len(codes) >= m:
            break
        stream = np.concatenate((stream, next(batches)))
    # `codes` ascend, so the m pairs drawn first come out in sorted order
    pick = first[first <= np.partition(first, m - 1)[m - 1]]
    return np.column_stack((lo[pick], hi[pick]))


def sample_er_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with n vertices and exactly m distinct edges.

    Keeps the first m distinct pairs of a random pair stream while m is small
    relative to n^2 and falls back to a partial shuffle of the materialised
    pair list when the requested density would make rejection slow.
    """
    npairs = n * (n - 1) // 2
    if m < 0 or m > npairs:
        raise ValueError(f"m={m} out of range for n={n}")
    check_vertex_count(n)
    rng = random.Random(seed)
    if m == 0:
        return Graph(n, ())
    if m <= n * n // 8:
        return Graph(n, _first_distinct_pairs(n, m, rng))
    allpairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(m):  # Fisher-Yates, stopped after m draws
        j = rng.randrange(i, npairs)
        allpairs[i], allpairs[j] = allpairs[j], allpairs[i]
    return Graph(n, sorted(allpairs[:m]))


def lattice_vertex(coord: Sequence[int], L: int) -> int:
    vid = 0
    for c in coord:
        vid = vid * L + c
    return vid


def lattice_coord(vid: int, d: int, L: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(vid % L)
        vid //= L
    return tuple(reversed(out))


def _lattice_edge_array(d: int, L: int) -> np.ndarray:
    """Every bond of the L^d lattice as (vertex, +1 neighbour) rows.

    Rows run in row-major vertex order and, per vertex, in axis order.
    """
    vid = np.arange(L**d, dtype=np.int64)[:, None]
    strides = L ** np.arange(d - 1, -1, -1, dtype=np.int64)
    inside = (vid // strides) % L + 1 < L
    u = np.broadcast_to(vid, inside.shape)[inside]
    return np.column_stack((u, (vid + strides)[inside]))


def sample_lattice(d: int, L: int, p: float, seed: int) -> Graph:
    """Bond percolation on the d-dimensional L^d lattice: keep each edge w.p. p."""
    if d not in (2, 3):
        raise ValueError("lattice dimension must be 2 or 3")
    if L < 2:
        raise ValueError("lattice side must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("bond probability must lie in [0, 1]")
    check_vertex_count(L**d)
    rng = random.Random(seed)
    bonds = _lattice_edge_array(d, L)
    kept = bonds[uniform01(rng, len(bonds)) < p]
    rows = kept[np.lexsort((kept[:, 1], kept[:, 0]))]
    return Graph(L**d, rows, LatticeInfo(d, L))


# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class ComponentReport:
    """`labels` is a read-only int64 array: each vertex's index in `components`."""

    components: tuple[tuple[int, ...], ...]
    edge_counts: tuple[int, ...]
    classes: tuple[str, ...]
    max_size: int
    multicyclic_count: int
    labels: np.ndarray = field(repr=False, compare=False)


_CLASSES = ("tree", "unicyclic", "multicyclic")


def vertex_components(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Connected components of the graph on range(n) with edges (u[i], v[i]).

    Returns the components, members ascending and ordered by their smallest
    vertex, and each vertex's index into that list.
    """
    graph = csr_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    ncomp, labels = connected_components(graph, directed=False)
    # a stable sort keeps each label's vertices ascending
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=ncomp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    by_first = np.argsort(order[starts])
    index = np.empty(ncomp, dtype=np.int64)
    index[by_first] = np.arange(ncomp)
    flat = order.tolist()
    comps = [
        tuple(flat[a:b])
        for a, b in zip(starts[by_first].tolist(), ends[by_first].tolist())
    ]
    return comps, index[labels]


def components(g: Graph) -> ComponentReport:
    """Connected components with a tree/unicyclic/multicyclic class each.

    Members ascend and components are ordered by their smallest vertex.
    """
    u, v = g.edge_array.T
    comps, labels = vertex_components(g.n, u, v)
    sizes = np.bincount(labels, minlength=len(comps))
    counts = np.bincount(labels[u], minlength=len(comps))
    excess = np.minimum(counts - sizes + 1, 2)
    labels.flags.writeable = False
    return ComponentReport(
        components=tuple(comps),
        edge_counts=tuple(counts.tolist()),
        classes=tuple(_CLASSES[e] for e in excess.tolist()),
        max_size=int(sizes.max(initial=0)),
        multicyclic_count=int(np.count_nonzero(excess == 2)),
        labels=labels,
    )


# ---------------------------------------------------------------------------
# small subgraph enumeration


def enumerate_cycles(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All simple cycles with exactly `length` vertices, each listed once.

    Canonical form: the tuple starts at the cycle's smallest vertex and the
    second entry is smaller than the last, fixing the direction.
    """
    if length < 3:
        raise ValueError("cycles need at least three vertices")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in zip(*g.edge_array.T.tolist()):  # edges ascend, so each list does
        adj[u].append(v)
        adj[v].append(u)
    adjset = [frozenset(nbrs) for nbrs in adj]
    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * g.n

    def extend(start: int) -> None:
        v = path[-1]
        if len(path) == length:
            if start in adjset[v] and path[1] < v:
                cycles.append(tuple(path))
            return
        for w in adj[v]:
            if w > start and not on_path[w]:
                path.append(w)
                on_path[w] = True
                extend(start)
                path.pop()
                on_path[w] = False

    for s in range(g.n):
        path = [s]
        on_path[s] = True
        extend(s)
        on_path[s] = False
    return cycles


@dataclass(frozen=True)
class FigureEight:
    """Two equal-length cycles sharing exactly one vertex (the crux)."""

    crux: int
    cycle_a: tuple[int, ...]
    cycle_b: tuple[int, ...]


def _rotate_to(cycle: tuple[int, ...], v: int) -> tuple[int, ...]:
    k = cycle.index(v)
    return cycle[k:] + cycle[:k]


def enumerate_figure_eights(g: Graph, length: int) -> list[FigureEight]:
    """All unordered pairs of `length`-cycles whose vertex sets meet in one point.

    Enumeration is quadratic in the number of cycles, so lengths above 4 are
    refused.
    """
    if length > 4:
        raise ValueError(f"cycle length {length} is above 4")
    cycles = enumerate_cycles(g, length)
    sets = [frozenset(c) for c in cycles]
    out: list[FigureEight] = []
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            common = sets[i] & sets[j]
            if len(common) == 1:
                (crux,) = common
                out.append(
                    FigureEight(crux, _rotate_to(cycles[i], crux), _rotate_to(cycles[j], crux))
                )
    return out


@dataclass(frozen=True)
class Domino:
    """Two lattice plaquettes sharing one edge: 6 vertices, 7 edges.

    `shared` is the common edge (b, e); each side path runs b -> x -> y -> e
    around one plaquette.  Together with the shared edge these are the three
    independent b-e paths of the subgraph.
    """

    shared: tuple[int, int]
    side_a: tuple[int, int, int, int]
    side_b: tuple[int, int, int, int]

    def paths(self) -> list[tuple[int, ...]]:
        return [self.shared, self.side_a, self.side_b]


def _plaquettes_on_edge(
    coord: tuple[int, ...], axis: int, d: int, L: int, present: frozenset[tuple[int, int]]
) -> list[tuple[int, int, int, int]]:
    """Side paths b -> x -> y -> e for every fully-present plaquette on the edge."""

    def has(a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in present

    b = lattice_vertex(coord, L)
    ecoord = list(coord)
    ecoord[axis] += 1
    e = lattice_vertex(ecoord, L)
    sides = []
    for axis2 in range(d):
        if axis2 == axis:
            continue
        for sgn in (-1, 1):
            c2 = coord[axis2] + sgn
            if not 0 <= c2 < L:
                continue
            xcoord = list(coord)
            xcoord[axis2] = c2
            ycoord = list(ecoord)
            ycoord[axis2] = c2
            x, y = lattice_vertex(xcoord, L), lattice_vertex(ycoord, L)
            if has(b, x) and has(x, y) and has(y, e):
                sides.append((b, x, y, e))
    return sides


def enumerate_dominoes(g: Graph) -> list[Domino]:
    """All dominoes present in a lattice graph, one per shared edge and pair.

    A domino requires its shared edge plus both plaquettes' remaining edges,
    seven edges in all.  Raises ValueError for non-lattice graphs.
    """
    if g.lattice is None:
        raise ValueError("domino enumeration needs a lattice graph")
    d, L = g.lattice.d, g.lattice.L
    edges = list(zip(*g.edge_array.T.tolist()))
    present = frozenset(edges)
    out: list[Domino] = []
    for u, v in edges:
        cu, cv = lattice_coord(u, d, L), lattice_coord(v, d, L)
        # u < v, so u is the lower end on the first axis where they differ
        axis = next(i for i in range(d) if cu[i] != cv[i])
        sides = _plaquettes_on_edge(cu, axis, d, L, present)
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                out.append(Domino((u, v), sides[i], sides[j]))
    return out
