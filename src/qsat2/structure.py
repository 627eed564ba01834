"""Structural analysis: fixed states, frozen cores, decoupling, certificates.

The fixed (frozen) states are exactly the 2-SAT backbone: the kernel states
that every satisfying product assignment shares.  One engine solve decides
satisfiability and yields a witness; the backbone is found by probing the
witness's states with the engine's denial closure.  Removing the frozen
qubits leaves the residual components that `decouple` classifies and the
counter counts one by one.

Only cyclic components reach the solve.  A tree component is always
satisfiable, and its backbone is empty: a denial closure leaves its start
along distinct edges into disjoint subtrees, never walks back over the edge
it arrived by (that edge is satisfied at the vertex it reached), and so
reaches every vertex at most once and never returns to its start.  Nothing
in a tree can clash.  Decoupling reads the instance's edge array: the
residual split is one connected-components pass over the edges whose ends
are both unfrozen, and with nothing frozen the residual components are the
graph's components.

Loop option sets explain frustration: a cyclic walk whose junctions all stay
alive carries a nonzero chain constraint from a vertex back to itself,
restricting that vertex to one of at most two kernel states (one per end
factor).  A vertex whose option sets admit no common state certifies that
the instance is frustrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scc

from .graphs import (
    ComponentReport,
    Domino,
    FigureEight,
    UnionFind,
    components,
    vertex_components,
)
from .instances import Instance, satisfiable
from .twosat import TwoSatEngine, solve_edges


@dataclass(frozen=True)
class FrustrationCertificate:
    """Explanation attached to an unsatisfiable instance.

    kind "loop": the option sets at `vertex` admit no common state.
    kind "twosat": no loop explanation was found; `vertex` lies in a
    component whose kernel-state search is infeasible.
    """

    kind: str
    vertex: int
    option_sets: Optional[tuple[frozenset[int], ...]] = None


@dataclass(frozen=True)
class FrozenSubgraph:
    arcs: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]


@dataclass(frozen=True)
class Decomposition:
    frozen: dict[int, int]
    residual_components: tuple[tuple[int, ...], ...]
    label: str
    cutoff: int
    residual_max: int
    report: ComponentReport


# ---------------------------------------------------------------------------
# loop option sets

# Propagation states are (vertex, factor) pairs: vertex v held in the kernel
# state of factor a.  State (v, a) forces (w, j) along an edge (v, w) with
# factors (h, j) whenever h != a.  A walk in this state graph is exactly an
# alternating walk: every hop checks the junction at its source vertex.


def _state_arcs(inst: Instance) -> tuple[list[int], list[int]]:
    f = inst.dist.f
    src: list[int] = []
    dst: list[int] = []
    for u, v, h, j in inst.edge_tuples():
        for a in range(f):
            if a != h:
                src.append(u * f + a)
                dst.append(v * f + j)
            if a != j:
                src.append(v * f + a)
                dst.append(u * f + h)
    return src, dst


def _state_reach(inst: Instance) -> Optional[list[int]]:
    """Per-state reachability closure as bitsets over all n*f states.

    Collapses strongly connected components first, then accumulates in
    reverse topological order; states in one component share a bitset.
    Returns None when the state graph has no arcs at all.
    """
    f = inst.dist.f
    nf = inst.n * f
    src, dst = _state_arcs(inst)
    if not src:
        return None
    mat = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(nf, nf)
    )
    ncomp, labels = _scc(mat, directed=True, connection="strong")
    own = [0] * ncomp
    for s in range(nf):
        own[labels[s]] |= 1 << s
    edges_out: list[set[int]] = [set() for _ in range(ncomp)]
    indeg = [0] * ncomp
    for s, t in zip(src, dst):
        a, b = labels[s], labels[t]
        if a != b and b not in edges_out[a]:
            edges_out[a].add(b)
            indeg[b] += 1
    order = [c for c in range(ncomp) if indeg[c] == 0]
    for c in order:
        for d in edges_out[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                order.append(d)
    reach = own
    for c in reversed(order):
        acc = reach[c]
        for d in edges_out[c]:
            acc |= reach[d]
        reach[c] = acc
    return [reach[labels[s]] for s in range(nf)]


def vertex_options(inst: Instance) -> dict[int, list[frozenset[int]]]:
    """All loop option sets, grouped by vertex.

    For each edge class h at a vertex x, every alternating walk leaving
    through an h-edge and returning in state (x, b) contributes the option
    set {h, b}: x must sit in one of those two kernel states (or h = b, a
    single state) to satisfy the walk's chain constraint.
    """
    f = inst.dist.f
    reach = _state_reach(inst)
    if reach is None:
        return {}
    mask = (1 << f) - 1
    starts: dict[tuple[int, int], int] = {}
    for u, v, h, j in inst.edge_tuples():
        key = (u, h)
        starts[key] = starts.get(key, 0) | reach[v * f + j]
        key = (v, j)
        starts[key] = starts.get(key, 0) | reach[u * f + h]
    out: dict[int, list[frozenset[int]]] = {}
    for (x, h), bits in sorted(starts.items()):
        returned = (bits >> (x * f)) & mask
        while returned:
            b = (returned & -returned).bit_length() - 1
            returned &= returned - 1
            opt = frozenset((h, b))
            sets = out.setdefault(x, [])
            if opt not in sets:
                sets.append(opt)
    return out


# ---------------------------------------------------------------------------
# certificates and fixed states


def component_satisfiable(inst: Instance, comp: Sequence[int]) -> bool:
    """Kernel-state search restricted to one connected component's edges."""
    local = {v: i for i, v in enumerate(sorted(comp))}
    edges = [
        (i, local[v], h, j)
        for u, i in local.items()
        for v, h, j in inst.incident[u]
        if v > u
    ]
    return solve_edges(len(local), edges, want_witness=False) is not None


def frustration_certificate(inst: Instance) -> Optional[FrustrationCertificate]:
    """None iff satisfiable; otherwise a best-effort explanation.

    Satisfiability itself is decided by the kernel-state search.  When some
    vertex's loop option sets admit no common state, that vertex is
    reported; pairwise-consistent sets can still have empty joint
    intersection, so the whole collection is checked.
    """
    if satisfiable(inst):
        return None
    for x, opts in sorted(vertex_options(inst).items()):
        inter = frozenset.intersection(*opts)
        if not inter:
            return FrustrationCertificate("loop", x, tuple(opts))
    for comp in components(inst.graph).components:
        if len(comp) > 1 and not component_satisfiable(inst, comp):
            return FrustrationCertificate("twosat", comp[0])
    raise AssertionError("unsatisfiable instance with all components satisfiable")


def _backbone(inst: Instance, rep: ComponentReport) -> Optional[dict[int, int]]:
    """Entailed kernel states as vertex -> factor; None when unsatisfiable.

    `rep` is the component report of the instance's graph.  Only the edges
    of its cyclic components go to the one full solve: tree components are
    satisfiable with an empty backbone (see the module docstring).  An
    entailed state is true in every satisfying assignment, so in particular
    in the witness: only the witness's states need probing.  A state (v, h)
    is entailed exactly when the closure of its denial reaches (v, h), which
    is the condition for v to hold the singleton loop option set {h}.  Each
    entailed state is frozen with its closure, so later probes stop early
    at frozen states.
    """
    cyclic = np.zeros(inst.n, dtype=bool)
    for comp, cls in zip(rep.components, rep.classes):
        if cls != "tree":
            cyclic[list(comp)] = True
    edges = inst.edge_array
    eng = TwoSatEngine(inst.n, edges[cyclic[edges[:, 0]]])
    witness = eng.solve()
    if witness is None:
        return None
    probes = [(v, h) for v, h in enumerate(witness) if h is not None]
    if probes:
        # the probes walk cyclic components only, whose edges the index lists
        eng.incident = inst.incident
    for v, h in probes:
        if eng.frozen[v] is None and eng.pinned_to(v, h):
            eng.freeze(v, h)
    return {v: s for v, s in enumerate(eng.frozen) if s is not None}


def fixed_states(inst: Instance) -> dict[int, int]:
    """Vertices stuck in one kernel state, as vertex -> factor.

    This is exactly the 2-SAT backbone: v maps to h iff every satisfying
    product assignment puts v in the kernel state of factor h.  Complete as
    well as sound, because 2-SAT entailment is decided by the closure of a
    literal's denial (see `_backbone`).
    """
    frozen = _backbone(inst, components(inst.graph))
    if frozen is None:
        raise ValueError("fixed states are only defined for satisfiable instances")
    return frozen


def frozen_subgraph(inst: Instance, frozen: dict[int, int]) -> FrozenSubgraph:
    """Arcs x -> y where x's frozen state fails to satisfy the edge at x.

    Any such arc's target must itself be frozen, or the input was not closed
    under propagation.  Components are weak; the largest is the frozen core.
    """
    arcs: list[tuple[int, int]] = []
    for u, v, h, j in inst.edge_tuples():
        fu, fv = frozen.get(u), frozen.get(v)
        if fu is not None and fu != h:
            if fv is None:
                raise ValueError(f"arc {u}->{v} leaves the frozen set")
            arcs.append((u, v))
        if fv is not None and fv != j:
            if fu is None:
                raise ValueError(f"arc {v}->{u} leaves the frozen set")
            arcs.append((v, u))
    verts = sorted(frozen)
    index = {v: i for i, v in enumerate(verts)}
    uf = UnionFind(len(verts))
    for x, y in arcs:
        uf.union(index[x], index[y])
    groups: dict[int, list[int]] = {}
    for v in verts:
        groups.setdefault(uf.find(index[v]), []).append(v)
    comps = sorted(groups.values(), key=lambda c: (-len(c), c[0]))
    return FrozenSubgraph(
        arcs=tuple(sorted(arcs)),
        components=tuple(tuple(c) for c in comps),
        core=tuple(comps[0]) if comps else (),
    )


def component_cutoff(n: int, cutoff_c: float) -> int:
    """Size cutoff ceil(c * log2 n) of the phase labels, 1 when n <= 1.

    c must be positive and small enough that c * log2 n stays finite.
    """
    if not 0 < cutoff_c * math.log2(max(n, 2)) < math.inf:
        raise ValueError(f"cutoff_c must be positive with c * log2 n finite, got {cutoff_c!r}")
    return math.ceil(cutoff_c * math.log2(n)) if n > 1 else 1


def decouple(inst: Instance, cutoff_c: float = 3.0) -> Decomposition:
    """Remove the frozen closure and classify what remains.

    Labels: frustrated when unsatisfiable; highly_disconnected when the
    original graph already has no component above the cutoff; highly
    decoupled when removing frozen vertices brings every residual component
    under it; unclassified otherwise.  Cutoff is ceil(c * log2 n).  The
    component report of the original graph rides along as `report`.
    """
    g = inst.graph
    rep = components(g)
    cutoff = component_cutoff(g.n, cutoff_c)
    frozen = _backbone(inst, rep)
    if frozen is None:
        return Decomposition(
            frozen={},
            residual_components=rep.components,
            label="frustrated",
            cutoff=cutoff,
            residual_max=rep.max_size,
            report=rep,
        )
    if frozen:
        alive = np.ones(g.n, dtype=bool)
        alive[np.fromiter(frozen, dtype=np.int64, count=len(frozen))] = False
        u, v = g.edge_array.T
        keep = alive[u] & alive[v]
        # frozen vertices keep no edge, so each is a component of its own
        comps, _ = vertex_components(g.n, u[keep], v[keep])
        residual = tuple(c for c in comps if c[0] not in frozen)
    else:
        residual = rep.components
    residual_max = max((len(c) for c in residual), default=0)
    if rep.max_size <= cutoff:
        label = "highly_disconnected"
    elif residual_max <= cutoff:
        label = "highly_decoupled"
    else:
        label = "unclassified"
    return Decomposition(
        frozen=frozen,
        residual_components=residual,
        label=label,
        cutoff=cutoff,
        residual_max=residual_max,
        report=rep,
    )


# ---------------------------------------------------------------------------
# frustration predicates for enumerated subgraphs


def edge_factor_map(inst: Instance) -> dict[tuple[int, int], tuple[int, int]]:
    return {(u, v): (h, j) for u, v, h, j in inst.edge_tuples()}


def _side(ef: dict, a: int, b: int) -> int:
    """Factor index on a's side of edge (a, b)."""
    if a < b:
        return ef[(a, b)][0]
    return ef[(b, a)][1]


def _path_chain(ef: dict, path: Sequence[int]) -> Optional[tuple[int, int]]:
    """End factors (h at path[0], j at path[-1]) if every junction survives."""
    for i in range(1, len(path) - 1):
        if _side(ef, path[i], path[i - 1]) == _side(ef, path[i], path[i + 1]):
            return None
    return _side(ef, path[0], path[1]), _side(ef, path[-1], path[-2])


def figure_eight_frustrated(
    inst: Instance, fig: FigureEight, ef: Optional[dict] = None
) -> bool:
    """Both cycles survive as loop constraints with disjoint option sets.

    Each cycle, read as a walk crux -> ... -> crux, must keep all interior
    junctions alive; it then pins the crux to one of its two end factors.
    Disjoint option pairs leave the crux no state at all.
    """
    if ef is None:
        ef = edge_factor_map(inst)
    options: list[set[int]] = []
    for cycle in (fig.cycle_a, fig.cycle_b):
        walk = cycle + (fig.crux,)
        ends = _path_chain(ef, walk)
        if ends is None:
            return False
        options.append(set(ends))
    return options[0].isdisjoint(options[1])


def domino_frustrated(inst: Instance, dom: Domino, ef: Optional[dict] = None) -> bool:
    """Three surviving chain constraints on the shared edge, jointly infeasible.

    The shared pair (b, e) faces three b-to-e chains: the shared edge and the
    two plaquette side paths.  With all side junctions alive, the pair is
    stuck iff the three b-end factors are pairwise distinct and so are the
    three e-end factors; then no kernel state at b or e can absorb two
    chains at once.
    """
    if ef is None:
        ef = edge_factor_map(inst)
    heads = []
    tails = []
    for path in dom.paths():
        ends = _path_chain(ef, path)
        if ends is None:
            return False
        heads.append(ends[0])
        tails.append(ends[1])
    return len(set(heads)) == 3 and len(set(tails)) == 3
