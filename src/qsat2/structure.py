"""Structural analysis: the frozen set, frozen cores, decoupling.

The frozen states are exactly the 2-SAT backbone: the kernel states that
every satisfying product assignment shares.  `decouple` finds them in one
pass over one literal graph, `twosat.literal_graph`.  Its labels decide
satisfiability; when the instance is unsatisfiable, they name the clashing
vertices, and with them the frustrated components, and nothing is frozen.
Otherwise the backbone is found by probing each variable x[v,h] of the
clause set, one per side of an edge, with the engine's denial closure: a
state (v, h) that no edge at v carries on v's side has a denial closure
with no start, which cannot collapse.  The probes take the states that the
labels' model sets true first.  A backbone state is true in every model, so
the entailed states are frozen early, and the denial closures of the
states that the model sets false then stop at the frozen core instead of
walking it.  The order decides the speed only: a probe's answer does not
depend on it, so the frozen array is the backbone whatever numbering the
SCC routine uses.

Removing the frozen qubits leaves the residual components that `decouple`
classifies and the counter counts one by one.  `frozen_subgraph` groups the
frozen vertices by the edges that their frozen states leave unsatisfied and
returns the largest, the frozen core, after checking that no such edge
leaves the frozen set, the closure the counter relies on.  `decouple`
returns the one record that the sweep, `count` and `analyze` read.

Only cyclic components reach the literal graph.  A tree component is always
satisfiable, and its backbone is empty: a denial closure leaves its start
along distinct edges into disjoint subtrees, never walks back over the edge
it arrived by (that edge is satisfied at the vertex it reached), and so
reaches every vertex at most once and never returns to its start.  Nothing
in a tree can clash.  Decoupling reads the instance's edge array: the
residual split is one connected-components pass over the edges whose ends
are both unfrozen, and with nothing frozen the residual labels are the
graph's labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import (
    ComponentReport,
    Domino,
    FigureEight,
    component_labels,
    components,
    fields_equal,
)
from .instances import Instance
from .twosat import TwoSatEngine, literal_graph, solve


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Per-vertex read-only int64 arrays: `frozen` holds each vertex's frozen
    factor index, -1 where none is (everywhere on a frustrated instance), and
    `residual_labels` numbers the residual components densely by smallest
    vertex, -1 at a frozen vertex.  `frustrated_components` holds ascending
    numbers of `report.labels`, empty unless frustrated."""

    frozen: np.ndarray
    frozen_core: int
    residual_labels: np.ndarray
    label: str
    cutoff: int
    residual_max: int
    report: ComponentReport
    frustrated_components: tuple[int, ...]

    __eq__ = fields_equal


def _backbone(
    inst: Instance, rep: ComponentReport
) -> tuple[Optional[np.ndarray], tuple[int, ...]]:
    """Each vertex's entailed factor index, -1 if none, and the frustrated components.

    Returns (backbone, ()) when the instance is satisfiable and (None,
    frustrated) otherwise, frustrated being the ascending numbers in
    `rep.labels` of the components whose vertices clash in the literal
    graph.  `rep` is the component report of the instance's graph.  Only
    the edges of its cyclic components go to the one literal graph: tree
    components are satisfiable with an empty backbone (see the module
    docstring).  A state (v, h) is entailed exactly when the closure of its
    denial collapses.  That closure starts at the far ends of v's edges
    that carry factor h on v's side, so only the variables x[v,h] of the
    cyclic clause set, the two sides of its edges, can be entailed, and
    those are the states probed, those that the labels' model sets true
    first.  Each entailed state is frozen with its closure, so later probes
    stop early at frozen states, and a frozen vertex is not probed again.
    """
    # a component is cyclic when it has at least as many edges as vertices
    cyclic = np.asarray(rep.edge_counts) >= np.asarray(rep.sizes)
    edges = inst.edge_array
    vert, state, labels = literal_graph(edges[cyclic[rep.labels[edges[:, 0]]]])
    pos, neg = labels[0::2], labels[1::2]
    clash = pos == neg
    if clash.any():
        return None, tuple(np.unique(rep.labels[vert[clash]]).tolist())
    if not len(vert):
        return np.full(inst.n, -1, dtype=np.int64), ()
    # the states that the labels' model sets true first (see the module docstring)
    order = np.argsort(pos > neg, kind="stable")
    # the probes walk cyclic components only, whose edges the index lists
    eng = TwoSatEngine(inst.n, inst.incident)
    frozen = eng.frozen
    for v, h in zip(vert[order].tolist(), state[order].tolist()):
        if frozen[v] < 0 and eng.pinned_to(v, h):
            eng.freeze(v, h)
    return np.array(frozen, dtype=np.int64), ()


def frozen_subgraph(inst: Instance, frozen: np.ndarray) -> tuple[int, ...]:
    """The frozen core, ascending: the largest group of frozen vertices joined
    by arcs x -> y, one wherever x's frozen state fails to satisfy the edge
    at x, and of equal groups the one with the smallest vertex.

    Any such arc's target must itself be frozen, not -1, or the input was not
    closed under propagation.  Returns () when nothing is frozen.
    """
    verts = np.flatnonzero(frozen >= 0)
    if not verts.size:
        return ()
    u, v, h, j = inst.edge_array.T
    fu, fv = frozen[u], frozen[v]
    fwd = (fu >= 0) & (fu != h)
    back = (fv >= 0) & (fv != j)
    leaks = np.flatnonzero(fwd & (fv < 0) | back & (fu < 0))
    if leaks.size:
        i = leaks[0]
        # a forward arc needs u frozen and a backward escape needs u
        # unfrozen, so an edge escapes one way at most
        x, y = (u[i], v[i]) if fwd[i] else (v[i], u[i])
        raise ValueError(f"arc {x}->{y} leaves the frozen set")
    arc = fwd | back
    labels = component_labels(inst.n, u[arc], v[arc])
    groups = labels[verts]
    # groups are numbered by smallest vertex, so argmax breaks a tie by it
    return tuple(verts[groups == np.bincount(groups).argmax()].tolist())


def component_cutoff(n: int, cutoff_c: float) -> int:
    """Size cutoff ceil(c * log2 n) of the phase labels, 1 when n <= 1.

    c must be positive and small enough that c * log2 n stays finite.
    """
    if not 0 < cutoff_c * math.log2(max(n, 2)) < math.inf:
        raise ValueError(f"cutoff_c must be positive with c * log2 n finite, got {cutoff_c!r}")
    return math.ceil(cutoff_c * math.log2(n)) if n > 1 else 1


def phase_label(size: int, residual_max: int, cutoff: int) -> str:
    """Label of a satisfiable graph, or of one of its components.

    `size` is the vertex count of its largest component and `residual_max`
    that of its largest residual component: highly_disconnected when `size`
    is at most `cutoff`, highly_decoupled when `residual_max` is, and
    unclassified otherwise.
    """
    if size <= cutoff:
        return "highly_disconnected"
    if residual_max <= cutoff:
        return "highly_decoupled"
    return "unclassified"


def decouple(inst: Instance, cutoff_c: float = 3.0) -> Decomposition:
    """Remove the frozen closure and classify what remains.

    The label is frustrated when the instance is unsatisfiable, and the
    whole graph's `phase_label` otherwise.  Cutoff is ceil(c * log2 n).  When
    something is frozen, `frozen_subgraph` checks the frozen set's closure
    and gives the frozen core.  The component report of the original graph
    rides along as `report`; on a frustrated instance `frustrated_components`
    names the components whose vertices clash in the one literal graph.
    """
    g = inst.graph
    rep = components(g)
    cutoff = component_cutoff(g.n, cutoff_c)
    frozen, frustrated = _backbone(inst, rep)
    # a frustrated instance freezes nothing and keeps the graph's components
    frozen = np.full(g.n, -1, dtype=np.int64) if frozen is None else frozen
    frozen.flags.writeable = False
    alive = frozen < 0
    residual, residual_max, core = rep.labels, rep.max_size, 0
    if not alive.all():
        index = np.cumsum(alive) - 1  # numbers the unfrozen vertices in order
        u, v = g.edge_array.T
        keep = alive[u] & alive[v]
        residual = np.full(g.n, -1, dtype=np.int64)
        residual[alive] = component_labels(int(index[-1]) + 1, index[u[keep]], index[v[keep]])
        residual.flags.writeable = False
        residual_max = int(np.bincount(residual[alive]).max(initial=0))
        core = len(frozen_subgraph(inst, frozen))
    return Decomposition(
        frozen=frozen,
        frozen_core=core,
        residual_labels=residual,
        label="frustrated" if frustrated else phase_label(rep.max_size, residual_max, cutoff),
        cutoff=cutoff,
        residual_max=residual_max,
        report=rep,
        frustrated_components=frustrated,
    )


# ---------------------------------------------------------------------------
# frustration predicates for enumerated subgraphs


def _frustrated(inst: Instance, paths: Iterable[Sequence[int]]) -> bool:
    """Do the edges along `paths` alone admit no product state?

    Each edge (a, b) of a path gives its (a, b, h, j) row, read from
    `inst.incident`, to one `solve`; an edge the instance lacks raises KeyError.
    """
    rows = []
    for path in paths:
        for a, b in zip(path, path[1:]):
            sides = next((r[1:] for r in inst.incident[a] if r[0] == b), None)
            if sides is None:
                raise KeyError((a, b))
            rows.append((a, b, *sides))
    return bool(solve(rows))


def figure_eight_frustrated(inst: Instance, fig: FigureEight) -> bool:
    """The edges of the figure-eight's two cycles admit no product state."""
    return _frustrated(inst, (cycle + (fig.crux,) for cycle in (fig.cycle_a, fig.cycle_b)))


def domino_frustrated(inst: Instance, dom: Domino) -> bool:
    """The seven edges of the domino's three b-to-e paths admit no product state."""
    return _frustrated(inst, dom.paths())
