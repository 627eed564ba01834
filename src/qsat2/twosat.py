"""Satisfiability engine for product-constraint instances.

An instance with product constraints is satisfiable exactly when a product
state satisfies it, and a product state works exactly when, on every edge,
at least one endpoint sits in the kernel state of its factor.  That is a
2-SAT problem over variables x[v,h] = "vertex v is in the kernel state of
factor h", with one clause (x[u,h] or x[v,j]) per edge and at-most-one
constraints per vertex.

Both clause kinds have uniform polarity (edge clauses all-positive,
at-most-one clauses all-negative), so implication chains strictly alternate
positive and negative literals.  Consequences of a positive literal are
therefore computed by a BFS over (vertex, factor) states alone:

    (v, s)  ->  (w, j)   for every edge (v, w) whose v-side factor is not s.

A query literal is infeasible exactly when its closure tries to give two
different states to one vertex.  The closure records each vertex at most
once (a second state at a vertex is the conflict that ends it), so one
uncapped BFS answers an incremental query in O(n + m): 2-SAT unit
propagation is linear.  `TwoSatEngine` answers these queries over a
per-vertex edge index, with one search routine that serves the
conditioned sampler, the backbone probes and the split counter in
`counting`.

A satisfying assignment M at hand lets a query walk less, in the
model-relative form of unit propagation.  The search from (u, k) moves a
vertex only when it forces it into a state other than M's, and expands
only the vertices it moves; a vertex forced into its M state is left as it
is.  Suppose the search finds no clash, and let M' be M overwritten by the
moved vertices' states; M' satisfies every clause.  Take an edge (a, b, p,
q) with a moved to some s != p.  Expanding a forced b to q.  If b had
already moved, to t != q, that was a clash.  If it had not, M[b] = q or b
moved to q then.  Were b moved later to some t != q, its expansion would
force a to p against a's mark: a clash.  So M'[b] = q.  An edge is thus
satisfied in M' when an end moved off its own side's state, at once when
an end moved onto it, and by M when neither end moved.  Each forced state
is entailed by x[u,k], so a clash means that x[u,k] forces two states at
one vertex.  The search therefore answers as the full closure does, and on
success M' is the next model.  Frozen states agree with M and are closed
under the transition, so a vertex forced into its frozen state stays put
and one forced out of it is a clash, with the same argument.  A full
closure is the search that keeps only the frozen states, so its states,
too, move M to a model.

Deciding the whole clause set at once starts from `literal_graph`, a
function of an (m, 4) edge array.  It builds the literal graph in numpy,
hands it to scipy's strongly connected components, and returns the
variables, as (vertex, state) pairs ascending, with the component labels of
their literals.  The clause set is unsatisfiable exactly when some variable
shares a component with its negation; `solve` names the vertices of every
such variable.  Each clash lies inside one connected component of the
interaction graph: every arc joins two variables of one vertex (at most one
kernel state) or of the two ends of one edge, so a strongly connected
component never spans two graph components.  The literal graph of a graph
component's own clauses is the whole literal graph restricted to that
component, so the component is unsatisfiable exactly when one of its
vertices clashes: the clashing vertices name the frustrated components.

On a satisfiable clause set the labels also give a model, as in Aspvall,
Plass and Tarjan (1979): scipy numbers the components in reverse
topological order, so setting x true exactly when label[x] < label[not x]
satisfies every clause.  Nothing here relies on that numbering for a
result.  The backbone probes in `structure` read the model only to order
their queries, and any numbering gives the same frozen states.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class TwoSatEngine:
    """Entailment-aware reachability queries over a per-vertex edge index.

    `incident[v]` lists (other endpoint, factor on v's side, factor on the
    other side) for every edge at v.  `TwoSatEngine(n)` starts with no
    edges and `add_edge` grows the index; `TwoSatEngine(n, incident)`
    queries a fixed index, such as `Instance.incident`.

    `frozen[v]` caches a factor index entailed for v by the current clause
    set, -1 for none.  Queries use it to stop early; callers must only freeze
    entailed states, and `freeze` keeps the cache closed under the BFS transition.
    The split counter freezes a branch's assumption and its closure, and
    resets them once the branch is counted.

    `model` is a satisfying assignment of the clauses, a factor index per
    vertex and -1 for no kernel state, that agrees with `frozen`.  A grown
    engine starts with the all -1 model of no clauses, and `add_edge`,
    `feasible` and `freeze` keep it one; `add_edge` drops it (None) once
    the clauses become unsatisfiable.  An engine over a fixed index has no
    model, and its queries are full closures.

    Every query is one `_search`, which works in buffers the engine owns: an
    epoch-stamped mark and state per vertex and one reused queue.  A search's
    results stay valid only until the next search starts, so `closure`
    hands back a copy.
    """

    __slots__ = ("incident", "frozen", "model", "_mark", "_state", "_queue", "_epoch")

    def __init__(
        self, n: int, incident: Optional[Sequence[Sequence[tuple[int, int, int]]]] = None
    ):
        self.model: Optional[list[int]] = [-1] * n if incident is None else None
        self.incident = [[] for _ in range(n)] if incident is None else incident
        self.frozen: list[int] = [-1] * n
        self._mark = [0] * n
        self._state = [0] * n
        self._queue: list[int] = []
        self._epoch = 0

    def add_edge(self, u: int, v: int, h: int, j: int) -> None:
        """Add the clause (x[u,h] or x[v,j]), moving the model onto it.

        A model that fails the clause moves, through `feasible`, to the
        first of x[u,h] and x[v,j] that its search finds feasible.  The
        search forces that side, so the clause holds there and the module
        docstring's proof goes through although the model fails it.  When
        neither side is feasible, the clauses are now unsatisfiable and the
        model is dropped.
        """
        self.incident[u].append((v, h, j))
        self.incident[v].append((u, j, h))
        model = self.model
        if model is not None and model[u] != h and model[v] != j:
            if not (self.feasible(u, h) or self.feasible(v, j)):
                self.model = None

    # -- the one search ---------------------------------------------------

    def _search(self, starts: Iterable[tuple[int, int]], keep: list[int]) -> bool:
        """Force `starts` and what they entail; False on a clash.

        The search moves a vertex by forcing it into a state other than its
        `keep` state: it marks the vertex with this search's epoch, records
        the state in `_state` and expands it, and `_queue` lists the moved
        vertices in order.  A vertex forced into its `keep` state is left as
        it is.  A clash is a vertex forced two ways, or out of a frozen
        state.  `keep` is `frozen` for a full closure, whose moved vertices
        are then exactly the newly forced ones, or the model, which agrees
        with `frozen`; the module docstring proves that either way the
        answer is the full closure's.  A marked vertex is never frozen, so
        the mark is read first.
        """
        frozen, incident, mark, state, queue = (
            self.frozen, self.incident, self._mark, self._state, self._queue
        )
        epoch = self._epoch = self._epoch + 1
        queue.clear()
        for v, s in starts:
            if mark[v] == epoch:
                if state[v] != s:
                    return False
            elif keep[v] != s:
                if frozen[v] >= 0:
                    return False
                mark[v] = epoch
                state[v] = s
                queue.append(v)
        for v in queue:  # the loop reaches the vertices it appends
            s = state[v]
            for w, hv, jw in incident[v]:
                if hv == s:
                    continue
                if mark[w] == epoch:
                    if state[w] != jw:
                        return False
                elif keep[w] != jw:
                    if frozen[w] >= 0:
                        return False
                    mark[w] = epoch
                    state[w] = jw
                    queue.append(w)
        return True

    def closure(self, starts: Sequence[tuple[int, int]]) -> Optional[dict[int, int]]:
        """States newly forced by `starts`, as a new vertex -> factor map.

        Returns the map when the closure is a consistent partial assignment,
        and None when some vertex is forced two ways or contradicts a frozen
        state.  Expansion stops at frozen states, which the map leaves out:
        their consequences are frozen too.
        """
        if not starts:  # the split counter's branches often pin nothing
            return {}
        if not self._search(starts, self.frozen):
            return None
        state, forced = self._state, {}
        for v in self._queue:  # a loop: a comprehension's own frame costs more here
            forced[v] = state[v]
        return forced

    # -- queries ----------------------------------------------------------

    def feasible(self, u: int, k: int) -> bool:
        """Can some satisfying assignment put u in factor-k's kernel state?

        Assumes the current clause set is satisfiable.  Then x[u,k] is
        feasible exactly when its closure is consistent, so one search,
        O(n + m), is the whole query.  With a model the answer is True at
        once when the model has u in state k, and otherwise the search
        walks only the vertices the model would have to change, and moves
        the model onto what it found.
        """
        frozen = self.frozen
        if frozen[u] >= 0:
            return frozen[u] == k
        model = self.model
        if model is None:
            return self._search(((u, k),), frozen)
        if model[u] == k:
            return True
        if not self._search(((u, k),), model):
            return False
        state = self._state
        for v in self._queue:
            model[v] = state[v]
        return True

    def pinned_to(self, u: int, k: int) -> bool:
        """Does every satisfying assignment put u in factor-k's kernel state?

        Assumes the current clause set is satisfiable.  Denying x[u,k]
        forces the far state of every u-edge carrying factor k on u's side;
        u is pinned exactly when that closure collapses.  The closure needs
        no check for arriving back at (u, k): it could only arrive over a
        k-edge of u, from that edge's far end in a state other than the one
        the starts already gave it, and it reports that clash first (edges
        join distinct vertices).  The one closure, O(n + m), is the whole
        query.
        """
        frozen = self.frozen
        if frozen[u] >= 0:
            return frozen[u] == k
        return not self._search([(w, jw) for w, hv, jw in self.incident[u] if hv == k], frozen)

    def freeze(self, u: int, k: int) -> None:
        """Record that x[u,k] is entailed, together with its full closure.

        The model takes the closure's states too, which keeps it satisfying
        (the module docstring's proof, for the search that keeps only the
        frozen states).
        """
        frozen, model, state = self.frozen, self.model, self._state
        if not self._search(((u, k),), frozen):
            raise AssertionError("freeze called on a non-entailed state")
        for v in self._queue:
            frozen[v] = state[v]
        if model is not None:
            for v in self._queue:
                model[v] = state[v]


def literal_graph(
    edges: Sequence[tuple[int, int, int, int]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The variables of the (u, v, h, j) rows `edges` and their literals' SCCs.

    Returns (vert, state, labels): variable i is x[vert[i], state[i]], the
    variables ascend by (vertex, state), and labels[2i] and labels[2i + 1]
    number the strongly connected components of x_i and of its negation.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 4)
    m = len(edges)
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    u, v, h, j = edges.T
    f = int(max(h.max(), j.max())) + 1
    # variable x[v,s] has key v*f + s; sorted keys keep each vertex's
    # variables contiguous, at most f of them
    keys, var = np.unique(np.concatenate((u * f + h, v * f + j)), return_inverse=True)
    pu, pv = var[:m], var[m:]
    vert = keys // f
    # at most one kernel state per vertex: every pair of one vertex's
    # variables sits at some shift below f
    a_parts, b_parts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for d in range(1, f):
        same = np.flatnonzero(vert[:-d] == vert[d:])
        a_parts.append(same)
        b_parts.append(same + d)
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)

    # literal ids: positive 2i, negative 2i+1
    src = np.concatenate((2 * pu + 1, 2 * pv + 1, 2 * a, 2 * b))
    dst = np.concatenate((2 * pv, 2 * pu, 2 * b + 1, 2 * a + 1))
    nlit = 2 * len(keys)
    # float64 data: csgraph would otherwise copy the data to float64 itself
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(nlit, nlit))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return vert, keys - vert * f, labels


def solve(edges: Sequence[tuple[int, int, int, int]] | np.ndarray) -> list[int]:
    """Clashing vertices of the clause set of the (u, v, h, j) rows `edges`.

    Returns, ascending, the vertices with a variable in its negation's
    strongly connected component.  The list is empty exactly when the
    clause set is satisfiable.
    """
    vert, _, labels = literal_graph(edges)
    return np.unique(vert[labels[0::2] == labels[1::2]]).tolist()
