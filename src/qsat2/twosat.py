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
per-vertex edge index; its closure serves the conditioned sampler, the
backbone probes and the split counter in `counting`.

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

from typing import Optional, Sequence

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
    """

    __slots__ = ("incident", "frozen")

    def __init__(
        self, n: int, incident: Optional[Sequence[Sequence[tuple[int, int, int]]]] = None
    ):
        self.incident = [[] for _ in range(n)] if incident is None else incident
        self.frozen: list[int] = [-1] * n

    def add_edge(self, u: int, v: int, h: int, j: int) -> None:
        self.incident[u].append((v, h, j))
        self.incident[v].append((u, j, h))

    # -- BFS closure ------------------------------------------------------

    def closure(self, starts: Sequence[tuple[int, int]]) -> Optional[dict[int, int]]:
        """States newly forced by `starts`, as a vertex -> factor map.

        Returns the map when the closure is a consistent partial assignment,
        and None when some vertex is forced two ways or contradicts a frozen
        state.  Expansion stops at frozen states, which the map leaves out:
        their consequences are frozen too.
        """
        frozen, incident = self.frozen, self.incident
        visited: dict[int, int] = {}
        queue: list[int] = []
        for v, s in starts:
            fv = frozen[v]
            if fv >= 0:
                if fv != s:
                    return None
                continue
            seen = visited.get(v)
            if seen is None:
                visited[v] = s
                queue.append(v)
            elif seen != s:
                return None
        for v in queue:  # the loop reaches the vertices it appends
            s = visited[v]
            for w, hv, jw in incident[v]:
                if hv == s:
                    continue
                fw = frozen[w]
                if fw >= 0:
                    if fw != jw:
                        return None
                    continue
                seen = visited.get(w)
                if seen is None:
                    visited[w] = jw
                    queue.append(w)
                elif seen != jw:
                    return None
        return visited

    # -- queries ----------------------------------------------------------

    def feasible(self, u: int, k: int) -> bool:
        """Can some satisfying assignment put u in factor-k's kernel state?

        Assumes the current clause set is satisfiable.  Then x[u,k] is
        feasible exactly when its closure is consistent, so the one
        closure, O(n + m), is the whole query.
        """
        fu = self.frozen[u]
        if fu >= 0:
            return fu == k
        return self.closure([(u, k)]) is not None

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
        fu = self.frozen[u]
        if fu >= 0:
            return fu == k
        return self.closure([(w, jw) for w, hv, jw in self.incident[u] if hv == k]) is None

    def freeze(self, u: int, k: int) -> None:
        """Record that x[u,k] is entailed, together with its full closure."""
        visited = self.closure([(u, k)])
        if visited is None:
            raise AssertionError("freeze called on a non-entailed state")
        for v, s in visited.items():
            self.frozen[v] = s


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
