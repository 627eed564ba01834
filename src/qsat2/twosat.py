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
propagation is linear.  The full strongly-connected component solve is only
for deciding the whole clause set at once.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

OK = 0
CONFLICT = 1


class TwoSatEngine:
    """Incremental edge store with entailment-aware reachability queries.

    `frozen[v]` caches a factor index entailed for v by the current clause
    set.  Queries use it to stop early; callers must only freeze entailed
    states, and `freeze` keeps the cache closed under the BFS transition.
    """

    __slots__ = ("n", "edges", "incident", "frozen")

    def __init__(self, n: int):
        self.n = n
        self.edges: list[tuple[int, int, int, int]] = []
        # incident[v]: (other endpoint, factor on v's side, factor on other side)
        self.incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.frozen: list[Optional[int]] = [None] * n

    def add_edge(self, u: int, v: int, h: int, j: int) -> None:
        self.edges.append((u, v, h, j))
        self.incident[u].append((v, h, j))
        self.incident[v].append((u, j, h))

    # -- BFS closure ------------------------------------------------------

    def _closure(
        self, starts: Sequence[tuple[int, int]]
    ) -> tuple[int, dict[int, int]]:
        """Forced states reachable from `starts`, as a vertex -> factor map.

        Returns (OK, visited) when the closure is a consistent partial
        assignment, (CONFLICT, ...) when some vertex is forced two ways or
        contradicts a frozen state.  Expansion stops at states already
        recorded as frozen: their consequences are frozen too.
        """
        visited: dict[int, int] = {}
        queue: list[tuple[int, int]] = []
        for v, s in starts:
            fv = self.frozen[v]
            if fv is not None and fv != s:
                return CONFLICT, visited
            if v in visited:
                if visited[v] != s:
                    return CONFLICT, visited
                continue
            visited[v] = s
            if fv is None:
                queue.append((v, s))
        head = 0
        while head < len(queue):
            v, s = queue[head]
            head += 1
            for w, hv, jw in self.incident[v]:
                if hv == s:
                    continue
                fw = self.frozen[w]
                if fw is not None:
                    if fw != jw:
                        return CONFLICT, visited
                    visited.setdefault(w, jw)
                    continue
                seen = visited.get(w)
                if seen is None:
                    visited[w] = jw
                    queue.append((w, jw))
                elif seen != jw:
                    return CONFLICT, visited
        return OK, visited

    # -- queries ----------------------------------------------------------

    def feasible(self, u: int, k: int) -> bool:
        """Can some satisfying assignment put u in factor-k's kernel state?

        Assumes the current clause set is satisfiable.  Then x[u,k] is
        feasible exactly when its closure is consistent, so the one
        closure, O(n + m), is the whole query.
        """
        fu = self.frozen[u]
        if fu is not None:
            return fu == k
        status, _ = self._closure([(u, k)])
        return status == OK

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
        if fu is not None:
            return fu == k
        starts = [(w, jw) for w, hv, jw in self.incident[u] if hv == k]
        status, _ = self._closure(starts)
        return status == CONFLICT

    def freeze(self, u: int, k: int) -> None:
        """Record that x[u,k] is entailed, together with its full closure."""
        status, visited = self._closure([(u, k)])
        if status != OK:
            raise AssertionError("freeze called on a non-entailed state")
        for v, s in visited.items():
            self.frozen[v] = s

    # -- full solve ---------------------------------------------------------

    def solve(self, want_witness: bool = True) -> Optional[list[Optional[int]]]:
        """Solve the full clause set.

        Returns None when unsatisfiable, otherwise one satisfying partial
        assignment: states[v] is a factor index or None when no edge needs
        v in a kernel state (any state works there).  With want_witness
        False a satisfiable outcome returns an empty assignment list.
        """
        var_of: dict[tuple[int, int], int] = {}

        def vid(v: int, s: int) -> int:
            key = (v, s)
            i = var_of.get(key)
            if i is None:
                i = len(var_of)
                var_of[key] = i
            return i

        for u, v, h, j in self.edges:
            vid(u, h)
            vid(v, j)

        states_at: list[list[int]] = [[] for _ in range(self.n)]
        for (v, s), i in var_of.items():
            states_at[v].append(s)

        # literal ids: positive 2i, negative 2i+1
        src: list[int] = []
        dst: list[int] = []

        def arc(a: int, b: int) -> None:
            src.append(a)
            dst.append(b)

        for u, v, h, j in self.edges:
            pu, pv = var_of[(u, h)], var_of[(v, j)]
            arc(2 * pu + 1, 2 * pv)
            arc(2 * pv + 1, 2 * pu)
        for v in range(self.n):
            ss = states_at[v]
            for a in range(len(ss)):
                ia = var_of[(v, ss[a])]
                for b in range(len(ss)):
                    if a != b:
                        arc(2 * ia, 2 * var_of[(v, ss[b])] + 1)

        nlit = 2 * len(var_of)
        if nlit == 0:
            return [None] * self.n
        graph = csr_matrix(
            (np.ones(len(src), dtype=np.int8), (np.array(src), np.array(dst))),
            shape=(nlit, nlit),
        )
        ncomp, labels = connected_components(graph, directed=True, connection="strong")
        for i in range(len(var_of)):
            if labels[2 * i] == labels[2 * i + 1]:
                return None
        if not want_witness:
            return []

        # scipy's labels carry no order guarantee; topologically sort the
        # condensation and take a literal as true when its component comes
        # after its negation's.
        cond_adj: list[set[int]] = [set() for _ in range(ncomp)]
        for a, b in zip(src, dst):
            ca, cb = labels[a], labels[b]
            if ca != cb:
                cond_adj[ca].add(cb)
        indeg = [0] * ncomp
        for outs in cond_adj:
            for c in outs:
                indeg[c] += 1
        order = [0] * ncomp
        stack = [c for c in range(ncomp) if indeg[c] == 0]
        pos = 0
        while stack:
            c = stack.pop()
            order[c] = pos
            pos += 1
            for nxt in cond_adj[c]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    stack.append(nxt)

        states: list[Optional[int]] = [None] * self.n
        for (v, s), i in var_of.items():
            if order[labels[2 * i]] > order[labels[2 * i + 1]]:
                states[v] = s
        return states


def solve_edges(
    n: int,
    edges: Sequence[tuple[int, int, int, int]],
    want_witness: bool = True,
) -> Optional[list[Optional[int]]]:
    """One-shot solve for an edge list, without building queries first."""
    eng = TwoSatEngine(n)
    for u, v, h, j in edges:
        eng.add_edge(u, v, h, j)
    return eng.solve(want_witness=want_witness)
