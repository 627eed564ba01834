"""Independent reference implementations used to cross-check the package.

Everything here favors directness over speed: dense numpy tensors, brute
force over all assignments, draw-by-draw samplers, term-by-term series.  Tests compare package
results against these.  The later sections hold code that only tests use:
constraint composition along paths, kernel bases, product witnesses and the
loop option sets behind frustration certificates.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qsat2.counting import (
    DEFAULT_CONFIG,
    MOD_PRIMES,
    RankBackendConfig,
    _constraint_blocks,
    _ExactField,
    _ModField,
    _PrimeClash,
    component_value,
    product_tree,
)
from qsat2.exactq import GQ_ONE, BraState, GaussianRational
from qsat2.graphs import (
    ComponentReport,
    Graph,
    LatticeInfo,
    components,
    lattice_coord,
    lattice_vertex,
)
from qsat2.instances import FactorDistribution, Instance, satisfiable
from qsat2.structure import Decomposition, FrozenSubgraph, component_cutoff, decouple
from qsat2.twosat import TwoSatEngine

SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def bra_vec(b: BraState) -> np.ndarray:
    return np.array(
        [complex(b.c0.re) + 1j * complex(b.c0.im), complex(b.c1.re) + 1j * complex(b.c1.im)]
    )


def dense_induce(b1: BraState, g1: BraState, b2: BraState, g2: BraState) -> np.ndarray:
    """Contract <b1|(x)<g1| and <b2|(x)<g2| through a singlet on the middle qubit.

    Returns the 2x2 tensor T[a, c] = sum_{b,b'} b1[a] g1[b] S[b,b'] b2[b'] g2[c].
    """
    r1 = np.outer(bra_vec(b1), bra_vec(g1))
    r2 = np.outer(bra_vec(b2), bra_vec(g2))
    return np.einsum("ab,bc,cd->ad", r1, SINGLET, r2)


def dense_chain(bras: Sequence[tuple[BraState, BraState]]) -> np.ndarray:
    """Fold a whole chain of (left, right) bra pairs densely."""
    acc = np.outer(bra_vec(bras[0][0]), bra_vec(bras[0][1]))
    for left, right in bras[1:]:
        nxt = np.outer(bra_vec(left), bra_vec(right))
        acc = np.einsum("ab,bc,cd->ad", acc, SINGLET, nxt)
    return acc


def proportional_tensors(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Projective equality of two tensors, up to numerical noise."""
    if np.allclose(a, 0, atol=tol) or np.allclose(b, 0, atol=tol):
        return np.allclose(a, 0, atol=tol) and np.allclose(b, 0, atol=tol)
    ia = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    return np.allclose(a * b[ia], b * a[ia], atol=tol)


def dense_rows(inst: Instance, component: Sequence[int]) -> np.ndarray:
    """Constraint rows of one component as a dense matrix, via numpy kron.

    Column order follows `sorted(component)` with the first vertex on the
    lowest bit, matching the package's convention.
    """
    comp = sorted(component)
    pos = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    eye = np.eye(2, dtype=complex)
    rows = []
    for u, v, h, j in inst.edge_array.tolist():
        if u not in pos and v not in pos:
            continue
        if u not in pos or v not in pos:
            raise ValueError("component boundary is crossed by an edge")
        mats = [eye] * k
        mats[pos[u]] = bra_vec(inst.dist.factors[h]).reshape(1, 2)
        mats[pos[v]] = bra_vec(inst.dist.factors[j]).reshape(1, 2)
        # low qubit = first component vertex: kron runs high to low
        acc = np.array([[1.0]], dtype=complex)
        for mat in reversed(mats):
            acc = np.kron(acc, mat)
        rows.append(acc)
    if not rows:
        return np.zeros((0, 2**k), dtype=complex)
    return np.vstack(rows)


def dense_component_value(inst: Instance, component: Sequence[int]) -> int:
    rows = dense_rows(inst, component)
    k = len(component)
    if rows.shape[0] == 0:
        return 2**k
    return 2**k - int(np.linalg.matrix_rank(rows))


def dense_instance_value(inst: Instance) -> int:
    """Ground-space dimension of the whole instance by one dense rank."""
    return dense_component_value(inst, range(inst.n))


def reference_constraint_rows(
    inst: Instance, component: Sequence[int], frozen: Optional[dict] = None
) -> Iterator[list[tuple[int, GaussianRational]]]:
    """Sparse constraint rows of one component by a scan over every edge.

    Same rows, row order and boundary rule as `counting._constraint_blocks`
    flattened by `block_rows`: an edge leaving the component is skipped when
    its outside endpoint is frozen in that edge's own factor, and raises
    ValueError otherwise.
    """
    comp = sorted(component)
    local = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    factors = inst.dist.factors
    for u, v, h, j in inst.edge_array.tolist():
        inu, inv_ = u in local, v in local
        if inu != inv_:
            out_v, out_h = (v, j) if inu else (u, h)
            if frozen is not None and frozen.get(out_v) == out_h:
                continue
            raise ValueError(f"edge ({u},{v}) crosses the component boundary")
        if not inu:
            continue
        pu, pv = local[u], local[v]
        bu, bv = factors[h], factors[j]
        entries = []
        for xu, cu in ((0, bu.c0), (1, bu.c1)):
            for xv, cv in ((0, bv.c0), (1, bv.c1)):
                coeff = cu * cv
                if not coeff.is_zero():
                    entries.append(((xu << pu) | (xv << pv), coeff))
        others = [i for i in range(k) if i not in (pu, pv)]
        for idx in range(1 << len(others)):
            rest = 0
            for b, pos in enumerate(others):
                if idx >> b & 1:
                    rest |= 1 << pos
            yield [(rest | off, coeff) for off, coeff in entries]


def block_rows(blocks) -> Iterator[list[tuple[int, GaussianRational]]]:
    """Flatten `counting._constraint_blocks` into one row per spectator assignment.

    Submasks are listed by filtering every integer up to the mask, not by
    the package's submask step, so the row order is checked independently.
    """
    for entries, mask in blocks:
        for rest in range(mask + 1):
            if rest & ~mask == 0:
                yield [(rest | off, coeff) for off, coeff in entries]


def reference_echelon_rank(rows, field, basis_out: Optional[dict] = None) -> int:
    """Row-by-row sparse echelon over flat rows, embedding every entry anew."""
    basis: dict[int, dict] = {} if basis_out is None else basis_out
    for raw in rows:
        row = {col: field.embed(c) for col, c in raw}
        while row:
            lead = min(row)
            piv = basis.get(lead)
            if piv is None:
                scale = field.inv(row.pop(lead))
                basis[lead] = {col: field.mul(val, scale) for col, val in row.items()}
                break
            field.reduce_row(row, row.pop(lead), piv)
    return len(basis)


def reference_component_rank(
    inst: Instance,
    component: Sequence[int],
    config: RankBackendConfig,
    frozen: Optional[dict] = None,
) -> int:
    """`counting.component_rank` over the full-scan rows, one row at a time.

    The same verification: every configured prime must agree, and a clash
    or a disagreement settles the rank exactly.
    """

    def exact() -> int:
        return reference_echelon_rank(
            reference_constraint_rows(inst, component, frozen), _ExactField()
        )

    if config.mode == "exact_rational":
        return exact()
    ranks = []
    for p in MOD_PRIMES[: config.verify_primes]:
        try:
            ranks.append(
                reference_echelon_rank(
                    reference_constraint_rows(inst, component, frozen), _ModField(p)
                )
            )
        except _PrimeClash:
            return exact()
    if len(set(ranks)) != 1:
        return exact()
    return ranks[0]


def _kernel_from_rows(rows, k: int) -> list[dict[int, GaussianRational]]:
    """Exact kernel basis of the rows over 2^k basis states, as sparse maps
    basis-state -> amplitude, from a reduced echelon form."""
    basis: dict[int, dict] = {}
    field = _ExactField()
    reference_echelon_rank(rows, field, basis_out=basis)
    # reduced echelon: clear occurrences of other leading columns
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        for other in [c for c in row if c in basis and c != lead]:
            field.reduce_row(row, row.pop(other), basis[other])
    out = []
    for c in range(1 << k):
        if c in basis:
            continue
        vec: dict[int, GaussianRational] = {c: GQ_ONE}
        for lead, row in basis.items():
            val = row.get(c)
            if val is not None:
                vec[lead] = -val
        out.append(vec)
    return out


def kernel_basis(inst: Instance, component: Sequence[int]) -> list[dict[int, GaussianRational]]:
    """Exact kernel basis of one component from the package's constraint rows.

    Intended for verification on small components; cost grows with both the
    component size and the kernel dimension.
    """
    return _kernel_from_rows(block_rows(_constraint_blocks(inst, component)), len(component))


def reference_kernel_basis(
    inst: Instance, component: Sequence[int]
) -> list[dict[int, GaussianRational]]:
    """`kernel_basis` over the full-scan rows."""
    return _kernel_from_rows(reference_constraint_rows(inst, component), len(component))


def raw_instance_value(inst: Instance, config: RankBackendConfig = DEFAULT_CONFIG) -> int:
    """Ground-space dimension over the raw connected components, nothing
    frozen removed first; 0 iff frustrated."""
    if not satisfiable(inst):
        return 0
    return product_tree(
        [component_value(inst, comp, config) for comp in components(inst.graph).components]
    )


def reference_component_satisfiable(inst: Instance, comp: Sequence[int]) -> bool:
    """Kernel-state search on one component, its edges found by a full scan
    and solved by `reference_solve`."""
    local = {v: i for i, v in enumerate(sorted(comp))}
    edges = [
        (local[u], local[v], h, j)
        for u, v, h, j in inst.edge_array.tolist()
        if u in local
    ]
    states, _ = reference_solve(len(local), edges)
    return states is not None


def diagonal_count(inst: Instance) -> int:
    """Ground-space dimension when every factor is a standard basis bra.

    Rows are then diagonal, so the dimension is the number of computational
    basis states avoiding (x_u = a_h and x_v = a_j) on every edge, where a_t
    is the basis state the factor bra does not annihilate.
    """
    killed = []
    for b in inst.dist.factors:
        if not b.c1.is_zero() and not b.c0.is_zero():
            raise ValueError("factors are not all standard basis bras")
        killed.append(0 if b.c1.is_zero() else 1)
    edges = [(u, v, killed[h], killed[j]) for u, v, h, j in inst.edge_array.tolist()]
    count = 0
    for x in range(2**inst.n):
        if all(not ((x >> u) & 1 == a and (x >> v) & 1 == b) for u, v, a, b in edges):
            count += 1
    return count


def brute_force_kernel_assignment(
    n: int, edges: Sequence[tuple[int, int, int, int]], f: int
) -> Optional[tuple[int, ...]]:
    """Exhaust all f^n kernel-state assignments; edge (u,v,h,j) wants u=h or v=j."""
    for assign in product(range(f), repeat=n):
        if all(assign[u] == h or assign[v] == j for u, v, h, j in edges):
            return assign
    return None


def naive_vertex_options(inst: Instance) -> dict[int, list[frozenset[int]]]:
    """Per-start BFS over kernel states; the quadratic reference walk search."""
    f = inst.dist.f
    incident: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(inst.n)}
    for u, v, h, j in inst.edge_array.tolist():
        incident[u].append((v, h, j))
        incident[v].append((u, j, h))
    out: dict[int, list[frozenset[int]]] = {}
    for x in range(inst.n):
        opts: list[frozenset[int]] = []
        for h in range(f):
            starts = [(w, j) for w, eh, j in incident[x] if eh == h]
            seen = set(starts)
            queue = list(starts)
            while queue:
                v, a = queue.pop()
                for w, eh, j in incident[v]:
                    if eh != a and (w, j) not in seen:
                        seen.add((w, j))
                        queue.append((w, j))
            returned = sorted({b for (v, b) in seen if v == x})
            for b in returned:
                s = frozenset({h, b})
                if s not in opts:
                    opts.append(s)
        if opts:
            out[x] = opts
    return out


def reference_pinned_to(eng: TwoSatEngine, u: int, k: int) -> bool:
    """Stand-alone denial BFS: is x[u,k] entailed by the engine's clauses?

    Denying x[u,k] forces the far state of every u-edge carrying factor k on
    u's side; u is pinned exactly when that closure collapses.
    """
    fu = eng.frozen[u]
    if fu is not None:
        return fu == k
    starts = [(w, jw) for w, hv, jw in eng.incident[u] if hv == k]
    if not starts:
        return False
    visited: dict[int, int] = {}
    queue: list[tuple[int, int]] = []
    for w, s in starts:
        fw = eng.frozen[w]
        if fw is not None and fw != s:
            return True
        if w in visited:
            if visited[w] != s:
                return True
            continue
        if w == u and s == k:
            return True
        visited[w] = s
        if fw is None:
            queue.append((w, s))
    head = 0
    while head < len(queue):
        v, s = queue[head]
        head += 1
        for w, hv, jw in eng.incident[v]:
            if hv == s:
                continue
            if w == u and jw == k:
                return True
            fw = eng.frozen[w]
            if fw is not None:
                if fw != jw:
                    return True
                continue
            seen = visited.get(w)
            if seen is None:
                visited[w] = jw
                queue.append((w, jw))
            elif seen != jw:
                return True
    return False


def loop_seed_fixed_states(inst: Instance) -> dict[int, int]:
    """Frozen set by loop option sets: singleton intersections, then closure.

    Seeds are vertices whose loop option sets intersect in a single factor;
    each seed's forced closure then freezes everything it reaches.  This is
    the frozen-set algorithm `structure.decouple` used before it switched to
    the backbone probe; the instance must be satisfiable.
    """
    eng = instance_engine(inst)
    for x, opts in sorted(vertex_options(inst).items()):
        inter = frozenset.intersection(*opts)
        if len(inter) == 1:
            (h,) = inter
            if eng.frozen[x] is None:
                eng.freeze(x, h)
            assert eng.frozen[x] == h, "conflicting fixed states"
    return {v: s for v, s in enumerate(eng.frozen) if s is not None}


def brute_force_backbone(inst: Instance) -> Optional[dict[int, int]]:
    """States shared by every satisfying assignment, by exhaustion.

    Each vertex takes one of f kernel states or none of them (value f); an
    edge (u, v, h, j) wants u in state h or v in state j.  Returns None when
    no assignment satisfies every edge.
    """
    f = inst.dist.f
    edges = inst.edge_array.tolist()
    common: Optional[list[Optional[int]]] = None
    for assign in product(range(f + 1), repeat=inst.n):
        if not all(assign[u] == h or assign[v] == j for u, v, h, j in edges):
            continue
        if common is None:
            common = list(assign)
        else:
            common = [c if c == a else None for c, a in zip(common, assign)]
    if common is None:
        return None
    return {v: s for v, s in enumerate(common) if s is not None and s < f}


def sample_factor(dist: FactorDistribution, rng: random.Random) -> int:
    """One factor index by exact inverse-CDF sampling: one `randrange` draw."""
    return bisect_right(dist._cum, rng.randrange(dist._den))


def reference_edge_error(n: int, edges: Sequence[tuple[int, int]]) -> Optional[str]:
    """The message `Graph(n, edges)` raises, by a per-edge scan; None if valid."""
    if n < 0:
        return "negative vertex count"
    prev = None
    for u, v in edges:
        if not (0 <= u < v < n):
            return f"edge ({u},{v}) out of range or misordered"
        if prev is not None and (u, v) <= prev:
            return f"edges not sorted and distinct at ({u},{v})"
        prev = (u, v)
    return None


def reference_sample_er_graph(n: int, m: int, seed: int) -> Graph:
    """`graphs.sample_er_graph` draw by draw: a hash-set loop, or a shuffle."""
    npairs = n * (n - 1) // 2
    if m < 0 or m > npairs:
        raise ValueError(f"m={m} out of range for n={n}")
    rng = random.Random(seed)
    if m <= n * n // 8:
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            if u > v:
                u, v = v, u
            chosen.add((u, v))
        return Graph(n, tuple(sorted(chosen)))
    allpairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(m):
        j = rng.randrange(i, npairs)
        allpairs[i], allpairs[j] = allpairs[j], allpairs[i]
    return Graph(n, tuple(sorted(allpairs[:m])))


def reference_sample_instance(g: Graph, dist: FactorDistribution, seed: int) -> Instance:
    """`instances.sample_instance` draw by draw, h then j per edge."""
    rng = random.Random(seed)
    pairs = tuple((sample_factor(dist, rng), sample_factor(dist, rng)) for _ in range(g.m))
    return Instance(g, pairs, dist, "any", seed, 0)


def _lattice_edges(d: int, L: int) -> Iterator[tuple[int, int]]:
    # Row-major vertex order; for each vertex, its +1 neighbour per axis.
    for vid in range(L**d):
        coord = lattice_coord(vid, d, L)
        for axis in range(d):
            if coord[axis] + 1 < L:
                nb = list(coord)
                nb[axis] += 1
                yield vid, lattice_vertex(nb, L)


def reference_sample_lattice(d: int, L: int, p: float, seed: int) -> Graph:
    """`graphs.sample_lattice` draw by draw: one `random()` coin per bond."""
    rng = random.Random(seed)
    kept = []
    for u, v in _lattice_edges(d, L):
        if rng.random() < p:
            kept.append((u, v) if u < v else (v, u))
    return Graph(L**d, tuple(sorted(kept)), LatticeInfo(d, L))


def naive_frustration_free(
    g: Graph, dist: FactorDistribution, seed: int, budget: int = 10_000
) -> Instance:
    """Rejection sampling with a full solve per candidate pair.

    Mirrors the incremental sampler's randomness exactly (same shuffle, same
    draws, here one `randrange` call each), so equal decisions imply equal
    output instances.
    """
    rng = random.Random(seed)
    order = list(range(g.m))
    for i in range(g.m - 1, 0, -1):
        k = rng.randrange(i + 1)
        order[i], order[k] = order[k], order[i]
    pairs: list[Optional[tuple[int, int]]] = [None] * g.m
    chosen: list[tuple[int, int, int, int]] = []
    resamples = 0
    for idx in order:
        u, v = g.edges[idx]
        rejected = 0
        while True:
            h = sample_factor(dist, rng)
            j = sample_factor(dist, rng)
            trial = chosen + [(u, v, h, j)]
            if TwoSatEngine(g.n, trial).solve()[0] is not None:
                pairs[idx] = (h, j)
                chosen = trial
                break
            rejected += 1
            resamples += 1
            if rejected >= budget:
                raise RuntimeError("budget exhausted in reference sampler")
    return Instance(g, tuple(pairs), dist, "free", seed, resamples)


def xi_series(rho: float, terms: int = 4000) -> float:
    """Tree-weight series sum_{k>=1} k^{k-1}/k! (2 rho e^{-2 rho})^k."""
    import math

    x = 2 * rho * math.exp(-2 * rho)
    total = 0.0
    t = x
    for k in range(1, terms + 1):
        total += t
        t *= x * (1 + 1 / k) ** (k - 1)
        if t < 1e-18:
            break
    return total


def qcrux_bruteforce(q: Sequence[Fraction]) -> Fraction:
    """P[{h,i} and {j,k} disjoint] over four i.i.d. draws from q."""
    total = Fraction(0)
    f = len(q)
    for h in range(f):
        for i in range(f):
            for j in range(f):
                for k in range(f):
                    if {h, i}.isdisjoint({j, k}):
                        total += q[h] * q[i] * q[j] * q[k]
    return total


def chain_survival_bruteforce(q: Sequence[Fraction], ell: int) -> Fraction:
    """P[a path of ell edges induces an endpoint constraint], by exhaustion."""
    f = len(q)
    total = Fraction(0)
    for combo in product(range(f), repeat=2 * ell):
        # factor pair (h_i, j_i) per edge; junction i alive iff j_i != h_{i+1}
        alive = all(combo[2 * i + 1] != combo[2 * i + 2] for i in range(ell - 1))
        if alive:
            w = Fraction(1)
            for t in combo:
                w *= q[t]
            total += w
    return total


def reference_solve(
    n: int, edges: Sequence[tuple[int, int, int, int]]
) -> tuple[Optional[list[Optional[int]]], list[int]]:
    """`TwoSatEngine.solve` with Python lists: literal ids by first appearance,
    explicit arc lists and a Kahn sort of the condensation.  Returns (states,
    clashing) as the engine does."""
    var_of: dict[tuple[int, int], int] = {}

    def vid(v: int, s: int) -> int:
        key = (v, s)
        i = var_of.get(key)
        if i is None:
            i = len(var_of)
            var_of[key] = i
        return i

    for u, v, h, j in edges:
        vid(u, h)
        vid(v, j)

    states_at: list[list[int]] = [[] for _ in range(n)]
    for (v, s), i in var_of.items():
        states_at[v].append(s)

    # literal ids: positive 2i, negative 2i+1
    src: list[int] = []
    dst: list[int] = []

    def arc(a: int, b: int) -> None:
        src.append(a)
        dst.append(b)

    for u, v, h, j in edges:
        pu, pv = var_of[(u, h)], var_of[(v, j)]
        arc(2 * pu + 1, 2 * pv)
        arc(2 * pv + 1, 2 * pu)
    for v in range(n):
        ss = states_at[v]
        for a in range(len(ss)):
            ia = var_of[(v, ss[a])]
            for b in range(len(ss)):
                if a != b:
                    arc(2 * ia, 2 * var_of[(v, ss[b])] + 1)

    nlit = 2 * len(var_of)
    if nlit == 0:
        return [None] * n, []
    graph = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (np.array(src), np.array(dst))),
        shape=(nlit, nlit),
    )
    ncomp, labels = connected_components(graph, directed=True, connection="strong")
    clashing = sorted({v for (v, s), i in var_of.items() if labels[2 * i] == labels[2 * i + 1]})
    if clashing:
        return None, clashing

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

    states: list[Optional[int]] = [None] * n
    for (v, s), i in var_of.items():
        if order[labels[2 * i]] > order[labels[2 * i + 1]]:
            states[v] = s
    return states, []


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def reference_components(g: Graph) -> ComponentReport:
    """`graphs.components` by union-find, one Python step per edge."""
    uf = UnionFind(g.n)
    for u, v in g.edges:
        uf.union(u, v)
    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(uf.find(v), []).append(v)
    ecount = {root: 0 for root in members}
    for u, v in g.edges:
        ecount[uf.find(u)] += 1
    comps = sorted(members.values())
    counts = tuple(ecount[uf.find(c[0])] for c in comps)
    labels = np.empty(g.n, dtype=np.int64)
    for cid, comp in enumerate(comps):
        labels[comp] = cid
    classes = []
    for comp, ec in zip(comps, counts):
        excess = ec - len(comp) + 1
        classes.append("tree" if excess == 0 else "unicyclic" if excess == 1 else "multicyclic")
    return ComponentReport(
        components=tuple(tuple(c) for c in comps),
        edge_counts=counts,
        classes=tuple(classes),
        max_size=max((len(c) for c in comps), default=0),
        multicyclic_count=sum(1 for c in classes if c == "multicyclic"),
        labels=labels,
    )


def reference_backbone(inst: Instance) -> Optional[dict[int, int]]:
    """Backbone from a whole-instance `reference_solve` and an engine grown
    edge by edge: every witness state is probed, tree components included."""
    edges = inst.edge_array.tolist()
    witness, _ = reference_solve(inst.n, edges)
    if witness is None:
        return None
    eng = TwoSatEngine(inst.n)
    for e in edges:
        eng.add_edge(*e)
    for v, h in enumerate(witness):
        if h is not None and eng.frozen[v] is None and eng.pinned_to(v, h):
            eng.freeze(v, h)
    return {v: s for v, s in enumerate(eng.frozen) if s is not None}


def reference_frozen_subgraph(inst: Instance, frozen: dict[int, int]) -> FrozenSubgraph:
    """`structure.frozen_subgraph` by one Python step per edge and a
    union-find over the frozen vertices."""
    arcs: list[tuple[int, int]] = []
    for u, v, h, j in inst.edge_array.tolist():
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


def reference_decouple(inst: Instance, cutoff_c: float = 3.0) -> Decomposition:
    """`structure.decouple` with union-find components and residual split,
    and every component's satisfiability solved on its own."""
    g = inst.graph
    rep = reference_components(g)
    cutoff = component_cutoff(g.n, cutoff_c)
    frozen = reference_backbone(inst)
    if frozen is None:
        return Decomposition(
            frozen={},
            residual_components=rep.components,
            label="frustrated",
            cutoff=cutoff,
            residual_max=rep.max_size,
            report=rep,
            frustrated_components=tuple(
                cid
                for cid, comp in enumerate(rep.components)
                if not reference_component_satisfiable(inst, comp)
            ),
        )
    alive = [v for v in range(g.n) if v not in frozen]
    index = {v: i for i, v in enumerate(alive)}
    uf = UnionFind(len(alive))
    for u, v in g.edges:
        if u in index and v in index:
            uf.union(index[u], index[v])
    groups: dict[int, list[int]] = {}
    for v in alive:
        groups.setdefault(uf.find(index[v]), []).append(v)
    residual = tuple(tuple(c) for c in sorted(groups.values()))
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
        frustrated_components=(),
    )


def instance_engine(inst: Instance) -> TwoSatEngine:
    """An engine over every edge: its solve and its queries see the same clauses."""
    return TwoSatEngine(inst.n, inst.edge_array, inst.incident)


def product_witness(inst: Instance) -> Optional[list[Optional[int]]]:
    """A satisfying product assignment: factor index per vertex, None = free.

    A free vertex may take any state not orthogonal to any factor; such a
    state always exists because the factor table is finite.  Returns None
    when the instance is unsatisfiable.
    """
    states, _ = TwoSatEngine(inst.n, inst.edge_array).solve()
    return states


# ---------------------------------------------------------------------------
# two-qubit product constraints and their composition along paths
#
# A constraint on an edge (u, v) is a product bra <b_u| (x) <g_v|.  Composing
# two constraints that share their middle qubit through the singlet state
# |01> - |10> yields either the zero functional (when the middle bras are
# proportional, so the shared qubit can satisfy both sides at once) or another
# product constraint on the outer qubits.  Folding a path edge by edge gives
# the effective constraint a chain imposes on its endpoints.


@dataclass(frozen=True)
class BraConstraint:
    """Bra-valued product constraint <left|_u (x) <right|_v on the pair (u, v)."""

    u: int
    v: int
    left: BraState
    right: BraState


@dataclass(frozen=True)
class ProductConstraint:
    """Edge constraint stored by factor index into a shared factor table.

    `h` is the factor applied at `u`, `j` the factor at `v`, with u < v in
    canonical orientation.  Keeping indices (rather than bras) makes junction
    tests integer comparisons.
    """

    u: int
    v: int
    h: int
    j: int

    def realize(self, factors: Sequence[BraState]) -> BraConstraint:
        return BraConstraint(self.u, self.v, factors[self.h], factors[self.j])


def induce(c1: BraConstraint, c2: BraConstraint) -> Optional[BraConstraint]:
    """Contract two constraints through a singlet on their shared middle qubit.

    c1 acts on (u, x) and c2 on (x, w).  Returns the induced constraint on
    (u, w), or None when the middle bras are proportional and the contraction
    annihilates.  Raises ValueError if the constraints do not share a middle
    qubit in that orientation.
    """
    if c1.v != c2.u:
        raise ValueError(f"constraints do not chain: ({c1.u},{c1.v}) then ({c2.u},{c2.v})")
    b, g = c1.right, c2.left
    s = b.c0 * g.c1 - b.c1 * g.c0
    if s.is_zero():
        return None
    # The scalar s only rescales the induced bra pair, which is projective.
    return BraConstraint(c1.u, c2.v, c1.left, c2.right)


def chain_constraint(
    constraints: Sequence[BraConstraint],
    path: Optional[Sequence[int]] = None,
) -> Optional[BraConstraint]:
    """Fold a path's constraints left to right; None once any junction dies.

    Induction is associative, so the fold order does not matter; left to
    right keeps the partial constraint anchored at the path's first vertex.
    When `path` is given it must list the traversed vertices and is checked
    against the constraints' endpoints.
    """
    if not constraints:
        raise ValueError("empty chain")
    if path is not None:
        if len(path) != len(constraints) + 1:
            raise ValueError(
                f"path of {len(path)} vertices cannot carry {len(constraints)} constraints"
            )
        for c, a, b in zip(constraints, path, path[1:]):
            if (c.u, c.v) != (a, b):
                raise ValueError(f"constraint on ({c.u},{c.v}) does not match path edge ({a},{b})")
    acc: Optional[BraConstraint] = constraints[0]
    for nxt in constraints[1:]:
        acc = induce(acc, nxt)
        if acc is None:
            return None
    return acc


# ---------------------------------------------------------------------------
# loop option sets and frustration certificates
#
# Loop option sets explain frustration: a cyclic walk whose junctions all
# stay alive carries a nonzero chain constraint from a vertex back to itself,
# restricting that vertex to one of at most two kernel states (one per end
# factor).  A vertex whose option sets admit no common state certifies that
# the instance is frustrated.
#
# Propagation states are (vertex, factor) pairs: vertex v held in the kernel
# state of factor a.  State (v, a) forces (w, j) along an edge (v, w) with
# factors (h, j) whenever h != a.  A walk in this state graph is exactly an
# alternating walk: every hop checks the junction at its source vertex.


@dataclass(frozen=True)
class FrustrationCertificate:
    """Explanation attached to an unsatisfiable instance.

    kind "loop": the option sets at `vertex` admit no common state.
    kind "twosat": no loop explanation was found; `vertex` is the smallest
    vertex of the first component that clashes in the engine solve.
    """

    kind: str
    vertex: int
    option_sets: Optional[tuple[frozenset[int], ...]] = None


def _state_arcs(inst: Instance) -> tuple[list[int], list[int]]:
    f = inst.dist.f
    src: list[int] = []
    dst: list[int] = []
    for u, v, h, j in inst.edge_array.tolist():
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
    ncomp, labels = connected_components(mat, directed=True, connection="strong")
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
    for u, v, h, j in inst.edge_array.tolist():
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


def frustration_certificate(inst: Instance) -> Optional[FrustrationCertificate]:
    """None iff satisfiable; otherwise a best-effort explanation.

    Satisfiability and the frustrated components come from `decouple`'s one
    solve.  When some vertex's loop option sets admit no common state, that
    vertex is reported; pairwise-consistent sets can still have empty joint
    intersection, so the whole collection is checked.
    """
    dec = decouple(inst)
    if dec.label != "frustrated":
        return None
    for x, opts in sorted(vertex_options(inst).items()):
        inter = frozenset.intersection(*opts)
        if not inter:
            return FrustrationCertificate("loop", x, tuple(opts))
    first = dec.frustrated_components[0]
    return FrustrationCertificate("twosat", dec.report.components[first][0])
