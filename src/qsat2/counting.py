"""Exact ground-space dimensions for product-constraint instances.

The value of an instance is the dimension of the simultaneous kernel of all
constraint projectors, the product of its connected components' values.
A component is counted by pinning and splitting.  A pin freezes a qubit
in the kernel state of one factor in a 2-SAT engine and propagates by its
closure; a qubit is live exactly when it is not frozen.  A live qubit
whose edges carry at most two factors on its side splits the count into
two pinned branches.  Trees, and every component at f = 2, always split.
A part in which every qubit meets three or more factors is a leaf,
counted by the rank over its own edges with its pins as boundary.

The rank's value is 2^k - rank(M), where M stacks, for every edge, the
constraint bra tensored with standard-basis bras on the part's other
k-2 qubits; every such row has at most four nonzero entries.  Rows are built
per edge: the edge's coefficients are embedded in each field once, and its
rows step the spectator bits through the submasks of one mask.  Rank is
computed by sparse elimination modulo two large primes p = 1 (mod 4), where
the imaginary unit embeds as a square root of -1.  Modular rank can only
undercount (a minor may vanish mod p), so the two primes must agree; a
disagreement, or a coefficient whose denominator vanishes mod a prime,
escalates to exact arithmetic over the Gaussian rationals.  The one setting
is the qubit cap: a component over `max_component_qubits` raises
ComponentCapError before any splitting or rank runs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactq import GaussianRational
from .graphs import label_groups
from .instances import Instance
from .structure import Decomposition, decouple
from .twosat import TwoSatEngine

# 62-bit primes with p = 1 (mod 4); each verifies the other, and exact
# arithmetic settles any disagreement.
MOD_PRIMES = (2305843009213693973, 2305843009213694009)


def check_component_cap(max_component_qubits: int) -> None:
    """Reject a component cap below one qubit: no counter would ever run."""
    if max_component_qubits < 1:
        raise ValueError("component cap must be positive")


class ComponentCapError(RuntimeError):
    def __init__(self, size: int, cap: int, vertices: Sequence[int]):
        vid = min(vertices)
        super().__init__(
            f"component containing vertex {vid} has {size} qubits, over the cap {cap}"
        )
        self.size = size
        self.cap = cap
        self.component = tuple(vertices)


# ---------------------------------------------------------------------------
# fields


class _PrimeClash(Exception):
    """A denominator vanished mod p; retry with another prime or exactly."""


class _ModField:
    """Arithmetic mod p with i embedded as a square root of -1."""

    def __init__(self, p: int):
        self.p = p
        self.root = self._imag_unit(p)

    @staticmethod
    def _imag_unit(p: int) -> int:
        for a in range(2, 1000):
            r = pow(a, (p - 1) // 4, p)
            if r * r % p == p - 1:
                return r
        raise ValueError(f"no square root of -1 mod {p}")

    def embed(self, x: GaussianRational) -> int:
        return (self._rational(x.re) + self._rational(x.im) * self.root) % self.p

    def _rational(self, q: Fraction) -> int:
        d = q.denominator % self.p
        if d == 0:
            raise _PrimeClash
        return q.numerator * self.inv(d) % self.p

    def inv(self, a: int) -> int:
        return 1 if a == 1 else pow(a, self.p - 2, self.p)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def reduce_row(self, row: dict, coeff: int, basis_row: dict) -> None:
        p = self.p
        for col, val in basis_row.items():
            cur = row.get(col, 0)
            nxt = (cur - coeff * val) % p
            if nxt:
                row[col] = nxt
            elif col in row:
                del row[col]


# a field holds only p and its square root of -1, so one per prime serves every rank
_MOD_FIELDS = tuple(_ModField(p) for p in MOD_PRIMES)


class _ExactField:
    def embed(self, x: GaussianRational) -> GaussianRational:
        return x

    def inv(self, a: GaussianRational) -> GaussianRational:
        return a.inverse()

    def mul(self, a: GaussianRational, b: GaussianRational) -> GaussianRational:
        return a * b

    def reduce_row(self, row: dict, coeff, basis_row: dict) -> None:
        for col, val in basis_row.items():
            cur = row.get(col)
            nxt = (cur - coeff * val) if cur is not None else -(coeff * val)
            if nxt.is_zero():
                if col in row:
                    del row[col]
            else:
                row[col] = nxt


# ---------------------------------------------------------------------------
# rows and rank

# per vertex, (far end, own factor, far factor) for each of its edges
_Index = Sequence[Sequence[tuple[int, int, int]]]


def _own_index(
    incident: _Index, component: Sequence[int], frozen: Optional[Sequence[int]]
) -> list[list[tuple[int, int, int]]]:
    """The edges of `component`, given in ascending order, over local qubits
    0..k-1: (local far end, own factor, far factor), in `incident` order.

    An edge may leave the component only toward a vertex frozen in the
    kernel state of the edge's far factor; such a constraint annihilates
    the frozen state and imposes nothing here, so the edge is dropped.  Any
    other crossing edge raises ValueError.
    """
    local = {v: i for i, v in enumerate(component)}
    index = []
    for u in component:
        own = []
        for v, h, j in incident[u]:
            pv = local.get(v)
            if pv is not None:
                own.append((pv, h, j))
            elif frozen is None or frozen[v] != j:
                raise ValueError(f"edge ({min(u, v)},{max(u, v)}) crosses the component boundary")
        index.append(own)
    return index


def _constraint_blocks(
    index: _Index, factors: Sequence
) -> Iterable[tuple[list[tuple[int, GaussianRational]], int]]:
    """Constraint rows over the 2^k basis of an `_own_index`, one block per edge.

    Basis states are bitmasks over the local qubits, qubit i at bit i.  An
    edge's block is its nonzero entries (offset, bra_u[x_u] * bra_v[x_v])
    and the mask of the other k-2 qubits; it stands for the rows
    `rest | offset`, `rest` each submask in turn.  Edges come by their lower
    end, then in index order.
    """
    full = (1 << len(index)) - 1
    for pu, own in enumerate(index):
        for pv, h, j in own:
            if pv < pu:
                continue
            bu, bv = factors[h], factors[j]
            entries = []
            for xu, cu in ((0, bu.c0), (1, bu.c1)):
                for xv, cv in ((0, bv.c0), (1, bv.c1)):
                    coeff = cu * cv
                    if not coeff.is_zero():
                        entries.append(((xu << pu) | (xv << pv), coeff))
            yield entries, full & ~(1 << pu | 1 << pv)


def _echelon_rank(blocks: Iterable, field) -> int:
    """Incremental sparse echelon: insert each row, reduce by leading column."""
    basis: dict[int, dict] = {}
    for entries, mask in blocks:
        coeffs = [(off, field.embed(c)) for off, c in entries]  # once per block
        rest = 0
        while True:
            row = {rest | off: c for off, c in coeffs}
            while row:
                lead = min(row)
                piv = basis.get(lead)
                if piv is None:
                    scale = field.inv(row.pop(lead))
                    basis[lead] = {col: field.mul(val, scale) for col, val in row.items()}
                    break
                field.reduce_row(row, row.pop(lead), piv)
            if rest == mask:
                break
            rest = (rest - mask) & mask  # the next submask, in increasing order
    return len(basis)


def _verified_rank(index: _Index, factors: Sequence) -> int:
    """The rank modulo both MOD_PRIMES; a clash or a disagreement settles it exactly."""
    try:
        ranks = {_echelon_rank(_constraint_blocks(index, factors), fd) for fd in _MOD_FIELDS}
    except _PrimeClash:
        ranks = set()
    return ranks.pop() if len(ranks) == 1 else _exact_rank(index, factors)


def _exact_rank(index: _Index, factors: Sequence) -> int:
    return _echelon_rank(_constraint_blocks(index, factors), _ExactField())


# ---------------------------------------------------------------------------
# pins and splits

def _split_value(index: _Index, factors: Sequence) -> int:
    """Ground-space dimension of one component, given as its `_own_index`,
    by pinning and splitting, with the verified rank at the leaves.

    A split at a vertex a writes a's qubit in a basis the constraints at a
    respect.  When all of a's edges carry one factor h on a's side, a is
    either in h's kernel state, which satisfies them all, or in a state with
    overlap 1 with h, which pins every neighbour to its far factor.  With two
    factors h1 and h2, a is in the kernel state of one of them, and each
    state pins the far ends of the other factor's edges; the two kernel
    states are a basis because factors are pairwise non-proportional.  Either
    way the value is the sum of the two branches.  Once a branch's pins are
    propagated, every pinned vertex adds a factor of 1 and its edges impose
    nothing more, so the branch is worth the product over the connected
    parts of the live vertices left.  A part with no vertex of at most two
    own-side factors is worth 2^k - rank over its own edges: its pins are
    its boundary, and every edge to them is satisfied at the pinned end.

    Pins are the frozen states of an engine over `index`, and a vertex is
    live exactly when it is not frozen.  A branch freezes a in its kernel
    factor and the closure of its pins, and resets both once its value is
    in; a clash in the closure makes it worth 0.  A live vertex's frozen
    neighbours sit in states their edges allow, so the closure stops there.

    `_product` yields each subproblem it needs and receives its value; this
    loop runs them on an explicit stack, so the depth of the recursion, up
    to one level per qubit, costs no interpreter frames.
    """
    eng = TwoSatEngine(len(index), index)
    stack = [_product(eng, factors, range(len(index)))]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


def _product(eng: TwoSatEngine, factors: Sequence, starts: Iterable[int]):
    """The product over the connected parts of the live vertices that
    `starts` reaches: per part, the sum of two branches at one split vertex,
    or 2^k - rank when no vertex splits.

    While a part is counted, every vertex outside it is frozen or cut off
    from it by frozen vertices, and those stay frozen until its value is
    in, so `frozen[x] < 0` is the test `x in part`.
    """
    incident, frozen = eng.incident, eng.frozen
    parts, seen = [], set()
    for v in starts:
        if frozen[v] < 0 and v not in seen:
            seen.add(v)
            part = [v]
            for u in part:  # the loop reaches the vertices it appends
                for x, _, _ in incident[u]:
                    if frozen[x] < 0 and x not in seen:
                        seen.add(x)
                        part.append(x)
            parts.append(part)
    del seen  # a deep recursion would otherwise hold one per level
    total = 1
    for part in parts:
        if not total:
            break
        if len(part) == 1:
            total *= 2
            continue
        # the vertex with the fewest live edges, a leaf when there is one
        edges = None
        for v in part:
            own = [(x, hv, jx) for x, hv, jx in incident[v] if frozen[x] < 0]
            if edges is None or len(own) < len(edges):
                hs = {hv for _, hv, _ in own}
                if len(hs) <= 2:
                    a, edges, sides = v, own, hs
                    if len(own) == 1:
                        break
        if edges is None:
            index = _own_index(incident, sorted(part), frozen)
            total *= (1 << len(part)) - _verified_rank(index, factors)
            continue
        # a in the kernel state of each of its factors; with one factor h,
        # also in the state of overlap 1 with h, which every edge constrains
        branches = [(h, [(x, jx) for x, hv, jx in edges if hv != h]) for h in sides]
        if len(sides) == 1:
            # frozen[a] = h misstates a in this branch, but every neighbour
            # of a is pinned, so no part below has an edge at a to read it
            branches.append((*sides, [(x, jx) for x, _, jx in edges]))
        value = 0
        for h, pins in branches:
            frozen[a] = h
            pinned = eng.closure(pins)
            if pinned is not None:
                for x, s in pinned.items():
                    frozen[x] = s
                value += yield _product(eng, factors, part)
                for x in pinned:
                    frozen[x] = -1
        frozen[a] = -1
        total *= value
    return total


def component_value(
    inst: Instance,
    component: Sequence[int],
    max_component_qubits: int = 16,
    frozen: Optional[Sequence[int]] = None,
) -> int:
    """Ground-space dimension restricted to one component, by `_split_value`.

    A vertex repeated or outside the instance raises ValueError, and a
    component over `max_component_qubits` raises ComponentCapError.
    """
    check_component_cap(max_component_qubits)
    comp = sorted(component)
    for prev, v in zip([None] + comp, comp):
        if v == prev:
            raise ValueError(f"vertex {v} appears twice in the component")
        if not 0 <= v < inst.n:
            raise ValueError(f"vertex {v} is not one of the instance's {inst.n} vertices")
    if len(comp) > max_component_qubits:
        raise ComponentCapError(len(comp), max_component_qubits, component)
    return _split_value(_own_index(inst.incident, comp, frozen), inst.dist.factors)


def product_tree(values: Sequence[int]) -> int:
    """Exact product, combining the two smallest factors first.

    Pairing small factors keeps multiplicand bit lengths balanced, the same
    guarantee as pairing the two largest, and a min-heap makes it direct.
    """
    if not values:
        return 1
    heap = list(values)
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        heapq.heappush(heap, a * b)
    return heap[0]


def decomposition_value(inst: Instance, dec: Decomposition, max_component_qubits: int = 16) -> int:
    """Ground-space dimension from a decomposition of `inst`; 0 iff frustrated.

    Each frozen qubit contributes a one-dimensional factor, so the value is
    the product over the residual components.
    """
    check_component_cap(max_component_qubits)
    if dec.label == "frustrated":
        return 0
    comps = label_groups(dec.residual_labels)
    return product_tree([component_value(inst, c, max_component_qubits, dec.frozen) for c in comps])


def instance_value(inst: Instance, max_component_qubits: int = 16) -> int:
    """Dimension of the instance's full ground space; 0 iff frustrated.

    Frozen qubits are removed first and the residual components are counted
    independently.
    """
    return decomposition_value(inst, decouple(inst), max_component_qubits)
