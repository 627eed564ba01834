"""Exact ground-space dimensions for product-constraint instances.

The value of an instance is the dimension of the simultaneous kernel of all
constraint projectors.  Per connected component this is 2^k - rank(M), where
M stacks, for every edge, the constraint bra tensored with standard-basis
bras on the component's other k-2 qubits; every such row has at most four
nonzero entries.  Rows are built per edge: the edge's coefficients are
embedded in each field once, and its rows step the spectator bits through
the submasks of one mask.  Rank is computed by sparse elimination, either exactly
over the Gaussian rationals or modulo large primes p = 1 (mod 4), where the
imaginary unit embeds as a square root of -1.  Modular rank can only
undercount (a minor may vanish mod p), so two primes must agree and any
disagreement escalates to exact arithmetic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactq import GaussianRational
from .instances import Instance
from .structure import Decomposition, decouple

# 62-bit primes with p = 1 (mod 4); the second and later entries verify the
# first, and exact arithmetic settles any disagreement.
MOD_PRIMES = (
    2305843009213693973,
    2305843009213694009,
    2305843009213694017,
    2305843009213694149,
)


@dataclass(frozen=True)
class RankBackendConfig:
    mode: str = "modular"  # "modular" | "exact_rational"
    verify_primes: int = 2
    max_component_qubits: int = 16

    def __post_init__(self):
        if self.mode not in ("modular", "exact_rational"):
            raise ValueError(f"unknown rank mode {self.mode!r}")
        if self.mode == "modular" and not 1 <= self.verify_primes <= len(MOD_PRIMES):
            raise ValueError(f"verify_primes must be in 1..{len(MOD_PRIMES)}")
        if self.max_component_qubits < 1:
            raise ValueError("component cap must be positive")


DEFAULT_CONFIG = RankBackendConfig()


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
_MOD_FIELDS = {p: _ModField(p) for p in MOD_PRIMES}


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


def _constraint_blocks(
    inst: Instance,
    component: Sequence[int],
    frozen: Optional[dict] = None,
) -> Iterable[tuple[list[tuple[int, GaussianRational]], int]]:
    """Constraint rows over the component's 2^k basis, one block per edge.

    Basis states are bitmasks over the component's qubits in sorted order,
    local qubit i at bit i.  An edge's block is its nonzero entries
    (offset, bra_u[x_u] * bra_v[x_v]) and the mask of the other k-2 qubits;
    it stands for the rows `rest | offset`, `rest` each submask in turn.

    An edge may leave the component only toward a vertex frozen in the kernel
    state of that edge's own factor; such a constraint annihilates the frozen
    state and imposes nothing here, so the edge is skipped.  Only the
    component's incident edges are read, in `edge_array` order.
    """
    comp = sorted(component)
    local = {v: i for i, v in enumerate(comp)}
    full = (1 << len(comp)) - 1
    factors = inst.dist.factors
    for pu, u in enumerate(comp):
        for v, h, j in inst.incident[u]:
            pv = local.get(v)
            if pv is None:
                if frozen is not None and frozen.get(v) == j:
                    continue
                raise ValueError(f"edge ({min(u, v)},{max(u, v)}) crosses the component boundary")
            if v < u:
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


def component_rank(
    inst: Instance,
    component: Sequence[int],
    config: RankBackendConfig,
    frozen: Optional[dict] = None,
) -> int:
    if config.mode == "exact_rational":
        return _exact_rank(inst, component, frozen)
    ranks = []
    for p in MOD_PRIMES[: config.verify_primes]:
        try:
            ranks.append(
                _echelon_rank(_constraint_blocks(inst, component, frozen), _MOD_FIELDS[p])
            )
        except _PrimeClash:
            return _exact_rank(inst, component, frozen)
    if len(set(ranks)) != 1:
        return _exact_rank(inst, component, frozen)
    return ranks[0]


def _exact_rank(inst, component, frozen=None) -> int:
    return _echelon_rank(_constraint_blocks(inst, component, frozen), _ExactField())


def component_value(
    inst: Instance,
    component: Sequence[int],
    config: RankBackendConfig = DEFAULT_CONFIG,
    frozen: Optional[dict] = None,
) -> int:
    """Ground-space dimension 2^k - rank restricted to one component."""
    k = len(component)
    if k > config.max_component_qubits:
        raise ComponentCapError(k, config.max_component_qubits, component)
    return (1 << k) - component_rank(inst, component, config, frozen)


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


def decomposition_value(
    inst: Instance, dec: Decomposition, config: RankBackendConfig = DEFAULT_CONFIG
) -> int:
    """Ground-space dimension from a decomposition of `inst`; 0 iff frustrated.

    Each frozen qubit contributes a one-dimensional factor, so the value is
    the product over the residual components.
    """
    if dec.label == "frustrated":
        return 0
    return product_tree(
        [
            component_value(inst, comp, config, frozen=dec.frozen)
            for comp in dec.residual_components
        ]
    )


def instance_value(inst: Instance, config: RankBackendConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the instance's full ground space; 0 iff frustrated.

    Frozen qubits are removed first and the residual components are counted
    independently.
    """
    return decomposition_value(inst, decouple(inst), config)
