"""Random instances: factor distributions, samplers, and the instance file format.

An instance is an interaction graph whose every edge carries a product
constraint <alpha_h|_u (x) <alpha_j|_v, with (h, j) drawn i.i.d. from a
finite factor distribution.  Two samplers are provided: unconditional, and
frustration-free conditioned (each edge's factor pair is rejection-resampled
until the growing instance stays satisfiable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

import numpy as np

from .exactq import BraState, GaussianRational, bra, parse_bra, proportional
from .graphs import Graph, LatticeInfo, fields_equal, int_rows
from .seeding import randbelow, randbelow_batches
from .twosat import TwoSatEngine


def default_factors(f: int) -> tuple[BraState, ...]:
    """f pairwise non-proportional bras: <0|, <1|, then (1, t) for small t.

    After the six named entries the tail continues with (1, k), (1, -k),
    (1, ki), (1, -ki); distinct second components keep the family pairwise
    non-proportional for any f.
    """
    if f < 1:
        raise ValueError("need at least one factor")
    out = [
        bra(1, 0),
        bra(0, 1),
        bra(1, 1),
        bra(1, -1),
        bra(1, GaussianRational.of(0, 1)),
        bra(1, GaussianRational.of(0, -1)),
    ]
    k = 2
    while len(out) < f:
        out.append(bra(1, k))
        out.append(bra(1, -k))
        out.append(bra(1, GaussianRational.of(0, k)))
        out.append(bra(1, GaussianRational.of(0, -k)))
        k += 1
    return tuple(out[:f])


@dataclass(frozen=True)
class FactorDistribution:
    """Factor table plus exact sampling weights q, sorted non-increasing."""

    factors: tuple[BraState, ...]
    q: tuple[Fraction, ...]
    _cum: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = len(self.factors)
        if f == 0 or len(self.q) != f:
            raise ValueError("factors and q must be nonempty and equal-length")
        if any(w <= 0 for w in self.q):
            raise ValueError("every weight must be positive")
        if sum(self.q) != 1:
            raise ValueError("weights must sum to exactly 1")
        if any(a < b for a, b in zip(self.q, self.q[1:])):
            raise ValueError("weights must be non-increasing")
        if f > 1 and self.q[0] == 1:
            raise ValueError("a degenerate weight 1 requires f = 1")
        for i in range(f):
            for j in range(i + 1, f):
                if proportional(self.factors[i], self.factors[j]):
                    raise ValueError(f"factors {i} and {j} are proportional")
        # integer thresholds for exact inverse-CDF sampling
        den = lcm(*(w.denominator for w in self.q))
        cum, acc = [], 0
        for w in self.q:
            acc += int(w * den)
            cum.append(acc)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cum", tuple(cum))

    @classmethod
    def uniform(cls, f: int, factors: Optional[Sequence[BraState]] = None) -> "FactorDistribution":
        facs = tuple(factors) if factors is not None else default_factors(f)
        return cls(facs, tuple(Fraction(1, f) for _ in range(f)))

    @classmethod
    def from_weights(
        cls, weights: Sequence[Fraction], factors: Optional[Sequence[BraState]] = None
    ) -> "FactorDistribution":
        """Exact distribution from non-increasing relative weights."""
        qs = tuple(Fraction(w) for w in weights)
        total = sum(qs)
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        qs = tuple(w / total for w in qs)
        facs = tuple(factors) if factors is not None else default_factors(len(qs))
        return cls(facs, qs)

    @property
    def f(self) -> int:
        return len(self.factors)

    def indices(self, draws: np.ndarray) -> np.ndarray:
        """The factor indices that `randrange(den)` draws pick, exactly.

        Inverse-CDF sampling: draw r picks `bisect_right(cum, r)`.
        """
        dtype = np.int64 if self._den.bit_length() <= 32 else object
        return np.searchsorted(np.array(self._cum, dtype=dtype), draws, side="right")

    def norm_power(self, p: int) -> Fraction:
        """The p-norm raised to the p-th power, sum of q_i^p, exact."""
        return sum((w**p for w in self.q), Fraction(0))

    def norm_inf(self) -> Fraction:
        return self.q[0]


@dataclass(frozen=True, eq=False)
class Instance:
    """A graph with one factor-index pair per edge, aligned to the graph's edges.

    `conditioning` records provenance: "any" for unconditional sampling,
    "free" for the frustration-free rejection sampler; `resamples` counts
    rejected factor pairs during conditioned generation.

    `edge_array` is the one record of the edges and their factors, a
    read-only (m, 4) int64 array of (u, v, h, j) rows; deciding, freezing
    and decoupling read the instance there.  `pairs`, given as any integer
    array or sequence of int pairs, is kept as its (h, j) columns.
    """

    graph: Graph
    pairs: np.ndarray
    dist: FactorDistribution
    conditioning: str = "any"
    seed: int = 0
    resamples: int = 0
    edge_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.pairs) != self.graph.m:
            raise ValueError("one factor pair per edge required")
        pairs = int_rows(self.pairs, 2, "factor pairs")
        if ((pairs < 0) | (pairs >= self.dist.f)).any():
            raise ValueError("factor index out of range")
        if self.conditioning not in ("any", "free"):
            raise ValueError("conditioning must be 'any' or 'free'")
        rows = np.hstack((self.graph.edge_array, pairs))
        rows.flags.writeable = False
        object.__setattr__(self, "edge_array", rows)
        object.__setattr__(self, "pairs", rows[:, 2:])

    __eq__ = fields_equal

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def incident(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per vertex, (other endpoint, own factor, other factor) per edge.

        Entries follow `edge_array` order.  Code that needs one component's
        edges reads them here, in time proportional to the component.
        """
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for u, v, h, j in zip(*self.edge_array.T.tolist()):
            out[u].append((v, h, j))
            out[v].append((u, j, h))
        return tuple(map(tuple, out))


def sample_instance(g: Graph, dist: FactorDistribution, seed: int) -> Instance:
    """Attach i.i.d. factor pairs from q (x) q to every edge of g.

    Edge i takes the draws 2i and 2i + 1 of one seeded stream as (h, j).
    """
    rng = random.Random(seed)
    pairs = dist.indices(randbelow(rng, dist._den, 2 * g.m)).reshape(-1, 2)
    return Instance(g, pairs, dist, "any", seed, 0)


def satisfiable(inst: Instance) -> bool:
    states, _ = TwoSatEngine(inst.n, inst.edge_array).solve()
    return states is not None


RESAMPLE_BUDGET = 10_000


class ResampleBudgetError(RuntimeError):
    def __init__(self, u: int, v: int, budget: int):
        super().__init__(
            f"edge ({u},{v}): no satisfiable factor pair found in {budget} resamples"
        )
        self.edge = (u, v)
        self.budget = budget


def _index_stream(dist: FactorDistribution, rng: random.Random, count: int) -> Iterator[int]:
    # refilled batches join into one draw stream, so no draw is skipped
    for draws in randbelow_batches(rng, dist._den, count):
        yield from dist.indices(draws).tolist()


def sample_frustration_free_instance(g: Graph, dist: FactorDistribution, seed: int) -> Instance:
    """Sample factors edge by edge, rejecting pairs that frustrate.

    Edges are visited in a seed-determined random order, a Fisher-Yates
    shuffle with one `randrange` call per step; each edge's (h, j) is then
    drawn from q (x) q, from one buffered stream of factor indices, and
    redrawn while the partial instance would become unsatisfiable.  The
    emitted instance always passes satisfiable().  Raises
    ResampleBudgetError if one edge rejects RESAMPLE_BUDGET pairs in a row
    (impossible when some satisfiable choice exists, which is always the
    case; the budget guards against defects, not bad luck).

    The partial instance is satisfiable, so the pair is acceptable exactly
    when x[u,h] or x[v,j] is feasible, and each `feasible` query is one
    closure.  The engine's frozen states are the one cache: when one side
    is infeasible the other is entailed once the edge is in, and freezing
    it keeps the cache closed under the closure's transition, so later
    closures stop there.  Only entailed states are frozen, so the cache
    shortens closures without changing an answer.  Tree components need no
    shortcut: a freeze follows a clash, which needs a cycle, so a tree
    component holds no frozen state, and a closure inside one never
    conflicts (see `structure`); `feasible` answers True there by itself.
    """
    rng = random.Random(seed)
    order = list(range(g.m))
    for i in range(g.m - 1, 0, -1):  # Fisher-Yates, pinned to randrange draws
        k = rng.randrange(i + 1)
        order[i], order[k] = order[k], order[i]
    draw = _index_stream(dist, rng, 2 * g.m).__next__

    eng = TwoSatEngine(g.n)
    frozen = eng.frozen
    us, vs = g.edge_array.T.tolist()
    hs, js = [0] * g.m, [0] * g.m
    resamples = 0

    for idx in order:
        u, v = us[idx], vs[idx]
        rejected = 0
        while True:
            h = draw()
            j = draw()
            if frozen[u] == h or frozen[v] == j:
                sat_u = sat_v = True
            else:
                sat_u, sat_v = eng.feasible(u, h), eng.feasible(v, j)
                if not (sat_u or sat_v):
                    rejected += 1
                    resamples += 1
                    if rejected >= RESAMPLE_BUDGET:
                        raise ResampleBudgetError(u, v, RESAMPLE_BUDGET)
                    continue
            hs[idx], js[idx] = h, j
            eng.add_edge(u, v, h, j)
            if not sat_v:
                eng.freeze(u, h)
            elif not sat_u:
                eng.freeze(v, j)
            break

    return Instance(g, np.column_stack((hs, js)), dist, "free", seed, resamples)


# ---------------------------------------------------------------------------
# file format


FORMAT_MAGIC = "QSAT2 v1"


def format_instance(inst: Instance) -> str:
    """Render the line-oriented text form; parsing it back is bit-exact."""
    g = inst.graph
    if g.lattice is None:
        model, L = "er", 0
    else:
        model, L = f"lat{g.lattice.d}", g.lattice.L
    lines = [
        FORMAT_MAGIC,
        f"n={g.n} m={g.m} f={inst.dist.f} model={model} L={L} "
        f"seed={inst.seed} cond={inst.conditioning} resamples={inst.resamples}",
    ]
    for i, fac in enumerate(inst.dist.factors):
        lines.append(f"F {i + 1} {fac.render()}")
    for i, w in enumerate(inst.dist.q):
        lines.append(f"Q {i + 1} {w.numerator}/{w.denominator}")
    for u, v, h, j in zip(*inst.edge_array.T.tolist()):
        lines.append(f"E {u} {v} {h + 1} {j + 1}")
    return "\n".join(lines) + "\n"


class InstanceParseError(ValueError):
    pass


def _parse_header(line: str) -> dict[str, str]:
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise InstanceParseError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    for key in ("n", "m", "f", "model", "L", "seed", "cond", "resamples"):
        if key not in fields:
            raise InstanceParseError(f"header missing {key}")
    return fields


def _edge_rows(lines: Sequence[str]) -> Iterator[tuple[int, int, int, int]]:
    """Each `E u v h j` line as (u, v, h - 1, j - 1); only the shape is checked."""
    for ln in lines:
        parts = ln.split()
        if len(parts) != 5 or parts[0] != "E":
            raise InstanceParseError(f"bad edge line {ln!r}")
        try:
            u, v, h, j = map(int, parts[1:])
        except ValueError:
            raise InstanceParseError(f"non-integer edge line {ln!r}") from None
        yield u, v, h - 1, j - 1


def parse_instance(text: str) -> Instance:
    """Read the text form; `Graph` and `Instance` check the edges and factors."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_MAGIC:
        raise InstanceParseError(f"expected leading {FORMAT_MAGIC!r} line")
    if len(lines) < 2:
        raise InstanceParseError("missing header line")
    hdr = _parse_header(lines[1])
    try:
        n, m, f, L = int(hdr["n"]), int(hdr["m"]), int(hdr["f"]), int(hdr["L"])
        seed, resamples = int(hdr["seed"]), int(hdr["resamples"])
    except ValueError as e:
        raise InstanceParseError(f"non-integer header field: {e}") from None
    for key, count in (("n", n), ("m", m), ("f", f)):
        if count < 0:
            raise InstanceParseError(f"negative count {key}={count}")
    model, cond = hdr["model"], hdr["cond"]
    if model not in ("er", "lat2", "lat3"):
        raise InstanceParseError(f"unknown model {model!r}")
    if cond not in ("free", "any"):
        raise InstanceParseError(f"unknown conditioning {cond!r}")
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != 2 * f + m:
        raise InstanceParseError(f"expected {2 * f + m} body lines, found {len(body)}")

    factors: list[BraState] = []
    weights: list[Fraction] = []
    for i in range(f):
        ln = body[i]
        parts = ln.split(maxsplit=2)
        if len(parts) != 3 or parts[0] != "F" or parts[1] != str(i + 1):
            raise InstanceParseError(f"bad factor line {ln!r}")
        try:
            factors.append(parse_bra(parts[2]))
        except ValueError as e:
            raise InstanceParseError(f"bad bra in {ln!r}: {e}") from None
    for i in range(f):
        ln = body[f + i]
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "Q" or parts[1] != str(i + 1):
            raise InstanceParseError(f"bad weight line {ln!r}")
        num, _, den = parts[2].partition("/")
        try:
            weights.append(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError) as e:
            raise InstanceParseError(f"bad weight in {ln!r}: {e}") from None

    try:
        rows = np.fromiter(_edge_rows(body[2 * f :]), np.dtype((np.int64, 4)), m)
    except OverflowError:
        raise InstanceParseError("edge line field does not fit in int64") from None

    lattice = None
    if model != "er":
        d = int(model[3:])
        if L < 2 or L**d != n:
            raise InstanceParseError(f"lattice header inconsistent: n={n}, L={L}, d={d}")
        lattice = LatticeInfo(d, L)
    elif L != 0:
        raise InstanceParseError("model=er requires L=0")

    try:
        dist = FactorDistribution(tuple(factors), tuple(weights))
        return Instance(Graph(n, rows[:, :2], lattice), rows[:, 2:], dist, cond, seed, resamples)
    except ValueError as e:
        raise InstanceParseError(str(e)) from None


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_instance(inst))


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance(fh.read())
