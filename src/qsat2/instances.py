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
from typing import Iterator, Sequence

import numpy as np

from .exactq import BraState, GaussianRational, bra, parse_bra
from .graphs import LATTICE_DIMS, MODELS, Graph, LatticeInfo, fields_equal, int_rows
from .seeding import randbelow, randbelow_batches
from .twosat import TwoSatEngine, solve


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
        # bras are in canonical form, so projective equality is structural
        for i in range(f):
            for j in range(i + 1, f):
                if self.factors[i] == self.factors[j]:
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
    def uniform(cls, f: int) -> "FactorDistribution":
        return cls(default_factors(f), tuple(Fraction(1, f) for _ in range(f)))

    @classmethod
    def from_weights(cls, weights: Sequence[Fraction]) -> "FactorDistribution":
        """Exact distribution from non-increasing relative weights."""
        qs = tuple(Fraction(w) for w in weights)
        total = sum(qs)
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls(default_factors(len(qs)), tuple(w / total for w in qs))

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


CONDITIONINGS = ("any", "free")  # unconditioned, or conditioned frustration-free


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
        if self.conditioning not in CONDITIONINGS:
            raise ValueError("conditioning must be 'any' or 'free'")
        if self.resamples < 0:
            raise ValueError(f"negative count resamples={self.resamples}")
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

        Every edge gives two entries, listed v-side first: (u, j, h) at v for
        each edge, then (v, h, j) at u.  One stable sort by the owning vertex
        groups them per vertex and keeps that listing order within a group.
        `Graph` keeps its edges canonical and sorted, so at a vertex x every
        edge (a, x) comes before every edge (x, b) (a < x), and the two runs,
        each in edge order, join into `edge_array` order.
        """
        u, v, h, j = self.edge_array.T
        owner = np.concatenate((v, u))
        order = np.argsort(owner, kind="stable")
        # a list: tuple() over a zip grows its tuple by resizing, and each
        # resize puts the whole tuple back in the collector's youngest
        # generation, so young collections traverse it again and again
        entries = list(
            zip(
                np.concatenate((u, v))[order].tolist(),
                np.concatenate((j, h))[order].tolist(),
                np.concatenate((h, j))[order].tolist(),
            )
        )
        ends = np.cumsum(np.bincount(owner, minlength=self.n)).tolist()
        return tuple(tuple(entries[a:b]) for a, b in zip([0] + ends, ends))


def sample_instance(g: Graph, dist: FactorDistribution, seed: int) -> Instance:
    """Attach i.i.d. factor pairs from q (x) q to every edge of g.

    Edge i takes the draws 2i and 2i + 1 of one seeded stream as (h, j).
    """
    rng = random.Random(seed)
    pairs = dist.indices(randbelow(rng, dist._den, 2 * g.m)).reshape(-1, 2)
    return Instance(g, pairs, dist, "any", seed, 0)


def satisfiable(inst: Instance) -> bool:
    return not solve(inst.edge_array)


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
    when x[u,h] or x[v,j] is feasible.  The engine keeps a model of the
    partial instance: a `feasible` query is True at once when the model
    already has the state, and otherwise walks only the vertices the model
    would have to change, moving the model onto what it finds.  The
    engine's frozen states shorten the rest: when one side is infeasible
    the other is entailed once the edge is in, and freezing it keeps the
    frozen states closed under the search's transition, so later searches
    stop there.  Only entailed states are frozen, so neither the model nor
    the frozen states change an answer (see `twosat`).
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
    L = 0 if g.lattice is None else g.lattice.L
    lines = [
        FORMAT_MAGIC,
        f"n={g.n} m={g.m} f={inst.dist.f} model={g.model_tag()} L={L} "
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


HEADER_KEYS = ("n", "m", "f", "model", "L", "seed", "cond", "resamples")


def _parse_header(line: str) -> dict[str, str]:
    """The header's key=value tokens: each of HEADER_KEYS exactly once."""
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise InstanceParseError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        if key not in HEADER_KEYS:
            raise InstanceParseError(f"unknown header key {key!r}")
        if key in fields:
            raise InstanceParseError(f"repeated header key {key!r}")
        fields[key] = val
    for key in HEADER_KEYS:
        if key not in fields:
            raise InstanceParseError(f"header missing {key}")
    return fields


EDGE_BLOCK = 4096  # edge lines read per block; bounds the transient token list


def _edge_array(lines: Sequence[str]) -> np.ndarray:
    """The `E u v h j` lines as (u, v, h - 1, j - 1) int64 rows, read
    EDGE_BLOCK lines at a time; only the shape and the field spelling are
    checked.

    A field is read only as `format_instance` writes it, in ASCII decimal
    digits with no sign, underscore or leading zero, so one instance has one
    file; `int()` alone would also read "+1", "-0", "00" and "2_0".  A field
    past int64 raises OverflowError.
    """
    rows = np.empty((len(lines), 4), np.int64)
    for start in range(0, len(lines), EDGE_BLOCK):
        block = lines[start : start + EDGE_BLOCK]
        rows[start : start + len(block)] = _edge_block(block)
    return rows


# the powers of ten that int64 holds, past 1: a count of digits
_POW10 = [10**e for e in range(1, 19)]


def _edge_block(block: Sequence[str]) -> np.ndarray:
    """One block's rows from one split and one `int()` pass over its fields.

    Joined with " ; ", k lines split into exactly 6k - 1 tokens, with "E"
    at every 6th and ";" at every 6th + 5, when each line is five tokens led
    by "E".  The other 4k tokens must then pass `int()`, so a ";" or "E"
    that stands inside a line fails either there or at the "E" test.

    The spelling is checked by length.  An ASCII field that `int()` reads
    is at least as long as its value's digit count (taken as 1 for a
    negative value), and only as long when it has no sign, underscore or
    leading zero; and 6k - 1 tokens need at least 6k - 2 separators.  So
    the joined text is at least 8k - 3 plus the digit counts long, and
    exactly that long only when every field is a plain decimal and every
    separator one character.  A block that fails a check is read again by
    `_edge_lines`, which names the bad line.
    """
    k = len(block)
    text = " ; ".join(block)
    toks = text.split()
    if (
        text.isascii()
        and len(toks) == 6 * k - 1
        and toks[::6].count("E") == k
        and toks[5::6].count(";") == k - 1
    ):
        del toks[5::6], toks[::5]
        try:
            rows = np.fromiter(map(int, toks), np.int64, 4 * k).reshape(k, 4)
        except (ValueError, OverflowError):
            pass
        else:
            top = int(rows.max())
            digits = 4 * k + sum(int(np.count_nonzero(rows >= p)) for p in _POW10 if p <= top)
            if len(text) == 8 * k - 3 + digits:
                rows[:, 2:] -= 1
                return rows
    return _edge_lines(block)


def _plain_decimal(field: str) -> bool:
    """Is `field` spelled as `format_instance` writes a number?"""
    return field.isascii() and field.isdigit() and (field[0] != "0" or field == "0")


def _edge_lines(block: Sequence[str]) -> np.ndarray:
    """One block read line by line: raises the error of its first bad line.

    A valid block gets here when it holds an h or j of 2^63, which int64
    cannot hold but whose h - 1 it can, or a run of separators; its rows
    are returned.
    """
    rows = np.empty((len(block), 4), np.int64)
    for i, ln in enumerate(block):
        parts = ln.split()
        if len(parts) != 5 or parts[0] != "E":
            raise InstanceParseError(f"bad edge line {ln!r}")
        for field in parts[1:]:
            if not _plain_decimal(field):
                try:
                    int(field)
                except ValueError:
                    raise InstanceParseError(f"non-integer edge line {ln!r}") from None
                raise InstanceParseError(f"non-canonical integer in edge line {ln!r}")
        u, v, h, j = map(int, parts[1:])
        rows[i] = u, v, h - 1, j - 1  # OverflowError past int64
    return rows


# the characters besides \n and \r at which `str.splitlines` ends a line
STRAY_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def parse_instance(text: str) -> Instance:
    """Read the text form; `Graph` and `Instance` check the edges and factors.

    A line ends at \\n, \\r\\n or \\r.  A line that holds one of
    STRAY_BREAKS is an error that names it.
    """
    lines = text.splitlines()
    # away from the end of the text, a stray break adds a line to the \n count
    if len(lines) != text.count("\n") + (text[-1:] not in ("", "\n")) or text[-1:] in STRAY_BREAKS:
        for ln in text.replace("\r", "\n").split("\n"):
            if any(c in ln for c in STRAY_BREAKS):
                raise InstanceParseError(f"line break inside line {ln!r}")
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
    if model not in MODELS:
        raise InstanceParseError(f"unknown model {model!r}")
    if cond not in CONDITIONINGS:
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
        rows = _edge_array(body[2 * f :])
    except OverflowError:
        raise InstanceParseError("edge line field does not fit in int64") from None

    lattice = None
    if model != "er":
        d = LATTICE_DIMS[model]
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
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InstanceParseError(f"non-ASCII byte at offset {e.start}") from None
    return parse_instance(text)
