"""Closed-form predictors: distribution functionals, tree fractions, counts.

Everything that can be exact is exact (Fractions); the only floating-point
quantities are xi and the residual density, which involve a transcendental
fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import MODELS
from .instances import FactorDistribution


@dataclass(frozen=True)
class DistributionFunctionals:
    """Norm functionals of the factor distribution q.

    q2 = 1 - ||q||_2^2 is the survival probability of one junction (two
    independent draws differ); qinf = 1 - ||q||_inf; qcrux is the
    probability that two junctions at a shared vertex use four factors with
    {h,i} and {j,k} disjoint; qjunct = ||q||_2^2 - ||q||_3^3.
    """

    norm2_sq: Fraction
    norm3_cu: Fraction
    norm4_qu: Fraction
    norm_inf: Fraction
    q2: Fraction
    qinf: Fraction
    qcrux: Fraction
    qjunct: Fraction


def functionals(dist: FactorDistribution) -> DistributionFunctionals:
    n2 = dist.norm_power(2)
    n3 = dist.norm_power(3)
    n4 = dist.norm_power(4)
    ninf = dist.norm_inf()
    return DistributionFunctionals(
        norm2_sq=n2,
        norm3_cu=n3,
        norm4_qu=n4,
        norm_inf=ninf,
        q2=1 - n2,
        qinf=1 - ninf,
        qcrux=1 - 4 * n2 + 2 * n2 * n2 + 4 * n3 - 3 * n4,
        qjunct=n2 - n3,
    )


def distinct_triple_probability(dist: FactorDistribution) -> Fraction:
    """Probability that three independent draws from q are pairwise distinct."""
    n2 = dist.norm_power(2)
    n3 = dist.norm_power(3)
    return 1 - 3 * n2 + 2 * n3


# ---------------------------------------------------------------------------
# tree fraction fixed point


def xi(rho: float) -> float:
    """Smaller branch of the tree-fraction fixed point xi*exp(-xi) = 2rho*exp(-2rho).

    Equals 2*rho up to rho = 1/2 (where it peaks at 1); beyond that, the
    unique root in (0,1), found by bisection-safeguarded Newton with
    residual below 1e-12.
    """
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and nonnegative, got {rho!r}")
    if rho <= 0.5:
        return 2.0 * rho
    # the same product as 2*rho*exp(-2*rho), without inf * 0 near the float max
    y = math.exp(-2.0 * rho) * 2.0 * rho
    lo, hi = 0.0, 1.0
    x = min(y * math.e, 0.5)  # xi ~ y for small y
    for _ in range(200):
        fx = x * math.exp(-x) - y
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if abs(fx) < 1e-15:
            break
        d = (1.0 - x) * math.exp(-x)
        nxt = x - fx / d if d > 0.0 else -1.0
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == x:
            break
        x = nxt
    return x


def giant_fraction(rho: float) -> float:
    """Asymptotic fraction of vertices in the giant component at density rho."""
    if rho <= 0:
        return 0.0
    return 1.0 - xi(rho) / (2.0 * rho)


def residual_density(gamma: float, qinf: float) -> float:
    """Edge density left after deleting the expected frozen closure."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 < qinf <= 1:
        raise ValueError("qinf must be in (0, 1]")
    x = xi(gamma * qinf)
    return 0.5 * x + (1.0 - qinf) / (4.0 * gamma * qinf * qinf) * x * x


# ---------------------------------------------------------------------------
# subgraph count predictors


def expected_figure_eights(n: int, m: int, ell: int, dist: FactorDistribution) -> Fraction:
    """Expected number of frustrated figure-eights with cycle length ell.

    Exact over the uniform m-edge random graph with i.i.d. factor pairs:
    positions for two ell-cycles sharing one vertex, times the probability
    that all 2*ell placed edges are present, times the survival of the
    2*ell - 2 non-crux junctions, times the crux-disjointness probability.
    """
    if ell < 3:
        raise ValueError("cycle length must be at least 3")
    if 2 * ell - 1 > n:
        raise ValueError("not enough vertices for two disjoint cycles")
    if m < 2 * ell:
        return Fraction(0)
    fn = functionals(dist)
    placements = (
        Fraction(n, 2)
        * Fraction(math.comb(n - 1, ell - 1) * math.factorial(ell - 1), 2)
        * Fraction(math.comb(n - ell, ell - 1) * math.factorial(ell - 1), 2)
    )
    slots = math.comb(n, 2)
    presence = Fraction(math.comb(slots - 2 * ell, m - 2 * ell), math.comb(slots, m))
    return fn.q2 ** (2 * ell - 2) * fn.qcrux * placements * presence


def domino_frustration_probability(dist: FactorDistribution) -> Fraction:
    """Probability that one fully-present domino is frustrated.

    Four independent side junctions must survive and both end-factor triples
    must be pairwise distinct; all six events use disjoint draws.
    """
    fn = functionals(dist)
    return fn.q2**4 * distinct_triple_probability(dist) ** 2


def domino_positions(L: int, d: int) -> int:
    """Number of domino placements: plaquette pairs sharing an edge.

    An edge has one candidate plaquette per side within bounds; interior
    transverse coordinates contribute two sides, boundary ones one.
    """
    if d == 2:
        return 2 * (L - 1) * (L - 2)
    if d == 3:
        return 6 * (L - 1) * (3 * (L - 2) ** 2 + 6 * (L - 2) + 2)
    raise ValueError("lattice dimension must be 2 or 3")


def expected_dominoes(L: int, d: int, p: float) -> float:
    """Expected count of fully-present dominoes on a bond-percolated lattice."""
    return domino_positions(L, d) * p**7


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class ThresholdReport:
    model: str
    gamma_disconnect: Optional[Fraction]  # er only
    gamma_frustrate: Optional[Fraction]  # er only; None on er = unbounded (q2 = 0)
    decouple_condition: Optional[float]  # 2*gamma*qinf - ln(2*gamma), er only, needs gamma
    p_c: Optional[float]
    p_fin: Optional[float]
    domino_scale: Optional[float]  # n^(-1/7) marker, needs n
    domino_presence: Optional[float]  # p^7, needs p


def thresholds(
    dist: FactorDistribution,
    model: str = "er",
    n: Optional[int] = None,
    gamma: Optional[float] = None,
    p: Optional[float] = None,
) -> ThresholdReport:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "er" and (n is not None or p is not None):
        raise ValueError(f"the er model reads no n and no p, got n={n!r}, p={p!r}")
    if model != "er" and gamma is not None:
        raise ValueError(f"the {model} model reads no gamma, got gamma={gamma!r}")
    if n is not None and n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if p is not None and not 0 <= p <= 1:
        raise ValueError(f"p must be a probability in [0, 1], got {p!r}")
    fn = functionals(dist)
    # the density thresholds are ER constants; only er reaches here with gamma
    er = model == "er"
    disconnect = Fraction(1, 2) if er else None
    frustrate = 1 / (2 * fn.q2) if er and fn.q2 else None
    cond = None
    if gamma is not None:
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        # 2 * gamma overflows above about 9e307, where its log is taken as a
        # sum; gamma * (2 * qinf) is the float 2 * gamma * qinf would be, inf
        # only where the product is too large for one
        twice = 2.0 * gamma
        log_twice = math.log(twice) if twice < math.inf else math.log(2.0) + math.log(gamma)
        cond = gamma * (2.0 * float(fn.qinf)) - log_twice
    p_c = {"er": None, "lat2": 0.5, "lat3": 0.24881}[model]
    p_fin = {"er": None, "lat2": 0.5, "lat3": None}[model]
    # only lattices reach here with n or p
    scale = None if n is None else float(n) ** (-1.0 / 7.0)
    presence = None if p is None else p**7
    return ThresholdReport(
        model=model,
        gamma_disconnect=disconnect,
        gamma_frustrate=frustrate,
        decouple_condition=cond,
        p_c=p_c,
        p_fin=p_fin,
        domino_scale=scale,
        domino_presence=presence,
    )
