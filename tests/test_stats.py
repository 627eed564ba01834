import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from qsat2.graphs import enumerate_dominoes, sample_lattice
from qsat2.instances import FactorDistribution
from qsat2.stats import (
    distinct_triple_probability,
    domino_frustration_probability,
    domino_positions,
    expected_dominoes,
    expected_figure_eights,
    functionals,
    giant_fraction,
    residual_density,
    thresholds,
    xi,
)

from oracles import chain_survival_bruteforce, qcrux_bruteforce, xi_series


@st.composite
def distributions(draw):
    f = draw(st.integers(1, 5))
    ws = sorted(
        (draw(st.integers(1, 9)) for _ in range(f)),
        reverse=True,
    )
    return FactorDistribution.from_weights([Fraction(w) for w in ws])


# --- functionals -------------------------------------------------------------


def test_uniform_functionals():
    fn2 = functionals(FactorDistribution.uniform(2))
    assert fn2.q2 == Fraction(1, 2)
    assert fn2.qinf == Fraction(1, 2)
    assert fn2.qcrux == Fraction(1, 8)
    assert fn2.qjunct == Fraction(1, 4)
    fn3 = functionals(FactorDistribution.uniform(3))
    assert fn3.q2 == Fraction(2, 3)
    assert fn3.qcrux == Fraction(2, 9)
    fn1 = functionals(FactorDistribution.uniform(1))
    assert fn1.q2 == 0 and fn1.qinf == 0 and fn1.qcrux == 0


@pytest.mark.parametrize(
    "weights", [[1], [1, 1], [2, 1], [1, 1, 1], [3, 2, 1], [1, 1, 1, 1], [4, 3, 2, 1]]
)
def test_chain_survival_matches_brute_force(weights):
    # criterion 2's closed form: each of the ell - 1 junctions of a path of
    # ell edges survives independently with probability Q2
    dist = FactorDistribution.from_weights([Fraction(w) for w in weights])
    q2 = functionals(dist).q2
    for ell in range(1, 5):
        assert chain_survival_bruteforce(dist.q, ell) == q2 ** (ell - 1), ell


@given(distributions())
def test_qcrux_matches_brute_force(dist):
    assert functionals(dist).qcrux == qcrux_bruteforce(dist.q)


@given(distributions())
def test_norm_identities(dist):
    fn = functionals(dist)
    assert fn.norm2_sq == sum(q * q for q in dist.q)
    assert fn.norm3_cu == sum(q**3 for q in dist.q)
    assert fn.norm4_qu == sum(q**4 for q in dist.q)
    assert fn.norm_inf == max(dist.q)
    assert fn.q2 == 1 - fn.norm2_sq
    assert fn.qinf == 1 - fn.norm_inf
    assert fn.qjunct == fn.norm2_sq - fn.norm3_cu
    assert 0 <= fn.qcrux <= 1


@given(distributions())
def test_distinct_triple_probability(dist):
    # brute force over ordered triples
    f = dist.f
    total = Fraction(0)
    for a in range(f):
        for b in range(f):
            for c in range(f):
                if a != b and b != c and a != c:
                    total += dist.q[a] * dist.q[b] * dist.q[c]
    assert distinct_triple_probability(dist) == total


# --- xi ----------------------------------------------------------------------


def test_xi_basic_shape():
    assert xi(0.0) == 0.0
    assert xi(0.25) == 0.5
    assert xi(0.5) == 1.0
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            xi(bad)
    assert xi(1e308) == 0.0  # 2*rho overflows, exp(-2*rho) is already 0
    assert 0 < xi(0.8) < 1
    assert xi(3.0) < xi(1.0)


def test_xi_fixed_point_residual():
    for i in range(51, 301, 3):
        rho = i / 100
        x = xi(rho)
        res = abs(x * math.exp(-x) - 2 * rho * math.exp(-2 * rho))
        assert res < 1e-12, (rho, res)


def test_xi_matches_lambertw():
    for i in range(51, 301, 7):
        rho = i / 100
        ref = -float(lambertw(-2 * rho * math.exp(-2 * rho)).real)
        assert abs(xi(rho) - ref) < 1e-9


def test_xi_matches_series_near_half():
    # the series slows to ~k^(-3/2) at rho = 1/2 exactly, so probe just off
    # the knee on both sides
    for rho in (0.4, 0.45, 0.55, 0.6, 1.0, 2.0):
        assert abs(xi(rho) - xi_series(rho)) < 1e-8, rho


def test_giant_fraction():
    assert giant_fraction(0.3) == 0.0
    assert giant_fraction(0.5) == 0.0
    g = giant_fraction(1.0)
    # classic giant-component size at mean degree 2: 1 - xi(1)/2 ~ 0.7968
    assert abs(g - 0.7968121300200202) < 1e-9
    assert giant_fraction(3.0) > g


def test_residual_density():
    qinf = 0.5
    # below the decoupling knee the residual keeps the full density
    for gamma in (0.2, 0.6, 1.0):
        if gamma * qinf <= 0.5:
            assert residual_density(gamma, qinf) == pytest.approx(gamma)
    # above it the residual thins out and respects the closed-form bound
    for gamma in (1.2, 1.8, 2.5, 4.0):
        rd = residual_density(gamma, qinf)
        assert 0 < rd < gamma
        assert rd <= gamma * math.exp(1 - 2 * gamma * qinf) + 1e-12
    with pytest.raises(ValueError):
        residual_density(-1.0, 0.5)
    with pytest.raises(ValueError):
        residual_density(1.0, 1.5)


def test_residual_density_formula():
    gamma, qinf = 2.0, 0.75
    x = xi(gamma * qinf)
    expected = 0.5 * x + (1 - qinf) / (4 * gamma * qinf**2) * x * x
    assert residual_density(gamma, qinf) == pytest.approx(expected, rel=1e-12)


# --- figure-eight counts ------------------------------------------------------


def test_expected_figure_eights_frozen_value():
    d = FactorDistribution.uniform(3)
    val = expected_figure_eights(60, 90, 3, d)
    assert isinstance(val, Fraction)
    assert float(val) == pytest.approx(0.05287167882112524, rel=1e-12)


def test_expected_figure_eights_edge_cases():
    d = FactorDistribution.uniform(3)
    assert expected_figure_eights(60, 5, 3, d) == 0  # m < 2*ell
    assert expected_figure_eights(60, 90, 3, FactorDistribution.uniform(2)) > 0
    with pytest.raises(ValueError):
        expected_figure_eights(60, 90, 2, d)
    with pytest.raises(ValueError):
        expected_figure_eights(4, 90, 3, d)  # needs 2*ell - 1 vertices


def test_expected_figure_eights_f1_vanishes():
    # a single factor kills every junction
    assert expected_figure_eights(60, 90, 3, FactorDistribution.uniform(1)) == 0


# --- dominoes -----------------------------------------------------------------


def test_domino_positions_match_enumeration():
    for d, L in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        g = sample_lattice(d, L, 1.0, seed=0)
        assert domino_positions(L, d) == len(enumerate_dominoes(g)), (d, L)


def test_domino_positions_closed_forms():
    assert domino_positions(4, 2) == 2 * 3 * 2
    assert domino_positions(60, 2) == 2 * 59 * 58
    assert domino_positions(3, 3) == 132
    assert domino_positions(2, 3) == 12


def test_expected_dominoes():
    assert expected_dominoes(60, 2, 0.3) == pytest.approx(2 * 59 * 58 * 0.3**7)
    assert expected_dominoes(3, 3, 1.0) == 132


def test_domino_frustration_probability():
    assert domino_frustration_probability(FactorDistribution.uniform(2)) == 0
    p3 = domino_frustration_probability(FactorDistribution.uniform(3))
    assert p3 == Fraction(64, 6561)
    # q2^4 * P[three distinct]^2
    d = FactorDistribution.uniform(4)
    fn = functionals(d)
    assert domino_frustration_probability(d) == fn.q2**4 * distinct_triple_probability(d) ** 2


# --- thresholds ----------------------------------------------------------------


def test_thresholds_er():
    d = FactorDistribution.uniform(2)
    rep = thresholds(d, model="er", gamma=1.4)
    assert rep.gamma_disconnect == Fraction(1, 2)
    assert rep.gamma_frustrate == Fraction(1)  # 1 / (2 * 1/2)
    assert rep.decouple_condition == pytest.approx(2 * 1.4 * 0.5 - math.log(2 * 1.4))
    assert rep.p_c is None and rep.p_fin is None

    rep4 = thresholds(FactorDistribution.uniform(4), model="er", gamma=2.5)
    assert rep4.gamma_frustrate == Fraction(2, 3)  # 1/(2 * 3/4)
    assert rep4.decouple_condition == pytest.approx(2 * 2.5 * 0.75 - math.log(5))
    assert rep4.decouple_condition > 1

    rep1 = thresholds(FactorDistribution.uniform(1), model="er")
    assert rep1.gamma_frustrate is None  # Q2 = 0: no frustration at any density


def test_decouple_condition_keeps_its_closed_form_bits():
    for f in (1, 2, 3, 4, 7):
        qinf = float(functionals(FactorDistribution.uniform(f)).qinf)
        for gamma in (1e-300, 0.3, 1.4, 2.5, 1e10, 8.9e307):
            rep = thresholds(FactorDistribution.uniform(f), gamma=gamma)
            assert rep.decouple_condition == 2.0 * gamma * qinf - math.log(2.0 * gamma)


def test_thresholds_lattice():
    d = FactorDistribution.uniform(3)
    rep2 = thresholds(d, model="lat2", p=0.3)
    assert rep2.p_c == pytest.approx(0.5)
    assert rep2.p_fin == pytest.approx(0.5)
    assert rep2.domino_presence == pytest.approx(0.3**7)
    rep3 = thresholds(d, model="lat3", p=0.3)
    assert rep3.p_c == pytest.approx(0.24881)
    assert rep3.p_fin is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=-8),
        dict(p=2.0),
        dict(p=-1.0),
        dict(p=math.nan),
        dict(model="er", gamma=math.nan),
        dict(model="er", gamma=math.inf),
        dict(model="er", gamma=0.0),
    ],
)
def test_thresholds_reject_values_outside_their_domain(kwargs):
    with pytest.raises(ValueError, match="must be"):
        thresholds(FactorDistribution.uniform(2), **{"model": "lat2", **kwargs})


@pytest.mark.parametrize("kwargs", [dict(n=4000), dict(p=0.3), dict(n=4000, p=0.3)])
def test_thresholds_er_refuses_n_and_p(kwargs):
    # the er thresholds read neither a lattice size nor a bond probability
    with pytest.raises(ValueError, match="er model reads no n and no p"):
        thresholds(FactorDistribution.uniform(2), model="er", gamma=1.4, **kwargs)


@pytest.mark.parametrize("model", ["lat2", "lat3"])
def test_thresholds_lattice_refuses_gamma(model):
    # gamma is an ER edge density; a lattice reads L and p
    with pytest.raises(ValueError, match=f"{model} model reads no gamma"):
        thresholds(FactorDistribution.uniform(4), model=model, gamma=2.5)


@pytest.mark.parametrize("model", ["lat2", "lat3"])
def test_thresholds_lattice_has_no_er_density_thresholds(model):
    rep = thresholds(FactorDistribution.uniform(4), model=model, p=0.3)
    assert rep.gamma_disconnect is None
    assert rep.gamma_frustrate is None
    assert rep.decouple_condition is None


def test_threshold_scaling_markers():
    d = FactorDistribution.uniform(2)
    rep = thresholds(d, model="lat2", n=4000, p=0.2)
    assert rep.domino_scale == pytest.approx(4000 ** (-1 / 7))
