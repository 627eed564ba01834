from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsat2.exactq import (
    GQ_ONE,
    GQ_ZERO,
    BraState,
    GaussianRational,
    bra,
    parse_bra,
    parse_gq,
)

from oracles import kernel_ket

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
gqs = st.builds(GaussianRational, fractions, fractions)
nonzero_gqs = gqs.filter(lambda z: not z.is_zero())


def to_complex(z: GaussianRational) -> complex:
    return float(z.re) + 1j * float(z.im)


@given(gqs, gqs)
def test_field_ops_match_complex(a, b):
    assert to_complex(a + b) == pytest.approx(to_complex(a) + to_complex(b))
    assert to_complex(a - b) == pytest.approx(to_complex(a) - to_complex(b))
    assert to_complex(a * b) == pytest.approx(to_complex(a) * to_complex(b))
    assert to_complex(-a) == pytest.approx(-to_complex(a))


@given(nonzero_gqs)
def test_inverse(z):
    assert z * z.inverse() == GQ_ONE
    assert z.inverse().inverse() == z


@given(gqs, nonzero_gqs)
def test_division(a, b):
    assert (a / b) * b == a


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        GQ_ZERO.inverse()


@given(gqs)
def test_render_parse_round_trip(z):
    assert parse_gq(z.render()) == z


@pytest.mark.parametrize("text", ["", "1/2", "1/2+i", "1/0+1/1i", "a/b+c/di", "1/2+1/0i"])
def test_parse_gq_rejects(text):
    with pytest.raises(ValueError):
        parse_gq(text)


def test_canonical_bra_leading_one():
    b = bra(GaussianRational.of(Fraction(2, 3)), GaussianRational.of(0, 4))
    assert b.c0 == GQ_ONE
    b2 = bra(0, GaussianRational.of(Fraction(-5, 7)))
    assert b2.c0 == GQ_ZERO and b2.c1 == GQ_ONE


def test_zero_bra_rejected():
    with pytest.raises(ValueError):
        bra(0, 0)


@given(nonzero_gqs, gqs, nonzero_gqs)
def test_proportional_is_scale_invariant(c0, c1, scale):
    # canonical form makes projective equality structural
    assert bra(c0, c1) == bra(c0 * scale, c1 * scale)


def test_not_proportional():
    assert bra(1, 0) != bra(0, 1)
    assert bra(1, 1) != bra(1, 2)


@given(nonzero_gqs, gqs)
def test_kernel_ket_annihilates(c0, c1):
    b = bra(c0, c1)
    k = kernel_ket(b)
    # <b|k> = b0*k0 + b1*k1 must vanish
    assert (b.c0 * k.c0 + b.c1 * k.c1).is_zero()


def test_kernel_ket_examples():
    assert kernel_ket(bra(1, 0)) == bra(0, 1)
    assert kernel_ket(bra(1, 1)) == bra(-1, 1)


@given(nonzero_gqs, gqs)
def test_bra_render_parse_round_trip(c0, c1):
    b = bra(c0, c1)
    assert parse_bra(b.render()) == b


def test_parse_bra_rejects():
    for text in ["", "(1/1+0/1i)", "1/1+0/1i,0/1+0/1i", "(x,y)"]:
        with pytest.raises(ValueError):
            parse_bra(text)
