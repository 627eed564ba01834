import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsat2.exactq import GaussianRational, bra

from oracles import (
    BraConstraint,
    ProductConstraint,
    bra_vec,
    chain_constraint,
    dense_chain,
    dense_induce,
    induce,
    proportional_tensors,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
gqs = st.builds(GaussianRational, fractions, fractions)


@st.composite
def bra_states(draw):
    c0 = draw(gqs)
    c1 = draw(gqs)
    if c0.is_zero() and c1.is_zero():
        c0 = GaussianRational.of(1)
    return bra(c0, c1)


@given(bra_states(), bra_states(), bra_states(), bra_states())
def test_induce_matches_dense_contraction(b1, g1, b2, g2):
    got = induce(BraConstraint(0, 1, b1, g1), BraConstraint(1, 2, b2, g2))
    T = dense_induce(b1, g1, b2, g2)
    if got is None:
        assert np.allclose(T, 0, atol=1e-9)
    else:
        ref = np.outer(bra_vec(got.left), bra_vec(got.right))
        assert proportional_tensors(T, ref)


@given(bra_states(), bra_states(), bra_states())
def test_induce_dies_iff_middle_proportional(b, g, g2):
    got = induce(BraConstraint(0, 1, b, g), BraConstraint(1, 2, g, g2))
    assert got is None
    got2 = induce(BraConstraint(0, 1, b, bra(1, 0)), BraConstraint(1, 2, bra(0, 1), g2))
    assert got2 is not None and got2.left == b and got2.right == g2


def test_induce_requires_shared_qubit():
    c = BraConstraint(0, 1, bra(1, 0), bra(0, 1))
    with pytest.raises(ValueError):
        induce(c, BraConstraint(2, 3, bra(1, 0), bra(0, 1)))


@settings(max_examples=60)
@given(st.lists(st.tuples(bra_states(), bra_states()), min_size=1, max_size=6))
def test_chain_matches_dense_fold(pairs):
    cons = [BraConstraint(i, i + 1, b, g) for i, (b, g) in enumerate(pairs)]
    got = chain_constraint(cons, path=list(range(len(pairs) + 1)))
    T = dense_chain(pairs)
    if got is None:
        assert np.allclose(T, 0, atol=1e-7)
    else:
        ref = np.outer(bra_vec(got.left), bra_vec(got.right))
        assert proportional_tensors(T, ref, tol=1e-7)


@settings(max_examples=40)
@given(st.lists(st.tuples(bra_states(), bra_states()), min_size=2, max_size=6))
def test_chain_fold_is_associative(pairs):
    cons = [BraConstraint(i, i + 1, b, g) for i, (b, g) in enumerate(pairs)]
    left = chain_constraint(cons)
    # fold the tail first, then attach the head
    tail = chain_constraint(cons[1:])
    right = None if tail is None else induce(cons[0], tail)
    assert left == right


def test_chain_alive_iff_no_junction_dies():
    b0, b1 = bra(1, 0), bra(0, 1)
    alive = [
        BraConstraint(0, 1, b0, b0),
        BraConstraint(1, 2, b1, b1),
        BraConstraint(2, 3, b0, b0),
    ]
    got = chain_constraint(alive)
    assert got == BraConstraint(0, 3, b0, b0)
    dead = [BraConstraint(0, 1, b0, b1), BraConstraint(1, 2, b1, b0)]
    assert chain_constraint(dead) is None


def test_chain_path_validation():
    cons = [BraConstraint(0, 1, bra(1, 0), bra(0, 1))]
    with pytest.raises(ValueError):
        chain_constraint(cons, path=[0, 1, 2])
    with pytest.raises(ValueError):
        chain_constraint(cons, path=[1, 0])
    with pytest.raises(ValueError):
        chain_constraint([])


def test_realize_looks_up_factor_table():
    table = [bra(1, 0), bra(0, 1), bra(1, 1)]
    pc = ProductConstraint(3, 7, 2, 0)
    rc = pc.realize(table)
    assert rc == BraConstraint(3, 7, bra(1, 1), bra(1, 0))
