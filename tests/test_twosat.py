from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsat2.twosat import TwoSatEngine, solve_edges

from oracles import brute_force_kernel_assignment, reference_pinned_to


@st.composite
def small_systems(draw):
    n = draw(st.integers(2, 6))
    f = draw(st.integers(1, 3))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(0, min(10, len(pairs))))
    chosen = draw(st.permutations(pairs))[:m]
    edges = [
        (u, v, draw(st.integers(0, f - 1)), draw(st.integers(0, f - 1)))
        for u, v in sorted(chosen)
    ]
    return n, f, edges


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_solve_matches_brute_force(sys_):
    n, f, edges = sys_
    ref = brute_force_kernel_assignment(n, edges, f)
    got = solve_edges(n, edges)
    assert (got is not None) == (ref is not None)
    if got is not None:
        # every constrained vertex carries a concrete state; frees stay None
        for u, v, h, j in edges:
            su = got[u] if got[u] is not None else h
            sv = got[v] if got[v] is not None else j
            assert su == h or sv == j


@settings(max_examples=100, deadline=None)
@given(small_systems(), st.data())
def test_units_match_brute_force(sys_, data):
    n, f, edges = sys_
    units = [
        (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, f - 1)))
        for _ in range(data.draw(st.integers(1, 2)))
    ]
    got = solve_edges(n, edges, units=units)
    ref = None
    for assign in _assignments(n, f):
        if all(assign[u] == s for u, s in units) and all(
            assign[u] == h or assign[v] == j for u, v, h, j in edges
        ):
            ref = assign
            break
    assert (got is not None) == (ref is not None)


def _assignments(n, f):
    from itertools import product

    return product(range(f), repeat=n)


def test_feasible_and_pinned():
    eng = TwoSatEngine(3)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(1, 2, 1, 0)
    # vertex 1 in state 0 satisfies the first edge; the second forces 2 -> 0
    assert eng.feasible(1, 0, cap=100) is True
    assert eng.feasible(1, 1, cap=100) is True
    assert eng.pinned_to(1, 0, cap=100) is False


def test_pinned_after_conflict_chain():
    eng = TwoSatEngine(2)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(0, 1, 0, 1)
    # leaving state 0 at vertex 0 would demand vertex 1 in states 0 and 1 at
    # once, so vertex 0 is pinned
    assert eng.pinned_to(0, 0, cap=100) is True
    assert eng.pinned_to(1, 0, cap=100) is False
    assert solve_edges(2, [(0, 1, 0, 0), (0, 1, 0, 1)]) is not None


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.data())
def test_pinned_to_matches_reference_bfs(sys_, data):
    # any frozen cache, entailed or not: both walks read it the same way
    n, f, edges = sys_
    eng = TwoSatEngine(n)
    for e in edges:
        eng.add_edge(*e)
    eng.frozen = data.draw(st.lists(st.none() | st.integers(0, f - 1), min_size=n, max_size=n))
    cap = data.draw(st.integers(0, n))
    for u in range(n):
        for k in range(f):
            full = eng.pinned_to(u, k)
            assert full is not None
            assert full == reference_pinned_to(eng, u, k), (u, k)
            assert eng.pinned_to(u, k, cap=cap) in (None, full), (u, k, cap)


def test_freeze_propagates():
    eng = TwoSatEngine(3)
    eng.add_edge(0, 1, 0, 1)
    eng.add_edge(1, 2, 0, 1)
    eng.freeze(0, 1)  # vertex 0 held away from factor 0: forces 1 -> 1? no:
    # edge (0,1,0,1): 0 frozen in state 1 != 0, so 1 must take state 1
    assert eng.frozen[0] == 1
    assert eng.frozen[1] == 1
    # edge (1,2,0,1): 1 frozen in 1 != 0 forces 2 -> 1
    assert eng.frozen[2] == 1


def test_freeze_rejects_contradiction():
    eng = TwoSatEngine(2)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(0, 1, 1, 1)
    # 0 in state 0 violates edge 2 unless 1 is in state 1; 0 in state 1
    # violates edge 1 unless 1 is in state 0: freezing 0 either way is fine,
    # but freezing both endpoints against both edges must fail
    eng.freeze(0, 0)
    with pytest.raises(AssertionError):
        eng.freeze(1, 0)


def test_solve_none_on_unsat():
    # two vertices, f=1: both edges demand the impossible pairing
    edges = [(0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)]
    assert solve_edges(2, edges) is None
