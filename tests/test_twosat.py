from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsat2.twosat import TwoSatEngine, literal_graph, solve

from oracles import (
    UnionFind,
    brute_force_kernel_assignment,
    reference_closure,
    reference_pinned_to,
    reference_solve,
)


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


def _assert_witness(states, edges):
    # None means no kernel state at all, so it satisfies no clause
    for u, v, h, j in edges:
        assert states[u] == h or states[v] == j, (u, v, h, j)


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_solve_matches_brute_force(sys_):
    n, f, edges = sys_
    ref = brute_force_kernel_assignment(n, edges, f)
    clashing = solve(edges)
    assert bool(clashing) == (ref is None)
    assert reference_solve(n, edges)[1] == clashing
    # a component clashes exactly when its own edges are unsatisfiable
    uf = UnionFind(n)
    for u, v, _, _ in edges:
        uf.union(u, v)
    for root in {uf.find(v) for v in range(n)}:
        own = [e for e in edges if uf.find(e[0]) == root]
        unsat = brute_force_kernel_assignment(n, own, f) is None
        assert unsat == any(uf.find(v) == root for v in clashing), root


@st.composite
def larger_systems(draw):
    n = draw(st.integers(1, 40))
    f = draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    chosen = sorted(draw(st.permutations(pairs))[: draw(st.integers(0, min(60, len(pairs))))])
    edges = [
        (u, v, draw(st.integers(0, f - 1)), draw(st.integers(0, f - 1))) for u, v in chosen
    ]
    return n, edges


@settings(max_examples=200, deadline=None)
@given(larger_systems())
def test_solve_matches_reference_solve(sys_):
    n, edges = sys_
    clashing = solve(edges)
    ref, ref_clashing = reference_solve(n, edges)
    assert clashing == ref_clashing
    assert (ref is None) == bool(clashing)
    if ref is not None:
        _assert_witness(ref, edges)


def _satisfying(n, f, edges):
    """Every satisfying assignment; value f means no kernel state at all."""
    return [
        assign
        for assign in product(range(f + 1), repeat=n)
        if all(assign[u] == h or assign[v] == j for u, v, h, j in edges)
    ]


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.booleans())
def test_queries_match_brute_force(sys_, freeze_backbone):
    n, f, edges = sys_
    sats = _satisfying(n, f, edges)
    assume(sats)
    eng = TwoSatEngine(n)
    for e in edges:
        eng.add_edge(*e)
    if freeze_backbone:
        for v, s in enumerate(sats[0]):
            if s < f and all(a[v] == s for a in sats):
                eng.freeze(v, s)
    for u in range(n):
        for k in range(f):
            assert eng.feasible(u, k) is any(a[u] == k for a in sats), (u, k)
            assert eng.pinned_to(u, k) is all(a[u] == k for a in sats), (u, k)


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.data())
def test_closure_is_the_newly_forced_states(sys_, data):
    # with the backbone frozen, a closure is None exactly when no satisfying
    # assignment extends its starts, and otherwise it is every unfrozen state
    # that all the extensions share
    n, f, edges = sys_
    sats = _satisfying(n, f, edges)
    assume(sats)
    eng = TwoSatEngine(n)
    for e in edges:
        eng.add_edge(*e)
    for v, s in enumerate(sats[0]):
        if s < f and all(a[v] == s for a in sats):
            eng.freeze(v, s)
    state = st.tuples(st.integers(0, n - 1), st.integers(0, f - 1))
    pairs = data.draw(st.lists(st.lists(state, min_size=2, max_size=2), max_size=4))
    for starts in [[(u, k)] for u in range(n) for k in range(f)] + pairs:
        ext = [a for a in sats if all(a[u] == k for u, k in starts)]
        got = eng.closure(starts)
        if not ext:
            assert got is None, starts
            continue
        forced = {
            v: ext[0][v]
            for v in range(n)
            if eng.frozen[v] < 0 and ext[0][v] < f and all(a[v] == ext[0][v] for a in ext)
        }
        assert got == forced, starts


def _assert_model(eng, edges):
    # a satisfying assignment of every clause so far, -1 for no kernel
    # state, that agrees with every frozen state
    model = eng.model
    assert model is not None
    for u, v, h, j in edges:
        assert model[u] == h or model[v] == j, (u, v, h, j)
    for v, s in enumerate(eng.frozen):
        if s >= 0:
            assert model[v] == s, v


@settings(max_examples=200, deadline=None)
@given(small_systems(), st.data())
def test_model_is_kept_while_the_engine_grows(sys_, data):
    n, f, edges = sys_
    edges = data.draw(st.permutations(edges))
    eng = TwoSatEngine(n)
    assert eng.model == [-1] * n
    state = st.tuples(st.integers(0, n - 1), st.integers(0, f - 1))
    for i, e in enumerate(edges):
        eng.add_edge(*e)
        sats = _satisfying(n, f, edges[: i + 1])
        if not sats:
            # the clauses are unsatisfiable: the model is dropped for good,
            # and the full searches still answer as stand-alone BFSs do
            assert eng.model is None
            for u in range(n):
                for k in range(f):
                    assert eng.pinned_to(u, k) is reference_pinned_to(eng, u, k), (u, k)
                    starts = [(u, k)]
                    assert eng.closure(starts) == reference_closure(eng.incident, eng.frozen, starts)
            continue
        _assert_model(eng, edges[: i + 1])
        for u, k in data.draw(st.lists(state, max_size=4)):
            want = any(a[u] == k for a in sats)
            assert eng.feasible(u, k) is want, (u, k)
            _assert_model(eng, edges[: i + 1])
            if want:
                assert eng.model[u] == k
        if data.draw(st.booleans()):
            # freeze one backbone state, as the sampler freezes entailed ones
            backbone = [(v, s) for v, s in enumerate(sats[0]) if s < f and all(a[v] == s for a in sats)]
            if backbone:
                eng.freeze(*data.draw(st.sampled_from(backbone)))
                _assert_model(eng, edges[: i + 1])


def test_add_edge_moves_the_model_onto_a_failed_clause():
    eng = TwoSatEngine(3)
    eng.add_edge(0, 1, 0, 0)
    assert eng.model == [0, -1, -1]  # the first side is feasible
    eng.add_edge(0, 1, 0, 1)  # the model meets this one already
    assert eng.model == [0, -1, -1]
    # x[0,1] would need 1 in states 0 and 1, so the second side moves
    eng.add_edge(0, 2, 1, 0)
    assert eng.model == [0, -1, 0]
    # x[1,1] forces 0 into state 0, where the model has it already
    eng.add_edge(1, 2, 1, 1)
    assert eng.model == [0, 1, 0]
    # a move that carries a neighbour with it
    eng = TwoSatEngine(2)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(0, 1, 1, 1)
    assert eng.model == [1, 0]


def test_add_edge_drops_the_model_once_unsatisfiable():
    # two vertices, f=2: the four edges demand every pairing at once
    eng = TwoSatEngine(2)
    for e in [(0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1)]:
        eng.add_edge(*e)
        assert eng.model is not None
    eng.add_edge(0, 1, 1, 0)
    assert eng.model is None
    assert eng.closure([(0, 0)]) is None and eng.closure([(1, 1)]) is None
    assert eng.pinned_to(0, 0) is reference_pinned_to(eng, 0, 0)


def test_an_engine_over_a_fixed_index_has_no_model():
    eng = TwoSatEngine(2, [[(1, 0, 0)], [(0, 0, 0)]])
    assert eng.model is None
    assert eng.feasible(0, 1) is True


def test_closure_is_a_copy_that_outlives_the_next_search():
    eng = TwoSatEngine(4)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(2, 3, 0, 0)
    first = eng.closure([(0, 1)])
    assert eng.closure([(2, 1)]) == {2: 1, 3: 0}
    assert first == {0: 1, 1: 0}


def test_queries_on_a_long_chain():
    # edges (i, i+1, 1, 0) pass state 0 down the chain, and the closing edge
    # (n-1, 0, 1, 1) sends it back to vertex 0 as state 1, so both queries
    # below walk all n vertices before they meet the conflict
    n = 3000
    edges = [(i, i + 1, 1, 0) for i in range(n - 1)] + [(n - 1, 0, 1, 1)]
    eng = TwoSatEngine(n)
    for e in edges:
        eng.add_edge(*e)
    assert solve(edges) == []

    def forced(u, k):
        # unless u takes state k, these two edges need the fresh vertex n in
        # states 0 and 1 at once
        extra = [(u, n, k, 0), (u, n, k, 1)]
        return not solve(edges + extra)

    assert eng.feasible(0, 0) is False
    assert eng.pinned_to(0, 1) is True
    for u in (0, 1, n // 2, n - 1):
        for k in (0, 1):
            assert eng.feasible(u, k) is forced(u, k), (u, k)
            assert eng.pinned_to(u, k) is reference_pinned_to(eng, u, k), (u, k)


def test_feasible_and_pinned():
    eng = TwoSatEngine(3)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(1, 2, 1, 0)
    # vertex 1 in state 0 satisfies the first edge; the second forces 2 -> 0
    assert eng.feasible(1, 0) is True
    assert eng.feasible(1, 1) is True
    assert eng.pinned_to(1, 0) is False


def test_pinned_after_conflict_chain():
    eng = TwoSatEngine(2)
    eng.add_edge(0, 1, 0, 0)
    eng.add_edge(0, 1, 0, 1)
    # leaving state 0 at vertex 0 would demand vertex 1 in states 0 and 1 at
    # once, so vertex 0 is pinned
    assert eng.pinned_to(0, 0) is True
    assert eng.pinned_to(1, 0) is False
    assert solve([(0, 1, 0, 0), (0, 1, 0, 1)]) == []


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.data())
def test_pinned_to_matches_reference_bfs(sys_, data):
    # any frozen cache, entailed or not: both walks read it the same way
    n, f, edges = sys_
    eng = TwoSatEngine(n)
    for e in edges:
        eng.add_edge(*e)
    eng.frozen = data.draw(st.lists(st.integers(-1, f - 1), min_size=n, max_size=n))
    for u in range(n):
        for k in range(f):
            assert eng.pinned_to(u, k) is reference_pinned_to(eng, u, k), (u, k)


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


def test_solve_names_the_clashing_vertices_on_unsat():
    # two vertices, f=2: the four edges demand every pairing at once
    edges = [(0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)]
    assert solve(edges) == [0, 1]


@settings(max_examples=200, deadline=None)
@given(larger_systems())
def test_literal_graph_variables_and_witness(sys_):
    n, edges = sys_
    vert, state, labels = literal_graph(edges)
    # one variable per side of an edge, ascending by (vertex, state)
    sides = sorted({(u, h) for u, _, h, _ in edges} | {(v, j) for _, v, _, j in edges})
    assert list(zip(vert.tolist(), state.tolist())) == sides
    assert len(labels) == 2 * len(sides)
    pos, neg = labels[0::2], labels[1::2]
    if (pos == neg).any():
        return
    # scipy numbers the SCCs in reverse topological order, so x is true in
    # a model when its label is below its negation's; the backbone probes
    # read that model for their order, and would only run slower without it
    states = [None] * n
    for v, h in zip(vert[pos < neg].tolist(), state[pos < neg].tolist()):
        assert states[v] is None
        states[v] = h
    _assert_witness(states, edges)
