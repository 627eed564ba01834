import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsat2.counting as counting
from qsat2.counting import (
    MOD_PRIMES,
    ComponentCapError,
    _ModField,
    _PrimeClash,
    check_component_cap,
    component_value,
    decomposition_value,
    instance_value,
    product_tree,
)
from qsat2.exactq import GQ_ZERO, bra
from qsat2.graphs import Graph, components, label_groups, sample_er_graph
from qsat2.instances import FactorDistribution, Instance, sample_instance, satisfiable
from qsat2.structure import decouple
from qsat2.sweep import generate_instance

from oracles import (
    block_rows,
    constraint_blocks,
    dense_component_value,
    dense_instance_value,
    diagonal_count,
    exact_rank,
    highest_degree_split_value,
    kernel_basis,
    raw_instance_value,
    reference_component_rank,
    reference_constraint_rows,
    reference_kernel_basis,
    verified_rank,
)


def inst_of(n, edges, pairs, f):
    return Instance(Graph(n, tuple(edges)), tuple(pairs), FactorDistribution.uniform(f), "any", 0, 0)


# --- fixed small cases: values worked out by the dense oracle -------------


def test_empty_graph_value_is_power_of_two():
    inst = inst_of(3, (), (), 2)
    assert instance_value(inst) == 8
    big = inst_of(500, (), (), 2)
    assert instance_value(big) == 2**500


def test_single_edge():
    inst = inst_of(2, [(0, 1)], [(0, 1)], 2)
    # one rank-1 constraint on 2 qubits
    assert instance_value(inst) == 3
    assert dense_instance_value(inst) == 3


def test_monotone_triangle():
    # h = j = same factor around a triangle
    inst = inst_of(3, [(0, 1), (0, 2), (1, 2)], [(0, 0), (0, 0), (0, 0)], 2)
    assert dense_instance_value(inst) == 4
    assert instance_value(inst) == 4


def test_path_of_three():
    inst = inst_of(3, [(0, 1), (1, 2)], [(0, 1), (0, 1)], 2)
    assert dense_instance_value(inst) == 4
    assert instance_value(inst) == 4


def test_star_k13():
    edges = [(0, 1), (0, 2), (0, 3)]
    inst = inst_of(4, edges, [(0, 1)] * 3, 2)
    assert dense_instance_value(inst) == 9
    assert instance_value(inst) == 9


def test_two_disjoint_edges():
    inst = inst_of(4, [(0, 1), (2, 3)], [(0, 1), (0, 1)], 2)
    assert dense_instance_value(inst) == 9
    assert instance_value(inst) == 9
    # and the per-component route gives 3 * 3
    assert component_value(inst, (0, 1)) == 3
    assert component_value(inst, (2, 3)) == 3
    # and one vertex set holding both parts
    assert component_value(inst, (0, 1, 2, 3)) == 9


def test_frustrated_instance_value_zero():
    inst = inst_of(2, [(0, 1)], [(0, 0)], 1)
    assert instance_value(inst) > 0
    # 4-cycle, edges in canonical order with factor pairs aligned
    g_edges = [(0, 1), (0, 3), (1, 2), (2, 3)]
    pairs = [(0, 1), (0, 1), (0, 1), (0, 1)]
    inst2 = inst_of(4, g_edges, pairs, 2)
    assert satisfiable(inst2) == (instance_value(inst2) > 0)


# --- randomised agreement with the dense oracle ---------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 7), st.integers(1, 3))
def test_value_matches_dense_oracle(seed, n, f):
    rng = random.Random(seed)
    m = rng.randint(0, min(10, n * (n - 1) // 2))
    g = sample_er_graph(n, m, seed=seed)
    inst = sample_instance(g, FactorDistribution.uniform(f), seed=seed + 1)
    assert instance_value(inst) == dense_instance_value(inst)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_modular_exact_and_dense_ranks_agree(seed):
    g = sample_er_graph(7, 9, seed=seed)
    inst = sample_instance(g, FactorDistribution.uniform(3), seed=seed)
    for comp in label_groups(components(g).labels):
        exact = exact_rank(inst, comp)
        verified = verified_rank(inst, comp)
        k = len(comp)
        dense = 2**k - dense_component_value(inst, comp)
        assert exact == verified == dense


def test_diagonal_instances_count_basis_states():
    # f=2 default factors are <0| and <1|: rows diagonal, value countable
    for seed in range(30):
        g = sample_er_graph(8, 10, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        assert instance_value(inst) == diagonal_count(inst)


def test_value_monotone_under_added_constraints():
    for seed in range(10):
        g = sample_er_graph(6, 8, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(3), seed=seed)
        sub = Instance(
            Graph(6, g.edges[:4]), inst.pairs[:4], inst.dist, "any", 0, 0
        )
        assert instance_value(sub) >= instance_value(inst)


def test_decoupled_value_equals_raw():
    for seed in range(20):
        g = sample_er_graph(10, 11, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        assert instance_value(inst) == raw_instance_value(inst)


# --- rows from the incident index against the full edge scan ---------------

# rows grow as 2^k per edge, so only components this small are compared
_ROWS_MAX_K = 10

_random_instances = given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 10**6),
)


def _random_instance(model, f, cond, seed):
    kw = dict(n=40, m=50) if model == "er" else dict(L=6, p=0.5)
    return generate_instance(model, FactorDistribution.uniform(f), seed, cond=cond, **kw)


@settings(max_examples=40, deadline=None)
@_random_instances
def test_constraint_rows_match_full_scan(model, f, cond, seed):
    inst = _random_instance(model, f, cond, seed)
    dec = decouple(inst)
    for comp in label_groups(dec.residual_labels):
        if len(comp) <= _ROWS_MAX_K:
            assert list(block_rows(constraint_blocks(inst, comp, dec.frozen))) == list(
                reference_constraint_rows(inst, comp, dec.frozen)
            )
    for comp in label_groups(dec.report.labels):
        if len(comp) <= _ROWS_MAX_K:
            assert list(block_rows(constraint_blocks(inst, comp))) == list(
                reference_constraint_rows(inst, comp)
            )


@settings(max_examples=40, deadline=None)
@_random_instances
def test_constraint_rows_reject_an_unfrozen_crossing(model, f, cond, seed):
    inst = _random_instance(model, f, cond, seed)
    dec = decouple(inst)
    small = [c for c in label_groups(dec.residual_labels) if 2 <= len(c) <= _ROWS_MAX_K]
    assume(small)
    inside = set(small[0])
    # a residual component is connected through unfrozen edges; cutting one
    # endpoint off leaves that edge crossing toward an unfrozen vertex
    cut = next(v for u, v in inst.graph.edges if u in inside and v in inside)
    part = sorted(inside - {cut})
    with pytest.raises(ValueError, match="crosses"):
        list(constraint_blocks(inst, part, dec.frozen))
    with pytest.raises(ValueError, match="crosses"):
        list(reference_constraint_rows(inst, part, dec.frozen))


# --- the block-wise rank against the row-by-row reference -----------------


def _ordered(basis):
    # key order too, so the comparison is byte-for-byte
    return [list(vec.items()) for vec in basis]


@settings(max_examples=40, deadline=None)
@_random_instances
def test_rank_and_kernel_match_row_by_row_reference(model, f, cond, seed):
    inst = _random_instance(model, f, cond, seed)
    dec = decouple(inst)
    for comp in label_groups(dec.residual_labels):
        if len(comp) <= _ROWS_MAX_K:
            ref = reference_component_rank(inst, comp, dec.frozen)
            assert verified_rank(inst, comp, dec.frozen) == ref
            assert exact_rank(inst, comp, dec.frozen) == ref
    for comp in label_groups(dec.report.labels):
        if len(comp) <= _ROWS_MAX_K:
            ref = reference_component_rank(inst, comp)
            assert verified_rank(inst, comp) == ref
            assert exact_rank(inst, comp) == ref
            assert _ordered(kernel_basis(inst, comp)) == _ordered(reference_kernel_basis(inst, comp))


def test_two_qubit_component_is_one_row():
    # non-diagonal factors (1,1) and (1,-1): all four entries are nonzero
    inst = inst_of(2, [(0, 1)], [(2, 3)], 4)
    blocks = list(constraint_blocks(inst, (0, 1)))
    assert len(blocks) == 1
    entries, mask = blocks[0]
    assert mask == 0 and len(entries) == 4
    assert list(block_rows(blocks)) == list(reference_constraint_rows(inst, (0, 1)))
    assert verified_rank(inst, (0, 1)) == exact_rank(inst, (0, 1)) == 1
    assert _ordered(kernel_basis(inst, (0, 1))) == _ordered(reference_kernel_basis(inst, (0, 1)))


def _spy(monkeypatch, name):
    """Record the positional arguments of every call to counting.<name>."""
    calls = []
    real = getattr(counting, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(counting, name, spy)
    return calls


def test_prime_clash_escalates_to_exact(monkeypatch):
    # a coefficient with denominator MOD_PRIMES[0] cannot be embedded mod that prime
    odd = bra(1, Fraction(1, MOD_PRIMES[0]))
    with pytest.raises(_PrimeClash):
        _ModField(MOD_PRIMES[0]).embed(odd.c1)
    dist = FactorDistribution((bra(1, 0), odd), (Fraction(1, 2), Fraction(1, 2)))
    inst = Instance(Graph(3, ((0, 1), (0, 2), (1, 2))), ((1, 0), (1, 1), (0, 1)), dist, "any", 0, 0)
    comp = (0, 1, 2)
    exact = exact_rank(inst, comp)
    calls = _spy(monkeypatch, "_exact_rank")
    assert verified_rank(inst, comp) == exact
    assert len(calls) == 1
    assert exact == 2**3 - dense_component_value(inst, comp)


def test_prime_disagreement_escalates_to_exact(monkeypatch):
    g = sample_er_graph(8, 10, seed=4)
    inst = sample_instance(g, FactorDistribution.uniform(3), seed=4)
    comp = max(label_groups(components(g).labels), key=len)
    true_rank = exact_rank(inst, comp)
    assert true_rank > 0
    real = counting._echelon_rank

    def skewed(blocks, field):
        rank = real(blocks, field)
        return rank - 1 if getattr(field, "p", None) == MOD_PRIMES[1] else rank

    monkeypatch.setattr(counting, "_echelon_rank", skewed)
    calls = _spy(monkeypatch, "_exact_rank")
    assert verified_rank(inst, comp) == true_rank
    assert len(calls) == 1


def test_mod_field_inverse():
    rng = random.Random(0)
    for p in MOD_PRIMES:
        field = _ModField(p)
        for a in [1, p - 1, field.root] + [rng.randrange(1, p) for _ in range(5)]:
            assert field.inv(a) * a % p == 1


# --- the split counter against the rank it replaced ------------------------

# exact ranks on frustrated components pay 2^k full rows, so the comparison
# stops here
_SPLIT_ORACLE_MAX_K = 12


# five families share these examples, and the exact rank of one 12-qubit
# component can take 30 s, so the budget stays small
@settings(max_examples=36, deadline=None)
@given(
    st.sampled_from(
        [
            # (model, size, lowest f)
            ("er", dict(n=30, m=24), 2),
            ("er", dict(n=8, m=11), 2),  # dense: cyclic and frustrated components
            ("er", dict(n=7, m=14), 4),  # denser: some parts reach the rank leaf
            ("lat2", dict(L=4, p=0.55), 2),
            ("lat3", dict(L=2, p=0.7), 2),
        ]
    ).flatmap(lambda fam: st.tuples(st.just(fam), st.integers(fam[2], 6))),
    st.sampled_from(["any", "free"]),
    st.integers(0, 10**6),
)
def test_split_counter_matches_the_rank(family_f, cond, seed):
    (model, kw, _), f = family_f
    inst = generate_instance(model, FactorDistribution.uniform(f), seed, cond=cond, **kw)
    dec = decouple(inst)
    comps = [(c, None) for c in label_groups(dec.report.labels)]
    if (dec.frozen >= 0).any():
        comps += [(c, dec.frozen) for c in label_groups(dec.residual_labels)]
    for comp, frozen in comps:
        if len(comp) <= _SPLIT_ORACLE_MAX_K:
            full = 1 << len(comp)
            value = component_value(inst, comp, frozen=frozen)
            assert value == full - verified_rank(inst, comp, frozen)
            assert value == full - exact_rank(inst, comp, frozen)


def _k5_tournament(pendant=0):
    # edge i -> i+1 carries (1, 0) and edge i -> i+2 carries (2, 0), so every
    # vertex meets factors 0, 1 and 2 on its own side; a pendant path of
    # (0, 1) edges hangs off vertex 0
    edges = {}
    for i in range(5):
        for step, h in ((1, 1), (2, 2)):
            u, v = i, (i + step) % 5
            edges[min(u, v), max(u, v)] = (h, 0) if u < v else (0, h)
    for u, v in zip([0] + list(range(5, 4 + pendant)), range(5, 5 + pendant)):
        edges[u, v] = (0, 1)
    order = sorted(edges)
    return inst_of(5 + pendant, order, [edges[e] for e in order], 3)


def test_stuck_tournament_is_one_five_qubit_rank_leaf(monkeypatch):
    inst = _k5_tournament()
    comp = tuple(range(5))
    assert all({h for _, h, _ in inst.incident[v]} == {0, 1, 2} for v in comp)
    assert not hasattr(counting, "_Unsplittable")
    calls = _spy(monkeypatch, "_verified_rank")
    assert component_value(inst, comp) == 1
    assert calls == [(counting._own_index(inst.incident, comp, None), inst.dist.factors)]
    assert dense_component_value(inst, comp) == 1


def test_disjoint_parts_count_apart(monkeypatch):
    # the tournament and a disjoint (0, 1) edge on vertices 5 - 6, counted
    # as one vertex set: 1 * 3, and only the tournament reaches the rank
    rows = _k5_tournament().edge_array.tolist() + [[5, 6, 0, 1]]
    inst = inst_of(7, [r[:2] for r in rows], [r[2:] for r in rows], 3)
    calls = _spy(monkeypatch, "_verified_rank")
    assert component_value(inst, range(7)) == 3
    assert [len(index) for index, _ in calls] == [5]


def test_rank_sees_only_the_stuck_core(monkeypatch):
    # the pendant path splits away; in the one branch that leaves vertex 0
    # unpinned, the tournament is a stuck part and only it reaches the rank
    inst = _k5_tournament(pendant=3)
    comp = tuple(range(8))
    want = (1 << 8) - exact_rank(inst, comp)
    assert want == dense_component_value(inst, comp) == 4
    calls = _spy(monkeypatch, "_verified_rank")
    assert component_value(inst, comp) == want
    assert [len(index) for index, _ in calls] == [5]


def test_trees_never_reach_the_rank(monkeypatch):
    # the f = 2, gamma = 0.3 ER instances of the count_rank benchmark, small:
    # every vertex meets at most two factors, so every component splits
    comps = []
    for seed in range(4):
        inst = generate_instance("er", FactorDistribution.uniform(2), seed, n=300, m=90)
        dec = decouple(inst)
        comps += [(inst, c, dec.frozen) for c in label_groups(dec.residual_labels)]
    assert max(len(c) for _, c, _ in comps) >= 8
    want = [(1 << len(c)) - verified_rank(inst, c, frozen) for inst, c, frozen in comps]
    calls = _spy(monkeypatch, "_verified_rank")
    assert [component_value(inst, c, frozen=frozen) for inst, c, frozen in comps] == want
    assert calls == []


def _path(k):
    # every edge carries (0, 1): the value of a k-qubit path is k + 1
    return inst_of(k, [(i, i + 1) for i in range(k - 1)], [(0, 1)] * (k - 1), 2)


def test_long_path_counts_past_the_interpreter_recursion_limit():
    # one split per qubit down the path: a recursion two frames deep per
    # qubit would overrun the default limit of 1,000 frames at 600 qubits
    assert component_value(_path(8), range(8)) == 9 == 256 - verified_rank(_path(8), range(8))
    k = 600
    assert component_value(_path(k), range(k), max_component_qubits=k) == k + 1


def test_split_counter_leaves_no_cyclic_garbage():
    # a reference cycle per count would hold each instance's incident index
    # until the collector's next full pass, so memory would grow with the
    # number of instances counted
    inst = generate_instance("er", FactorDistribution.uniform(2), 0, n=300, m=90)
    dec = decouple(inst)
    comps = label_groups(dec.residual_labels)
    gc.collect()
    gc.disable()
    try:
        values = [component_value(inst, c, frozen=dec.frozen) for c in comps]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert max(values) > 2


def test_component_over_the_cap_raises_before_any_split(monkeypatch):
    g = sample_er_graph(20, 30, seed=1)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=1)
    comp = max(label_groups(components(g).labels), key=len)
    splits = _spy(monkeypatch, "_split_value")
    ranks = _spy(monkeypatch, "_verified_rank")
    with pytest.raises(ComponentCapError):
        component_value(inst, comp, 4)
    assert splits == [] and ranks == []


def test_component_value_rejects_an_unfrozen_crossing(monkeypatch):
    # path 0 - 1 - 2; edge (1, 2) carries factor 1 on vertex 2's side
    inst = inst_of(3, [(0, 1), (1, 2)], [(0, 1), (0, 1)], 2)
    splits = _spy(monkeypatch, "_split_value")
    ranks = _spy(monkeypatch, "_verified_rank")
    for frozen in (None, np.array([-1, -1, 0])):
        with pytest.raises(ValueError, match=r"edge \(1,2\) crosses the component boundary"):
            component_value(inst, (0, 1), frozen=frozen)
    assert splits == [] and ranks == []
    # frozen in the edge's own far factor, vertex 2 satisfies it
    assert component_value(inst, (0, 1), frozen=np.array([-1, -1, 1])) == 3


@pytest.mark.parametrize(
    "comp, message",
    [
        ((0, 0, 1, 2), "vertex 0 appears twice in the component"),
        ((0, 1, 2, 2), "vertex 2 appears twice in the component"),
        ((0, 1, 2, 3), "vertex 3 is not one of the instance's 3 vertices"),
        ((-1, 0, 1, 2), "vertex -1 is not one of the instance's 3 vertices"),
    ],
)
def test_component_value_rejects_a_malformed_component(monkeypatch, comp, message):
    # path 0 - 1 - 2 at f = 2: unchecked, a repeated vertex counts 9 or 10,
    # a negative one reads the last vertex's edges, a large one raises
    # IndexError
    inst = inst_of(3, [(0, 1), (1, 2)], [(0, 0), (0, 0)], 2)
    assert component_value(inst, (0, 1, 2)) == 5 == dense_component_value(inst, (0, 1, 2))
    splits = _spy(monkeypatch, "_split_value")
    ranks = _spy(monkeypatch, "_verified_rank")
    for cap in (16, 3):  # 4 vertices over a cap of 3: checked before the cap
        with pytest.raises(ValueError, match=message):
            component_value(inst, comp, cap)
    assert splits == [] and ranks == []


def test_two_split_rules_agree_above_the_cap():
    # residual components of 17-40 qubits have no rank oracle, so the
    # fewest-live-edges rule is checked against the highest-degree one
    insts = []
    for seed in range(6):
        f4, f3 = FactorDistribution.uniform(4), FactorDistribution.uniform(3)
        insts.append(generate_instance("lat2", f4, seed, cond="free", L=16, p=0.6))
        insts.append(generate_instance("er", f3, seed, n=400, m=300))
    checked = 0
    for inst in insts:
        dec = decouple(inst)
        for comp in label_groups(dec.residual_labels):
            if 17 <= len(comp) <= 40:
                value = component_value(inst, comp, max_component_qubits=40, frozen=dec.frozen)
                assert value == highest_degree_split_value(inst, comp, dec.frozen)
                checked += 1
    assert checked == 11


# --- kernel bases ----------------------------------------------------------


def _row_applies(vec, row):
    total = GQ_ZERO
    for col, val in row:
        coeff = vec.get(col)
        if coeff is not None:
            total = total + val * coeff
    return total.is_zero()


def test_kernel_basis_spans_and_annihilates():
    for seed in range(15):
        g = sample_er_graph(6, 7, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        for comp in label_groups(components(g).labels):
            basis = kernel_basis(inst, comp)
            assert len(basis) == component_value(inst, comp)
            rows = list(block_rows(constraint_blocks(inst, comp)))
            for vec in basis:
                assert vec  # nonzero
                for row in rows:
                    assert _row_applies(vec, row)
            leads = [min(v) for v in basis]
            assert len(set(leads)) == len(basis)


# --- backends, caps, products ----------------------------------------------


def test_mod_primes_are_suitable():
    # each prime must be = 1 mod 4 so that -1 is a quadratic residue
    for p in MOD_PRIMES:
        assert p % 4 == 1
        assert p.bit_length() == 62
        assert pow(2, p - 1, p) == 1  # Fermat sanity


def test_component_cap_validation():
    inst = inst_of(2, [(0, 1)], [(0, 1)], 2)
    # a frustrated K4: the cap is checked before the label is read
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    frustrated = inst_of(4, k4, [(0, 0), (0, 0), (1, 0), (1, 1), (0, 1), (0, 1)], 2)
    assert instance_value(frustrated) == 0
    check_component_cap(1)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="component cap must be positive"):
            check_component_cap(cap)
        with pytest.raises(ValueError, match="component cap must be positive"):
            component_value(inst, (0, 1), cap)
        with pytest.raises(ValueError, match="component cap must be positive"):
            instance_value(inst, cap)
        with pytest.raises(ValueError, match="component cap must be positive"):
            decomposition_value(frustrated, decouple(frustrated), cap)


def test_component_cap():
    g = sample_er_graph(20, 30, seed=1)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=1)
    comp = max(label_groups(components(g).labels), key=len)
    with pytest.raises(ComponentCapError) as ei:
        component_value(inst, comp, 4)
    err = ei.value
    assert err.size == len(comp) and err.cap == 4
    assert err.component == tuple(comp)


def test_instance_value_cap_escalates():
    g = sample_er_graph(12, 24, seed=3)
    inst = sample_instance(g, FactorDistribution.uniform(4), seed=3)
    if satisfiable(inst):
        with pytest.raises(ComponentCapError):
            instance_value(inst, 3)


def test_product_tree():
    assert product_tree([]) == 1
    assert product_tree([7]) == 7
    vals = [random.Random(0).randint(1, 2**40) for _ in range(257)]
    assert product_tree(vals) == math.prod(vals)


def test_product_tree_fast_on_many_bignums():
    import time

    rng = random.Random(1)
    vals = [1 << rng.randint(5, 60) for _ in range(10_000)]
    t0 = time.monotonic()
    got = product_tree(vals)
    dt = time.monotonic() - t0
    assert dt < 1.0
    assert got == math.prod(vals)
