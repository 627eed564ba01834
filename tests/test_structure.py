import random
from contextlib import contextmanager
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsat2.structure as structure
import qsat2.twosat as twosat
from qsat2.counting import instance_value
from qsat2.graphs import (
    FigureEight,
    Graph,
    components,
    enumerate_dominoes,
    enumerate_figure_eights,
    label_groups,
    sample_er_graph,
    sample_lattice,
)
from qsat2.instances import FactorDistribution, Instance, sample_instance, satisfiable
from qsat2.structure import (
    decouple,
    domino_frustrated,
    figure_eight_frustrated,
    frozen_subgraph,
)

from qsat2.seeding import derive_trial_seed
from qsat2.sweep import generate_instance

from oracles import (
    brute_force_backbone,
    brute_force_kernel_assignment,
    frustration_certificate,
    kernel_basis,
    kernel_ket,
    loop_seed_fixed_states,
    naive_vertex_options,
    raw_instance_value,
    reference_backbone,
    reference_component_satisfiable,
    reference_decouple,
    frozen_states,
    reference_frozen_subgraph,
    vertex_options,
)


def inst_of(n, edges, pairs, f):
    return Instance(Graph(n, tuple(edges)), tuple(pairs), FactorDistribution.uniform(f), "any", 0, 0)


# --- loop option sets -------------------------------------------------------


def test_alternating_triangle_option_set():
    # factors alternate at every junction, so the walk survives the loop and
    # each vertex ends up holding the option set {0, 1}
    inst = inst_of(3, [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 0), (0, 1)], 2)
    opts = vertex_options(inst)
    assert set(opts) == {0, 1, 2}
    for v in range(3):
        assert opts[v] == [frozenset({0, 1})]
    assert satisfiable(inst)
    assert instance_value(inst) == 2


def test_tree_has_no_option_sets():
    inst = inst_of(4, [(0, 1), (1, 2), (2, 3)], [(0, 1)] * 3, 2)
    assert vertex_options(inst) == {}


def test_dead_junction_blocks_walk():
    # equal factors on both sides of every vertex: each walk stops after one
    # step and no loop constraint survives
    inst = inst_of(3, [(0, 1), (0, 2), (1, 2)], [(0, 0), (0, 0), (0, 0)], 2)
    assert vertex_options(inst) == {}
    # one dead junction kills the full loop; only the one-sided walk from
    # vertex 1 still returns, pinning it outright
    inst2 = inst_of(3, [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 0), (1, 1)], 2)
    assert vertex_options(inst2) == {1: [frozenset({1})]}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 9), st.integers(1, 4))
def test_options_match_naive_bfs(seed, n, f):
    rng = random.Random(seed)
    m = rng.randint(0, min(14, n * (n - 1) // 2))
    g = sample_er_graph(n, m, seed=seed)
    inst = sample_instance(g, FactorDistribution.uniform(f), seed=seed + 7)
    fast = vertex_options(inst)
    ref = naive_vertex_options(inst)
    assert set(fast) == set(ref)
    for v in fast:
        assert set(fast[v]) == set(ref[v]), (v, fast[v], ref[v])


# --- certificates ------------------------------------------------------------


def test_certificate_none_iff_satisfiable():
    for seed in range(40):
        g = sample_er_graph(10, 14, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        cert = frustration_certificate(inst)
        assert (cert is None) == satisfiable(inst)
        if cert is not None and cert.kind == "loop":
            opts = vertex_options(inst)[cert.vertex]
            assert frozenset.intersection(*opts) == frozenset()


def build_figure_eight(pairs_a, pairs_b):
    # two triangles sharing vertex 0: (0,1,2) and (0,3,4)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    lookup = dict(zip([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], pairs_a + pairs_b))
    pairs = [lookup[e] for e in edges]
    return inst_of(5, edges, pairs, 4)


def test_figure_eight_frustration_cases():
    # cycle A holds the crux in {0,1}, cycle B in {2,3}: no common state
    a = [(0, 1), (0, 1), (1, 0)]
    b = [(2, 3), (2, 3), (3, 2)]
    unsat = build_figure_eight(a, b)
    assert not satisfiable(unsat)
    assert instance_value(unsat) == 0
    cert = frustration_certificate(unsat)
    assert cert is not None and cert.kind == "loop" and cert.vertex == 0

    # overlapping option sets {0,1} and {1,3}: everything freezes to state 1
    b2 = [(1, 3), (1, 3), (3, 1)]
    sat = build_figure_eight(a, b2)
    assert satisfiable(sat)
    assert decouple(sat).frozen.tolist() == [1, 1, 1, 1, 1]
    assert instance_value(sat) == 1


def test_certificate_three_cycles_pairwise_consistent():
    # option sets {0,1}, {1,2}, {0,2} intersect pairwise but not jointly;
    # three triangles meeting at vertex 0 realise them
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (3, 4), (5, 6)]
    lookup = {
        (0, 1): (0, 1), (1, 2): (0, 1), (0, 2): (1, 0),
        (0, 3): (1, 2), (3, 4): (1, 2), (0, 4): (2, 1),
        (0, 5): (0, 2), (5, 6): (0, 2), (0, 6): (2, 0),
    }
    pairs = [lookup[e] for e in edges]
    inst = inst_of(7, edges, pairs, 3)
    opts = vertex_options(inst)[0]
    assert frozenset({0, 1}) in opts and frozenset({1, 2}) in opts and frozenset({0, 2}) in opts
    assert not satisfiable(inst)
    cert = frustration_certificate(inst)
    assert cert.kind == "loop" and cert.vertex == 0


# --- fixed states and value preservation ------------------------------------


def test_fixed_states_sound():
    for seed in range(30):
        g = sample_er_graph(9, 11, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        dec = decouple(inst)
        if not satisfiable(inst):
            assert dec.label == "frustrated"
            continue
        frozen = dec.frozen
        # frozen marginals: every kernel vector is supported on the frozen
        # kernel state of each frozen qubit
        for comp in label_groups(components(inst.graph).labels):
            basis = kernel_basis(inst, comp)
            comp_sorted = sorted(comp)
            for v, s in enumerate(frozen.tolist()):
                if s < 0 or v not in comp_sorted:
                    continue
                pu = comp_sorted.index(v)
                ket = _kernel_ket_coords(inst, s)
                for vec in basis:
                    _assert_qubit_state(vec, pu, ket)


# ER sizes keeping the (f+1)^n brute-force backbone cheap
_MAX_BRUTE_N = {2: 9, 3: 7, 4: 6}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 2**32),
    st.data(),
)
def test_frozen_set_is_the_backbone(model, f, cond, seed, data):
    if model == "er":
        n = data.draw(st.integers(2, _MAX_BRUTE_N[f]))
        kw = dict(n=n, m=data.draw(st.integers(0, min(2 * n, n * (n - 1) // 2))))
    else:
        kw = dict(L=3 if f == 2 else 2, p=data.draw(st.floats(0.3, 1.0)))
    inst = generate_instance(
        model=model, dist=FactorDistribution.uniform(f), seed=seed, cond=cond, **kw
    )
    dec = decouple(inst)
    backbone = brute_force_backbone(inst)
    assert dec.frozen.dtype == np.int64 and dec.frozen.shape == (inst.n,)
    assert not dec.frozen.flags.writeable
    if backbone is None:
        assert dec.label == "frustrated" and dec.frozen.tolist() == [-1] * inst.n
    else:
        assert backbone == loop_seed_fixed_states(inst)
        assert np.array_equal(dec.frozen, frozen_states(inst.n, backbone))


@pytest.mark.parametrize("f,gamma", [(2, 0.8), (3, 1.5), (4, 2.5)])
def test_frozen_set_matches_loop_seeds_at_scale(f, gamma):
    frozen_total = 0
    for t in range(3):
        for cond in ("any", "free"):
            inst = generate_instance(
                model="er",
                dist=FactorDistribution.uniform(f),
                seed=derive_trial_seed(f, int(cond == "free"), t),
                n=400,
                m=round(gamma * 400),
                cond=cond,
            )
            dec = decouple(inst)
            if dec.label == "frustrated":
                continue
            want = frozen_states(inst.n, loop_seed_fixed_states(inst))
            assert np.array_equal(dec.frozen, want), (f, cond, t)
            frozen_total += np.count_nonzero(dec.frozen >= 0)
    assert frozen_total > 0


def _kernel_ket_coords(inst, s):
    k = kernel_ket(inst.dist.factors[s])
    return k.c0, k.c1


def _assert_qubit_state(vec, pu, ket):
    # amplitudes must satisfy amp(x with bit 0) * k1 == amp(x with bit 1) * k0
    k0, k1 = ket
    seen = {}
    for col, val in vec.items():
        base = col & ~(1 << pu)
        bit = (col >> pu) & 1
        seen.setdefault(base, [None, None])[bit] = val
    from qsat2.exactq import GQ_ZERO

    for base, (a0, a1) in seen.items():
        lhs = (a0 if a0 is not None else GQ_ZERO) * k1
        rhs = (a1 if a1 is not None else GQ_ZERO) * k0
        assert (lhs - rhs).is_zero()


def test_decouple_value_preserved():
    for seed in range(25):
        g = sample_er_graph(12, 14, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(3), seed=seed)
        assert instance_value(inst) == raw_instance_value(inst)


# --- decomposition labels -----------------------------------------------------


def test_decouple_on_frustrated():
    a = [(0, 1), (0, 1), (1, 0)]
    b = [(2, 3), (2, 3), (3, 2)]
    inst = build_figure_eight(a, b)
    assert not satisfiable(inst)
    dec = decouple(inst)
    assert dec.label == "frustrated"
    assert dec.frozen.tolist() == [-1] * 5
    assert dec.residual_max == dec.report.max_size == 5


def test_decouple_labels():
    # tiny components: highly_disconnected
    g = sample_er_graph(64, 10, seed=0)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=0)
    dec = decouple(inst, cutoff_c=3.0)
    assert dec.cutoff == 18
    assert dec.label == "highly_disconnected"
    assert dec.report.max_size <= 18

    # one giant cycle, no freezing possible with f=1: unclassified
    n = 40
    ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    inst2 = inst_of(n, sorted(ring), [(0, 0)] * n, 1)
    dec2 = decouple(inst2, cutoff_c=1.0)
    assert dec2.report.max_size == n
    assert dec2.label == "unclassified"
    assert dec2.frozen.tolist() == [-1] * n


def test_decouple_residual_components():
    # the satisfiable figure-eight freezes entirely: nothing residual
    a = [(0, 1), (0, 1), (1, 0)]
    b2 = [(1, 3), (1, 3), (3, 1)]
    inst = build_figure_eight(a, b2)
    dec = decouple(inst, cutoff_c=0.5)
    assert dec.frozen.tolist() == [1, 1, 1, 1, 1]
    assert dec.residual_labels.tolist() == [-1] * 5 and label_groups(dec.residual_labels) == []
    assert dec.residual_max == 0
    assert dec.label == "highly_decoupled"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["er", "lat2", "lat3"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 2**32),
    st.data(),
)
def test_decouple_matches_reference(model, f, cond, seed, data):
    if model == "er":
        n = data.draw(st.integers(1, 120))
        kw = dict(n=n, m=data.draw(st.integers(0, min(3 * n, n * (n - 1) // 2))))
    else:
        side = data.draw(st.integers(2, 10 if model == "lat2" else 4))
        kw = dict(L=side, p=data.draw(st.floats(0.0, 1.0)))
    inst = generate_instance(
        model=model, dist=FactorDistribution.uniform(f), seed=seed, cond=cond, **kw
    )
    cutoff_c = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    dec = decouple(inst, cutoff_c)
    assert dec == reference_decouple(inst, cutoff_c)
    assert dec.residual_labels.dtype == np.int64 and not dec.residual_labels.flags.writeable


def test_decouple_everything_frozen_leaves_no_residual():
    inst = generate_instance("er", FactorDistribution.uniform(4), 0, n=12, m=30, cond="free")
    dec = decouple(inst)
    assert (dec.frozen >= 0).all()
    assert dec.residual_labels.tolist() == [-1] * inst.n and dec.residual_max == 0
    assert dec == reference_decouple(inst)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_forest_never_reaches_the_solve(n, f, data):
    # each vertex joins an earlier one or starts a new tree
    edges = []
    for v in range(1, n):
        parent = data.draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    pairs = [(data.draw(st.integers(0, f - 1)), data.draw(st.integers(0, f - 1))) for _ in edges]
    order = sorted(range(len(edges)), key=edges.__getitem__)
    inst = inst_of(n, [edges[i] for i in order], [pairs[i] for i in order], f)
    seen = []
    literal_graph = structure.literal_graph

    def spy(edges):
        seen.append(len(edges))
        return literal_graph(edges)

    with mock.patch.object(structure, "literal_graph", spy):
        dec = decouple(inst)
    assert seen == [0]
    assert dec.frozen.tolist() == [-1] * n and reference_backbone(inst) == {}
    assert dec.residual_labels is dec.report.labels


def test_frustrated_decouple_builds_no_incident_index(monkeypatch):
    builds = []
    build = Instance.incident.func

    def counted(inst):
        builds.append(inst)
        return build(inst)

    prop = cached_property(counted)
    prop.__set_name__(Instance, "incident")
    monkeypatch.setattr(Instance, "incident", prop)
    a = [(0, 1), (0, 1), (1, 0)]
    b = [(2, 3), (2, 3), (3, 2)]
    assert decouple(build_figure_eight(a, b)).label == "frustrated"
    assert builds == []


@contextmanager
def _reversed_scc_labels():
    """Number the literal graph's SCCs the other way round, which turns the
    witness that the backbone probes read from the labels into its complement."""
    scc = twosat.connected_components

    def reversed_labels(graph, **kw):
        ncomp, labels = scc(graph, **kw)
        return ncomp, labels.max() - labels

    with mock.patch.object(twosat, "connected_components", reversed_labels):
        yield


def _backbone_states(inst):
    """`_backbone` as (frozen array or None, frustrated components)."""
    frozen, frustrated = structure._backbone(inst, components(inst.graph))
    return (None if frozen is None else frozen.tolist()), frustrated


# sizes at which a satisfiable sample soon freezes something at every f:
# sparse ones under `any`, which frustrates denser ones, and large frozen
# cores under `free`
_PROBE_CASES = {
    ("er", "any"): dict(n=200, m=120),
    ("er", "free"): dict(n=200, m=500),
    ("lat2", "any"): dict(L=12, p=0.45),
    ("lat2", "free"): dict(L=12, p=0.65),
    ("lat3", "any"): dict(L=5, p=0.35),
    ("lat3", "free"): dict(L=5, p=0.45),
}


@pytest.mark.parametrize("model, cond", sorted(_PROBE_CASES))
@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_backbone_probe_order_matches_reference(model, cond, f):
    # the first satisfiable seed with a frozen state, which only a cyclic
    # component can hold
    for seed in range(40):
        inst = generate_instance(
            model=model, dist=FactorDistribution.uniform(f), seed=seed, cond=cond,
            **_PROBE_CASES[model, cond],
        )
        frozen = reference_backbone(inst)
        if frozen:
            break
    else:
        pytest.fail("no satisfiable seed freezes anything")
    want = frozen_states(inst.n, frozen).tolist()
    assert _backbone_states(inst) == (want, ())
    # the probe order is the witness's, but the frozen states are not
    with _reversed_scc_labels():
        assert _backbone_states(inst) == (want, ())


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 2**32),
    st.booleans(),
    st.data(),
)
def test_backbone_matches_brute_force_under_either_numbering(model, f, cond, seed, flip, data):
    if model == "er":
        n = data.draw(st.integers(2, _MAX_BRUTE_N[f]))
        kw = dict(n=n, m=data.draw(st.integers(n - 1, min(2 * n, n * (n - 1) // 2))))
    else:
        kw = dict(L=3 if f == 2 else 2, p=data.draw(st.floats(0.5, 1.0)))
    inst = generate_instance(
        model=model, dist=FactorDistribution.uniform(f), seed=seed, cond=cond, **kw
    )
    backbone = brute_force_backbone(inst)
    if flip:
        with _reversed_scc_labels():
            frozen, frustrated = _backbone_states(inst)
    else:
        frozen, frustrated = _backbone_states(inst)
    if backbone is None:
        assert frozen is None and frustrated == decouple(inst).frustrated_components != ()
    else:
        assert (frozen, frustrated) == (frozen_states(inst.n, backbone).tolist(), ())


@pytest.mark.parametrize("seed", range(4))
def test_reversed_scc_labels_keep_the_clash_set(seed):
    # a frustrated giant component next to satisfiable trees
    inst = generate_instance(
        model="er", dist=FactorDistribution.uniform(2), seed=seed, n=300, m=450
    )
    frozen, frustrated = _backbone_states(inst)
    assert frozen is None and frustrated
    with _reversed_scc_labels():
        assert _backbone_states(inst) == (None, frustrated)


def test_frozen_subgraph_core():
    a = [(0, 1), (0, 1), (1, 0)]
    b2 = [(1, 3), (1, 3), (3, 1)]
    inst = build_figure_eight(a, b2)
    dec = decouple(inst)
    frozen = reference_backbone(inst)
    assert set(frozen) == {0, 1, 2, 3, 4}
    assert np.array_equal(dec.frozen, frozen_states(inst.n, frozen))
    # forcing arcs tie both cycles together through the crux
    assert frozen_subgraph(inst, dec.frozen) == (0, 1, 2, 3, 4)
    assert dec.frozen_core == 5
    assert reference_frozen_subgraph(inst, frozen) == ((0, 1, 2, 3, 4),)
    assert frozen_subgraph(inst, frozen_states(inst.n, {})) == ()
    # two copies side by side: of the equal groups, the one with vertex 0
    edges = inst.graph.edges
    twin = inst_of(10, edges + tuple((u + 5, v + 5) for u, v in edges), inst.pairs.tolist() * 2, 4)
    assert frozen_subgraph(twin, decouple(twin).frozen) == (0, 1, 2, 3, 4)


def test_decouple_checks_that_the_frozen_set_is_closed(monkeypatch):
    # the figure-eight above, with one frozen vertex lost from the backbone:
    # an arc from a frozen vertex now reaches an unfrozen one
    inst = build_figure_eight([(0, 1), (0, 1), (1, 0)], [(1, 3), (1, 3), (3, 1)])
    backbone = structure._backbone

    def lossy(inst, rep):
        frozen, frustrated = backbone(inst, rep)
        frozen[2] = -1
        return frozen, frustrated

    monkeypatch.setattr(structure, "_backbone", lossy)
    with pytest.raises(ValueError, match="leaves the frozen set"):
        decouple(inst)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["er", "lat2", "lat3"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 2**32),
    st.data(),
)
def test_frozen_subgraph_matches_reference(model, f, cond, seed, data):
    if model == "er":
        n = data.draw(st.integers(1, 150))
        kw = dict(n=n, m=data.draw(st.integers(0, min(3 * n, n * (n - 1) // 2))))
    else:
        side = data.draw(st.integers(2, 10 if model == "lat2" else 4))
        kw = dict(L=side, p=data.draw(st.floats(0.0, 1.0)))
    inst = generate_instance(
        model=model, dist=FactorDistribution.uniform(f), seed=seed, cond=cond, **kw
    )
    dec = decouple(inst)
    frozen = reference_backbone(inst) or {}
    assert np.array_equal(dec.frozen, frozen_states(inst.n, frozen))
    core = max(reference_frozen_subgraph(inst, frozen), key=len, default=())
    assert frozen_subgraph(inst, dec.frozen) == core
    assert dec.frozen_core == len(core)
    if frozen:
        # dropping one frozen vertex leaves the set open wherever an arc
        # reached it, and both report the same first escaping arc
        drop = data.draw(st.sampled_from(sorted(frozen)))
        opened = {v: s for v, s in frozen.items() if v != drop}
        try:
            want = reference_frozen_subgraph(inst, opened)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{e}$"):
                frozen_subgraph(inst, frozen_states(inst.n, opened))
        else:
            assert frozen_subgraph(inst, frozen_states(inst.n, opened)) == max(
                want, key=len, default=()
            )


def test_component_satisfiable_split():
    # a frustrated figure-eight next to one satisfiable edge
    a = [(0, 1), (0, 1), (1, 0)]
    b = [(2, 3), (2, 3), (3, 2)]
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (5, 6)]
    lookup = dict(zip([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], a + b))
    lookup[(5, 6)] = (0, 0)
    inst = inst_of(7, edges, [lookup[e] for e in edges], 4)
    assert not satisfiable(inst)
    dec = decouple(inst)
    assert label_groups(dec.report.labels) == [(0, 1, 2, 3, 4), (5, 6)]
    assert dec.report.sizes == (5, 2)
    assert dec.frustrated_components == (0,)
    assert not reference_component_satisfiable(inst, (0, 1, 2, 3, 4))
    assert reference_component_satisfiable(inst, (5, 6))
    cert = frustration_certificate(inst)
    assert cert.kind == "loop" and cert.vertex == 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 10**6),
)
def test_component_satisfiable_matches_full_scan(model, f, cond, seed):
    # sparse unconditioned instances at f=4 are mostly frustrated, with
    # several nontrivial components of which only some are frustrated
    kw = dict(n=60, m=60) if model == "er" else dict(L=8, p=0.6)
    inst = generate_instance(model, FactorDistribution.uniform(f), seed, cond=cond, **kw)
    dec = decouple(inst)
    comps = label_groups(dec.report.labels)
    verdicts = [cid not in dec.frustrated_components for cid in range(len(comps))]
    assert verdicts == [reference_component_satisfiable(inst, c) for c in comps]
    assert all(verdicts) == satisfiable(inst) == (dec.label != "frustrated")


# --- small-subgraph frustration predicates -----------------------------------


def _subgraph_unsatisfiable(inst, paths):
    """No kernel-state assignment satisfies the edges along `paths`, by
    exhausting the f^k assignments of the k vertices they visit."""
    want = {frozenset(e) for path in paths for e in zip(path, path[1:])}
    verts = sorted(set().union(*want))
    local = {v: i for i, v in enumerate(verts)}
    rows = [
        (local[u], local[v], h, j)
        for u, v, h, j in inst.edge_array.tolist()
        if frozenset((u, v)) in want
    ]
    assert len(rows) == len(want)
    return brute_force_kernel_assignment(len(verts), rows, inst.dist.f) is None


def test_figure_eight_predicate_matches_solver():
    for f in (3, 4):
        hits = frustrated = 0
        for seed in range(400):
            g = sample_er_graph(8, 12, seed=seed)
            figs = enumerate_figure_eights(g, 3)
            if not figs:
                continue
            inst = sample_instance(g, FactorDistribution.uniform(f), seed=seed)
            for fig in figs:
                loops = [c + c[:1] for c in (fig.cycle_a, fig.cycle_b)]
                want = _subgraph_unsatisfiable(inst, loops)
                assert figure_eight_frustrated(inst, fig) == want, (f, seed, fig)
                hits += 1
                frustrated += want
        assert hits > 50 and frustrated > 0, (f, hits, frustrated)


def test_domino_predicate_matches_solver():
    # square and cubic lattices: a cubic edge carries up to four plaquettes
    for d, L, trials in ((2, 6, 60), (3, 3, 20)):
        for f in (3, 4):
            hits = frustrated = 0
            for seed in range(trials):
                g = sample_lattice(d, L, 0.9, seed=seed)
                inst = sample_instance(g, FactorDistribution.uniform(f), seed=seed)
                for dom in enumerate_dominoes(g):
                    want = _subgraph_unsatisfiable(inst, dom.paths())
                    assert domino_frustrated(inst, dom) == want, (d, f, seed, dom)
                    hits += 1
                    frustrated += want
            assert hits > 100 and frustrated > 0, (d, f, hits, frustrated)


def test_predicates_raise_on_a_missing_edge():
    # the figure-eight of `build_figure_eight` on an instance without (3, 4)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
    inst = inst_of(5, edges, [(0, 1)] * len(edges), 2)
    with pytest.raises(KeyError) as err:
        figure_eight_frustrated(inst, FigureEight(0, (0, 1, 2), (0, 3, 4)))
    assert err.value.args == ((3, 4),)
    # a domino of the full 3 x 3 square lattice on an instance without its shared edge
    g = sample_lattice(2, 3, 1.0, seed=0)
    dom = enumerate_dominoes(g)[0]
    edges = [e for e in g.edges if e != dom.shared]
    inst = inst_of(g.n, edges, [(0, 1)] * len(edges), 2)
    with pytest.raises(KeyError) as err:
        domino_frustrated(inst, dom)
    assert err.value.args == (dom.shared,)


def test_domino_never_frustrated_with_two_factors():
    for seed in range(40):
        g = sample_lattice(2, 4, 0.9, seed=seed)
        inst = sample_instance(g, FactorDistribution.uniform(2), seed=seed)
        for dom in enumerate_dominoes(g):
            assert not domino_frustrated(inst, dom)
