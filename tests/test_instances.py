import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsat2 import instances
from qsat2.exactq import bra
from qsat2.graphs import Graph, sample_er_graph, sample_lattice
from qsat2.instances import (
    FactorDistribution,
    Instance,
    InstanceParseError,
    ResampleBudgetError,
    default_factors,
    format_instance,
    load_instance,
    parse_instance,
    sample_frustration_free_instance,
    sample_instance,
    satisfiable,
    save_instance,
)

from oracles import (
    naive_frustration_free,
    product_witness,
    reference_edge_error,
    reference_sample_er_graph,
    reference_sample_instance,
    sample_factor,
)


# --- factor distributions ---------------------------------------------------


def test_default_factors_pairwise_distinct():
    for f in range(1, 7):
        table = default_factors(f)
        assert len(table) == f
        assert len(set(table)) == f  # canonical form makes this projective


def test_uniform_distribution():
    d = FactorDistribution.uniform(3)
    assert d.f == 3
    assert d.q == (Fraction(1, 3),) * 3


def test_from_weights_normalises():
    d = FactorDistribution.from_weights([Fraction(2), Fraction(1), Fraction(1)])
    assert d.q == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        FactorDistribution.from_weights([Fraction(0), Fraction(0)])
    with pytest.raises(ValueError):
        FactorDistribution.from_weights([Fraction(1), Fraction(2)])  # increasing


def test_distribution_validation():
    f2 = default_factors(2)
    with pytest.raises(ValueError):
        FactorDistribution(f2, (Fraction(1),))  # length mismatch
    with pytest.raises(ValueError):
        FactorDistribution(f2, (Fraction(1, 2), Fraction(1, 3)))  # sum != 1
    with pytest.raises(ValueError):
        FactorDistribution(f2, (Fraction(1), Fraction(0)))  # zero weight
    with pytest.raises(ValueError):
        FactorDistribution((f2[0], f2[0]), (Fraction(1, 2), Fraction(1, 2)))
    # q[0] = 1 needs f = 1
    with pytest.raises(ValueError):
        FactorDistribution(f2, (Fraction(1), Fraction(1)))
    d1 = FactorDistribution.uniform(1)
    assert d1.q == (Fraction(1),)


def test_sampling_frequencies():
    d = FactorDistribution.from_weights([Fraction(3), Fraction(2), Fraction(1)])
    rng = random.Random(7)
    n = 60_000
    counts = [0] * 3
    for _ in range(n):
        counts[sample_factor(d, rng)] += 1
    for i, q in enumerate(d.q):
        mean = n * float(q)
        sd = (mean * (1 - float(q))) ** 0.5
        assert abs(counts[i] - mean) < 4 * sd


def test_norms():
    d = FactorDistribution.from_weights([Fraction(1), Fraction(1)])
    assert d.norm_power(2) == Fraction(1, 2)
    assert d.norm_power(3) == Fraction(1, 4)
    assert d.norm_inf() == Fraction(1, 2)


# --- sampling ----------------------------------------------------------------


def test_sample_instance_deterministic():
    g = sample_er_graph(12, 14, seed=3)
    a = sample_instance(g, FactorDistribution.uniform(3), seed=9)
    b = sample_instance(g, FactorDistribution.uniform(3), seed=9)
    c = sample_instance(g, FactorDistribution.uniform(3), seed=10)
    assert np.array_equal(a.pairs, b.pairs)
    assert not np.array_equal(a.pairs, c.pairs)
    assert a.conditioning == "any" and a.seed == 9 and a.resamples == 0
    assert all(0 <= h < 3 and 0 <= j < 3 for h, j in a.pairs)


def test_product_witness_satisfies():
    g = sample_er_graph(15, 15, seed=1)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=4)
    w = product_witness(inst)
    assert (w is not None) == satisfiable(inst)
    if w is not None:
        for u, v, h, j in inst.edge_array.tolist():
            su = w[u] if w[u] is not None else h
            sv = w[v] if w[v] is not None else j
            assert su == h or sv == j


# the kernel's bounds: 1, small, 2**32 - 1, and a denominator lcm above
# 2**32 that falls back to one randrange call per draw
SAMPLER_DISTS = [
    FactorDistribution.uniform(1),
    FactorDistribution.uniform(2),
    FactorDistribution.uniform(3),
    FactorDistribution.uniform(4),
    FactorDistribution.from_weights([Fraction(5), Fraction(2), Fraction(1)]),
    FactorDistribution.from_weights([Fraction(2**32 - 2), Fraction(1)]),
    FactorDistribution.from_weights(
        [Fraction(1, 1_000_003), Fraction(1, 1_000_033), Fraction(1, 1_000_037)]
    ),
]


def test_sampler_dists_cover_the_kernel_bounds():
    dens = [d._den for d in SAMPLER_DISTS]
    assert 1 in dens and 2**32 - 1 in dens
    assert max(dens).bit_length() > 32


def _same_instance(inst, ref):
    assert inst == ref
    assert inst.edge_array.dtype == np.int64 and not inst.edge_array.flags.writeable
    assert np.array_equal(inst.edge_array, ref.edge_array)
    # the pairs are the factor columns of the one edge record
    assert inst.pairs.base is inst.edge_array


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 40),
    st.sampled_from(SAMPLER_DISTS),
    st.sampled_from(["er", "lat2"]),
    st.data(),
)
def test_sample_instance_matches_draw_by_draw_reference(seed, n, dist, model, data):
    if model == "er":
        g = sample_er_graph(n, data.draw(st.integers(0, n * (n - 1) // 2)), seed)
    else:
        g = sample_lattice(2, max(n // 4, 2), data.draw(st.floats(0.0, 1.0)), seed)
    _same_instance(sample_instance(g, dist, seed + 1), reference_sample_instance(g, dist, seed + 1))


def test_sample_instance_edge_cases_match_reference():
    for n, m in [(0, 0), (1, 0), (2, 1), (40, 200), (40, 201), (4000, 5600)]:
        g = reference_sample_er_graph(n, m, n + m)
        for dist in SAMPLER_DISTS:
            _same_instance(sample_instance(g, dist, 7), reference_sample_instance(g, dist, 7))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 4), st.sampled_from(["er", "lat2"]), st.data())
def test_conditioned_sampler_matches_full_resolve_reference(seed, f, model, data):
    # the incremental feasibility cache must make exactly the same
    # accept/reject decisions as a from-scratch solve per candidate, and the
    # buffered factor stream must give the draws one randrange call each would
    if model == "er":
        n = data.draw(st.integers(4, 12))
        g = sample_er_graph(n, min(2 * n, n * (n - 1) // 2), seed)
    else:
        g = sample_lattice(2, data.draw(st.integers(2, 4)), data.draw(st.floats(0.5, 1.0)), seed)
    dist = data.draw(st.sampled_from([FactorDistribution.uniform(f), *SAMPLER_DISTS[4:]]))
    fast = sample_frustration_free_instance(g, dist, seed)
    ref = naive_frustration_free(g, dist, seed)
    _same_instance(fast, ref)
    assert satisfiable(fast)


@pytest.mark.parametrize(
    "model, size, density, dist, seed",
    [
        ("er", 200, 1.5, FactorDistribution.uniform(3), 1),
        ("er", 200, 2.0, FactorDistribution.uniform(2), 2),
        ("er", 200, 2.0, FactorDistribution.uniform(3), 1),
        ("er", 200, 2.5, FactorDistribution.uniform(4), 2),
        ("er", 200, 2.5, SAMPLER_DISTS[4], 1),
        ("lat2", 10, 0.6, FactorDistribution.uniform(3), 1),
        ("lat2", 12, 0.6, FactorDistribution.uniform(4), 2),
        ("lat2", 12, 0.6, FactorDistribution.uniform(2), 1),
    ],
)
def test_conditioned_sampler_matches_reference_on_larger_instances(model, size, density, dist, seed):
    # at these sizes most edges join a cyclic component, and the frozen
    # states the sampler caches reach across many edges
    if model == "er":
        g = sample_er_graph(size, round(density * size), seed)
    else:
        g = sample_lattice(2, size, density, seed)
    fast = sample_frustration_free_instance(g, dist, seed)
    _same_instance(fast, naive_frustration_free(g, dist, seed))
    assert satisfiable(fast)


def test_resample_budget_guard_raises(monkeypatch):
    # the guard cannot trip on a correct sampler; with a budget of one, the
    # first rejected pair trips it
    monkeypatch.setattr(instances, "RESAMPLE_BUDGET", 1)
    g = sample_er_graph(200, 500, 2)
    with pytest.raises(ResampleBudgetError) as err:
        sample_frustration_free_instance(g, FactorDistribution.uniform(4), 2)
    assert err.value.budget == 1


@pytest.mark.parametrize(
    "pairs, kwargs, message",
    [
        (((0, 1),), {}, "one factor pair per edge required"),
        (((0, 1), (1, 2)), {}, "factor index out of range"),
        (((0, 1), (-1, 0)), {}, "factor index out of range"),
        (((0, 1), (0, 2**70)), {}, "factor index out of range"),
        (((0, 1), (1, 0)), {"conditioning": "some"}, "conditioning must be 'any' or 'free'"),
        (((0, 1), (0, 1, 0)), {}, "factor pairs must be 2-tuples"),
        (((0, 1), (1.5, 0)), {}, "factor pairs must be integers"),
    ],
)
def test_instance_validation_messages(pairs, kwargs, message):
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError) as err:
        Instance(g, pairs, FactorDistribution.uniform(2), **kwargs)
    assert str(err.value) == message


def test_instances_compare_by_value():
    dist = FactorDistribution.uniform(3)
    edges, pairs = ((0, 1), (1, 2), (2, 3)), ((0, 1), (2, 2), (1, 0))
    inst = Instance(Graph(4, edges), pairs, dist, "free", 5, 2)
    same = Instance(Graph(4, np.array(edges)), np.array(pairs), dist, "free", 5, 2)
    assert inst == same
    other_graph = Graph(4, ((0, 1), (1, 2), (1, 3)))
    for changed in (
        Instance(other_graph, pairs, dist, "free", 5, 2),
        Instance(Graph(4, edges), ((0, 1), (2, 2), (1, 1)), dist, "free", 5, 2),
        Instance(Graph(4, edges), pairs, FactorDistribution.uniform(4), "free", 5, 2),
        Instance(Graph(4, edges), pairs, dist, "any", 5, 2),
        Instance(Graph(4, edges), pairs, dist, "free", 6, 2),
        Instance(Graph(4, edges), pairs, dist, "free", 5, 3),
    ):
        assert inst != changed


def test_conditioned_sampler_always_satisfiable():
    d = FactorDistribution.uniform(2)
    for seed in range(20):
        g = sample_er_graph(30, 45, seed=seed)  # well above the threshold
        inst = sample_frustration_free_instance(g, d, seed=seed)
        assert satisfiable(inst)
        assert inst.conditioning == "free"


def test_resample_budget_error_fields():
    err = ResampleBudgetError(3, 7, 50)
    assert err.edge == (3, 7) and err.budget == 50
    assert "50" in str(err)


# --- file format ---------------------------------------------------------


def assert_same_arrays(back: Instance, inst: Instance) -> None:
    # `==` on instances skips the arrays: they are compare=False
    pairs = ((back.edge_array, inst.edge_array), (back.graph.edge_array, inst.graph.edge_array))
    for got, want in pairs:
        assert np.array_equal(got, want)
        assert got.dtype == np.int64 and not got.flags.writeable


def test_round_trip_er():
    g = sample_er_graph(10, 12, seed=2)
    inst = sample_instance(g, FactorDistribution.uniform(3), seed=5)
    text = format_instance(inst)
    back = parse_instance(text)
    assert back == inst
    assert format_instance(back) == text
    assert_same_arrays(back, inst)


def test_round_trip_lattice_and_weights(tmp_path):
    g = sample_lattice(3, 3, 0.4, seed=8)
    d = FactorDistribution.from_weights([Fraction(5), Fraction(2), Fraction(1)])
    inst = sample_frustration_free_instance(g, d, seed=8)
    path = tmp_path / "inst.q2"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back == inst
    assert back.graph.lattice == inst.graph.lattice
    assert back.resamples == inst.resamples
    assert_same_arrays(back, inst)


def test_round_trip_exotic_factors():
    g = sample_er_graph(6, 6, seed=0)
    # factors need not be the defaults, only pairwise non-proportional
    factors = (bra(1, 0), bra(Fraction(1, 2), Fraction(-3, 4)), bra(0, 1))
    d = FactorDistribution(factors, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    inst = sample_instance(g, d, seed=1)
    assert parse_instance(format_instance(inst)) == inst


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: "JUNK v9\n" + t.split("\n", 1)[1],
        lambda t: t.replace("model=er", "model=zz"),
        lambda t: t.replace("cond=any", "cond=xx"),
        lambda t: t + "E 0 1 1 1\n",
        lambda t: t.replace("E 0 ", "E 99 ", 1),
        lambda t: t.replace("F 1 ", "F 7 ", 1),
        lambda t: t.replace("Q 1 ", "Q 1 bad ", 1),
        lambda t: t.replace("n=6", "n=six"),
        # the cases below reach the Graph and Instance validators
        lambda t: t.replace("E 1 4 2 1", "E 0 5 1 1"),  # duplicated edge line
        lambda t: t.replace("E 2 3 ", "E 3 3 ", 1),  # u == v
        lambda t: t.replace("E 4 5 ", "E 4 6 ", 1),  # v >= n
        lambda t: t.replace("E 2 3 2 2", "E 2 3 0 2"),  # factor index 0
        lambda t: t.replace("E 2 3 2 2", "E 2 3 2 3"),  # factor index f + 1
        # a vertex id too large for int64
        lambda t: t.replace("E 4 5 ", "E 4 12345678901234567890 ", 1),
        # negative counts with a body as long as the header asks for
        lambda t: t.replace("m=5", "m=-1").split("Q 2")[0],
        lambda t: t.replace("m=5 f=2", "m=2 f=-1").split("F 1")[0],
        # more vertices than int32 component labels can hold
        lambda t: t.replace("n=6", "n=2147483648"),
    ],
)
def test_parse_rejects_corruption(mutate):
    g = sample_er_graph(6, 5, seed=0)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=1)
    text = format_instance(inst)
    bad = mutate(text)
    assert bad != text
    with pytest.raises(InstanceParseError):
        parse_instance(bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-1, 7)] * 4), max_size=6), st.booleans())
def test_parse_accepts_exactly_the_valid_edge_lines(rows, tidy):
    # the per-line checks the parser made itself before Graph and Instance
    # took them over: a per-edge scan, and factor indices in 1..f
    if tidy:  # mostly valid lists, so the checks see long valid prefixes
        canon = {(min(u, v), max(u, v)): (h, j) for u, v, h, j in rows}
        rows = [(*e, *p) for e, p in sorted(canon.items())]
    n, f = 6, 2
    head = format_instance(Instance(Graph(n, ()), (), FactorDistribution.uniform(f)))
    body = "".join(f"E {u} {v} {h} {j}\n" for u, v, h, j in rows)
    text = head.replace("m=0", f"m={len(rows)}") + body
    edges = [(u, v) for u, v, _, _ in rows]
    if reference_edge_error(n, edges) or not all(1 <= h <= f and 1 <= j <= f for *_, h, j in rows):
        with pytest.raises(InstanceParseError):
            parse_instance(text)
    else:
        want = [(u, v, h - 1, j - 1) for u, v, h, j in rows]
        inst = parse_instance(text)
        assert inst.edge_array.tolist() == [list(r) for r in want]


def test_parse_rejects_misordered_edges():
    g = sample_er_graph(6, 4, seed=0)
    inst = sample_instance(g, FactorDistribution.uniform(2), seed=1)
    lines = format_instance(inst).splitlines()
    lines[-1], lines[-2] = lines[-2], lines[-1]
    with pytest.raises(InstanceParseError):
        parse_instance("\n".join(lines) + "\n")


def test_factor_index_file_convention():
    # 1-based on disk, 0-based in memory
    g = sample_er_graph(4, 2, seed=0)
    inst = Instance(g, ((0, 1), (1, 0)), FactorDistribution.uniform(2), "any", 0, 0)
    text = format_instance(inst)
    edge_lines = [ln for ln in text.splitlines() if ln.startswith("E ")]
    assert edge_lines[0].split()[3:] == ["1", "2"]
    assert edge_lines[1].split()[3:] == ["2", "1"]
    assert parse_instance(text).pairs.tolist() == [[0, 1], [1, 0]]
