import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsat2 import graphs
from qsat2.graphs import (
    Graph,
    LatticeInfo,
    components,
    enumerate_cycles,
    enumerate_dominoes,
    enumerate_figure_eights,
    label_groups,
    lattice_coord,
    lattice_vertex,
    sample_er_graph,
    sample_lattice,
)

from oracles import (
    reference_components,
    reference_label_groups,
    reference_edge_error,
    reference_sample_er_graph,
    reference_sample_lattice,
)


def test_graph_validates():
    g = Graph(4, ((0, 1), (1, 2)))
    assert g.m == 2
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((2, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))
    # the int64 cast would truncate a float and parse a string
    for entries in (((0.5, 1),), (("0", "2"),), np.array([[0.5, 1.0]])):
        with pytest.raises(ValueError, match="edges must be integers"):
            Graph(3, entries)


def _error(build):
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, (), "negative vertex count"),
        (3, ((0, 0),), "edge (0,0) out of range or misordered"),
        (3, ((2, 1),), "edge (2,1) out of range or misordered"),
        (3, ((0, 3),), "edge (0,3) out of range or misordered"),
        (3, ((-1, 1),), "edge (-1,1) out of range or misordered"),
        (3, ((0, 2**70),), f"edge (0,{2**70}) out of range or misordered"),
        (3, ((0, 1), (0, 1)), "edges not sorted and distinct at (0,1)"),
        (4, ((0, 2), (0, 1)), "edges not sorted and distinct at (0,1)"),
        (4, ((1, 2), (0, 3)), "edges not sorted and distinct at (0,3)"),
        # the first offending edge decides the message
        (5, ((0, 1), (0, 1), (9, 9)), "edges not sorted and distinct at (0,1)"),
        (5, ((1, 2), (0, 9), (0, 1)), "edge (0,9) out of range or misordered"),
        (3, ((0, 1, 2),), "edges must be 2-tuples"),
        (3, ((0, 1), (2,)), "edges must be 2-tuples"),
    ],
)
def test_graph_validation_messages(n, edges, message):
    assert _error(lambda: Graph(n, edges)) == message
    if all(len(e) == 2 for e in edges):
        assert reference_edge_error(n, edges) == message


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 6),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=6),
    st.booleans(),
)
def test_graph_validation_matches_per_edge_scan(n, edges, tidy):
    if tidy:  # mostly valid lists, so the sort check sees long valid prefixes
        edges = sorted(set((min(e), max(e)) for e in edges))
    assert _error(lambda: Graph(n, tuple(edges))) == reference_edge_error(n, edges)


def test_graph_edge_array_is_read_only_int64():
    g = Graph(4, ((0, 1), (1, 3)))
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    assert g.edge_array.tolist() == [[0, 1], [1, 3]]
    assert Graph(2, ()).edge_array.shape == (0, 2)


def _same_graph(g, ref):
    assert g == ref
    assert g.edge_array.dtype == np.int64
    assert np.array_equal(g.edge_array, ref.edge_array)
    assert not g.edge_array.flags.writeable
    assert all(type(x) is int for e in g.edges for x in e)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 60), st.data())
def test_er_sampler_matches_draw_by_draw_reference(seed, n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    _same_graph(sample_er_graph(n, m, seed), reference_sample_er_graph(n, m, seed))


@pytest.mark.parametrize(
    "n, m",
    [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 3), (7, 21), (12, 66), (40, 0)]
    + [(n, n * n // 8) for n in (3, 8, 40, 41)]
    + [(n, n * n // 8 + 1) for n in (3, 8, 40, 41)]
    + [(4000, 5600), (2000, 500), (300, 20_000)],
)
def test_er_sampler_edge_cases_match_reference(n, m):
    for seed in range(3):
        _same_graph(sample_er_graph(n, m, seed), reference_sample_er_graph(n, m, seed))


def test_vertex_count_is_bounded_by_int32_labels(monkeypatch):
    # only the refused side runs: nothing is allocated at the bound
    with pytest.raises(ValueError, match="above 2147483647"):
        Graph(2**31, ())
    assert Graph(2**31 - 1, ()).n == 2**31 - 1

    def allocate(*args):
        raise AssertionError("drew or allocated before checking n")

    monkeypatch.setattr(graphs, "randbelow_batches", allocate)
    monkeypatch.setattr(graphs, "_lattice_edge_array", allocate)
    with pytest.raises(ValueError, match="above 2147483647"):
        sample_er_graph(2**31, 4, 0)
    assert 1291**3 > 2**31 - 1
    with pytest.raises(ValueError, match="above 2147483647"):
        sample_lattice(3, 1291, 0.5, 0)


def test_graphs_compare_by_value():
    edges = ((0, 1), (1, 3), (2, 3))
    g = Graph(4, edges)
    assert g == Graph(4, np.array(edges)) == Graph(4, list(edges))
    assert g != Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert g != Graph(4, edges[:2])
    assert g != Graph(5, edges)
    assert g != Graph(4, edges, LatticeInfo(2, 2))
    assert g.edges == edges
    assert all(type(x) is int for e in g.edges for x in e)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([(2, 2), (2, 5), (2, 13), (3, 2), (3, 4), (3, 6)]),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)
def test_lattice_sampler_matches_draw_by_draw_reference(seed, shape, p):
    d, L = shape
    _same_graph(sample_lattice(d, L, p, seed), reference_sample_lattice(d, L, p, seed))


def test_er_sampler_shape():
    g = sample_er_graph(20, 30, seed=5)
    assert g.n == 20 and g.m == 30
    assert len(set(g.edges)) == 30
    assert all(0 <= u < v < 20 for u, v in g.edges)
    assert sample_er_graph(20, 30, seed=5).edges == g.edges
    assert sample_er_graph(20, 30, seed=6).edges != g.edges


def test_er_sampler_uniform_over_edge_sets():
    # n=5, m=2: C(10,2)=45 equally likely edge sets
    pairs = list(combinations(range(5), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    cells = Counter()
    trials = 9000
    for s in range(trials):
        g = sample_er_graph(5, 2, seed=s)
        cells[tuple(sorted(idx[e] for e in g.edges))] += 1
    assert len(cells) == 45
    exp = trials / 45
    chi2 = sum((c - exp) ** 2 / exp for c in cells.values())
    # df=44: mean 44, sd ~9.4; 90 is ~4.9 sigma
    assert chi2 < 90, chi2


def test_er_rejects_overfull():
    with pytest.raises(ValueError):
        sample_er_graph(3, 4, seed=0)


def test_lattice_full_and_coords():
    g = sample_lattice(2, 4, 1.0, seed=0)
    assert g.n == 16 and g.m == 2 * 4 * 3  # 2*L*(L-1)
    assert g.lattice is not None and g.lattice.d == 2 and g.lattice.L == 4
    g3 = sample_lattice(3, 3, 1.0, seed=0)
    assert g3.n == 27 and g3.m == 3 * 9 * 2  # 3*L^2*(L-1)
    for v in range(g3.n):
        assert lattice_vertex(lattice_coord(v, 3, 3), 3) == v


def test_lattice_bond_rate():
    # each bond kept independently with probability p
    total = kept = 0
    p = 0.3
    for s in range(40):
        g = sample_lattice(2, 10, p, seed=s)
        kept += g.m
        total += 2 * 10 * 9
    mean = total * p
    sd = math.sqrt(total * p * (1 - p))
    assert abs(kept - mean) < 3 * sd


def test_lattice_p_zero_and_edge_cases():
    g = sample_lattice(2, 3, 0.0, seed=1)
    assert g.m == 0 and g.n == 9
    with pytest.raises(ValueError):
        sample_lattice(4, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        sample_lattice(2, 3, 1.5, seed=0)


def test_component_classes():
    g = Graph(
        10,
        tuple(sorted([(1, 2), (3, 4), (4, 5), (3, 5), (6, 7), (6, 8), (7, 8), (7, 9), (8, 9)])),
    )
    rep = components(g)
    assert label_groups(rep.labels) == [(0,), (1, 2), (3, 4, 5), (6, 7, 8, 9)]
    assert rep.sizes == (1, 2, 3, 4)
    assert rep.classes == ("tree", "tree", "unicyclic", "multicyclic")
    assert rep.edge_counts == (0, 1, 3, 5)
    assert rep.max_size == 4
    assert rep.multicyclic_count == 1


@settings(max_examples=50)
@given(st.integers(2, 9), st.data())
def test_components_match_bfs(n, data):
    all_pairs = list(combinations(range(n), 2))
    edges = tuple(sorted(data.draw(st.sets(st.sampled_from(all_pairs), max_size=min(12, len(all_pairs))))))
    g = Graph(n, edges)
    rep = components(g)
    # BFS reference partition
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    parts = []
    for v in range(n):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    comps = label_groups(rep.labels)
    assert comps == sorted(parts)
    assert rep.sizes == tuple(len(c) for c in comps)
    for comp, ec, cls in zip(comps, rep.edge_counts, rep.classes):
        inner = sum(1 for u, v in edges if u in comp and v in comp)
        assert inner == ec
        excess = ec - len(comp) + 1
        assert cls == ("tree" if excess == 0 else "unicyclic" if excess == 1 else "multicyclic")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["er", "lat2"]), st.integers(0, 2**32), st.data())
def test_components_match_union_find_reference(model, seed, data):
    if model == "er":
        n = data.draw(st.integers(0, 80))
        m = data.draw(st.integers(0, min(2 * n, n * (n - 1) // 2)))
        g = sample_er_graph(n, m, seed)
    else:
        g = sample_lattice(2, data.draw(st.integers(2, 9)), data.draw(st.floats(0.0, 1.0)), seed)
    rep = components(g)
    ref = reference_components(g)
    assert rep == ref
    assert np.array_equal(rep.labels, ref.labels)
    assert rep.labels.dtype == np.int64 and not rep.labels.flags.writeable
    ints = list(rep.sizes) + list(rep.edge_counts)
    assert all(type(x) is int for x in ints + [rep.max_size, rep.multicyclic_count])


def test_component_labels_do_not_rely_on_the_library_numbering(monkeypatch):
    # the labels count components by smallest vertex whatever order the
    # connected-components routine numbers them in
    g = sample_er_graph(60, 40, 3)
    u, v = g.edge_array.T
    want = graphs.component_labels(g.n, u, v)
    labelling = graphs.connected_components

    def reversed_labels(graph, directed):
        ncomp, labels = labelling(graph, directed=directed)
        return ncomp, ncomp - 1 - labels

    monkeypatch.setattr(graphs, "connected_components", reversed_labels)
    labels = graphs.component_labels(g.n, u, v)
    assert labels.max() > 0 and labels[0] == 0
    assert np.array_equal(labels, want)
    assert np.array_equal(labels, reference_components(g).labels)


def test_components_of_empty_and_edgeless_graphs():
    assert components(Graph(0, ())) == reference_components(Graph(0, ()))
    assert components(Graph(0, ())).labels.shape == (0,)
    rep = components(Graph(3, ()))
    assert label_groups(rep.labels) == [(0,), (1,), (2,)] and rep.classes == ("tree",) * 3
    assert rep.sizes == (1, 1, 1)
    assert rep == reference_components(Graph(3, ()))
    assert rep.labels.tolist() == [0, 1, 2]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.just(-1), st.integers(0, 9)), max_size=40))
@example([])
@example([-1, -1, -1])
@example([4, -1, 0, 4, 9, -1, 0])
def test_label_groups_match_dict_grouping(labels):
    # -1 marks a vertex in no group; labels may skip numbers
    groups = label_groups(np.array(labels, dtype=np.int64))
    assert groups == reference_label_groups(np.array(labels, dtype=np.int64))
    # membership: every labelled vertex once, in the group of its label
    assert sorted(v for grp in groups for v in grp) == [v for v, x in enumerate(labels) if x >= 0]
    assert all(len({labels[v] for v in grp}) == 1 for grp in groups)
    # members ascend, and groups run in label order
    assert all(list(grp) == sorted(grp) for grp in groups)
    assert [labels[grp[0]] for grp in groups] == sorted(set(labels) - {-1})
    assert all(type(v) is int for grp in groups for v in grp)


def complete_graph(n):
    return Graph(n, tuple(combinations(range(n), 2)))


def test_cycle_enumeration_k4():
    g = complete_graph(4)
    tri = enumerate_cycles(g, 3)
    assert tri == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    quads = enumerate_cycles(g, 4)
    assert quads == [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    with pytest.raises(ValueError):
        enumerate_cycles(g, 2)


def test_cycle_canonical_form():
    g = complete_graph(5)
    for length in (3, 4, 5):
        cycles = enumerate_cycles(g, length)
        assert len(set(cycles)) == len(cycles)
        for cyc in cycles:
            assert cyc[0] == min(cyc)
            assert cyc[1] < cyc[-1]
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                assert (min(a, b), max(a, b)) in set(g.edges)
    # K5 counts: C(5,3)=10 triangles, 15 squares, 12 pentagons
    assert len(enumerate_cycles(g, 3)) == 10
    assert len(enumerate_cycles(g, 4)) == 15
    assert len(enumerate_cycles(g, 5)) == 12


def test_figure_eight_enumeration():
    # bowtie: two triangles sharing vertex 0
    g = Graph(5, tuple(sorted([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])))
    figs = enumerate_figure_eights(g, 3)
    assert len(figs) == 1
    fig = figs[0]
    assert fig.crux == 0
    assert fig.cycle_a[0] == 0 and fig.cycle_b[0] == 0
    assert set(fig.cycle_a) & set(fig.cycle_b) == {0}
    # K4 has no room for two triangles sharing exactly one vertex
    assert enumerate_figure_eights(complete_graph(4), 3) == []
    # K5: crux (5 ways) x split remaining 4 into two pairs (3 ways)
    assert len(enumerate_figure_eights(complete_graph(5), 3)) == 15


def test_figure_eights_refuse_cycles_above_four():
    assert enumerate_figure_eights(complete_graph(5), 4) == []
    with pytest.raises(ValueError, match="above 4"):
        enumerate_figure_eights(complete_graph(5), 5)


def test_domino_enumeration_counts():
    g = sample_lattice(2, 4, 1.0, seed=0)
    doms = enumerate_dominoes(g)
    # full 4x4 grid: 12 adjacent plaquette pairs (2 per inner edge)
    assert len(doms) == 12
    for dom in doms:
        paths = dom.paths()
        assert len(paths) == 3
        b, e = dom.shared
        assert paths[0] == dom.shared or paths[0] == (b, e)
        for path in paths[1:]:
            assert path[0] == b and path[-1] == e and len(path) == 4
    g3 = sample_lattice(3, 2, 1.0, seed=0)
    assert len(enumerate_dominoes(g3)) == 12


def test_domino_requires_all_bonds():
    g = sample_lattice(2, 4, 1.0, seed=0)
    full = len(enumerate_dominoes(g))
    # dropping one edge of a shared pair kills every domino through it
    edges = list(g.edges)
    edges.remove((5, 6))
    g2 = Graph(g.n, tuple(edges), lattice=g.lattice)
    assert len(enumerate_dominoes(g2)) < full
