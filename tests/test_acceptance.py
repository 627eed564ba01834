"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) with the
measured quantity and its tolerance, then asserts.  Tolerances are the
stated ones; seeds are fixed so reruns are bit-identical.
"""

import math
import random
import statistics
import time
from itertools import product

from qsat2.counting import instance_value, product_tree
from qsat2.exactq import GQ_ZERO
from qsat2.graphs import (
    components,
    enumerate_dominoes,
    enumerate_figure_eights,
    label_groups,
    sample_lattice,
)
from qsat2.instances import FactorDistribution, satisfiable
from qsat2.seeding import derive_trial_seed
from qsat2.stats import (
    domino_frustration_probability,
    expected_dominoes,
    expected_figure_eights,
    giant_fraction,
    residual_density,
    xi,
)
from qsat2.structure import decouple, domino_frustrated, figure_eight_frustrated
from qsat2.sweep import SweepConfig, generate_instance, run_sweep
from qsat2.twosat import solve

import conftest
from oracles import (
    BraConstraint,
    chain_constraint,
    kernel_basis,
    kernel_ket,
    raw_instance_value,
    sample_factor,
    xi_series,
)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)
    assert ok, line


def _marginals_sound(inst, frozen) -> bool:
    # every kernel vector factors through the frozen kernel state everywhere
    for comp in label_groups(components(inst.graph).labels):
        comp_sorted = sorted(comp)
        in_comp = [v for v in comp if frozen[v] >= 0]
        if not in_comp:
            continue
        basis = kernel_basis(inst, comp)
        for v in in_comp:
            pu = comp_sorted.index(v)
            ket = kernel_ket(inst.dist.factors[frozen[v]])
            k0, k1 = ket.c0, ket.c1
            for vec in basis:
                seen: dict = {}
                for col, val in vec.items():
                    seen.setdefault(col & ~(1 << pu), [None, None])[(col >> pu) & 1] = val
                for a0, a1 in seen.values():
                    lhs = (a0 if a0 is not None else GQ_ZERO) * k1
                    rhs = (a1 if a1 is not None else GQ_ZERO) * k0
                    if not (lhs - rhs).is_zero():
                        return False
    return True


def test_criterion_01_small_instance_audit():
    t0 = time.monotonic()
    cases = []
    for f in (1, 2, 3):
        for cond in ("any", "free"):
            for s in range(40):
                cases.append(("er", f, cond, s, dict(n=4 + s % 7, m=(3 * s) % 13)))
            for s in range(25):
                cases.append(("lat2", f, cond, s, dict(L=3, p=0.4 if s % 2 else 0.8)))
            for s in range(20):
                cases.append(("lat3", f, cond, s, dict(L=2, p=0.5)))
    assert len(cases) >= 500
    checked = frozen_seen = 0
    for model, f, cond, s, kw in cases:
        dist = FactorDistribution.uniform(f)
        seed = derive_trial_seed(101, f * 10 + (cond == "free"), s)
        if model == "er":
            kw["m"] = min(kw["m"], kw["n"] * (kw["n"] - 1) // 2)
        inst = generate_instance(model=model, dist=dist, seed=seed, cond=cond, **kw)
        sat = satisfiable(inst)
        val = instance_value(inst)
        assert (val > 0) == sat, (model, f, cond, s)
        assert val == raw_instance_value(inst), (model, f, cond, s)
        if sat:
            frozen = decouple(inst).frozen
            if (frozen >= 0).any():
                frozen_seen += int((frozen >= 0).sum())
                assert _marginals_sound(inst, frozen), (model, f, cond, s)
        checked += 1
    dt = time.monotonic() - t0
    _report(
        "criterion_01_small_instances",
        checked >= 500 and dt < 300,
        f"{checked} instances, {frozen_seen} frozen qubits verified, {dt:.1f}s < 300s",
    )


def test_criterion_02_chain_survival():
    dist = FactorDistribution.uniform(2)
    table = dist.factors
    rng = random.Random(202)
    n_chains = 100_000
    alive = 0
    for _ in range(n_chains):
        cons = [
            BraConstraint(
                i, i + 1, table[sample_factor(dist, rng)], table[sample_factor(dist, rng)]
            )
            for i in range(6)
        ]
        if chain_constraint(cons) is not None:
            alive += 1
    p0 = 1 / 32
    sd = math.sqrt(p0 * (1 - p0) / n_chains)
    dev = abs(alive / n_chains - p0)
    _report(
        "criterion_02_chain_survival",
        dev <= 3 * sd,
        f"observed {alive / n_chains:.5f} vs 1/32 = {p0:.5f}, |dev| = {dev:.5f} <= 3sd = {3 * sd:.5f}",
    )


def test_criterion_03_figure_eight_count():
    t0 = time.monotonic()
    dist = FactorDistribution.uniform(3)
    trials = 2000
    xs = []
    for t in range(trials):
        seed = derive_trial_seed(303, 0, t)
        inst = generate_instance(model="er", dist=dist, seed=seed, n=60, m=90)
        figs = enumerate_figure_eights(inst.graph, 3)
        xs.append(sum(1 for fig in figs if figure_eight_frustrated(inst, fig)))
    mean = statistics.fmean(xs)
    sem = statistics.stdev(xs) / math.sqrt(trials)
    expected = float(expected_figure_eights(60, 90, 3, dist))
    dev = abs(mean - expected)
    dt = time.monotonic() - t0
    _report(
        "criterion_03_figure_eight_count",
        dev <= 3 * sem and dt < 600,
        f"mean {mean:.5f} vs predicted {expected:.5f}, |dev| = {dev:.5f} <= 3sem = {3 * sem:.5f}, {dt:.1f}s < 600s",
    )


def test_criterion_04_er_phase_labels():
    cfg = SweepConfig(
        model="er",
        grid=(0.3, 1.4),
        trials=100,
        dist=FactorDistribution.uniform(2),
        n=4000,
        seed=404,
        cutoff_c=12 * math.log(2),
    )
    rows = [ln.split(",") for ln in run_sweep(cfg).strip().split("\n")[1:]]
    sub = [r for r in rows if r[0] == "0.3" and r[1] != "summary"]
    sup = [r for r in rows if r[0] == "1.4" and r[1] != "summary"]
    assert len(sub) == len(sup) == 100
    bound = 12 * math.log(4000)
    good_sub = sum(
        1
        for r in sub
        if int(r[6]) <= bound and int(r[7]) == 0 and r[10] == "highly_disconnected"
    )
    good_sup = sum(1 for r in sup if r[5] == "1")
    _report(
        "criterion_04_er_phases",
        good_sub >= 95 and good_sup >= 95,
        f"gamma=0.3: {good_sub}/100 small+acyclic+disconnected (>=95); "
        f"gamma=1.4: {good_sup}/100 frustrated (>=95)",
    )


def test_criterion_05_conditioned_freezing():
    dist = FactorDistribution.uniform(4)
    cfg = SweepConfig(
        model="er",
        grid=(2.5,),
        trials=100,
        dist=dist,
        n=4000,
        seed=505,
        cond="free",
    )
    rows = [
        ln.split(",")
        for ln in run_sweep(cfg).strip().split("\n")[1:]
        if ln.split(",")[1] != "summary"
    ]
    assert len(rows) == 100
    # residual tree density 2.5 * 0.75 = 1.875: the frozen core must cover at
    # least the giant fraction minus 5 points
    thresh = giant_fraction(2.5 * 0.75) - 0.05
    good = sum(
        1
        for r in rows
        if r[10] == "highly_decoupled" and int(r[8]) / int(r[3]) >= thresh
    )
    _report(
        "criterion_05_conditioned_freezing",
        good >= 90,
        f"{good}/100 trials highly_decoupled with core fraction >= {thresh:.4f} (>=90)",
    )


def test_criterion_06_domino_statistics():
    dist = FactorDistribution.uniform(2)
    trials = 200
    counts = []
    hit = 0
    for t in range(trials):
        seed = derive_trial_seed(606, 0, t)
        inst = generate_instance(model="lat2", dist=dist, seed=seed, L=60, p=0.3)
        doms = enumerate_dominoes(inst.graph)
        counts.append(len(doms))
        hit += any(domino_frustrated(inst, dm) for dm in doms)
    mean = statistics.fmean(counts)
    sem = statistics.stdev(counts) / math.sqrt(trials)
    expected = float(expected_dominoes(60, 2, 0.3))
    dev = abs(mean - expected)
    count_ok = dev <= 3 * sem

    # per-domino oracle: all 4^7 factor-pair assignments on the seven edges
    # of one domino, frustration decided by the kernel-state solver
    g = sample_lattice(2, 3, 1.0, seed=0)
    dom = enumerate_dominoes(g)[0]
    dom_edges = sorted(
        {tuple(sorted((a, b))) for path in dom.paths() for a, b in zip(path, path[1:])}
    )
    verts = sorted({v for e in dom_edges for v in e})
    local = {v: i for i, v in enumerate(verts)}
    unsat_assignments = 0
    for combo in product(range(2), repeat=14):
        edges = [
            (local[u], local[v], combo[2 * i], combo[2 * i + 1])
            for i, (u, v) in enumerate(dom_edges)
        ]
        if solve(edges):
            unsat_assignments += 1
    p_dom = unsat_assignments / 4**7
    assert p_dom == float(domino_frustration_probability(dist))

    # instances with >=1 frustrated domino vs the independent per-domino model
    frac = hit / trials
    pred = statistics.fmean(1 - (1 - p_dom) ** c for c in counts)
    frac_ok = abs(frac - pred) <= 0.05

    _report(
        "criterion_06_domino_statistics",
        count_ok and frac_ok,
        f"mean count {mean:.3f} vs {expected:.3f} (3sem = {3 * sem:.3f}); "
        f"instance fraction {frac:.4f} vs per-domino model {pred:.4f} "
        f"(p_dom = {p_dom:.4f} exhaustive, tol 0.05)",
    )


def test_criterion_07_percolation_clusters():
    trials = 100
    big = small = 0
    n = 100 * 100
    for t in range(trials):
        g = sample_lattice(2, 100, 0.7, seed=derive_trial_seed(707, 0, t))
        if components(g).max_size / n >= 0.25:
            big += 1
        g = sample_lattice(2, 100, 0.3, seed=derive_trial_seed(707, 1, t))
        if components(g).max_size / n <= 0.05:
            small += 1
    _report(
        "criterion_07_percolation",
        big >= 90 and small >= 90,
        f"p=0.7: {big}/100 with giant >= 0.25n (>=90); "
        f"p=0.3: {small}/100 with max <= 0.05n (>=90)",
    )


def test_criterion_08_tree_fraction_function():
    grid = [0.51] + [round(0.6 + 0.1 * k, 10) for k in range(25)]
    worst = 0.0
    for rho in grid:
        x = xi(rho)
        worst = max(worst, abs(x * math.exp(-x) - 2 * rho * math.exp(-2 * rho)))
    residual_ok = worst < 1e-12

    series_dev = max(abs(xi(r) - xi_series(r)) for r in (0.45, 0.55))
    series_ok = series_dev < 1e-8

    rng = random.Random(808)
    dens_ok = True
    for _ in range(50):
        gamma = rng.uniform(0.05, 4.0)
        qinf = rng.uniform(0.05, 1.0)
        rd = residual_density(gamma, qinf)
        if gamma * qinf <= 0.5:
            dens_ok &= abs(rd - gamma) < 1e-12
        else:
            dens_ok &= 0.0 < rd < gamma
            dens_ok &= rd <= gamma * math.exp(1 - 2 * gamma * qinf) + 1e-12
    _report(
        "criterion_08_tree_fraction",
        residual_ok and series_ok and dens_ok,
        f"max residual {worst:.2e} < 1e-12; series dev {series_dev:.2e} < 1e-8; "
        f"50 residual-density points ok",
    )


def test_criterion_09_product_tree_speed():
    rng = random.Random(909)
    vals = [rng.getrandbits(64) | 1 for _ in range(10_000)]
    t0 = time.monotonic()
    tree = product_tree(vals)
    dt = time.monotonic() - t0
    acc = 1
    for v in vals:
        acc *= v
    _report(
        "criterion_09_product_tree",
        tree == acc and dt < 1.0,
        f"matches iterative product, {dt * 1000:.0f}ms < 1000ms",
    )


def test_criterion_10_sweep_thread_identity(tmp_path):
    from qsat2.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "model = er\nn = 300\ngrid = 0.3, 0.8, 1.3\ntrials = 8\n"
        "f = 3\nq = uniform\nseed = 1010\nvalue = on\n"
    )
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
    same = out1.read_bytes() == out4.read_bytes()
    _report(
        "criterion_10_thread_identity",
        same,
        f"CSV byte-identical across --threads 1 and 4 ({len(out1.read_bytes())} bytes)",
    )
