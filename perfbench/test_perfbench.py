"""Tests for the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Workloads run here at reduced sizes; the shapes match the real ones.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer
from workloads import GOLDEN, REPO, Count, InstanceFile, Report, Sweep

workloads.require_package()

import qsat2  # noqa: E402

ER_SMALL = Sweep("er_small", 404, (0.3, 1.4), 600, 6, 2, "any", 12 * math.log(2), 1)
FF_SMALL = Sweep("ff_small", 505, (2.5,), 800, 4, 4, "ff", 3.0, 2)
COUNT_FF_SMALL = Count(
    "count_ff_small",
    (InstanceFile("ff1k", 1000, 2.5, 4, "free", 505), InstanceFile("ff2k", 2000, 2.5, 4, "free", 505)),
    (("count", "ff1k"), ("count", "ff2k"), ("analyze", "ff2k")),
)
COUNT_RANK_SMALL = Count(
    "count_rank_small", (InstanceFile("rank2k", 2000, 0.3, 2, "any", 9, search_cap=12),), (("count", "rank2k"),)
)


def _bindings() -> dict:
    return {
        (name, key): val
        for name, mod in sys.modules.items()
        if mod is not None and (name == "qsat2" or name.startswith("qsat2."))
        for key, val in vars(mod).items()
        if callable(val)
    }


def _traced(wl, tmp_path: Path, seed: int = 0) -> tuple[dict, dict]:
    wl.setup(tmp_path, seed)
    plain = run.run_pass(wl, tmp_path, seed, 0)
    with Tracer() as tracer:
        traced = run.run_pass(wl, tmp_path, seed, 0, tracer)
    assert traced["outputs"] == plain["outputs"], "tracing changed the output bytes"
    report = Report()
    wl.check(traced["outputs"], tmp_path, seed, 0, report)
    assert report.failed == 0, report.problems
    metrics = run.layer_metrics(tracer.stats(), traced, plain, wl.sizes(seed))
    return {k: v["value"] for k, v in metrics.items()}, tracer.stats()


# -- correctness gate -------------------------------------------------------


def test_one_corrupted_sweep_line_gives_wrong_frac():
    wl = workloads.WORKLOADS["er_phase"]
    gold = (GOLDEN / "er_phase" / "pass0.csv").read_text(encoding="utf-8")
    clean = Report()
    wl.check({"sweep": gold}, REPO, 0, 0, clean)
    assert clean.failed == 0 and clean.attempted > 0
    lines = gold.splitlines()
    i = next(k for k, line in enumerate(lines) if ",frustrated," in line)
    lines[i] = lines[i].replace(",frustrated,", ",unclassified,")
    dirty = Report()
    wl.check({"sweep": "\n".join(lines) + "\n"}, REPO, 0, 0, dirty)
    assert dirty.wrong_frac > 0
    # the invariants alone catch it too, as on seeds without golden output
    assert i in wl._invariants(lines, wl.master(0, 0))
    # and a truncated CSV is wrong in every missing line
    assert len(wl._invariants(gold.splitlines()[:-5], wl.master(0, 0))) == 5


def test_one_corrupted_count_line_gives_wrong_frac():
    gold = (GOLDEN / "count_rank" / "count_rank2k.txt").read_text().splitlines()
    canon = [workloads._canon(x) for x in gold]
    assert workloads.compare_multiset(list(reversed(canon)), canon) == set()
    corrupted = list(canon)
    corrupted[3] = corrupted[3] + "1"
    assert len(workloads.compare_multiset(corrupted, canon)) == 1
    assert workloads.compare_exact(gold[:-1], gold) == {len(gold) - 1}


def test_relabelled_instances_count_the_same(tmp_path):
    for sub, seed in (("a", 0), ("b", 7)):
        (tmp_path / sub).mkdir()
        COUNT_RANK_SMALL.setup(tmp_path / sub, seed)
    out_a, _ = COUNT_RANK_SMALL.job(tmp_path / "a", 0, 0)
    out_b, _ = COUNT_RANK_SMALL.job(tmp_path / "b", 7, 0)
    a = [workloads._canon(x) for x in out_a["count_rank2k"].splitlines()]
    b = [workloads._canon(x) for x in out_b["count_rank2k"].splitlines()]
    assert (tmp_path / "a" / "rank2k.q2").read_text() != (tmp_path / "b" / "rank2k.q2").read_text()
    assert sorted(a) == sorted(b)


# -- tracer -----------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    before = _bindings()
    with Tracer():
        assert hasattr(qsat2.structure.decouple, "__qsat2_traced__")
        assert hasattr(qsat2.sweep.decouple, "__qsat2_traced__")
        assert hasattr(qsat2.cli.satisfiable, "__qsat2_traced__")
        assert hasattr(qsat2.counting.satisfiable, "__qsat2_traced__")
        assert hasattr(qsat2.satisfiable, "__qsat2_traced__")
        assert hasattr(vars(qsat2.twosat.TwoSatEngine)["feasible"], "__qsat2_traced__")
    _traced(ER_SMALL, tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for name in ("solve", "feasible", "pinned_to", "freeze"):
        assert not hasattr(vars(qsat2.twosat.TwoSatEngine)[name], "__qsat2_traced__")


def test_counts_fire_on_er_phase(tmp_path):
    m, stats = _traced(ER_SMALL, tmp_path)
    for name in ("graphs.components.calls", "instances.satisfiable.calls", "twosat.solve.calls",
                 "structure.decouple.calls", "graphs.sample.s", "structure.vertex_options.s",
                 "sweep.generate.s", "sweep.analyze.s", "sweep.trial_p50_ms"):
        assert m[name] > 0, name
    # er_phase never reaches the conditioned sampler or the counter
    for name in ("twosat.feasible.calls", "instances.resamples", "counting.rank_small.calls"):
        assert m[name] == 0, name
    assert len(stats["durations"]["sweep.trial"]) == 12


def test_counts_fire_on_ff_sweep(tmp_path):
    m, stats = _traced(FF_SMALL, tmp_path)
    for name in ("twosat.feasible.calls", "twosat.pinned_to.calls", "twosat.freeze.calls",
                 "instances.resamples", "instances.sample_ff.s", "structure.frozen_subgraph.s"):
        assert m[name] > 0, name
    for name in ("twosat.feasible.cap_trips", "twosat.pinned_to.cap_trips", "twosat.solve.unit_calls"):
        assert m[name] == 0, name
    # both worker threads' trials are adopted by the sweep span
    run_sweep = stats["spans"]["sweep.run_sweep"]
    assert 0 <= run_sweep[2] < run_sweep[1]
    assert len(stats["durations"]["sweep.trial"]) == 4


def test_counts_fire_on_count_workloads(tmp_path):
    (tmp_path / "ff").mkdir()
    m, _ = _traced(COUNT_FF_SMALL, tmp_path / "ff")
    for name in ("counting.rank_small.calls", "counting.rows", "instances.load.s", "cli.self_s",
                 "structure.decouple.calls", "structure.fixed_states.self_s"):
        assert m[name] > 0, name
    assert m["counting.rank_small.scaling_exp"] != 0
    assert m["structure.decouple.scaling_exp"] != 0
    assert m["counting.cap_errors"] == 0
    (tmp_path / "rank").mkdir()
    m, _ = _traced(COUNT_RANK_SMALL, tmp_path / "rank")
    assert m["counting.rank_large.calls"] > 0
    assert m["counting.rank_small.scaling_exp"] == 0


def test_cap_errors_are_counted(tmp_path):
    COUNT_RANK_SMALL.setup(tmp_path, 0)
    with Tracer() as tracer:
        code = qsat2.cli.main(["count", str(tmp_path / "rank2k.q2"), "--max-component", "4"])
    assert code == 4
    assert tracer.stats()["counts"]["counting.cap_errors"] == 1


# -- the benchmark contract -------------------------------------------------


def test_benchmark_json_matches_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count_rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("seed", [0, 3])
def test_sweep_invariants_accept_real_output(tmp_path, seed):
    ER_SMALL.setup(tmp_path, seed)
    outputs, _ = ER_SMALL.job(tmp_path, seed, 1)
    assert ER_SMALL._invariants(outputs["sweep"].splitlines(), ER_SMALL.master(seed, 1)) == set()
