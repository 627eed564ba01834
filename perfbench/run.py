"""qsat2 benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload er_phase --seed 0 --seconds 25 --trace 0

Set-up runs in fresh interpreters (import the package, make the inputs) and
is timed as ``setup_s``.  The measured phase then repeats the workload's job
in this process until ``--seconds`` would be exceeded, with at least
``MIN_PASSES`` passes.  Every output line is checked; the last stdout line
is the result:

    {"correct": ..., "attempted": lines checked, "failed": wrong lines, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the job once
untraced and once under the outside-in tracer (tracer.py) on the same input,
checks the two outputs are byte-identical, and reports the per-layer
metrics.  ``--workload all`` runs every workload in a child process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DEFAULT_SEED, REPO, WORKLOADS, Count, Report, Sweep, require_package  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.sample.s": "s",
    "graphs.components.calls": "count",
    "graphs.components.s": "s",
    "instances.satisfiable.calls": "count",
    "instances.satisfiable.s": "s",
    "instances.sample_ff.s": "s",
    "instances.resamples": "count",
    "instances.load.s": "s",
    "twosat.solve.calls": "count",
    "twosat.solve.s": "s",
    "twosat.solve.unit_calls": "count",
    "twosat.feasible.calls": "count",
    "twosat.feasible.cap_trips": "count",
    "twosat.feasible.s": "s",
    "twosat.pinned_to.calls": "count",
    "twosat.pinned_to.cap_trips": "count",
    "twosat.freeze.calls": "count",
    "twosat.freeze.s": "s",
    "structure.decouple.calls": "count",
    "structure.decouple.self_s": "s",
    "structure.decouple.scaling_exp": "exponent",
    "structure.fixed_states.self_s": "s",
    "structure.vertex_options.s": "s",
    "structure.frozen_subgraph.s": "s",
    "counting.rank_small.calls": "count",
    "counting.rank_small.s": "s",
    "counting.rank_small.scaling_exp": "exponent",
    "counting.rank_large.calls": "count",
    "counting.rank_large.s": "s",
    "counting.rows": "count",
    "counting.cap_errors": "count",
    "sweep.generate.s": "s",
    "sweep.analyze.s": "s",
    "sweep.trial_p50_ms": "ms",
    "sweep.trial_p90_ms": "ms",
    "sweep.self_s": "s",
    "sweep.cpu_util": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_REPS = 3
MIN_PASSES = 3


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup(wl, work: Path, seed: int, reps: int, report: Report) -> list[float]:
    """Time ``reps`` fresh-interpreter set-ups; all must leave the same files."""
    times, digests = [], set()
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
            "--seed", str(seed), "--setup-into", str(work)]
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        digests.add(tuple(sorted((p.name, _sha(p.read_text())) for p in work.iterdir())))
    report.lines("set-up determinism", 1, set() if len(digests) == 1 else {0})
    return times


def run_pass(wl, work: Path, seed: int, index: int, tracer=None) -> dict:
    """One pass of the workload's job, with wall and process CPU seconds."""
    snaps: dict = {}
    on_step = None
    if tracer is not None:
        def on_step(key: str) -> None:
            snaps[key] = tracer.stats()["spans"]
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outputs, steps = wl.job(work, seed, index, on_step)
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    return {"index": index, "wall": wall, "job": sum(steps.values()), "cpu": cpu,
            "steps": steps, "outputs": outputs, "snaps": snaps}


def layer_metrics(stats: dict, traced: dict, plain: dict, sizes: dict) -> dict:
    spans, counts = stats["spans"], stats["counts"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def scaling(name: str) -> float:
        """log(t_large / t_small) / log(n_large / n_small) over a workload's two
        ``count`` commands, from the per-command span deltas; 0 without two."""
        snaps = traced["snaps"]
        keys = list(snaps)
        counted = [k for k in keys if k.startswith("count_")]
        if len(counted) != 2:
            return 0.0

        def delta(key: str) -> float:
            i = keys.index(key)
            before = snaps[keys[i - 1]].get(name, [0, 0.0])[1] if i else 0.0
            return snaps[key].get(name, [0, 0.0])[1] - before

        (t_a, n_a), (t_b, n_b) = ((delta(k), sizes["files"][k[len("count_"):]]["n"]) for k in counted)
        if t_a <= 0 or t_b <= 0 or n_a == n_b:
            return 0.0
        return math.log(t_b / t_a) / math.log(n_b / n_a)

    trials = [1000 * d for d in stats["durations"].get("sweep.trial", [])]
    p50 = statistics.median(trials) if trials else 0.0
    p90 = statistics.quantiles(trials, n=10)[8] if len(trials) >= 2 else p50
    m = {
        "graphs.sample.s": incl("graphs.sample"),
        "graphs.components.calls": calls("graphs.components"),
        "graphs.components.s": incl("graphs.components"),
        "instances.satisfiable.calls": calls("instances.satisfiable"),
        "instances.satisfiable.s": incl("instances.satisfiable"),
        "instances.sample_ff.s": incl("instances.sample_ff"),
        "instances.resamples": counts.get("instances.resamples", 0),
        "instances.load.s": incl("instances.load"),
        "twosat.solve.calls": calls("twosat.solve"),
        "twosat.solve.s": incl("twosat.solve"),
        "twosat.solve.unit_calls": counts.get("twosat.solve.unit_calls", 0),
        "twosat.feasible.calls": calls("twosat.feasible"),
        "twosat.feasible.cap_trips": counts.get("twosat.feasible.cap_trips", 0),
        "twosat.feasible.s": incl("twosat.feasible"),
        "twosat.pinned_to.calls": calls("twosat.pinned_to"),
        "twosat.pinned_to.cap_trips": counts.get("twosat.pinned_to.cap_trips", 0),
        "twosat.freeze.calls": calls("twosat.freeze"),
        "twosat.freeze.s": incl("twosat.freeze"),
        "structure.decouple.calls": calls("structure.decouple"),
        "structure.decouple.self_s": own("structure.decouple"),
        "structure.decouple.scaling_exp": scaling("structure.decouple"),
        "structure.fixed_states.self_s": own("structure.fixed_states"),
        "structure.vertex_options.s": incl("structure.vertex_options"),
        "structure.frozen_subgraph.s": incl("structure.frozen_subgraph"),
        "counting.rank_small.calls": calls("counting.rank_small"),
        "counting.rank_small.s": incl("counting.rank_small"),
        "counting.rank_small.scaling_exp": scaling("counting.rank_small"),
        "counting.rank_large.calls": calls("counting.rank_large"),
        "counting.rank_large.s": incl("counting.rank_large"),
        "counting.rows": counts.get("counting.rows", 0),
        "counting.cap_errors": counts.get("counting.cap_errors", 0),
        "sweep.generate.s": incl("sweep.generate"),
        "sweep.analyze.s": incl("sweep.analyze"),
        "sweep.trial_p50_ms": p50,
        "sweep.trial_p90_ms": p90,
        "sweep.self_s": sum(own(n) for n in spans if n.startswith("sweep.")),
        "sweep.cpu_util": plain["cpu"] / (plain["wall"] * sizes["threads"]),
        "cli.self_s": own("cli.main"),
        "trace.overhead_frac": traced["job"] / plain["job"] - 1.0,
    }
    return {k: {"value": m[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def peak_rss_mb(children_before: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # set-up children ran before the job; count children only if one grew past them
    return max(own, kids if kids > children_before else 0) / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracer import Tracer

    wl = WORKLOADS[name]
    report = Report()
    base = REPO / ".perfbench"
    work = base / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = setup(wl, work, seed, 1 if trace else SETUP_REPS, report)
        import qsat2.cli  # noqa: F401  (already imported by the set-up children; here untimed)

        kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        passes = []
        if trace:
            plain = run_pass(wl, work, seed, 0)
            with Tracer() as tracer:
                traced = run_pass(wl, work, seed, 0, tracer)
            passes = [plain, traced]
            for key, text in plain["outputs"].items():
                same = text == traced["outputs"][key]
                report.lines(f"{key} traced vs untraced", 1, set() if same else {0})
        else:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(wl, work, seed, len(passes)))
                elapsed = time.perf_counter() - start
                if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
                    break
        checked = passes[:1] if trace else passes
        for run in checked:
            wl.check(run["outputs"], work, seed, run["index"], report)
        if isinstance(wl, Count) and len({tuple(sorted(p["outputs"].items())) for p in passes}) != 1:
            report.lines("repeat passes identical", 1, {0})

        sizes = wl.sizes(seed)
        if trace:
            metrics = layer_metrics(tracer.stats(), traced, plain, sizes)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "job_s": statistics.median(p["job"] for p in passes),
                "cpu_s": statistics.median(p["cpu"] for p in passes),
                "peak_rss_mb": peak_rss_mb(kids_rss),
            }
            metrics = {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}

        step_medians = {key: statistics.median(p["steps"][key] for p in checked) for key in passes[0]["steps"]}
        print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}")
        for key, m in metrics.items():
            print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
        if isinstance(wl, Sweep):
            tps = sizes["trials"] / step_medians["sweep_s"]
            print(f"  {'trials_per_s':34s} {tps:>14.6g} trials/s  (n={sizes['n']}, trials={sizes['trials']}, threads={sizes['threads']})")
        else:
            for key, val in step_medians.items():
                print(f"  {key:34s} {val:>14.6g} s")
        print(f"  {'wrong_frac':34s} {report.wrong_frac:>14.6g} share  ({report.failed}/{report.attempted} lines)")
        for problem in report.problems:
            print(f"  problem: {problem}")
        record = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "nproc": os.cpu_count(),
            "versions": _versions(),
            "sizes": sizes,
            "setup_s": setup_times,
            "passes": [{"index": p["index"], "job_s": p["job"], "cpu_s": p["cpu"], "steps": p["steps"],
                        "sha256": {k: _sha(v) for k, v in p["outputs"].items()}} for p in passes],
            "wrong_frac": report.wrong_frac,
        }
        print("record " + json.dumps(record, sort_keys=True))
        print(json.dumps({"correct": report.failed == 0, "attempted": report.attempted,
                          "failed": report.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process; metric names gain a workload prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    require_package()
    if args.setup_into:
        import qsat2.cli  # noqa: F401  (the import is part of set-up)

        WORKLOADS[args.workload].setup(Path(args.setup_into), args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
