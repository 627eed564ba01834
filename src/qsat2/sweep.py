"""Seeded Monte Carlo sweeps over a density grid, emitting deterministic CSV.

Each (grid point, trial) cell gets its own seed derived from the master
seed, so results are independent of execution order and worker count; the
CSV is byte-identical across runs and thread settings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Optional

from .counting import ComponentCapError, check_component_cap, decomposition_value
from .graphs import (
    LATTICE_DIMS,
    MODELS,
    check_vertex_count,
    enumerate_dominoes,
    enumerate_figure_eights,
    sample_er_graph,
    sample_lattice,
)
from .instances import (
    CONDITIONINGS,
    FactorDistribution,
    Instance,
    ResampleBudgetError,
    sample_frustration_free_instance,
    sample_instance,
)
from .seeding import FACTOR_STREAM, GRAPH_STREAM, derive_trial_seed, stream_seed
from .structure import component_cutoff, decouple, figure_eight_frustrated


@dataclass(frozen=True)
class SweepConfig:
    model: str
    grid: tuple[float, ...]
    trials: int
    dist: FactorDistribution
    n: int = 0  # er only
    L: int = 0  # lattices only
    seed: int = 0
    cond: str = "any"  # any | free
    cutoff_c: float = 3.0
    max_component_qubits: int = 16
    fig8_l3: bool = False
    value: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        # a size the model does not read would be ignored, so it is refused
        if self.model == "er" and (self.n < 1 or self.L):
            raise ValueError(f"er sweeps need n >= 1 and no L, not n={self.n}, L={self.L}")
        if self.model != "er" and (self.L < 2 or self.n):
            raise ValueError(f"lattice sweeps need L >= 2 and no n, not L={self.L}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.grid:
            raise ValueError("empty grid")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must increase strictly")
        if self.cond not in CONDITIONINGS:
            raise ValueError("cond must be 'any' or 'free'")
        # everything a trial would reject, so a bad sweep fails before it runs
        if not all(math.isfinite(gv) and gv >= 0 for gv in self.grid):
            raise ValueError("grid values must be finite and non-negative")
        check_vertex_count(self.vertex_count)
        if self.model == "er":
            m, npairs = round(self.grid[-1] * self.n), self.n * (self.n - 1) // 2
            if m > npairs:
                raise ValueError(
                    f"grid value {self.grid[-1]!r} gives m={m} edges, "
                    f"more than the {npairs} vertex pairs of n={self.n}"
                )
        elif self.grid[-1] > 1:
            raise ValueError("lattice grid values are bond probabilities in [0, 1]")
        component_cutoff(self.vertex_count, self.cutoff_c)
        if self.value:
            check_component_cap(self.max_component_qubits)

    @property
    def vertex_count(self) -> int:
        """Vertices per instance: `n` for er, `L**d` for lattices."""
        return self.n if self.model == "er" else self.L ** LATTICE_DIMS[self.model]


@dataclass(frozen=True)
class TrialRecord:
    grid: float
    trial: int
    seed: int
    n: int
    m: int
    frustrated: Optional[bool] = None
    max_comp: int = 0
    multicyclic: int = 0
    frozen_core: int = 0
    residual_max: int = 0
    label: str = ""
    fig8_l3: Optional[int] = None
    dominoes: Optional[int] = None
    value: str = ""
    resamples: int = 0
    ms: int = 0  # always 0; the column keeps the CSV layout fixed

    def row(self) -> str:
        return ",".join(_cell(getattr(self, f.name)) for f in fields(self))


def _cell(value) -> str:
    """One CSV cell: None empty, a bool 0/1, a float its repr, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


COLUMNS = tuple(f.name for f in fields(TrialRecord))
CSV_HEADER = ",".join(COLUMNS)


def generate_instance(
    model: str,
    dist: FactorDistribution,
    seed: int,
    n: int = 0,
    m: int = 0,
    L: int = 0,
    p: float = 0.0,
    cond: str = "any",
) -> Instance:
    """Build graph and factors from one master seed via separate streams.

    The instance's recorded seed is the master, so a saved file regenerates
    bit-identically from it.  `model` is one of `MODELS` and `cond` one of
    `CONDITIONINGS`.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if cond not in CONDITIONINGS:
        raise ValueError(f"unknown conditioning {cond!r}")
    gseed = stream_seed(seed, GRAPH_STREAM)
    fseed = stream_seed(seed, FACTOR_STREAM)
    if model == "er":
        g = sample_er_graph(n, m, gseed)
    else:
        g = sample_lattice(LATTICE_DIMS[model], L, p, gseed)
    if cond == "free":
        inst = sample_frustration_free_instance(g, dist, fseed)
    else:
        inst = sample_instance(g, dist, fseed)
    return replace(inst, seed=seed)


def _run_trial(cfg: SweepConfig, gi: int, ti: int) -> TrialRecord:
    tseed = derive_trial_seed(cfg.seed, gi, ti)
    gv = cfg.grid[gi]
    kwargs = dict(model=cfg.model, dist=cfg.dist, seed=tseed, cond=cfg.cond)
    if cfg.model == "er":
        kwargs.update(n=cfg.n, m=round(gv * cfg.n))
    else:
        kwargs.update(L=cfg.L, p=gv)
    try:
        inst = generate_instance(**kwargs)
    except ResampleBudgetError:
        n = cfg.vertex_count
        return TrialRecord(gv, ti, tseed, n, 0, label="error:resample_budget")
    dec = decouple(inst, cfg.cutoff_c)
    fig8 = dominoes = None
    if cfg.fig8_l3:
        fig8 = sum(figure_eight_frustrated(inst, e) for e in enumerate_figure_eights(inst.graph, 3))
    if inst.graph.lattice is not None:
        dominoes = len(enumerate_dominoes(inst.graph))
    value = ""
    if cfg.value:
        try:
            value = str(decomposition_value(inst, dec, cfg.max_component_qubits))
        except ComponentCapError as e:
            value = f"NA:{e.size}"
    return TrialRecord(
        grid=gv,
        trial=ti,
        seed=tseed,
        n=inst.n,
        m=inst.m,
        frustrated=dec.label == "frustrated",
        max_comp=dec.report.max_size,
        multicyclic=dec.report.multicyclic_count,
        frozen_core=dec.frozen_core,
        residual_max=dec.residual_max,
        label=dec.label,
        fig8_l3=fig8,
        dominoes=dominoes,
        value=value,
        resamples=inst.resamples,
    )


def _summary_row(gv: float, recs: list[TrialRecord]) -> str:
    done = [r for r in recs if not r.label.startswith("error:")]
    cells = dict.fromkeys(COLUMNS, "")
    cells.update(grid=repr(gv), trial="summary")
    if done:
        cells["n"] = str(done[0].n)
        cells["frustrated"] = f"{sum(r.frustrated for r in done) / len(done):.6f}"
        cells["max_comp"] = f"{sum(r.max_comp for r in done) / len(done):.6f}"
        core = sum(Fraction(r.frozen_core, r.n) for r in done) / len(done)
        cells["frozen_core"] = f"{float(core):.6f}"
    return ",".join(cells.values())


def run_sweep(cfg: SweepConfig, threads: int = 1) -> str:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, not {threads}")
    tasks = [(gi, ti) for gi in range(len(cfg.grid)) for ti in range(cfg.trials)]
    if threads == 1:
        recs = [_run_trial(cfg, gi, ti) for gi, ti in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            recs = list(pool.map(lambda t: _run_trial(cfg, t[0], t[1]), tasks))
    lines = [CSV_HEADER] + [r.row() for r in recs]
    for gi, gv in enumerate(cfg.grid):
        lines.append(_summary_row(gv, recs[gi * cfg.trials : (gi + 1) * cfg.trials]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config files: plain key=value lines, # comments


def _convert(name: str, kind, text: str):
    """`kind(text)`, or a ValueError that names the setting and the text."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        msg = f"{name} takes {kind.__name__} values, not {text.strip()!r}"
        raise ValueError(msg) from None


def read_distribution(
    f: Optional[int], q: str, name: Callable[[str], str]
) -> FactorDistribution:
    """The factor distribution that a factor count `f` and a `q` setting give.

    `q` is "uniform", which needs f of at least 1, or a comma list of
    weights, whose length f must equal when given.  `name(key)` spells the
    setting `key` ("f" or "q") in error messages.
    """
    if q == "uniform":
        if f is None or f < 1:
            raise ValueError(f"{name('q')} uniform needs {name('f')} of at least 1")
        return FactorDistribution.uniform(f)
    weights = [_convert(name("q"), Fraction, tok) for tok in q.split(",")]
    if f is not None and f != len(weights):
        raise ValueError(f"{name('f')} is {f}, but q lists {len(weights)} weights")
    return FactorDistribution.from_weights(weights)


def read_cond(text: str) -> str:
    """The conditioning a setting names: "ff" spells "free"."""
    return "free" if text == "ff" else text


_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def parse_config(text: str) -> SweepConfig:
    kv: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        kv[key] = val

    def take(key: str, default: Optional[str] = None) -> Optional[str]:
        return kv.pop(key, default)

    def choice(key: str, choices, default: str) -> str:
        val = take(key, default)
        if val not in choices:
            raise ValueError(f"config key {key!r} takes one of {', '.join(choices)}, not {val!r}")
        return val

    def number(key: str, kind, default: str):
        return _convert(f"config key {key!r}", kind, take(key, default))

    model = take("model", "er")
    grid = tuple(
        _convert("config key 'grid'", float, tok)
        for tok in (take("grid") or "").split(",")
        if tok.strip()
    )
    trials = number("trials", int, "1")
    seed = number("seed", int, "0")
    fspec = take("f")
    f = None if fspec is None else _convert("config key 'f'", int, fspec)
    dist = read_distribution(f, take("q", "uniform"), lambda key: f"config key {key!r}")
    cfg = SweepConfig(
        model=model,
        grid=grid,
        trials=trials,
        dist=dist,
        n=number("n", int, "0"),
        L=number("L", int, "0"),
        seed=seed,
        cond=read_cond(choice("cond", ("any", "ff", "free"), "any")),
        cutoff_c=number("cutoff_c", float, "3.0"),
        max_component_qubits=number("max_component_qubits", int, "16"),
        fig8_l3=_BOOL[choice("fig8_l3", _BOOL, "off")],
        value=_BOOL[choice("value", _BOOL, "off")],
    )
    if kv:
        raise ValueError(f"unknown config keys: {', '.join(sorted(kv))}")
    return cfg
