"""Outside-in stage tracer for the qsat2 package.

The tracer never edits the package.  While installed it replaces public
functions, and the query methods of ``TwoSatEngine``, with timing wrappers
in every ``qsat2`` module namespace that bound them (``from .x import f``
copies the function into the importing module, so ``decouple`` lives in
``structure``, ``sweep``, ``cli`` and the package root at once).  Leaving the
``with`` block restores every original binding.

Each wrapped call is a span with a name, a start, an end and a parent.
Parents are kept per thread.  A worker thread's outermost span is adopted by
the open ``sweep.run_sweep`` span, so the sweep's self time is its wall time
minus the union of its workers' trial intervals.  Spans are folded into
per-thread totals as they close: calls, inclusive seconds and self seconds
per name, plus integer counters.  A few names also keep every duration.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Optional

# span name -> (module, attribute).  Missing attributes are skipped, so a
# later refactor that renames a function shows up as a zero, not a crash.
FUNCTIONS = {
    "graphs.sample": ("graphs", "sample_er_graph"),
    "graphs.components": ("graphs", "components"),
    "instances.satisfiable": ("instances", "satisfiable"),
    "instances.sample_ff": ("instances", "sample_frustration_free_instance"),
    "instances.load": ("instances", "load_instance"),
    "structure.decouple": ("structure", "decouple"),
    "structure.fixed_states": ("structure", "fixed_states"),
    "structure.vertex_options": ("structure", "vertex_options"),
    "structure.frozen_subgraph": ("structure", "frozen_subgraph"),
    "counting.rank": ("counting", "component_rank"),
    "counting.component_value": ("counting", "component_value"),
    "sweep.run_sweep": ("sweep", "run_sweep"),
    "sweep.generate": ("sweep", "generate_instance"),
    "sweep.analyze": ("sweep", "analyze_instance"),
    # the sweep's per-trial unit of work; private, but it is the only
    # boundary that brackets exactly one trial
    "sweep.trial": ("sweep", "_run_trial"),
    "cli.main": ("cli", "main"),
}

METHODS = {
    "twosat.solve": "solve",
    "twosat.feasible": "feasible",
    "twosat.pinned_to": "pinned_to",
    "twosat.freeze": "freeze",
}

# spans whose every duration is kept, not just the total
KEEP_DURATIONS = ("sweep.trial",)
ADOPTER = "sweep.run_sweep"
# components up to this many qubits count as counting.rank_small
SMALL_RANK_QUBITS = 8


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _Frame:
    __slots__ = ("name", "start", "covered", "foreign", "adopter")

    def __init__(self, name: str, start: float, adopter: Optional["_Frame"]):
        self.name = name
        self.start = start
        self.covered = 0.0
        self.foreign: list[tuple[float, float]] = []
        self.adopter = adopter


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats()`` afterwards."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._adopter: Optional[_Frame] = None
        self._adopter_thread: Optional[int] = None

    # -- per-thread state ---------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {"spans": {}, "counts": {}, "durations": {}}
            self._local.stack = []
            self._local.adj = {}
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name: str, by: int = 1) -> None:
        counts = self._table()["counts"]
        counts[name] = counts.get(name, 0) + by

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        self._table()
        stack = self._local.stack
        adopter = None
        if not stack and self._adopter is not None:
            if threading.get_ident() != self._adopter_thread:
                adopter = self._adopter
        frame = _Frame(name, time.perf_counter(), adopter)
        stack.append(frame)
        if name == ADOPTER and self._adopter is None:
            self._adopter = frame
            self._adopter_thread = threading.get_ident()
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        dur = end - frame.start
        if frame is self._adopter:
            self._adopter = None
            self._adopter_thread = None
        covered = frame.covered
        if frame.foreign:
            with self._lock:
                covered += _union_length(frame.foreign)
        table = self._local.table
        rec = table["spans"].get(frame.name)
        if rec is None:
            rec = table["spans"][frame.name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - covered
        if frame.name in KEEP_DURATIONS:
            table["durations"].setdefault(frame.name, []).append(dur)
        if stack:
            stack[-1].covered += dur
        elif frame.adopter is not None:
            with self._lock:
                frame.adopter.foreign.append((frame.start, end))

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self
        classify = _rank_name if name == "counting.rank" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(classify(args) if classify else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame)
                if name == "counting.component_value" and type(exc).__name__ == "ComponentCapError":
                    tracer.count("counting.cap_errors")
                raise
            tracer._close(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__qsat2_traced__ = fn
        return wrapper

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qsat2" or name.startswith("qsat2."))
        }
        for span, (modname, attr) in FUNCTIONS.items():
            home = mods.get(f"qsat2.{modname}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original, HOOKS.get(span))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        engine = getattr(mods.get("qsat2.twosat"), "TwoSatEngine", None)
        for span, attr in METHODS.items():
            original = engine.__dict__.get(attr) if engine is not None else None
            if original is None:
                continue
            self._patches.append((engine, attr, original))
            setattr(engine, attr, self._wrap(span, original, HOOKS.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        """Merged totals: {"spans": {name: [calls, s, self_s]}, "counts", "durations"}."""
        out: dict = {"spans": {}, "counts": {}, "durations": {}}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, own) in table["spans"].items():
                rec = out["spans"].setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for name, val in table["counts"].items():
                out["counts"][name] = out["counts"].get(name, 0) + val
            for name, vals in table["durations"].items():
                out["durations"].setdefault(name, []).extend(vals)
        return out


def _rank_name(args: tuple) -> str:
    small = len(args[1]) <= SMALL_RANK_QUBITS
    return "counting.rank_small" if small else "counting.rank_large"


# -- counters taken from arguments and results ------------------------------


def _cap_trip(counter: str) -> Callable:
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        if result is None:
            tracer.count(counter)

    return hook


def _solve_hook(tracer: Tracer, args, kwargs, result) -> None:
    units = args[1] if len(args) > 1 else kwargs.get("units", ())
    if units:
        tracer.count("twosat.solve.unit_calls")


def _sample_ff_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("instances.resamples", result.resamples)


def _rank_rows_hook(tracer: Tracer, args, kwargs, result) -> None:
    """Rows the echelon step consumed, computed as edges * 2^(k-2) per pass.

    Every internal edge emits one row per assignment of the other k-2
    qubits; modular mode runs one pass per verification prime.
    """
    inst, component, config = args[0], args[1], args[2]
    adj = tracer._local.adj.get(id(inst))
    if adj is None or adj[0] is not inst:
        nbrs: dict[int, list[int]] = {}
        for u, v in inst.graph.edges:
            nbrs.setdefault(u, []).append(v)
        tracer._local.adj = {id(inst): (inst, nbrs)}
        adj = tracer._local.adj[id(inst)]
    nbrs = adj[1]
    comp = set(component)
    edges = sum(1 for u in comp for v in nbrs.get(u, ()) if v in comp)
    if edges and len(comp) >= 2:
        passes = 1 if config.mode == "exact_rational" else config.verify_primes
        tracer.count("counting.rows", edges * (1 << (len(comp) - 2)) * passes)


HOOKS = {
    "twosat.solve": _solve_hook,
    "twosat.feasible": _cap_trip("twosat.feasible.cap_trips"),
    "twosat.pinned_to": _cap_trip("twosat.pinned_to.cap_trips"),
    "instances.sample_ff": _sample_ff_hook,
    "counting.rank": _rank_rows_hook,
}
