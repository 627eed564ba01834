"""The benchmark's workloads: inputs from a seed, the timed job, output checks.

Every workload drives the package through its own command line entry point,
in process: ``qsat2 sweep`` for the two sweep workloads, ``qsat2 count`` and
``qsat2 analyze`` for the two counting workloads.  README.md beside this file
says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
GOLDEN = HERE / "golden"

# default seed: the sweeps start from the master seeds of the package's
# acceptance criteria, and it is the only seed with golden sweep output
DEFAULT_SEED = 0

CSV_HEADER = (
    "grid,trial,seed,n,m,frustrated,max_comp,multicyclic,frozen_core,"
    "residual_max,label,fig8_l3,dominoes,value,resamples,ms"
)


def require_package() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (REPO / "src" / "qsat2" / "__init__.py").is_file():
        print(f"error: no qsat2 sources under {REPO / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def run_cli(argv: list[str]) -> str:
    """One ``qsat2`` command in process; its stdout, or an error on a nonzero exit."""
    from qsat2 import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qsat2 {' '.join(argv)} exited {code}")
    return buf.getvalue()


class Report:
    """Output lines checked, and which of them are wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def lines(self, name: str, count: int, bad: set[int]) -> None:
        self.attempted += count
        self.failed += len(bad)
        if bad and len(self.problems) < 20:
            self.problems.append(f"{name}: {len(bad)} wrong line(s), first at line {min(bad)}")

    @property
    def wrong_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def compare_exact(out: list[str], gold: list[str]) -> set[int]:
    """Indices where two outputs differ, counting missing and extra lines."""
    bad = {i for i, (a, b) in enumerate(zip(out, gold)) if a != b}
    bad.update(range(min(len(out), len(gold)), max(len(out), len(gold))))
    return bad


def compare_multiset(out: list[str], gold: list[str]) -> set[int]:
    """Like compare_exact, but blind to line order (for relabelled instances)."""
    left = Counter(gold)
    bad = set()
    for i, line in enumerate(out):
        if left[line] > 0:
            left[line] -= 1
        else:
            bad.add(i)
    missing = sum(left.values())
    bad.update(range(len(out), len(out) + max(0, missing - len(bad))))
    return bad


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class Sweep:
    """``qsat2 sweep`` on one config; each pass of a run uses a fresh master seed.

    A pass is a short chunk of trials, so that a run holds several passes
    and its times are medians over them."""

    name: str
    base_seed: int
    grid: tuple[float, ...]
    n: int
    trials: int
    f: int
    cond: str  # config spelling: any | ff
    cutoff_c: float
    threads: int

    def master(self, seed: int, index: int) -> int:
        return self.base_seed + 1000 * seed + index

    def config_text(self, master: int) -> str:
        return (
            f"model = er\nn = {self.n}\ngrid = {', '.join(map(repr, self.grid))}\n"
            f"trials = {self.trials}\nf = {self.f}\nseed = {master}\n"
            f"cond = {self.cond}\ncutoff_c = {self.cutoff_c!r}\n"
        )

    def sizes(self, seed: int) -> dict:
        return {
            "n": self.n,
            "m": [round(g * self.n) for g in self.grid],
            "grid": list(self.grid),
            "trials": self.trials * len(self.grid),
            "threads": self.threads,
            "master_seed": self.master(seed, 0),
        }

    def setup(self, work: Path, seed: int) -> None:
        from qsat2.sweep import parse_config

        parse_config(self.config_text(self.master(seed, 0)))

    def job(self, work: Path, seed: int, index: int, on_step=None) -> tuple[dict, dict]:
        cfg = work / f"{self.name}-{index}.cfg"
        out = work / f"{self.name}-{index}.csv"
        cfg.write_text(self.config_text(self.master(seed, index)), encoding="utf-8")
        t0 = time.perf_counter()
        run_cli(["sweep", "--config", str(cfg), "--out", str(out), "--threads", str(self.threads)])
        wall = time.perf_counter() - t0
        if on_step is not None:
            on_step("sweep")
        return {"sweep": out.read_text(encoding="utf-8")}, {"sweep_s": wall}

    def golden_name(self, seed: int, index: int, output: str) -> Optional[str]:
        return f"{self.name}/pass{index}.csv" if seed == DEFAULT_SEED else None

    def check(self, outputs: dict, work: Path, seed: int, index: int, report: Report) -> None:
        lines = outputs["sweep"].splitlines()
        bad = self._invariants(lines, self.master(seed, index))
        report.lines(f"{self.name} pass {index} invariants", max(len(lines), 1 + max(bad, default=-1)), bad)
        golden = self.golden_name(seed, index, "sweep")
        if golden and (GOLDEN / golden).is_file():
            gold = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
            report.lines(f"{self.name} pass {index} vs golden", max(len(lines), len(gold)), compare_exact(lines, gold))

    def _invariants(self, lines: list[str], master: int) -> set[int]:
        """Rows that break the CSV contract in the package README."""
        from qsat2.seeding import derive_trial_seed

        cutoff = math.ceil(self.cutoff_c * math.log2(self.n))
        rows = self.trials * len(self.grid)
        expected = 1 + rows + len(self.grid)
        # extra lines, and missing ones past the end
        bad = set(range(expected, len(lines))) | set(range(len(lines), expected))
        if not lines or lines[0] != CSV_HEADER:
            bad.add(0)
        data: dict[int, list[list[str]]] = {}
        for i in range(1, min(len(lines), expected)):
            cells = lines[i].split(",")
            if len(cells) != 16:
                bad.add(i)
                continue
            if i <= rows:
                gi, ti = divmod(i - 1, self.trials)
                data.setdefault(gi, []).append(cells)
                if not self._row_ok(cells, gi, ti, derive_trial_seed(master, gi, ti), cutoff):
                    bad.add(i)
            else:
                gi = i - 1 - rows
                if cells != self._summary(gi, data.get(gi, [])):
                    bad.add(i)
        return bad

    def _row_ok(self, c: list[str], gi: int, ti: int, tseed: int, cutoff: int) -> bool:
        gv = self.grid[gi]
        try:
            max_comp, multi, core, res = int(c[6]), int(c[7]), int(c[8]), int(c[9])
            resamples = int(c[14])
        except ValueError:
            return False
        head = c[:5] == [repr(gv), str(ti), str(tseed), str(self.n), str(round(gv * self.n))]
        if not head or c[11:14] != ["", "", ""] or c[15] != "0":
            return False
        if resamples < 0 or (self.cond == "any" and resamples != 0):
            return False
        if not (0 <= res <= max_comp <= self.n and 0 <= core <= self.n and multi >= 0):
            return False
        if c[5] == "1":
            return c[10] == "frustrated" and res == max_comp and core == 0
        if c[5] != "0":
            return False
        return c[10] == _label(max_comp, res, cutoff)

    def _summary(self, gi: int, rows: list[list[str]]) -> list[str]:
        cells = [""] * 16
        cells[0] = repr(self.grid[gi])
        cells[1] = "summary"
        if rows:
            k = len(rows)
            cells[3] = str(self.n)
            cells[5] = f"{sum(int(r[5]) for r in rows) / k:.6f}"
            cells[6] = f"{sum(int(r[6]) for r in rows) / k:.6f}"
            core = sum(Fraction(int(r[8]), self.n) for r in rows) / k
            cells[8] = f"{float(core):.6f}"
        return cells


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class InstanceFile:
    """An ER instance file.  With ``search_cap`` set, the file is the first
    trial ``derive_trial_seed(seed, 0, t)`` that is satisfiable and whose
    largest residual component has exactly that many qubits."""

    tag: str
    n: int
    gamma: float
    f: int
    cond: str  # any | free
    seed: int
    search_cap: int = 0

    def text(self) -> str:
        from qsat2.instances import FactorDistribution, format_instance
        from qsat2.seeding import derive_trial_seed
        from qsat2.structure import decouple
        from qsat2.sweep import generate_instance

        dist = FactorDistribution.uniform(self.f)
        kwargs = dict(model="er", dist=dist, n=self.n, m=round(self.gamma * self.n), cond=self.cond)
        if not self.search_cap:
            return format_instance(generate_instance(seed=self.seed, **kwargs))
        for t in range(1000):
            inst = generate_instance(seed=derive_trial_seed(self.seed, 0, t), **kwargs)
            dec = decouple(inst)
            if dec.label != "frustrated" and dec.residual_max == self.search_cap:
                return format_instance(inst)
        raise RuntimeError(f"{self.tag}: no trial reaches the cap {self.search_cap}")


def relabel(text: str, seed: int) -> str:
    """The same instance under a seed-drawn vertex permutation (identity at seed 0).

    Ground-space dimensions, frozen sets and component shapes are invariant,
    so every seed's output equals the golden output up to line order and
    component ids, while the bytes the package reads differ.  The permutation
    keeps the relative order of the vertices inside each connected component:
    the counter lays a component's qubits out in vertex order, and the
    echelon step's fill-in depends on that layout, so the work stays the same
    on every seed.
    """
    if seed == DEFAULT_SEED:
        return text
    lines = text.splitlines()
    n = int(header_fields(text)["n"])
    raw = [line.split()[1:] for line in lines if line.startswith("E ")]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _, _ in raw:
        parent[find(int(u))] = find(int(v))
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    perm = [0] * n
    for comp in members.values():
        for v, new in zip(comp, sorted(shuffled[v] for v in comp)):
            perm[v] = new
    body = [line for line in lines if not line.startswith("E ")]
    edges = []
    for u, v, h, j in raw:
        a, b = perm[int(u)], perm[int(v)]
        edges.append((a, b, h, j) if a < b else (b, a, j, h))
    edges.sort(key=lambda e: (e[0], e[1]))
    body.extend(f"E {a} {b} {h} {j}" for a, b, h, j in edges)
    return "\n".join(body) + "\n"


def header_fields(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in text.splitlines()[1].split())


@dataclass(frozen=True)
class Count:
    """``qsat2 count`` / ``qsat2 analyze`` on instance files made at set-up."""

    name: str
    files: tuple[InstanceFile, ...]
    commands: tuple[tuple[str, str], ...]  # (subcommand, file tag)

    def path(self, work: Path, tag: str) -> Path:
        return work / f"{tag}.q2"

    def sizes(self, seed: int) -> dict:
        return {
            "files": {
                f.tag: {"n": f.n, "m": round(f.gamma * f.n), "f": f.f, "cond": f.cond, "seed": f.seed}
                for f in self.files
            },
            "commands": [f"{cmd} {tag}" for cmd, tag in self.commands],
            "threads": 1,
            "relabel_seed": seed,
        }

    def setup(self, work: Path, seed: int) -> None:
        for spec in self.files:
            self.path(work, spec.tag).write_text(relabel(spec.text(), seed), encoding="ascii")

    def job(self, work: Path, seed: int, index: int, on_step=None) -> tuple[dict, dict]:
        outputs, steps = {}, {}
        for cmd, tag in self.commands:
            key = f"{cmd}_{tag}"
            t0 = time.perf_counter()
            outputs[key] = run_cli([cmd, str(self.path(work, tag))])
            steps[f"{key}_s"] = time.perf_counter() - t0
            if on_step is not None:
                on_step(key)
        return outputs, steps

    def golden_name(self, seed: int, index: int, output: str) -> Optional[str]:
        return f"{self.name}/{output}.txt"

    def check(self, outputs: dict, work: Path, seed: int, index: int, report: Report) -> None:
        texts = {f.tag: self.path(work, f.tag).read_text(encoding="ascii") for f in self.files}
        for key, text in outputs.items():
            cmd, tag = key.split("_", 1)
            lines = text.splitlines()
            hdr = header_fields(texts[tag])
            inv = _count_bad(lines, hdr) if cmd == "count" else _analyze_bad(lines, hdr)
            report.lines(f"{key} invariants", max(len(lines), 1), inv)
            gold_path = GOLDEN / self.golden_name(seed, index, key)
            if gold_path.is_file():
                gold = gold_path.read_text(encoding="utf-8").splitlines()
                if seed == DEFAULT_SEED:
                    bad = compare_exact(lines, gold)
                else:
                    bad = compare_multiset([_canon(x) for x in lines], [_canon(x) for x in gold])
                report.lines(f"{key} vs golden", max(len(lines), len(gold)), bad)
        for tag in texts:
            count, analyze = outputs.get(f"count_{tag}"), outputs.get(f"analyze_{tag}")
            if count is not None and analyze is not None:
                ok = _count_matches_analyze(count.splitlines(), analyze.splitlines())
                report.lines(f"count/analyze {tag} agreement", 1, set() if ok else {0})


def _label(largest: int, residual: int, cutoff: int) -> str:
    """Phase label of a satisfiable instance or component (package README)."""
    if largest <= cutoff:
        return "highly_disconnected"
    return "highly_decoupled" if residual <= cutoff else "unclassified"


def _canon(line: str) -> str:
    """A count/analyze line without its component id, which relabelling permutes."""
    parts = line.split()
    return " ".join(parts[:1] + parts[2:]) if parts[:1] == ["C"] else line


def _count_bad(lines: list[str], hdr: dict) -> set[int]:
    """``C id k value`` lines then ``VALUE product``; satisfiable inputs only."""
    n = int(hdr["n"])
    bad, values, qubits = set(), [], 0
    for i, line in enumerate(lines[:-1]):
        parts = line.split()
        try:
            ok = len(parts) == 4 and parts[0] == "C" and int(parts[1]) == i
            k, val = int(parts[2]), int(parts[3])
        except (ValueError, IndexError):
            bad.add(i)
            continue
        if not ok or not (1 <= k and 1 <= val <= 1 << k):
            bad.add(i)
        values.append(val)
        qubits += k
    last = len(lines) - 1
    product = math.prod(values)
    if last < 0 or lines[last] != f"VALUE {product}" or qubits > n:
        bad.add(max(last, 0))
    return bad


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _analyze_bad(lines: list[str], hdr: dict) -> set[int]:
    """Header, ``C`` lines whose sizes cover every vertex, and a matching roll-up."""
    n = int(hdr["n"])
    cutoff = math.ceil(3.0 * math.log2(n))
    bad = set()
    head = f"instance n={hdr['n']} m={hdr['m']} f={hdr['f']} model={hdr['model']} cond={hdr['cond']}"
    if not lines or lines[0] != head:
        bad.add(0)
    if len(lines) < 2 or lines[1] != f"cutoff={cutoff} (c*log2(n))":
        bad.add(1)
    sizes, frozen, residual = [], 0, []
    for i in range(2, len(lines) - 1):
        fl = _fields(lines[i])
        try:
            ok = lines[i].split()[:2] == ["C", str(i - 2)]
            s, fz, r = int(fl["size"]), int(fl["frozen"]), int(fl["residual_max"])
        except (KeyError, ValueError):
            bad.add(i)
            continue
        if not ok or fl.get("class") not in ("tree", "unicyclic", "multicyclic"):
            bad.add(i)
        elif not (0 <= fz <= s and 0 <= r <= s) or fl.get("label") != _label(s, r, cutoff):
            bad.add(i)
        sizes.append(s)
        frozen += fz
        residual.append(r)
    last = len(lines) - 1
    g = _fields(lines[last]) if last >= 2 else {}
    expected = {
        "frustrated": "0",
        "label": _label(max(sizes, default=0), max(residual, default=0), cutoff),
        "frozen": str(frozen),
        "max_comp": str(max(sizes, default=0)),
        "residual_max": str(max(residual, default=0)),
    }
    if (
        last < 2
        or not lines[last].startswith("GLOBAL ")
        or sum(sizes) != n
        or any(g.get(k) != v for k, v in expected.items())
    ):
        bad.add(max(last, 0))
    return bad


def _count_matches_analyze(count: list[str], analyze: list[str]) -> bool:
    """Counted qubits are exactly the unfrozen ones, in the same largest piece."""
    try:
        n = int(_fields(analyze[0])["n"])
        g = _fields(analyze[-1])
        ks = [int(line.split()[2]) for line in count[:-1]]
        return sum(ks) == n - int(g["frozen"]) and max(ks, default=0) == int(g["residual_max"])
    except (IndexError, KeyError, ValueError):
        return False


# ---------------------------------------------------------------------------

FF4K = InstanceFile("ff4k", 4000, 2.5, 4, "free", 505)
FF8K = InstanceFile("ff8k", 8000, 2.5, 4, "free", 505)
RANK2K = InstanceFile("rank2k", 2000, 0.3, 2, "any", 9, search_cap=16)

WORKLOADS = {
    w.name: w
    for w in (
        Sweep("er_phase", 404, (0.3, 1.4), 4000, 20, 2, "any", 12 * math.log(2), 1),
        Sweep("ff_sweep", 505, (2.5,), 4000, 6, 4, "ff", 3.0, 2),
        Count("count_ff", (FF4K, FF8K), (("count", "ff4k"), ("count", "ff8k"), ("analyze", "ff8k"))),
        Count("count_rank", (RANK2K,), (("count", "rank2k"),)),
    )
}
