import re
from fractions import Fraction
from unittest import mock

import pytest

import qsat2.sweep as sweep_mod
from qsat2.instances import ResampleBudgetError, satisfiable
from qsat2.seeding import FACTOR_STREAM, GRAPH_STREAM, derive_trial_seed, stream_seed
from qsat2.structure import decouple
from qsat2.sweep import CSV_HEADER, SweepConfig, generate_instance, parse_config, run_sweep

BASE_CFG = """
model = er
n = 120
grid = 0.3, 1.0
trials = 4
f = 2
q = uniform
seed = 77
"""


def test_parse_config_round_trip():
    cfg = parse_config(BASE_CFG)
    assert cfg.model == "er" and cfg.n == 120
    assert cfg.grid == (0.3, 1.0)
    assert cfg.trials == 4 and cfg.seed == 77
    assert cfg.dist.f == 2
    assert cfg.cond == "any"
    assert not cfg.fig8_l3 and not cfg.value


def test_parse_config_weighted_q_and_flags():
    cfg = parse_config(
        "model=lat2\nL=8\ngrid=0.5\ntrials=2\nq=3,2,1\nf=3\nseed=0\n"
        "fig8_l3=on\nvalue=on\ncutoff_c=2.5\nmax_component_qubits=12\ncond=ff\n"
    )
    assert cfg.model == "lat2" and cfg.L == 8
    assert cfg.dist.q == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert cfg.cond == "free"
    assert cfg.fig8_l3 and cfg.value
    assert cfg.cutoff_c == 2.5 and cfg.max_component_qubits == 12


@pytest.mark.parametrize(
    "text,msg",
    [
        ("model=er\ngrid=1.0\ntrials=1\nf=2\nq=uniform\n", "n"),
        ("model=er\nn=10\ngrid=\ntrials=1\nf=2\nq=uniform\n", "grid"),
        ("model=er\nn=10\ngrid=1.0,0.5\ntrials=1\nf=2\nq=uniform\n", "grid"),
        ("model=er\nn=10\ngrid=1.0\ntrials=0\nf=2\nq=uniform\n", "trials"),
        ("model=zz\nn=10\ngrid=1.0\ntrials=1\nf=2\nq=uniform\n", "model"),
        ("model=er\nn=10\ngrid=1.0\ntrials=1\nf=2\nq=uniform\nbogus=1\n", "bogus"),
        ("model=er\nn=10\nn=11\ngrid=1.0\ntrials=1\nf=2\nq=uniform\n", "duplicate"),
        ("model=er\nn=10\ngrid=1.0\ntrials=1\nq=uniform\n", "f"),
        ("model=lat2\ngrid=0.5\ntrials=1\nf=2\nq=uniform\n", "L"),
        ("model=er\nn=10\ngrid=1.0\ntrials=1\nf=2\nq=uniform\ntiming=off\n", "timing"),
    ],
)
def test_parse_config_rejects(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_config(text)


def test_generate_instance_records_master_seed():
    cfg = parse_config(BASE_CFG)
    seed = derive_trial_seed(cfg.seed, 0, 0)
    inst = generate_instance(model="er", dist=cfg.dist, seed=seed, n=120, m=36)
    assert inst.seed == seed
    # regenerating from the recorded seed reproduces the instance exactly
    again = generate_instance(model="er", dist=cfg.dist, seed=inst.seed, n=120, m=36)
    assert again == inst
    # graph and factors come from distinct derived streams
    from qsat2.graphs import sample_er_graph

    assert inst.graph == sample_er_graph(120, 36, stream_seed(seed, GRAPH_STREAM))


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(model="ER", n=27, m=10), "unknown model 'ER'"),
        (dict(model="er", n=27, m=10, cond="ff"), "unknown conditioning 'ff'"),
        (dict(model="lat2", L=3, p=0.5, cond="frustration-free"), "'frustration-free'"),
    ],
)
def test_generate_instance_rejects_unknown_model_and_cond(kwargs, msg):
    dist = parse_config(BASE_CFG).dist
    with pytest.raises(ValueError, match=msg):
        generate_instance(dist=dist, seed=1, **kwargs)


def test_generate_instance_conditioned():
    cfg = parse_config(BASE_CFG)
    inst = generate_instance(
        model="er", dist=cfg.dist, seed=123, n=40, m=56, cond="free"
    )
    assert inst.conditioning == "free"
    assert satisfiable(inst)


def test_csv_shape_and_summary():
    cfg = parse_config(BASE_CFG)
    out = run_sweep(cfg)
    lines = out.strip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    ncols = len(CSV_HEADER.split(","))
    assert all(len(ln.split(",")) == ncols for ln in lines)
    data = lines[1 : 1 + 2 * 4]
    summaries = lines[1 + 2 * 4 :]
    assert len(summaries) == 2
    # summary rows recompute from their data block
    for gi, gv in enumerate(cfg.grid):
        block = [ln.split(",") for ln in data[gi * 4 : (gi + 1) * 4]]
        srow = summaries[gi].split(",")
        assert srow[0] == repr(gv) and srow[1] == "summary"
        frac = sum(int(r[5]) for r in block) / 4
        assert srow[5] == f"{frac:.6f}"
        mean_max = sum(int(r[6]) for r in block) / 4
        assert srow[6] == f"{mean_max:.6f}"
        mean_core = float(sum(Fraction(int(r[8]), int(r[3])) for r in block) / 4)
        assert srow[8] == f"{mean_core:.6f}"


def test_csv_header_is_pinned():
    # perfbench and the README spell the header out; it must not drift
    assert CSV_HEADER == (
        "grid,trial,seed,n,m,frustrated,max_comp,multicyclic,frozen_core,"
        "residual_max,label,fig8_l3,dominoes,value,resamples,ms"
    )


def test_row_cells_follow_one_rule():
    rec = sweep_mod.TrialRecord(0.1, 2, 3, 4, 5, frustrated=True, fig8_l3=0, value="NA:17")
    assert rec.row() == "0.1,2,3,4,5,1,0,0,0,0,,0,,NA:17,0,0"
    err = sweep_mod.TrialRecord(1e-05, 0, 9, 16, 0, label="error:resample_budget")
    assert err.row() == "1e-05,0,9,16,0,,0,0,0,0,error:resample_budget,,,,0,0"


def test_csv_thread_count_invariant():
    cfg = parse_config(BASE_CFG)
    assert run_sweep(cfg, threads=1) == run_sweep(cfg, threads=4)


def test_rows_reproducible_from_seed_column():
    cfg = parse_config(BASE_CFG)
    out = run_sweep(cfg)
    row = out.strip().split("\n")[1].split(",")
    seed, n, m = int(row[2]), int(row[3]), int(row[4])
    assert seed == derive_trial_seed(77, 0, 0)
    inst = generate_instance(model="er", dist=cfg.dist, seed=seed, n=n, m=m)
    dec = decouple(inst, cfg.cutoff_c)
    assert str(int(dec.label == "frustrated")) == row[5]
    assert str(dec.report.max_size) == row[6]
    assert str(dec.report.multicyclic_count) == row[7]
    assert str(dec.frozen_core) == row[8]
    assert str(dec.residual_max) == row[9]
    assert dec.label == row[10]


def test_error_rows_skipped_in_summary():
    cfg = parse_config("model=er\nn=20\ngrid=1.0\ntrials=3\nf=2\nq=uniform\nseed=5\ncond=ff\n")
    real = sweep_mod.generate_instance
    calls = [0]

    def flaky(**kw):
        calls[0] += 1
        if calls[0] == 2:
            raise ResampleBudgetError(0, 1, 7)
        return real(**kw)

    with mock.patch.object(sweep_mod, "generate_instance", flaky):
        out = run_sweep(cfg)
    lines = out.strip().split("\n")
    data = [ln.split(",") for ln in lines[1:4]]
    assert data[1][10] == "error:resample_budget"
    assert data[1][3] == "20" and data[1][5] == ""
    summary = lines[4].split(",")
    good = [data[0], data[2]]
    assert summary[5] == f"{sum(int(r[5]) for r in good) / 2:.6f}"


@pytest.mark.parametrize(
    "model, size, count", [("er", "n=20", 20), ("lat2", "L=6", 36), ("lat3", "L=4", 64)]
)
def test_vertex_count_per_model(model, size, count):
    cfg = parse_config(f"model={model}\n{size}\ngrid=0.5\ntrials=1\nf=2\n")
    assert cfg.vertex_count == count


def test_lattice_sweep_has_domino_column():
    cfg = parse_config("model=lat2\nL=6\ngrid=0.4\ntrials=2\nf=2\nq=uniform\nseed=1\n")
    out = run_sweep(cfg)
    for ln in out.strip().split("\n")[1:3]:
        cells = ln.split(",")
        assert cells[12] != ""  # dominoes counted for lattices
        assert int(cells[12]) >= 0


def test_er_sweep_leaves_optional_columns_empty():
    cfg = parse_config(BASE_CFG)
    out = run_sweep(cfg)
    for ln in out.strip().split("\n")[1:9]:
        cells = ln.split(",")
        assert cells[11] == "" and cells[12] == "" and cells[13] == ""
        assert cells[15] == "0"  # ms always reads 0


def test_value_column_decimal_or_na():
    cfg = parse_config(
        "model=er\nn=30\ngrid=0.4\ntrials=4\nf=2\nq=uniform\nseed=3\nvalue=on\n"
    )
    out = run_sweep(cfg)
    for ln in out.strip().split("\n")[1:5]:
        cells = ln.split(",")
        assert cells[13] == "0" or cells[13].isdigit() or cells[13].startswith("NA:")


def test_run_sweep_rejects_fewer_than_one_thread():
    cfg = parse_config(BASE_CFG)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(cfg, threads=threads)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(model="er", grid=(1.0,), trials=1, dist=parse_config(BASE_CFG).dist, n=0)
    with pytest.raises(ValueError):
        SweepConfig(model="lat2", grid=(0.5,), trials=1, dist=parse_config(BASE_CFG).dist, L=1)


# each of these would abort a sweep mid-run if parsing let it through
INVALID_SWEEPS = {
    "er_too_dense": ("model=er\nn=5\ngrid=0.5,3.0\ntrials=2\nf=2\n", "m=15"),
    "negative_grid": ("model=er\nn=50\ngrid=-1.0\ntrials=2\nf=2\n", "non-negative"),
    "bond_probability": ("model=lat2\nL=4\ngrid=1.5\ntrials=2\nf=2\n", r"\[0, 1\]"),
    "er_oversize_n": ("model=er\nn=2147483648\ngrid=1.0\ntrials=2\nf=2\n", "above 2147483647"),
    "lat3_oversize_n": ("model=lat3\nL=1291\ngrid=0.5\ntrials=2\nf=2\n", "above 2147483647"),
    "value_cap_zero": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\nvalue=on\nmax_component_qubits=0\n",
        "cap",
    ),
    "cutoff_inf": ("model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\ncutoff_c=inf\n", "cutoff_c"),
    # finite times log2 2, infinite times log2 50: checked at the sweep's own n
    "cutoff_overflow_at_n": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\ncutoff_c=1e308\n",
        "cutoff_c",
    ),
    "cutoff_nan": ("model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\ncutoff_c=nan\n", "cutoff_c"),
    "cutoff_negative": ("model=lat2\nL=4\ngrid=0.5\ntrials=2\nf=2\ncutoff_c=-1\n", "cutoff_c"),
    "bad_boolean": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\nvalue=yes\n",
        "'value'.*on, true, 1, off, false, 0.*'yes'",
    ),
    "trials_not_int": ("model=er\nn=50\ngrid=1.0\ntrials=x\nf=2\n", "'trials'.*int.*'x'"),
    "grid_not_float": ("model=er\nn=50\ngrid=1.0, abc\ntrials=2\nf=2\n", "'grid'.*float.*'abc'"),
    "q_not_fraction": ("model=er\nn=50\ngrid=1.0\ntrials=2\nq=1/2, x\n", "'q'.*Fraction.*'x'"),
    "cutoff_not_float": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\ncutoff_c=abc\n",
        "'cutoff_c'.*float.*'abc'",
    ),
    "f_not_int_with_q_list": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nq=1/2,1/2\nf=two\n",
        "'f'.*int.*'two'",
    ),
    "f_disagrees_with_q_list": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nq=1/2,1/2\nf=3\n",
        "'f' is 3, but q lists 2 weights",
    ),
    "lat2_reads_no_n": ("model=lat2\nL=4\nn=100000\ngrid=0.5\ntrials=2\nf=2\n", "no n, not L=4, n=100000"),
    "er_reads_no_L": ("model=er\nn=50\nL=7\ngrid=1.0\ntrials=2\nf=2\n", "no L, not n=50, L=7"),
    "cond_spelling": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\nf=2\ncond=xx\n",
        "config key 'cond' takes one of any, ff, free, not 'xx'",
    ),
    "uniform_without_f": (
        "model=er\nn=50\ngrid=1.0\ntrials=2\n",
        "config key 'q' uniform needs config key 'f' of at least 1",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_SWEEPS))
def test_parse_config_rejects_what_a_trial_would(case):
    text, msg = INVALID_SWEEPS[case]
    with pytest.raises(ValueError, match=msg):
        parse_config(text)


@pytest.mark.parametrize("case", sorted(INVALID_SWEEPS))
def test_sweep_cli_exits_2_before_any_trial(case, tmp_path, capsys):
    from qsat2.cli import main

    text, msg = INVALID_SWEEPS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    with mock.patch.object(sweep_mod, "_run_trial", side_effect=AssertionError("trial ran")):
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and re.search(msg, err)
    assert not out.exists()


def test_cap_zero_allowed_without_value():
    cfg = parse_config("model=er\nn=50\ngrid=1.0\ntrials=1\nf=2\nmax_component_qubits=0\n")
    assert cfg.max_component_qubits == 0 and not cfg.value
