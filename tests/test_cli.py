import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsat2.cli import main
from qsat2.graphs import Graph
from qsat2.instances import FactorDistribution, load_instance, satisfiable, save_instance
from qsat2.sweep import generate_instance

from oracles import reference_component_satisfiable, reference_components, reference_decouple


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_gen_analyze_count_pipeline(tmp_path, capsys):
    path = str(tmp_path / "a.q2")
    code, _, _ = run_cli(
        "gen", "--model", "er", "--n", "24", "--m", "12", "--f", "2",
        "--seed", "5", "--out", path, capsys=capsys,
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.n == 24 and inst.m == 12 and inst.seed == 5

    code, out, _ = run_cli("analyze", path, capsys=capsys)
    assert code == 0
    assert out.startswith("instance n=24 m=12 f=2 model=er")
    assert "GLOBAL " in out
    comp_lines = [ln for ln in out.splitlines() if ln.startswith("C ")]
    assert comp_lines
    assert all("label=" in ln for ln in comp_lines)

    code, out, _ = run_cli("count", path, capsys=capsys)
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert last.startswith("VALUE ")


def test_gen_writes_stdout_without_out(capsys):
    code, out, _ = run_cli(
        "gen", "--model", "er", "--n", "6", "--m", "3", "--f", "2", "--seed", "1",
        capsys=capsys,
    )
    assert code == 0
    assert out.startswith("QSAT2 v1\n")


def test_gen_weighted_q(tmp_path, capsys):
    path = str(tmp_path / "w.q2")
    code, _, _ = run_cli(
        "gen", "--model", "er", "--n", "8", "--m", "6", "--q", "2,1,1",
        "--seed", "3", "--out", path, capsys=capsys,
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.dist.f == 3
    from fractions import Fraction

    assert inst.dist.q == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_gen_conditioned(tmp_path, capsys):
    path = str(tmp_path / "ff.q2")
    code, _, _ = run_cli(
        "gen", "--model", "er", "--n", "30", "--m", "42", "--f", "2",
        "--cond", "ff", "--seed", "9", "--out", path, capsys=capsys,
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.conditioning == "free"

    from qsat2.instances import satisfiable

    assert satisfiable(inst)


def test_count_frustrated(tmp_path, capsys):
    # dense unconditioned instances at gamma ~ 2 are frustrated essentially
    # always; find one quickly and check the sentinel line
    path = str(tmp_path / "f.q2")
    for seed in range(10):
        run_cli(
            "gen", "--model", "er", "--n", "40", "--m", "80", "--f", "2",
            "--seed", str(seed), "--out", path, capsys=capsys,
        )
        inst = load_instance(path)
        from qsat2.instances import satisfiable

        if not satisfiable(inst):
            break
    else:
        pytest.skip("no frustrated sample found")
    code, out, _ = run_cli("count", path, capsys=capsys)
    assert code == 0
    assert out.strip() == "VALUE 0 FRUSTRATED"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.integers(0, 10**6),
    st.data(),
)
def test_analyze_frustrated_labels_match_reference(model, f, seed, data):
    # ER samples are often a frustrated giant component among trees; lattices
    # near percolation often hold several cyclic components, only some of
    # which clash
    if model == "er":
        n = data.draw(st.integers(20, 120))
        kw = dict(n=n, m=round(data.draw(st.floats(0.8, 2.0)) * n))
    else:
        kw = dict(L=data.draw(st.integers(10, 16)), p=data.draw(st.floats(0.5, 0.65)))
    inst = generate_instance(model, FactorDistribution.uniform(f), seed, **kw)
    assume(not satisfiable(inst))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fr.q2")
        save_instance(inst, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", path]) == 0
    comps = reference_components(inst.graph).components
    lines = [ln.split() for ln in out.getvalue().splitlines() if ln.startswith("C ")]
    assert [int(ln[1]) for ln in lines] == list(range(len(comps)))
    for ln, comp in zip(lines, comps):
        assert ln[2] == f"size={len(comp)}"
        assert (ln[-1] == "label=frustrated") == (not reference_component_satisfiable(inst, comp))
    assert "GLOBAL frustrated=1 label=frustrated" in out.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["er", "lat2"]),
    st.integers(2, 4),
    st.sampled_from(["any", "free"]),
    st.integers(0, 10**6),
    st.sampled_from([1.0, 1.5, 3.0]),
    st.data(),
)
def test_analyze_component_lines_match_reference(model, f, cond, seed, c, data):
    # small cutoffs against near-critical graphs give all three labels of a
    # satisfiable instance, sometimes several in one file
    if model == "er":
        n = data.draw(st.integers(20, 120))
        kw = dict(n=n, m=round(data.draw(st.floats(0.3, 2.5)) * n))
    else:
        kw = dict(L=data.draw(st.integers(6, 12)), p=data.draw(st.floats(0.4, 0.7)))
    inst = generate_instance(model, FactorDistribution.uniform(f), seed, cond=cond, **kw)
    assume(satisfiable(inst))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "i.q2")
        save_instance(inst, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", path, "--cutoff-c", str(c)]) == 0
    ref = reference_decouple(inst, c)
    lines = [ln.split() for ln in out.getvalue().splitlines() if ln.startswith("C ")]
    assert len(lines) == len(ref.report.components)
    for ln, comp in zip(lines, ref.report.components):
        members = set(comp)
        frozen = sum(1 for v in ref.frozen if v in members)
        residual_max = max((len(rc) for rc in ref.residual_components if rc[0] in members), default=0)
        if len(comp) <= ref.cutoff:
            label = "highly_disconnected"
        elif residual_max <= ref.cutoff:
            label = "highly_decoupled"
        else:
            label = "unclassified"
        assert ln[4:] == [f"frozen={frozen}", f"residual_max={residual_max}", f"label={label}"]
    assert f" label={ref.label} " in out.getvalue()


def test_count_cap_exit_code(tmp_path, capsys):
    path = str(tmp_path / "big.q2")
    run_cli(
        "gen", "--model", "er", "--n", "40", "--m", "56", "--f", "2",
        "--cond", "ff", "--seed", "5", "--out", path, capsys=capsys,
    )
    code, _, err = run_cli("count", path, "--max-component", "3", capsys=capsys)
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("cond", ["any", "ff"])
def test_count_bad_cap_exits_2_for_every_input(tmp_path, capsys, cond):
    # the unconditioned instance is frustrated and the conditioned one is not;
    # the cap is checked before either is read
    path = str(tmp_path / "i.q2")
    run_cli(
        "gen", "--model", "er", "--n", "300", "--m", "600", "--f", "2",
        "--cond", cond, "--seed", "0", "--out", path, capsys=capsys,
    )
    code, out, err = run_cli("count", path, "--max-component", "0", capsys=capsys)
    assert code == 2
    assert out == "" and "cap" in err


@pytest.mark.parametrize("c", ["inf", "nan", "-1", "0", "1e308"])
def test_analyze_bad_cutoff_exits_2(tmp_path, capsys, c):
    path = str(tmp_path / "i.q2")
    run_cli(
        "gen", "--model", "er", "--n", "40", "--m", "40", "--f", "2",
        "--seed", "0", "--out", path, capsys=capsys,
    )
    code, out, err = run_cli("analyze", path, "--cutoff-c", c, capsys=capsys)
    assert code == 2
    assert "cutoff_c" in err


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli("gen", "--model", "er", "--n", "5", "--f", "2", capsys=capsys)
    assert code == 2
    code, _, err = run_cli("xi", "--", "-0.5", capsys=capsys)
    assert code == 2
    code, _, _ = run_cli("gen", "--model", "er", "--n", "5", "--m", "3", "--q", "uniform", capsys=capsys)
    assert code == 2  # uniform without --f


def test_gen_oversize_n_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.q2"
    code, _, err = run_cli(
        "gen", "--n", "3000000000", "--m", "4", "--f", "2", "--out", str(out), capsys=capsys
    )
    assert code == 2 and "above 2147483647" in err
    assert not out.exists()


def test_pipeline_never_reads_the_edge_tuple_view(tmp_path, capsys, monkeypatch):
    # edges and factor pairs are read from the int64 edge arrays only
    def read(graph):
        raise AssertionError("Graph.edges was read")

    monkeypatch.setattr(Graph, "edges", property(read))
    # unconditioned: frustrated; conditioned: a frozen core and small residuals
    shapes = {"er": ["--n", "600", "--m", "1500"], "lat2": ["--L", "12", "--p", "0.9"]}
    for model, shape in shapes.items():
        for cond in ("any", "ff"):
            path = str(tmp_path / f"{model}_{cond}.q2")
            args = ["gen", "--model", model, *shape, "--f", "4", "--cond", cond, "--out", path]
            assert run_cli(*args, capsys=capsys)[0] == 0
            assert run_cli("count", path, capsys=capsys)[0] == 0
            assert run_cli("analyze", path, capsys=capsys)[0] == 0
    cfg = tmp_path / "s.cfg"
    cfg.write_text("model=er\nn=60\ngrid=0.3,1.2\ntrials=3\nf=3\ncond=ff\nseed=4\nvalue=on\n")
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out), capsys=capsys)[0] == 0
    assert out.read_text().count("\n") == 9  # header, 6 trials, 2 summaries


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_threads_below_1_exits_2_before_reading_the_config(tmp_path, capsys, threads):
    # the config does not exist: reading it first would exit 3
    missing, out = str(tmp_path / "missing.cfg"), tmp_path / "s.csv"
    code, _, err = run_cli(
        "sweep", "--config", missing, "--out", str(out), "--threads", threads, capsys=capsys
    )
    assert code == 2 and "--threads" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", [["gen", "--n", "10", "--m", "5"], ["predict"]])
@pytest.mark.parametrize("q, bad", [("1/0,1", "'1/0'"), ("1,abc", "'abc'")])
def test_bad_q_exits_2_and_names_the_option(capsys, cmd, q, bad):
    code, out, err = run_cli(*cmd, "--q", q, capsys=capsys)
    assert code == 2 and out == ""
    assert "--q" in err and bad in err


@pytest.mark.parametrize(
    "args, what",
    [
        (["--n", "0"], "n must"),
        (["--n", "-8"], "n must"),
        (["--p", "2"], "p must"),
        (["--p", "-1"], "p must"),
        (["--gamma", "nan"], "gamma must"),
    ],
)
def test_predict_out_of_domain_exits_2(capsys, args, what):
    code, out, err = run_cli("predict", "--f", "2", "--model", "lat2", *args, capsys=capsys)
    assert code == 2 and out == ""
    assert what in err


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_xi_non_finite_exits_2(capsys, rho):
    code, out, err = run_cli("xi", rho, capsys=capsys)
    assert code == 2 and out == ""
    assert "rho" in err


def test_parse_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.q2"
    bad.write_text("QSAT2 v1\nnot a header\n")
    code, _, err = run_cli("analyze", str(bad), capsys=capsys)
    assert code == 3
    code, _, _ = run_cli("count", str(tmp_path / "missing.q2"), capsys=capsys)
    assert code == 3


def test_predict_output(capsys):
    code, out, _ = run_cli("predict", "--f", "2", "--gamma", "1.4", capsys=capsys)
    assert code == 0
    lines = dict(
        ln.split(" = ", 1) for ln in out.strip().splitlines() if " = " in ln
    )
    assert lines["Q2"].startswith("1/2 = 0.5")
    assert lines["gamma_frustrate"].startswith("1 = 1.0")
    assert "decouple_condition" in lines


def test_xi_output(capsys):
    code, out, _ = run_cli("xi", "0.25", capsys=capsys)
    assert code == 0
    assert float(out.strip()) == 0.5


def test_sweep_cli_and_thread_identity(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("model=er\nn=60\ngrid=0.3,0.9\ntrials=3\nf=2\nq=uniform\nseed=4\n")
    out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = run_cli("sweep", "--config", str(cfg), "--out", str(out1), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli(
        "sweep", "--config", str(cfg), "--out", str(out4), "--threads", "4", capsys=capsys
    )
    assert code == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsat2.cli", "xi", "0.25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.5


def test_closed_stdout_exits_without_traceback(tmp_path):
    # about 2700 components, one analyze line each: far more than a pipe holds
    path = str(tmp_path / "r.q2")
    assert main(["gen", "--model", "er", "--n", "3000", "--m", "300", "--f", "2", "--out", path]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsat2.cli", "analyze", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"instance n=3000")
    assert err == b""
    assert proc.returncode == 1
