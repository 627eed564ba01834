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
from qsat2.instances import (
    EDGE_BLOCK,
    FactorDistribution,
    load_instance,
    satisfiable,
    save_instance,
)
from qsat2.sweep import generate_instance

from oracles import (
    reference_component_satisfiable,
    reference_components,
    reference_decouple,
    reference_label_groups,
)


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
    comps = reference_label_groups(reference_components(inst.graph).labels)
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
    comps = reference_label_groups(ref.report.labels)
    residual = reference_label_groups(ref.residual_labels)
    assert len(lines) == len(comps)
    for ln, comp in zip(lines, comps):
        members = set(comp)
        frozen = sum(1 for v in comp if ref.frozen[v] >= 0)
        residual_max = max((len(rc) for rc in residual if rc[0] in members), default=0)
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


@pytest.mark.parametrize(
    "shape, unread",
    [
        (["--model", "lat2", "--L", "4", "--p", "0.5", "--n", "100000"], "--n"),
        (["--model", "lat3", "--L", "3", "--p", "0.5", "--m", "7"], "--m"),
        (["--model", "er", "--n", "20", "--m", "10", "--L", "7"], "--L"),
        (["--model", "er", "--n", "20", "--m", "10", "--p", "0.5"], "--p"),
    ],
)
def test_gen_refuses_a_size_its_model_does_not_read(tmp_path, capsys, shape, unread):
    out = tmp_path / "x.q2"
    code, stdout, err = run_cli("gen", *shape, "--f", "2", "--out", str(out), capsys=capsys)
    assert (code, stdout) == (2, "")
    assert f"does not read {unread}" in err
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


@pytest.mark.parametrize("cmd", [["gen", "--n", "10", "--m", "5"], ["predict"]])
@pytest.mark.parametrize(
    "args, msg",
    [
        (["--q", "1/2,1/2", "--f", "3"], "--f is 3, but q lists 2 weights"),
        ([], "--q uniform needs --f of at least 1"),
        (["--f", "0"], "--q uniform needs --f of at least 1"),
    ],
)
def test_bad_f_exits_2_and_names_the_option(capsys, cmd, args, msg):
    code, out, err = run_cli(*cmd, *args, capsys=capsys)
    assert (code, out) == (2, "")
    assert msg in err


@pytest.mark.parametrize(
    "args, what",
    [
        (["--model", "lat2", "--n", "0"], "n must"),
        (["--model", "lat2", "--n", "-8"], "n must"),
        (["--model", "lat2", "--p", "2"], "p must"),
        (["--model", "lat2", "--p", "-1"], "p must"),
        (["--model", "er", "--gamma", "nan"], "gamma must"),
    ],
)
def test_predict_out_of_domain_exits_2(capsys, args, what):
    code, out, err = run_cli("predict", "--f", "2", *args, capsys=capsys)
    assert code == 2 and out == ""
    assert what in err


@pytest.mark.parametrize("model", ["lat2", "lat3"])
def test_predict_lattice_refuses_gamma(capsys, model):
    code, out, err = run_cli("predict", "--f", "4", "--model", model, "--gamma", "2.5", capsys=capsys)
    assert code == 2 and out == ""
    assert f"{model} model reads no gamma" in err


def test_predict_prints_no_er_density_thresholds_for_a_lattice(capsys):
    code, out, _ = run_cli("predict", "--f", "4", "--model", "lat2", "--p", "0.3", capsys=capsys)
    assert code == 0
    for name in ("gamma_disconnect", "gamma_frustrate", "decouple_condition"):
        assert f"\n{name} = n/a\n" in out
    # on er a missing frustration threshold is unbounded: Q2 = 0 at f = 1
    code, out, _ = run_cli("predict", "--f", "1", capsys=capsys)
    assert code == 0 and "\ngamma_frustrate = unbounded\n" in out


@pytest.mark.parametrize("args", [["--n", "100"], ["--p", "0.3"], ["--n", "100", "--p", "0.3"]])
def test_predict_er_refuses_n_and_p(capsys, args):
    code, out, err = run_cli(
        "predict", "--f", "2", "--model", "er", "--gamma", "0.5", *args, capsys=capsys
    )
    assert code == 2 and out == ""
    assert "er model reads no n and no p" in err


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_xi_non_finite_exits_2(capsys, rho):
    code, out, err = run_cli("xi", rho, capsys=capsys)
    assert code == 2 and out == ""
    assert "rho" in err


def test_bad_edge_line_in_second_block_exits_3(tmp_path, capsys):
    path = tmp_path / "big.q2"
    m = EDGE_BLOCK + 10
    assert run_cli("gen", "--n", "3000", "--m", str(m), "--f", "2", "--out", str(path))[0] == 0
    lines = path.read_text().splitlines()
    i = len(lines) - m + EDGE_BLOCK + 5
    lines[i] = lines[i].rsplit(" ", 1)[0]  # three numbers instead of four
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("count", str(path), capsys=capsys)
    assert (code, out) == (3, "")
    assert err == f"error: bad edge line {lines[i]!r}\n"


@pytest.mark.parametrize("spelled", ["00", "+1", "2_0", "-0"])
def test_non_canonical_edge_field_exits_3_naming_the_line(tmp_path, capsys, spelled):
    path = tmp_path / "i.q2"
    assert run_cli("gen", "--n", "8", "--m", "4", "--f", "2", "--out", str(path))[0] == 0
    lines = path.read_text().splitlines()
    parts = lines[-2].split(" ")
    parts[3] = spelled
    lines[-2] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("count", str(path), capsys=capsys)
    assert (code, out) == (3, "")
    assert err == f"error: non-canonical integer in edge line {lines[-2]!r}\n"


@pytest.mark.parametrize("brk", ["\f", "\v", "\x1c", "\x1d", "\x1e"])
def test_stray_line_break_in_an_edge_line_exits_3_naming_it(tmp_path, capsys, brk):
    path = tmp_path / "i.q2"
    assert run_cli("gen", "--n", "8", "--m", "4", "--f", "2", "--out", str(path))[0] == 0
    lines = path.read_text().splitlines()
    lines[-2] = lines[-2].replace(" ", brk)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("count", str(path), capsys=capsys)
    assert (code, out) == (3, "")
    assert err == f"error: line break inside line {lines[-2]!r}\n"


def test_parse_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.q2"
    bad.write_text("QSAT2 v1\nnot a header\n")
    code, _, err = run_cli("analyze", str(bad), capsys=capsys)
    assert code == 3
    code, _, _ = run_cli("count", str(tmp_path / "missing.q2"), capsys=capsys)
    assert code == 3
    # a valid file with one byte outside ASCII, and a directory
    good = tmp_path / "good.q2"
    assert run_cli("gen", "--n", "20", "--m", "10", "--f", "2", "--out", str(good))[0] == 0
    text = good.read_bytes()
    accented = tmp_path / "accented.q2"
    accented.write_bytes(text[:20] + b"\xe9" + text[21:])
    for path in (accented, tmp_path):
        for cmd in ("count", "analyze"):
            code, out, err = run_cli(cmd, str(path), capsys=capsys)
            assert (code, out) == (3, ""), (cmd, path)
            assert err.startswith("error: ")
    assert "non-ASCII byte at offset 20" in run_cli("count", str(accented), capsys=capsys)[2]
    # a header key given twice, even where the second n only adds an
    # isolated qubit, or a key the format does not define
    head, rest = text.split(b"\n", 2)[1:]
    for extra, key in ((b" n=21", "'n'"), (b" bogus=1", "'bogus'")):
        edited = tmp_path / "edited.q2"
        edited.write_bytes(b"QSAT2 v1\n" + head + extra + b"\n" + rest)
        for cmd in ("count", "analyze"):
            code, out, err = run_cli(cmd, str(edited), capsys=capsys)
            assert (code, out) == (3, ""), (cmd, extra)
            assert err.startswith("error: ") and key in err, (cmd, extra)
    # a negative resample count, like a negative n, m or f
    assert b" resamples=0" in head
    negative = tmp_path / "negative.q2"
    negative.write_bytes(text.replace(b" resamples=0", b" resamples=-7"))
    for cmd in ("count", "analyze"):
        code, out, err = run_cli(cmd, str(negative), capsys=capsys)
        assert (code, out) == (3, ""), cmd
        assert err == "error: negative count resamples=-7\n", cmd


def test_predict_output(capsys):
    code, out, _ = run_cli("predict", "--f", "2", "--gamma", "1.4", capsys=capsys)
    assert code == 0
    lines = dict(
        ln.split(" = ", 1) for ln in out.strip().splitlines() if " = " in ln
    )
    assert lines["Q2"].startswith("1/2 = 0.5")
    assert lines["gamma_frustrate"].startswith("1 = 1.0")
    assert "decouple_condition" in lines


@pytest.mark.parametrize(
    "f, gamma, want",
    [("4", "9e307", "1.3500000000000002e+308"), ("4", "1e308", "1.5e+308"), ("100", "1e308", "inf")],
)
def test_predict_decouple_condition_past_twice_gamma_overflow(capsys, f, gamma, want):
    # 2 * gamma is past the float range; the condition is not, or is inf
    # only where its value is
    code, out, _ = run_cli("predict", "--f", f, "--gamma", gamma, capsys=capsys)
    assert code == 0
    assert f"\ndecouple_condition = {want}\n" in out


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


def test_sweep_config_not_utf8_exits_2_and_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(b"model=er\nn=60\ngrid=0.3\ntrials=1\nf=2 # caf\xe9\n")
    out = tmp_path / "s.csv"
    code, _, err = run_cli("sweep", "--config", str(cfg), "--out", str(out), capsys=capsys)
    assert code == 2
    assert err == f"error: {cfg}: non-UTF-8 byte at offset 41\n"
    assert not out.exists()


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
