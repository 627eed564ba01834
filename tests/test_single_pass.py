"""One whole-instance literal graph and one components pass per instance.

Deciding, freezing and decoupling share a single 2-SAT literal graph,
built by `twosat.literal_graph`: its SCC labels decide the instance and
order the backbone probes.  Every consumer (the counter, the sweep, the
CLI) reads the decomposition that `decouple` built instead of deciding the
instance again.  On a frustrated instance the same labels name the
frustrated components.  Code that needs
one component's edges reads them from the instance's incident index, which
is built once per instance.  Partitions travel as label arrays; only the
counter turns one into vertex tuples, once per instance it counts.
"""

from functools import cached_property

import pytest

import qsat2
import qsat2.cli
import qsat2.counting
import qsat2.graphs
import qsat2.instances
import qsat2.structure
import qsat2.sweep
import qsat2.twosat
from qsat2.cli import main
from qsat2.counting import decomposition_value, instance_value
from qsat2.instances import FactorDistribution, Instance, save_instance, satisfiable
from qsat2.structure import decouple
from qsat2.sweep import generate_instance, parse_config, run_sweep

import oracles

_MODULES = (
    qsat2,
    qsat2.twosat,
    qsat2.graphs,
    qsat2.instances,
    qsat2.structure,
    qsat2.counting,
    qsat2.sweep,
    qsat2.cli,
)


def _count_calls(monkeypatch, originals):
    """Wrap each named function wherever it is bound; return the call counts."""
    seen = dict.fromkeys(originals, 0)

    def counted(name):
        def wrapper(*args):
            seen[name] += 1
            return originals[name](*args)

        return wrapper

    # `from .graphs import components` copies the binding into each importer
    for name, original in originals.items():
        for mod in _MODULES:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name))
    return seen


@pytest.fixture
def calls(monkeypatch):
    """Count literal-graph builds and component passes."""
    return _count_calls(
        monkeypatch,
        {"literal_graph": qsat2.twosat.literal_graph, "components": qsat2.graphs.components},
    )


@pytest.fixture
def groupings(monkeypatch):
    """Count the calls that turn a label array into vertex tuples."""
    return _count_calls(monkeypatch, {"label_groups": qsat2.graphs.label_groups})


@pytest.fixture
def sat_instance():
    return generate_instance(
        model="er", dist=FactorDistribution.uniform(3), seed=11, n=60, m=100, cond="free"
    )


@pytest.fixture
def frustrated_instance():
    # a frustrated giant component next to satisfiable trees
    inst = generate_instance(
        model="er", dist=FactorDistribution.uniform(2), seed=0, n=300, m=600
    )
    dec = decouple(inst)
    assert dec.frustrated_components == (0,) and len(dec.report.sizes) > 1
    return inst


def _assert_single_pass(calls, per=1):
    assert calls == {"literal_graph": per, "components": per}


def test_decouple_solves_once(calls, sat_instance):
    dec = decouple(sat_instance)
    assert (dec.frozen >= 0).any() and dec.label != "frustrated"
    _assert_single_pass(calls)


def test_instance_value_solves_once(calls, sat_instance):
    assert instance_value(sat_instance) > 0
    _assert_single_pass(calls)


@pytest.mark.parametrize("command", ["count", "analyze"])
def test_cli_solves_once(
    calls, sat_instance, frustrated_instance, tmp_path, capsys, command
):
    for name, inst in (("sat", sat_instance), ("frustrated", frustrated_instance)):
        calls.update(literal_graph=0, components=0)
        path = str(tmp_path / f"{name}.q2")
        save_instance(inst, path)
        assert main([command, path]) == 0
        out = capsys.readouterr().out
        frustrated = "VALUE 0 FRUSTRATED" in out or "GLOBAL frustrated=1" in out
        assert frustrated == (name == "frustrated")
        _assert_single_pass(calls)


@pytest.mark.parametrize("value", ["on", "off"])
@pytest.mark.parametrize("cond", ["any", "ff"])
def test_sweep_trial_solves_once(calls, value, cond):
    cfg = parse_config(
        f"model=er\nn=80\ngrid=0.5,1.2\ntrials=3\nf=3\nq=uniform\nseed=6\n"
        f"cond={cond}\nvalue={value}\n"
    )
    run_sweep(cfg)
    _assert_single_pass(calls, per=6)


@pytest.mark.parametrize("model", ["er", "lat2"])
def test_sweep_groups_vertices_only_to_count_them(groupings, model):
    size = "n=80\ngrid=0.5,1.2\n" if model == "er" else "L=8\ngrid=0.4,0.6\n"
    text = f"model={model}\n{size}trials=3\nf=3\nseed=6\nfig8_l3=on\n"
    run_sweep(parse_config(text))
    assert groupings == {"label_groups": 0}
    rows = [ln.split(",") for ln in run_sweep(parse_config(text + "value=on\n")).splitlines()]
    solved = [r for r in rows[1:] if r[1] != "summary" and r[5] == "0"]
    assert 0 < len(solved) < 6  # frustrated trials too, which are not counted
    assert groupings == {"label_groups": len(solved)}


def test_cli_groups_vertices_only_to_count(
    groupings, sat_instance, frustrated_instance, tmp_path, capsys
):
    for name, inst in (("sat", sat_instance), ("frustrated", frustrated_instance)):
        path = str(tmp_path / f"{name}.q2")
        save_instance(inst, path)
        for command in ("count", "analyze"):
            groupings.update(label_groups=0)
            assert main([command, path]) == 0
            want = command == "count" and name == "sat"
            assert groupings == {"label_groups": int(want)}, (command, name)
    capsys.readouterr()


@pytest.fixture
def incident_builds(monkeypatch):
    """Count how often any instance builds its incident index."""
    builds = []
    build = Instance.incident.func

    def counted(inst):
        builds.append(inst)
        return build(inst)

    prop = cached_property(counted)
    prop.__set_name__(Instance, "incident")
    monkeypatch.setattr(Instance, "incident", prop)
    return builds


def test_count_builds_incident_index_once(incident_builds, sat_instance, tmp_path, capsys):
    path = str(tmp_path / "sat.q2")
    save_instance(sat_instance, path)
    assert main(["count", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 2  # several components
    assert len(incident_builds) == 1


def test_decomposition_value_builds_incident_index_once(incident_builds, sat_instance):
    dec = decouple(sat_instance)
    assert dec.residual_labels.max() > 0  # several residual components
    assert decomposition_value(sat_instance, dec) > 0
    assert incident_builds == [sat_instance]


def test_frustration_certificate_builds_no_incident_index(incident_builds, monkeypatch):
    # without loop explanations the certificate reads the frustrated
    # components of the one literal graph, which needs no incident index
    monkeypatch.setattr(oracles, "vertex_options", lambda inst: {})
    for seed in range(20):
        inst = generate_instance(
            model="er", dist=FactorDistribution.uniform(4), seed=seed, n=60, m=60
        )
        if not satisfiable(inst):
            break
    else:
        pytest.skip("no frustrated sample found")
    assert oracles.frustration_certificate(inst).kind == "twosat"
    assert incident_builds == []
