"""The figure registry against the committed baselines, with no simulation.

Every committed ``benchmarks/baselines/BENCH_*.json`` must belong to a
registry figure, carry the verdicts its gates compute from the stored
``simulated`` + ``params`` sections, and hold exactly the cells the
figure declares.  Each gate is also shown to be live: perturbing the
observed value behind it flips that gate and no other.
"""

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.bench import cli, figures
from repro.bench.calibration import SMOKE_SCALE
from repro.bench.figures import BASELINE_FIGURES, FIGURES, verdict
from repro.obs.artifact import load_artifact
from repro.obs.compare import compare_artifacts

BASELINES = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
COMMITTED = sorted(path.stem[len("BENCH_"):] for path in BASELINES.glob("BENCH_*.json"))


def _load(name):
    return load_artifact(str(BASELINES / f"BENCH_{name}.json"))


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def _paths(tree, depth):
    if depth == 0:
        return [()]
    return [(key,) + rest for key, sub in tree.items() for rest in _paths(sub, depth - 1)]


def _set(cell, field, value):
    cell[field] = value


#: One perturbation per gate: (simulated, params) -> None, in place.
PERTURB = {
    ("fig5ablate", "full_stack_beats_plain"): lambda s, p: _set(
        s["coalesce+doorbell"], "ops_per_sec", s["plain"]["ops_per_sec"]
    ),
    ("fig8live", "live_pool_agrees_with_model"): lambda s, p: _set(
        s["sharded/2"], "agrees", False
    ),
    ("fig11sweep", "every_point_recovers"): lambda s, p: _set(
        s["sift/recovery-f2-p2"], "recovery_s", None
    ),
    ("fig11sweep", "recovery_strictly_decreasing"): lambda s, p: _set(
        s["sift/recovery-f2-p4"], "recovery_s", s["sift/recovery-f2-p1"]["recovery_s"]
    ),
    ("figMclients", "million_clients"): lambda s, p: _set(p, "n_clients", 999_999),
    ("figMclients", "underload_no_shed"): lambda s, p: _set(
        s["sharded/x0.25"]["shed"], "queue", 1
    ),
    ("figMclients", "overload_sheds"): lambda s, p: _set(
        s["sharded/x1.5"], "shed", {"queue": 0, "throttle": 0}
    ),
    ("figMclients", "slo_recorded"): lambda s, p: _set(s["sharded/x1.0"], "slo", {}),
    ("figHotspot", "autoscaled_tail_beats_static"): lambda s, p: _set(
        s["sharded/autoscaled"]["tails"]["after"], "p99.9",
        s["sharded/static"]["tails"]["after"]["p99.9"],
    ),
    ("figHotspot", "autoscaled_pool_cheaper"): lambda s, p: _set(
        s["sharded/autoscaled"]["pool"], "vm_seconds",
        s["sharded/static"]["pool"]["vm_seconds"],
    ),
    ("figHotspot", "reconciler_split"): lambda s, p: _set(
        s["sharded/autoscaled"]["control"], "splits", 0
    ),
    ("figHotspot", "reconciler_resized_pool"): lambda s, p: _set(
        s["sharded/autoscaled"]["control"], "pool_resizes", 0
    ),
    ("figHotspot", "zero_acked_write_loss"): lambda s, p: _set(
        s["sharded/static"]["probe"], "lost", 1
    ),
    ("figHotspot", "linearizable"): lambda s, p: _set(
        s["sharded/autoscaled"]["probe"], "lincheck_ok", False
    ),
}


def test_registry_baselines_are_the_committed_files():
    assert set(BASELINE_FIGURES) == set(COMMITTED)


def test_every_gate_has_a_perturbation():
    declared = {(name, gate) for name, fig in FIGURES.items() for gate in fig.gates}
    assert declared == set(PERTURB)
    assert len(declared) == 14


@pytest.mark.parametrize("name", COMMITTED)
def test_stored_gates_reproduce_and_pass(name):
    doc = _load(name)
    gates = FIGURES[name].check(doc["simulated"], doc["params"])
    assert _canonical(gates) == _canonical(doc["gates"])
    assert all(result["pass"] for result in gates.values())


@pytest.mark.parametrize("name", COMMITTED)
def test_declared_points_are_the_committed_cells(name):
    figure, doc = FIGURES[name], _load(name)
    params = {k: v for k, v in doc["params"].items() if k != "scale"}
    assert _canonical(figure.params(smoke=True)) == _canonical(params)
    points = figure.points(params, SMOKE_SCALE, doc["seeds"][0])
    paths = [figure.path(point.key) for point in points]
    assert len(set(paths)) == len(paths)
    assert set(paths) == set(_paths(doc["simulated"], len(paths[0])))


@pytest.mark.parametrize("name, gate", sorted(PERTURB))
def test_perturbing_the_observed_value_flips_exactly_that_gate(name, gate):
    doc = _load(name)
    simulated, params = copy.deepcopy(doc["simulated"]), copy.deepcopy(doc["params"])
    PERTURB[name, gate](simulated, params)
    after = FIGURES[name].check(simulated, params)
    flipped = {g for g in after if after[g]["pass"] != doc["gates"][g]["pass"]}
    assert flipped == {gate}


def test_failed_gate_fails_main_and_compare_names_it(tmp_path, monkeypatch, capsys):
    passing, failing = tmp_path / "passing", tmp_path / "failing"
    assert cli.main(["fig9", "--out-dir", str(passing)]) == 0
    broken = dataclasses.replace(
        FIGURES["fig9"], gates={"always_fails": lambda s, p: verdict(False, 1, 0)}
    )
    monkeypatch.setitem(figures.FIGURES, "fig9", broken)
    assert cli.main(["fig9", "--out-dir", str(failing)]) == 1
    assert "GATE FAILED fig9.always_fails" in capsys.readouterr().err
    doc = load_artifact(str(failing / "BENCH_fig9.json"))
    assert doc["gates"]["always_fails"] == {"pass": False, "observed": 1, "bound": 0}
    diffs = compare_artifacts(load_artifact(str(passing / "BENCH_fig9.json")), doc)
    assert any(line.startswith("gates.always_fails: FAILED") for line in diffs)
    # A baseline that already failed the gate does not hide the failure.
    assert compare_artifacts(doc, doc) == [
        "gates.always_fails: FAILED (observed 1, bound 0)"
    ]
