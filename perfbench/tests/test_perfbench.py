"""Tests of the benchmark itself: small end-to-end runs, and checks that fail.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import ops
import oracles
import run
import spans
from conftest import BENCH, ROOT

import mtphase

SMALL = {
    "phase-diagram": dict(run.WORKLOADS["phase-diagram"], rays=4,
                          resolutions={"canonical": (9, 8), "neumann-jump": (7, 6)}),
    "threshold-scan": dict(run.WORKLOADS["threshold-scan"], rays=8),
    "saturation": dict(run.WORKLOADS["saturation"], rays=2,
                       resolutions={"canonical": (5, 5), "neumann-jump": (5, 5)}),
}
PER_OPERATION = {"phase-diagram": 2, "saturate": 1, "transient": 1}


def _run_small(monkeypatch, capsys, workload, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, workload, SMALL[workload])
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_STEPS", 5)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_end_to_end(monkeypatch, capsys, workload):
    result = _run_small(monkeypatch, capsys, workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    spec = SMALL[workload]
    per_op = dict(PER_OPERATION, **{"threshold-scan": spec["rays"]})
    assert result["attempted"] == sum(per_op[name] for name in spec["schedule"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name]
        assert np.isfinite(entry["value"]) and entry["value"] > 0


def test_traced_run_reports_every_layer_and_restores_the_package(monkeypatch, capsys):
    original = mtphase.simulator.simulate, mtphase.simulator.Stepper.step_array
    result = _run_small(monkeypatch, capsys, "threshold-scan", trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, entry in result["metrics"].items():
        assert np.isfinite(entry["value"]), name
    assert (mtphase.simulator.simulate, mtphase.simulator.Stepper.step_array) == original
    with open(os.path.join(BENCH, "out", "trace-threshold-scan-seed3.json")) as handle:
        doc = json.load(handle)
    assert doc["by_name"]["threshold.find_threshold"]["calls"] > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "saturation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- each check rejects a wrong output ---------------------------------------


@pytest.fixture(scope="module")
def phase_diagram(tmp_path_factory):
    op = ops.PhaseDiagram(ROOT, str(tmp_path_factory.mktemp("pd")),
                          {"canonical": (9, 8), "neumann-jump": (7, 6)})
    op.prepare()
    outcome = op.execute()
    assert op.check(outcome) == []
    return op, outcome


def test_phase_diagram_runs_the_shipped_configs_as_they_are(tmp_path):
    op = ops.PhaseDiagram(ROOT, str(tmp_path))
    op.prepare()
    shipped = [inputs.config_path(ROOT, cfg) for cfg in inputs.SHIPPED_CONFIGS]
    assert [path for _, path, _, _ in op.jobs] == shipped
    resolutions = [mtphase.parse_config(path).sweep.resolution for path in shipped]
    assert [plane.resolution for *_, plane in op.jobs] == resolutions
    assert op.cells == sum(n1 * n2 for n1, n2 in resolutions)


def _edit_csv(path, edit):
    with open(path) as handle:
        lines = handle.read().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    with open(path, "w") as handle:
        handle.write("\n".join(",".join(r) for r in rows) + "\n")


def test_phase_diagram_check_rejects_a_flipped_region(phase_diagram, tmp_path):
    op, outcome = phase_diagram
    path = os.path.join(op.jobs[0][2], "phase-diagram.csv")
    saved = open(path).read()

    def flip(rows):
        for row in rows[1:]:
            if abs(float(row[5])) > 1e-3:
                row[4] = "stable" if row[4] == "unstable" else "unstable"
                return

    try:
        _edit_csv(path, flip)
        assert any("wrong region" in p for p in op.check(outcome))
    finally:
        open(path, "w").write(saved)


def test_phase_diagram_check_rejects_a_moved_curve_vertex(phase_diagram):
    op, outcome = phase_diagram
    path = os.path.join(op.jobs[1][2], "critical-curve.csv")
    saved = open(path).read()

    def move(rows):
        rows[1][1] = repr(float(rows[1][1]) * (1.0 + 1e-6))

    try:
        _edit_csv(path, move)
        assert any("critical-curve vertex" in p for p in op.check(outcome))
    finally:
        open(path, "w").write(saved)


@pytest.fixture(scope="module")
def scan():
    op = ops.ThresholdScan(seed=5, n_rays=2)
    op.prepare()
    outcome = op.execute()
    assert op.check(outcome) == []
    return op, outcome


@pytest.fixture(scope="module")
def rays(scan):
    return scan[1].output


def test_threshold_check_rejects_another_root(scan):
    op, outcome = scan
    tp, report = outcome.output[0]
    moved = dataclasses.replace(tp, ray_coord=tp.ray_coord * (1.0 + 1e-6))
    wrong = dataclasses.replace(outcome, output=[(moved, report), outcome.output[1]])
    assert any("generator" in p for p in op.check(wrong))


@pytest.mark.parametrize("index,field", [(0, "quadratic_coeff"), (1, "transition_number")])
def test_threshold_check_rejects_a_scaled_branch_coefficient(rays, index, field):
    tp, report = rays[index]
    wrong = dataclasses.replace(report, **{field: 1.3 * getattr(report, field)})
    assert any("reference" in p for p in ops.ThresholdScan._check_one(tp, wrong))


def test_threshold_check_rejects_a_flipped_verdict(rays):
    tp, report = rays[0]
    flipped = dataclasses.replace(tp.stability_report, passed=False,
                                  higher_modes_stable=False)
    tp_wrong = dataclasses.replace(tp, stability_report=flipped)
    problems = ops.ThresholdScan._check_one(tp_wrong, report)
    assert any("verdict" in p for p in problems)
    assert any("higher_modes_stable" in p for p in problems)


def test_threshold_check_rejects_a_point_off_the_threshold(rays):
    tp, report = rays[0]
    p = tp.lambda0
    moved = dataclasses.replace(tp, lambda0=p.replace(d1=p.d1 * 1.001))
    assert any("zero band" in p for p in ops.ThresholdScan._check_one(moved, report))


def test_saturate_check_rejects_a_perturbed_final_field():
    op = ops.Saturate(seed=1, mode="confirm")
    op.prepare()
    outcome = op.execute()
    assert op.check(outcome) == []
    result = outcome.output
    u = result.final_state.u * (1.0 + 1e-3)
    wrong = dataclasses.replace(result, final_state=mtphase.FieldState(t=0.0, u=u))
    assert op.check(ops.Outcome(0.0, 1, 0, wrong))
    unsaturated = dataclasses.replace(result, saturated=False)
    assert op.check(ops.Outcome(0.0, 1, 0, unsaturated))


@pytest.fixture(scope="module")
def transient(tmp_path_factory):
    op = ops.Transient(ROOT, str(tmp_path_factory.mktemp("sim")), seed=2, config="canonical")
    op.prepare()
    outcome = op.execute()
    assert op.check(outcome) == []
    return op, outcome


def test_transient_check_rejects_a_perturbed_final_field(transient):
    op, outcome = transient
    path = os.path.join(op.out, "final-state.csv")
    saved = open(path).read()

    def scale(rows):
        for row in rows[1:]:
            row[1:] = [repr(float(v) * (1.0 + 1e-3)) for v in row[1:]]

    try:
        _edit_csv(path, scale)
        assert any("Radau" in p for p in op.check(outcome))
    finally:
        open(path, "w").write(saved)


def test_transient_check_rejects_a_nonzero_mean(tmp_path):
    op = ops.Transient(ROOT, str(tmp_path), seed=2, config="neumann-jump")
    op.prepare()
    with open(op.path) as handle:
        text = handle.read().replace("T = 50.0", "T = 1.0")
    op.path = str(tmp_path / "short.ini")
    with open(op.path, "w") as handle:
        handle.write(text)
    outcome = op.execute()
    assert op.check(outcome) == []
    path = os.path.join(op.out, "final-state.csv")

    def shift(rows):
        for row in rows[1:]:
            row[1] = repr(float(row[1]) + 1e-9)

    _edit_csv(path, shift)
    problems = op.check(outcome)
    assert any("mean" in p for p in problems)
    assert not any("Radau" in p for p in problems)


# -- reference computations and spans ----------------------------------------


def test_reference_linearisation_and_steady_state():
    q = oracles.rates(dict(k1=1.3, k3=0.7, k5=2.1, k7=1.9, C1=0.8, E=1.1))
    ss = oracles.steady_state(q)
    assert np.abs(mtphase.reaction_rhs(q, ss)).max() < 1e-14
    A = oracles.linearisation(q)
    p = mtphase.ModelParams(k1=1.3, k3=0.7, k5=2.1, k7=1.9, C1=0.8, E=1.1,
                            d1=1, d2=1, d3=1, ell=3.0)
    assert np.abs(A - mtphase.linearization_matrix(p)).max() < 1e-14


def test_rays_are_seeded():
    a = inputs.draw_rays(np.random.default_rng([7, 1]), 6)
    b = inputs.draw_rays(np.random.default_rng([7, 1]), 6)
    c = inputs.draw_rays(np.random.default_rng([8, 1]), 6)
    assert a == b and a != c
    assert [r.bc for r in a] == ["dirichlet", "neumann-zero-average"] * 3


def test_slow_quartile_stays_within_the_samples():
    assert run.slow_quartile([0.3]) == 0.3
    assert run.slow_quartile([1.0, 2.0]) == 1.75
    assert run.slow_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 4.0
    assert run.slow_quartile([5.0, 1.0, 3.0, 2.0, 4.0], higher_is_slower=False) == 2.0


def test_span_self_times():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    outer, inner = tracer.spans
    assert inner[1] == outer[0]
    assert own[1] == inner[4] - inner[3]
    assert own[0] == (outer[4] - outer[3]) - (inner[4] - inner[3])
