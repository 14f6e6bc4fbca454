"""End-to-end command line behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from mtphase import (
    MTPhaseError,
    classify_region,
    main,
    parse_config,
    principal_eigenvalue,
    read_manifest,
    sha256_file,
)
from mtphase.output import MANIFEST_NAME, PHASE_DIAGRAM_COLUMNS, format_value

CANONICAL = """\
[model]
k1 = 1.0
k3 = 1.0
k5 = 1.0
k7 = 2.0
C1 = 1.0
E = 1.0
d1 = 0.12
d2 = 0.12
d3 = 0.12

[domain]
ell = 3.141592653589793

[analysis]
M_max = 30
ray = d1:1,d2:1,d3:1
bracket = 0.05,1.0

[simulate]
N = 32
dt = auto
T = 2.0
ic = random:0.0001
seed = 5
record_every = 10

[sweep]
axis1 = d1:1,d2:1,d3:1
range1 = 0.08,0.4
axis2 = k7
range2 = 1.5,2.5
resolution = 4,3

[output]
directory = out
formats = csv
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CANONICAL)
    return str(path)


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["steady-state", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CANONICAL + "\n[model2]\nk1 = 1\n")
    rc = main(["steady-state", "--config", str(path)])
    assert rc == 2
    assert "model2" in capsys.readouterr().err


def test_non_finite_config_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(CANONICAL.replace("dt = auto", "dt = nan"))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "stable.ini"
    path.write_text(CANONICAL.replace("bracket = 0.05,1.0", "bracket = 0.3,0.9"))
    rc = main(["threshold", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_internal_error_exit_code(config_path, tmp_path, monkeypatch, capsys):
    from mtphase import artifacts

    def boom(config, out_dir):
        raise RuntimeError("unexpected")

    monkeypatch.delenv("MTPHASE_DEBUG", raising=False)
    monkeypatch.setattr(artifacts, "run_steady_state", boom)
    rc = main(["steady-state", "--config", config_path, "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "internal error" in capsys.readouterr().err


def test_steady_state_writes_artifact_and_manifest(config_path, tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = main(["steady-state", "--config", config_path, "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("wrote ") for line in lines)
    csv_path = os.path.join(out, "steady-state.csv")
    assert os.path.exists(csv_path)
    entries = read_manifest(os.path.join(out, MANIFEST_NAME))
    assert entries["sha256:steady-state.csv"] == sha256_file(csv_path)


def test_threshold_artifact_schema(config_path, tmp_path):
    out = str(tmp_path / "o")
    assert main(["threshold", "--config", config_path, "--out", out]) == 0
    with open(os.path.join(out, "threshold.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["ray_coord"]) == pytest.approx(0.1700864866, abs=1e-8)
    assert row["cond2_ok"] == "true"
    assert abs(float(row["sigma11_re"])) <= 1e-8
    assert set(row) == {
        "ray_coord", "k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3",
        "ell", "detE1", "sigma11_re", "sigma11_im", "cond2_ok",
    }


def test_simulate_seed_determinism(config_path, tmp_path):
    out1, out2, out3 = (str(tmp_path / n) for n in ("a", "b", "c"))
    assert main(["simulate", "--config", config_path, "--out", out1, "--seed", "9"]) == 0
    assert main(["simulate", "--config", config_path, "--out", out2, "--seed", "9"]) == 0
    assert main(["simulate", "--config", config_path, "--out", out3, "--seed", "10"]) == 0
    read = lambda d: (Path(d) / "simulate.csv").read_bytes()
    assert read(out1) == read(out2)
    assert read(out1) != read(out3)


@pytest.mark.parametrize(
    "range1, range2, error",
    [
        ((-0.1, 0.4), (1.5, 2.5), "NonPositiveParameter"),  # first row: d <= 0
        ((0.08, 0.4), (0.2, 2.5), "K1NotPositive"),  # first column: k7 = 0.2
    ],
)
def test_phase_diagram_rows_are_the_grid_in_row_major_order(tmp_path, range1, range2, error):
    path = tmp_path / "edge.ini"
    path.write_text(CANONICAL.replace("range1 = 0.08,0.4", "range1 = %r,%r" % range1)
                    .replace("range2 = 1.5,2.5", "range2 = %r,%r" % range2))
    out = str(tmp_path / "pd")
    assert main(["phase-diagram", "--config", str(path), "--out", out]) == 0

    plane = parse_config(str(path)).plane()
    expected = []
    for i, s in enumerate(np.linspace(*range1, 4).tolist()):
        for j, t in enumerate(np.linspace(*range2, 3).tolist()):
            try:
                r = classify_region(plane.at(s, t))
                cells = [r.region.value, r.sigma11.real, r.sigma11.imag, r.cond2_ok, None]
            except MTPhaseError as exc:
                cells = [None] * 4 + [f"{type(exc).__name__}: {exc}"]
            expected.append([format_value(v) for v in [i, j, s, t, *cells]])
    with open(os.path.join(out, "phase-diagram.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == PHASE_DIAGRAM_COLUMNS
    assert rows[1:] == expected
    assert {row[-1].split(":")[0] for row in expected} == {"", error}
    assert {row[4] for row in expected} == {"", "stable", "unstable"}


@pytest.mark.parametrize(
    "range1, range2", [((-0.1, 0.4), (0.6, 2.5)), ((-0.05, 0.6), (0.5, 3.0))]
)
def test_critical_curve_up_to_the_infeasible_edge(tmp_path, range1, range2):
    # In these windows the critical curve runs toward d = 0, where the
    # bracket of a vertex's polish reaches negative diffusivities.  The
    # tracer must keep to feasible points and finish the curve.
    path = tmp_path / "edge.ini"
    path.write_text(CANONICAL.replace("range1 = 0.08,0.4", "range1 = %r,%r" % range1)
                    .replace("range2 = 1.5,2.5", "range2 = %r,%r" % range2))
    out = str(tmp_path / "pd")
    assert main(["phase-diagram", "--config", str(path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, MANIFEST_NAME))
    plane = parse_config(str(path)).plane()
    with open(os.path.join(out, "critical-curve.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    for row in rows:
        p = plane.at(float(row["coord1"]), float(row["coord2"]))  # raises if infeasible
        assert abs(principal_eigenvalue(p).real) <= 1e-8


def test_verify_subset_and_csv(tmp_path):
    out = str(tmp_path / "v")
    rc = main(["verify", "--only", "1,4,6", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verify.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["criterion"]) for r in rows] == [1, 4, 6]
    assert all(r["passed"] == "true" for r in rows)


def test_verify_rejects_bad_only(tmp_path, capsys):
    assert main(["verify", "--only", "0,99", "--out", str(tmp_path / "v")]) == 2
    assert main(["verify", "--only", "abc", "--out", str(tmp_path / "v")]) == 2


def test_verify_requires_ray_and_sweep(tmp_path, capsys):
    path = tmp_path / "noray.ini"
    body = CANONICAL.split("[analysis]")[0]  # model + domain only
    path.write_text(body)
    rc = main(["verify", "--config", str(path), "--only", "1",
               "--out", str(tmp_path / "v")])
    assert rc == 2
