"""End-to-end command line behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtphase
import mtphase.threshold
from mtphase import (
    ConfigError,
    MTPhaseError,
    NoSignChange,
    main,
    parse_config,
    principal_eigenvalue,
    read_manifest,
    sha256_file,
)
from mtphase import cli, verification
from mtphase.model import cond2_margin
from mtphase.output import MANIFEST_NAME, PHASE_DIAGRAM_COLUMNS, format_value
from mtphase.threshold import SIGMA_ZERO_BAND

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


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_is_config_error(command, config_path, tmp_path, capsys):
    rc = main([command, "--config", config_path, "--seed", "-1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


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
                p = plane.at(s, t)
                sigma11 = principal_eigenvalue(p)  # one block, not a batch
                region = ("critical" if abs(sigma11.real) <= SIGMA_ZERO_BAND
                          else "unstable" if sigma11.real > 0.0 else "stable")
                cells = [region, sigma11.real, sigma11.imag, cond2_margin(p) > 0.0, None]
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
    # bracket of a vertex's solve reaches negative diffusivities.  The
    # tracer must keep to feasible points and finish the curve: the arc
    # toward d = 0 steps back from infeasible bracket ends and gets within
    # 5e-6 of that edge in a few dozen vertices, and the arc the other way
    # runs up to the window's top edge.
    path = tmp_path / "edge.ini"
    path.write_text(CANONICAL.replace("range1 = 0.08,0.4", "range1 = %r,%r" % range1)
                    .replace("range2 = 1.5,2.5", "range2 = %r,%r" % range2))
    out = str(tmp_path / "pd")
    assert main(["phase-diagram", "--config", str(path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, MANIFEST_NAME))
    plane = parse_config(str(path)).plane()
    with open(os.path.join(out, "critical-curve.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) <= 60
    assert min(float(row["coord1"]) for row in rows) < 5e-6
    assert max(float(row["coord2"]) for row in rows) > range2[1] - 0.1
    for row in rows:
        p = plane.at(float(row["coord1"]), float(row["coord2"]))  # raises if infeasible
        assert abs(principal_eigenvalue(p).real) <= 1e-8


def test_a_zero_width_window_traces_its_crossing_without_a_runtime_warning(tmp_path):
    # range1 has zero width: the window is a segment along axis 2, its one
    # crossing is written once, and no coordinate is divided by the zero span
    path = tmp_path / "zero-width.ini"
    path.write_text(CANONICAL.replace("range1 = 0.08,0.4", "range1 = 0.1,0.1"))
    out = str(tmp_path / "pd")
    env = {**os.environ, "PYTHONPATH": str(Path(mtphase.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mtphase.cli", "phase-diagram",
         "--config", str(path), "--out", out],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    plane = parse_config(str(path)).plane()
    with open(os.path.join(out, "critical-curve.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    for row in rows:
        assert float(row["coord1"]) == 0.1
        p = plane.at(0.1, float(row["coord2"]))
        assert abs(principal_eigenvalue(p).real) <= 1e-8


CONFIGS = Path(__file__).parents[1] / "configs"
CRITICAL_CURVE_SHA256 = {
    "canonical": "2446887d8ff1523221bdeca4fe75f494f8b48e7bfb8dd124deaf1d5f7adfb6bb",
    "neumann-jump": "c4d62244b756216ae9839a3c67f621baf0db6a3813485565911dec29f1ce952c",
}


@pytest.mark.parametrize("name", sorted(CRITICAL_CURVE_SHA256))
def test_critical_curve_of_the_shipped_configs_is_pinned(tmp_path, name):
    out = str(tmp_path / name)
    assert main(["phase-diagram", "--config", str(CONFIGS / f"{name}.ini"), "--out", out]) == 0
    assert sha256_file(os.path.join(out, "critical-curve.csv")) == CRITICAL_CURVE_SHA256[name]


# the CSVs of the four analysis subcommands on the shipped configs; a
# change that keeps the output keeps these digests
ANALYSIS_CSV_SHA256 = {
    "canonical": {
        "steady-state.csv": "c9d926991fc3ef338d375d95490905bb7299b2853f792afaf3d11340f5272d74",
        "spectrum.csv": "933bac8e1d8018c5528e868967fdbd829f92824a9ea776bb17934458dca0835d",
        "threshold.csv": "92c646489090a71e079a81662949ee86751b45b7c4751051449f921d55c328e6",
        "transition.csv": "2c089c7abe5a22063da797a969ee83734854b35bdb2bd846a4652c08862ebc58",
    },
    "neumann-jump": {
        "steady-state.csv": "59030769e7896043c585acdbc43d713a971bc016573829e5fc5666750c6635c9",
        "spectrum.csv": "ffb6b82e96879f428c26d05bc5ed8bb01d13de61a1082852911c1d08d584866b",
        "threshold.csv": "028bdbdac247f6d58ebbf4b39c8e93d5f884349466abe413f7bb2ad262158a7b",
        "transition.csv": "41c5c0eccbcf2b71f578c12e51fc6ea036ee59b8a4f9d8e6e9e214ac5b17e90b",
    },
}


@pytest.mark.parametrize("name", sorted(ANALYSIS_CSV_SHA256))
def test_analysis_csvs_of_the_shipped_configs_are_pinned(tmp_path, name):
    out = str(tmp_path / name)
    for filename, digest in ANALYSIS_CSV_SHA256[name].items():
        command = filename.removesuffix(".csv")
        assert main([command, "--config", str(CONFIGS / f"{name}.ini"), "--out", out]) == 0
        assert sha256_file(os.path.join(out, filename)) == digest, filename


def test_a_curve_vertex_that_cannot_be_bracketed_exits_3(tmp_path, monkeypatch, capsys):
    # only CurveLeftDomain means "no crossing in the window"; any other
    # failure of the tracer is a numerical failure, not an empty curve:
    # here the first vertex is solved, every later one fails to bracket,
    # and the step halves down to its floor, which raises StepCollapse
    def no_bracket(f, center, h):
        raise NoSignChange(f"could not bracket a root around {center!r}")

    monkeypatch.setattr(mtphase.threshold, "_expand_bracket", no_bracket)
    out = str(tmp_path / "pd")
    rc = main(["phase-diagram", "--config", str(CONFIGS / "canonical.ini"), "--out", out])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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


def test_verify_only_takes_its_indices_from_the_criteria_table(monkeypatch):
    assert cli._parse_only("12,1") == [12, 1]
    with pytest.raises(ConfigError, match=r"1\.\.12"):
        cli._parse_only("13")
    monkeypatch.setattr(verification, "CRITERIA", verification.CRITERIA[:3])
    assert cli._parse_only("3") == [3]
    with pytest.raises(ConfigError, match=r"1\.\.3"):
        cli._parse_only("4")


def test_main_parses_each_call_alone_with_one_parser(monkeypatch):
    # The parser is built once per process; calls with other subcommands
    # and flags in between leave nothing of theirs in the next call's
    # arguments.
    seen = []

    def record(args):
        seen.append(vars(args).copy())
        return 0

    monkeypatch.setattr(cli, "_cmd_artifacts", record)
    monkeypatch.setattr(cli, "_cmd_verify", record)
    assert main(["simulate", "--config", "a.ini", "--seed", "5"]) == 0
    assert main(["verify", "--only", "1,2", "--out", "v"]) == 0
    assert main(["threshold", "--config", "b.ini"]) == 0
    assert main(["simulate", "--config", "c.ini"]) == 0
    assert seen == [
        {"command": "simulate", "config": "a.ini", "out": None, "seed": 5},
        {"command": "verify", "config": None, "out": "v", "seed": None, "only": "1,2"},
        {"command": "threshold", "config": "b.ini", "out": None},
        {"command": "simulate", "config": "c.ini", "out": None, "seed": None},
    ]
    assert cli._build_parser() is cli._build_parser()


def test_verify_requires_ray_and_sweep(tmp_path, capsys):
    path = tmp_path / "noray.ini"
    body = CANONICAL.split("[analysis]")[0]  # model + domain only
    path.write_text(body)
    rc = main(["verify", "--config", str(path), "--only", "1",
               "--out", str(tmp_path / "v")])
    assert rc == 2


_PACKAGE_DIR = Path(mtphase.__file__).resolve().parent

#: run in a fresh interpreter: SciPy's banded LAPACK and BLAS extension
#: modules are loaded with the first Stepper, not on import, and without
#: the scipy.linalg package
_IMPORT_GUARD = """
import sys
import mtphase.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import mtphase.cli loaded {loaded}")
p = mtphase.ModelParams(k1=1, k3=1, k5=1, k7=2, C1=1, E=1, d1=1, d2=1, d3=1, ell=3.0)
mtphase.Stepper(p, mtphase.make_grid(p, 16), 0.01)
if ("scipy.linalg._flapack" not in sys.modules or "scipy.linalg" in sys.modules
        or "scipy.optimize" in sys.modules):
    sys.exit("a Stepper should load scipy.linalg._flapack and not scipy.linalg or scipy.optimize")
"""


def test_import_loads_no_scipy_until_the_first_stepper():
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE_DIR.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def _modules_after(code: str) -> set[str]:
    """The NumPy, SciPy and package modules loaded after ``code`` runs in a
    fresh interpreter."""
    code += (
        "\nimport sys\nprint(' '.join(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'scipy', 'mtphase')))"
    )
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE_DIR.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def test_import_loads_only_the_errors_and_version_modules():
    loaded = _modules_after("import mtphase")
    assert loaded <= {"mtphase", "mtphase.errors", "mtphase.version"}


def test_help_loads_no_numpy():
    loaded = _modules_after(
        "import contextlib, io, mtphase.cli\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    mtphase.cli.main(['--help'])"
    )
    assert "mtphase.cli" in loaded and "numpy" not in loaded


@pytest.mark.parametrize(
    "command", ["steady-state", "spectrum", "threshold", "transition", "phase-diagram", "simulate"]
)
def test_each_subcommand_loads_only_the_modules_it_runs(config_path, tmp_path, command):
    loaded = _modules_after(
        "import contextlib, io, mtphase.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert mtphase.cli.main({[command, '--config', config_path, '--out', str(tmp_path)]})"
        " == 0"
    )
    assert "mtphase.verification" not in loaded
    scipy = {m for m in loaded if m.split(".")[0] == "scipy"}
    if command == "simulate":
        assert "mtphase.simulator" in loaded
        assert scipy == {"scipy.linalg._flapack", "scipy.linalg._fblas"}
    else:
        assert "mtphase.simulator" not in loaded
        assert not scipy


def test_every_exported_name_is_its_submodules_object():
    names = {}
    exec("from mtphase import *", names)
    assert set(names) - {"__builtins__"} == set(mtphase.__all__)
    for name in mtphase.__all__:
        module = sys.modules[f"mtphase.{mtphase._SOURCE[name]}"]
        assert getattr(mtphase, name) is getattr(module, name) is names[name], name
    assert set(mtphase.__all__) <= set(dir(mtphase))
    assert {"threshold", "simulator", "cli"} <= set(dir(mtphase))
    assert mtphase.threshold is sys.modules["mtphase.threshold"]
    # the function, not the submodule of the same name
    assert mtphase.sweep is sys.modules["mtphase.sweep"].sweep
    with pytest.raises(AttributeError, match="no_such_name"):
        mtphase.no_such_name


def test_run_as_a_module_without_a_runtime_warning():
    # importing the package must not import mtphase.cli, or runpy warns
    # that it executes the module a second time
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE_DIR.parent)}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mtphase.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: mtphase")


def test_no_module_imports_scipy_optimize():
    for path in sorted(_PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not [n for n in names if n.startswith("scipy.optimize")], (path.name, names)
