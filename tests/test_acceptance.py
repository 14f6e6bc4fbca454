"""Acceptance: the twelve numbered verification criteria with time budgets.

Each test runs one criterion from :mod:`mtphase.verification` with the
default seed, asserts the criterion's own pass verdict, and enforces its
runtime budget.  Criterion 12 is additionally exercised at the process
boundary: the ``verify`` subcommand is invoked twice into fresh
directories and every written CSV must be byte-identical (the manifest may
differ only in its timestamp).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from mtphase import main, read_manifest, run_all, verification
from mtphase.output import MANIFEST_NAME
from mtphase.simulator import AmplitudeSeries, FieldState

BUDGET_SECONDS = {
    1: 1.0,
    2: 5.0,
    3: 1.0,
    4: 0.1,
    5: 10.0,
    6: 0.1,
    7: 180.0,
    8: 180.0,
    9: 30.0,
    10: 5.0,
    11: 30.0,
    12: 180.0,
}


def _run(index: int):
    (result,) = run_all(only=[index])
    assert result.seconds < BUDGET_SECONDS[index], (
        f"criterion {index} took {result.seconds:.2f} s, "
        f"budget {BUDGET_SECONDS[index]} s"
    )
    assert result.passed, f"criterion {index} ({result.name}): {result.detail}"
    return result


def test_criterion_01_steady_state_residual():
    _run(1)


def test_criterion_02_spectral_solvers_vs_oracle():
    _run(2)


def test_criterion_02_checks_the_solver_in_use(monkeypatch):
    # a relative error of 1e-9 that mode_spectra's Newton polish would remove
    solve = verification.solve_spectrum
    monkeypatch.setattr(
        verification, "solve_spectrum", lambda emat: solve(emat) * (1.0 + 1e-9)
    )
    passed, detail = verification.criterion_2_spectral()
    assert not passed, detail


def test_criterion_03_mode_matrix_scaling_identity():
    _run(3)


def test_criterion_04_canonical_threshold_vs_bisection_oracle():
    _run(4)


def test_criterion_05_exchange_of_stability():
    _run(5)


def test_criterion_06_branch_coefficient_two_path_agreement():
    _run(6)


def test_criterion_07_mixed_branch_amplitude_via_simulation():
    _run(7)


def test_criterion_08_pitchfork_branch_amplitude_via_simulation():
    _run(8)


def test_criterion_09_jump_behavior_via_simulation():
    _run(9)


@pytest.mark.parametrize(
    "outcome_lo, passed, tail",
    [
        ("decayed", True, "IC at 0.5x: decayed to 1e-8 (t=814.8)"),
        ("grew", False, "IC at 0.5x: grew (t=814.8)"),
        ("timeout", False, "IC at 0.5x: timeout (t=814.8)"),
    ],
)
def test_criterion_09_detail_names_the_outcome(monkeypatch, outcome_lo, passed, tail):
    # "to 1e-8" is the decay threshold; it belongs to "decayed" only
    outcomes = iter([("grew", 7.9), (outcome_lo, 814.8)])
    monkeypatch.setattr(
        verification, "_jump_outcome", lambda *args, **kwargs: next(outcomes)
    )
    verdict, detail = verification.criterion_9_jump_behavior()
    assert verdict is passed
    assert detail.endswith(f"; IC at 2.0x: grew (t=7.9), {tail}")


@pytest.mark.parametrize(
    "y, outcome, t",
    [
        ([0.1, 0.5, 2.0, 8.0], "grew", 1.5),  # 10 |y0| = 1 halfway in log|y|
        ([-0.1, -1e-7, -1e-9], "decayed", 1.5),  # 1e-8 halfway in log|y|
        ([0.1, 1e-9], "decayed", 0.875),
        ([0.1, 0.2, 0.3], "timeout", 2.0),
    ],
)
def test_criterion_09_times_are_interpolated_level_crossings(monkeypatch, y, outcome, t):
    # A level's time is its crossing, log-linear in |y| between the two
    # records that bracket it, not the first record past it.
    class Result:
        series = AmplitudeSeries(times=np.arange(float(len(y))), y=np.array(y))
        final_state = FieldState(t=len(y) - 1.0, u=None)

    for name in ("initial_state", "dt_max"):
        monkeypatch.setattr(verification, name, lambda *args, **kwargs: None)
    monkeypatch.setattr(verification, "simulate", lambda *args, **kwargs: Result)
    got = verification._jump_outcome(None, None, abs(y[0]), t_max=10.0)
    assert got[0] == outcome and got[1] == pytest.approx(t, rel=1e-12)


def test_criterion_10_constrained_transition_number_identity():
    _run(10)


def test_criterion_11_simulator_convergence_orders():
    _run(11)


def test_criterion_12_artifact_reproducibility(tmp_path):
    _run(12)
    # Process-level determinism: two identical verify invocations write
    # byte-identical CSVs; manifests agree except for the timestamp.
    dirs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for out in dirs:
        assert main(["verify", "--only", "12", "--out", out]) == 0
    csv_bytes = [(Path(d) / "verify.csv").read_bytes() for d in dirs]
    assert csv_bytes[0] == csv_bytes[1]
    manifests = [
        {
            k: v
            for k, v in read_manifest(os.path.join(d, MANIFEST_NAME)).items()
            if k != "created_utc"
        }
        for d in dirs
    ]
    assert manifests[0] == manifests[1]
