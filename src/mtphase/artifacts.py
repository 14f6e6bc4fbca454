"""Subcommand cores: produce analysis artifacts for a validated RunConfig.

Each runner takes a configuration and an output directory, writes its CSV
files, and returns the list of written paths (for the manifest).
:data:`SUBCOMMANDS` lists them in one order and :func:`run` calls one by
its subcommand name: the CLI wraps it with argument parsing and exit-code
mapping, and the reproducibility check of the verification suite replays
every subcommand in that order.
"""

from __future__ import annotations

import os

import numpy as np

from .config import RunConfig
from .errors import CurveLeftDomain
from .model import cond2_margin, steady_state
from .output import (
    CRITICAL_CURVE_COLUMNS,
    FINAL_STATE_COLUMNS,
    PHASE_DIAGRAM_COLUMNS,
    SIMULATE_COLUMNS,
    SPECTRUM_COLUMNS,
    STEADY_STATE_COLUMNS,
    THRESHOLD_COLUMNS,
    TRANSITION_COLUMNS,
    phase_diagram_blocks,
    spectrum_columns,
    steady_state_columns,
    threshold_columns,
    transition_columns,
    write_csv,
)
from .simulator import initial_state, make_grid, simulate
from .spectral import mode_spectra
from .sweep import sweep
from .threshold import find_threshold, trace_threshold_curve
from .transition import classify_transition

__all__ = [
    "SUBCOMMANDS",
    "run",
    "run_steady_state",
    "run_spectrum",
    "run_threshold",
    "run_transition",
    "run_simulate",
    "run_phase_diagram",
]


def run_steady_state(config: RunConfig, out_dir: str) -> list[str]:
    """Write ``steady-state.csv`` for the configured parameter point."""
    p = config.params
    ss = steady_state(p)
    path = write_csv(
        os.path.join(out_dir, "steady-state.csv"),
        STEADY_STATE_COLUMNS,
        [steady_state_columns(p, ss)],
    )
    return [path]


def run_spectrum(config: RunConfig, out_dir: str) -> list[str]:
    """Write ``spectrum.csv`` with modes 1..M_max (three branches each)."""
    spectra = mode_spectra(config.params, config.analysis.M_max)
    path = write_csv(
        os.path.join(out_dir, "spectrum.csv"), SPECTRUM_COLUMNS, [spectrum_columns(spectra)]
    )
    return [path]


def _located_threshold(config: RunConfig):
    return find_threshold(config.ray(), tol=config.analysis.tol)


def run_threshold(config: RunConfig, out_dir: str) -> list[str]:
    """Locate the threshold on the configured ray; write ``threshold.csv``.

    Of the side conditions only cond2 is written, as ``cond2_ok``.
    """
    tp = _located_threshold(config)
    path = write_csv(
        os.path.join(out_dir, "threshold.csv"),
        THRESHOLD_COLUMNS,
        [threshold_columns(tp, cond2_margin(tp.lambda0) > 0.0)],
    )
    return [path]


def run_transition(config: RunConfig, out_dir: str) -> list[str]:
    """Classify the transition at the located threshold; write ``transition.csv``."""
    tp = _located_threshold(config)
    report = classify_transition(tp)
    path = write_csv(
        os.path.join(out_dir, "transition.csv"),
        TRANSITION_COLUMNS,
        [transition_columns(report)],
    )
    return [path]


def run_simulate(
    config: RunConfig, out_dir: str, seed: int | None = None
) -> list[str]:
    """Integrate the configured run; write amplitude series and final state."""
    p = config.params
    sc = config.simulate
    grid = make_grid(p, sc.N)
    ic = initial_state(
        p,
        grid,
        kind=sc.ic_kind,
        amplitude=sc.ic_amplitude,
        seed=sc.seed if seed is None else seed,
    )
    result = simulate(
        p, grid, ic, t_end=sc.T, dt=sc.dt, record_every=sc.record_every
    )
    series_path = write_csv(
        os.path.join(out_dir, "simulate.csv"),
        SIMULATE_COLUMNS,
        [[result.series.times, result.series.y]],
    )
    state_path = write_csv(
        os.path.join(out_dir, "final-state.csv"),
        FINAL_STATE_COLUMNS,
        [[grid.x, *result.final_state.u]],
    )
    return [series_path, state_path]


def run_phase_diagram(config: RunConfig, out_dir: str) -> list[str]:
    """Sweep the configured slice; write region grid and critical polyline.

    The polyline CSV is written empty (header only) only when the critical
    curve does not cross the requested window (:class:`CurveLeftDomain`);
    any other failure of the tracer is raised.
    """
    plane = config.plane()
    grid = sweep(plane, config.sweep.resolution)
    grid_path = write_csv(
        os.path.join(out_dir, "phase-diagram.csv"),
        PHASE_DIAGRAM_COLUMNS,
        phase_diagram_blocks(grid),
    )

    try:
        curve = trace_threshold_curve(plane)
    except CurveLeftDomain:
        curve = np.empty((0, 2))
    curve_path = write_csv(
        os.path.join(out_dir, "critical-curve.csv"),
        CRITICAL_CURVE_COLUMNS,
        [[np.arange(len(curve)), curve[:, 0], curve[:, 1]]],
    )
    return [grid_path, curve_path]


#: subcommand -> name of its runner, in the order of the artifact pipeline;
#: :func:`run` looks the runner up per call
SUBCOMMANDS = {
    "steady-state": "run_steady_state",
    "spectrum": "run_spectrum",
    "threshold": "run_threshold",
    "transition": "run_transition",
    "simulate": "run_simulate",
    "phase-diagram": "run_phase_diagram",
}


def run(command: str, config: RunConfig, out_dir: str, seed: int | None = None) -> list[str]:
    """Run subcommand ``command``; ``seed`` overrides ``simulate``'s configured seed."""
    runner = globals()[SUBCOMMANDS[command]]
    if command == "simulate":
        return runner(config, out_dir, seed=seed)
    return runner(config, out_dir)
