"""Stability-region sweeps over two-axis parameter slices.

A sweep classifies every cell of a regular grid laid over a
:class:`~mtphase.threshold.ParameterPlane` and returns the result as
arrays, one element per cell.  Each grid row is one batch: its feasible
points go to :func:`~mtphase.threshold.classify_region` together, as one
stack of principal-mode blocks, and each value equals the one a
single-point classification gives.  A cell whose parameters are
infeasible is built through the scalar
:meth:`~mtphase.threshold.ParameterPlane.at`, and the name and message of
the domain error it raises are recorded in the grid's error map; the
sweep continues.  Unexpected exceptions propagate.  Sweep output is
reproducible byte-for-byte.

Everything runs in the calling process.  :func:`resolve_workers`,
``MTPHASE_WORKERS`` and the ``workers`` argument of :func:`sweep` change
nothing; they remain only because the benchmark in ``perfbench/`` calls
them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MTPhaseError
from .threshold import ParameterPlane, classify_region

__all__ = [
    "PhaseGrid",
    "resolve_workers",
    "sweep",
]


@dataclass(frozen=True)
class PhaseGrid:
    """The stability regions of an ``(n1, n2)`` grid over a parameter plane.

    Cell ``(i, j)`` lies at ``(coord1[i], coord2[j])``.  ``region`` holds
    region values as strings, ``sigma11`` the leading principal-mode
    eigenvalue and ``cond2_ok`` whether the stability-exchange condition
    holds.  ``errors`` maps each cell whose parameters are infeasible to
    ``"ErrorName: message"``; such a cell holds ``""``, NaN and False.
    """

    coord1: np.ndarray
    coord2: np.ndarray
    region: np.ndarray
    sigma11: np.ndarray
    cond2_ok: np.ndarray
    errors: dict[tuple[int, int], str]


def resolve_workers(workers: int | None) -> int:
    """Determine the worker count: argument, MTPHASE_WORKERS, or CPU count.

    Sweeps do not use the count; it is kept for the benchmark, which
    reports it.
    """
    if workers is not None:
        return max(int(workers), 1)
    env = os.environ.get("MTPHASE_WORKERS")
    if env is not None:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ConfigError(
                f"MTPHASE_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def sweep(
    plane: ParameterPlane,
    resolution: tuple[int, int],
    workers: int | None = None,
) -> PhaseGrid:
    """Classify the stability region on a ``resolution``-point grid over ``plane``.

    Parameters
    ----------
    plane : ParameterPlane
        The two-axis slice to sample.
    resolution : tuple of int
        Number of grid points along each axis; the grid includes both range
        endpoints (a single point falls on the lower end).
    workers : int, optional
        Ignored: the sweep runs in-process, one batch per grid row.  Kept
        because the benchmark passes it.

    Returns
    -------
    PhaseGrid
        Coordinates, ``(n1, n2)`` arrays of the classification and the
        errors of the infeasible cells.
    """
    n1, n2 = resolution
    if n1 <= 0 or n2 <= 0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    # np.linspace also for one point, so a -0.0 lower end gives the same
    # coordinate 0.0 whatever the resolution
    coord1 = np.linspace(*plane.range1, n1)
    coord2 = np.linspace(*plane.range2, n2)
    ts = coord2.tolist()
    region = np.full((n1, n2), "", dtype=object)
    sigma11 = np.full((n1, n2), np.nan, dtype=complex)
    cond2_ok = np.zeros((n1, n2), dtype=bool)
    errors: dict[tuple[int, int], str] = {}
    for i, s in enumerate(coord1.tolist()):
        row = plane.row(s, coord2)
        feasible = row.feasible()
        report = classify_region(row.select(feasible))
        region[i, feasible] = report.region
        sigma11[i, feasible] = report.sigma11
        cond2_ok[i, feasible] = report.cond2_ok
        for j in np.flatnonzero(~feasible).tolist():
            try:
                plane.at(s, ts[j])
            except MTPhaseError as exc:
                errors[i, j] = f"{type(exc).__name__}: {exc}"
            else:
                raise RuntimeError(f"feasible() rejected the valid point {(s, ts[j])!r}")
    return PhaseGrid(coord1, coord2, region, sigma11, cond2_ok, errors)
