"""Stability-region sweeps over two-axis parameter slices.

A sweep classifies every cell of a regular grid laid over a
:class:`~mtphase.threshold.ParameterPlane` and returns the result as
arrays, one element per cell.  The cells are taken in row-major order,
:data:`CELLS_PER_BATCH` at a time, whatever the grid rows: the feasible
points of a batch go to :func:`~mtphase.threshold.classify_region`
together, as one stack of principal-mode blocks, and each value equals
the one a per-point eigenvalue solve of the cell's block gives.  For a cell whose
parameters are infeasible, the grid's error map records the name and
message of the domain error the scalar
:meth:`~mtphase.threshold.ParameterPlane.at` would raise, built from the
batch's arrays by :meth:`~mtphase.model.ParamBatch.domain_errors` without
raising it; the sweep continues.  Unexpected exceptions propagate.  Sweep
output is reproducible byte-for-byte.

Everything runs in the calling process.  :func:`resolve_workers`,
``MTPHASE_WORKERS`` and the ``workers`` argument of :func:`sweep` change
nothing; they remain only because the benchmark in ``perfbench/`` calls
them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ParamBatch, cond2_margin
from .threshold import ParameterPlane, classify_region

__all__ = [
    "CELLS_PER_BATCH",
    "PhaseGrid",
    "resolve_workers",
    "sweep",
]

#: cells per batch of a sweep: enough that the Python around each batch
#: is small next to its eigenvalue call, few enough that a batch's arrays
#: stay under 1 MB of transient memory
CELLS_PER_BATCH = 1024


@dataclass(frozen=True)
class PhaseGrid:
    """The stability regions of an ``(n1, n2)`` grid over a parameter plane.

    Cell ``(i, j)`` lies at ``(coord1[i], coord2[j])``.  ``region`` holds
    region values as strings, ``sigma11`` the leading principal-mode
    eigenvalue and ``cond2_ok`` whether cond2,
    :func:`~mtphase.model.cond2_margin` > 0, holds; the sweep computes it
    only for this field, which ``phase-diagram.csv`` writes.  ``errors``
    maps each cell whose parameters are infeasible to ``"ErrorName:
    message"``; such a cell holds ``""``, NaN and False.
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
        Ignored: the sweep runs in-process.  Kept because the benchmark
        passes it.

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
    n = n1 * n2
    region = np.full(n, "", dtype=object)
    sigma11 = np.full(n, np.nan, dtype=complex)
    cond2_ok = np.zeros(n, dtype=bool)
    errors: dict[tuple[int, int], str] = {}
    for start in range(0, n, CELLS_PER_BATCH):
        k = np.arange(start, min(start + CELLS_PER_BATCH, n))
        batch = ParamBatch.from_record(plane.record(coord1[k // n2], coord2[k % n2]))
        feasible = batch.feasible()
        points = batch.select(feasible)
        report = classify_region(points)
        cells = k[feasible]
        region[cells] = report.region
        sigma11[cells] = report.sigma11
        cond2_ok[cells] = cond2_margin(points) > 0.0
        infeasible = np.flatnonzero(~feasible)
        for cell, exc in zip(k[infeasible].tolist(), batch.domain_errors(infeasible)):
            errors[divmod(cell, n2)] = f"{type(exc).__name__}: {exc}"
    return PhaseGrid(
        coord1, coord2, region.reshape(n1, n2), sigma11.reshape(n1, n2),
        cond2_ok.reshape(n1, n2), errors,
    )
