"""Stability-region sweeps over two-axis parameter slices.

A sweep classifies every cell of a regular grid laid over a
:class:`~mtphase.threshold.ParameterPlane`.  Each grid row is one batch:
its feasible points go to :func:`~mtphase.threshold.classify_region`
together, as one stack of principal-mode blocks, and each value equals the
one a single-point classification gives.  Rows come back in grid
(row-major) order, so sweep output is reproducible byte-for-byte.  A cell
whose parameters are infeasible is built through the scalar
:meth:`~mtphase.threshold.ParameterPlane.at`, and the name and message of
the domain error it raises are recorded in the cell's ``error`` field; the
sweep continues.  Unexpected exceptions propagate.

Everything runs in the calling process.  The ``workers`` argument,
``--workers`` and ``MTPHASE_WORKERS`` are still accepted but change
nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, MTPhaseError
from .threshold import ParameterPlane, RegionReport, classify_region

__all__ = [
    "SweepCell",
    "resolve_workers",
    "sweep",
]


@dataclass(frozen=True)
class SweepCell:
    """One evaluated grid cell.

    ``values`` holds the region classification (empty when the cell failed)
    and ``error`` the name and message of the domain error, if any.
    """

    i: int
    j: int
    coord1: float
    coord2: float
    values: Mapping[str, object]
    error: str | None


def resolve_workers(workers: int | None) -> int:
    """Determine the worker count: argument, MTPHASE_WORKERS, or CPU count.

    Sweeps no longer use the count; it is kept for callers that report it.
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


def _region_values(report: RegionReport) -> dict[str, object]:
    return {
        "region": report.region.value,
        "sigma11_re": report.sigma11.real,
        "sigma11_im": report.sigma11.imag,
        "cond2_ok": report.cond2_ok,
    }


def _scalar_cell(plane: ParameterPlane, i: int, j: int, s: float, t: float) -> SweepCell:
    try:
        values = _region_values(classify_region(plane.at(s, t)))
        error = None
    except MTPhaseError as exc:
        values = {}
        error = f"{type(exc).__name__}: {exc}"
    return SweepCell(i=i, j=j, coord1=s, coord2=t, values=values, error=error)


def sweep(
    plane: ParameterPlane,
    resolution: tuple[int, int],
    workers: int | None = None,
) -> list[SweepCell]:
    """Classify the stability region on a ``resolution``-point grid over ``plane``.

    Parameters
    ----------
    plane : ParameterPlane
        The two-axis slice to sample.
    resolution : tuple of int
        Number of grid points along each axis; the grid includes both range
        endpoints (a single point falls on the lower end).
    workers : int, optional
        Accepted for compatibility and ignored: the sweep runs in-process,
        one batch per grid row.

    Returns
    -------
    list of SweepCell
        Cells in row-major grid order.
    """
    n1, n2 = resolution
    if n1 <= 0 or n2 <= 0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    # np.linspace also for one point, so a -0.0 lower end gives the same
    # coordinate 0.0 whatever the resolution
    ts = np.linspace(*plane.range2, n2).tolist()

    cells: list[SweepCell] = []
    for i, s in enumerate(np.linspace(*plane.range1, n1).tolist()):
        row = plane.row(s, ts)
        feasible = row.feasible()
        reports = iter(classify_region(row.select(feasible)))
        for j, t in enumerate(ts):
            if feasible[j]:
                values = _region_values(next(reports))
                cells.append(SweepCell(i, j, s, t, values, error=None))
            else:
                cells.append(_scalar_cell(plane, i, j, s, t))
    return cells
