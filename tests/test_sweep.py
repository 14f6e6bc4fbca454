"""Parameter-plane sweeps: grid layout, row batches against single points, errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtphase import (
    ConfigError,
    ModelParams,
    MTPhaseError,
    ParameterPlane,
    PhaseGrid,
    classify_region,
    laplacian_eigenvalue,
    mode_matrix,
    resolve_workers,
    sweep,
)

D_RAY = {"d1": 1.0, "d2": 1.0, "d3": 1.0}
# the point of configs/neumann-jump.ini
NEUMANN_JUMP = ModelParams(
    k1=4.9669, k3=0.4280, k5=6.4185, k7=0.4256, C1=4.3293, E=0.9599,
    d1=1.7390, d2=1.4256, d3=0.3804, ell=4.828, bc="neumann-zero-average",
)
NEUMANN_RAY = {"d1": 1.7390, "d2": 1.4256, "d3": 0.3804}


@pytest.fixture()
def small_plane(canonical_params):
    return ParameterPlane(
        base=canonical_params,
        axis1={"d1": 1.0, "d2": 1.0, "d3": 1.0},
        range1=(0.08, 0.4),
        axis2="k7",
        range2=(1.5, 2.5),
        )


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.setenv("MTPHASE_WORKERS", "3")
    assert resolve_workers(5) == 5
    assert resolve_workers(None) == 3
    monkeypatch.delenv("MTPHASE_WORKERS")
    assert resolve_workers(None) >= 1
    monkeypatch.setenv("MTPHASE_WORKERS", "many")
    with pytest.raises(ConfigError):
        resolve_workers(None)


def test_sweep_is_row_major_on_the_grid(small_plane):
    grid = sweep(small_plane, (3, 2), workers=1)
    assert np.array_equal(grid.coord1, np.linspace(0.08, 0.4, 3))
    assert np.array_equal(grid.coord2, np.linspace(1.5, 2.5, 2))
    # cell (i, j) is the point (coord1[i], coord2[j])
    _assert_grid_equals_reference(grid, small_plane, (3, 2))


def test_sweep_single_point_resolution(small_plane):
    grid = sweep(small_plane, (1, 1), workers=1)
    assert grid.coord1.tolist() == [0.08]
    assert grid.coord2.tolist() == [1.5]
    assert grid.region.shape == (1, 1)


def test_sweep_classifies_both_regions(small_plane):
    grid = sweep(small_plane, (4, 3), workers=1)
    assert grid.errors == {}
    assert {"stable", "unstable"} <= set(grid.region.ravel().tolist())
    assert grid.sigma11.dtype == complex and np.isfinite(grid.sigma11).all()
    assert grid.cond2_ok.dtype == bool


def _reference_grid(plane: ParameterPlane, resolution) -> dict:
    """The grid's fields built one point at a time from
    ``classify_region(plane.at(s, t))``, with the sweep's fill values."""
    coord1 = np.linspace(*plane.range1, resolution[0])
    coord2 = np.linspace(*plane.range2, resolution[1])
    region = np.full(resolution, "", dtype=object)
    sigma11 = np.full(resolution, np.nan, dtype=complex)
    cond2_ok = np.zeros(resolution, dtype=bool)
    errors = {}
    for i, s in enumerate(coord1.tolist()):
        for j, t in enumerate(coord2.tolist()):
            try:
                report = classify_region(plane.at(s, t))
            except MTPhaseError as exc:
                errors[i, j] = f"{type(exc).__name__}: {exc}"
                continue
            region[i, j] = report.region.value
            sigma11[i, j] = report.sigma11
            cond2_ok[i, j] = report.cond2_ok
    return dict(coord1=coord1, coord2=coord2, region=region, sigma11=sigma11,
                cond2_ok=cond2_ok, errors=errors)


def _assert_grid_equals_reference(grid: PhaseGrid, plane: ParameterPlane, resolution):
    """Every field equal to the per-point reference; floats bit for bit."""
    ref = _reference_grid(plane, resolution)
    for name in ("coord1", "coord2", "sigma11", "cond2_ok"):
        got, want = getattr(grid, name), ref[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert grid.region.shape == ref["region"].shape
    assert grid.region.tolist() == ref["region"].tolist()
    assert grid.errors == ref["errors"]


def _reference_sigma11(p: ModelParams) -> complex:
    """Leading principal-mode eigenvalue by the per-point reference: one
    trace-centred ``eigvals`` call on ``mode_matrix``."""
    e = mode_matrix(p, laplacian_eigenvalue(1, p.ell))
    mu = np.trace(e) / 3.0
    sigma = np.asarray(np.linalg.eigvals(e - mu * np.eye(3)) + mu, dtype=complex)
    return complex(sigma[np.lexsort((sigma.imag, -sigma.real))][0])


# Each plane crosses the critical curve and has cells with K1 <= 0 (small
# k7) and with non-positive diffusivities.  On the Dirichlet plane
# (C1 = 3) cond2 fails for k7 > 5/6.
EDGE_PLANES = {
    "dirichlet": ParameterPlane(
        base=ModelParams(
            k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=3.0, E=1.0,
            d1=1.0, d2=1.0, d3=1.0, ell=float(np.pi),
        ),
        axis1="k7", range1=(0.2, 3.0), axis2=D_RAY, range2=(-0.1, 0.4),
    ),
    "neumann-zero-average": ParameterPlane(
        base=NEUMANN_JUMP,
        axis1="k7", range1=(0.05, 0.7), axis2=NEUMANN_RAY, range2=(-0.2, 1.8),
    ),
}


@pytest.mark.parametrize("bc", sorted(EDGE_PLANES))
def test_row_batches_equal_single_point_cells(bc):
    plane = EDGE_PLANES[bc]
    grid = sweep(plane, (23, 21))
    _assert_grid_equals_reference(grid, plane, (23, 21))

    assert {e.split(":")[0] for e in grid.errors.values()} == {
        "NonPositiveParameter", "K1NotPositive"
    }
    assert {"stable", "unstable"} <= set(grid.region.ravel().tolist())
    if bc == "dirichlet":
        assert set(grid.cond2_ok[grid.region != ""].tolist()) == {True, False}
    for i, s in enumerate(grid.coord1.tolist()):
        for j, t in enumerate(grid.coord2.tolist()):
            if (i, j) not in grid.errors:
                p = plane.at(s, t)
                assert p.bc.value == bc
                sigma11 = _reference_sigma11(p)
                assert (grid.sigma11[i, j].real, grid.sigma11[i, j].imag) == (
                    sigma11.real, sigma11.imag
                )


_windows = st.tuples(st.floats(-0.5, 3.5), st.floats(-0.5, 3.5))


@settings(max_examples=60, deadline=None)
@given(
    bc=st.sampled_from(sorted(EDGE_PLANES)),
    window1=_windows,
    window2=_windows,
    resolution=st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
    ),
)
# a -0.0 lower end gives coordinate 0.0 on a one-point axis, as on longer ones
@example(bc="dirichlet", window1=(-0.0, 0.0), window2=(0.0, 0.0), resolution=(1, 1))
def test_row_batches_equal_single_point_cells_on_random_windows(
    bc, window1, window2, resolution
):
    edge = EDGE_PLANES[bc]
    plane = ParameterPlane(
        base=edge.base, axis1=edge.axis1, range1=window1, axis2=edge.axis2, range2=window2
    )
    _assert_grid_equals_reference(sweep(plane, resolution), plane, resolution)
