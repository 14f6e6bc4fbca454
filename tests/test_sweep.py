"""Parameter-plane sweeps: ordering, row batches against single points, errors."""

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
    SweepCell,
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
    cells = sweep(small_plane, (3, 2), workers=1)
    assert len(cells) == 6
    coords = [(c.i, c.j) for c in cells]
    assert coords == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    s_vals = np.unique([c.coord1 for c in cells])
    t_vals = np.unique([c.coord2 for c in cells])
    assert np.allclose(s_vals, np.linspace(0.08, 0.4, 3))
    assert np.allclose(t_vals, np.linspace(1.5, 2.5, 2))


def test_sweep_single_point_resolution(small_plane):
    cells = sweep(small_plane, (1, 1), workers=1)
    assert len(cells) == 1
    assert cells[0].coord1 == pytest.approx(0.08)
    assert cells[0].coord2 == pytest.approx(1.5)


def test_sweep_classifies_both_regions(small_plane):
    cells = sweep(small_plane, (4, 3), workers=1)
    regions = {c.values["region"] for c in cells if c.error is None}
    assert "stable" in regions and "unstable" in regions
    for c in cells:
        assert c.error is None
        assert isinstance(c.values["sigma11_re"], float)
        assert isinstance(c.values["cond2_ok"], bool)


def _scalar_cells(plane: ParameterPlane, resolution) -> list[SweepCell]:
    """The grid built one point at a time from ``classify_region(plane.at(s, t))``."""
    cells = []
    for i, s in enumerate(np.linspace(*plane.range1, resolution[0]).tolist()):
        for j, t in enumerate(np.linspace(*plane.range2, resolution[1]).tolist()):
            try:
                report = classify_region(plane.at(s, t))
            except MTPhaseError as exc:
                cells.append(SweepCell(i, j, s, t, {}, f"{type(exc).__name__}: {exc}"))
                continue
            values = {
                "region": report.region.value,
                "sigma11_re": report.sigma11.real,
                "sigma11_im": report.sigma11.imag,
                "cond2_ok": report.cond2_ok,
            }
            cells.append(SweepCell(i, j, s, t, values, None))
    return cells


def _reference_sigma11(p: ModelParams) -> complex:
    """Leading principal-mode eigenvalue by the per-point reference: one
    trace-centred ``eigvals`` call on ``mode_matrix``."""
    e = mode_matrix(p, laplacian_eigenvalue(1, p.ell))
    mu = np.trace(e) / 3.0
    sigma = np.asarray(np.linalg.eigvals(e - mu * np.eye(3)) + mu, dtype=complex)
    return complex(sigma[np.lexsort((sigma.imag, -sigma.real))][0])


# Each plane crosses the critical curve and has cells with K1 <= 0 (small
# k7) and with non-positive diffusivities.
EDGE_PLANES = {
    "dirichlet": ParameterPlane(
        base=ModelParams(
            k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
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
    cells = sweep(plane, (23, 21))
    assert cells == _scalar_cells(plane, (23, 21))

    errors = {c.error.split(":")[0] for c in cells if c.error}
    assert errors == {"NonPositiveParameter", "K1NotPositive"}
    assert {c.values["region"] for c in cells if not c.error} >= {"stable", "unstable"}
    for c in cells:
        if not c.error:
            p = plane.at(c.coord1, c.coord2)
            assert p.bc.value == bc
            sigma11 = _reference_sigma11(p)
            assert (c.values["sigma11_re"], c.values["sigma11_im"]) == (
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
    assert sweep(plane, resolution) == _scalar_cells(plane, resolution)
