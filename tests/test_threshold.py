"""Threshold location on rays, region classification, and curve tracing."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

import mtphase.model
import mtphase.spectral
import mtphase.threshold
from mtphase import (
    ComplexCrossing,
    CurveLeftDomain,
    ModelParams,
    NoSignChange,
    ParameterPlane,
    ParameterRay,
    Region,
    SignPatternBroken,
    char_poly_coeffs,
    classify_region,
    det_principal_mode,
    find_threshold,
    laplacian_eigenvalue,
    mode_matrices,
    principal_eigenvalue,
    solve_spectrum,
    stability_exchange_report,
    trace_threshold_curve,
)


def test_canonical_critical_diffusivity(canonical_threshold):
    # positive root of d^3 + 5 d^2 + 5 d - 1 = 0
    d = canonical_threshold.ray_coord
    assert d == pytest.approx(0.1700864866260337, abs=1e-12)
    assert d**3 + 5 * d**2 + 5 * d - 1 == pytest.approx(0.0, abs=1e-12)


def test_threshold_point_sits_on_critical_surface(canonical_threshold):
    tp = canonical_threshold
    assert abs(tp.detE1) <= 1e-10
    assert abs(tp.sigma11) <= 1e-8
    assert tp.crossing_derivative != 0.0
    assert not tp.near_tangential


def test_determinant_changes_sign_across_threshold(canonical_ray, canonical_threshold):
    d_star = canonical_threshold.ray_coord
    below = det_principal_mode(canonical_ray.at(0.9 * d_star))
    above = det_principal_mode(canonical_ray.at(1.1 * d_star))
    assert below * above < 0.0


def test_no_sign_change_raised_on_stable_bracket(canonical_params):
    ray = ParameterRay(
        base=canonical_params,
        direction={"d1": 1.0, "d2": 1.0, "d3": 1.0},
        bracket=(0.3, 0.9),
    )
    with pytest.raises(NoSignChange):
        find_threshold(ray)


def test_threshold_at_a_tiny_ray_coordinate(canonical_params, canonical_threshold):
    # d = s * 1e7 puts the canonical threshold at s ~ 1.7e-8, below the
    # finite-difference steps 1e-7 and 1e-6: they are capped at s/2, so
    # every determinant is evaluated at a positive coordinate.
    ray = ParameterRay(
        base=canonical_params,
        direction={"d1": 1e7, "d2": 1e7, "d3": 1e7},
        bracket=(1e-9, 1e-7),
    )
    tp = find_threshold(ray)
    roots = np.roots([1.0, 5.0, 5.0, -1.0])
    d_star = max(r.real for r in roots if abs(r.imag) < 1e-12)
    assert tp.ray_coord == pytest.approx(d_star / 1e7, rel=1e-9)
    # the derivative along s is 1e7 times the one along d; the capped
    # central difference spans half the coordinate
    assert tp.crossing_derivative == pytest.approx(
        1e7 * canonical_threshold.crossing_derivative, rel=1e-2
    )
    assert tp.stability_report.passed


@pytest.mark.parametrize("s", [2e-6, -2e-6, 1e-3, 0.17, 1.0, -3.5, 1e4])
def test_finite_difference_steps_uncapped_from_two_micro(s):
    # the cap changes nothing at |s| >= 2e-6, so no shipped result moves
    for scale in (1e-7, 1e-6):
        assert mtphase.threshold._fd_step(scale, s) == scale * max(1.0, abs(s))


def test_classify_region_three_sides(canonical_ray, canonical_threshold):
    d_star = canonical_threshold.ray_coord
    assert classify_region(canonical_ray.at(0.7 * d_star)).region is Region.UNSTABLE
    assert classify_region(canonical_ray.at(1.5 * d_star)).region is Region.STABLE
    assert classify_region(canonical_threshold.lambda0).region is Region.CRITICAL


def test_ray_at_sets_fields_linearly(canonical_params):
    ray = ParameterRay(
        base=canonical_params,
        direction={"d1": 2.0, "d3": 0.5},
        bracket=(0.1, 1.0),
    )
    p = ray.at(0.3)
    assert p.d1 == pytest.approx(0.6)
    assert p.d2 == canonical_params.d2
    assert p.d3 == pytest.approx(0.15)
    q = ParameterRay(base=canonical_params, direction="k7", bracket=(1.0, 3.0)).at(2.4)
    assert q.k7 == pytest.approx(2.4)


_FLAGS = (
    "sigma11_in_band",
    "sigma11_simple",
    "mode1_rest_stable",
    "higher_modes_stable",
    "traces_negative",
    "p1_positive",
)


def _leading_real(block: np.ndarray, sigma: np.ndarray) -> float:
    """Re of the leading eigenvalue; redone at 50 digits on the same
    float64 block when float64 rounding could decide its sign."""
    if abs(sigma[0].real) > 1e-12 * np.abs(block).max():
        return float(sigma[0].real)
    with mpmath.workdps(50):
        values, _ = mpmath.eig(mpmath.matrix(block.tolist()))
        return float(max(mpmath.re(v) for v in values))


def _eigen_oracle(p: ModelParams, modes: int = 50) -> dict:
    """The report's flags from the eigenvalues and the characteristic
    coefficients of modes 1..modes, one block at a time."""
    blocks = mode_matrices(p, laplacian_eigenvalue(np.arange(1, modes + 1), p.ell))
    sigma = solve_spectrum(blocks)
    s1 = sigma[0]
    coeffs = np.array([char_poly_coeffs(b) for b in blocks])
    flags = {
        "sigma11_in_band": bool(abs(s1[0].real) <= 1e-8 and abs(s1[0].imag) <= 1e-8),
        "sigma11_simple": bool(np.all(np.abs(s1[1:] - s1[0]) > 1e-6)),
        "mode1_rest_stable": bool(s1[1].real < 0.0 and s1[2].real < 0.0),
        "higher_modes_stable": max(map(_leading_real, blocks[1:], sigma[1:])) < 0.0,
        "traces_negative": bool(np.all(coeffs[:, 0] > 0.0)),
        "p1_positive": bool(np.all(coeffs[:, 1] > 0.0)),
    }
    flags["passed"] = all(flags.values())
    return flags


def _report_flags(report) -> dict:
    return {name: getattr(report, name) for name in (*_FLAGS, "passed")}


def test_stability_exchange_report_canonical(canonical_threshold):
    report = canonical_threshold.stability_report
    assert report is not None
    assert report.passed is True
    assert all(getattr(report, name) is True for name in _FLAGS)
    assert report.higher_margin > 0.0
    assert report.cond2_ok is True
    assert _report_flags(report) == _eigen_oracle(canonical_threshold.lambda0)


def test_stability_exchange_report_from_params(canonical_threshold):
    # Accepts a bare parameter point as well as a located threshold.
    report = stability_exchange_report(canonical_threshold.lambda0)
    assert report.passed is True


def _wide_thresholds(rng: np.random.Generator, count: int):
    """Thresholds with rates and diffusivities log-uniform over 10^+-4.

    Along ``d = s * (d1, d2, d3)`` the thresholds are the real positive
    eigenvalues ``s`` of ``D^-1 A / rho_1``; det E1 is, up to sign, a cubic
    in s with one sign change in its coefficients, so there is exactly one.
    The ray is scaled to put it at s = 1.
    """
    while count:
        k1, k3, k5, k7, C1, E, d1, d2, d3 = 10.0 ** rng.uniform(-4.0, 4.0, 9)
        if C1 * k1 * k7 - k3 * k5 * E <= 0.05 * C1 * k1 * k7:
            continue
        base = ModelParams(
            k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E, d1=d1, d2=d2, d3=d3,
            ell=10.0 ** rng.uniform(-0.3, 1.5),
            bc=("dirichlet", "neumann-zero-average")[count % 2],
        )
        roots = np.linalg.eigvals(
            mtphase.model.linearization_matrix(base) / base.diffusion[:, None]
        ) / laplacian_eigenvalue(1, base.ell)
        s_star = roots[np.abs(roots.imag) == 0.0].real.max()
        ray = ParameterRay(
            base=base,
            direction={"d1": d1 * s_star, "d2": d2 * s_star, "d3": d3 * s_star},
            bracket=(0.5, 2.0),
        )
        try:
            yield find_threshold(ray)
        except ComplexCrossing:
            continue
        count -= 1


def test_certificate_matches_eigen_oracle_over_wide_scales():
    rng = np.random.default_rng(20261018)
    passed = 0
    for tp in _wide_thresholds(rng, 500):
        assert _report_flags(tp.stability_report) == _eigen_oracle(tp.lambda0), tp.lambda0
        passed += tp.stability_report.passed
    assert passed >= 100  # the verdict is not False throughout


@pytest.mark.parametrize("exponent", range(-6, 7))
def test_report_passes_in_every_time_unit(canonical_threshold, exponent):
    # Multiplying every rate and diffusivity by lam rescales time only.
    p = canonical_threshold.lambda0
    lam = 10.0**exponent
    scaled = p.replace(**{k: lam * getattr(p, k) for k in "k1 k3 k5 k7 C1 E d1 d2 d3".split()})
    assert stability_exchange_report(scaled).passed is True


def _growing_modes(p: ModelParams) -> dict:
    """Modes m in 2..50 whose leading eigenvalue grows, mapped to its
    imaginary part."""
    modes = np.arange(2, 51)
    sigma = solve_spectrum(mode_matrices(p, laplacian_eigenvalue(modes, p.ell)))[:, 0]
    return {int(m): float(s.imag) for m, s in zip(modes, sigma) if s.real > 0.0}


def test_real_instability_of_mode_two_fails_the_report(canonical_threshold):
    # Diffusion divided by 6 moves the one root of det E(rho) from rho_1 to
    # 6 rho_1, between rho_2 and rho_3: modes 1 and 2 grow, modes >= 3 decay.
    p = canonical_threshold.lambda0
    p = p.replace(d1=p.d1 / 6.0, d2=p.d2 / 6.0, d3=p.d3 / 6.0)
    report = stability_exchange_report(p)
    assert report.higher_modes_stable is False and report.passed is False
    assert report.higher_margin < 0.0
    assert _report_flags(report) == _eigen_oracle(p)
    assert _growing_modes(p) == {2: 0.0}  # a real eigenvalue


def _patch_jacobian(monkeypatch, jacobian):
    for module in (mtphase.threshold, mtphase.spectral):
        monkeypatch.setattr(module, "linearization_matrix", lambda p: jacobian)


# Jacobians with the model's sign pattern (negative diagonal, det A > 0) and
# diffusivities under which only the listed modes have an unstable complex
# pair: R < 0 there while q0 > 0 from m = 2 on.  In the first case R is
# smallest at m = 2, in the second near its local minimum.
@pytest.mark.parametrize(
    "jacobian, diffusivities, ell, unstable",
    [
        ([[-1, -2, 5], [-1, -1, -2], [4, 5, -1]], (4.0, 1.0, 2.0), np.sqrt(8.0) * np.pi, [2]),
        ([[-1, -9, 5], [7, -1, -4], [7, -5, -2]], (1.0, 1.0, 16.0), 8.0 * np.pi, [3, 4, 5]),
    ],
)
def test_oscillatory_instability_of_higher_modes_fails_the_report(
    monkeypatch, canonical_params, jacobian, diffusivities, ell, unstable
):
    _patch_jacobian(monkeypatch, np.array(jacobian, dtype=float))
    d1, d2, d3 = diffusivities
    p = canonical_params.replace(d1=d1, d2=d2, d3=d3, ell=float(ell))
    report = stability_exchange_report(p)
    assert report.higher_modes_stable is False and report.passed is False
    assert report.higher_margin < 0.0
    assert _report_flags(report) == _eigen_oracle(p)
    growing = _growing_modes(p)
    assert sorted(growing) == unstable and all(growing.values())  # complex pairs


@pytest.mark.parametrize(
    "entry, value",
    # a large positive diagonal entry; det A = k1*a*(k7*C1 + k5*A[2,0]) < 0 at a = 1
    [((0, 0), 1e3), ((2, 2), 1e3), ((2, 0), -3.0)],
)
def test_broken_sign_pattern_raises(monkeypatch, canonical_threshold, entry, value):
    jacobian = mtphase.model.linearization_matrix(canonical_threshold.lambda0).copy()
    jacobian[entry] = value
    _patch_jacobian(monkeypatch, jacobian)
    with pytest.raises(SignPatternBroken):
        stability_exchange_report(canonical_threshold.lambda0)


def _canonical_plane(base):
    return ParameterPlane(
        base=base,
        axis1={"d1": 1.0, "d2": 1.0, "d3": 1.0},
        range1=(0.05, 0.4),
        axis2="k7",
        range2=(1.2, 3.0),
    )


def test_trace_threshold_curve_vertices_are_critical(canonical_params):
    plane = _canonical_plane(canonical_params)
    points = trace_threshold_curve(plane, n_points=40)
    assert len(points) >= 10
    for tp in points:
        s, t = tp.plane_coords
        assert 0.05 - 1e-9 <= s <= 0.4 + 1e-9
        assert 1.2 - 1e-9 <= t <= 3.0 + 1e-9
        assert abs(principal_eigenvalue(plane.at(s, t)).real) <= 1e-7
    # The canonical point (d = d*, k7 = 2) lies on the curve.
    coords = np.array([tp.plane_coords for tp in points])
    gap = np.hypot(coords[:, 0] - 0.1700864866260337, coords[:, 1] - 2.0).min()
    assert gap <= 0.08


def test_trace_threshold_curve_outside_window(canonical_params):
    plane = ParameterPlane(
        base=canonical_params,
        axis1={"d1": 1.0, "d2": 1.0, "d3": 1.0},
        range1=(0.6, 0.9),  # deep in the stable region for k7 in [1.2, 1.6]
        axis2="k7",
        range2=(1.2, 1.6),
    )
    with pytest.raises(CurveLeftDomain):
        trace_threshold_curve(plane, n_points=20)
