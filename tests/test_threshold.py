"""Threshold location on rays, region classification, and curve tracing."""

from __future__ import annotations

import dataclasses
import inspect
import math
from pathlib import Path

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
    MTPhaseError,
    NoSignChange,
    ParamBatch,
    ParameterPlane,
    ParameterRay,
    Region,
    SignPatternBroken,
    StepCollapse,
    char_poly_coeffs,
    classify_region,
    det_principal_mode,
    find_threshold,
    laplacian_eigenvalue,
    mode_matrices,
    mode_matrix,
    parse_config,
    principal_eigenvalue,
    solve_spectrum,
    stability_exchange_report,
    trace_threshold_curve,
    ValidationError,
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
    s = np.array([0.7 * d_star, 1.5 * d_star, d_star])
    batch = ParamBatch.from_record({**canonical_ray.base.to_record(), "d1": s, "d2": s, "d3": s})
    report = classify_region(batch)
    assert report.region.tolist() == [Region.UNSTABLE.value, Region.STABLE.value, Region.CRITICAL.value]


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
    assert _report_flags(report) == _eigen_oracle(canonical_threshold.lambda0)


def test_stability_exchange_report_from_params(canonical_threshold):
    # from the threshold's parameters alone, with no mode-1 solve passed in
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
        # real to rounding relative to the root, not by an exactly zero
        # imaginary part of LAPACK's output; .item() fails unless exactly
        # one root is positive
        real = roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real
        s_star = real[real > 0.0].item()
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
    curve = trace_threshold_curve(plane, n_points=40)
    assert curve.shape[1] == 2 and len(curve) >= 10
    for s, t in curve.tolist():
        assert 0.05 - 1e-9 <= s <= 0.4 + 1e-9
        assert 1.2 - 1e-9 <= t <= 3.0 + 1e-9
        assert abs(principal_eigenvalue(plane.at(s, t)).real) <= 1e-7
    # The canonical point (d = d*, k7 = 2) lies on the curve.
    gap = np.hypot(curve[:, 0] - 0.1700864866260337, curve[:, 1] - 2.0).min()
    assert gap <= 0.08


def _shipped_plane(name):
    return parse_config(Path(__file__).parents[1] / "configs" / f"{name}.ini").plane()


def _floats_around(x: float, n: int) -> list[float]:
    """``x`` and the ``n`` floats on either side of it, in increasing order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[::-1] + above[1:]


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_every_curve_vertex_is_a_root_to_a_few_ulps(name):
    # Each vertex is solved along one axis, so det E1 changes sign within a
    # few floats of it along that axis: near a root the rounding of det E1
    # outweighs its change over one float, and the nearest sign change is
    # up to 5 floats away on the shipped planes.  Along the other axis the
    # vertex is where continuation put it, hundreds of floats off or more.
    plane = _shipped_plane(name)
    det = mtphase.threshold._det_along(plane.base, plane.axis1, plane.axis2)
    curve = trace_threshold_curve(plane)
    assert len(curve) >= 20
    for s, t in curve.tolist():
        along1 = {np.sign(det(c, t)) for c in _floats_around(s, 8)}
        along2 = {np.sign(det(s, c)) for c in _floats_around(t, 8)}
        assert any(0.0 in signs or signs == {-1.0, 1.0} for signs in (along1, along2)), (s, t)


@pytest.mark.parametrize(
    "axis1, axis2",
    [
        ({"d1": 1.0, "d2": 1.0, "d3": 1.0}, "d1"),
        ("k7", {"k7": 1.0}),
        ({"d1": 1.0, "ell": 2.0}, {"ell": 1.0, "k1": 1.0}),
    ],
)
def test_plane_axes_that_share_a_field_are_rejected(canonical_params, axis1, axis2):
    # the second axis would overwrite the shared field: ``at`` left the plane
    # and the curve tracer found no sign change where the sweep had one
    with pytest.raises(ValidationError) as excinfo:
        ParameterPlane(
            base=canonical_params, axis1=axis1, range1=(0.05, 0.4), axis2=axis2,
            range2=(0.05, 0.4),
        )
    assert excinfo.value.field == "axis2"


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


def test_trace_threshold_curve_starts_on_a_column_when_no_row_crosses_it(canonical_params):
    # Across this window the curve climbs from k7 = 1.994 to 2.006, between
    # the scan rows at k7 = 1.9875 and 2.1: only a column scan finds it.
    plane = dataclasses.replace(_canonical_plane(canonical_params), range1=(0.169, 0.171))
    det = mtphase.threshold._det_along(plane.base, plane.axis1, plane.axis2)
    for t in np.linspace(1.2, 3.0, 17).tolist():
        row = [det(s, t) for s in np.linspace(0.169, 0.171, 33).tolist()]
        assert len({np.sign(x) for x in row}) == 1
    curve = trace_threshold_curve(plane, n_points=40)
    assert curve[:, 0].min() <= 0.169 + 1e-4 and curve[:, 0].max() >= 0.171 - 1e-4
    for s, t in curve.tolist():
        assert 1.99 <= t <= 2.01
        assert abs(principal_eigenvalue(plane.at(s, t)).real) <= 1e-8


def test_each_direction_of_the_curve_has_its_own_vertex_budget():
    # From its first vertex at k7 = 1.25 the curve runs down toward the
    # corner K1 = 0, d = 0, which takes any budget, and up to k7 = 2.97.
    plane = dataclasses.replace(_shipped_plane("canonical"), range1=(-0.1, 0.4), range2=(0.2, 3.0))
    curve = trace_threshold_curve(plane, n_points=30)
    assert len(curve) <= 2 * 30 - 1
    assert curve[:, 1].max() > 2.9
    assert curve[:, 1].min() < 1.05


def _stall(monkeypatch):
    """Make each march of the curve tracer report a collapsed step."""
    march = mtphase.threshold._march
    monkeypatch.setattr(mtphase.threshold, "_march", lambda *args: (march(*args)[0], True))


@pytest.mark.parametrize("stalled", [False, True])
def test_a_complex_sigma11_at_a_curve_vertex_raises_before_step_collapse(
    monkeypatch, canonical_params, stalled
):
    if stalled:
        _stall(monkeypatch)
    spectrum = np.array([1e-3j, -1.0, -2.0])
    monkeypatch.setattr(mtphase.threshold, "solve_spectrum", lambda blocks: spectrum)
    with pytest.raises(ComplexCrossing):
        trace_threshold_curve(_canonical_plane(canonical_params), n_points=40)


def test_a_stalled_curve_carries_its_solved_vertices(monkeypatch, canonical_params):
    plane = _canonical_plane(canonical_params)
    curve = trace_threshold_curve(plane, n_points=40)
    _stall(monkeypatch)
    with pytest.raises(StepCollapse) as excinfo:
        trace_threshold_curve(plane, n_points=40)
    np.testing.assert_array_equal(excinfo.value.points, curve)


# --------------------------------------------------------------------------
# det E1 from floats: the root finders' kernel against det_principal_mode


def _det_or_error(evaluate):
    """``float.hex`` of ``evaluate()``, or the type and message it raises."""
    try:
        return float.hex(evaluate())
    except MTPhaseError as exc:
        return type(exc).__name__, str(exc)


def _reference_dets(point):
    """det E1 of the :class:`ModelParams` ``point()`` builds, through
    :func:`det_principal_mode` and through the matrices ``A - rho_1 D`` of
    :func:`mode_matrix`, each as :func:`_det_or_error` gives it."""
    def by_matrix():
        p = point()
        return float(np.linalg.det(mode_matrix(p, laplacian_eigenvalue(1, p.ell))))

    return {_det_or_error(lambda: det_principal_mode(point())), _det_or_error(by_matrix)}


def _seeded_rays(rng: np.random.Generator, bc: str, kind: str, count: int):
    """Rays of one kind through feasible points with rates log-uniform over
    10^+-2: the single rate field k7, proportional diffusivities, or a
    mixed direction that moves k5 and d2."""
    for _ in range(count):
        while True:
            k1, k3, k5, k7, C1, E, d1, d2, d3 = 10.0 ** rng.uniform(-2.0, 2.0, 9)
            if C1 * k1 * k7 > k3 * k5 * E:
                break
        base = ModelParams(k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E, d1=d1, d2=d2, d3=d3,
                           ell=10.0 ** rng.uniform(-0.5, 1.5), bc=bc)
        w = 10.0 ** rng.uniform(-1.0, 1.0, 3)
        direction = {
            "k7": "k7",
            "diffusivities": {"d1": w[0], "d2": w[1], "d3": w[2]},
            "mixed": {"k5": w[0], "d2": w[1]},
        }[kind]
        yield ParameterRay(base=base, direction=direction, bracket=(1.0, 2.0))


@pytest.mark.parametrize("kind", ["k7", "diffusivities", "mixed"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_det_kernel_equals_det_principal_mode_on_rays(bc, kind):
    # coordinates over 10^+-4 of either sign, and 0: the negative ones and
    # 0 are infeasible, and so are small k7 (K1 <= 0) and large k5
    rng = np.random.default_rng([2015, len(bc), len(kind)])
    outcomes = set()
    for ray in _seeded_rays(rng, bc, kind, 40):
        det = mtphase.threshold._det_along(ray.base, ray.direction)
        coords = (10.0 ** rng.uniform(-4.0, 4.0, 12) * rng.choice([1.0, -1.0], 12)).tolist()
        for s in coords + [0.0]:
            got = _det_or_error(lambda: det(s))
            assert _reference_dets(lambda: ray.at(s)) == {got}, (ray, s)
            outcomes.add(got[0] if isinstance(got, tuple) else "value")
    expected = {"value", "NonPositiveParameter"}
    if kind != "diffusivities":
        expected.add("K1NotPositive")
    assert outcomes == expected


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_det_kernel_equals_det_principal_mode_on_the_sweep_window(name):
    # the shipped window widened by its span below and half its span above,
    # which reaches negative diffusivities and, for k7, K1 <= 0
    plane = _shipped_plane(name)
    det = mtphase.threshold._det_along(plane.base, plane.axis1, plane.axis2)
    (a1, b1), (a2, b2) = plane.range1, plane.range2
    outcomes = set()
    for s in np.linspace(a1 - (b1 - a1), b1 + (b1 - a1) / 2, 31).tolist():
        for t in np.linspace(a2 - (b2 - a2), b2 + (b2 - a2) / 2, 31).tolist():
            got = _det_or_error(lambda: det(s, t))
            assert _reference_dets(lambda: plane.at(s, t)) == {got}, (s, t)
            outcomes.add(got[0] if isinstance(got, tuple) else "value")
    assert {"value", "NonPositiveParameter"} <= outcomes


D_RAY = {"d1": 1.0, "d2": 1.0, "d3": 1.0}


def test_find_threshold_builds_one_model_params_however_many_brent_steps(
    monkeypatch, canonical_params
):
    built = []
    post_init = ModelParams.__post_init__
    monkeypatch.setattr(
        ModelParams, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    det_e1 = mtphase.threshold._det_e1
    evaluations = []
    monkeypatch.setattr(
        mtphase.threshold, "_det_e1", lambda values: evaluations.append(1) or det_e1(values)
    )
    solves = []
    solve = mtphase.threshold.solve_spectrum
    monkeypatch.setattr(
        mtphase.threshold, "solve_spectrum", lambda e: solves.append(1) or solve(e)
    )
    slow_diffusion = canonical_params.replace(d1=0.15, d2=0.15, d3=0.15)
    rays = [
        ParameterRay(base=canonical_params, direction=D_RAY, bracket=bracket)
        for bracket in ((0.17, 0.1701), (0.1, 0.2), (1e-3, 1e3))
    ] + [ParameterRay(base=slow_diffusion, direction="k7", bracket=(1.2, 3.0))]
    counts = []
    for ray in rays:
        built.clear(), evaluations.clear(), solves.clear()
        tp = find_threshold(ray)
        # the threshold's own point, and one mode-1 solve for sigma11 and
        # the report together
        assert (len(built), len(solves)) == (1, 1)
        counts.append(len(evaluations))
        # the report from the solve find_threshold passes on is the
        # report of the point, and detE1, evaluated when read, is the value
        # at the polished root
        assert tp.stability_report == stability_exchange_report(tp.lambda0)
        at_root = mtphase.threshold._det_along(ray.base, ray.direction)(tp.ray_coord)
        assert float.hex(tp.detE1) == float.hex(at_root)
    assert len(set(counts)) >= 3 and min(counts) >= 10, counts


# --------------------------------------------------------------------------
# the in-package Brent root finder against scipy.optimize.brentq


def _recorded(f):
    """``f`` with the list of the points it was evaluated at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _brent_family(n: int, seed: int = 2014):
    """``n`` seeded (f, a, b, xtol, rtol), mostly with a sign change on
    [a, b]: smooth, stiff, flat, double and discontinuous roots over 16
    decades of x, half of them scaled by up to 10^+-300, with the tolerance
    pairs the package passes and SciPy's defaults.  Some double roots take
    more than 100 iterations."""
    rng = np.random.default_rng(seed)
    shapes = (
        lambda r, k: lambda x: (x - r) * (1.0 + k * (x - r) ** 2),
        lambda r, k: lambda x: math.tanh(k * (x - r)),
        lambda r, k: lambda x: math.atan(k * (x - r)) + 0.1 * (x - r),
        lambda r, k: lambda x: (x - r) * abs(x - r),
        lambda r, k: lambda x: math.expm1(min(k * (x - r), 50.0)),
        lambda r, k: lambda x: math.floor(k * (x - r)) + 0.5,
        lambda r, k: lambda x: 1.0 if x >= r else -1.0,
        lambda r, k: lambda x: math.copysign(abs(x - r) ** 0.25, x - r),
    )
    for i in range(n):
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        offset = rng.uniform(-3.0, 3.0) * scale
        a, r, b = (np.sort(rng.uniform(-1.0, 1.0, 3)) * scale + offset).tolist()
        k = float(10.0 ** rng.uniform(-2.0, 4.0) / scale)
        shape = shapes[i % len(shapes)](r, k)
        # values from subnormal to overflowing: where products of them
        # underflow, C divides by zero and bisects
        amplitude = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-320.0, 300.0))
        if rng.uniform() < 0.5:
            amplitude = math.copysign(1.0, amplitude)
        f = (lambda g, c: lambda x: c * g(x))(shape, amplitude)
        tolerances = (
            # find_threshold, the curve tracer, verification, SciPy's defaults
            (1e-14 * max(1.0, abs(a), abs(b)), 1e-10),
            (1e-13, 1e-12),
            (1e-14, 4.0 * np.finfo(float).eps),
            (2e-12, 4.0 * np.finfo(float).eps),
        )
        xtol, rtol = tolerances[int(rng.integers(len(tolerances)))]
        yield f, a, b, xtol, rtol


def test_brentq_matches_scipy_bit_for_bit():
    from scipy.optimize import brentq as scipy_brentq

    n = failed = 0
    for f, a, b, xtol, rtol in _brent_family(10_600):
        if (f(a) < 0.0) == (f(b) < 0.0) or f(a) == 0.0 or f(b) == 0.0:
            continue
        outcomes = []
        for solve in (mtphase.threshold.brentq, scipy_brentq):
            g, calls = _recorded(f)
            try:
                root = solve(g, a, b, xtol=xtol, rtol=rtol)
            except RuntimeError as exc:  # 100 iterations did not converge
                root = str(exc)
            else:
                assert type(root) is float
                root = root.hex()
            outcomes.append((root, [float(x).hex() for x in calls]))
        assert outcomes[0] == outcomes[1], (a, b, xtol, rtol)
        n += 1
        failed += not outcomes[0][0].startswith(("0x", "-0x"))
    assert n - failed >= 10_000


def test_brentq_defaults_are_scipys():
    from scipy.optimize import brentq as scipy_brentq

    ours = inspect.signature(mtphase.threshold.brentq).parameters
    theirs = inspect.signature(scipy_brentq).parameters
    for name in ("xtol", "rtol", "maxiter"):
        assert ours[name].default == theirs[name].default, name


@pytest.mark.parametrize(
    "f, a, b, kwargs, error",
    [
        (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, {}, ValueError),
        (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0, {}, ValueError),
        (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),
        (lambda x: math.tanh(x - 0.1234567), -10.0, 10.0, {"maxiter": 3}, RuntimeError),
        (lambda x: x, -1.0, 2.0, {"xtol": 0.0}, ValueError),
        (lambda x: x, -1.0, 2.0, {"rtol": 1e-16}, ValueError),
    ],
    ids=["nan-inside", "nan-at-an-end", "same-sign", "no-convergence", "xtol", "rtol"],
)
def test_brentq_fails_as_scipy_does(f, a, b, kwargs, error):
    from scipy.optimize import brentq as scipy_brentq

    with pytest.raises(error) as ours:
        mtphase.threshold.brentq(f, a, b, **kwargs)
    with pytest.raises(error) as theirs:
        scipy_brentq(f, a, b, **kwargs)
    assert str(ours.value) == str(theirs.value)
