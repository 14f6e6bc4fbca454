"""Instability-threshold location and stability-exchange verification.

The uniform steady state loses stability where the principal-mode block
``E(rho_1) = A - rho_1 D`` becomes singular.  This module finds those
thresholds along parameter rays, classifies parameter points as stable /
critical / unstable, verifies that exactly one real eigenvalue crosses zero
while every other mode stays strictly stable, and traces the critical curve
through two-parameter slices by pseudo-arclength continuation.

:func:`classify_region` takes one point or a :class:`ParamBatch`; a batch
is classified with one eigenvalue call and reported as arrays, which is
how a sweep classifies a grid row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ComplexCrossing,
    CurveLeftDomain,
    K1NotPositive,
    NonPositiveParameter,
    NoSignChange,
    StepCollapse,
)
from .model import ModelParams, ParamBatch, check_conditions, cond2_margin, validate_params
from .spectral import (
    char_poly_coeffs,
    laplacian_eigenvalue,
    mode_matrices,
    mode_matrix,
    principal_eigenvalue,
    solve_spectrum,
)

__all__ = [
    "ParameterRay",
    "ParameterPlane",
    "ThresholdPoint",
    "Region",
    "RegionReport",
    "StabilityExchangeReport",
    "det_principal_mode",
    "find_threshold",
    "classify_region",
    "stability_exchange_report",
    "trace_threshold_curve",
]

SIGMA_ZERO_BAND = 1e-8
_TANGENT_TOL = 1e-8


def _axis_fields(axis: str | Mapping[str, float], value) -> dict:
    """The fields an axis sets at coordinate ``value`` (a float or an array)."""
    if isinstance(axis, str):
        return {axis: value}
    return {name: weight * value for name, weight in axis.items()}


@dataclass(frozen=True)
class ParameterRay:
    """A one-dimensional path through parameter space.

    ``direction`` is either the name of a single field (the ray coordinate
    *is* that field's value; all other fields come from ``base``) or a
    mapping ``{field: weight}`` setting each listed field to ``weight * s``
    at ray coordinate ``s`` (a proportional ray; base values of the listed
    fields are ignored).  ``bracket`` is the coordinate interval searched.
    """

    base: ModelParams
    direction: str | Mapping[str, float]
    bracket: tuple[float, float]

    def at(self, s: float) -> ModelParams:
        record = self.base.to_record()
        record.update(_axis_fields(self.direction, s))
        return validate_params(record)


@dataclass(frozen=True)
class ParameterPlane:
    """A two-dimensional slice, each axis specified like a ray direction."""

    base: ModelParams
    axis1: str | Mapping[str, float]
    range1: tuple[float, float]
    axis2: str | Mapping[str, float]
    range2: tuple[float, float]

    def _record(self, s, t) -> dict:
        record = self.base.to_record()
        record.update(_axis_fields(self.axis1, s))
        record.update(_axis_fields(self.axis2, t))
        return record

    def at(self, s: float, t: float) -> ModelParams:
        return validate_params(self._record(s, t))

    def row(self, s: float, t: np.ndarray) -> ParamBatch:
        """The points ``(s, t[j])`` as one unvalidated batch."""
        return ParamBatch.from_record(self._record(s, np.asarray(t, dtype=float)))


class Region(str, Enum):
    """Which side of the critical manifold a parameter point lies on."""

    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


#: the values of Region.STABLE, CRITICAL and UNSTABLE, indexed by side 0, 1, 2
_REGION_VALUES = np.array([r.value for r in Region])


@dataclass(frozen=True)
class RegionReport:
    """Region, leading principal-mode eigenvalue and cond2 of a classification.

    For one :class:`ModelParams` the fields are a :class:`Region`, a complex
    and a bool.  For a :class:`ParamBatch` of n points they are (n,) arrays,
    as the batch's own fields are: the region values as strings
    (``"stable"``, ``"critical"``, ``"unstable"``), complex ``sigma11`` and
    boolean ``cond2_ok``.
    """

    region: Region | np.ndarray
    sigma11: complex | np.ndarray
    cond2_ok: bool | np.ndarray


@dataclass(frozen=True)
class StabilityExchangeReport:
    """Numerical checks that exactly the principal eigenvalue crosses zero.

    When the stability-exchange condition (cond2) is violated the analytic
    argument does not apply; the report is then marked ``skipped`` and
    ``passed`` is None.
    """

    sigma11: complex
    sigma11_in_band: bool
    sigma11_simple: bool
    mode1_rest_stable: bool
    re_sigma12: float
    re_sigma13: float
    higher_modes_stable: bool
    max_re_higher: float
    traces_negative: bool
    p1_positive: bool
    scaling_consistent: bool
    cond2_ok: bool
    skipped: bool
    passed: bool | None
    M_max: int


@dataclass
class ThresholdPoint:
    """A located zero of the principal-mode determinant along a ray."""

    lambda0: ModelParams
    ray_coord: float
    sigma11: complex
    detE1: float
    crossing_derivative: float
    near_tangential: bool
    stability_report: StabilityExchangeReport | None = None
    plane_coords: tuple[float, float] | None = None


def det_principal_mode(p: ModelParams) -> float:
    """Determinant of the principal-mode block ``A - rho_1 D``."""
    return float(np.linalg.det(mode_matrix(p, laplacian_eigenvalue(1, p.ell))))


def _polish_root(f, s: float, fa_s: float, h: float) -> tuple[float, float]:
    """A few secant steps to push |f| toward machine accuracy."""
    s0, f0 = s - h, f(s - h)
    s1, f1 = s, fa_s
    for _ in range(4):
        if f1 == 0.0 or f1 == f0:
            break
        s2 = s1 - f1 * (s1 - s0) / (f1 - f0)
        if not np.isfinite(s2):
            break
        f2 = f(s2)
        if abs(f2) >= abs(f1):
            break
        s0, f0, s1, f1 = s1, f1, s2, f2
    return s1, f1


def find_threshold(
    ray: ParameterRay,
    tol: float = 1e-10,
    M_max: int = 50,
    sigma_band: float = SIGMA_ZERO_BAND,
    attach_report: bool = True,
) -> ThresholdPoint:
    """Locate a sign change of the principal determinant on the ray.

    Uses Brent's method (bisection with secant/inverse-quadratic
    acceleration) to relative tolerance ``tol`` in the ray coordinate, then
    polishes the root.  Raises :class:`NoSignChange` when the bracket does
    not straddle the critical set and :class:`ComplexCrossing` when the
    leading eigenvalue at the root has imaginary part above the zero band
    (a Hopf-like crossing the real-transition theory does not cover).
    """
    a, b = ray.bracket
    f = lambda s: det_principal_mode(ray.at(s))
    fa, fb = f(a), f(b)
    if fa == 0.0:
        s_root, f_root = a, fa
    elif fb == 0.0:
        s_root, f_root = b, fb
    elif np.sign(fa) == np.sign(fb):
        raise NoSignChange(
            f"det E1 has the same sign at both bracket ends "
            f"({fa:.3e} at {a!r}, {fb:.3e} at {b!r})"
        )
    else:
        s_root = brentq(f, a, b, xtol=1e-14 * max(1.0, abs(a), abs(b)), rtol=tol)
        h = 1e-7 * max(1.0, abs(s_root))
        s_root, f_root = _polish_root(f, s_root, f(s_root), h)

    p_root = ray.at(s_root)
    sigma11 = principal_eigenvalue(p_root)
    if abs(sigma11.imag) > sigma_band:
        raise ComplexCrossing(
            f"leading eigenvalue at threshold is complex: {sigma11!r}"
        )

    h = 1e-6 * max(1.0, abs(s_root))
    deriv = (f(s_root + h) - f(s_root - h)) / (2.0 * h)
    point = ThresholdPoint(
        lambda0=p_root,
        ray_coord=float(s_root),
        sigma11=sigma11,
        detE1=float(f_root),
        crossing_derivative=float(deriv),
        near_tangential=abs(deriv) < _TANGENT_TOL,
    )
    if attach_report:
        point.stability_report = stability_exchange_report(point, M_max=M_max)
    return point


def classify_region(
    p: ModelParams | ParamBatch, sigma_band: float = SIGMA_ZERO_BAND
) -> RegionReport:
    """Stable / critical / unstable according to the leading eigenvalue.

    ``cond2_ok`` reports whether the stability-exchange condition holds;
    when it does not, the classification is outside the supported theory
    but the eigenvalue sign is still reported.

    A :class:`ParamBatch` of feasible points is classified by one
    eigenvalue call on the stack of their principal-mode blocks, and its
    report holds one array element per point.  A single point is
    classified as a batch of one, and its report holds element 0 as
    scalars.
    """
    batch = ParamBatch.from_record(p.to_record()) if isinstance(p, ModelParams) else p
    # rho_1 per distinct ell through the scalar formula: NumPy squares an
    # array as x*x, which differs from Python's float pow in the last bit
    # for about one value in 1,200
    ells = batch.ell.tolist()
    rho_of = {ell: laplacian_eigenvalue(1, ell) for ell in set(ells)}
    rho1 = np.array([rho_of[ell] for ell in ells], dtype=float)
    sigma11 = solve_spectrum(mode_matrices(batch, rho1))[:, 0]
    re = sigma11.real
    side = np.where(np.abs(re) <= sigma_band, 1, np.where(re > 0.0, 2, 0))
    report = RegionReport(
        region=_REGION_VALUES[side], sigma11=sigma11, cond2_ok=cond2_margin(batch) > 0.0
    )
    if isinstance(p, ModelParams):
        return RegionReport(
            region=Region(report.region[0]),
            sigma11=complex(report.sigma11[0]),
            cond2_ok=bool(report.cond2_ok[0]),
        )
    return report


def _scaling_cross_check(p: ModelParams, m: int) -> bool:
    """Mode-m block equals the principal block at rescaled diffusion.

    Checked in both substitution directions: shrinking the diffusion vector
    by ``rho_1/rho_m`` and evaluating at ``rho_m`` reproduces the principal
    block, and inflating it by ``rho_m/rho_1`` at ``rho_1`` reproduces the
    mode-m block (which therefore lies strictly on the stable side).
    """
    rho1 = laplacian_eigenvalue(1, p.ell)
    rho_m = laplacian_eigenvalue(m, p.ell)
    e1 = mode_matrix(p, rho1)
    em = mode_matrix(p, rho_m)
    scale = np.abs(e1).max()

    shrink = rho1 / rho_m
    p_shrunk = p.replace(d1=p.d1 * shrink, d2=p.d2 * shrink, d3=p.d3 * shrink)
    ok_down = np.abs(mode_matrix(p_shrunk, rho_m) - e1).max() <= 1e-14 * scale

    inflate = rho_m / rho1
    p_inflated = p.replace(d1=p.d1 * inflate, d2=p.d2 * inflate, d3=p.d3 * inflate)
    ok_up = np.abs(mode_matrix(p_inflated, rho1) - em).max() <= 1e-14 * np.abs(em).max()
    return bool(ok_down and ok_up)


def stability_exchange_report(
    tp: ThresholdPoint | ModelParams,
    M_max: int = 50,
    sigma_band: float = SIGMA_ZERO_BAND,
) -> StabilityExchangeReport:
    """Verify that only the principal eigenvalue sits at zero.

    Checks, at the threshold parameters: the leading mode-1 eigenvalue lies
    in the zero band and is simple; the other two mode-1 eigenvalues and all
    eigenvalues of modes ``2..M_max`` have negative real part; every mode
    block has negative trace and positive second characteristic coefficient;
    and the diffusion-rescaling identity relating mode blocks holds.
    """
    p = tp.lambda0 if isinstance(tp, ThresholdPoint) else tp
    cond = check_conditions(p)

    s1 = None
    max_re_higher = -np.inf
    traces_negative = True
    p1_positive = True
    for m in range(1, M_max + 1):
        emat = mode_matrix(p, laplacian_eigenvalue(m, p.ell))
        sig = solve_spectrum(emat)
        p2, p1, _ = char_poly_coeffs(emat)
        if -p2 >= 0.0:  # trace = -p2
            traces_negative = False
        if p1 <= 0.0:
            p1_positive = False
        if m == 1:
            s1 = sig
        else:
            max_re_higher = max(max_re_higher, float(sig[0].real))
    sigma11 = complex(s1[0])

    sigma11_in_band = abs(sigma11.real) <= sigma_band and abs(sigma11.imag) <= sigma_band
    sigma11_simple = bool(np.all(np.abs(s1[1:] - sigma11) > 1e-6))
    re12, re13 = float(s1[1].real), float(s1[2].real)
    mode1_rest_stable = re12 < 0.0 and re13 < 0.0

    max_re_higher = float(max_re_higher)
    higher_modes_stable = max_re_higher < 0.0

    scaling_consistent = all(_scaling_cross_check(p, m) for m in (2, min(M_max, 50)))

    skipped = not cond.cond2_ok
    checks = (
        sigma11_in_band
        and sigma11_simple
        and mode1_rest_stable
        and higher_modes_stable
        and traces_negative
        and p1_positive
        and scaling_consistent
    )
    return StabilityExchangeReport(
        sigma11=sigma11,
        sigma11_in_band=sigma11_in_band,
        sigma11_simple=sigma11_simple,
        mode1_rest_stable=mode1_rest_stable,
        re_sigma12=re12,
        re_sigma13=re13,
        higher_modes_stable=higher_modes_stable,
        max_re_higher=max_re_higher,
        traces_negative=traces_negative,
        p1_positive=p1_positive,
        scaling_consistent=scaling_consistent,
        cond2_ok=cond.cond2_ok,
        skipped=skipped,
        passed=None if skipped else bool(checks),
        M_max=M_max,
    )


# --------------------------------------------------------------------------
# continuation of the critical curve through a 2-parameter slice


def _initial_vertex(F, n_scan: int = 17, n_ray: int = 33):
    """Scan the unit square for a bracketing ray; return a first root."""
    us = np.linspace(0.0, 1.0, n_ray)
    for v in np.linspace(0.0, 1.0, n_scan):
        vals = np.array([F(u, v) for u in us])
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if idx.size:
            i = int(idx[0])
            u0 = brentq(lambda u: F(u, v), us[i], us[i + 1], xtol=1e-13, rtol=1e-12)
            return u0, float(v)
    for u in np.linspace(0.0, 1.0, n_scan):
        vals = np.array([F(u, v) for v in us])
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if idx.size:
            i = int(idx[0])
            v0 = brentq(lambda v: F(u, v), us[i], us[i + 1], xtol=1e-13, rtol=1e-12)
            return float(u), v0
    raise CurveLeftDomain("no sign change of det E1 found inside the parameter window")


def _gradient(F, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    gu = (F(x[0] + h, x[1]) - F(x[0] - h, x[1])) / (2.0 * h)
    gv = (F(x[0], x[1] + h) - F(x[0], x[1] - h)) / (2.0 * h)
    return np.array([gu, gv])


def _correct(F, x_pred: np.ndarray, g_unit: np.ndarray, h: float):
    """1-D root solve along the gradient direction through the predictor."""
    phi = lambda c: F(*(x_pred + c * g_unit))
    c_lo, c_hi = -0.75 * h, 0.75 * h
    f_lo, f_hi = phi(c_lo), phi(c_hi)
    for _ in range(5):
        if np.sign(f_lo) * np.sign(f_hi) < 0:
            c_root = brentq(phi, c_lo, c_hi, xtol=1e-13, rtol=1e-12)
            return x_pred + c_root * g_unit
        c_lo *= 2.0
        c_hi *= 2.0
        f_lo, f_hi = phi(c_lo), phi(c_hi)
    return None


def _march(F, x0: np.ndarray, tau0: np.ndarray, h0: float, budget: int):
    """Follow the zero curve from x0 in direction tau0 until it exits [0,1]^2.

    Returns ``(points, collapsed)`` where ``collapsed`` signals that the step
    control gave up before leaving the window.
    """
    points: list[np.ndarray] = []
    x, tau, h = x0.copy(), tau0.copy(), h0
    h_min, h_max = 1e-6, 0.05
    while len(points) < budget:
        stepped = False
        while h >= h_min:
            x_pred = x + h * tau
            g = _gradient(F, x_pred)
            norm = np.linalg.norm(g)
            if not np.isfinite(norm) or norm == 0.0:
                h /= 2.0
                continue
            x_new = _correct(F, x_pred, g / norm, h)
            if x_new is not None and np.linalg.norm(x_new - x) <= 3.0 * h:
                stepped = True
                break
            h /= 2.0
        if not stepped:
            return points, True
        if not (-1e-9 <= x_new[0] <= 1.0 + 1e-9 and -1e-9 <= x_new[1] <= 1.0 + 1e-9):
            break  # left the requested window: normal termination
        g_new = _gradient(F, x_new)
        tau_new = np.array([-g_new[1], g_new[0]])
        n = np.linalg.norm(tau_new)
        if not np.isfinite(n) or n == 0.0:
            break
        tau_new /= n
        if tau_new @ tau < 0.0:
            tau_new = -tau_new
        points.append(x_new.copy())
        x, tau = x_new, tau_new
        h = min(h * 1.3, h_max)
    return points, False


def trace_threshold_curve(
    plane: ParameterPlane,
    n_points: int = 100,
    initial_step: float = 1e-2,
) -> list[ThresholdPoint]:
    """Trace the critical curve det E1 = 0 through a 2-parameter window.

    Pseudo-arclength continuation in window-normalized coordinates with step
    halving on corrector failure; each accepted vertex is re-polished with
    :func:`find_threshold` (without its stability report) along the axis in
    which the determinant varies faster.  Returns the polyline ordered along
    the curve.  Raises :class:`CurveLeftDomain` if no crossing exists in the
    window and :class:`StepCollapse` (with partial results) if continuation
    stalls.
    """
    (a1, b1), (a2, b2) = plane.range1, plane.range2
    span1, span2 = b1 - a1, b2 - a2

    def F(u: float, v: float) -> float:
        try:
            return det_principal_mode(plane.at(a1 + u * span1, a2 + v * span2))
        except (NonPositiveParameter, K1NotPositive):
            return np.nan  # infeasible territory: treated as unbrackatable

    u0, v0 = _initial_vertex(F)
    x0 = np.array([u0, v0])
    g0 = _gradient(F, x0)
    n0 = np.linalg.norm(g0)
    if not np.isfinite(n0) or n0 == 0.0:
        raise StepCollapse("degenerate gradient at the initial vertex", points=[])
    tau0 = np.array([-g0[1], g0[0]]) / n0

    budget = max(n_points - 1, 0)
    fwd, collapsed_f = _march(F, x0, tau0, initial_step, budget)
    back, collapsed_b = _march(F, x0, -tau0, initial_step, max(budget - len(fwd), 0))
    coords = [*reversed(back), x0, *fwd]

    points: list[ThresholdPoint] = []
    for u, v in coords:
        s = a1 + u * span1
        t = a2 + v * span2
        tp = _polish_vertex(plane, F, (u, v), (s, t))
        points.append(tp)
    if collapsed_f or collapsed_b:
        raise StepCollapse(
            "continuation step collapsed before leaving the window", points=points
        )
    return points


def _polish_vertex(
    plane: ParameterPlane,
    F,
    uv: tuple[float, float],
    st: tuple[float, float],
) -> ThresholdPoint:
    """Re-verify one continuation vertex with a bracketing 1-D root solve."""
    (a1, b1), (a2, b2) = plane.range1, plane.range2
    span1, span2 = b1 - a1, b2 - a2
    u, v = uv
    s, t = st
    g = _gradient(F, np.array([u, v]))
    if abs(g[0]) >= abs(g[1]):
        axis, coord, span, lo = plane.axis1, s, span1, a1
        fixed = lambda c: plane.at(c, t)
    else:
        axis, coord, span, lo = plane.axis2, t, span2, a2
        fixed = lambda c: plane.at(s, c)
    base = fixed(coord)
    ray = ParameterRay(
        base=base,
        direction=axis,
        bracket=_expand_bracket(lambda c: det_principal_mode(fixed(c)), coord, 1e-4 * abs(span)),
    )
    tp = find_threshold(ray, attach_report=False)
    if abs(g[0]) >= abs(g[1]):
        tp.plane_coords = (tp.ray_coord, t)
    else:
        tp.plane_coords = (s, tp.ray_coord)
    return tp


def _expand_bracket(f, center: float, h: float) -> tuple[float, float]:
    lo, hi = center - h, center + h
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(40):
        if np.sign(f_lo) * np.sign(f_hi) < 0:
            return lo, hi
        lo, hi = center - (center - lo) * 2.0, center + (hi - center) * 2.0
        f_lo, f_hi = f(lo), f(hi)
    raise NoSignChange(f"could not bracket a root around {center!r}")
