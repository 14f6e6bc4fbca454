"""Instability-threshold location and the exchange-of-stability certificate.

The uniform steady state loses stability where the principal-mode block
``E(rho_1) = A - rho_1 D`` becomes singular.  This module finds those
thresholds along parameter rays, classifies parameter points as stable /
critical / unstable, certifies for every mode that exactly one real
eigenvalue crosses zero while all others stay strictly stable, and traces
the critical curve through two-parameter slices by pseudo-arclength
continuation.

:func:`classify_region` takes a :class:`ParamBatch`, classifies it with
one eigenvalue call and reports arrays; a sweep passes it a fixed-size
slice of the grid at a time.

The root finders evaluate det E1 from plain floats.  :func:`find_threshold`,
the curve tracer's ``F(u, v)`` and the bracket search and root solve of a
curve vertex read the base point's fields once; each evaluation then sets
the fields the ray or plane moves, runs the domain checks of
:class:`ModelParams` (:func:`~mtphase.model.domain_error`: the same
errors, in the same field order) and builds E1 with the float operations
of ``linearization_matrix(p) - rho_1 * diffusion_matrix(p)``, so every
value is the one a :class:`ModelParams` gives, bit for bit.  No
:class:`ModelParams` is built per evaluation; a threshold builds one, its
``lambda0``, and solves its mode-1 block once for ``sigma11`` and the
stability report together.  A curve vertex is solved by the same root
solve as a threshold, and builds one :class:`ModelParams` for the same
mode-1 check that ``sigma11`` is real there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ComplexCrossing,
    CurveLeftDomain,
    K1NotPositive,
    NonPositiveParameter,
    NoSignChange,
    SignPatternBroken,
    StepCollapse,
    ValidationError,
)
from .model import (
    POSITIVE_FIELDS,
    ModelParams,
    ParamBatch,
    cond2_margin,
    domain_error,
    jacobian_rows,
    linearization_matrix,
    validate_params,
)
from .spectral import (
    laplacian_eigenvalue,
    mode_matrices,
    mode_matrix,
    solve_spectrum,
)

__all__ = [
    "ParameterRay",
    "ParameterPlane",
    "ThresholdPoint",
    "Region",
    "RegionReport",
    "StabilityExchangeReport",
    "brentq",
    "det_principal_mode",
    "find_threshold",
    "classify_region",
    "cond1_ok",
    "stability_exchange_report",
    "trace_threshold_curve",
]

SIGMA_ZERO_BAND = 1e-8
_TANGENT_TOL = 1e-8
#: a certificate value at or below this fraction of its summed term
#: magnitudes is not told apart from zero
_CERT_BAND = 1e-12
#: relative distance within which an equality of cond1 counts as holding
_COND_RTOL = 1e-12
#: first continuation step of the curve tracer, in window-normalized units
_INITIAL_STEP = 1e-2
#: widenings (and retreats from infeasible ends) of a curve vertex's bracket
_BRACKET_TRIES = 40


def _axis_fields(axis: str | Mapping[str, float], value) -> dict:
    """The fields an axis sets at coordinate ``value`` (a float or an array)."""
    if isinstance(axis, str):
        return {axis: value}
    return {name: float(weight) * value for name, weight in axis.items()}


def _axis_overlap(axis1: str | Mapping[str, float], axis2: str | Mapping[str, float]) -> str:
    """Why two axes cannot span a plane, or ``""``: the fields that both set."""
    shared = sorted(_axis_fields(axis1, 1.0).keys() & _axis_fields(axis2, 1.0).keys())
    return f"sets {', '.join(shared)}, which axis1 sets too" if shared else ""


#: the numeric fields of a :class:`ModelParams`, as a tuple
_field_values = operator.attrgetter(*POSITIVE_FIELDS)
_FIELD_INDEX = {name: i for i, name in enumerate(POSITIVE_FIELDS)}


def _det_e1(values: list[float]) -> float:
    """det E1 = det(A - rho_1 D) at the field values ``values`` (Python
    floats in ``POSITIVE_FIELDS`` order).

    Raises the error :class:`ModelParams` would raise for the values.
    Otherwise E1 is built with the float operations of
    ``linearization_matrix(p) - rho_1 * diffusion_matrix(p)``, so the value
    is the same float, bit for bit, as through a :class:`ModelParams`.
    """
    error = domain_error(values)
    if error is not None:
        raise error
    k1, k3, k5, k7, C1, E, d1, d2, d3, ell = values
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = jacobian_rows(k1, k3, k5, k7, C1, E)
    rho = laplacian_eigenvalue(1, ell)
    z = rho * 0.0  # an off-diagonal entry of rho * D
    E1 = [
        [a00 - rho * d1, a01 - z, a02 - z],
        [a10 - z, a11 - rho * d2, a12 - z],
        [a20 - z, a21 - z, a22 - rho * d3],
    ]
    return float(np.linalg.det(np.array(E1)))


def _det_along(base: ModelParams, *axes: str | Mapping[str, float]) -> Callable[..., float]:
    """det E1 as a function of one coordinate per axis, through ``base``.

    The base's fields are read once, as Python floats.  Each call sets the
    fields the axes move, later axes last, as :meth:`ParameterRay.at` and
    :meth:`ParameterPlane.at` do, and evaluates :func:`_det_e1` without
    building a :class:`ModelParams`.
    """
    values = list(map(float, _field_values(base)))
    moves = []
    for axis in axes:
        weights = _axis_fields(axis, 1.0)
        unknown = sorted(set(weights) - set(_FIELD_INDEX))
        if unknown:  # what validate_params raises for them
            raise ValidationError(", ".join(unknown), "unknown parameter field(s)")
        moves.append([(_FIELD_INDEX[name], w) for name, w in weights.items()])

    def det(*coords: float) -> float:
        point = values.copy()
        for axis_moves, c in zip(moves, coords):
            c = float(c)
            for i, w in axis_moves:
                point[i] = w * c
        return _det_e1(point)

    return det


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
    """A two-dimensional slice, each axis specified like a ray direction;
    the two axes set no field in common (else :class:`ValidationError`)."""

    base: ModelParams
    axis1: str | Mapping[str, float]
    range1: tuple[float, float]
    axis2: str | Mapping[str, float]
    range2: tuple[float, float]

    def __post_init__(self):
        # an axis2 field would overwrite axis1's, so that ``at`` left the plane
        overlap = _axis_overlap(self.axis1, self.axis2)
        if overlap:
            raise ValidationError("axis2", overlap)

    def record(self, s, t) -> dict:
        """The fields at plane coordinates ``(s, t)``, unvalidated; ``s`` and
        ``t`` are floats, or equal-length arrays for a
        :meth:`~mtphase.model.ParamBatch.from_record` of many points."""
        record = self.base.to_record()
        record.update(_axis_fields(self.axis1, s))
        record.update(_axis_fields(self.axis2, t))
        return record

    def at(self, s: float, t: float) -> ModelParams:
        return validate_params(self.record(s, t))


class Region(str, Enum):
    """Which side of the critical manifold a parameter point lies on."""

    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


#: the values of Region.STABLE, CRITICAL and UNSTABLE, indexed by side 0, 1, 2;
#: an object array, so that a batch report shares these three strings
_REGION_VALUES = np.array([r.value for r in Region], dtype=object)


@dataclass(frozen=True)
class RegionReport:
    """Region and leading principal-mode eigenvalue of each point of a
    :class:`ParamBatch` of n points, as (n,) arrays like the batch's own
    fields: the region values as strings (``"stable"``, ``"critical"``,
    ``"unstable"``) and complex ``sigma11``.
    """

    region: np.ndarray
    sigma11: np.ndarray


@dataclass(frozen=True, slots=True)
class StabilityExchangeReport:
    """Certificate that exactly the principal eigenvalue crosses zero, for
    every mode; :func:`stability_exchange_report` decides each flag.  No
    eigenvalue is kept (the threshold has sigma11): a run may hold one
    report per threshold."""

    sigma11_in_band: bool
    sigma11_simple: bool
    mode1_rest_stable: bool
    higher_modes_stable: bool
    higher_margin: float
    traces_negative: bool
    p1_positive: bool
    passed: bool


@dataclass(frozen=True, slots=True)
class ThresholdPoint:
    """A located zero of the principal-mode determinant along a ray.

    ``detE1`` and ``near_tangential`` are evaluated from the point when
    read, not stored: a run may hold one point per threshold.
    """

    lambda0: ModelParams
    ray_coord: float
    sigma11: complex
    crossing_derivative: float
    stability_report: StabilityExchangeReport | None = None

    @property
    def detE1(self) -> float:
        """det E1 at ``lambda0``: for a located threshold, the value at the
        root that :func:`find_threshold` polished, bit for bit."""
        return det_principal_mode(self.lambda0)

    @property
    def near_tangential(self) -> bool:
        """Whether det E1 crosses zero with a slope below ``_TANGENT_TOL``."""
        return abs(self.crossing_derivative) < _TANGENT_TOL


def det_principal_mode(p: ModelParams) -> float:
    """Determinant of the principal-mode block ``A - rho_1 D``."""
    return _det_e1(list(map(float, _field_values(p))))


#: the default and smallest ``rtol`` of :func:`brentq`, as in SciPy
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)


def brentq(
    f, a: float, b: float, xtol: float = 2e-12, rtol: float = _BRENT_RTOL, maxiter: int = 100
) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4:
    bisection with secant and inverse-quadratic steps.  This is a
    statement-for-statement port of SciPy's ``brentq.c`` with the same
    defaults, so it evaluates ``f`` at the same points and returns the same
    float as ``scipy.optimize.brentq``; the root is within
    ``xtol + rtol * |root|``.

    Raises ``ValueError`` when ``f`` returns NaN or ``f(a)`` and ``f(b)``
    have the same sign, and ``RuntimeError`` when ``maxiter`` iterations do
    not converge, as SciPy does.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # C compares sign bits; for the nonzero, non-NaN values compared here
    # and in the loop, ``< 0.0`` is the same test
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to +-inf or NaN, and either one bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _fd_step(scale: float, s: float) -> float:
    """Finite-difference step ``scale * max(1, |s|)`` at ray coordinate ``s``,
    capped at ``|s|/2`` so that ``s - h`` and ``s + h`` keep the sign of
    ``s`` (every field a ray sets is ``weight * s`` and must stay > 0).
    The cap binds only for ``|s| < 2 * scale``."""
    return min(scale * max(1.0, abs(s)), 0.5 * abs(s))


def _polish_root(f, s: float, fa_s: float, h: float, a: float, b: float) -> float:
    """A few secant steps to push |f| toward machine accuracy, none of them
    out of the bracket ``[a, b]``: at the rounding floor of f a secant
    step can land anywhere, and a point outside may leave the domain."""
    s0, f0 = s - h, f(s - h)
    s1, f1 = s, fa_s
    for _ in range(4):
        if f1 == 0.0 or f1 == f0:
            break
        s2 = s1 - f1 * (s1 - s0) / (f1 - f0)
        if not min(a, b) <= s2 <= max(a, b):
            break
        f2 = f(s2)
        if abs(f2) >= abs(f1):
            break
        s0, f0, s1, f1 = s1, f1, s2, f2
    return s1


def _root_in_bracket(f, a: float, b: float, tol: float) -> float:
    """The zero of ``f`` in ``[a, b]``: an end where ``f`` is 0, or Brent's
    method to relative tolerance ``tol`` and a secant polish.

    Raises :class:`NoSignChange` when ``f`` has one sign at both ends.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise NoSignChange(
            f"det E1 has the same sign at both bracket ends "
            f"({fa:.3e} at {a!r}, {fb:.3e} at {b!r})"
        )
    root = brentq(f, a, b, xtol=1e-14 * max(1.0, abs(a), abs(b)), rtol=tol)
    return _polish_root(f, root, f(root), _fd_step(1e-7, root), a, b)


def _mode1_spectrum(p: ModelParams) -> np.ndarray:
    """The mode-1 spectrum of ``p``, sigma11 first.

    Raises :class:`ComplexCrossing` when sigma11 has imaginary part above
    the zero band ``SIGMA_ZERO_BAND``: ``p`` is meant to be a threshold,
    and a Hopf-like crossing there is outside the real-transition theory.
    """
    mode1 = solve_spectrum(mode_matrix(p, laplacian_eigenvalue(1, p.ell)))
    sigma11 = complex(mode1[0])
    if abs(sigma11.imag) > SIGMA_ZERO_BAND:
        raise ComplexCrossing(f"leading eigenvalue at threshold is complex: {sigma11!r}")
    return mode1


def find_threshold(ray: ParameterRay, tol: float = 1e-10) -> ThresholdPoint:
    """Locate a sign change of the principal determinant on the ray.

    Uses Brent's method (bisection with secant/inverse-quadratic
    acceleration) to relative tolerance ``tol`` in the ray coordinate, then
    polishes the root.  Raises :class:`NoSignChange` when the bracket does
    not straddle the critical set and :class:`ComplexCrossing` when the
    leading eigenvalue at the root has imaginary part above the zero band
    ``SIGMA_ZERO_BAND`` (a Hopf-like crossing the real-transition theory
    does not cover).  The point carries the
    :func:`stability_exchange_report` of its ``lambda0``.
    """
    f = _det_along(ray.base, ray.direction)
    s_root = _root_in_bracket(f, *ray.bracket, tol)
    p_root = ray.at(s_root)
    mode1 = _mode1_spectrum(p_root)
    h = _fd_step(1e-6, s_root)
    deriv = (f(s_root + h) - f(s_root - h)) / (2.0 * h)
    return ThresholdPoint(
        lambda0=p_root,
        ray_coord=float(s_root),
        sigma11=complex(mode1[0]),
        crossing_derivative=float(deriv),
        stability_report=stability_exchange_report(p_root, mode1_spectrum=mode1),
    )


def classify_region(batch: ParamBatch) -> RegionReport:
    """Stable / critical / unstable according to the leading eigenvalue.

    A point is critical when ``|Re sigma_11| <= SIGMA_ZERO_BAND``.  cond2
    is not part of the classification; :func:`~mtphase.sweep.sweep` writes
    it next to the region.

    The feasible points of ``batch`` are classified by one eigenvalue call
    on the stack of their principal-mode blocks, and the report holds one
    array element per point.
    """
    # rho_1 per distinct ell through the scalar formula: NumPy squares an
    # array as x*x, which differs from Python's float pow in the last bit
    # for about one value in 1,200
    ells = batch.ell.tolist()
    rho_of = {ell: laplacian_eigenvalue(1, ell) for ell in set(ells)}
    rho1 = np.array([rho_of[ell] for ell in ells], dtype=float)
    sigma11 = solve_spectrum(mode_matrices(batch, rho1))[:, 0]
    re = sigma11.real
    side = np.where(np.abs(re) <= SIGMA_ZERO_BAND, 1, np.where(re > 0.0, 2, 0))
    return RegionReport(region=_REGION_VALUES[side], sigma11=sigma11)


def _rho_coefficients(g, P, T, d):
    """Ascending coefficients in rho of q2, q1 and q0, from the negated
    diagonal ``g`` of A, ``P[k] = A[i][j]*A[j][i]`` for the pair (i, j)
    without k and the two 3-cycle products ``T`` of A.  Passed
    ``(|g|, -|P|, -|T|, d)`` it gives the summed term magnitudes."""
    (g0, g1, g2), (d0, d1, d2) = g, d
    minors = (g1 * g2 - P[0], g0 * g2 - P[1], g0 * g1 - P[2])
    q1 = (
        sum(minors),
        g0 * (d1 + d2) + g1 * (d0 + d2) + g2 * (d0 + d1),
        d1 * d2 + d0 * d2 + d0 * d1,
    )
    q0 = (
        # g0*g1*g2 and g2*P[2] cancel exactly for the model's A
        g0 * g1 * g2 - g2 * P[2] - g0 * P[0] - g1 * P[1] - T[0] - T[1],
        d0 * minors[0] + d1 * minors[1] + d2 * minors[2],
        d1 * d2 * g0 + d0 * d2 * g1 + d0 * d1 * g2,
        d0 * d1 * d2,
    )
    return (g0 + g1 + g2, d0 + d1 + d2), q1, q0


def stability_exchange_report(
    p: ModelParams, *, mode1_spectrum: np.ndarray | None = None
) -> StabilityExchangeReport:
    """Certify that only the principal eigenvalue sits at zero, in every mode,
    at the threshold's parameters ``p``.

    One solve of the mode-1 block gives sigma11, which must lie in the zero
    band ``SIGMA_ZERO_BAND`` and be simple, and the other two, which must be
    stable.  The other checks read ``s^3 + q2 s^2 + q1 s + q0``, the
    characteristic polynomial of ``A - rho D``, with q2, q1 and q0 as
    polynomials in rho.  A's diagonal is negative and ``det A = a*K1 > 0``,
    so, highest power first, their signs are (+, +), (+, +, +-) and
    (+, +, +-, -); :class:`SignPatternBroken` is raised if not.  Then
    ``traces_negative`` is q2(rho_1) > 0 (q2 increases), ``p1_positive`` is
    q1(rho_1) > 0 (at most one positive root, so q1 > 0 on [rho_1, oo)),
    and ``higher_modes_stable`` is Routh-Hurwitz for every m >= 2: q0(rho_2)
    > 0, which covers all m as q0 has exactly one positive root, and
    ``R = q1*q2 - q0 > 0``.  R is a cubic with positive rho^3 and rho^2
    coefficients, so over m >= 2 it is smallest at m = 2 or next to its local
    minimum.  Each value is taken relative to its summed term magnitudes and
    must exceed ``_CERT_BAND``; ``higher_margin`` is the smallest relative
    q0(rho_2) or R(m^2 rho_1).  cond2 (:func:`~mtphase.model.cond2_margin`)
    is not part of the certificate.

    ``mode1_spectrum`` is the mode-1 solve when the caller has it already:
    :func:`solve_spectrum` of the point's ``mode_matrix(p, rho_1)``, as
    :func:`find_threshold` passes it.
    """
    rho1 = laplacian_eigenvalue(1, p.ell)
    s1 = solve_spectrum(mode_matrix(p, rho1)) if mode1_spectrum is None else mode1_spectrum
    sigma11 = complex(s1[0])

    A = linearization_matrix(p).tolist()
    g = [-A[0][0], -A[1][1], -A[2][2]]
    P = [A[1][2] * A[2][1], A[0][2] * A[2][0], A[0][1] * A[1][0]]
    T = [A[0][1] * A[1][2] * A[2][0], A[0][2] * A[1][0] * A[2][1]]
    d = (p.d1, p.d2, p.d3)
    q2, q1, q0 = _rho_coefficients(g, P, T, d)
    m2, m1, m0 = _rho_coefficients(
        [abs(x) for x in g], [-abs(x) for x in P], [-abs(x) for x in T], d
    )
    if not (min(*q2, *q1[1:], *q0[2:]) > 0.0 and q0[0] < 0.0):
        raise SignPatternBroken(f"coefficients in rho: q2 {q2}, q1 {q1}, q0 {q0}")
    at = lambda c, x: sum(ck * x**k for k, ck in enumerate(c))
    # R' = 3 c3 rho^2 + 2 c2 rho + c1 with c3, c2 > 0 has a root at rho > 0,
    # R's local minimum, only when c1 < 0; the modes around it join m = 2
    c1 = q1[1] * q2[0] + q1[0] * q2[1] - q0[1]
    c2 = q1[2] * q2[0] + q1[1] * q2[1] - q0[2]
    c3 = q1[2] * q2[1] - q0[3]
    modes = [2]
    if c1 < 0.0:
        m_min = math.isqrt(int(-c1 / (c2 + math.sqrt(c2 * c2 - 3.0 * c3 * c1)) / rho1))
        modes += range(max(m_min - 1, 3), m_min + 3)
    R = lambda x: (at(q1, x) * at(q2, x) - at(q0, x)) / (at(m1, x) * at(m2, x) + at(m0, x))
    higher_margin = min(at(q0, 4.0 * rho1) / at(m0, 4.0 * rho1), *(R(m * m * rho1) for m in modes))
    flags = dict(
        sigma11_in_band=abs(sigma11.real) <= SIGMA_ZERO_BAND and abs(sigma11.imag) <= SIGMA_ZERO_BAND,
        sigma11_simple=bool(np.all(np.abs(s1[1:] - sigma11) > 1e-6)),
        mode1_rest_stable=bool(s1[1].real < 0.0 and s1[2].real < 0.0),
        higher_modes_stable=bool(higher_margin > _CERT_BAND),
        traces_negative=bool(at(q2, rho1) > _CERT_BAND * at(m2, rho1)),
        p1_positive=bool(at(q1, rho1) > _CERT_BAND * at(m1, rho1)),
    )
    return StabilityExchangeReport(
        higher_margin=float(higher_margin),
        passed=all(flags.values()),
        **flags,
    )


def cond1_ok(p: ModelParams) -> bool:
    """cond1, regularity of the threshold: ``k5*K2 != C1`` and ``C1 !=
    d2*d3*rho1**2 + d2*K2*rho1``, each to ``_COND_RTOL`` relative to the
    largest of the three terms and 1.  Where either equality holds the
    critical manifold may fail to be a regular hypersurface.  The first
    clause is cond2's margin (:func:`~mtphase.model.cond2_margin`) != 0, so
    cond1 carries cond2's k1 = E = 1 assumption.
    """
    rho1 = laplacian_eigenvalue(1, p.ell)
    K2 = p.K2
    q2 = p.d2 * p.d3 * rho1**2 + p.d2 * K2 * rho1
    tol = _COND_RTOL * max(abs(p.C1), abs(p.k5 * K2), abs(q2), 1.0)
    return abs(cond2_margin(p)) > tol and abs(q2 - p.C1) > tol


# --------------------------------------------------------------------------
# continuation of the critical curve through a 2-parameter slice


def _initial_vertex(F):
    """A first root of ``F`` in the unit square: 17 rows, then 17 columns,
    each sampled at 33 points, are scanned for a sign change."""
    samples = np.linspace(0.0, 1.0, 33)
    for point in (lambda x, w: (x, w), lambda x, w: (w, x)):  # on a row, on a column
        for w in np.linspace(0.0, 1.0, 17):
            f = lambda x: F(*point(x, w))
            vals = np.array([f(x) for x in samples])
            idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            if idx.size:
                i = int(idx[0])
                root = brentq(f, samples[i], samples[i + 1], xtol=1e-13, rtol=1e-12)
                return point(root, float(w))
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


def _march(F, x0: np.ndarray, tau0: np.ndarray, budget: int):
    """Follow the zero curve from x0 in direction tau0 until it exits [0,1]^2
    or ``budget`` vertices are found.

    Returns ``(vertices, collapsed)``: each vertex as ``(x, gradient of F
    at x)``, and whether the step control gave up before leaving the
    window.
    """
    vertices: list[tuple[np.ndarray, np.ndarray]] = []
    x, tau, h = x0.copy(), tau0.copy(), _INITIAL_STEP
    h_min, h_max = 1e-6, 0.05
    while len(vertices) < budget:
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
            return vertices, True
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
        vertices.append((x_new.copy(), g_new))
        x, tau = x_new, tau_new
        h = min(h * 1.3, h_max)
    return vertices, False


def trace_threshold_curve(plane: ParameterPlane, n_points: int = 100) -> np.ndarray:
    """Trace the critical curve det E1 = 0 through a 2-parameter window.

    Pseudo-arclength continuation in window-normalized coordinates, with
    step halving on corrector failure, marches from a first root in both
    directions.  Each direction has its own budget of ``n_points - 1``
    vertices, so the curve has at most ``2 * n_points - 1``.  Each vertex
    is then solved along the axis in which the determinant varies faster,
    over a bracket from :func:`_expand_bracket`, by the root solve of
    :func:`find_threshold` at its default ``tol``; sigma11 there must be
    real.

    Returns the vertices' plane coordinates ``(coord1, coord2)`` as an
    ``(n, 2)`` float array ordered along the curve.  Raises
    :class:`CurveLeftDomain` if no crossing exists in the window,
    :class:`NoSignChange` if a vertex cannot be bracketed and
    :class:`ComplexCrossing` if sigma11 is complex at a vertex.  If
    continuation stalls, every vertex is solved and checked first, and
    then :class:`StepCollapse` is raised with them as ``points``.
    """
    (a1, b1), (a2, b2) = plane.range1, plane.range2
    span1, span2 = b1 - a1, b2 - a2
    det = _det_along(plane.base, plane.axis1, plane.axis2)

    def F(u: float, v: float) -> float:
        try:
            return det(a1 + u * span1, a2 + v * span2)
        except (NonPositiveParameter, K1NotPositive):
            return np.nan  # infeasible territory: treated as unbrackatable

    x0 = np.array(_initial_vertex(F))
    g0 = _gradient(F, x0)
    n0 = np.linalg.norm(g0)
    if not np.isfinite(n0) or n0 == 0.0:
        raise StepCollapse("degenerate gradient at the initial vertex", points=np.empty((0, 2)))
    tau0 = np.array([-g0[1], g0[0]]) / n0

    budget = max(n_points - 1, 0)
    fwd, collapsed_f = _march(F, x0, tau0, budget)
    back, collapsed_b = _march(F, x0, -tau0, budget)
    vertices = [*reversed(back), (x0, g0), *fwd]
    curve = np.empty((len(vertices), 2))
    for k, ((u, v), g) in enumerate(vertices):
        s, t = a1 + u * span1, a2 + v * span2
        if abs(g[0]) >= abs(g[1]):
            along = lambda c: det(c, t)
            s = _root_in_bracket(along, *_expand_bracket(along, s, 1e-4 * abs(span1)), 1e-10)
        else:
            along = lambda c: det(s, c)
            t = _root_in_bracket(along, *_expand_bracket(along, t, 1e-4 * abs(span2)), 1e-10)
        _mode1_spectrum(plane.at(s, t))  # raises ComplexCrossing
        curve[k] = s, t
    if collapsed_f or collapsed_b:
        raise StepCollapse(
            "continuation step collapsed before leaving the window", points=curve
        )
    return curve


def _expand_bracket(f, center: float, h: float) -> tuple[float, float]:
    """Ends ``(lo, hi)`` around ``center`` between which ``f`` changes sign.

    Both ends start ``h`` from the centre and move out, doubling their
    distance, until the signs differ.  The critical curve may run up to the
    edge of the feasible set, so an end whose parameters are infeasible
    moves halfway back toward the centre instead and does not move out
    again.  Raises :class:`NoSignChange` after ``_BRACKET_TRIES`` rounds
    without a sign change.
    """

    def value(x: float) -> float:
        try:
            return f(x)
        except (NonPositiveParameter, K1NotPositive):
            return np.nan

    ends = [center - h, center + h]
    values = [value(x) for x in ends]
    outward = [True, True]
    for _ in range(_BRACKET_TRIES):
        if np.sign(values[0]) * np.sign(values[1]) < 0:
            return ends[0], ends[1]
        for k in (0, 1):
            if np.isnan(values[k]):
                outward[k] = False
                ends[k] = center + (ends[k] - center) * 0.5
            elif outward[k]:
                ends[k] = center + (ends[k] - center) * 2.0
            else:
                continue
            values[k] = value(ends[k])
    raise NoSignChange(f"could not bracket a root around {center!r}")
