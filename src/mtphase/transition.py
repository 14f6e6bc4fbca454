"""Transition classification at instability thresholds.

Past a threshold the dynamics collapse onto the critical spatial mode, whose
amplitude ``y`` obeys a one-dimensional reduced equation.  Under homogeneous
Dirichlet conditions the quadratic term survives and produces a transcritical
(mixed) transition with branch amplitude ``-sigma11/alpha``.  Under the
zero-average Neumann condition the quadratic term dies by odd-harmonic
orthogonality; slaving the second cosine harmonic yields the cubic reduced
equation ``dy/dt = sigma11*y + b*y**3`` whose coefficient sign separates a
continuous supercritical pitchfork (type I), a jump with metastable trivial
state (type II), and a cubic-degenerate case this package does not resolve
(type III).

Every coefficient here is a contraction of eigendata that
:mod:`mtphase.spectral` supplies: the critical pair omega, omega* from
``principal_mode_vectors`` and the interaction mode's spectrum.  Each
contraction divides by a bilinear pairing ``omega . omega*``, and one guard
raises :class:`Resonance` when a pair is near-defective.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ComplexCrossing,
    DegenerateCoefficient,
    NumericalError,
    OutOfTheory,
    Resonance,
    ValidationError,
)
from .model import BoundaryCondition, ModelParams, quadratic_nonlinearity
from .spectral import (
    _spectrum_at,
    laplacian_eigenvalue,
    laplacian_mode,
    principal_eigenvalue,
    principal_mode_vectors,
)
from .threshold import ThresholdPoint, det_principal_mode

__all__ = [
    "TransitionType",
    "QuadraticCoefficient",
    "CenterManifoldCoefficients",
    "CubicReduction",
    "TransitionReport",
    "PredictedState",
    "quadratic_coefficient",
    "center_manifold_coefficients",
    "cubic_reduction",
    "transition_number",
    "transition_number_simplified",
    "classify_transition",
    "predicted_state",
]

#: interaction eigenvalues closer to zero than this cannot be slaved reliably
EPSILON_RESONANCE = 1e-6
#: |transition number| at or below this band is classified type III
DEGENERATE_BAND = 1e-10
#: |quadratic coefficient| at or below this floor aborts the Dirichlet branch
QUADRATIC_FLOOR = 1e-12

_INTERACTION_MODE = 2
_BIORTH_RTOL = 1e-12
_IMAG_RTOL = 1e-9
#: tolerated imaginary part of the leading eigenvalue in state predictions
SIGMA_IMAG_BAND = 1e-8


class TransitionType(str, Enum):
    """Qualitative outcome of crossing the threshold."""

    TRANSCRITICAL_MIXED = "transcritical-mixed"
    TYPE_I = "type-I"  # continuous: supercritical pitchfork, branches attract
    TYPE_II = "type-II"  # jump: branches are repellers, trivial state metastable
    TYPE_III = "type-III"  # cubic coefficient below resolution: undetermined


@dataclass(frozen=True)
class QuadraticCoefficient:
    """Quadratic branch coefficient of the Dirichlet reduced equation.

    ``closed_form`` is ``(8/(3*pi)) * F(omega).omega* / (omega.omega*)``;
    ``quadrature`` re-derives the same number by numerically projecting the
    pointwise nonlinearity of the critical profile onto the adjoint profile.
    The two must agree to rounding; they are kept separate so tests can
    compare genuinely independent evaluations.
    """

    closed_form: float
    quadrature: float

    @property
    def value(self) -> float:
        return self.closed_form


@dataclass(frozen=True)
class CenterManifoldCoefficients:
    """Quadratic slaving coefficients of the interaction harmonic.

    For the zero-average Neumann problem the only harmonic driven at second
    order is mode 2; its amplitudes follow ``y_{2,i} = coeffs[i] * y**2`` to
    leading order, where ``y`` is the critical-mode amplitude.  ``sigma``,
    ``omega`` and ``omega_star`` hold the interaction mode's eigenvalues and
    (adjoint) eigenvectors, row ``i`` belonging to ``sigma[i]``.
    """

    interaction_mode: int
    coeffs: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    omega_star: np.ndarray


@dataclass(frozen=True)
class CubicReduction:
    """Assembled cubic term of the Neumann reduced amplitude equation.

    ``transition_number`` is the coefficient ``b`` in
    ``dy/dt = sigma11*y + b*y**3``.  ``interaction_vector`` is the
    three-component vector contracted with the adjoint eigenvector to form
    it, and ``projected_components`` holds the two independent scalar sums
    (first and second reactant pairings with the slaved harmonic) that the
    vector is built from.
    """

    transition_number: float
    interaction_vector: np.ndarray
    projected_components: tuple[float, float]
    coefficients: CenterManifoldCoefficients


@dataclass(frozen=True)
class TransitionReport:
    """Everything the package can say about one threshold crossing.

    Exactly one of ``quadratic_coeff`` / ``transition_number`` is set,
    according to the boundary condition.  ``omega`` / ``omega_star`` are the
    critical eigenvector and its adjoint at the threshold (zero eigenvalue),
    shared by every amplitude prediction.
    """

    threshold: ThresholdPoint
    bc: BoundaryCondition
    transition_type: TransitionType
    quadratic_coeff: float | None
    quadratic_coeff_quadrature: float | None
    transition_number: float | None
    omega: np.ndarray
    omega_star: np.ndarray
    rho1: float

    @property
    def degenerate(self) -> bool:
        """True when the cubic coefficient fell inside the type-III band."""
        return self.transition_type is TransitionType.TYPE_III

    def branch_amplitudes(self, sigma11: float) -> tuple[float, ...]:
        """Amplitudes of the bifurcated branches at leading eigenvalue sigma11.

        Dirichlet: the single transcritical branch ``-sigma11/alpha``.
        Neumann: the pitchfork pair ``+/- sqrt(-sigma11/b)`` whenever the
        radicand is nonnegative — attractors for type I (``sigma11 > 0``),
        repeller ring for type II (``sigma11 < 0``) — and empty otherwise.
        Type III yields no prediction.
        """
        if self.transition_type is TransitionType.TRANSCRITICAL_MIXED:
            return (-sigma11 / self.quadratic_coeff,)
        if self.transition_type is TransitionType.TYPE_III:
            return ()
        radicand = -sigma11 / self.transition_number
        if radicand < 0.0:
            return ()
        y = float(np.sqrt(radicand))
        return (y, -y)


@dataclass(frozen=True)
class PredictedState:
    """Leading-order bifurcated fields on a spatial grid.

    ``fields[k]`` is the (3, len(x)) profile of branch ``k``; the prediction
    carries an uncontrolled correction that vanishes faster than the
    amplitude itself as the threshold is approached, which is what
    ``accuracy_note`` records.
    """

    x: np.ndarray
    fields: np.ndarray
    amplitudes: tuple[float, ...]
    sigma11: float
    accuracy_note: str


def _params_of(tp: ThresholdPoint | ModelParams) -> ModelParams:
    return tp.lambda0 if isinstance(tp, ThresholdPoint) else tp


def _as_threshold_point(tp: ThresholdPoint | ModelParams) -> ThresholdPoint:
    if isinstance(tp, ThresholdPoint):
        return tp
    p = tp
    return ThresholdPoint(
        lambda0=p,
        ray_coord=float("nan"),
        sigma11=principal_eigenvalue(p),
        detE1=det_principal_mode(p),
        crossing_derivative=float("nan"),
        near_tangential=False,
    )


def _biorth(omega: np.ndarray, omega_star: np.ndarray, name: str):
    """Bilinear pairing ``omega . omega*``; raises :class:`Resonance` when the
    pair is near-defective."""
    pairing = omega @ omega_star
    if abs(pairing) <= _BIORTH_RTOL * np.linalg.norm(omega) * np.linalg.norm(omega_star):
        raise Resonance(
            f"{name} is near-defective (omega . omega* ~ 0); "
            "the reduced amplitude equation is not available"
        )
    return pairing


def _require_bc(p: ModelParams, bc: BoundaryCondition, what: str) -> None:
    if p.bc is not bc:
        raise ValidationError(
            "bc", f"{what} requires {bc.value!r} boundary conditions, got {p.bc.value!r}"
        )


def quadratic_coefficient(
    tp: ThresholdPoint | ModelParams, n_nodes: int = 64
) -> QuadraticCoefficient:
    """Quadratic coefficient of the Dirichlet reduced amplitude equation.

    Two independent evaluations are returned: the closed form
    ``(8/(3*pi)) * F(omega).omega* / (omega.omega*)`` (the ``8/(3*pi)``
    being the ratio of the cubed to the squared critical profile integrals,
    independent of domain length) and a Gauss-Legendre quadrature of the
    pointwise-projected nonlinearity.

    Parameters
    ----------
    tp : ThresholdPoint or ModelParams
        Threshold at which to evaluate (Dirichlet boundary conditions).
    n_nodes : int, optional
        Gauss-Legendre node count for the quadrature path.

    Raises
    ------
    DegenerateCoefficient
        If the closed-form value is below ``QUADRATIC_FLOOR`` in magnitude,
        in which case the transcritical branch prediction does not apply.
    """
    p = _params_of(tp)
    _require_bc(p, BoundaryCondition.DIRICHLET, "the quadratic branch coefficient")
    omega, omega_star, _ = principal_mode_vectors(p)
    pairing = float(_biorth(omega, omega_star, "critical eigenpair"))
    projected = float(quadratic_nonlinearity(p, omega) @ omega_star)
    closed = (8.0 / (3.0 * np.pi)) * projected / pairing

    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * p.ell * (nodes + 1.0)
    w = 0.5 * p.ell * weights
    e1 = laplacian_mode(p, 1).evaluate(x)
    profile = omega[:, None] * e1[None, :]
    pointwise = quadratic_nonlinearity(p, profile)
    numerator = float(np.sum(w * (omega_star @ pointwise) * e1))
    quadrature = numerator / ((p.ell / 2.0) * pairing)

    if abs(closed) <= QUADRATIC_FLOOR:
        raise DegenerateCoefficient(
            f"quadratic branch coefficient {closed!r} is numerically zero"
        )
    return QuadraticCoefficient(closed_form=closed, quadrature=quadrature)


def center_manifold_coefficients(
    tp: ThresholdPoint | ModelParams,
) -> CenterManifoldCoefficients:
    """Slaving coefficients of the second harmonic (zero-average Neumann).

    The second-order response of the stable harmonic ``cos(2*pi*x/ell)`` to
    the critical mode is ``y_{2,i} = c_i * y**2`` with

    ``c_i = -<e1^2, e2> * (F(omega).omega*_{2,i})
            / (sigma_{2,i} * <e2, e2> * (omega_{2,i}.omega*_{2,i}))``

    where ``<e1^2, e2> = ell/4`` and ``<e2, e2> = ell/2`` in the cosine
    basis.  All products of complex eigendata are bilinear (no conjugation).

    Raises
    ------
    Resonance
        If any interaction eigenvalue is within ``EPSILON_RESONANCE`` of
        zero, or an interaction eigenpair is near-defective; the slaving
        denominators are then unreliable.
    """
    p = _params_of(tp)
    _require_bc(
        p, BoundaryCondition.NEUMANN_ZERO_AVERAGE, "center-manifold slaving"
    )
    return _interaction_coefficients(p)


def _interaction_coefficients(p: ModelParams) -> CenterManifoldCoefficients:
    ms = _spectrum_at(p, laplacian_mode(p, _INTERACTION_MODE))
    omega, _, _ = principal_mode_vectors(p)
    driving = quadratic_nonlinearity(p, omega)
    cross_projection = p.ell / 4.0  # <e1^2, e2>
    norm_sq = ms.mode.norm_sq  # <e2, e2> = ell/2
    coeffs = np.empty(3, dtype=complex)
    for i in range(3):
        s = complex(ms.sigma[i])
        if abs(s) <= EPSILON_RESONANCE:
            raise Resonance(
                f"interaction eigenvalue sigma_2{i + 1} = {s!r} is inside the "
                f"resonance guard ({EPSILON_RESONANCE})"
            )
        pairing = _biorth(
            ms.omega[i], ms.omega_star[i], f"interaction eigenpair for sigma_2{i + 1}"
        )
        coeffs[i] = -cross_projection * (driving @ ms.omega_star[i]) / (
            s * norm_sq * pairing
        )
    return CenterManifoldCoefficients(
        interaction_mode=_INTERACTION_MODE,
        coeffs=coeffs,
        sigma=ms.sigma,
        omega=ms.omega,
        omega_star=ms.omega_star,
    )


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_RTOL * max(1.0, abs(value.real)):
        raise NumericalError(
            f"{what} has a non-negligible imaginary part: {value!r}"
        )
    return float(value.real)


def cubic_reduction(tp: ThresholdPoint | ModelParams) -> CubicReduction:
    """Assemble the cubic term of the Neumann reduced amplitude equation.

    The slaved second harmonic feeds back into the critical mode through the
    quadratic nonlinearity.  With ``b^j_i = omega^j * omega^3_{2,i} +
    omega^3 * omega^j_{2,i}`` the two independent sums are
    ``B^j = <e1^2, e2> * sum_i b^j_i * c_i`` and the interaction vector is
    ``(k5*B^2 - k7*B^1, -k5*B^2 + k7*B^1, -k3*B^1)``; contracting with the
    adjoint eigenvector and normalizing by ``<e1, e1> * (omega.omega*)``
    gives the transition number.
    """
    p = _params_of(tp)
    _require_bc(
        p, BoundaryCondition.NEUMANN_ZERO_AVERAGE, "the cubic reduced equation"
    )
    cmf = _interaction_coefficients(p)
    omega, omega_star, _ = principal_mode_vectors(p)
    pairing = float(_biorth(omega, omega_star, "critical eigenpair"))

    cross_projection = p.ell / 4.0
    b1 = complex(0.0)
    b2 = complex(0.0)
    for i in range(3):
        w2 = cmf.omega[i]
        b1 += (omega[0] * w2[2] + omega[2] * w2[0]) * cmf.coeffs[i]
        b2 += (omega[1] * w2[2] + omega[2] * w2[1]) * cmf.coeffs[i]
    b1 *= cross_projection
    b2 *= cross_projection

    cross = p.k5 * b2 - p.k7 * b1
    vector = np.array([cross, -cross, -p.k3 * b1])
    raw = vector @ omega_star
    value = _real_part(complex(raw / ((p.ell / 2.0) * pairing)), "transition number")
    return CubicReduction(
        transition_number=value,
        interaction_vector=np.array(
            [
                _real_part(complex(vector[0]), "interaction vector component 1"),
                _real_part(complex(vector[1]), "interaction vector component 2"),
                _real_part(complex(vector[2]), "interaction vector component 3"),
            ]
        ),
        projected_components=(
            _real_part(complex(b1), "first projected component"),
            _real_part(complex(b2), "second projected component"),
        ),
        coefficients=cmf,
    )


def transition_number(tp: ThresholdPoint | ModelParams) -> float:
    """Cubic coefficient ``b`` of ``dy/dt = sigma11*y + b*y**3`` (Neumann)."""
    return cubic_reduction(tp).transition_number


def transition_number_simplified(
    tp: ThresholdPoint | ModelParams, rtol: float = 1e-8
) -> float:
    """Shortcut evaluation of the transition number on the constraint manifold.

    When ``k1 = E = 1`` and ``C1*k7 = k3*(k5 + rho1*d2)`` (which makes the
    first adjoint component vanish at zero eigenvalue), the contraction of
    the interaction vector with the adjoint eigenvector collapses to the
    single-term form ``-(k3*k5*rho1/k7) * (k5*d1 + k7*d2 + d1*d2*rho1) *
    B^2``, giving an independent second evaluation path.

    Raises
    ------
    OutOfTheory
        If the parameters violate ``k1 = E = 1`` or the constraint beyond
        ``rtol``; the collapsed form is not valid there.
    """
    p = _params_of(tp)
    _require_bc(
        p, BoundaryCondition.NEUMANN_ZERO_AVERAGE, "the cubic reduced equation"
    )
    if abs(p.k1 - 1.0) > rtol or abs(p.E - 1.0) > rtol:
        raise OutOfTheory(
            "the simplified transition-number form requires k1 = E = 1 "
            f"(got k1={p.k1!r}, E={p.E!r})"
        )
    rho1 = laplacian_eigenvalue(1, p.ell)
    lhs = p.C1 * p.k7
    rhs = p.k3 * (p.k5 + rho1 * p.d2)
    if abs(lhs - rhs) > rtol * max(abs(lhs), abs(rhs)):
        raise OutOfTheory(
            "parameters do not satisfy the adjoint-degeneracy constraint "
            f"C1*k7 = k3*(k5 + rho1*d2) ({lhs!r} vs {rhs!r})"
        )
    reduction = cubic_reduction(p)
    b2 = reduction.projected_components[1]
    omega, omega_star, _ = principal_mode_vectors(p)
    pairing = float(_biorth(omega, omega_star, "critical eigenpair"))
    raw = -(p.k3 * p.k5 * rho1 / p.k7) * (
        p.k5 * p.d1 + p.k7 * p.d2 + p.d1 * p.d2 * rho1
    ) * b2
    return raw / ((p.ell / 2.0) * pairing)


def classify_transition(tp: ThresholdPoint | ModelParams) -> TransitionReport:
    """Classify the threshold crossing and collect the amplitude machinery.

    Dirichlet thresholds are transcritical-mixed whenever the quadratic
    coefficient is nonzero (it is checked against ``QUADRATIC_FLOOR``).
    Neumann thresholds classify by the sign of the transition number, with
    magnitudes at or below ``DEGENERATE_BAND`` declared type III.
    """
    point = _as_threshold_point(tp)
    p = point.lambda0
    omega, omega_star, rho1 = principal_mode_vectors(p)
    if p.bc is BoundaryCondition.DIRICHLET:
        qc = quadratic_coefficient(point)
        return TransitionReport(
            threshold=point,
            bc=p.bc,
            transition_type=TransitionType.TRANSCRITICAL_MIXED,
            quadratic_coeff=qc.closed_form,
            quadratic_coeff_quadrature=qc.quadrature,
            transition_number=None,
            omega=omega,
            omega_star=omega_star,
            rho1=rho1,
        )
    value = transition_number(point)
    if abs(value) <= DEGENERATE_BAND:
        kind = TransitionType.TYPE_III
    elif value < 0.0:
        kind = TransitionType.TYPE_I
    else:
        kind = TransitionType.TYPE_II
    return TransitionReport(
        threshold=point,
        bc=p.bc,
        transition_type=kind,
        quadratic_coeff=None,
        quadratic_coeff_quadrature=None,
        transition_number=value,
        omega=omega,
        omega_star=omega_star,
        rho1=rho1,
    )


_ACCURACY_NOTE = (
    "leading-order prediction: the true state differs by a correction that "
    "vanishes faster than the branch amplitude as the threshold is approached"
)


def predicted_state(
    report: TransitionReport, p_near: ModelParams, x: np.ndarray
) -> PredictedState:
    """Evaluate the predicted asymptotic field(s) near the threshold.

    The attracting branch states are ``y * omega * e1(x)`` with the branch
    amplitudes from :meth:`TransitionReport.branch_amplitudes` at the leading
    eigenvalue of ``p_near`` — one branch for Dirichlet, the symmetric pair
    for Neumann type I (exact negatives of each other).

    Raises
    ------
    OutOfTheory
        For type II / type III reports: their branches are not attractors,
        so no asymptotic state prediction exists at this order.
    ComplexCrossing
        If the leading eigenvalue of ``p_near`` is not real.
    ValidationError
        If ``p_near`` has a different boundary condition than the report.
    """
    if p_near.bc is not report.bc:
        raise ValidationError(
            "bc",
            f"report is for {report.bc.value!r} but parameters use "
            f"{p_near.bc.value!r}",
        )
    if report.transition_type in (TransitionType.TYPE_II, TransitionType.TYPE_III):
        raise OutOfTheory(
            f"{report.transition_type.value} transitions have no attracting "
            "branch at this order; asymptotic state prediction unavailable"
        )
    sigma11 = principal_eigenvalue(p_near)
    if abs(sigma11.imag) > SIGMA_IMAG_BAND:
        raise ComplexCrossing(
            f"leading eigenvalue near the threshold is complex: {sigma11!r}"
        )
    amplitudes = report.branch_amplitudes(sigma11.real)
    x = np.asarray(x, dtype=float)
    e1 = laplacian_mode(p_near, 1).evaluate(x)
    fields = np.array([y * report.omega[:, None] * e1[None, :] for y in amplitudes])
    fields = fields.reshape(len(amplitudes), 3, x.size)
    note = _ACCURACY_NOTE
    if not amplitudes:
        note = (
            "below the threshold the trivial state is the attractor; "
            "no bifurcated branch exists on this side"
        )
    return PredictedState(
        x=x,
        fields=fields,
        amplitudes=amplitudes,
        sigma11=float(sigma11.real),
        accuracy_note=note,
    )
