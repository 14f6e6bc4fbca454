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

Every coefficient here is a contraction with the critical pair omega,
omega* that :func:`mtphase.spectral.principal_mode_vectors` supplies, divided
by the bilinear pairing ``omega . omega*``; one guard raises
:class:`Resonance` when that pair is near-defective.  The slaved second
harmonic enters ``b`` through one linear solve ``v = -1/2 * E2^-1 F(omega)``
against the mode-2 block ``E2``, so ``b`` is evaluated as the closed form
``-1/4 * 2G(omega, E2^-1 F(omega)).omega* / (omega.omega*)`` (``2G`` being
the symmetric bilinear form of ``F``) and no eigenvector of ``E2`` is formed;
a second guard raises :class:`Resonance` when ``E2`` has an eigenvalue near
zero.  Degeneracy of ``b`` and of the Dirichlet quadratic coefficient is
judged relative to the magnitudes of the terms each is summed from, so it
does not depend on the unit of time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateCoefficient,
    OutOfTheory,
    Resonance,
    ValidationError,
)
from .model import BoundaryCondition, ModelParams, quadratic_nonlinearity
from .spectral import (
    laplacian_eigenvalue,
    laplacian_mode,
    mode_matrix,
    principal_eigenvalue,
    principal_mode_vectors,
    solve_spectrum,
)
from .threshold import ThresholdPoint

__all__ = [
    "TransitionType",
    "QuadraticCoefficient",
    "TransitionReport",
    "quadratic_coefficient",
    "transition_number",
    "transition_number_simplified",
    "classify_transition",
]

#: interaction eigenvalues closer to zero than this cannot be slaved reliably
EPSILON_RESONANCE = 1e-6
#: |b| at or below this fraction of its summed term magnitudes is type III
DEGENERATE_BAND = 1e-10
#: |F(omega).omega*| at or below this fraction of its summed term magnitudes
#: aborts the Dirichlet branch
QUADRATIC_FLOOR = 1e-12

_INTERACTION_MODE = 2
_BIORTH_RTOL = 1e-12
#: relative tolerance of the assumptions of the simplified transition number
_SIMPLIFIED_RTOL = 1e-8


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


@dataclass(frozen=True, slots=True)
class TransitionReport:
    """Everything the package can say about one threshold crossing.

    Exactly one of ``quadratic_coeff`` / ``transition_number`` is set,
    according to the boundary condition.  ``omega`` / ``omega_star`` are the
    critical eigenvector and its adjoint at the threshold (zero eigenvalue),
    shared by every amplitude prediction.  They and ``rho1`` are evaluated
    from the threshold when read, not stored: a run may hold one report per
    threshold.
    """

    threshold: ThresholdPoint
    bc: BoundaryCondition
    transition_type: TransitionType
    quadratic_coeff: float | None
    quadratic_coeff_quadrature: float | None
    transition_number: float | None

    omega = property(lambda self: principal_mode_vectors(self.threshold.lambda0)[0])
    omega_star = property(lambda self: principal_mode_vectors(self.threshold.lambda0)[1])
    rho1 = property(lambda self: principal_mode_vectors(self.threshold.lambda0)[2])

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


def _as_threshold_point(tp: ThresholdPoint | ModelParams) -> ThresholdPoint:
    if isinstance(tp, ThresholdPoint):
        return tp
    p = tp
    return ThresholdPoint(
        lambda0=p,
        ray_coord=float("nan"),
        sigma11=principal_eigenvalue(p),
        crossing_derivative=float("nan"),
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


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count.

    The arrays are shared between calls, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def quadratic_coefficient(p: ModelParams, n_nodes: int = 64) -> QuadraticCoefficient:
    """Quadratic coefficient of the Dirichlet reduced amplitude equation.

    Two independent evaluations are returned: the closed form
    ``(8/(3*pi)) * F(omega).omega* / (omega.omega*)`` (the ``8/(3*pi)``
    being the ratio of the cubed to the squared critical profile integrals,
    independent of domain length) and a Gauss-Legendre quadrature of the
    pointwise-projected nonlinearity.

    Parameters
    ----------
    p : ModelParams
        Parameters of the threshold at which to evaluate (Dirichlet
        boundary conditions).
    n_nodes : int, optional
        Gauss-Legendre node count for the quadrature path.

    Raises
    ------
    DegenerateCoefficient
        If the projection ``F(omega).omega*`` is at or below
        ``QUADRATIC_FLOOR`` times the summed magnitude of its terms, in which
        case the transcritical branch prediction does not apply.
    """
    _require_bc(p, BoundaryCondition.DIRICHLET, "the quadratic branch coefficient")
    omega, omega_star, _ = principal_mode_vectors(p)
    pairing = float(_biorth(omega, omega_star, "critical eigenpair"))
    driving = quadratic_nonlinearity(p, omega)
    projected = float(driving @ omega_star)
    closed = (8.0 / (3.0 * np.pi)) * projected / pairing

    nodes, weights = _gauss_legendre(n_nodes)
    x = 0.5 * p.ell * (nodes + 1.0)
    w = 0.5 * p.ell * weights
    e1 = laplacian_mode(p, 1).evaluate(x)
    profile = omega[:, None] * e1[None, :]
    pointwise = quadratic_nonlinearity(p, profile)
    numerator = float(np.sum(w * (omega_star @ pointwise) * e1))
    quadrature = numerator / ((p.ell / 2.0) * pairing)

    if abs(projected) <= QUADRATIC_FLOOR * np.abs(driving * omega_star).sum():
        raise DegenerateCoefficient(
            f"quadratic branch coefficient {closed!r} is numerically zero"
        )
    return QuadraticCoefficient(closed_form=closed, quadrature=quadrature)


def _slaved_sums(p: ModelParams, omega: np.ndarray) -> tuple[float, float]:
    """Pairings ``(B^1, B^2)`` of the critical mode with the slaved second harmonic.

    For the zero-average Neumann problem the only harmonic driven at second
    order is ``cos(2*pi*x/ell)``; its amplitude vector follows ``v * y**2``
    to leading order, where ``y`` is the critical-mode amplitude and

    ``v = -(<e1^2, e2> / <e2, e2>) * E2^-1 F(omega) = -1/2 * E2^-1 F(omega)``

    with ``E2 = mode_matrix(p, rho_2)``, ``<e1^2, e2> = ell/4`` and
    ``<e2, e2> = ell/2`` in the cosine basis.  The slaved harmonic feeds back
    through the quadratic nonlinearity in the two sums
    ``B^1 = <e1^2, e2> * (omega^1 v^3 + omega^3 v^1)`` and
    ``B^2 = <e1^2, e2> * (omega^2 v^3 + omega^3 v^2)``.

    Raises
    ------
    Resonance
        If an eigenvalue of ``E2`` is within ``EPSILON_RESONANCE`` of zero;
        the second harmonic is then not slaved and ``E2`` is near-singular.
    """
    e2 = mode_matrix(p, laplacian_eigenvalue(_INTERACTION_MODE, p.ell))
    for i, s in enumerate(solve_spectrum(e2)):
        if abs(s) <= EPSILON_RESONANCE:
            raise Resonance(
                f"interaction eigenvalue sigma_2{i + 1} = {complex(s)!r} is inside "
                f"the resonance guard ({EPSILON_RESONANCE})"
            )
    v = -0.5 * np.linalg.solve(e2, quadratic_nonlinearity(p, omega))
    cross_projection = p.ell / 4.0  # <e1^2, e2>
    b1 = cross_projection * (omega[0] * v[2] + omega[2] * v[0])
    b2 = cross_projection * (omega[1] * v[2] + omega[2] * v[1])
    return float(b1), float(b2)


def _cubic_coefficient(p: ModelParams) -> tuple[float, float]:
    """Transition number ``b`` and the sum of the magnitudes of its terms.

    ``b`` contracts the interaction vector
    ``(k5*B^2 - k7*B^1, -k5*B^2 + k7*B^1, -k3*B^1)`` with the adjoint
    eigenvector and normalizes by ``<e1, e1> * (omega.omega*)``.  The second
    value is the same contraction with every term taken in magnitude: it
    scales with the parameters exactly as ``b`` does, so the type-III band
    compares ``|b|`` with it rather than with an absolute number.
    """
    _require_bc(
        p, BoundaryCondition.NEUMANN_ZERO_AVERAGE, "the cubic reduced equation"
    )
    omega, omega_star, _ = principal_mode_vectors(p)
    norm = (p.ell / 2.0) * float(_biorth(omega, omega_star, "critical eigenpair"))
    b1, b2 = _slaved_sums(p, omega)
    cross = p.k5 * b2 - p.k7 * b1
    vector = np.array([cross, -cross, -p.k3 * b1])
    magnitude = np.abs(vector * omega_star).sum() / abs(norm)
    return float(vector @ omega_star / norm), float(magnitude)


def transition_number(p: ModelParams) -> float:
    """Cubic coefficient ``b`` of ``dy/dt = sigma11*y + b*y**3`` (Neumann),
    at the threshold's parameters ``p``.

    Evaluated with one 3x3 solve against the mode-2 block (see
    :func:`_slaved_sums`); no eigenvector of that block is formed.

    Raises
    ------
    Resonance
        If the mode-2 block has an eigenvalue within ``EPSILON_RESONANCE`` of
        zero, or the critical eigenpair is near-defective.
    """
    return _cubic_coefficient(p)[0]


def transition_number_simplified(p: ModelParams) -> float:
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
        ``_SIMPLIFIED_RTOL``; the collapsed form is not valid there.
    """
    _require_bc(
        p, BoundaryCondition.NEUMANN_ZERO_AVERAGE, "the cubic reduced equation"
    )
    if abs(p.k1 - 1.0) > _SIMPLIFIED_RTOL or abs(p.E - 1.0) > _SIMPLIFIED_RTOL:
        raise OutOfTheory(
            "the simplified transition-number form requires k1 = E = 1 "
            f"(got k1={p.k1!r}, E={p.E!r})"
        )
    rho1 = laplacian_eigenvalue(1, p.ell)
    lhs = p.C1 * p.k7
    rhs = p.k3 * (p.k5 + rho1 * p.d2)
    if abs(lhs - rhs) > _SIMPLIFIED_RTOL * max(abs(lhs), abs(rhs)):
        raise OutOfTheory(
            "parameters do not satisfy the adjoint-degeneracy constraint "
            f"C1*k7 = k3*(k5 + rho1*d2) ({lhs!r} vs {rhs!r})"
        )
    omega, omega_star, _ = principal_mode_vectors(p)
    pairing = float(_biorth(omega, omega_star, "critical eigenpair"))
    _, b2 = _slaved_sums(p, omega)
    raw = -(p.k3 * p.k5 * rho1 / p.k7) * (
        p.k5 * p.d1 + p.k7 * p.d2 + p.d1 * p.d2 * rho1
    ) * b2
    return raw / ((p.ell / 2.0) * pairing)


def classify_transition(tp: ThresholdPoint | ModelParams) -> TransitionReport:
    """Classify the threshold crossing and collect the amplitude machinery.

    Dirichlet thresholds are transcritical-mixed whenever the quadratic
    coefficient is nonzero (it is checked against ``QUADRATIC_FLOOR``).
    Neumann thresholds classify by the sign of the transition number; one
    at or below ``DEGENERATE_BAND`` times the summed magnitude of its terms
    is declared type III.  Both tests are relative, so the verdict does not
    depend on the unit of time.
    """
    point = _as_threshold_point(tp)
    p = point.lambda0
    if p.bc is BoundaryCondition.DIRICHLET:
        qc = quadratic_coefficient(p)
        return TransitionReport(
            threshold=point,
            bc=p.bc,
            transition_type=TransitionType.TRANSCRITICAL_MIXED,
            quadratic_coeff=qc.closed_form,
            quadratic_coeff_quadrature=qc.quadrature,
            transition_number=None,
        )
    value, magnitude = _cubic_coefficient(p)
    if abs(value) <= DEGENERATE_BAND * magnitude:
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
    )

