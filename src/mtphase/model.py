"""Reaction model for microtubule population dynamics.

Three coupled fields on a 1D interval: growing-polymer density ``Mg``,
shrinking-polymer density ``Ms``, and free tubulin ``Df``.  The reaction part
couples them through catastrophe (growing -> shrinking, rate ``k7``), rescue
(shrinking -> growing, rate ``k5``), nucleation (``k1``), consumption of
tubulin by growth (``k3``), release of tubulin by shrinkage (``C1``) and a
constant extinction/injection balance ``E``.  Diffusion (rates ``d1..d3``) is
handled by the simulator; this module owns the spatially uniform algebra:
steady state, linearization, and the exact quadratic remainder.

All analysis downstream works in deviation variables
``w = (Mg, Ms, Df) - steady state``, where the boundary conditions
(homogeneous Dirichlet, or Neumann with zero spatial average) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Mapping

import numpy as np

from .errors import K1NotPositive, NonPositiveParameter, ValidationError

__all__ = [
    "BoundaryCondition",
    "ModelParams",
    "ParamBatch",
    "SteadyState",
    "ConditionReport",
    "validate_params",
    "steady_state",
    "reaction_rhs",
    "linearization_matrix",
    "diffusion_matrix",
    "quadratic_nonlinearity",
    "check_conditions",
    "cond2_margin",
]


class BoundaryCondition(str, Enum):
    """Boundary conditions supported on the deviation fields."""

    DIRICHLET = "dirichlet"
    NEUMANN_ZERO_AVERAGE = "neumann-zero-average"

    @classmethod
    def parse(cls, text: str) -> "BoundaryCondition":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(
                "bc",
                f"expected 'dirichlet' or 'neumann-zero-average', got {text!r}",
            ) from None


_POSITIVE_FIELDS = ("k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3", "ell")


class _DerivedConstants:
    """``K1`` and ``K2`` of one parameter point, or of every point of a batch."""

    @property
    def K1(self):
        """Feasibility combination ``C1*k1*k7 - k3*k5*E`` (must be > 0)."""
        return self.C1 * self.k1 * self.k7 - self.k3 * self.k5 * self.E

    @property
    def K2(self):
        """Derived decay constant ``k1*(1 + C1*k1*k3/K1)``."""
        return self.k1 * (1.0 + self.C1 * self.k1 * self.k3 / self.K1)


@dataclass(frozen=True)
class ModelParams(_DerivedConstants):
    """Validated control parameters of the model.

    Construction fails with :class:`NonPositiveParameter` or
    :class:`K1NotPositive` when the feasibility requirements are violated, so
    every live instance satisfies them (including instances produced through
    :func:`dataclasses.replace`).
    """

    # reaction rates
    k1: float
    k3: float
    k5: float
    k7: float
    C1: float
    E: float
    # diffusion rates
    d1: float
    d2: float
    d3: float
    # domain
    ell: float
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET

    def __post_init__(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise NonPositiveParameter(name, value)
        if self.K1 <= 0.0:
            raise K1NotPositive(self.K1)
        if not isinstance(self.bc, BoundaryCondition):
            object.__setattr__(self, "bc", BoundaryCondition.parse(str(self.bc)))

    @property
    def diffusion(self) -> np.ndarray:
        return np.array([self.d1, self.d2, self.d3])

    def replace(self, **changes: Any) -> "ModelParams":
        """Return a copy with fields changed (re-validated)."""
        return replace(self, **changes)

    def to_record(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ParamBatch(_DerivedConstants):
    """Parameter points as a struct of arrays: one (n,) float array per field.

    Unlike :class:`ModelParams` a batch is not validated on construction;
    :meth:`feasible` tells which of its points :class:`ModelParams` would
    accept.
    """

    k1: np.ndarray
    k3: np.ndarray
    k5: np.ndarray
    k7: np.ndarray
    C1: np.ndarray
    E: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    ell: np.ndarray
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET

    @classmethod
    def from_record(cls, raw: Mapping[str, Any]) -> "ParamBatch":
        """Batch from a mapping like :func:`validate_params` takes, whose
        values may be floats or equal-length arrays (broadcast together)."""
        values, bc = _record_fields(raw, lambda v: np.atleast_1d(np.asarray(v, dtype=float)))
        return cls(*np.broadcast_arrays(*values.values()), bc=bc)

    def __len__(self) -> int:
        return len(self.k1)

    def feasible(self) -> np.ndarray:
        """Mask of the points :class:`ModelParams` accepts: every field
        finite and > 0, and K1 not <= 0 (a NaN K1 from overflow passes)."""
        ok = np.ones(len(self), dtype=bool)
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            ok &= np.isfinite(value) & (value > 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            return ok & ~(self.K1 <= 0.0)

    def select(self, index) -> "ParamBatch":
        """The points at ``index`` (a mask or index array) as a new batch."""
        return ParamBatch(
            *(getattr(self, n)[index] for n in _POSITIVE_FIELDS), bc=self.bc
        )


@dataclass(frozen=True)
class SteadyState:
    """Uniform equilibrium of the reaction system with derived constants."""

    Mg: float
    Ms: float
    Df: float
    K1: float
    K2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.Mg, self.Ms, self.Df])


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three analytic side conditions.

    ``cond0_ok``
        feasibility: K1 > 0 (guaranteed for validated params).
    ``cond1_ok``
        threshold regularity: ``k5*K2 != C1`` and
        ``C1 != d2*d3*rho1**2 + d2*K2*rho1``; when either equality holds the
        critical manifold may fail to be a regular hypersurface.
    ``cond2_ok``
        stability-exchange condition ``k5*K2 - C1 > 0`` under which a real
        principal eigenvalue crosses zero first.
    """

    cond0_ok: bool
    cond1_ok: bool
    cond2_ok: bool
    K1: float
    k5K2_minus_C1: float
    # the two quantities that must each differ from C1 for regularity
    cond1_lhs_rhs: tuple[float, float]
    rho1: float


def validate_params(raw: Mapping[str, Any] | ModelParams, **overrides: Any) -> ModelParams:
    """Build :class:`ModelParams` from a raw mapping, validating everything.

    Accepts any mapping with keys ``k1,k3,k5,k7,C1,E,d1,d2,d3,ell`` and an
    optional ``bc``.  Raises :class:`ValidationError` for missing or
    non-numeric fields, :class:`NonPositiveParameter` /
    :class:`K1NotPositive` for infeasible values.
    """
    if isinstance(raw, ModelParams):
        return raw.replace(**overrides) if overrides else raw
    kwargs, bc = _record_fields({**raw, **overrides}, float)
    return ModelParams(bc=bc, **kwargs)


def _record_fields(
    raw: Mapping[str, Any], convert
) -> tuple[dict[str, Any], BoundaryCondition]:
    """Numeric fields of a raw record, each passed through ``convert``, and its bc."""
    record = dict(raw)
    kwargs: dict[str, Any] = {}
    for name in _POSITIVE_FIELDS:
        if name not in record:
            raise ValidationError(name, "missing required parameter")
        value = record.pop(name)
        try:
            kwargs[name] = convert(value)
        except (TypeError, ValueError):
            raise ValidationError(name, f"not a number: {value!r}") from None
    bc = record.pop("bc", BoundaryCondition.DIRICHLET)
    if record:
        unknown = ", ".join(sorted(record))
        raise ValidationError(unknown, "unknown parameter field(s)")
    if not isinstance(bc, BoundaryCondition):
        bc = BoundaryCondition.parse(str(bc))
    return kwargs, bc


def steady_state(p: ModelParams) -> SteadyState:
    """Uniform positive equilibrium of the reaction system."""
    K1 = p.K1
    return SteadyState(
        Mg=p.k1**2 * p.C1 / K1,
        Ms=p.k1 * p.k3 * p.E / K1,
        Df=p.E / p.k1,
        K1=K1,
        K2=p.K2,
    )


def reaction_rhs(p: ModelParams, state: Any) -> np.ndarray:
    """Reaction part of the model evaluated at absolute field values.

    ``state`` is a triple ``(Mg, Ms, Df)`` of scalars or equal-shaped arrays;
    the result has the same shape.
    """
    Mg, Ms, Df = np.asarray(state[0]), np.asarray(state[1]), np.asarray(state[2])
    f1 = -p.k7 * Df * Mg + p.k5 * Df * Ms + p.k1 * Df
    f2 = p.k7 * Df * Mg - p.k5 * Df * Ms - p.E
    f3 = -p.k3 * Df * Mg + p.C1 * Ms - p.k1 * Df + p.E
    return np.stack([f1, f2, f3])


def linearization_matrix(p: ModelParams | ParamBatch) -> np.ndarray:
    """Jacobian of the reaction part at the steady state.

    For a :class:`ParamBatch` of n points it is the (n, 3, 3) stack of
    their Jacobians.
    """
    a = p.E / p.k1  # steady-state free tubulin
    zero = 0.0 * a  # shaped like the other entries
    jac = np.array(
        [
            [-p.k7 * a, p.k5 * a, zero],
            [p.k7 * a, -p.k5 * a, p.k1],
            [-p.k3 * a, p.C1, -p.K2],
        ]
    )
    return jac if jac.ndim == 2 else np.moveaxis(jac, -1, 0)


def diffusion_matrix(p: ModelParams) -> np.ndarray:
    """Diagonal diffusion matrix ``diag(d1, d2, d3)``."""
    return np.diag(p.diffusion)


def quadratic_nonlinearity(p: ModelParams, w: Any) -> np.ndarray:
    """Exact quadratic remainder of the reaction part in deviations ``w``.

    Satisfies ``reaction_rhs(p, ss + w) == A @ w + quadratic_nonlinearity(p, w)``
    identically (the model is quadratic, so the Taylor expansion terminates).
    The first two components are opposite by construction.
    """
    w1, w2, w3 = np.asarray(w[0]), np.asarray(w[1]), np.asarray(w[2])
    cross = p.k5 * w2 * w3 - p.k7 * w1 * w3
    return np.stack([cross, -cross, -p.k3 * w1 * w3])


_COND_RTOL = 1e-12


def check_conditions(p: ModelParams, rho1: float | None = None) -> ConditionReport:
    """Evaluate the feasibility, regularity and stability-exchange conditions.

    ``rho1`` is the first Laplacian eigenvalue for the chosen boundary
    condition; if omitted it is computed from the domain length (both
    supported variants share ``(pi/ell)**2``).
    """
    if rho1 is None:
        rho1 = (np.pi / p.ell) ** 2
    K1 = p.K1
    K2 = p.K2
    q1 = p.k5 * K2
    q2 = p.d2 * p.d3 * rho1**2 + p.d2 * K2 * rho1
    scale = max(abs(p.C1), abs(q1), abs(q2), 1.0)
    cond1_ok = (
        abs(q1 - p.C1) > _COND_RTOL * scale and abs(q2 - p.C1) > _COND_RTOL * scale
    )
    margin = cond2_margin(p)
    return ConditionReport(
        cond0_ok=K1 > 0.0,
        cond1_ok=cond1_ok,
        cond2_ok=margin > 0.0,
        K1=K1,
        k5K2_minus_C1=margin,
        cond1_lhs_rhs=(q1, q2),
        rho1=rho1,
    )


def cond2_margin(p: ModelParams | ParamBatch):
    """``k5*K2 - C1``: the stability-exchange condition (cond2) is that it is > 0."""
    return p.k5 * p.K2 - p.C1
