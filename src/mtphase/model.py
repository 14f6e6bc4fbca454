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

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, K1NotPositive, NonPositiveParameter, ValidationError

__all__ = [
    "BoundaryCondition",
    "ModelParams",
    "ParamBatch",
    "SteadyState",
    "ConditionReport",
    "validate_params",
    "POSITIVE_FIELDS",
    "domain_error",
    "steady_state",
    "reaction_rhs",
    "jacobian_rows",
    "linearization_matrix",
    "diffusion_matrix",
    "quadratic_nonlinearity",
    "reaction_matrices",
    "deviation_reaction",
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


#: the numeric fields of a parameter point, in the order they are checked
POSITIVE_FIELDS = ("k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3", "ell")


def _k1(k1, k3, k5, k7, C1, E):
    return C1 * k1 * k7 - k3 * k5 * E


def _k2(k1, k3, C1, K1):
    return k1 * (1.0 + C1 * k1 * k3 / K1)


class _DerivedConstants:
    """``K1`` and ``K2`` of one parameter point, or of every point of a batch."""

    __slots__ = ()

    @property
    def K1(self):
        """Feasibility combination ``C1*k1*k7 - k3*k5*E`` (must be > 0)."""
        return _k1(self.k1, self.k3, self.k5, self.k7, self.C1, self.E)

    @property
    def K2(self):
        """Derived decay constant ``k1*(1 + C1*k1*k3/K1)``."""
        return _k2(self.k1, self.k3, self.C1, self.K1)


def _as_float(value: Any) -> float:
    """``value`` itself when it is a float (numpy.float64 is one), else
    ``float(value)``: a float field is never copied."""
    return value if isinstance(value, float) else float(value)


class _FieldsView:
    """Base of a slotted record whose ``__dict__``, and so ``vars()``, is
    its :meth:`to_record`: a slotted instance has no dict of its own."""

    __slots__ = ()

    @property
    def __dict__(self) -> dict[str, Any]:
        return self.to_record()


def domain_error(values: Sequence[float]) -> ConfigError | None:
    """The error :class:`ModelParams` raises for the field values
    ``values`` (floats in ``POSITIVE_FIELDS`` order), or None if it
    accepts them: a :class:`NonPositiveParameter` for the first field that
    is not finite and > 0, otherwise a :class:`K1NotPositive` when K1 <= 0
    (a NaN K1 from overflow passes)."""
    for name, value in zip(POSITIVE_FIELDS, values):
        if not (math.isfinite(value) and value > 0.0):
            return NonPositiveParameter(name, value)
    K1 = _k1(*values[:6])
    return K1NotPositive(K1) if K1 <= 0.0 else None


@dataclass(frozen=True, slots=True)
class ModelParams(_DerivedConstants, _FieldsView):
    """Validated control parameters of the model.

    Construction fails with :class:`NonPositiveParameter` or
    :class:`K1NotPositive` when the feasibility requirements are violated, so
    every live instance satisfies them (including instances produced through
    :func:`dataclasses.replace`).  The numeric fields hold floats: a float
    given (numpy.float64 included) is kept as the same object, any other
    number is converted once.  Points built from a :class:`ModelParams`
    (:meth:`~mtphase.threshold.ParameterRay.at`, :meth:`replace`) thus share
    its float objects in the fields they do not change.  The class is
    slotted, so that a run holding one threshold point per result holds
    less; ``vars(p)`` is a new dict of the fields.
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
        values = [_as_float(getattr(self, name)) for name in POSITIVE_FIELDS]
        error = domain_error(values)
        if error is not None:
            raise error
        for name, value in zip(POSITIVE_FIELDS, values):
            object.__setattr__(self, name, value)
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
        for name in POSITIVE_FIELDS:
            value = getattr(self, name)
            ok &= np.isfinite(value) & (value > 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            return ok & ~(self.K1 <= 0.0)

    def domain_errors(self, index: Sequence[int]) -> list[ConfigError | None]:
        """:func:`domain_error` of each point at ``index``, built without
        raising from the row's values as Python floats, the values
        :class:`ModelParams` would check."""
        columns = [getattr(self, name)[index].tolist() for name in POSITIVE_FIELDS]
        return [domain_error(values) for values in zip(*columns)]

    def select(self, index) -> "ParamBatch":
        """The points at ``index`` (a mask or index array) as a new batch."""
        return ParamBatch(
            *(getattr(self, n)[index] for n in POSITIVE_FIELDS), bc=self.bc
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
        ``cond2_margin(p) > 0`` (see :func:`cond2_margin`).
    """

    cond0_ok: bool
    cond1_ok: bool
    cond2_ok: bool
    K1: float
    k5K2_minus_C1: float
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
    kwargs, bc = _record_fields({**raw, **overrides}, _as_float)
    return ModelParams(bc=bc, **kwargs)


def _record_fields(
    raw: Mapping[str, Any], convert
) -> tuple[dict[str, Any], BoundaryCondition]:
    """Numeric fields of a raw record, each passed through ``convert``, and its bc."""
    record = dict(raw)
    kwargs: dict[str, Any] = {}
    for name in POSITIVE_FIELDS:
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


def jacobian_rows(k1, k3, k5, k7, C1, E) -> list[list]:
    """The rows of :func:`linearization_matrix` from the six rates, as
    nested lists: of floats for one point, of arrays for a batch."""
    a = E / k1  # steady-state free tubulin
    K2 = _k2(k1, k3, C1, _k1(k1, k3, k5, k7, C1, E))
    return [
        [-k7 * a, k5 * a, 0.0 * a],  # 0.0 * a is shaped like the other entries
        [k7 * a, -k5 * a, k1],
        [-k3 * a, C1, -K2],
    ]


def linearization_matrix(p: ModelParams | ParamBatch) -> np.ndarray:
    """Jacobian of the reaction part at the steady state.

    For a :class:`ParamBatch` of n points it is the (n, 3, 3) stack of
    their Jacobians.
    """
    jac = np.array(jacobian_rows(p.k1, p.k3, p.k5, p.k7, p.C1, p.E))
    return jac if jac.ndim == 2 else np.moveaxis(jac, -1, 0)


def diffusion_matrix(p: ModelParams) -> np.ndarray:
    """Diagonal diffusion matrix ``diag(d1, d2, d3)``."""
    return np.diag(p.diffusion)


#: ``[I | C]`` of :func:`reaction_matrices`: the same for every parameter point
_COMBINE = np.hstack(
    [np.eye(3), [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
)
_COMBINE.setflags(write=False)
#: the rows of ``gather`` that copy ``w3``
_W3_COPIES = np.array([[0.0, 0.0, 1.0]] * 3)


def reaction_matrices(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The reaction part in deviations as two small matrices ``(gather, combine)``.

    The quadratic remainder carries the factor ``w3`` in every term: with
    the products ``g = w3 * (M w) = w3 * (k5 w2, k7 w1, -k3 w1)`` it is
    ``F(w) = (g1 - g2, g2 - g1, g3)``.  ``gather`` (9, 3) stacks ``A``
    (:func:`linearization_matrix`), ``M`` and three rows that copy ``w3``;
    ``combine`` (3, 6) is ``[I | C]``, read-only, and adds ``A w`` to ``F``.
    :func:`deviation_reaction` applies them.
    """
    M = np.array([[0.0, p.k5, 0.0], [p.k7, 0.0, 0.0], [-p.k3, 0.0, 0.0]])
    return np.concatenate((linearization_matrix(p), M, _W3_COPIES)), _COMBINE


def deviation_reaction(gather: np.ndarray, combine: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``A w + F(w)`` for fields ``w`` of shape (3, n), from the matrices of
    :func:`reaction_matrices`; with the ``A`` rows of ``gather`` zeroed it
    is ``F(w)`` alone.

    Two matmuls and one product of equal-shaped blocks.  Each entry of
    ``M w`` and of the ``w3`` copies has one nonzero term, so ``g`` is
    rounded as the elementwise ``(k5*w2)*w3`` and so on, and ``F`` alone as
    ``g1 - g2``.
    """
    q = gather @ w  # A w, M w, w3, w3, w3
    np.multiply(q[3:6], q[6:], out=q[3:6])
    return combine @ q[:6]


def quadratic_nonlinearity(p: ModelParams, w: Any) -> np.ndarray:
    """Exact quadratic remainder of the reaction part in deviations ``w``.

    Satisfies ``reaction_rhs(p, ss + w) == A @ w + quadratic_nonlinearity(p, w)``
    identically (the model is quadratic, so the Taylor expansion terminates).
    The first two components are opposite by construction.  ``w`` has three
    components along its first axis; it is :func:`deviation_reaction` with
    the ``A`` block zeroed.
    """
    w = np.asarray(w)
    gather, combine = reaction_matrices(p)
    gather[:3] = 0.0
    return deviation_reaction(gather, combine, w.reshape(3, -1)).reshape(w.shape)


_COND_RTOL = 1e-12


def check_conditions(p: ModelParams) -> ConditionReport:
    """Evaluate the feasibility, regularity and stability-exchange conditions.

    ``rho1`` is the first Laplacian eigenvalue, ``(pi/ell)**2`` for both
    supported boundary conditions.
    """
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
        rho1=rho1,
    )


def cond2_margin(p: ModelParams | ParamBatch):
    """``k5*K2 - C1``; cond2 is that it is > 0.  The form assumes the time
    unit k1 = E = 1 of the shipped configs; ``a*k5*K2 - C1*k1`` (a = E/k1)
    is the homogeneous one.  The stability-exchange report does not use it.
    """
    return p.k5 * p.K2 - p.C1
