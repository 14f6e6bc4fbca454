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
    "validate_params",
    "POSITIVE_FIELDS",
    "domain_error",
    "steady_state",
    "reaction_rhs",
    "jacobian_rows",
    "linearization_matrix",
    "diffusion_matrix",
    "quadratic_nonlinearity",
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
#: the fewest nodes of a simulation grid (``[simulate] N``); the simulator
#: exports it
MIN_GRID_POINTS = 16


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
        raising from the batch's values as Python floats, the values
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
    """Uniform equilibrium of the reaction system; K1 and K2 are properties
    of :class:`ModelParams`."""

    Mg: float
    Ms: float
    Df: float

    def as_array(self) -> np.ndarray:
        return np.array([self.Mg, self.Ms, self.Df])


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
    return SteadyState(Mg=p.k1**2 * p.C1 / K1, Ms=p.k1 * p.k3 * p.E / K1, Df=p.E / p.k1)


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


def quadratic_nonlinearity(p: ModelParams, w: Any) -> np.ndarray:
    """Exact quadratic remainder of the reaction part in deviations ``w``.

    Satisfies ``reaction_rhs(p, ss + w) == A @ w + quadratic_nonlinearity(p, w)``
    identically (the model is quadratic, so the Taylor expansion terminates).
    ``w`` has three components along its first axis, of any shape, and so
    does the result.  Every term carries the factor ``w3``: with the
    products ``g = w3 * (k5 w2, k7 w1, -k3 w1)`` it is ``F(w) = (g1 - g2,
    g2 - g1, g3)``, elementwise, so the first two components are opposite
    bit for bit and each column is rounded as it would be alone.
    """
    w1, w2, w3 = np.asarray(w)
    g1 = (p.k5 * w2) * w3
    g2 = (p.k7 * w1) * w3
    return np.stack((g1 - g2, g2 - g1, (-p.k3 * w1) * w3))


def cond2_margin(p: ModelParams | ParamBatch):
    """``k5*K2 - C1``; cond2 is that it is > 0.  The form assumes the time
    unit k1 = E = 1 of the shipped configs; ``a*k5*K2 - C1*k1`` (a = E/k1)
    is the homogeneous one.  The stability-exchange report does not use it.
    """
    return p.k5 * p.K2 - p.C1
