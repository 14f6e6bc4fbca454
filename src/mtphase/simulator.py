"""Method-of-lines integration of the deviation-form system on a 1D grid.

The simulator is the independent oracle for everything the linear and
weakly-nonlinear analyses predict: growth rates, saturated branch
amplitudes, and jump behavior.  Fields are deviations from the uniform
steady state, so both boundary-condition variants are homogeneous.  Time
stepping is IMEX with one step, :meth:`Stepper.ladder_step`: the third
order ARK3(2)4L[2]SA (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003)
with the whole linear part ``L = D lap + A`` implicit (ESDIRK) and only
the quadratic ``F`` explicit (Ascher, Ruuth & Spiteri, Appl. Numer. Math.
25, 1997), so that the stiff eigenvalues of ``A`` do not bound its step,
and an embedded second-order solution.  Fixed points of the step are
exact steady states of the semi-discrete system for every step size, so
saturated amplitudes carry spatial discretization error only.

The step interleaves the unknowns by node, ``3 j + c``, where ``L`` is
banded with three diagonals on either side.  It factors ``I - gamma h L``
once per step size with one ``gbtrf`` call, from the template of the
Jacobian band (:meth:`Stepper._jacobian_band`), and solves each stage
with one ``gbtrs`` call.  :func:`simulate` builds one :class:`Stepper`
per run, so every factor is made once per run.

:func:`simulate` is the one time-stepping loop of the package;
:class:`Stepper` takes single steps.  It has three paths, all of
:meth:`Stepper.ladder_step` steps:

- fixed steps of a given size ``dt``, every one accepted, whose temporal
  order criterion 11 measures;
- for fixed-horizon runs with ``dt = auto`` (``dt=None``), an
  error-controlled path of steps of ``2**-k`` record intervals: substeps
  of one interval for ``k >= 0``, and for ``k < 0`` steps over ``2**-k``
  whole intervals whose inner records come from the cubic Hermite
  interpolant of the amplitude (Hairer, Nørsett & Wanner, Solving ODEs I,
  §II.6), so that the run is recorded at the fixed path's record times
  (:func:`_simulate_ark`);
- for saturation runs, an error-controlled ladder ``dt * 2**k`` of steps,
  controlled by their embedded error estimate (the controller follows
  Söderlind, ACM TOMS 29, 2003), that stops on a Newton-correction bound
  of its distance to the steady state (:meth:`Stepper.newton_correction`).

A blow-up raises :class:`StepUnstable` carrying the last good state.

Up to a few hundred grid points a step costs what its NumPy and LAPACK
calls cost, not what they compute, so the step makes few of them.  It
keeps its stage vectors interleaved and makes about 20 calls, 35 with the
mean projection, and its first stage about 10 more.  That first stage
(``u``, ``F(u)`` and ``L u``, one ``gbmv`` product) depends on no step
size, so a retried step reuses it and the ``dt = auto`` path's Hermite
slopes come from it.  Each later stage is one matmul for its right-hand
side, one ``gbtrs`` solve in place and ``F`` node by node (one matmul
with ``(C M)^T`` and one product with ``u3``); one more matmul gives the
new state and the error estimate.  The new state is the (3, N) transpose
of an interleaved row, so the next step interleaves it without a
transpose.

README "Performance" has the measured cost of the step and of
``mtphase simulate``.

Importing this module loads NumPy and no SciPy module.  The first
:class:`Stepper` fetches the ``gbsv``, ``gbtrf``, ``gbtrs`` and ``gbmv``
wrappers once through :func:`_banded_lapack`, from SciPy's ``_flapack``
and ``_fblas`` extension modules alone: the ``scipy.linalg`` package,
whose import took 0.29-0.33 s of a cold ``mtphase simulate``, is not
imported.

Amplitudes are biorthogonal projections onto the critical mode, built from
the closed-form eigenpair of :mod:`mtphase.spectral`; the simulator uses
nothing of the threshold or transition analyses it is checking.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridTooCoarse, StepUnstable
from .model import (
    MIN_GRID_POINTS,
    BoundaryCondition,
    ModelParams,
    linearization_matrix,
    steady_state,
)
from .spectral import laplacian_mode, principal_mode_vectors

__all__ = [
    "Grid",
    "FieldState",
    "AmplitudeSeries",
    "SimulationResult",
    "MIN_GRID_POINTS",
    "LADDER_TOL",
    "LADDER_FLOOR",
    "ARK_TOL",
    "make_grid",
    "laplacian_apply",
    "dt_max",
    "initial_state",
    "Stepper",
    "CriticalMode",
    "critical_mode",
    "simulate",
]

#: step ladder of saturation runs: a step is rejected when the max norm of
#: its local error estimate (third-order step minus the embedded
#: second-order solution) exceeds this times ||u||_inf
LADDER_TOL = 1e-3
#: lowest rung of the ladder: steps never fall below dt * 2**LADDER_FLOOR
LADDER_FLOOR = -10
#: the saturation stop bounds the distance to the steady state at least once
#: in this many accepted steps
_CHECK_CAP = 64
#: error-controlled path of fixed-horizon ``dt = auto`` runs: a substep is
#: rejected and retried as two halves when the max norm of its error
#: estimate (third-order step minus the embedded second-order solution)
#: exceeds this times the new field's max norm
ARK_TOL = 1e-5

# ARK3(2)4L[2]SA (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003), the
# published rationals.  Rows of the explicit stage matrix and strictly
# lower rows of the implicit one, whose diagonal is (0, gamma, gamma,
# gamma); the third-order weights and the embedded second-order ones.
ARK_GAMMA = Fraction(1767732205903, 4055673282236)
ARK_EXPLICIT = (
    (),
    (Fraction(1767732205903, 2027836641118),),
    (Fraction(5535828885825, 10492691773637), Fraction(788022342437, 10882634858940)),
    (
        Fraction(6485989280629, 16251701735622),
        Fraction(-4246266847089, 9704473918619),
        Fraction(10755448449292, 10357097424841),
    ),
)
ARK_IMPLICIT = (
    (),
    (ARK_GAMMA,),
    (Fraction(2746238789719, 10658868560708), Fraction(-640167445237, 6845629431997)),
    (
        Fraction(1471266399579, 7840856788654),
        Fraction(-4482444167858, 7529755066697),
        Fraction(11266239266428, 11593286722821),
    ),
)
ARK_B = (
    Fraction(1471266399579, 7840856788654),
    Fraction(-4482444167858, 7529755066697),
    Fraction(11266239266428, 11593286722821),
    ARK_GAMMA,
)
ARK_B_HAT = (
    Fraction(2756255671327, 12835298489170),
    Fraction(-10771552573575, 22201958757719),
    Fraction(9247589265047, 10645013368117),
    Fraction(2193209047091, 5459859503100),
)


def _ark_weights() -> tuple[np.ndarray, np.ndarray]:
    """The tableau as the (5, 9) matrix ``W0 + h W1`` that forms a step of size ``h``.

    Its columns act on the rows of :meth:`Stepper.ladder_step`'s buffer: the
    state ``u``, ``F(u)`` and ``L u`` (the first stage), then ``F(U_i)`` and
    ``U_i`` of stages 2-4.  The implicit term of stage ``i`` is not formed:
    ``h L U_i = (U_i - rhs_i) / gamma``, where ``rhs_i`` is the stage's
    right-hand side, so each ``h L U_i`` is a combination of the rows
    before it, affine in ``h``.  Rows 0-2 of the matrix form ``rhs_2`` to
    ``rhs_4`` (their unused columns are zero), row 3 the new state and row 4
    its error estimate ``sum (b - b_hat) h (F + L U)``.  Computed in exact
    rationals and rounded once.
    """
    def term(k: int, times_h: bool = False) -> np.ndarray:
        out = np.full((2, 9), Fraction(0))
        out[int(times_h), k] = Fraction(1)
        return out

    h_f = [term(2 * i + 1, True) for i in range(4)]  # h F of each stage
    h_l = [term(2, True)]  # h L of each stage
    rows = []
    for i in (1, 2, 3):
        pairs = zip(ARK_EXPLICIT[i], ARK_IMPLICIT[i], h_f, h_l)
        rhs = term(0) + sum(a * f + a_i * l for a, a_i, f, l in pairs)
        rows.append(rhs)
        h_l.append((term(2 * i + 2) - rhs) / ARK_GAMMA)
    slopes = [f + l for f, l in zip(h_f, h_l)]
    rows.append(term(0) + sum(b * s for b, s in zip(ARK_B, slopes)))
    rows.append(sum((b - b_hat) * s for b, b_hat, s in zip(ARK_B, ARK_B_HAT, slopes)))
    weights = np.array(rows, dtype=float)
    return weights[:, 0], weights[:, 1]


_ARK_WEIGHTS = _ark_weights()
_ARK_GAMMA = float(ARK_GAMMA)
#: row and column of each entry of a 3x3 node block
_NODE_ENTRIES = np.indices((3, 3))


def _scipy_linalg_extension(name: str):
    """SciPy's extension module ``scipy.linalg.<name>``, without the package.

    Taken from ``sys.modules`` when loaded, so there is never a second
    copy.  Else its file is found through ``importlib.util.find_spec``,
    which imports nothing, and loaded with ``ExtensionFileLoader`` under
    its own name.  ``None`` when the file is not there.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(root, "linalg", name + suffix)
             for root in (spec.submodule_search_locations if spec else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(fullname, path, loader=loader))
    loader.exec_module(module)
    sys.modules[fullname] = module
    return module


@functools.cache
def _banded_lapack():
    """SciPy's float64 wrappers of the banded LAPACK and BLAS routines.

    ``gbsv``, ``gbtrf``, ``gbtrs`` and ``gbmv``, in that order.

    ``gbsv`` factors a general banded matrix with partial pivoting and
    solves with it, ``gbtrf`` and ``gbtrs`` do the two apart, and the BLAS
    ``gbmv`` multiplies a banded matrix into a vector.  They are the
    objects ``get_lapack_funcs`` and ``get_blas_funcs`` return, taken from
    the ``_flapack`` and ``_fblas`` extension modules on the first call,
    when the first :class:`Stepper` is built, without importing the
    ``scipy.linalg`` package (:func:`_scipy_linalg_extension`).  Only when
    those files are missing does it import ``scipy.linalg``.
    """
    flapack, fblas = (_scipy_linalg_extension(name) for name in ("_flapack", "_fblas"))
    if flapack is None or fblas is None:
        from scipy.linalg import get_blas_funcs, get_lapack_funcs

        empty = (np.empty(0),)
        return (*get_lapack_funcs(("gbsv", "gbtrf", "gbtrs"), empty),
                get_blas_funcs("gbmv", empty))
    return flapack.dgbsv, flapack.dgbtrf, flapack.dgbtrs, fblas.dgbmv


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on (0, ell).

    Dirichlet uses ``N`` interior nodes with spacing ``ell/(N+1)`` (the
    boundary values of the deviation fields are identically zero and not
    stored).  Neumann uses ``N`` cell centers with spacing ``ell/N`` and
    mirrored ghost cells.
    """

    N: int
    ell: float
    bc: BoundaryCondition
    dx: float
    x: np.ndarray


def make_grid(p: ModelParams, N: int) -> Grid:
    """Build the grid matching the parameters' domain and boundary condition.

    Raises
    ------
    GridTooCoarse
        If ``N`` is below ``MIN_GRID_POINTS``.
    """
    if N < MIN_GRID_POINTS:
        raise GridTooCoarse(
            f"N = {N} grid points requested; minimum is {MIN_GRID_POINTS}"
        )
    if p.bc is BoundaryCondition.DIRICHLET:
        dx = p.ell / (N + 1)
        x = dx * np.arange(1, N + 1)
    else:
        dx = p.ell / N
        x = dx * (np.arange(N) + 0.5)
    return Grid(N=N, ell=p.ell, bc=p.bc, dx=dx, x=x)


def laplacian_apply(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Second-order discrete Laplacian of field rows ``u[..., :]``.

    Dirichlet: zero values beyond the boundary; Neumann: mirrored ghosts
    (zero flux).  The Neumann operator has exact zero row sums, so it
    preserves the spatial mean of each field.

    Flux form: the fluxes ``u[j] - u[j-1]`` live on the ``N + 1`` faces of
    each row, and a node's value is the difference of the fluxes on either
    side of it, over ``dx**2``.  All rows are differenced as one flat
    array, with zero flux on the faces at the ends of each row; Dirichlet's
    end faces carry ``u[0]`` and ``-u[N-1]``, so its end nodes take one
    more ``-u``.
    """
    u = np.asarray(u)
    flat = u.reshape(-1)
    flux = np.empty(flat.size + 1, dtype=u.dtype)
    np.subtract(flat[1:], flat[:-1], out=flux[1:-1])
    flux[:: u.shape[-1]] = 0.0
    out = (flux[1:] - flux[:-1]).reshape(u.shape)
    if grid.bc is BoundaryCondition.DIRICHLET:
        out[..., 0] -= u[..., 0]
        out[..., -1] -= u[..., -1]
    out /= grid.dx**2
    return out


def _remove_mean(u: np.ndarray) -> None:
    """Subtract each row's spatial mean from ``u`` in place.

    ``sum / N`` rounds exactly as ``ndarray.mean`` does.
    """
    u -= np.add.reduce(u, axis=1, keepdims=True) / u.shape[1]


def dt_max(p: ModelParams, grid: Grid) -> float:
    """The step scale of :func:`simulate`: ``min(2.5*dx^2/max(d), 0.1/||A||_inf)``.

    Half of it is the default step ``dt``: it sets the record grid of a
    ``dt = auto`` run (a record every ``record_every`` steps of that size)
    and the first rung of a saturation run.  The step is implicit in ``D
    lap + A``, so neither term bounds its stability; the rule is a time
    scale of the grid's diffusion and of the linearization, and the record
    times of the shipped configs rest on it.
    """
    diffusive = 2.5 * grid.dx**2 / max(p.d1, p.d2, p.d3)
    a_norm = float(np.abs(linearization_matrix(p)).sum(axis=1).max())
    return min(diffusive, 0.1 / a_norm)


@dataclass
class FieldState:
    """Deviation fields at one instant: ``u`` has shape (3, N)."""

    t: float
    u: np.ndarray


@dataclass(frozen=True)
class AmplitudeSeries:
    """Projected critical-mode amplitude y(t) along a trajectory."""

    times: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of :func:`simulate` with its step diagnostics.

    ``steps`` counts the accepted steps the result is made of, and
    ``rejected`` the steps thrown away: each rejected step of the ladder or
    substep of the error-controlled path.  ``dt_range`` is the smallest
    and largest of the accepted steps (NaN when no step was taken).
    ``residual`` is ``||D lap u + A u + F(u)||_inf`` at the final state
    (:meth:`Stepper.residual`, mean-projected under zero-average Neumann
    conditions); it vanishes exactly at a steady state.  ``checks`` counts
    the Newton corrections a saturation run took to bound its distance to
    the steady state, and ``correction`` is the last one's ``||delta||_inf
    / ||u||_inf``: at most ``saturation_tol`` when the run saturated,
    infinite when that check's factor was singular, and NaN when no check
    was made (every run that does not stop on saturation).
    """

    final_state: FieldState
    series: AmplitudeSeries
    saturated: bool
    steps: int
    rejected: int
    dt_range: tuple[float, float]
    residual: float
    correction: float
    checks: int


def initial_state(
    p: ModelParams,
    grid: Grid,
    kind: str = "random",
    amplitude: float = 1e-4,
    seed: int = 0,
) -> FieldState:
    """Construct a starting deviation field.

    ``random``: independent uniform noise of size ``amplitude`` relative to
    the steady-state scale, reproducible from ``seed``.  ``aligned``:
    ``amplitude * omega * e1(x)`` along the critical eigenvector (use a
    negative amplitude for the mirror branch).  ``zero``: the trivial state.
    Under zero-average Neumann conditions the mean of each component is
    projected out.
    """
    if kind == "zero":
        u = np.zeros((3, grid.N))
    elif kind == "random":
        rng = np.random.default_rng(seed)
        scale = amplitude * float(np.max(np.abs(steady_state(p).as_array())))
        u = scale * rng.uniform(-1.0, 1.0, size=(3, grid.N))
    elif kind == "aligned":
        mode = critical_mode(p, grid)
        u = amplitude * mode.omega[:, None] * mode.e1[None, :]
    else:
        raise ValueError(f"unknown initial-state kind {kind!r}")
    if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        _remove_mean(u)
    return FieldState(t=0.0, u=u)


class Stepper:
    """IMEX integrator for one (parameters, grid) pair, with a default step ``dt``.

    The semi-discrete system is ``u' = L u + F(u)``: ``L = D lap + A`` is
    its linear part, the per-component diffusion operator plus the
    reaction Jacobian at the steady state, and ``F`` the quadratic
    remainder of the reaction part in deviation form
    (:func:`~mtphase.model.quadratic_nonlinearity`), which vanishes
    identically at zero.  The step, :meth:`ladder_step`, is ARK3(2)4L[2]SA
    with ``L`` implicit and only ``F`` explicit.

    Parameters
    ----------
    p : ModelParams
    grid : Grid
    dt : float
        Default time step of :meth:`step_array` (see :func:`dt_max` for the
        default rule).
    linear_only : bool, optional
        Drop the quadratic nonlinearity (linearized dynamics), used by
        growth-rate oracles.

    Raises
    ------
    ValueError
        If ``dt`` is not finite and positive.

    Under zero-average Neumann conditions the spatial mean is projected out
    of the explicit term ``F``, of :meth:`residual` and of the state
    (``project`` is True).
    """

    def __init__(self, p: ModelParams, grid: Grid, dt: float, linear_only: bool = False) -> None:
        self.dt = float(dt)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        self.p = p
        self.grid = grid
        self.linear_only = linear_only
        self.project = p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE
        self._factors: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray] | None] = {}
        self._gbsv, self._gbtrf, self._gbtrs, self._gbmv = _banded_lapack()
        self._jacobian = None  # the parts of _jacobian_band, built on first use
        # F = u3 (C M u) node by node, with C M = ((-k7, k5, 0), (k7, -k5,
        # 0), (-k3, 0, 0)) (see quadratic_nonlinearity): (C M)^T for
        # node-interleaved fields
        cm_t = ((-p.k7, p.k7, -p.k3), (p.k5, -p.k5, 0.0), (0.0, 0.0, 0.0))
        self._quadratic_matrix = np.zeros((3, 3)) if linear_only else np.array(cm_t)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """The semi-discrete right-hand side ``F(u) + L u`` at (3, N) ``u``, its time derivative.

        The sum of :meth:`first_stage`'s two terms, the step's own assembly,
        as a (3, N) array; mean-projected under zero-average Neumann
        conditions.  It vanishes exactly at the steady states of the
        semi-discrete system.
        """
        first = self.first_stage(u)
        out = (first[1] + first[2]).reshape(-1, 3).T
        if self.project:
            _remove_mean(out)
        return out

    def _jacobian_band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The parts of the banded Jacobian of :meth:`residual` that do not depend on ``u``.

        Unknowns are interleaved by node, ``3 j + c``, so the Jacobian ``K``
        of ``D lap u + A u + F(u)`` is banded with three diagonals on either
        side: the 3x3 block ``A + F'(u_j)`` of each node, and ``d_c/dx**2``
        at offsets +-3.  ``gbsv`` and ``gbtrf`` store entry ``(i, k)`` at
        ``[6 + i - k, k]`` of a (10, 3N) array whose rows 0-2 are the
        factor's workspace; the template is that array's transpose, in C
        order, holding the linear part ``L = D lap + A``.  It is the one
        assembly of ``L``: :meth:`ladder_step` factors ``I - c L`` from it,
        and :meth:`first_stage`, so :meth:`residual` too, multiplies ``L``
        into a vector with it.  ``F'(u_j) = u3_j C M + (C M u_j) e3^T`` (``F
        = u3 (C M u)`` node by node, as :meth:`_quadratic` forms it), so the
        template comes with the flat positions of the (N, 3, 3) node blocks
        in it and with ``C M``.
        """
        if self._jacobian is None:
            N = self.grid.N
            scaled = self.p.diffusion / self.grid.dx**2
            A = linearization_matrix(self.p)
            a, b = _NODE_ENTRIES
            # the columns 3 j + b of an inner node j; rows 3 and 9 hold the
            # entries (3 (j - 1) + b, 3 j + b) and (3 (j + 1) + b, 3 j + b)
            node = np.zeros((3, 10))
            node[:, 3] = node[:, 9] = scaled
            node[:, 6] = -2.0 * scaled
            node[b, 6 + a - b] += A
            template = np.empty((N, 3, 10))
            template[:] = node
            template[0, :, 3] = template[-1, :, 9] = 0.0  # no node beyond the ends
            if self.project:
                template[[0, -1], :, 6] = -scaled + A.diagonal()
            index = 30 * np.arange(N)[:, None] + (10 * b + 6 + a - b).reshape(-1)
            cm = self._quadratic_matrix.T
            self._jacobian = template.reshape(3 * N, 10), index.reshape(-1), cm
        return self._jacobian

    def newton_correction(self, u: np.ndarray) -> np.ndarray | None:
        """One Newton correction ``delta = -K^{-1} r`` at ``u``, or None.

        ``r`` is :meth:`residual` at ``u`` and ``K`` its Jacobian
        (:meth:`_jacobian_band`), factored and solved with one ``gbsv``
        call.  Near a steady state ``u*``, ``u + delta - u* = O(|u - u*|**2)``,
        so ``||delta||`` is the distance to it up to a second-order term.

        Under zero-average Neumann conditions ``r`` and the Jacobian rows
        are mean-projected, ``P K``, which is singular on the full space;
        the correction is the one with zero component means, as in the
        bordered Newton solve of the verification suite.  ``P K delta =
        -r`` means ``K delta = -r + sum_c mu_c e_c``, with ``e_c`` the
        indicator of component ``c``, so the same factor of the unprojected
        ``K`` solves for ``-r`` and the three ``e_c``, and a 3x3 system
        sets the multipliers ``mu`` to zero ``delta``'s means.

        Returns None when the factor or that 3x3 system is singular.
        """
        template, index, cm = self._jacobian_band()
        N = self.grid.N
        band = template.copy()
        blocks = u[2][:, None, None] * cm
        blocks[:, :, 2] += (cm @ u).T
        band.reshape(-1)[index] += blocks.reshape(-1)
        rhs = np.empty((4 if self.project else 1, N, 3))
        rhs[0] = -self.residual(u).T
        if self.project:
            rhs[1:] = np.eye(3)[:, None, :]
        _, _, x, info = self._gbsv(3, 3, band.T, rhs.reshape(len(rhs), -1).T,
                                   overwrite_ab=1, overwrite_b=1)
        if info < 0:
            raise ValueError(f"gbsv returned info = {info}")
        if info > 0:
            return None
        x = x.T.reshape(len(rhs), N, 3)
        if self.project:
            try:
                mu = np.linalg.solve(x[1:].sum(axis=1).T, -x[0].sum(axis=0))
            except np.linalg.LinAlgError:
                return None
            x[0] += np.tensordot(mu, x[1:], 1)
        return x[0].T

    def step_array(self, u: np.ndarray) -> np.ndarray:
        """Advance a raw (3, N) array by one step of size ``dt`` (no bookkeeping).

        The new state of :meth:`ladder_step`, as the fixed path of
        :func:`simulate` takes it; the floating-point warnings of a blow-up
        are suppressed.

        Raises
        ------
        StepUnstable
            If the new state is not finite (the quadratic reaction can blow
            up in finite time when the state leaves the stable region, and
            a non-finite value anywhere in the step reaches the new state),
            or if ``I - gamma dt L`` is singular.  ``last_state`` is None.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.ladder_step(u, self.dt)[0]
            if not np.isfinite(out).all():
                raise StepUnstable("non-finite field values", last_state=None)
        return out

    def first_stage(self, u: np.ndarray) -> np.ndarray:
        """The first stage of :meth:`ladder_step` at ``u``, which no step size enters.

        The rows of a (3, 3N) array, interleaved by node: ``u``, ``F(u)``
        and ``L u``.  :meth:`residual` is their sum ``F(u) + L u``.
        """
        n = u.size
        out = np.empty((3, n))
        np.copyto(out[0].reshape(-1, 3), u.T)
        self._quadratic(out[0], out[1])
        # the template read as a band with 3 sub- and 6 superdiagonals, the
        # top three of them zero
        out[2] = self._gbmv(n, n, 3, 6, 1.0, self._jacobian_band()[0].T, out[0])
        return out

    def _step_factor(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The LU factor of ``I - gamma h L`` and the tableau's weights at ``h``.

        Made once per ``h``: one ``gbtrf`` call on the band of
        :meth:`_jacobian_band`'s template, interleaved by node, and the
        (5, 9) matrix of :func:`_ark_weights`.  None when the factor is
        singular.
        """
        if h not in self._factors:
            band = self._jacobian_band()[0] * (-_ARK_GAMMA * h)
            band[:, 6] += 1.0
            lu, piv, info = self._gbtrf(band.T, 3, 3, overwrite_ab=1)
            if info < 0:
                raise ValueError(f"gbtrf returned info = {info}")
            w0, w1 = _ARK_WEIGHTS
            self._factors[h] = (lu, piv, w0 + h * w1) if info == 0 else None
        return self._factors[h]

    def _quadratic(self, v: np.ndarray, out: np.ndarray) -> None:
        """Write ``F`` of the node-interleaved vector ``v`` into ``out``, interleaved.

        ``F = u3 (C M u)`` node by node, the ``(g1 - g2, g2 - g1, g3)`` of
        :func:`~mtphase.model.quadratic_nonlinearity`: one product with
        ``(C M)^T`` and one with ``u3``; mean-projected when enabled.
        """
        w = v.reshape(-1, 3)
        f = np.matmul(w, self._quadratic_matrix, out=out.reshape(-1, 3))
        f *= w[:, 2:]
        if self.project:
            _remove_mean(f.T)

    def ladder_step(
        self, u: np.ndarray, h: float, first: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One ARK3(2)4L[2]SA step of size ``h``: ``(new state, error estimate)``.

        The whole linear part ``L = D lap + A`` is implicit (ESDIRK,
        L-stable, stiffly accurate), so ``A``'s stiff eigenvalues do not
        bound the step, and only the quadratic ``F`` is explicit (Ascher,
        Ruuth & Spiteri, Appl. Numer. Math. 25, 1997).  The first stage is
        ``u`` itself, whose terms :meth:`first_stage` gives; pass them as
        ``first`` to reuse them across retries of a step.  The error
        estimate is the difference from the embedded second-order solution,
        at no extra cost; its max norm is what :func:`simulate` compares with
        its tolerance.

        The stage vectors are interleaved by node, ``3 j + c``, where ``L``
        is banded with three diagonals on either side.  Each stage is one
        ``gbtrs`` solve, in place, with the factor of ``I - gamma h L``
        (:meth:`_step_factor`), and its implicit term is never formed (see
        :func:`_ark_weights`): a stage costs one matmul for its right-hand
        side, the solve and ``F``.  One more matmul gives the new state and
        the error estimate.  The new state is the (3, N) transpose of an
        interleaved row, a view, so the next step's first stage copies it
        without a transpose; the error estimate stays interleaved.  Under
        zero-average Neumann conditions ``L`` maps zero-mean fields to
        zero-mean fields (``A`` acts node by node, and the Neumann Laplacian
        preserves means), so only ``F`` and the new state are
        mean-projected.  Equal explicit and implicit row sums keep the
        semi-discrete steady states fixed points for every ``h``.

        A blow-up gives non-finite values and is left to the caller, as are
        the floating-point warnings it would raise.

        Raises
        ------
        StepUnstable
            If ``I - gamma h L`` is singular; ``last_state`` is None.
        """
        factor = self._step_factor(h)
        if factor is None:
            raise StepUnstable("singular factor of I - gamma h L", last_state=None)
        lu, piv, weights = factor
        terms = np.empty((9, u.size))  # u, F(u), L u, then F and U of each stage
        terms[:3] = self.first_stage(u) if first is None else first
        for i in (1, 2, 3):
            stage = terms[2 * i + 2]
            np.matmul(weights[i - 1, : 2 * i + 1], terms[: 2 * i + 1], out=stage)
            _, info = self._gbtrs(lu, 3, 3, stage, piv, overwrite_b=1)
            if info != 0:
                raise ValueError(f"gbtrs returned info = {info}")
            self._quadratic(stage, terms[2 * i + 1])
        new, error = weights[3:] @ terms
        out = new.reshape(-1, 3).T
        if self.project:
            _remove_mean(out)
        return out, error


@dataclass(frozen=True)
class CriticalMode:
    """The critical mode ``omega * e1(x)`` on a grid, and its amplitude.

    Built by :func:`critical_mode`; the mode vectors are evaluated once,
    so :meth:`amplitude` is cheap to call along a trajectory.
    """

    omega: np.ndarray
    omega_star: np.ndarray
    e1: np.ndarray
    denominator: float

    def amplitude(self, u: np.ndarray) -> float:
        """Biorthogonal projection ``<u, e1 omega*> / <e1 omega, e1 omega*>``.

        The discrete sine/cosine orthogonality makes this exact for fields
        expanded in grid modes.
        """
        return float(self.e1 @ (self.omega_star @ u)) / self.denominator


def critical_mode(p: ModelParams, grid: Grid) -> CriticalMode:
    """The critical mode of ``p`` sampled on ``grid``."""
    omega, omega_star, _ = principal_mode_vectors(p)
    e1 = laplacian_mode(p, 1).evaluate(grid.x)
    denominator = float(e1 @ e1) * float(omega @ omega_star)
    return CriticalMode(omega, omega_star, e1, denominator)


def _steps_to_check(bound: float, previous: float, elapsed: float, tol: float, h: float) -> int:
    """Accepted steps of size ``h`` until the next saturation check, 1 to ``_CHECK_CAP``.

    ``bound`` and ``previous`` are the relative Newton-correction bounds of
    the last two checks, ``elapsed`` apart in time.  When the bound
    decayed, the log-linear decay between them is extrapolated to the time
    at which it reaches ``tol``, and the check is due at the first step
    after it.  The first check (``previous`` infinite), a bound that did
    not decay and a singular factor (``bound`` infinite) wait the cap.
    """
    if not (math.isfinite(previous) and bound < previous):
        return _CHECK_CAP
    steps = math.log(bound / tol) * elapsed / (math.log(previous / bound) * h)
    return max(math.ceil(min(steps, _CHECK_CAP)), 1)


def _fixed_steps(duration: float, h: float) -> tuple[int, bool]:
    """Steps of size ``h`` that cover ``duration``, and whether the last is shortened.

    Within 1e-12 of a whole number of steps, every step is a full one.
    """
    span = duration / h
    n = max(int(np.ceil(span - 1e-12)), 0)
    return n, n - span > 1e-12


def simulate(
    p: ModelParams,
    grid: Grid,
    initial: FieldState,
    t_end: float,
    dt: float | None = None,
    record_every: int = 10,
    stop_on_saturation: bool = False,
    saturation_tol: float = 1e-8,
) -> SimulationResult:
    """Integrate to ``t_end``, recording the critical-mode amplitude.

    Every path steps with :meth:`Stepper.ladder_step`: ARK3(2)4L[2]SA with
    the linear part ``D lap + A`` implicit and the quadratic ``F``
    explicit, whose embedded second-order solution gives a free local error
    estimate.

    Fixed path (``stop_on_saturation=False`` with a given ``dt``): every
    step has size ``dt``, except that the last one is shortened so that the
    run ends exactly at ``t_end``.  When ``(t_end - t0)/dt`` is within 1e-12
    of a whole number, every step is a full one and the run ends at
    ``t0 + n*dt``.  Every step is accepted, whatever its error estimate; a
    step that blows up or whose implicit factor is singular raises.

    Error-controlled path (``stop_on_saturation=False`` and ``dt=None``):
    the run is recorded at the times of the fixed path with the default
    ``dt`` (half of :func:`dt_max`), bit for bit, with steps over ``2**-k``
    record intervals, ``k`` chosen by the embedded error estimate against
    ``ARK_TOL``.  For ``k >= 0`` they are substeps of one interval; for ``k
    < 0`` one step spans ``2**-k`` whole intervals, and the records inside
    it are interpolated.  A substep whose implicit factor is singular is
    rejected as one that blows up (see :func:`_simulate_ark`).

    Saturation runs (``stop_on_saturation=True``) step on the ladder
    ``dt * 2**k``, ``k >= LADDER_FLOOR``, from rung 0.  A step whose
    estimate's max norm exceeds ``LADDER_TOL`` times the new field's, that
    blows up, or whose implicit factor is singular is rejected and retried
    one rung lower.  After a step whose estimate is below an eighth of
    that, the run climbs one rung: the estimate scales like ``dt**3``, so
    the doubled step is predicted to pass.  A rung that fails after a
    climb has exposed the step's accuracy or stability limit, not a fast
    transient: it becomes a ceiling for the rest of the run, and the steps
    already accepted on it are kept, as on the error-controlled path.  A
    rung that fails where the run started or after a rejection only moves
    the run down.  On the floor rung an over-tolerance step is accepted,
    and a blow-up or a singular factor raises.  The last step is shortened
    to end at ``t_end`` as on the fixed path.

    The run stops at a check where one Newton correction ``delta = -K^{-1}
    r`` (:meth:`Stepper.newton_correction`) has ``||delta||_inf`` at most
    ``saturation_tol`` times the field's max norm.  ``r`` is the residual
    ``D lap u + A u + F(u)`` (:meth:`Stepper.residual`) and ``K`` its
    Jacobian, so ``||delta||_inf`` is the distance to the steady state up
    to a term quadratic in it.  The first check is at the first accepted
    step; each later one comes within ``_CHECK_CAP`` accepted steps,
    sooner when the log-linear decay of the bound between the last two
    checks predicts that it reaches ``saturation_tol``
    (:func:`_steps_to_check`).  A check whose factor is singular gives no
    bound, and the run goes on.  Fixed points of the scheme are the
    semi-discrete steady states for every step size, so the ladder changes
    the time taken, not the saturated state.  Newton's correction points to
    the nearest steady state whether it attracts or not: near an unstable
    one, such as the trivial state of a slowly growing run, the bound may
    fall below the tolerance too.  Start from an aligned state of known
    projection, or keep ``saturation_tol`` well below the relative growth
    expected.  A run that decays to the trivial state does not stop early,
    because its correction stays as large as the field.

    The amplitude is recorded every ``record_every`` accepted steps and at
    the final time (every ``record_every`` steps of the default ``dt`` on
    the error-controlled path).

    The floating-point warnings of a blow-up are suppressed once per run;
    the blow-up itself raises :class:`StepUnstable`.

    Every path runs on one :class:`Stepper`, whose factored matrices the
    steps of one size share: a rung revisited, and the substeps of one
    level.

    Returns
    -------
    SimulationResult
        Final state, amplitude series, a saturation flag and step
        diagnostics.

    Raises
    ------
    ValueError
        If ``record_every`` is not positive, ``dt`` is not finite and
        positive, ``t_end`` is not finite or precedes ``initial.t``, or a
        saturation run's ``saturation_tol`` is not finite and positive.
    StepUnstable
        If a step blows up or its implicit factor is singular on the fixed
        path, on the floor rung or at the smallest substep of the
        error-controlled path; it carries the last good state.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be positive, got {record_every}")
    if not (math.isfinite(t_end) and t_end >= initial.t):
        raise ValueError(
            f"t_end must be finite and not precede initial.t = {initial.t}, got {t_end}"
        )
    if stop_on_saturation and not (math.isfinite(saturation_tol) and saturation_tol > 0.0):
        raise ValueError(
            f"saturation_tol must be finite and positive, got {saturation_tol!r}"
        )
    stepper = Stepper(p, grid, 0.5 * dt_max(p, grid) if dt is None else dt)
    with np.errstate(over="ignore", invalid="ignore"):
        if dt is None and not stop_on_saturation:
            return _simulate_ark(stepper, initial, t_end, record_every)
        return _simulate_steps(stepper, initial, t_end, record_every,
                               stop_on_saturation, saturation_tol)


def _simulate_steps(
    stepper: Stepper,
    initial: FieldState,
    t_end: float,
    record_every: int,
    adaptive: bool,
    saturation_tol: float,
) -> SimulationResult:
    """The fixed path and, when ``adaptive``, the saturation ladder of :func:`simulate`."""
    mode = critical_mode(stepper.p, stepper.grid)
    u = initial.u.copy()
    t = initial.t
    times = [t]
    ys = [mode.amplitude(u)]
    saturated = False
    accepted = rejected = 0
    sizes: set[float] = set()
    rung, ceiling, climbed = 0, math.inf, False
    # the stop's checks: how many, the step of the next one, and the
    # relative bound and time of the last one
    checks, next_check = 0, 1
    correction, t_checked = math.inf, t
    first = None  # Stepper.first_stage(u), kept across the retries of a step
    changed = True
    while True:
        if changed:
            # on one rung: t = base + count*h, n_left steps to t_end (the
            # last one shortened when short_last)
            base, count = t, 0
            h = math.ldexp(stepper.dt, rung)
            n_left, short_last = _fixed_steps(t_end - base, h)
            changed = False
        if count == n_left:
            break
        last_short = short_last and count + 1 == n_left
        step = t_end - t if last_short else h
        try:
            if first is None:
                first = stepper.first_stage(u)
            u_new, error = stepper.ladder_step(u, step, first)
            scale = float(np.abs(u_new).max())
            estimate = float(np.abs(error).max())
            if not math.isfinite(scale):
                raise StepUnstable("non-finite field values", last_state=None)
        except StepUnstable as exc:
            if not adaptive or rung == LADDER_FLOOR:
                raise StepUnstable(
                    f"{exc} in the step from t = {t}", last_state=FieldState(t=t, u=u)
                ) from None
            accept = False
        else:
            accept = not adaptive or estimate <= LADDER_TOL * scale or rung == LADDER_FLOOR
        if not accept:
            rejected += 1
            if climbed:
                ceiling = rung
            rung, climbed, changed = rung - 1, False, True
            continue
        u, first = u_new, None
        count += 1
        t = t_end if last_short else base + count * h
        accepted += 1
        sizes.add(step)
        recorded = accepted % record_every == 0 or count == n_left
        if recorded:
            times.append(t)
            ys.append(mode.amplitude(u))
        if not adaptive:
            continue
        if accepted == next_check:
            delta = stepper.newton_correction(u)
            checks += 1
            distance = math.inf if delta is None else float(np.abs(delta).max())
            bound = distance / scale if scale else distance
            if distance <= saturation_tol * scale:
                saturated, correction = True, bound
                if not recorded:
                    times.append(t)
                    ys.append(mode.amplitude(u))
                break
            next_check = accepted + _steps_to_check(
                bound, correction, t - t_checked, saturation_tol, h
            )
            correction, t_checked = bound, t
        if 8.0 * estimate <= LADDER_TOL * scale and rung + 1 < ceiling:
            rung, climbed, changed = rung + 1, True, True
    return SimulationResult(
        final_state=FieldState(t=t, u=u),
        series=AmplitudeSeries(times=np.array(times), y=np.array(ys)),
        saturated=saturated,
        steps=accepted,
        rejected=rejected,
        dt_range=(min(sizes), max(sizes)) if sizes else (math.nan, math.nan),
        residual=float(np.abs(stepper.residual(u)).max()),
        correction=correction if checks else math.nan,
        checks=checks,
    )


@functools.cache
def _hermite_basis(span: int) -> tuple[tuple[float, ...], ...]:
    """Per inner record ``s = q / span``, ``0 < q < span``, of a step over
    ``span`` record intervals: the weights ``(1 + 2s)(1 - s)**2``, ``s s (3 -
    2s)`` and ``s (1 - s)`` of :func:`_hermite_records`, then ``1 - s`` and
    ``s``."""
    return tuple(((1.0 + 2.0 * s) * (1.0 - s) ** 2, s * s * (3.0 - 2.0 * s), s * (1.0 - s),
                  1.0 - s, s) for s in (q / span for q in range(1, span)))


def _hermite_records(span: int, y0: float, y1: float, dy0: float, dy1: float) -> list[float]:
    """The cubic Hermite interpolant of ``y`` at the inner records of a step
    over ``span`` record intervals, from ``y`` and ``h y'`` at its ends: ``a
    y0 + b y1 + c ((1 - s) dy0 - s dy1)`` over the cached basis, the float
    operations of the scalar formula in its order, so each record has its
    bits.  Plain floats: up to a span of 16 NumPy's per-call cost exceeds
    the arithmetic."""
    return [a * y0 + b * y1 + c * (om * dy0 - s * dy1) for a, b, c, om, s in _hermite_basis(span)]


def _simulate_ark(
    stepper: Stepper, initial: FieldState, t_end: float, record_every: int
) -> SimulationResult:
    """The error-controlled path of :func:`simulate` (``dt = auto``, fixed horizon).

    The run is recorded at the times of the fixed path with steps
    ``dt = stepper.dt``, computed as that path computes them.  Its
    :meth:`Stepper.ladder_step` steps have level ``k``:

    - ``k >= 0``: substeps of ``length / 2**k`` of one record interval, so
      that the last one ends on the record time;
    - ``k < 0``: one step over ``2**-k`` whole record intervals.  It is
      taken where the position, in intervals, is a multiple of ``2**-k``
      and the step ends before the run's last interval, which is always
      covered by substeps.  The records inside it come from the cubic
      Hermite interpolant of ``y`` through ``y`` and ``y' =
      mode.amplitude(F + L u)`` at both ends.  ``F + L u`` at the new
      state is the sum of the next step's first stage
      (:meth:`Stepper.first_stage`), so the interpolant costs no extra
      evaluation.

    Every step reuses its first stage across its retries.  A substep whose
    error estimate exceeds ``ARK_TOL`` times the new field's max norm, a
    long step whose estimate exceeds an eighth of that, or a step that
    blows up or whose factor of ``I - gamma h L`` is singular is rejected
    and retried at ``k + 1``:
    two substeps, or one step over half the span.  After a substep whose
    estimate is below an eighth of the tolerance, ``k`` drops by one (the
    estimate scales like ``h**3``) where the position lies on the coarser
    grid; from ``k <= 0``, where the coarser step must pass the stricter
    test, the estimate must be below a 64th.  A ``k`` that fails after a
    drop has exposed the step's accuracy or stability limit rather than a
    fast transient, and is not tried again.  ``k`` starts at 0, one
    substep per record interval, and is carried from one interval to the
    next.  Substeps never fall below ``dt * 2**LADDER_FLOOR``: there an
    over-tolerance substep is accepted, and a blow-up or a singular factor
    raises :class:`StepUnstable` with the last good state.
    """
    h = stepper.dt
    mode = critical_mode(stepper.p, stepper.grid)
    n_left, short_last = _fixed_steps(t_end - initial.t, h)
    last = (n_left - 1) // record_every  # the run's last record interval
    u, t = initial.u.copy(), initial.t
    times, ys = [t], [mode.amplitude(u)]
    first = None  # Stepper.first_stage(u), kept across the retries of a step
    accepted = rejected = j = 0  # j: record intervals done
    sizes: set[float] = set()
    k, k_low, dropped = 0, -math.inf, False

    def slope(first: np.ndarray) -> float:
        """``y'``: the amplitude of ``F + L u``, the time derivative."""
        return mode.amplitude((first[1] + first[2]).reshape(-1, 3).T)

    while j <= last:
        done = j * record_every
        m = min(record_every, n_left - done)
        length = t_end - t if short_last and j == last else m * h
        k_top = m.bit_length() - 1 - LADDER_FLOOR
        k = min(max(k, k_low), k_top)
        while k < 0 and j + (1 << -k) > last:  # a long step ends before the last interval
            k += 1
        span = 1  # record intervals the accepted steps cover
        i = 0  # substeps of length / 2**k taken in this interval, k >= 0
        while i < 1 << max(k, 0):
            hs = math.ldexp(length, -k)
            if first is None:
                first = stepper.first_stage(u)
            try:
                u_new, error = stepper.ladder_step(u, hs, first)
                scale = float(np.abs(u_new).max())
                if not math.isfinite(scale):
                    raise StepUnstable("non-finite field values", last_state=None)
            except StepUnstable as exc:
                if k == k_top:
                    raise StepUnstable(
                        f"{exc} in the step from t = {t + i * hs}",
                        last_state=FieldState(t=t + i * hs, u=u),
                    ) from None
            else:
                estimate = float(np.abs(error).max())
                tol = ARK_TOL * scale
                if (8.0 * estimate if k < 0 else estimate) <= tol or k == k_top:
                    accepted += 1
                    sizes.add(hs)
                    new_first = None
                    if k < 0:
                        # records inside the step: the cubic Hermite
                        # interpolant of y from y and y' at both ends
                        span = 1 << -k
                        new_first = stepper.first_stage(u_new)
                        y0, y1 = ys[-1], mode.amplitude(u_new)
                        dy0, dy1 = hs * slope(first), hs * slope(new_first)
                        times += [initial.t + (done + q * record_every) * h
                                  for q in range(1, span)]
                        ys += _hermite_records(span, y0, y1, dy0, dy1)
                    u, first, i = u_new, new_first, i + 1
                    if k > 0:
                        if 8.0 * estimate <= tol and k > k_low and i % 2 == 0:
                            k, i, dropped = k - 1, i // 2, True
                    elif (64.0 * estimate <= tol and k > k_low
                          and (j + span) % (2 * span) == 0 and j + 3 * span <= last):
                        k, dropped = k - 1, True
                    continue
            rejected += 1
            if dropped:
                k_low, dropped = k + 1, False
            k, i = k + 1, 2 * i
        j += span
        t = t_end if short_last and j > last else initial.t + min(j * record_every, n_left) * h
        times.append(t)
        ys.append(mode.amplitude(u))
    return SimulationResult(
        final_state=FieldState(t=t, u=u),
        series=AmplitudeSeries(times=np.array(times), y=np.array(ys)),
        saturated=False,
        steps=accepted,
        rejected=rejected,
        dt_range=(min(sizes), max(sizes)) if sizes else (math.nan, math.nan),
        residual=float(np.abs(stepper.residual(u)).max()),
        correction=math.nan,
        checks=0,
    )
