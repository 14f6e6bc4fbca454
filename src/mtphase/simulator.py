"""Method-of-lines integration of the deviation-form system on a 1D grid.

The simulator is the independent oracle for everything the linear and
weakly-nonlinear analyses predict: growth rates, saturated branch
amplitudes, and jump behavior.  Fields are deviations from the uniform
steady state, so both boundary-condition variants are homogeneous.  Time
stepping is IMEX, diffusion implicit and reaction explicit, with one of two
steps.  :meth:`Stepper.advance` is second order: Crank-Nicolson diffusion
and Heun reaction with a diffusion-consistent predictor.
:meth:`Stepper.ark_step` is third order: ARK3(2)4L[2]SA (Kennedy &
Carpenter, Appl. Numer. Math. 44, 2003), ESDIRK diffusion, explicit
reaction, and an embedded second-order solution.  Fixed points of both
steps are exact steady states of the semi-discrete system for every step
size, so saturated amplitudes carry spatial discretization error only.

Each implicit solve is one LAPACK ``pbtrs`` call on the three
per-component tridiagonal systems, stacked into one block-diagonal band of
``I - c D lap``.  A :class:`Stepper` factors the band of each coefficient
``c`` once, with one ``cholesky_banded`` call, and keeps it: ``h`` and
``h/2`` for a step of size ``h``, ``gamma h`` for an ARK step.
:func:`simulate` builds one :class:`Stepper` per run, so the ladder's rung
``k`` shares its half band with rung ``k - 1``'s full band.

:func:`simulate` is the one time-stepping loop of the package;
:class:`Stepper` takes single steps.  It has three paths:

- fixed steps of a given size ``dt`` (:meth:`Stepper.advance`), which every
  verification criterion uses and whose temporal order criterion 11
  measures;
- for fixed-horizon runs with ``dt = auto`` (``dt=None``), an
  error-controlled path of :meth:`Stepper.ark_step` substeps of
  ``1/2**k`` of each record interval, ``k >= 0``, so that the run lands
  on the fixed path's record times (:func:`_simulate_ark`);
- for saturation runs, an error-controlled ladder ``dt * 2**k`` that uses
  the IMEX Euler predictor and the corrector as an embedded 1(2) pair
  (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995; the controller
  follows Söderlind, ACM TOMS 29, 2003) and stops on the semi-discrete
  residual.

A blow-up raises :class:`StepUnstable` carrying the last good state.

Up to a few hundred grid points a step costs what its NumPy and LAPACK
calls cost, not what they compute, so :meth:`Stepper.advance` makes few of
them: about 30 per step, 40 with the mean projection, where it made about
75.  Its parts:

- reaction ``A u + F(u)``: :func:`~mtphase.model.deviation_reaction`, two
  small matmuls around one product of equal-shaped blocks (``F`` is
  quadratic and each of its terms carries ``u3``);
- diffusion ``D lap u``: the flux differences of :func:`laplacian_apply`,
  all three rows differenced as one flat array, times ``D`` held as a full
  (3, N) array;
- mean projection (zero-average Neumann): ``sum(axis=1) / N``, which
  rounds as ``ndarray.mean`` does, on the two reaction terms and the new
  state;
- each half-step: one ``pbtrs`` solve of the stacked band.  A non-finite
  value anywhere in the step reaches the new state, which is checked once.

README "Performance" has the measured cost of both steps and of
``mtphase simulate`` before and after this layout and the ``dt = auto``
path.

``import mtphase`` loads NumPy and no SciPy module.  ``scipy.linalg`` is
imported when the first :class:`Stepper` is built, which fetches
``cholesky_banded`` and the ``pbtrs`` wrapper once through
:func:`_banded_lapack`, so only the commands that step (``mtphase
simulate`` and ``mtphase verify``) pay for that import, about 0.25 s.

Amplitudes are biorthogonal projections onto the critical mode, built from
the closed-form eigenpair of :mod:`mtphase.spectral`; the simulator uses
nothing of the threshold or transition analyses it is checking.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridTooCoarse, StepUnstable
from .model import (
    BoundaryCondition,
    ModelParams,
    deviation_reaction,
    linearization_matrix,
    reaction_matrices,
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

MIN_GRID_POINTS = 16
#: step ladder of saturation runs: a step is rejected when its local error
#: estimate ||corrector - predictor||_inf exceeds this times ||u||_inf
LADDER_TOL = 1e-3
#: lowest rung of the ladder: steps never fall below dt * 2**LADDER_FLOOR
LADDER_FLOOR = -10
#: the saturation stop measures the residual's decay over this many steps,
#: after as many more on the same rung
_STOP_WINDOW = 10
#: error-controlled path of fixed-horizon ``dt = auto`` runs: a substep is
#: rejected and retried as two halves when the max norm of its error
#: estimate (third-order step minus the embedded second-order solution)
#: exceeds this times the new field's max norm
ARK_TOL = 1e-5

# ARK3(2)4L[2]SA (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003), the
# published rationals.  Rows of the explicit (reaction) stage matrix and
# strictly lower rows of the implicit (diffusion) one, whose diagonal is
# (0, gamma, gamma, gamma); the third-order weights and the embedded
# second-order ones.
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


def _ark_weights() -> np.ndarray:
    """The tableau as one (5, 8) matrix acting on the stage derivatives.

    The columns follow the rows of :meth:`Stepper.ark_step`'s buffer: the
    reaction and diffusion terms of stage 1, then of stage 2, and so on.
    Rows 0-2 form the right-hand sides of stages 2-4 (their unused columns
    are zero), row 3 the step's increment and row 4 its error estimate
    ``b - b_hat``.
    """
    error = [b - b_hat for b, b_hat in zip(ARK_B, ARK_B_HAT)]
    rows = [*zip(ARK_EXPLICIT[1:], ARK_IMPLICIT[1:]), (ARK_B, ARK_B), (error, error)]
    out = np.zeros((5, 8))
    for r, (explicit, implicit) in enumerate(rows):
        out[r, 0 : 2 * len(explicit) : 2] = [float(a) for a in explicit]
        out[r, 1 : 2 * len(implicit) : 2] = [float(a) for a in implicit]
    return out


_ARK_WEIGHTS = _ark_weights()
_ARK_GAMMA = float(ARK_GAMMA)


@functools.cache
def _banded_lapack():
    """SciPy's ``cholesky_banded`` and float64 LAPACK ``pbtrs`` wrapper.

    ``scipy.linalg`` is imported on the first call, when the first
    :class:`Stepper` is built, so that ``import mtphase`` loads no SciPy
    module.
    """
    from scipy.linalg import cholesky_banded, get_lapack_funcs

    (pbtrs,) = get_lapack_funcs(("pbtrs",), (np.empty(0),))
    return cholesky_banded, pbtrs


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
    """Default step-size bound for the IMEX scheme.

    ``min(2.5*dx^2/max(d), 0.1/||A||_inf)``: the diffusion part is implicit
    (the explicit parabolic bound enters only through accuracy, relaxed
    tenfold), while the explicit reaction part limits the step through the
    linearization magnitude.
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
    ``residual`` is ``||D lap u + A u + F(u)||_inf`` at the final state,
    mean-projected with the reaction term; it vanishes exactly at a steady
    state.
    """

    final_state: FieldState
    series: AmplitudeSeries
    saturated: bool
    steps: int
    rejected: int
    dt_range: tuple[float, float]
    residual: float


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


def _stacked_band(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Upper band of the block-diagonal Cholesky factor, one block per coefficient.

    Block ``i`` factors ``I - coeffs[i] * Laplacian``.  The superdiagonal
    entries that would couple the last row of one block to the first row of
    the next are zero, so one ``cholesky_banded`` call on the (2, 3N) band
    gives each block's factor bit for bit, and one ``pbtrs`` solve of the
    stacked (3N,) right-hand side performs the per-component solves with
    the same arithmetic.  The band is Fortran-ordered so that ``pbtrs``
    takes it without a copy on every call.
    """
    scaled = coeffs[:, None] * (1.0 / grid.dx**2)
    ab = np.empty((2, len(coeffs), grid.N))
    ab[1] = 1.0 + 2.0 * scaled
    ab[0] = -scaled
    ab[0, :, 0] = 0.0
    if grid.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        ab[1][:, [0, -1]] = 1.0 + scaled
    cholesky_banded, _ = _banded_lapack()
    return np.asfortranarray(cholesky_banded(ab.reshape(2, -1)))


class Stepper:
    """IMEX integrator for one (parameters, grid) pair, with a default step ``dt``.

    Predictor: ``(I - dt*L) u~ = u + dt*R(u)`` (implicit Euler diffusion,
    explicit Euler reaction).  Corrector: ``(I - dt/2*L) u' =
    (I + dt/2*L) u + dt/2*(R(u) + R(u~))`` (Crank-Nicolson / Heun).  ``L``
    is the per-component diffusion operator and ``R`` the reaction part in
    deviation form, ``R(u) = A u + F(u)``, which vanishes identically at
    zero.

    Parameters
    ----------
    p : ModelParams
    grid : Grid
    dt : float
        Default time step of :meth:`advance` and :meth:`step_array` (see
        :func:`dt_max` for the default rule).
    linear_only : bool, optional
        Drop the quadratic nonlinearity (linearized dynamics), used by
        growth-rate oracles.

    Raises
    ------
    ValueError
        If ``dt`` is not finite and positive.

    Under zero-average Neumann conditions the spatial mean is projected out
    of the reaction term and the state (``project`` is True).
    """

    def __init__(self, p: ModelParams, grid: Grid, dt: float, linear_only: bool = False) -> None:
        self.dt = float(dt)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        self.p = p
        self.grid = grid
        self.linear_only = linear_only
        self.project = p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE
        self._gather, self._combine = reaction_matrices(p)
        if linear_only:
            self._gather[3:6] = 0.0
        self._d = np.array((p.d1, p.d2, p.d3))
        self._diffusion = self._d[:, None].repeat(grid.N, axis=1)
        self._bands: dict[float, np.ndarray] = {}
        _, self._pbtrs = _banded_lapack()

    def _band(self, c: float) -> np.ndarray:
        """The stacked factor of ``I - c D lap``, factored once per ``c``."""
        band = self._bands.get(c)
        if band is None:
            band = self._bands[c] = _stacked_band(self.grid, c * self._d)
        return band

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """Reaction part ``A u + F(u)`` (mean-projected when enabled)."""
        out = deviation_reaction(self._gather, self._combine, u)
        if self.project:
            _remove_mean(out)
        return out

    def _solve(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the three diffusion systems at once; ``rhs`` is overwritten.

        A non-finite ``rhs`` gives a non-finite solution, which
        :meth:`advance` rejects.
        """
        x, info = self._pbtrs(band, rhs.reshape(-1), overwrite_b=1)
        if info != 0:
            raise ValueError(f"pbtrs returned info = {info}")
        return x.reshape(rhs.shape)

    def _diffusion_term(self, u: np.ndarray) -> np.ndarray:
        """``D lap u``, with ``D`` held as a full (3, N) array so that the
        product has no broadcast."""
        return self._diffusion * laplacian_apply(self.grid, u)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Semi-discrete residual ``D lap u + R(u)``, the time derivative at ``u``.

        It vanishes exactly at the steady states of the semi-discrete system
        and is mean-projected whenever the reaction term is.
        """
        return self._diffusion_term(u) + self.reaction(u)

    def advance(
        self, u: np.ndarray, h: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step of size ``h`` (default ``dt``): ``(new state, predictor, residual)``.

        The predictor is the first-order IMEX Euler state; the new state is
        the second-order corrector, so ``new state - predictor`` estimates
        the local error of the first-order method at no extra cost.  The
        residual is :meth:`residual` at ``u``, already formed for the
        corrector's right-hand side.

        Raises
        ------
        StepUnstable
            As :meth:`step_array`.
        """
        if h is None:
            h = self.dt
        with np.errstate(over="ignore", invalid="ignore"):
            r0 = self.reaction(u)
            predictor = self._solve(self._band(h), u + h * r0)
            residual = self._diffusion_term(u) + r0
            r1 = self.reaction(predictor)
            out = self._solve(self._band(0.5 * h), u + 0.5 * h * (residual + r1))
        if self.project:
            _remove_mean(out)
        if not np.isfinite(out).all():
            raise StepUnstable("non-finite field values", last_state=None)
        return out, predictor, residual

    def step_array(self, u: np.ndarray) -> np.ndarray:
        """Advance a raw (3, N) array by one step (no bookkeeping).

        Raises
        ------
        StepUnstable
            If the new state is not finite: the quadratic reaction can blow
            up in finite time when the state leaves the stable region, and
            a non-finite value anywhere in the step reaches the new state.
            ``last_state`` is None; :func:`simulate` attaches it.
        """
        return self.advance(u)[0]

    def ark_step(self, u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """One ARK3(2)4L[2]SA step of size ``h``: ``(new state, error estimate)``.

        Reaction explicit, diffusion implicit (ESDIRK, L-stable, stiffly
        accurate).  The three implicit stages solve ``(I - gamma h D lap) U_i
        = rhs_i`` with the stacked band of ``gamma h``, factored on first
        use; ``D lap U_i`` is then ``(U_i - rhs_i) / (gamma h)``, so the
        step applies the Laplacian only to ``u``.  The error estimate is the
        difference from the embedded second-order solution, at no extra
        cost; its max norm is what :func:`simulate` compares with
        ``ARK_TOL``.  A blow-up gives non-finite values and is left to the
        caller, as are the floating-point warnings it would raise.
        """
        gamma_h = _ARK_GAMMA * h
        band = self._band(gamma_h)
        weights = h * _ARK_WEIGHTS
        inv_gamma_h = 1.0 / gamma_h
        flat = u.reshape(-1)
        terms = np.empty((8, flat.size))  # reaction, diffusion of each stage
        terms[0] = self.reaction(u).reshape(-1)
        terms[1] = self._diffusion_term(u).reshape(-1)
        for i in (1, 2, 3):
            rhs = flat + weights[i - 1, : 2 * i] @ terms[: 2 * i]
            stage, info = self._pbtrs(band, rhs)
            if info != 0:
                raise ValueError(f"pbtrs returned info = {info}")
            np.subtract(stage, rhs, out=terms[2 * i + 1])
            terms[2 * i + 1] *= inv_gamma_h
            terms[2 * i] = self.reaction(stage.reshape(u.shape)).reshape(-1)
        increment, error = weights[3:] @ terms
        out = (flat + increment).reshape(u.shape)
        if self.project:
            _remove_mean(out)
        return out, error


@dataclass(frozen=True)
class CriticalMode:
    """The critical mode ``omega * e1(x)`` on a grid, and its amplitude.

    Built by :func:`critical_mode`; the mode vectors are evaluated once, so
    :meth:`amplitude` is cheap to call along a trajectory.
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

    @property
    def max_norm(self) -> float:
        """``||omega * e1||_inf``, the field size of a unit amplitude."""
        return float(np.abs(self.omega).max() * np.abs(self.e1).max())


def critical_mode(p: ModelParams, grid: Grid) -> CriticalMode:
    """The critical mode of ``p`` sampled on ``grid``."""
    omega, omega_star, _ = principal_mode_vectors(p)
    e1 = laplacian_mode(p, 1).evaluate(grid.x)
    denominator = float(e1 @ e1) * float(omega @ omega_star)
    return CriticalMode(omega, omega_star, e1, denominator)


def _decay_distance(norms: deque, dt: float) -> float:
    """Distance to the steady state estimated from a decaying norm, or ``inf``.

    ``norms`` holds one norm of the residual ``D lap u + R(u)`` at up to
    ``2*_STOP_WINDOW + 1`` consecutive states one step ``dt`` apart.  Near a
    stable steady state the residual decays like ``exp(-lam*t)`` and the
    distance is about ``norm/lam``.  The rate ``lam`` comes from the second
    half of the window only: the first half lets faster components decay,
    and a sum of decaying exponentials decays ever more slowly, so the
    later rate is the slower one.  A zero norm gives 0; a window that is
    not full, or a norm that does not decay over the second half, gives
    ``inf``.
    """
    w = _STOP_WINDOW
    last = norms[-1]
    if last == 0.0:
        return 0.0
    if len(norms) <= 2 * w or not last < norms[w]:
        return math.inf
    return last * (w * dt) / math.log(norms[w] / last)


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

    Fixed path (``stop_on_saturation=False`` with a given ``dt``): every
    step has size ``dt``, except that the last one is shortened so that the
    run ends exactly at ``t_end``.  When ``(t_end - t0)/dt`` is within 1e-12
    of a whole number, every step is a full one and the run ends at
    ``t0 + n*dt``.

    Error-controlled path (``stop_on_saturation=False`` and ``dt=None``):
    the run is recorded at the times of the fixed path with the default
    ``dt`` (half of :func:`dt_max`), bit for bit, and each record interval
    is covered by third-order IMEX Runge-Kutta substeps of ``1/2**k`` of
    it, with ``k >= 0`` chosen by the embedded error estimate against
    ``ARK_TOL`` (see :func:`_simulate_ark`).

    Saturation runs (``stop_on_saturation=True``) step on the ladder
    ``dt * 2**k``, ``k >= LADDER_FLOOR``, from rung 0.  The predictor (IMEX
    Euler) and the corrector form an embedded 1(2) pair, so
    ``||corrector - predictor||_inf`` is a free local error estimate.  A
    step whose estimate exceeds ``LADDER_TOL``
    times the new field's max norm, or that blows up, is rejected and
    retried one rung lower.  After a step whose estimate is below an eighth
    of that, the run climbs one rung: the estimate scales like ``dt**2``,
    so the doubled step is predicted to pass with a factor of two to spare.
    A rung that fails after a climb has exposed the scheme's stability
    edge, not a fast transient: it becomes a ceiling for the rest of the
    run, and the steps already accepted on it are kept, as on the
    error-controlled path.  A rung that fails where the run started or
    after a rejection only moves the run down.  On the floor rung an
    over-tolerance step is accepted and a blow-up raises.  The last step is
    shortened to end at ``t_end`` as on the fixed path.

    The run stops once the estimated max-norm distance to the steady state
    is at most ``saturation_tol`` times the field's max norm.  The estimate
    divides the residual ``||D lap u + A u + F(u)||_inf`` (mean-projected
    with the reaction term) by its decay rate over the last
    ``_STOP_WINDOW`` steps, once the run has spent ``2 * _STOP_WINDOW``
    steps on one rung.  The critical-mode part of the
    residual, which is the slowest part near a threshold and can hide under
    faster decaying parts, gives a second estimate, and the larger one
    counts.  Fixed points of the scheme are the semi-discrete steady states
    for every step size, so the ladder changes the time taken, not the
    saturated state.  Near an unstable steady state, such as the trivial
    state of a slowly growing run, the residual may decay for a while too:
    start from an aligned state of known projection, or keep
    ``saturation_tol`` well below the relative growth expected.  A run that
    decays to the trivial state does not stop early, because the relative
    distance does not shrink.

    The amplitude is recorded every ``record_every`` accepted steps and at
    the final time (every ``record_every`` steps of the default ``dt`` on
    the error-controlled path).

    Every path runs on one :class:`Stepper`, whose factored bands the
    ladder's rungs, the shortened last step and the ARK substeps share.

    Returns
    -------
    SimulationResult
        Final state, amplitude series, a saturation flag and step
        diagnostics.

    Raises
    ------
    ValueError
        If ``record_every`` is not positive, ``dt`` is not finite and
        positive, or ``t_end`` is not finite or precedes ``initial.t``.
    StepUnstable
        If a step blows up on the fixed path, on the floor rung or at the
        smallest substep of the error-controlled path; it carries the last
        good state.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be positive, got {record_every}")
    if not (math.isfinite(t_end) and t_end >= initial.t):
        raise ValueError(
            f"t_end must be finite and not precede initial.t = {initial.t}, got {t_end}"
        )
    stepper = Stepper(p, grid, 0.5 * dt_max(p, grid) if dt is None else dt)
    if dt is None and not stop_on_saturation:
        return _simulate_ark(stepper, initial, t_end, record_every)
    adaptive = stop_on_saturation
    mode = critical_mode(p, grid)
    u = initial.u.copy()
    t = initial.t
    times = [t]
    ys = [mode.amplitude(u)]
    saturated = False
    accepted = rejected = 0
    sizes: set[float] = set()
    rung, ceiling, climbed = 0, math.inf, False
    # On one rung: t = base + count*h, n_left steps to t_end (the last one
    # shortened when short_last), and residual norms for the stop.
    residuals: deque[float] = deque(maxlen=2 * _STOP_WINDOW + 1)
    critical: deque[float] = deque(maxlen=2 * _STOP_WINDOW + 1)
    changed = True
    while True:
        if changed:
            base, count = t, 0
            h = math.ldexp(stepper.dt, rung)
            n_left, short_last = _fixed_steps(t_end - base, h)
            residuals.clear()
            critical.clear()
            changed = False
        if count == n_left:
            break
        last_short = short_last and count + 1 == n_left
        step = t_end - t if last_short else h
        try:
            u_new, predictor, residual = stepper.advance(u, step)
        except StepUnstable as exc:
            if not adaptive or rung == LADDER_FLOOR:
                raise StepUnstable(
                    f"{exc} in the step from t = {t}", last_state=FieldState(t=t, u=u)
                ) from None
            accept = False
        else:
            accept = True
            if adaptive:
                scale = float(np.abs(u_new).max())
                error = float(np.abs(u_new - predictor).max())
                accept = error <= LADDER_TOL * scale or rung == LADDER_FLOOR
        if not accept:
            rejected += 1
            if climbed:
                ceiling = rung
            rung, climbed, changed = rung - 1, False, True
            continue
        u = u_new
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
        residuals.append(float(np.abs(residual).max()))
        critical.append(abs(mode.amplitude(residual)))
        distance = max(
            _decay_distance(residuals, h), _decay_distance(critical, h) * mode.max_norm
        )
        if distance <= saturation_tol * scale:
            saturated = True
            if not recorded:
                times.append(t)
                ys.append(mode.amplitude(u))
            break
        if 8.0 * error <= LADDER_TOL * scale and rung + 1 < ceiling:
            rung, climbed, changed = rung + 1, True, True
    return SimulationResult(
        final_state=FieldState(t=t, u=u),
        series=AmplitudeSeries(times=np.array(times), y=np.array(ys)),
        saturated=saturated,
        steps=accepted,
        rejected=rejected,
        dt_range=(min(sizes), max(sizes)) if sizes else (math.nan, math.nan),
        residual=float(np.abs(stepper.residual(u)).max()),
    )


def _simulate_ark(
    stepper: Stepper, initial: FieldState, t_end: float, record_every: int
) -> SimulationResult:
    """The error-controlled path of :func:`simulate` (``dt = auto``, fixed horizon).

    The run is recorded at the times of the fixed path with steps
    ``dt = stepper.dt``, computed as that path computes them, and each
    record interval is covered by :meth:`Stepper.ark_step` substeps of
    ``length / 2**k``, so the last one ends on the record time.  A substep whose error estimate
    exceeds ``ARK_TOL`` times the new field's max norm, or that blows up, is
    rejected and retried as two substeps at ``k + 1``.  After a substep
    whose estimate is below an eighth of that, ``k`` drops by one (the
    estimate scales like ``h**3``) where the position in the interval lies
    on the coarser grid.  A ``k`` that fails after a drop has exposed the
    explicit stability edge rather than a fast transient, and is not tried
    again.  ``k`` starts at 0, one substep per record interval, and is
    carried from one interval to the next.  Substeps never fall below
    ``dt * 2**LADDER_FLOOR``: there an over-tolerance substep is accepted and
    a blow-up raises.
    """
    h = stepper.dt
    mode = critical_mode(stepper.p, stepper.grid)
    n_left, short_last = _fixed_steps(t_end - initial.t, h)
    u, t = initial.u.copy(), initial.t
    times, ys = [t], [mode.amplitude(u)]
    accepted = rejected = done = 0
    sizes: set[float] = set()
    k, k_low, dropped = 0, 0, False
    while done < n_left:
        m = min(record_every, n_left - done)
        done += m
        if short_last and done == n_left:
            end = t_end
            length = t_end - t
        else:
            end = initial.t + done * h
            length = m * h
        k_top = m.bit_length() - 1 - LADDER_FLOOR
        k = min(max(k, k_low), k_top)
        i = 0  # substeps of length / 2**k taken in this interval
        with np.errstate(over="ignore", invalid="ignore"):
            while i < 1 << k:
                hs = math.ldexp(length, -k)
                u_new, error = stepper.ark_step(u, hs)
                scale = float(np.abs(u_new).max())
                estimate = float(np.abs(error).max())
                if not math.isfinite(scale):
                    if k == k_top:
                        raise StepUnstable(
                            f"non-finite field values in the step from t = {t + i * hs}",
                            last_state=FieldState(t=t + i * hs, u=u),
                        )
                elif estimate <= ARK_TOL * scale or k == k_top:
                    u, i = u_new, i + 1
                    accepted += 1
                    sizes.add(hs)
                    if 8.0 * estimate <= ARK_TOL * scale and k > k_low and i % 2 == 0:
                        k, i, dropped = k - 1, i // 2, True
                    continue
                rejected += 1
                if dropped:
                    k_low, dropped = k + 1, False
                k, i = k + 1, 2 * i
        t = end
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
    )
