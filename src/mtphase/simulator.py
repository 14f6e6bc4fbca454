"""Method-of-lines integration of the deviation-form system on a 1D grid.

The simulator is the independent oracle for everything the linear and
weakly-nonlinear analyses predict: growth rates, saturated branch
amplitudes, and jump behavior.  Fields are deviations from the uniform
steady state, so both boundary-condition variants are homogeneous.  Time
stepping is IMEX: diffusion implicit (Crank-Nicolson; the three tridiagonal
per-component Cholesky factors are prefactored once and stacked into one
block-diagonal band, so each half-step is a single LAPACK ``pbtrs`` solve)
and reaction explicit (second-order Heun with a diffusion-consistent
predictor).  Fixed points of the scheme are exact steady states of the
semi-discrete system for every step size, so saturated amplitudes carry
spatial discretization error only.

:func:`simulate` has two paths: fixed steps of size ``dt``, and for
saturation runs an error-controlled ladder ``dt * 2**k`` that uses the
IMEX Euler predictor and the corrector as an embedded 1(2) pair (Ascher,
Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995; the controller follows
Söderlind, ACM TOMS 29, 2003) and stops on the semi-discrete residual.

Amplitudes are biorthogonal projections onto the critical mode, built from
the closed-form eigenpair of :mod:`mtphase.spectral`; the simulator uses
nothing of the threshold or transition analyses it is checking.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .errors import GridTooCoarse, InsufficientData, StepUnstable
from .model import (
    BoundaryCondition,
    ModelParams,
    linearization_matrix,
    quadratic_nonlinearity,
    steady_state,
)
from .spectral import laplacian_mode, principal_mode_vectors

__all__ = [
    "Grid",
    "FieldState",
    "AmplitudeSeries",
    "SimulationResult",
    "AmplitudeFit",
    "MIN_GRID_POINTS",
    "LADDER_TOL",
    "LADDER_FLOOR",
    "make_grid",
    "laplacian_apply",
    "dt_max",
    "initial_state",
    "Stepper",
    "CriticalMode",
    "critical_mode",
    "amplitude",
    "simulate",
    "fit_amplitude_dynamics",
]

MIN_GRID_POINTS = 16
#: zero-mean projection keeps |mean(u_i)| at or below this at recorded times
MEAN_TOL = 1e-12
#: step ladder of saturation runs: a step is rejected when its local error
#: estimate ||corrector - predictor||_inf exceeds this times ||u||_inf
LADDER_TOL = 1e-3
#: lowest rung of the ladder: steps never fall below dt * 2**LADDER_FLOOR
LADDER_FLOOR = -10
#: the saturation stop measures the residual's decay over this many steps,
#: after as many more on the same rung
_STOP_WINDOW = 10

(_pbtrs,) = get_lapack_funcs(("pbtrs",), (np.empty(0),))


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
    """
    u = np.asarray(u)
    out = np.empty_like(u)
    out[..., 1:-1] = u[..., :-2] - 2.0 * u[..., 1:-1] + u[..., 2:]
    if grid.bc is BoundaryCondition.DIRICHLET:
        out[..., 0] = -2.0 * u[..., 0] + u[..., 1]
        out[..., -1] = u[..., -2] - 2.0 * u[..., -1]
    else:
        out[..., 0] = -u[..., 0] + u[..., 1]
        out[..., -1] = u[..., -2] - u[..., -1]
    out /= grid.dx**2
    return out


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
    ``rejected`` the steps the ladder threw away: each rejected step and
    each step undone with a failed rung.  ``dt_range`` is the smallest and
    largest of the accepted steps (NaN when no step was taken).  ``residual`` is
    ``||D lap u + A u + F(u)||_inf`` at the final state, mean-projected
    with the reaction term; it vanishes exactly at a steady state.
    """

    final_state: FieldState
    series: AmplitudeSeries
    saturated: bool
    steps: int
    rejected: int
    dt_range: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class AmplitudeFit:
    """Least-squares fit of dy/dt = sigma*y + coefficient*y^k.

    ``poor_fit`` flags R^2 < 0.99; the numbers are still returned.
    """

    sigma: float
    coefficient: float
    r_squared: float
    poor_fit: bool
    nonlinearity: str


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
        omega, _, _ = principal_mode_vectors(p)
        e1 = laplacian_mode(p, 1).evaluate(grid.x)
        u = amplitude * omega[:, None] * e1[None, :]
    else:
        raise ValueError(f"unknown initial-state kind {kind!r}")
    if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        u = u - u.mean(axis=1, keepdims=True)
    return FieldState(t=0.0, u=u)


def _banded_cholesky(grid: Grid, coeff: float) -> np.ndarray:
    """Cholesky factor (upper banded form) of ``I - coeff * Laplacian``."""
    n = grid.N
    inv_dx2 = 1.0 / grid.dx**2
    ab = np.zeros((2, n))
    ab[1, :] = 1.0 + 2.0 * coeff * inv_dx2
    ab[0, 1:] = -coeff * inv_dx2
    if grid.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        ab[1, 0] = 1.0 + coeff * inv_dx2
        ab[1, -1] = 1.0 + coeff * inv_dx2
    return cholesky_banded(ab)


def _stacked_band(grid: Grid, coeffs) -> np.ndarray:
    """Upper band of the block-diagonal Cholesky factor, one block per coefficient.

    Each block is :func:`_banded_cholesky` of ``I - coeff * Laplacian``.  The
    superdiagonal entry that would couple the last row of one block to the
    first row of the next is zeroed, so one ``pbtrs`` solve of the stacked
    (3N,) right-hand side performs the per-component solves with the same
    arithmetic.  The band is Fortran-ordered so that ``pbtrs`` takes it
    without a copy on every call.
    """
    ab = np.asfortranarray(
        np.concatenate([_banded_cholesky(grid, c) for c in coeffs], axis=1)
    )
    ab[0, grid.N :: grid.N] = 0.0
    return ab


class Stepper:
    """Prefactored IMEX integrator for one (parameters, grid, dt) triple.

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
        Time step (see :func:`dt_max` for the default rule).
    linear_only : bool, optional
        Drop the quadratic nonlinearity (linearized dynamics), used by
        growth-rate oracles.
    project : bool, optional
        Project the spatial mean out of the reaction term and the state
        (zero-average Neumann only).  Defaults to True for zero-average
        Neumann runs and False for Dirichlet.
    """

    def __init__(
        self,
        p: ModelParams,
        grid: Grid,
        dt: float,
        linear_only: bool = False,
        project: bool | None = None,
    ) -> None:
        self.p = p
        self.grid = grid
        self.dt = float(dt)
        self.linear_only = linear_only
        if project is None:
            project = p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE
        if project and p.bc is not BoundaryCondition.NEUMANN_ZERO_AVERAGE:
            raise ValueError("mean projection only applies to zero-average Neumann runs")
        self.project = project
        self._A = linearization_matrix(p)
        d = (p.d1, p.d2, p.d3)
        self._full = _stacked_band(grid, [self.dt * di for di in d])
        self._half = _stacked_band(grid, [0.5 * self.dt * di for di in d])
        self._d = np.array(d)

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """Reaction part ``A u + F(u)`` (mean-projected when enabled)."""
        out = self._A @ u
        if not self.linear_only:
            out += quadratic_nonlinearity(self.p, u)
        if self.project:
            out -= out.mean(axis=1, keepdims=True)
        return out

    def _solve(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the three diffusion systems at once; ``rhs`` is overwritten.

        Raises
        ------
        StepUnstable
            If ``rhs`` is not finite.
        """
        if not np.isfinite(rhs).all():
            raise StepUnstable("non-finite solve input", last_state=None)
        x, info = _pbtrs(band, rhs.reshape(-1), overwrite_b=1)
        if info != 0:
            raise ValueError(f"pbtrs returned info = {info}")
        return x.reshape(rhs.shape)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Semi-discrete residual ``D lap u + R(u)``, the time derivative at ``u``.

        It vanishes exactly at the steady states of the semi-discrete system
        and is mean-projected whenever the reaction term is.
        """
        return self._d[:, None] * laplacian_apply(self.grid, u) + self.reaction(u)

    def advance(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step with its by-products: ``(new state, predictor, residual)``.

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
        dt = self.dt
        with np.errstate(over="ignore", invalid="ignore"):
            r0 = self.reaction(u)
            predictor = self._solve(self._full, u + dt * r0)
            lap_u = self._d[:, None] * laplacian_apply(self.grid, u)
            residual = lap_u + r0
            r1 = self.reaction(predictor)
            rhs = u + 0.5 * dt * (residual + r1)
            out = self._solve(self._half, rhs)
        if self.project:
            out -= out.mean(axis=1, keepdims=True)
        if not np.isfinite(out).all():
            raise StepUnstable("non-finite field values", last_state=None)
        return out, predictor, residual

    def step_array(self, u: np.ndarray) -> np.ndarray:
        """Advance a raw (3, N) array by one step (no bookkeeping).

        Raises
        ------
        StepUnstable
            If a solve input or the new state is not finite (the quadratic
            reaction can blow up in finite time when the state leaves the
            stable region).  ``last_state`` is None; :meth:`step` and
            :func:`simulate` attach it.
        """
        return self.advance(u)[0]

    def step(self, state: FieldState) -> FieldState:
        """Advance one step, checking for numerical blow-up.

        Raises
        ------
        StepUnstable
            As :meth:`step_array`; the exception carries the last good
            state.
        """
        try:
            u_new = self.step_array(state.u)
        except StepUnstable as exc:
            raise _unstable_at(exc, state) from None
        return FieldState(t=state.t + self.dt, u=u_new)


def _unstable_at(exc: StepUnstable, state: FieldState) -> StepUnstable:
    """A copy of ``exc`` that carries the last good state."""
    return StepUnstable(f"{exc} in the step from t = {state.t}", last_state=state)


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


def amplitude(p: ModelParams, grid: Grid, u: np.ndarray) -> float:
    """Critical-mode amplitude of one (3, N) deviation field."""
    return critical_mode(p, grid).amplitude(u)


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

    Fixed path (``stop_on_saturation=False``): every step has size ``dt``,
    except that the last one is shortened so that the run ends exactly at
    ``t_end``.  When ``(t_end - t0)/dt`` is within 1e-12 of a whole number,
    every step is a full one and the run ends at ``t0 + n*dt``.

    Saturation runs (``stop_on_saturation=True``) step on the ladder
    ``dt * 2**k``, ``k >= LADDER_FLOOR``, from rung 0, with one
    :class:`Stepper` per rung.  The predictor (IMEX Euler) and the corrector
    form an embedded 1(2) pair, so ``||corrector - predictor||_inf`` is a
    free local error estimate.  A step whose estimate exceeds ``LADDER_TOL``
    times the new field's max norm, or that blows up, is rejected and
    retried one rung lower.  After a step whose estimate is below an eighth
    of that, the run climbs one rung: the estimate scales like ``dt**2``,
    so the doubled step is predicted to pass with a factor of two to spare.
    A rung that fails after a climb has exposed the scheme's stability
    edge, not a fast transient: it becomes a ceiling for the rest of the
    run, and every step taken on it is undone, because an unstable mode
    can grow over many accepted steps before the estimate sees it.  A rung
    that fails where the run started or after a rejection only moves the
    run down.  On the floor rung an over-tolerance step is accepted and a
    blow-up raises.  The last step is shortened to end at ``t_end`` as on
    the fixed path.

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
    the final time.

    Returns
    -------
    SimulationResult
        Final state, amplitude series, a saturation flag and step
        diagnostics.

    Raises
    ------
    StepUnstable
        If a step blows up on the fixed path or on the floor rung; it
        carries the last good state.
    """
    if dt is None:
        dt = 0.5 * dt_max(p, grid)
    adaptive = stop_on_saturation
    ladder: dict[int, Stepper] = {}

    def rung_stepper(k: int) -> Stepper:
        if k not in ladder:
            ladder[k] = Stepper(p, grid, math.ldexp(dt, k))
        return ladder[k]

    mode = critical_mode(p, grid)
    u = initial.u.copy()
    t = initial.t
    times = [t]
    ys = [mode.amplitude(u)]
    saturated = False
    accepted = rejected = 0
    used: Counter[float] = Counter()  # accepted steps per step size
    rung, ceiling, climbed = 0, math.inf, False
    # On one rung: t = base + count*h from the state u0 held at base, n_left
    # steps to t_end (the last one shortened when short_last), and residual
    # norms for the stop.
    residuals: deque[float] = deque(maxlen=2 * _STOP_WINDOW + 1)
    critical: deque[float] = deque(maxlen=2 * _STOP_WINDOW + 1)
    changed = True
    while True:
        if changed:
            base, count, u0, recorded_at_base = t, 0, u, len(times)
            h = rung_stepper(rung).dt
            span = (t_end - base) / h
            n_left = max(int(np.ceil(span - 1e-12)), 0)
            short_last = n_left - span > 1e-12
            residuals.clear()
            critical.clear()
            changed = False
        if count == n_left:
            break
        last_short = short_last and count + 1 == n_left
        if last_short:
            stepper = Stepper(p, grid, t_end - t)
        else:
            stepper = rung_stepper(rung)
        try:
            u_new, predictor, residual = stepper.advance(u)
        except StepUnstable as exc:
            if not adaptive or rung == LADDER_FLOOR:
                raise _unstable_at(exc, FieldState(t=t, u=u)) from None
            accept = False
        else:
            if adaptive:
                scale = float(np.abs(u_new).max())
                error = float(np.abs(u_new - predictor).max())
            accept = not adaptive or error <= LADDER_TOL * scale or rung == LADDER_FLOOR
        if not accept:
            rejected += 1
            if climbed:
                # undo every step on the failed rung
                ceiling = rung
                accepted -= count
                rejected += count
                used[h] -= count
                t, u = base, u0
                del times[recorded_at_base:], ys[recorded_at_base:]
            rung, climbed, changed = rung - 1, False, True
            continue
        u = u_new
        count += 1
        t = t_end if last_short else base + count * h
        accepted += 1
        used[stepper.dt] += 1
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
    sizes = [size for size, n in used.items() if n]
    return SimulationResult(
        final_state=FieldState(t=t, u=u),
        series=AmplitudeSeries(times=np.array(times), y=np.array(ys)),
        saturated=saturated,
        steps=accepted,
        rejected=rejected,
        dt_range=(min(sizes), max(sizes)) if sizes else (math.nan, math.nan),
        residual=float(np.abs(rung_stepper(0).residual(u)).max()),
    )


def fit_amplitude_dynamics(
    series: AmplitudeSeries, nonlinearity: str = "cubic"
) -> AmplitudeFit:
    """Fit the reduced equation ``dy/dt = sigma*y + c*y^k`` to a trajectory.

    ``nonlinearity`` selects ``quadratic`` (k=2, Dirichlet reduction) or
    ``cubic`` (k=3, Neumann reduction).  The derivative is estimated with
    second-order finite differences; the two coefficients come from linear
    least squares.

    Raises
    ------
    InsufficientData
        Fewer than 10 samples.
    """
    if nonlinearity == "quadratic":
        power = 2
    elif nonlinearity == "cubic":
        power = 3
    else:
        raise ValueError(f"unknown nonlinearity {nonlinearity!r}")
    t = np.asarray(series.times, dtype=float)
    y = np.asarray(series.y, dtype=float)
    if t.size < 10:
        raise InsufficientData(
            f"{t.size} amplitude samples; at least 10 needed for a fit"
        )
    dydt = np.gradient(y, t)
    design = np.column_stack([y, y**power])
    coef, *_ = np.linalg.lstsq(design, dydt, rcond=None)
    residual = dydt - design @ coef
    ss_res = float(residual @ residual)
    centered = dydt - dydt.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return AmplitudeFit(
        sigma=float(coef[0]),
        coefficient=float(coef[1]),
        r_squared=r_squared,
        poor_fit=r_squared < 0.99,
        nonlinearity=nonlinearity,
    )
