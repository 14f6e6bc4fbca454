"""Grid, discrete Laplacian, IMEX steppers and the paths of ``simulate``."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded

from mtphase import (
    LADDER_FLOOR,
    BoundaryCondition,
    FieldState,
    GridTooCoarse,
    ModelParams,
    StepUnstable,
    Stepper,
    classify_transition,
    critical_mode,
    dt_max,
    find_threshold,
    initial_state,
    laplacian_apply,
    laplacian_mode,
    linearization_matrix,
    make_grid,
    mode_spectra,
    parse_config,
    principal_mode_vectors,
    quadratic_nonlinearity,
    reaction_rhs,
    simulate,
    steady_state,
)
from mtphase import simulator
from mtphase.simulator import (
    ARK_B,
    ARK_B_HAT,
    ARK_EXPLICIT,
    ARK_GAMMA,
    ARK_IMPLICIT,
)
from mtphase.verification import (
    _newton_steady_state,
    _rhs_jacobian,
    _solve_sigma,
    _unfolding_bracket,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def unstable_params():
    # d = 0.12 < d* = 0.17009: principal mode grows.
    return ModelParams(
        k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
        d1=0.12, d2=0.12, d3=0.12, ell=float(np.pi),
    )


def test_grid_spacing_and_nodes(canonical_params):
    p = canonical_params
    g = make_grid(p, 20)
    assert g.dx == pytest.approx(p.ell / 21)
    assert g.x[0] == pytest.approx(g.dx) and g.x[-1] == pytest.approx(p.ell - g.dx)
    q = p.replace(bc="neumann-zero-average")
    gq = make_grid(q, 20)
    assert gq.dx == pytest.approx(p.ell / 20)
    assert gq.x[0] == pytest.approx(gq.dx / 2)
    assert gq.x[-1] == pytest.approx(p.ell - gq.dx / 2)


def test_grid_too_coarse(canonical_params):
    with pytest.raises(GridTooCoarse):
        make_grid(canonical_params, 8)


def test_discrete_laplacian_eigenvectors_exact(canonical_params):
    # sin/cos mode samples are exact eigenvectors of the 3-point stencil
    # with the respective boundary closure; this pins both the interior
    # stencil and the boundary handling.
    N = 40
    for bc in ("dirichlet", "neumann-zero-average"):
        p = canonical_params.replace(ell=2.7, bc=bc)
        g = make_grid(p, N)
        for m in (1, 3, 7):
            if bc == "dirichlet":
                v = np.sin(m * np.pi * g.x / p.ell)
                lam = -2.0 * (1.0 - np.cos(m * np.pi / (N + 1))) / g.dx**2
            else:
                v = np.cos(m * np.pi * g.x / p.ell)
                lam = -2.0 * (1.0 - np.cos(m * np.pi / N)) / g.dx**2
            out = laplacian_apply(g, np.stack([v, v, v]))
            assert np.abs(out - lam * v).max() <= 1e-10


def test_dt_max_respects_both_limits(unstable_params):
    p = unstable_params
    g = make_grid(p, 64)
    limit_diff = 2.5 * g.dx**2 / max(p.d1, p.d2, p.d3)
    limit_reac = 0.1 / np.abs(linearization_matrix(p)).sum(axis=1).max()
    assert dt_max(p, g) == pytest.approx(min(limit_diff, limit_reac))


def test_aligned_initial_state_amplitude(unstable_params):
    g = make_grid(unstable_params, 48)
    st = initial_state(unstable_params, g, kind="aligned", amplitude=0.037)
    assert critical_mode(unstable_params, g).amplitude(st.u) == pytest.approx(0.037, rel=1e-12)
    zero = initial_state(unstable_params, g, kind="zero")
    assert np.all(zero.u == 0.0)


def test_random_initial_state_is_seeded(unstable_params):
    g = make_grid(unstable_params, 32)
    a = initial_state(unstable_params, g, kind="random", amplitude=1e-3, seed=9)
    b = initial_state(unstable_params, g, kind="random", amplitude=1e-3, seed=9)
    c = initial_state(unstable_params, g, kind="random", amplitude=1e-3, seed=10)
    assert np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, c.u)


def test_neumann_zero_average_preserved():
    p = ModelParams(
        k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
        d1=0.3, d2=0.3, d3=0.3, ell=4.0, bc="neumann-zero-average",
    )
    g = make_grid(p, 48)
    st = initial_state(p, g, kind="random", amplitude=1e-2, seed=1)
    assert np.abs(st.u.mean(axis=1)).max() <= 1e-15
    stepper = Stepper(p, g, dt=0.5 * dt_max(p, g))
    u = st.u
    for _ in range(200):
        u = stepper.step_array(u)
    assert np.abs(u.mean(axis=1)).max() <= 1e-12


def test_linear_decay_rate_matches_principal_eigenvalue(canonical_params):
    # Stable side (d = 0.5): a state aligned with the true principal
    # eigenvector decays like exp(sigma11 t) under the linearized stepper;
    # Crank-Nicolson reproduces the rate to O(dt^2) and the grid adds an
    # O(dx^2) correction.
    p = canonical_params.replace(d1=0.5, d2=0.5, d3=0.5)
    ms = mode_spectra(p, 1)[0]
    sigma = ms.sigma[0].real
    omega = ms.omega[0].real
    omega_star = ms.omega_star[0].real
    g = make_grid(p, 256)
    stepper = Stepper(p, g, dt=1e-3, linear_only=True)
    e1 = laplacian_mode(p, 1).evaluate(g.x)
    den = float(e1 @ e1) * float(omega @ omega_star)
    u = 1e-3 * omega[:, None] * e1[None, :]
    y0 = float(e1 @ (omega_star @ u)) / den
    n = 2000
    for _ in range(n):
        u = stepper.step_array(u)
    y1 = float(e1 @ (omega_star @ u)) / den
    measured = np.log(y1 / y0) / (n * 1e-3)
    assert measured == pytest.approx(sigma, rel=5e-4)


def test_step_unstable_raised_with_last_state(unstable_params):
    g = make_grid(unstable_params, 32)
    st = initial_state(unstable_params, g, kind="aligned", amplitude=1e6)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(unstable_params, g, st, t_end=50.0, dt=dt_max(unstable_params, g))
    assert excinfo.value.last_state is not None
    assert np.all(np.isfinite(excinfo.value.last_state.u))


@pytest.mark.parametrize("case", ["nan-entry", "laplacian-overflow"])
def test_step_array_rejects_non_finite_solve_input(unstable_params, case):
    g = make_grid(unstable_params, 32)
    if case == "nan-entry":
        stepper = Stepper(unstable_params, g, dt=dt_max(unstable_params, g))
        u = np.zeros((3, g.N))
        u[1, 5] = np.nan
    else:
        # A finite sawtooth whose discrete Laplacian overflows while the
        # linear reaction term stays finite.
        stepper = Stepper(unstable_params, g, dt=dt_max(unstable_params, g), linear_only=True)
        u = np.zeros((3, g.N))
        u[:, ::2], u[:, 1::2] = 1e306, -1e306
    with pytest.raises(StepUnstable):
        stepper.step_array(u)


def _per_component_stepper(stepper):
    """``stepper``'s scheme with one ``cho_solve_banded`` call per component."""
    p, grid, dt = stepper.p, stepper.grid, stepper.dt
    d = np.array([p.d1, p.d2, p.d3])
    inv_dx2 = 1.0 / grid.dx**2

    def factors(scale):
        out = []
        for coeff in scale * d:
            ab = np.zeros((2, grid.N))
            ab[1, :] = 1.0 + 2.0 * coeff * inv_dx2
            ab[0, 1:] = -coeff * inv_dx2
            if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
                ab[1, [0, -1]] = 1.0 + coeff * inv_dx2
            out.append(cholesky_banded(ab))
        return out

    full, half = factors(dt), factors(0.5 * dt)

    def solve(chol, rhs):
        return np.stack([cho_solve_banded((c, False), r) for c, r in zip(chol, rhs)])

    def step(u):
        r0 = stepper.reaction(u)
        predictor = solve(full, u + dt * r0)
        lap_u = d[:, None] * laplacian_apply(grid, u)
        r1 = stepper.reaction(predictor)
        out = solve(half, u + 0.5 * dt * (lap_u + r0 + r1))
        if stepper.project:
            out -= out.mean(axis=1, keepdims=True)
        return out

    return step


@pytest.mark.parametrize(
    "bc, N, options",
    [
        ("dirichlet", 64, {}),
        ("dirichlet", 128, {}),
        ("dirichlet", 512, {}),
        ("neumann-zero-average", 64, {}),
        ("dirichlet", 64, {"linear_only": True}),
    ],
    ids=["dirichlet-64", "dirichlet-128", "dirichlet-512", "neumann-projected",
         "dirichlet-linear"],
)
def test_stacked_solve_matches_per_component_solves(unstable_params, bc, N, options):
    # The block-diagonal band solve must reproduce the per-component solves
    # bit for bit, over many steps of the nonlinear dynamics.
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, N)
    stepper = Stepper(p, g, dt=dt_max(p, g), **options)
    reference_step = _per_component_stepper(stepper)
    u = initial_state(p, g, kind="random", amplitude=1e-2, seed=3).u
    ref = u.copy()
    for _ in range(1000):
        u = stepper.step_array(u)
        ref = reference_step(ref)
    assert np.array_equal(u, ref)
    assert np.abs(u).max() > 0.0


# ---------------------------------------------------------------------------
# the step against dense operators built independently of the simulator


@pytest.fixture(scope="module")
def generic_rates():
    # the rates of neumann-jump.ini: no two alike, so a swapped index shows
    return dict(k1=4.9669, k3=0.4280, k5=6.4185, k7=0.4256, C1=4.3293, E=0.9599,
                d1=1.7390, d2=1.4256, d3=0.3804, ell=4.828)


def _dense_laplacian(grid):
    """The 3-point Laplacian as an explicit tridiagonal N x N matrix."""
    n = grid.N
    L = np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if grid.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        L[0, 0] = L[-1, -1] = -1.0
    return L / grid.dx**2


def _dense_terms(p, grid, u):
    """``diag(d) (x) L u`` and the reaction part from the absolute-field model."""
    diffusion = p.diffusion[:, None] * (u @ _dense_laplacian(grid).T)
    reaction = reaction_rhs(p, steady_state(p).as_array()[:, None] + u)
    return diffusion, reaction


def _project(v, p):
    if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        return v - v.mean(axis=1, keepdims=True)
    return v


@pytest.mark.parametrize("size", [1e-2, 1.0])
@pytest.mark.parametrize("N", [16, 64, 512])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_residual_matches_dense_operators(generic_rates, bc, N, size):
    p = ModelParams(bc=bc, **generic_rates)
    g = make_grid(p, N)
    u = size * np.random.default_rng(N).uniform(-1.0, 1.0, size=(3, N))
    diffusion, reaction = _dense_terms(p, g, u)
    expected = _project(diffusion + reaction, p)
    scale = max(np.abs(diffusion).max(), np.abs(reaction).max())
    stepper = Stepper(p, g, dt_max(p, g))
    _, _, from_advance = stepper.advance(u)
    for residual in (stepper.residual(u), from_advance):
        assert np.abs(residual - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_advance_solves_the_scheme_equations(generic_rates, bc):
    # Predictor (I - dt K) v = u + dt R(u); corrector
    # (I - dt/2 K) w = (I + dt/2 K) u + dt/2 (R(u) + R(v)), with
    # K = diag(d) (x) L and R mean-projected on Neumann, then w projected.
    p = ModelParams(bc=bc, **generic_rates)
    N = 32
    g = make_grid(p, N)
    dt = dt_max(p, g)
    u = _project(0.3 * np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, N)), p)
    K = np.kron(np.diag(p.diffusion), _dense_laplacian(g))
    eye = np.eye(3 * N)

    def R(v):
        return _project(_dense_terms(p, g, v)[1], p).reshape(-1)

    flat = u.reshape(-1)
    predictor = np.linalg.solve(eye - dt * K, flat + dt * R(u))
    rhs = (eye + 0.5 * dt * K) @ flat + 0.5 * dt * (R(u) + R(predictor.reshape(3, N)))
    new = _project(np.linalg.solve(eye - 0.5 * dt * K, rhs).reshape(3, N), p)
    got_new, got_predictor, _ = Stepper(p, g, dt).advance(u)
    scale = np.abs(u).max()
    assert np.abs(got_predictor - predictor.reshape(3, N)).max() <= 1e-12 * scale
    assert np.abs(got_new - new).max() <= 1e-12 * scale
    assert np.abs(got_new - u).max() > 1e-6 * scale  # the step did move the state


def test_chunked_restart_reproduces_single_run(unstable_params):
    p = unstable_params
    g = make_grid(p, 48)
    ic = initial_state(p, g, kind="random", amplitude=1e-4, seed=4)
    dt = 0.01
    straight = simulate(p, g, ic, t_end=3.0, dt=dt, record_every=25)
    first = simulate(p, g, ic, t_end=1.5, dt=dt, record_every=25)
    resumed = simulate(p, g, first.final_state, t_end=3.0, dt=dt, record_every=25)
    assert resumed.final_state.t == pytest.approx(straight.final_state.t, abs=1e-12)
    assert np.allclose(resumed.final_state.u, straight.final_state.u, rtol=0, atol=1e-15)


def test_imex_fixed_points_are_semi_discrete_steady_states(unstable_params):
    # Solve the semi-discrete steady problem by Newton, then check the
    # stepper leaves it invariant: saturated amplitudes carry no time error.
    p = unstable_params
    N = 24
    g = make_grid(p, N)
    A = linearization_matrix(p)
    d = np.array([p.d1, p.d2, p.d3])
    omega, _, _ = principal_mode_vectors(p)
    e1 = laplacian_mode(p, 1).evaluate(g.x)
    u = 0.3 * omega[:, None] * e1[None, :]

    def rhs(v):
        return d[:, None] * laplacian_apply(g, v) + A @ v + quadratic_nonlinearity(p, v)

    n = 3 * N
    for _ in range(40):
        r = rhs(u)
        J = np.empty((n, n))
        flat = u.reshape(-1)
        for j in range(n):
            bumped = flat.copy()
            bumped[j] += 1e-7
            J[:, j] = (rhs(bumped.reshape(3, N)) - r).reshape(-1) / 1e-7
        du = np.linalg.solve(J, -r.reshape(-1))
        u = u + du.reshape(3, N)
        if np.abs(du).max() < 1e-13:
            break
    assert np.abs(rhs(u)).max() <= 1e-11

    stepper = Stepper(p, g, dt=dt_max(p, g))
    u_next = stepper.step_array(u)
    assert np.abs(u_next - u).max() <= 1e-11 * max(1.0, np.abs(u).max())


def test_simulation_saturates_to_positive_branch(unstable_params):
    p = unstable_params
    g = make_grid(p, 64)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    result = simulate(
        p, g, ic, t_end=3000.0, dt=dt_max(p, g), record_every=50,
        stop_on_saturation=True, saturation_tol=1e-6,
    )
    assert result.saturated
    assert result.series.y[-1] > 0.1  # far above the linear regime
    assert result.final_state.t <= 3000.0


def test_simulate_records_final_time(unstable_params):
    p = unstable_params
    g = make_grid(p, 32)
    ic = initial_state(p, g, kind="zero")
    result = simulate(p, g, ic, t_end=1.0, dt=0.03, record_every=7)
    # 33 steps of 0.03 and a last one of 0.01 end exactly at 1.0, which is
    # recorded exactly once.
    assert result.steps == 34
    assert result.series.times[-1] == 1.0
    assert result.final_state.t == 1.0
    assert np.count_nonzero(result.series.times == 1.0) == 1
    assert result.series.y.shape == result.series.times.shape


# ---------------------------------------------------------------------------
# step ladder of saturation runs


@pytest.fixture(scope="module")
def saturating_params(canonical_threshold):
    # The README example: the canonical threshold unfolded to k7 = 2.2,
    # where the run saturates on the Dirichlet mixed branch.
    return canonical_threshold.lambda0.replace(k7=2.2)


def _relative_distance(u, ref):
    return float(np.abs(u - ref).max() / np.abs(ref).max())


def test_ladder_saturates_from_an_unstable_first_rung(saturating_params):
    # 40 x dt_max is beyond the scheme's stability edge: the fixed path
    # blows up, the ladder falls to stable rungs and still saturates on
    # the semi-discrete steady state.
    p = saturating_params
    g = make_grid(p, 64)
    dt = 40.0 * dt_max(p, g)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    with pytest.raises(StepUnstable):
        simulate(p, g, ic, t_end=2000.0, dt=dt)
    tol = 1e-6
    result = simulate(p, g, ic, t_end=2000.0, dt=dt, stop_on_saturation=True,
                      saturation_tol=tol)
    assert result.saturated
    assert result.rejected >= 1
    assert result.dt_range[0] < dt
    ref = _newton_steady_state(p, g, result.series.y[-1])
    assert _relative_distance(result.final_state.u, ref) <= 20.0 * tol
    assert result.residual <= 1e-6


def test_ladder_keeps_zero_average_runs_on_the_zero_mean_subspace():
    # The zero-average model has no attracting nontrivial steady state near
    # its thresholds (its transitions are jumps and runs above threshold
    # blow up), so this run starts below threshold, inside the repeller,
    # and decays toward the trivial state.  The relative distance to that
    # state does not shrink, so the run goes on to t_end.
    p = ModelParams(
        k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
        d1=0.3, d2=0.3, d3=0.3, ell=4.0, bc="neumann-zero-average",
    )
    g = make_grid(p, 48)
    dt = 40.0 * dt_max(p, g)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    with pytest.raises(StepUnstable):
        simulate(p, g, ic, t_end=200.0, dt=dt)
    result = simulate(p, g, ic, t_end=200.0, dt=dt, stop_on_saturation=True,
                      saturation_tol=1e-6)
    assert not result.saturated
    assert result.final_state.t == 200.0
    assert result.rejected >= 1
    assert np.abs(result.final_state.u.mean(axis=1)).max() <= 1e-12
    assert np.abs(result.final_state.u).max() < 0.1 * np.abs(ic.u).max()


def test_ladder_run_started_on_the_steady_state_stops_at_once(saturating_params):
    p = saturating_params
    g = make_grid(p, 64)
    ref = _newton_steady_state(p, g, 0.42)
    tol = 1e-6
    result = simulate(p, g, FieldState(t=0.0, u=ref.copy()), t_end=2000.0,
                      stop_on_saturation=True, saturation_tol=tol)
    assert result.saturated
    assert result.steps < 100
    assert _relative_distance(result.final_state.u, ref) <= 20.0 * tol


def _count_bands(monkeypatch):
    """Record the coefficients of every stacked band the simulator factors."""
    factored = []
    stacked_band = simulator._stacked_band

    def spy(grid, coeffs):
        factored.append(tuple(coeffs))
        return stacked_band(grid, coeffs)

    monkeypatch.setattr(simulator, "_stacked_band", spy)
    return factored


def test_ladder_factors_each_coefficient_once(saturating_params, monkeypatch):
    # One Stepper per run: rung k's half band is rung k-1's full band, and
    # neither a revisited rung nor the final residual factors a band again.
    p = saturating_params
    g = make_grid(p, 64)
    ref = _newton_steady_state(p, g, 0.42)
    sizes = []
    advance = Stepper.advance

    def spy(self, u, h=None):
        sizes.append(self.dt if h is None else h)
        return advance(self, u, h)

    monkeypatch.setattr(Stepper, "advance", spy)
    factored = _count_bands(monkeypatch)
    result = simulate(p, g, FieldState(t=0.0, u=ref.copy()), t_end=2000.0,
                      stop_on_saturation=True, saturation_tol=1e-6)
    assert result.saturated and result.rejected >= 1
    d = p.diffusion
    expected = {tuple(c * d) for h in sizes for c in (h, 0.5 * h)}
    assert len(factored) == len(set(factored))
    assert set(factored) == expected


def test_ladder_keeps_the_steps_of_a_failed_climb(saturating_params, monkeypatch):
    # A rung that fails after a climb becomes a ceiling, and the steps
    # accepted on it stay: every step is taken from the state of the last
    # accepted one, and each accepted step counts in result.steps.
    p = saturating_params
    g = make_grid(p, 128)
    calls = []
    advance = Stepper.advance

    def spy(self, u, h=None):
        out = advance(self, u, h)
        calls.append((u, out[0]))
        return out

    monkeypatch.setattr(Stepper, "advance", spy)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    result = simulate(p, g, ic, t_end=2000.0, stop_on_saturation=True, saturation_tol=1e-6)
    assert result.saturated
    starts = [u for u, _ in calls[1:]] + [result.final_state.u]
    kept = 0
    for (u, out), start in zip(calls, starts):
        if np.array_equal(start, out):
            kept += 1
        else:
            assert np.array_equal(start, u)  # a rejected step is retried from its start
    assert kept == result.steps
    assert kept + result.rejected == len(calls)


@pytest.mark.parametrize(
    "N, offset, tol",
    [(64, 0.0, 1e-8), (64, 1e-7, 1e-8), (64, 1e-5, 1e-6), (128, 1e-5, 1e-6), (64, 1e-3, 1e-6)],
    ids=["on-state", "1e-7-off", "1e-5-off", "1e-5-off-N128", "1e-3-off"],
)
def test_saturation_stop_distance_estimate_is_not_optimistic(saturating_params, N, offset, tol):
    # Started on or near the steady state, off along a profile that excites
    # fast and slow modes alike.  Fast decaying parts of the residual must
    # not hide the slow part, and the steps kept from a failed climb must
    # not leave a slow perturbation behind: the field where the run stops
    # lies within twice the tolerance of the steady state.
    p = saturating_params
    g = make_grid(p, N)
    ref = _newton_steady_state(p, g, 0.42)
    e1 = laplacian_mode(p, 1).evaluate(g.x)
    start = ref + offset * np.abs(ref).max() * np.stack([e1, e1, e1])
    result = simulate(p, g, FieldState(t=0.0, u=start), t_end=4000.0,
                      stop_on_saturation=True, saturation_tol=tol)
    assert result.saturated
    assert _relative_distance(result.final_state.u, ref) <= 2.0 * tol


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ladder_blow_up_raises_on_the_floor_rung(unstable_params, bc, monkeypatch):
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 32)
    dt = dt_max(p, g)
    sizes = []
    advance = Stepper.advance

    def spy(self, u, h=None):
        sizes.append(self.dt if h is None else h)
        return advance(self, u, h)

    monkeypatch.setattr(Stepper, "advance", spy)
    st = initial_state(p, g, kind="aligned", amplitude=1e6)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, st, t_end=50.0, dt=dt, stop_on_saturation=True)
    last = excinfo.value.last_state
    assert last is not None and np.all(np.isfinite(last.u))
    floor = dt * 2.0**LADDER_FLOOR
    assert sizes[-1] == floor
    assert min(sizes) == floor
    assert len(sizes) < 10_000


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_fixed_path_equals_chained_step_array(unstable_params, bc):
    # stop_on_saturation=False pins the ladder to rung 0: the run is the
    # plain chain of step_array calls, with the last step shortened to end
    # at t_end, bit for bit.
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 32)
    ic = initial_state(p, g, kind="random", amplitude=1e-2, seed=2)
    dt, t_end = 0.03, 1.0
    result = simulate(p, g, ic, t_end=t_end, dt=dt, record_every=5)
    stepper = Stepper(p, g, dt)
    mode = critical_mode(p, g)
    u, ys = ic.u.copy(), [mode.amplitude(ic.u)]
    for k in range(1, 34):
        u = stepper.step_array(u)
        if k % 5 == 0:
            ys.append(mode.amplitude(u))
    u = Stepper(p, g, t_end - 33 * dt).step_array(u)
    ys.append(mode.amplitude(u))
    assert np.array_equal(result.final_state.u, u)
    assert np.array_equal(result.series.y, np.array(ys))
    assert result.steps == 34 and result.rejected == 0
    assert result.dt_range == (t_end - 33 * dt, dt)
    assert result.residual == float(np.abs(stepper.residual(u)).max())


# ---------------------------------------------------------------------------
# error-controlled path of dt = auto runs: ARK3(2)4L[2]SA


def _ark_tableau():
    """Full stage matrices, weights and row sums as exact rationals."""
    def square(rows, diagonal):
        return [list(row) + [diagonal[i]] + [Fraction(0)] * (3 - i) for i, row in enumerate(rows)]

    explicit = square(ARK_EXPLICIT, [Fraction(0)] * 4)
    implicit = square(ARK_IMPLICIT, [Fraction(0)] + [ARK_GAMMA] * 3)
    return explicit, implicit


def test_ark_tableau_satisfies_the_order_conditions():
    # The published rationals satisfy these to about 1e-26, not exactly.
    explicit, implicit = _ark_tableau()
    b, b_hat = ARK_B, ARK_B_HAT
    c_e = [sum(row) for row in explicit]
    c_i = [sum(row) for row in implicit]
    tol = Fraction(1, 10**20)

    def close(value, target):
        return abs(value - target) <= tol

    assert [float(c) for c in c_e] == pytest.approx([0.0, 2 * float(ARK_GAMMA), 0.6, 1.0])
    assert all(close(ce, ci) for ce, ci in zip(c_e, c_i))
    assert implicit[0] == [0, 0, 0, 0] and all(implicit[i][i] == ARK_GAMMA for i in (1, 2, 3))
    assert implicit[3] == list(b)  # stiffly accurate
    c = c_e
    for weights, order in ((b, 3), (b_hat, 2)):
        assert close(sum(weights), 1)
        assert close(sum(w * ci for w, ci in zip(weights, c)), Fraction(1, 2))
        if order == 3:
            assert close(sum(w * ci**2 for w, ci in zip(weights, c)), Fraction(1, 3))
            # explicit, implicit and both coupling conditions b A c = 1/6
            for a in (explicit, implicit):
                for cc in (c_e, c_i):
                    value = sum(b[i] * a[i][j] * cc[j] for i in range(4) for j in range(4))
                    assert close(value, Fraction(1, 6))
    assert not close(sum(w * ci**2 for w, ci in zip(b_hat, c)), Fraction(1, 3))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ark_step_solves_the_stage_equations(generic_rates, bc):
    # Stages (I - gamma h K) U_i = u + h sum_j (a_e[i][j] R(U_j) + a_i[i][j] K U_j),
    # new state u + h sum_i b_i (R(U_i) + K U_i) (projected on Neumann), error
    # h sum_i (b_i - b_hat_i)(R(U_i) + K U_i); dense solves, K = diag(d) (x) L.
    p = ModelParams(bc=bc, **generic_rates)
    N = 32
    g = make_grid(p, N)
    h = 4.0 * dt_max(p, g)
    u = _project(0.3 * np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, N)), p)
    K = np.kron(np.diag(p.diffusion), _dense_laplacian(g))
    gamma = float(ARK_GAMMA)
    explicit, implicit = ([[float(a) for a in row] for row in m] for m in _ark_tableau())

    def R(v):
        return _project(_dense_terms(p, g, v.reshape(3, N))[1], p).reshape(-1)

    stages = [u.reshape(-1)]
    for i in (1, 2, 3):
        rhs = stages[0] + h * sum(
            explicit[i][j] * R(stages[j]) + implicit[i][j] * (K @ stages[j]) for j in range(i)
        )
        stages.append(np.linalg.solve(np.eye(3 * N) - gamma * h * K, rhs))
    slopes = [R(v) + K @ v for v in stages]
    new = stages[0] + h * sum(float(w) * k for w, k in zip(ARK_B, slopes))
    error = h * sum(float(w - wh) * k for w, wh, k in zip(ARK_B, ARK_B_HAT, slopes))
    got_new, got_error = Stepper(p, g, dt_max(p, g)).ark_step(u, h)
    scale = np.abs(u).max()
    assert np.abs(got_new - _project(new.reshape(3, N), p)).max() <= 1e-12 * scale
    assert np.abs(got_error - error).max() <= 1e-12 * scale
    assert np.abs(error).max() > 1e-8 * scale  # the estimate is not trivially zero


def _branch_steady_state(bc):
    """A nontrivial semi-discrete steady state, solved by Newton at N = 64.

    Dirichlet: the saturated branch of the README example.  Zero-average
    Neumann: a repeller of criterion 8's jump point, where sigma_11 = -0.01.
    """
    if bc == "dirichlet":
        p = find_threshold(parse_config(CONFIGS / "canonical.ini").ray()).lambda0.replace(k7=2.2)
        y = 0.42
    else:
        ray = parse_config(CONFIGS / "neumann-jump.ini").ray()
        tp = find_threshold(ray)
        p = _solve_sigma(ray.at, -0.01, _unfolding_bracket(ray, tp.ray_coord, -0.01))
        y = classify_transition(tp).branch_amplitudes(-0.01)[0]
    g = make_grid(p, 64)
    return p, g, _newton_steady_state(p, g, y)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ark_step_fixed_points_are_semi_discrete_steady_states(bc):
    # Equal explicit and implicit row sums make a steady state a fixed point
    # of the ARK step at every step size, to criterion 8's stepper bound.
    p, g, u = _branch_steady_state(bc)
    scale = np.abs(u).max()
    stepper = Stepper(p, g, dt_max(p, g))
    assert np.abs(stepper.residual(u)).max() <= 1e-12 * scale
    for h in (dt_max(p, g), 16.0 * dt_max(p, g)):
        u_next, error = stepper.ark_step(u, h)
        assert np.abs(u_next - u).max() <= 1e-12 * scale
        assert np.abs(error).max() <= 1e-12 * scale


def _shipped(name):
    config = parse_config(CONFIGS / f"{name}.ini")
    p, sc = config.params, config.simulate
    g = make_grid(p, sc.N)
    ic = initial_state(p, g, kind=sc.ic_kind, amplitude=sc.ic_amplitude, seed=sc.seed)
    return p, g, ic, sc


def _radau(p, g, ic, times):
    """Criterion 11's temporal reference at ``times``: Radau, rtol 1e-10, atol 1e-13."""
    shape = ic.u.shape
    rhs = Stepper(p, g, dt_max(p, g)).residual
    sol = solve_ivp(
        lambda t, y: rhs(y.reshape(shape)).reshape(-1), (times[0], times[-1]),
        ic.u.reshape(-1), method="Radau", rtol=1e-10, atol=1e-13, t_eval=times,
        jac=lambda t, y: _rhs_jacobian(p, g, y.reshape(shape)),
    )
    assert sol.success
    return sol.y.T.reshape(len(times), *shape)


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_auto_dt_is_error_controlled_on_the_fixed_path_times(name, monkeypatch):
    # dt = auto takes the error-controlled path: recorded at the times of
    # the fixed path with the default step, bit for bit, in fewer steps, and
    # against the Radau reference no worse than that path at any record.
    p, g, ic, sc = _shipped(name)
    dt = 0.5 * dt_max(p, g)
    fixed = simulate(p, g, ic, t_end=sc.T, dt=dt, record_every=sc.record_every)
    sizes = []
    ark_step = Stepper.ark_step

    def spy(self, u, h):
        sizes.append(h)
        return ark_step(self, u, h)

    monkeypatch.setattr(Stepper, "ark_step", spy)
    auto = simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    assert np.array_equal(auto.series.times, fixed.series.times)
    assert auto.final_state.t == fixed.final_state.t

    assert auto.steps + auto.rejected == len(sizes)
    assert auto.steps < fixed.steps / 2
    assert auto.dt_range[1] == sc.record_every * dt
    assert auto.dt_range[0] in sizes and auto.dt_range[0] >= dt * 2.0**LADDER_FLOOR
    assert not auto.saturated
    assert auto.residual == float(np.abs(Stepper(p, g, dt).residual(auto.final_state.u)).max())

    ref = _radau(p, g, ic, fixed.series.times)
    mode = critical_mode(p, g)
    y_ref = np.array([mode.amplitude(v) for v in ref])

    def y_error(result):
        return np.abs(result.series.y - y_ref).max() / np.abs(y_ref).max()

    assert y_error(auto) <= y_error(fixed)
    assert np.abs(auto.final_state.u - ref[-1]).max() <= 1e-5 * np.abs(ref[-1]).max()


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_auto_dt_factors_only_its_substep_bands(name, monkeypatch):
    # The error-controlled path factors one band per substep size, gamma h,
    # and no band of the Heun step it never takes.
    p, g, ic, sc = _shipped(name)
    sizes = []
    ark_step = Stepper.ark_step

    def spy(self, u, h):
        sizes.append(h)
        return ark_step(self, u, h)

    monkeypatch.setattr(Stepper, "ark_step", spy)
    factored = _count_bands(monkeypatch)
    simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    gamma = float(ARK_GAMMA)
    assert sorted(factored) == sorted({tuple(gamma * h * p.diffusion) for h in sizes})


@pytest.mark.parametrize("dt", [0.0, -1e-6, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("stop_on_saturation", [False, True])
def test_simulate_rejects_a_step_that_is_not_finite_and_positive(
    unstable_params, dt, stop_on_saturation
):
    g = make_grid(unstable_params, 16)
    ic = initial_state(unstable_params, g, kind="aligned", amplitude=0.01)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        simulate(unstable_params, g, ic, t_end=1.0, dt=dt,
                 stop_on_saturation=stop_on_saturation)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        Stepper(unstable_params, g, dt)


@pytest.mark.parametrize("t0, t_end", [(0.0, -5.0), (0.0, math.nan), (2.0, 1.0)])
@pytest.mark.parametrize("dt", [None, 0.01])
def test_simulate_rejects_an_end_before_the_start(unstable_params, dt, t0, t_end):
    g = make_grid(unstable_params, 16)
    ic = FieldState(t=t0, u=initial_state(unstable_params, g, kind="aligned").u)
    with pytest.raises(ValueError, match="t_end"):
        simulate(unstable_params, g, ic, t_end=t_end, dt=dt)


@pytest.mark.parametrize(
    "dt, stop_on_saturation",
    [(0.01, False), (None, False), (None, True)],
    ids=["fixed", "auto", "saturation"],
)
def test_simulate_rejects_an_end_that_is_not_finite(unstable_params, dt, stop_on_saturation):
    # Before, t_end = inf raised OverflowError while counting the steps.
    g = make_grid(unstable_params, 16)
    ic = initial_state(unstable_params, g, kind="aligned", amplitude=0.01)
    with pytest.raises(ValueError, match="t_end must be finite"):
        simulate(unstable_params, g, ic, t_end=math.inf, dt=dt,
                 stop_on_saturation=stop_on_saturation)


@pytest.mark.parametrize("dt", [None, 0.01])
def test_simulate_rejects_a_record_interval_below_one_step(unstable_params, dt):
    g = make_grid(unstable_params, 16)
    ic = initial_state(unstable_params, g, kind="zero")
    with pytest.raises(ValueError, match="record_every"):
        simulate(unstable_params, g, ic, t_end=1.0, dt=dt, record_every=0)


def test_auto_dt_refines_long_record_intervals_by_rejection():
    # record_every = 1000 makes the record interval about 3 on neumann-jump,
    # ten times the explicit stability limit of the ARK step there: the run
    # finds its substep by rejection, without StepUnstable, and stays on the
    # zero-mean subspace.
    p, g, ic, sc = _shipped("neumann-jump")
    result = simulate(p, g, ic, t_end=sc.T, record_every=1000)
    dt = 0.5 * dt_max(p, g)
    assert result.rejected >= 1
    assert result.dt_range[1] < 0.1 * 1000 * dt
    assert result.final_state.t == sc.T and np.all(np.isfinite(result.final_state.u))
    assert np.abs(result.final_state.u.mean(axis=1)).max() <= 1e-12


def test_auto_dt_blow_up_leaks_no_overflow_warning():
    # Far above neumann-jump's repeller the fields blow up in finite time
    # (criterion 9's jump): the substeps shrink to the floor, where the
    # overflow raises StepUnstable with a finite last state.  The overflow
    # warnings stay inside the run (conftest turns a warning into an error).
    p, g, _, sc = _shipped("neumann-jump")
    ic = initial_state(p, g, kind="aligned", amplitude=1.0)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, ic, t_end=sc.T, record_every=10**6)
    last = excinfo.value.last_state
    assert 0.0 < last.t < sc.T and np.all(np.isfinite(last.u))
    assert np.abs(last.u).max() > 100.0


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_auto_dt_blow_up_raises_at_the_smallest_substep(unstable_params, bc, monkeypatch):
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 32)
    dt = 0.5 * dt_max(p, g)
    sizes, good = [], []
    ark_step = Stepper.ark_step

    def blows_up_after_five(self, u, h):
        sizes.append(h)
        new, error = ark_step(self, u, h)
        if len(sizes) > 5:
            return np.full_like(new, np.inf), error
        good.append(new)
        return new, error

    monkeypatch.setattr(Stepper, "ark_step", blows_up_after_five)
    monkeypatch.setattr(simulator, "ARK_TOL", math.inf)  # only a blow-up rejects
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, ic, t_end=5.0, record_every=10)
    # five substeps of one record interval each, then halving down to the floor
    floor = math.ldexp(10 * dt, -(3 - LADDER_FLOOR))
    assert sizes[:5] == [10 * dt] * 5
    assert sizes[5:] == [math.ldexp(10 * dt, -k) for k in range(0, 4 - LADDER_FLOOR)]
    assert floor >= dt * 2.0**LADDER_FLOOR
    last = excinfo.value.last_state
    assert last is not None and np.array_equal(last.u, good[-1])
    assert last.t == 50 * dt
