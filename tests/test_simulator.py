"""Grid, discrete Laplacian, IMEX stepper, and amplitude-fit checks."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from mtphase import (
    LADDER_FLOOR,
    AmplitudeSeries,
    BoundaryCondition,
    FieldState,
    GridTooCoarse,
    ModelParams,
    StepUnstable,
    Stepper,
    critical_mode,
    dt_max,
    fit_amplitude_dynamics,
    initial_state,
    laplacian_apply,
    laplacian_mode,
    linearization_matrix,
    make_grid,
    mode_spectra,
    principal_mode_vectors,
    quadratic_nonlinearity,
    reaction_rhs,
    simulate,
    steady_state,
)
from mtphase.verification import _newton_steady_state


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


def test_fit_amplitude_dynamics_recovers_synthetic_quadratic():
    # dy/dt = sigma y + a y^2 has closed-form solution
    # y(t) = sigma y0 e^{sigma t} / (sigma + a y0 (1 - e^{sigma t})).
    sigma_true, a_true, y0 = 0.08, -0.3, 1e-3
    t = np.linspace(0.0, 60.0, 400)
    e = np.exp(sigma_true * t)
    y = sigma_true * y0 * e / (sigma_true + a_true * y0 * (1.0 - e))
    fit = fit_amplitude_dynamics(
        AmplitudeSeries(times=t, y=y), nonlinearity="quadratic"
    )
    assert not fit.poor_fit
    assert fit.sigma == pytest.approx(sigma_true, rel=1e-3)
    assert fit.coefficient == pytest.approx(a_true, rel=2e-2)


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


@pytest.mark.parametrize(
    "N, offset, tol",
    [(64, 0.0, 1e-8), (64, 1e-7, 1e-8), (64, 1e-5, 1e-6), (128, 1e-5, 1e-6), (64, 1e-3, 1e-6)],
    ids=["on-state", "1e-7-off", "1e-5-off", "1e-5-off-N128", "1e-3-off"],
)
def test_saturation_stop_distance_estimate_is_not_optimistic(saturating_params, N, offset, tol):
    # Started on or near the steady state, off along a profile that excites
    # fast and slow modes alike.  Fast decaying parts of the residual must
    # not hide the slow part, and the steps a failed climb took must not
    # leave a slow perturbation behind: the field where the run stops lies
    # within twice the tolerance of the steady state.
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

    def spy(self, u):
        sizes.append(self.dt)
        return advance(self, u)

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
