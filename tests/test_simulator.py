"""Grid, discrete Laplacian, IMEX steppers and the paths of ``simulate``."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from mtphase import (
    LADDER_FLOOR,
    LADDER_TOL,
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
    _newton_update,
    _rhs,
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
    # the step reproduces the rate to O(dt^3) and the grid adds an O(dx^2)
    # correction.
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
        # A finite sawtooth whose banded L u overflows while the linear
        # reaction term stays finite (at 1e306 L u stays finite and the
        # step damps it).
        stepper = Stepper(unstable_params, g, dt=dt_max(unstable_params, g), linear_only=True)
        u = np.zeros((3, g.N))
        u[:, ::2], u[:, 1::2] = 1e307, -1e307
    with pytest.raises(StepUnstable):
        stepper.step_array(u)


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
    assert np.abs(stepper.residual(u) - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("stiffness", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("N", [16, 64, 512])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_step_factor_solve_matches_dense_solves(generic_rates, bc, N, stiffness):
    # The banded LU factor of I - gamma h L (gbtrf) and its gbtrs solve
    # against a dense LU solve, with gamma h max(d) / dx**2 = stiffness and
    # L = D lap + A interleaved by node.  A couples the components and is
    # not definite, so the systems are not M-matrices: two backward-stable
    # solves agree within a few ulps of the infinity-norm condition number,
    # relative to the largest entry.  The residual, a backward error, is a
    # few ulps at every stiffness.
    p = ModelParams(bc=bc, **generic_rates)
    g = make_grid(p, N)
    stepper = Stepper(p, g, dt_max(p, g))
    h = stiffness * g.dx**2 / (float(ARK_GAMMA) * max(p.diffusion))
    lu, piv, _ = stepper._step_factor(h)
    rhs = np.random.default_rng(N).uniform(-1.0, 1.0, size=3 * N)
    x, info = stepper._gbtrs(lu, 3, 3, rhs.copy(), piv)
    assert info == 0
    M = np.eye(3 * N) - float(ARK_GAMMA) * h * _linear_operator(p, g)
    dense = np.linalg.solve(M, rhs)
    norm = np.abs(M).sum(axis=1).max()
    condition = norm * np.abs(np.linalg.inv(M)).sum(axis=1).max()
    eps = np.finfo(float).eps
    assert np.abs(x - dense).max() <= 4.0 * eps * condition * np.abs(dense).max()
    assert np.abs(M @ x - rhs).max() <= 8.0 * eps * (norm * np.abs(x).max() + 1.0)


def _sparse_reference_step(stepper):
    """``stepper``'s ARK step of size ``dt`` on SuperLU and sparse matrices.

    The tableau's stages and weights as published, ``F = R - A u`` from the
    absolute-field model and ``L = D lap + A`` in the component-major layout:
    no part of the simulator's banded assembly, fused weights or ``gbtrs``.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    p, g, h, N = stepper.p, stepper.grid, stepper.dt, stepper.grid.N
    A = linearization_matrix(p)
    L = sparse.csc_matrix(np.kron(np.diag(p.diffusion), _dense_laplacian(g))
                          + np.kron(A, np.eye(N)))
    solve = splu(sparse.identity(3 * N, format="csc") - float(ARK_GAMMA) * h * L).solve
    explicit, implicit = ([[float(a) for a in row] for row in m] for m in _ark_tableau())
    base = steady_state(p).as_array()[:, None]

    def F(v):
        v = v.reshape(3, N)
        out = np.zeros((3, N)) if stepper.linear_only else reaction_rhs(p, base + v) - A @ v
        return _project(out, p).reshape(-1)

    def step(u):
        stages = [u.reshape(-1)]
        for i in (1, 2, 3):
            stages.append(solve(stages[0] + h * sum(
                explicit[i][j] * F(stages[j]) + implicit[i][j] * (L @ stages[j])
                for j in range(i)
            )))
        new = stages[0] + h * sum(float(w) * (F(v) + L @ v) for w, v in zip(ARK_B, stages))
        return _project(new.reshape(3, N), p)

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
def test_step_array_tracks_a_sparse_reference_step(unstable_params, bc, N, options):
    # Over many steps of the nonlinear dynamics, step_array stays within
    # rounding of the same scheme built independently on sparse matrices.
    # The random start decays by two orders before the principal mode
    # grows, so the relative gap reaches about 1e-12.
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, N)
    stepper = Stepper(p, g, dt=dt_max(p, g), **options)
    reference_step = _sparse_reference_step(stepper)
    u = initial_state(p, g, kind="random", amplitude=1e-2, seed=3).u
    ref = u.copy()
    for _ in range(1000):
        u = stepper.step_array(u)
        ref = reference_step(ref)
        assert np.abs(u - ref).max() <= 1e-11 * np.abs(ref).max()
    assert np.abs(u).max() > 0.0


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
    # 400 x dt_max is beyond the steps the ladder's error test accepts from
    # this start (40 x dt_max no longer is, with A implicit): the ladder
    # falls to lower rungs and still saturates on the semi-discrete steady
    # state.
    p = saturating_params
    g = make_grid(p, 64)
    dt = 400.0 * dt_max(p, g)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
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
    dt = 400.0 * dt_max(p, g)  # beyond the first rung the ladder accepts
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
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


def _scipy_wrappers():
    from scipy.linalg import get_blas_funcs, get_lapack_funcs

    empty = (np.empty(0),)
    return (*get_lapack_funcs(("gbsv", "gbtrf", "gbtrs"), empty), get_blas_funcs("gbmv", empty))


@pytest.mark.parametrize("files", ["found", "missing"])
def test_banded_wrappers_are_scipy_linalgs_own(monkeypatch, files):
    # scipy.linalg is loaded here, so its extension modules are taken, not
    # loaded again; without the files the wrappers come from scipy.linalg
    if files == "missing":
        monkeypatch.setattr(simulator, "_scipy_linalg_extension", lambda name: None)
    simulator._banded_lapack.cache_clear()
    try:
        got = simulator._banded_lapack()
    finally:
        simulator._banded_lapack.cache_clear()
    assert all(a is b for a, b in zip(got, _scipy_wrappers(), strict=True))


def test_scipy_linalg_imported_after_a_stepper_takes_its_extension_modules():
    code = (
        "import sys\nimport numpy as np\nimport mtphase\n"
        "p = mtphase.ModelParams(k1=1, k3=1, k5=1, k7=2, C1=1, E=1, d1=1, d2=1, d3=1, ell=3.0)\n"
        "mtphase.Stepper(p, mtphase.make_grid(p, 16), 0.01)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from mtphase.simulator import _banded_lapack\n"
        "from scipy.linalg import get_blas_funcs, get_lapack_funcs, lu_factor, lu_solve\n"
        "e = (np.empty(0),)\n"
        "want = (*get_lapack_funcs(('gbsv', 'gbtrf', 'gbtrs'), e), get_blas_funcs('gbmv', e))\n"
        "assert all(a is b for a, b in zip(_banded_lapack(), want))\n"
        "assert lu_solve(lu_factor([[2.0, 1.0], [1.0, 3.0]]), [3.0, 4.0]).round(12).tolist()"
        " == [1.0, 1.0]\n"
    )
    src = Path(simulator.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def _patch_lapack(monkeypatch, **wrappers):
    """Make Steppers built from now on call ``wrappers[name](original)`` for ``name``."""
    names = ("gbsv", "gbtrf", "gbtrs", "gbmv")
    funcs = dict(zip(names, simulator._banded_lapack()))
    for name, wrap in wrappers.items():
        funcs[name] = wrap(funcs[name])
    monkeypatch.setattr(simulator, "_banded_lapack", lambda: tuple(funcs[n] for n in names))


def _linear_operator(p, g):
    """``L = D lap + A`` as a dense matrix on unknowns interleaved by node, ``3 j + c``."""
    return (np.kron(_dense_laplacian(g), np.diag(p.diffusion))
            + np.kron(np.eye(g.N), linearization_matrix(p)))


def _spy(monkeypatch, method):
    """Record the state, the step size and the result of every call of ``Stepper.<method>``."""
    calls = []
    original = getattr(Stepper, method)

    def spy(self, u, h, *args):
        out = original(self, u, h, *args)
        calls.append((u, h, out))
        return out

    monkeypatch.setattr(Stepper, method, spy)
    return calls


def test_ladder_factors_each_coefficient_once(saturating_params, monkeypatch):
    # One Stepper per run: each step size h is factored once, as I - gamma h
    # L with L = D lap + A, by one gbtrf call; neither a revisited rung, the
    # stop's Newton checks nor the final residual factor again.  The run starts off
    # the steady state (the README example), so it climbs rungs and rejects
    # a step.  Each factored band is checked against the dense matrix.
    p = saturating_params
    g = make_grid(p, 64)
    calls = _spy(monkeypatch, "ladder_step")
    factored = []

    def spy_gbtrf(gbtrf):
        def spy(ab, kl, ku, **kwargs):
            factored.append(np.array(ab[kl:]))
            return gbtrf(ab, kl, ku, **kwargs)
        return spy

    _patch_lapack(monkeypatch, gbtrf=spy_gbtrf)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    result = simulate(p, g, ic, t_end=2000.0, stop_on_saturation=True, saturation_tol=1e-6)
    assert result.saturated and result.rejected >= 1 and result.checks > 1
    sizes = sorted({h for _, h, _ in calls})
    assert len(sizes) >= 3
    assert len(factored) == len(sizes)
    L = _linear_operator(p, g)
    n = 3 * g.N
    rows, cols = np.indices((n, n))
    inside = np.abs(rows - cols) <= 3
    assert np.abs(L[~inside]).max() == 0.0  # the band holds all of L
    expected = {}
    for h in sizes:
        dense = np.eye(n) - float(ARK_GAMMA) * h * L
        expected[h] = np.zeros((7, n))
        expected[h][3 + rows[inside] - cols[inside], cols[inside]] = dense[inside]
    matched = []
    for band in factored:
        errors = {h: np.abs(band - e).max() / np.abs(e).max() for h, e in expected.items()}
        h = min(errors, key=errors.get)
        assert errors[h] <= 1e-13
        matched.append(h)
    assert sorted(matched) == sizes


def test_ladder_keeps_the_steps_of_a_failed_climb(saturating_params, monkeypatch):
    # A rung that fails after a climb becomes a ceiling, and the steps
    # accepted on it stay: every step is taken from the state of the last
    # accepted one, and each accepted step counts in result.steps.
    p = saturating_params
    g = make_grid(p, 128)
    calls = _spy(monkeypatch, "ladder_step")
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    result = simulate(p, g, ic, t_end=2000.0, stop_on_saturation=True, saturation_tol=1e-6)
    assert result.saturated and result.rejected >= 1
    starts = [u for u, _, _ in calls[1:]] + [result.final_state.u]
    kept = 0
    for (u, _, (out, _)), start in zip(calls, starts):
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


@pytest.mark.parametrize("N", [16, 64, 512])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_newton_correction_matches_the_dense_newton_update(saturating_params, bc, N):
    # The stop's banded correction against the verification suite's dense
    # Newton update: the exact Jacobian of _rhs_jacobian, bordered by the
    # mean constraints under zero-average Neumann conditions.  Random
    # states of the branch's size, mean-free for Neumann; agreement within
    # eps times the (bordered) Jacobian's infinity-norm condition number,
    # which the measured errors meet with a factor of 10 to spare.  Leaving
    # out the +-3 diffusion diagonals fails every case, and leaving out the
    # mean multipliers every Neumann case, by seven orders of magnitude or
    # more.
    p = saturating_params.replace(bc=bc)
    g = make_grid(p, N)
    stepper = Stepper(p, g, dt_max(p, g))
    rng = np.random.default_rng([N, len(bc)])
    for _ in range(2):
        u = 0.3 * rng.uniform(-1.0, 1.0, size=(3, N))
        if bc != "dirichlet":
            u -= u.mean(axis=1, keepdims=True)
        delta = stepper.newton_correction(u)
        ref = _newton_update(p, g, u)
        jac = _rhs_jacobian(p, g, u)
        if bc != "dirichlet":
            means = np.kron(np.eye(3), np.ones((1, N)))
            jac = np.block([[jac, means.T], [means, np.zeros((3, 3))]])
            assert np.abs(delta.mean(axis=1)).max() <= 1e-14 * np.abs(delta).max()
        cond = np.linalg.cond(jac, np.inf)
        error = np.abs(delta - ref).max() / np.abs(ref).max()
        assert error <= np.finfo(float).eps * cond


def test_newton_check_schedule():
    cap = simulator._CHECK_CAP
    # the first check, a bound that did not decay and a singular factor wait
    # the cap (simulate rejects a tolerance that is not positive)
    assert simulator._steps_to_check(1e-3, math.inf, 1.0, 1e-6, 0.1) == cap
    assert simulator._steps_to_check(1e-3, 1e-3, 1.0, 1e-6, 0.1) == cap
    assert simulator._steps_to_check(math.inf, 1e-3, 1.0, 1e-6, 0.1) == cap
    # a decade per unit time reaches 1e-6 from 1e-3 after 3 units: 30
    # steps of 0.1, and the check is due at the first step after it
    assert simulator._steps_to_check(1e-3, 1e-2, 1.0, 1e-6, 0.1) in (30, 31)
    assert simulator._steps_to_check(1e-3, 1e-2, 1.0, 1e-6, 0.07) == 43
    assert simulator._steps_to_check(1e-3, 1e-2, 1.0, 1e-6, 0.01) == cap
    # a bound already at the tolerance, up to rounding, checks again next step
    assert simulator._steps_to_check(1e-6, 1e-5, 1.0, 1e-6, 0.1) == 1


def test_ladder_run_at_n512_on_the_steady_state_stops_within_a_few_steps(saturating_params):
    # The stop bounds the distance from the state itself, not from how fast
    # the residual decays, so however stiff the grid, a start on the steady
    # state stops at its first check.
    p = saturating_params
    g = make_grid(p, 512)
    ref = _newton_steady_state(p, g, 0.42)
    tol = 1e-8
    result = simulate(p, g, FieldState(t=0.0, u=ref.copy()), t_end=2000.0,
                      stop_on_saturation=True, saturation_tol=tol)
    assert result.saturated
    assert result.steps <= 3 and result.checks <= 3
    assert result.correction <= tol
    assert _relative_distance(result.final_state.u, ref) <= 2.0 * tol


def test_ladder_run_decaying_to_the_trivial_state_does_not_stop(saturating_params):
    # Below threshold the trivial state attracts.  The Newton correction
    # points to it, and its size stays that of the field, so the relative
    # bound stays near 1 and the run goes on to t_end.  The run is long
    # enough for a second check: by t = 300 it takes 34 steps, fewer than
    # the first check's wait.
    p = saturating_params.replace(k7=1.8)
    g = make_grid(p, 48)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    result = simulate(p, g, ic, t_end=1000.0, stop_on_saturation=True, saturation_tol=1e-6)
    assert not result.saturated
    assert result.final_state.t == 1000.0
    assert np.abs(result.final_state.u).max() < 1e-3 * np.abs(ic.u).max()
    assert result.checks > 1
    assert 0.5 <= result.correction <= 2.0


def test_a_singular_newton_factor_does_not_stop_the_run(saturating_params, monkeypatch):
    # A start on the steady state stops at its first check; with every
    # banded factor reported singular the checks give no bound, and the run
    # goes on to t_end.
    p = saturating_params
    g = make_grid(p, 32)
    ref = _newton_steady_state(p, g, 0.42)
    start = FieldState(t=0.0, u=ref.copy())
    assert simulate(p, g, start, t_end=2000.0, stop_on_saturation=True).saturated

    def singular(gbsv):
        def wrapped(kl, ku, ab, b, **kwargs):
            lub, piv, x, _ = gbsv(kl, ku, ab, b, **kwargs)
            return lub, piv, x, 1
        return wrapped

    _patch_lapack(monkeypatch, gbsv=singular)
    assert Stepper(p, g, dt_max(p, g)).newton_correction(ref) is None
    result = simulate(p, g, start, t_end=2000.0, stop_on_saturation=True)
    assert not result.saturated
    assert result.final_state.t == 2000.0
    assert result.checks > 1 and result.correction == math.inf


def test_ladder_readme_run_tracks_radau(saturating_params):
    # The README example at N = 64 against criterion 11's Radau reference
    # at its record times: no recorded y further off than the worst of the
    # Heun ladder it replaced (4.03e-4 on this run, 1,861 steps), and a
    # stop within 20 saturation_tol of the Newton steady state.
    p = saturating_params
    g = make_grid(p, 64)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    tol = 1e-6
    result = simulate(p, g, ic, t_end=2000.0, stop_on_saturation=True, saturation_tol=tol)
    assert result.saturated and result.steps < 1861 / 5
    mode = critical_mode(p, g)
    y_ref = np.array([mode.amplitude(v) for v in _radau(p, g, ic, result.series.times)])
    assert np.abs(result.series.y - y_ref).max() <= 4.03e-4
    ref = _newton_steady_state(p, g, result.series.y[-1])
    assert _relative_distance(result.final_state.u, ref) <= 20.0 * tol


def _singular_gbtrf(monkeypatch, count):
    """Report the first ``count`` gbtrf factors singular; returns the infos reported."""
    reported = []

    def wrap(gbtrf):
        def wrapped(ab, kl, ku, **kwargs):
            lu, piv, info = gbtrf(ab, kl, ku, **kwargs)
            reported.append(1 if len(reported) < count else info)
            return lu, piv, reported[-1]
        return wrapped

    _patch_lapack(monkeypatch, gbtrf=wrap)
    return reported


def test_a_singular_linear_factor_rejects_the_rung(saturating_params, monkeypatch):
    # A gbtrf factor reported singular rejects its rung as a blow-up does,
    # and its coefficient is not factored again: the first rung's I - gamma
    # dt L is reported singular, so the run steps at dt/2, and the climb back
    # to dt fails and makes dt a ceiling.
    p = saturating_params
    g = make_grid(p, 64)
    dt = 0.5 * dt_max(p, g)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    reported = _singular_gbtrf(monkeypatch, 1)
    calls = _spy(monkeypatch, "ladder_step")
    result = simulate(p, g, ic, t_end=2.0, stop_on_saturation=True)
    assert reported == [1, 0]
    assert result.final_state.t == pytest.approx(2.0, abs=1e-12) and result.rejected == 2
    assert result.dt_range == (0.5 * dt, 0.5 * dt)
    assert {h for _, h, _ in calls} == {0.5 * dt}


def test_a_singular_linear_factor_raises_on_the_floor_rung(saturating_params, monkeypatch):
    # With every factor singular the run falls rung by rung to the floor,
    # where it raises with the state it started from.
    p = saturating_params
    g = make_grid(p, 64)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    reported = _singular_gbtrf(monkeypatch, math.inf)
    with pytest.raises(StepUnstable, match="singular") as excinfo:
        simulate(p, g, ic, t_end=2.0, stop_on_saturation=True)
    assert len(reported) == 1 - LADDER_FLOOR
    last = excinfo.value.last_state
    assert last.t == 0.0 and np.array_equal(last.u, ic.u)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ladder_blow_up_raises_on_the_floor_rung(unstable_params, bc, monkeypatch):
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 32)
    dt = dt_max(p, g)
    calls = _spy(monkeypatch, "ladder_step")
    st = initial_state(p, g, kind="aligned", amplitude=1e6)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, st, t_end=50.0, dt=dt, stop_on_saturation=True)
    last = excinfo.value.last_state
    assert last is not None and np.all(np.isfinite(last.u))
    sizes = [h for _, h, _ in calls]
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
    assert result.checks == 0 and math.isnan(result.correction)
    assert result.dt_range == (t_end - 33 * dt, dt)
    assert result.residual == float(np.abs(stepper.residual(u)).max())


@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_step_array_is_one_ladder_step_of_the_default_size(unstable_params, bc, linear_only):
    # step_array is the new state of ladder_step(u, dt), bit for bit, and
    # leaves its input as it was.
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 48)
    stepper = Stepper(p, g, dt=4.0 * dt_max(p, g), linear_only=linear_only)
    u = initial_state(p, g, kind="random", amplitude=0.1, seed=6).u
    start = u.copy()
    new = stepper.step_array(u)
    assert np.array_equal(new, stepper.ladder_step(u, stepper.dt)[0])
    assert np.array_equal(u, start)
    assert np.abs(new - u).max() > 1e-6 * np.abs(u).max()  # the step did move the state


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ladder_equals_chained_ladder_steps(saturating_params, bc, monkeypatch):
    # The ladder's twin of the test above: the run's accepted steps,
    # replayed through Stepper.ladder_step, give its final state, recorded y
    # and residual bit for bit.  Each replayed step is taken on a Stepper of
    # its own, so a factor the run reused for another step size shows.
    # Each step is accepted exactly where norms taken one array at a time
    # say so; the stop checks the Newton correction at the steps the
    # schedule names, and stops exactly where its norm, taken the same way,
    # says so.  The Dirichlet run saturates (the README example at N = 48);
    # the zero-average run starts below threshold and decays to t_end, which
    # it reaches with a shortened step.  Both start beyond the steps the
    # error test accepts, so both reject steps.
    if bc == "dirichlet":
        p, t_end = saturating_params, 2000.0
    else:
        p = ModelParams(
            k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
            d1=0.3, d2=0.3, d3=0.3, ell=4.0, bc=bc,
        )
        t_end = 2015.0
    g = make_grid(p, 48)
    dt = 400.0 * dt_max(p, g)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    tol, record_every = 1e-6, 7
    calls = _spy(monkeypatch, "ladder_step")
    result = simulate(p, g, ic, t_end=t_end, dt=dt, record_every=record_every,
                      stop_on_saturation=True, saturation_tol=tol)
    monkeypatch.undo()
    assert result.saturated == (bc == "dirichlet")
    assert result.rejected >= 1
    assert result.saturated or not math.log2(calls[-1][1] / dt).is_integer()

    stepper = Stepper(p, g, dt)
    mode = critical_mode(p, g)
    u, ys, taken, stops = ic.u.copy(), [mode.amplitude(ic.u)], 0, []
    t = base = 0.0
    rung_h, count, next_check = None, 0, 1
    bound, t_checked = math.inf, 0.0
    for i, (start, h, _) in enumerate(calls):
        assert np.array_equal(start, u)  # the run's last accepted state
        if math.log2(h / dt).is_integer() and h != rung_h:  # a new rung, not the shortened last step
            rung_h, base, count = h, t, 0
        new, error = Stepper(p, g, dt).ladder_step(u, h)
        scale = float(np.abs(new).max())
        if not (math.isfinite(scale) and float(np.abs(error).max()) <= LADDER_TOL * scale):
            rung_h = None  # a rejection starts a rung
            continue
        u, taken, count = new, taken + 1, count + 1
        t = base + count * rung_h if h == rung_h else t_end
        if taken % record_every == 0 or i == len(calls) - 1:
            ys.append(mode.amplitude(u))
        if taken == next_check:
            distance = float(np.abs(stepper.newton_correction(u)).max())
            stops.append(distance <= tol * scale)
            previous, bound = bound, distance / scale
            next_check = taken + simulator._steps_to_check(
                bound, previous, t - t_checked, tol, rung_h
            )
            t_checked = t
    assert len(stops) == result.checks > 1
    assert stops == [False] * (result.checks - 1) + [result.saturated]
    assert result.correction == bound
    assert np.array_equal(result.final_state.u, u)
    assert result.final_state.t == t
    assert np.array_equal(result.series.y, np.array(ys))
    assert result.residual == float(np.abs(stepper.residual(u)).max())
    assert result.steps == taken and result.rejected == len(calls) - taken


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
def test_ladder_step_solves_the_stage_equations(generic_rates, bc):
    # Stages (I - gamma h L) U_i = u + h sum_j (a_e[i][j] F(U_j) + a_i[i][j] L U_j),
    # new state u + h sum_i b_i (F(U_i) + L U_i) (projected on Neumann),
    # error h sum_i (b_i - b_hat_i)(F(U_i) + L U_i), with L = D lap + A
    # implicit and F = R - A u explicit (mean-projected on Neumann), on
    # dense matrices in the component-major layout.  h is far beyond the
    # explicit edge of A.  A first stage passed in gives the same step.
    p = ModelParams(bc=bc, **generic_rates)
    N = 32
    g = make_grid(p, N)
    h = 400.0 * dt_max(p, g)
    u = _project(0.3 * np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, N)), p)
    A = linearization_matrix(p)
    L = np.kron(np.diag(p.diffusion), _dense_laplacian(g)) + np.kron(A, np.eye(N))
    gamma = float(ARK_GAMMA)
    explicit, implicit = ([[float(a) for a in row] for row in m] for m in _ark_tableau())

    def F(v):
        v = v.reshape(3, N)
        return _project(_dense_terms(p, g, v)[1] - A @ v, p).reshape(-1)

    stages = [u.reshape(-1)]
    for i in (1, 2, 3):
        rhs = stages[0] + h * sum(
            explicit[i][j] * F(stages[j]) + implicit[i][j] * (L @ stages[j]) for j in range(i)
        )
        stages.append(np.linalg.solve(np.eye(3 * N) - gamma * h * L, rhs))
    slopes = [F(v) + L @ v for v in stages]
    new = stages[0] + h * sum(float(w) * k for w, k in zip(ARK_B, slopes))
    error = h * sum(float(w - wh) * k for w, wh, k in zip(ARK_B, ARK_B_HAT, slopes))
    stepper = Stepper(p, g, dt_max(p, g))
    got_new, got_error = stepper.ladder_step(u, h)
    scale = np.abs(u).max()
    assert np.abs(got_new - _project(new.reshape(3, N), p)).max() <= 1e-12 * scale
    # the estimate comes interleaved by node
    assert np.abs(got_error - error.reshape(3, N).T.reshape(-1)).max() <= 1e-12 * scale
    assert np.abs(error).max() > 1e-8 * scale  # the estimate is not trivially zero
    # the first stage: u, F(u) and L u, interleaved by node
    first = stepper.first_stage(u)
    dense = (stages[0], F(stages[0]), L @ stages[0])
    interleaved = np.array([v.reshape(3, N).T.reshape(-1) for v in dense])
    assert np.abs(first - interleaved).max() <= 1e-12 * scale
    again_new, again_error = stepper.ladder_step(u, h, first)
    assert np.array_equal(again_new, got_new) and np.array_equal(again_error, got_error)


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
def test_ladder_step_fixed_points_are_semi_discrete_steady_states(bc):
    # Equal explicit and implicit row sums make a steady state a fixed point
    # of the ARK step at every step size, to criterion 8's stepper bound:
    # from dt_max to twice the README run's largest step.
    p, g, u = _branch_steady_state(bc)
    scale = np.abs(u).max()
    stepper = Stepper(p, g, dt_max(p, g))
    assert np.abs(stepper.residual(u)).max() <= 1e-12 * scale
    for factor in (1, 16, 1024):
        u_next, error = stepper.ladder_step(u, factor * dt_max(p, g))
        assert np.abs(u_next - u).max() <= 1e-12 * scale
        assert np.abs(error).max() <= 1e-12 * scale


def _shipped(name):
    config = parse_config(CONFIGS / f"{name}.ini")
    p, sc = config.params, config.simulate
    g = make_grid(p, sc.N)
    ic = initial_state(p, g, kind=sc.ic_kind, amplitude=sc.ic_amplitude, seed=sc.seed)
    return p, g, ic, sc


def _radau(p, g, ic, times, rtol=1e-10):
    """Criterion 11's temporal reference at ``times``: Radau, rtol 1e-10 by default, atol 1e-13."""
    shape = ic.u.shape
    sol = solve_ivp(
        lambda t, y: _rhs(p, g, y.reshape(shape)).reshape(-1), (times[0], times[-1]),
        ic.u.reshape(-1), method="Radau", rtol=rtol, atol=1e-13, t_eval=times,
        jac=lambda t, y: _rhs_jacobian(p, g, y.reshape(shape)),
    )
    assert sol.success
    return sol.y.T.reshape(len(times), *shape)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_ladder_step_is_third_order_in_time(bc):
    # Criterion 11's point (sigma_11 = 0.02, N = 64) from its aligned
    # start, under both boundary conditions with the same rates: fixed
    # steps h = 0.4 ... 0.025 to T = 60 against Radau at rtol 1e-11.  The
    # observed order between successive h lies in [2.6, 3.2].
    tp = find_threshold(parse_config(CONFIGS / "canonical.ini").ray())
    p = _solve_sigma(lambda c: tp.lambda0.replace(k7=c), 0.02, (2.0, 3.5)).replace(bc=bc)
    g = make_grid(p, 64)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    T = 60.0
    ref = _radau(p, g, ic, np.array([0.0, T]), rtol=1e-11)[-1]
    stepper = Stepper(p, g, dt_max(p, g))
    errors = []
    for h in (0.4, 0.2, 0.1, 0.05, 0.025):
        u = ic.u
        for _ in range(round(T / h)):
            u, _ = stepper.ladder_step(u, h)
        errors.append(float(np.abs(u - ref).max()))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 2.6) & (orders <= 3.2)), orders


#: the worst recorded y, relative to the largest, against the Radau reference
#: of the fixed path with the default step when that path took the
#: second-order Crank-Nicolson/Heun step: the dt = auto path's bound
HEUN_FIXED_Y_ERROR = {"canonical": 3.792e-6, "neumann-jump": 1.636e-7}


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_auto_dt_is_error_controlled_on_the_fixed_path_times(name, monkeypatch):
    # dt = auto takes the error-controlled path: recorded at the times of
    # the fixed path with the default step, bit for bit, in fewer steps, and
    # against the Radau reference no worse at any record than that path was
    # with the second-order step it took before (HEUN_FIXED_Y_ERROR).
    p, g, ic, sc = _shipped(name)
    dt = 0.5 * dt_max(p, g)
    fixed = simulate(p, g, ic, t_end=sc.T, dt=dt, record_every=sc.record_every)
    sizes = []
    ladder_step = Stepper.ladder_step

    def spy(self, u, h, first=None):
        sizes.append(h)
        return ladder_step(self, u, h, first)

    monkeypatch.setattr(Stepper, "ladder_step", spy)
    auto = simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    assert np.array_equal(auto.series.times, fixed.series.times)
    assert auto.final_state.t == fixed.final_state.t

    assert auto.steps + auto.rejected == len(sizes)
    assert auto.steps < fixed.steps / 2
    # canonical's largest step is one record interval; neumann-jump's spans
    # a power of two of them, and it takes under a third of the 423 steps it
    # took with only D lap implicit (and A explicit)
    interval = sc.record_every * dt
    if name == "canonical":
        assert auto.dt_range[1] == interval
    else:
        span = auto.dt_range[1] / interval
        assert span >= 2 and span == 2.0 ** round(math.log2(span))
        assert auto.steps < 423 / 3
    assert auto.dt_range[0] in sizes and auto.dt_range[0] >= dt * 2.0**LADDER_FLOOR
    assert not auto.saturated and auto.checks == 0 and math.isnan(auto.correction)
    assert auto.residual == float(np.abs(Stepper(p, g, dt).residual(auto.final_state.u)).max())

    ref = _radau(p, g, ic, fixed.series.times)
    mode = critical_mode(p, g)
    y_ref = np.array([mode.amplitude(v) for v in ref])

    def y_error(result):
        return np.abs(result.series.y - y_ref).max() / np.abs(y_ref).max()

    assert y_error(auto) <= HEUN_FIXED_Y_ERROR[name]
    assert np.abs(auto.final_state.u - ref[-1]).max() <= 1e-5 * np.abs(ref[-1]).max()


@pytest.mark.parametrize("name", ["canonical", "neumann-jump"])
def test_auto_dt_factors_only_its_substep_bands(name, monkeypatch):
    # The error-controlled path factors I - gamma h L once per substep size
    # h, with one gbtrf call each.
    p, g, ic, sc = _shipped(name)
    calls = _spy(monkeypatch, "ladder_step")
    diagonals = []

    def spy_gbtrf(gbtrf):
        def spy(ab, kl, ku, **kwargs):
            diagonals.append(float(ab[kl + ku, 0]))  # 1 - gamma h L[0, 0]
            return gbtrf(ab, kl, ku, **kwargs)
        return spy

    _patch_lapack(monkeypatch, gbtrf=spy_gbtrf)
    simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    sizes = {h for _, h, _ in calls}
    assert len(sizes) >= 3
    l00 = _linear_operator(p, g)[0, 0]
    expected = sorted(1.0 - float(ARK_GAMMA) * h * l00 for h in sizes)
    assert np.allclose(sorted(diagonals), expected, rtol=1e-14, atol=0.0)


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
    # longer than any step the error test accepts there: the run finds its
    # substep by rejection, without StepUnstable, and stays on the zero-mean
    # subspace.
    p, g, ic, sc = _shipped("neumann-jump")
    result = simulate(p, g, ic, t_end=sc.T, record_every=1000)
    dt = 0.5 * dt_max(p, g)
    assert result.rejected >= 1
    assert result.dt_range[1] <= 0.5 * 1000 * dt
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
    ladder_step = Stepper.ladder_step

    def blows_up_after_one(self, u, h, first=None):
        sizes.append(h)
        new, error = ladder_step(self, u, h, first)
        if len(sizes) > 1:
            return np.full_like(new, np.inf), error
        good.append(new)
        return new, error

    monkeypatch.setattr(Stepper, "ladder_step", blows_up_after_one)
    monkeypatch.setattr(simulator, "ARK_TOL", math.inf)  # only a blow-up rejects
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, ic, t_end=5.0, record_every=10)
    # one substep of one record interval, then halving down to the floor
    floor = math.ldexp(10 * dt, -(3 - LADDER_FLOOR))
    assert sizes[:1] == [10 * dt]
    assert sizes[1:] == [math.ldexp(10 * dt, -k) for k in range(0, 4 - LADDER_FLOOR)]
    assert floor >= dt * 2.0**LADDER_FLOOR
    last = excinfo.value.last_state
    assert last is not None and np.array_equal(last.u, good[-1])
    assert last.t == 10 * dt


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_auto_dt_blow_up_in_a_multi_interval_step_retries_shorter_spans(
    unstable_params, bc, monkeypatch
):
    # With every error test passed, the span doubles wherever the next
    # position is a multiple of the doubled span: steps over 1, 1, 2, 4 and
    # 8 record intervals, then 16 from interval 16 of the run's 40.  That
    # step and every retry blow up: the span halves back to one interval at
    # the same position, the substeps down to the floor, and the floor's
    # blow-up raises with the state at interval 16.
    p = unstable_params.replace(bc=bc)
    g = make_grid(p, 32)
    dt = 0.5 * dt_max(p, g)
    interval = 10 * dt
    sizes, good = [], []
    ladder_step = Stepper.ladder_step

    def blows_up_after_five(self, u, h, first=None):
        sizes.append(h)
        new, error = ladder_step(self, u, h, first)
        if len(sizes) > 5:
            return np.full_like(new, np.inf), error
        good.append(new)
        return new, error

    monkeypatch.setattr(Stepper, "ladder_step", blows_up_after_five)
    monkeypatch.setattr(simulator, "ARK_TOL", math.inf)
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    with pytest.raises(StepUnstable) as excinfo:
        simulate(p, g, ic, t_end=5.0, record_every=10)
    assert simulator._fixed_steps(5.0, dt) == (400, False)  # 40 record intervals
    assert sizes[:5] == [interval * n for n in (1, 1, 2, 4, 8)]
    assert sizes[5:] == [math.ldexp(interval, -k) for k in range(-4, 4 - LADDER_FLOOR)]
    last = excinfo.value.last_state
    assert last is not None and np.array_equal(last.u, good[-1])
    assert last.t == 160 * dt


def test_auto_dt_singular_factor_rejects_the_substep(monkeypatch):
    # A gbtrf factor reported singular rejects its substep as a blow-up
    # does, and its step size is not factored again: canonical's first
    # substep, one record interval, is reported singular, so the run covers
    # every interval in halves or less.
    p, g, ic, sc = _shipped("canonical")
    reported = _singular_gbtrf(monkeypatch, 1)
    result = simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    interval = sc.record_every * 0.5 * dt_max(p, g)
    assert reported[0] == 1 and reported.count(1) == 1
    assert result.rejected >= 1 and result.dt_range[1] == interval / 2
    assert result.final_state.t == sc.T and np.all(np.isfinite(result.final_state.u))


def test_auto_dt_singular_factor_raises_at_the_smallest_substep(monkeypatch):
    # With every factor singular the substeps of the first record interval
    # halve down to the floor, where the run raises with its initial state.
    p, g, ic, sc = _shipped("canonical")
    reported = _singular_gbtrf(monkeypatch, math.inf)
    with pytest.raises(StepUnstable, match="singular") as excinfo:
        simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    # substeps of 10 dt / 2**k, k = 0 .. 3 - LADDER_FLOOR (at least dt * 2**LADDER_FLOOR)
    assert len(reported) == 4 - LADDER_FLOOR
    last = excinfo.value.last_state
    assert last.t == 0.0 and np.array_equal(last.u, ic.u)


def test_auto_dt_long_steps_are_aligned_and_interpolate_their_records(monkeypatch):
    # Replays neumann-jump's dt = auto run from its ladder_step calls.  A call
    # was accepted when the next one starts from its new state (the run
    # keeps that array), or when its new state is the final one.  A step over
    # more than one record interval spans a power of two of them, starts on
    # a multiple of that span, ends before the run's last interval and
    # passed the error test with a factor of 8 to spare.  Its end record is
    # the new state's y, and the records inside it lie on the cubic Hermite
    # interpolant of y and y' (the amplitude of the residual) at its ends.
    p, g, ic, sc = _shipped("neumann-jump")
    calls = []
    ladder_step = Stepper.ladder_step

    def spy(self, u, h, first=None):
        new, error = ladder_step(self, u, h, first)
        calls.append((u, h, new, error))
        return new, error

    monkeypatch.setattr(Stepper, "ladder_step", spy)
    result = simulate(p, g, ic, t_end=sc.T, record_every=sc.record_every)
    interval = sc.record_every * 0.5 * dt_max(p, g)
    residual = Stepper(p, g, interval).residual
    mode = critical_mode(p, g)
    y = result.series.y
    last = len(y) - 2  # the run's last record interval
    following = [call[0] for call in calls[1:]] + [result.final_state.u]
    position, long_steps = 0.0, 0
    for (u, h, new, error), after in zip(calls, following):
        if after is not new:
            assert after is u
            continue
        span = h / interval
        if span > 1:
            j, n = int(position), int(span)
            assert position == j and span == n == 2 ** round(math.log2(n))
            assert j % n == 0 and j + n <= last
            assert 8.0 * np.abs(error).max() <= simulator.ARK_TOL * np.abs(new).max()
            assert y[j] == mode.amplitude(u) and y[j + n] == mode.amplitude(new)
            spline = CubicHermiteSpline(
                [0.0, h], [y[j], y[j + n]],
                [mode.amplitude(residual(u)), mode.amplitude(residual(new))],
            )
            inside = spline(interval * np.arange(1, n))
            assert np.abs(y[j + 1 : j + n] - inside).max() <= 1e-12 * np.abs(y).max()
            long_steps += 1
        position += span
    assert long_steps >= 100


@pytest.mark.parametrize("span", [2, 4, 16, 128, 3, 100])
def test_auto_dt_hermite_records_are_the_scalar_formula_bit_for_bit(span):
    # the scalar loop the records were computed by, kept as the reference
    rng = np.random.default_rng(span)
    for y0, y1, dy0, dy1 in rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-8, 3, (50, 4)):
        y0, y1, dy0, dy1 = float(y0), float(y1), float(dy0), float(dy1)
        reference = []
        for q in range(1, span):
            s = q / span
            reference.append((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0
                             + s * s * (3.0 - 2.0 * s) * y1
                             + s * (1.0 - s) * ((1.0 - s) * dy0 - s * dy1))
        assert simulator._hermite_records(span, y0, y1, dy0, dy1) == reference


def test_auto_dt_long_run_keeps_zero_means(monkeypatch):
    # neumann-jump from below its repeller to t = 200, mostly in steps over
    # 2-8 record intervals: every state the run computes keeps zero
    # component means.
    p, g, _, sc = _shipped("neumann-jump")
    ic = initial_state(p, g, kind="aligned", amplitude=0.01)
    worst = []
    ladder_step = Stepper.ladder_step

    def spy(self, u, h, first=None):
        new, error = ladder_step(self, u, h, first)
        worst.append(np.abs(new.mean(axis=1)).max())
        return new, error

    monkeypatch.setattr(Stepper, "ladder_step", spy)
    result = simulate(p, g, ic, t_end=200.0, record_every=sc.record_every)
    interval = sc.record_every * 0.5 * dt_max(p, g)
    assert result.final_state.t == 200.0 and result.dt_range[1] >= 4 * interval
    assert len(worst) < len(result.series.times) / 2
    assert max(worst) <= 1e-12


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_simulate_rejects_a_saturation_tol_that_is_not_finite_and_positive(unstable_params, tol):
    # Before, such a run could not stop and went on to t_end.  A run that
    # does not stop on saturation does not read the tolerance.
    g = make_grid(unstable_params, 16)
    ic = initial_state(unstable_params, g, kind="aligned", amplitude=0.01)
    with pytest.raises(ValueError, match="saturation_tol must be finite and positive"):
        simulate(unstable_params, g, ic, t_end=1.0, stop_on_saturation=True,
                 saturation_tol=tol)
    simulate(unstable_params, g, ic, t_end=0.1, dt=0.01, saturation_tol=tol)
