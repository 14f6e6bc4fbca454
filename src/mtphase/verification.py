"""Numbered end-to-end verification suite with independent oracles.

Twelve checks cover the full analysis chain: steady-state algebra, the spectral
solver against a companion-matrix oracle, the mode-matrix scaling identity,
threshold location against a polynomial-bisection oracle, exchange of
stability at random thresholds, two-path agreement of the branch
coefficients, simulated mixed-branch (Dirichlet) amplitudes and Newton-solved
pitchfork-branch (Neumann) amplitudes against their predictions, jump
behavior where the cubic coefficient is positive, the constrained
closed-form identity for the transition number, simulator convergence
orders, and byte-level reproducibility of the artifact pipeline.

Every simulated check takes the simulator's one step,
:meth:`mtphase.simulator.Stepper.ladder_step`: criteria 7 and 9 and the
spatial part of 11 on the step ladder of
:func:`mtphase.simulator.simulate`, the temporal part of 11 on its fixed
path, and criterion 8's fixed-point check through
:meth:`~mtphase.simulator.Stepper.step_array`.  The oracles stay
independent of the stepper: a Newton solve of the semi-discrete steady
state (criteria 8 and 11) and a Radau integration of the semi-discrete
system (the temporal reference of criterion 11) share only the
right-hand side of :func:`_rhs` and its exact Jacobian
:func:`_rhs_jacobian`, assembled apart from the stepper's band.

Each criterion is a standalone function returning ``(passed, detail)``;
:func:`run_all` wraps them with timing and collects
:class:`CriterionResult` records.  All randomness is drawn from seeded
generators so every run is reproducible.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import artifacts
from .config import RunConfig, config_sha256, parse_config_text
from .errors import MTPhaseError, NumericalError, StepUnstable
from .model import (
    BoundaryCondition,
    ModelParams,
    linearization_matrix,
    quadratic_nonlinearity,
    reaction_rhs,
    steady_state,
)
from .output import read_manifest, write_manifest
from .simulator import (
    Stepper,
    critical_mode,
    dt_max,
    initial_state,
    laplacian_apply,
    make_grid,
    simulate,
)
from .spectral import (
    char_poly_coeffs,
    companion_roots,
    laplacian_eigenvalue,
    mode_matrices,
    mode_matrix,
    mode_spectra,
    principal_eigenvalue,
    solve_spectrum,
)
from .threshold import ParameterRay, brentq, cond1_ok, find_threshold
from .transition import (
    TransitionType,
    classify_transition,
    transition_number,
    transition_number_simplified,
)

__all__ = [
    "CriterionResult",
    "DEFAULT_SEED",
    "CRITERIA",
    "run_all",
    "default_verify_config",
]

DEFAULT_SEED = 20260825

#: relative change under one IMEX step below which a solved steady state
#: counts as a fixed point of the stepper
_FIXED_POINT_TOL = 1e-12

#: a defect below this is rounding, whose digits depend on the BLAS thread
#: count; a detail string prints it as "< 1e-13"
_ROUNDING_LEVEL = 1e-13

#: Newton iterations after which a steady-state solve counts as not converged
_NEWTON_MAX_ITER = 50


def _packaged_config(name: str) -> RunConfig:
    """The configuration ``configs/<name>.ini`` shipped inside the package."""
    ini = resources.files(__package__) / "configs" / f"{name}.ini"
    return parse_config_text(ini.read_text(encoding="utf-8"))


def default_verify_config() -> RunConfig:
    """The packaged ``canonical.ini``: criteria 4, 6, 7 and 11 take the
    canonical threshold from its ray, and criterion 12 replays the artifact
    pipeline on it unless another configuration is given."""
    return _packaged_config("canonical")


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one numbered verification criterion."""

    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# shared generators and helpers


def _random_params(
    rng: np.random.Generator,
    rate_range: tuple[float, float] = (0.3, 3.0),
    diff_range: tuple[float, float] = (0.05, 1.0),
    ell_range: tuple[float, float] = (2.0, 6.0),
    bc: str = "dirichlet",
    k1_margin: float = 0.3,
    max_tries: int = 200,
) -> ModelParams:
    """Draw a feasible parameter set (log-uniform rates, K1 bounded away from 0)."""
    lo, hi = np.log10(rate_range[0]), np.log10(rate_range[1])
    dlo, dhi = np.log10(diff_range[0]), np.log10(diff_range[1])
    for _ in range(max_tries):
        k1, k3, k5, k7, C1, E = 10.0 ** rng.uniform(lo, hi, 6)
        d1, d2, d3 = 10.0 ** rng.uniform(dlo, dhi, 3)
        ell = rng.uniform(*ell_range)
        if C1 * k1 * k7 - k3 * k5 * E <= k1_margin * C1 * k1 * k7:
            continue
        return ModelParams(
            k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E,
            d1=d1, d2=d2, d3=d3, ell=ell, bc=bc,
        )
    raise RuntimeError("random parameter generator failed to find a feasible point")


def _solve_sigma(make_p: Callable[[float], ModelParams], target: float,
                 bracket: tuple[float, float]) -> ModelParams:
    """Parameter point on a one-parameter family with Re sigma_11 = target."""
    coord = brentq(
        lambda c: principal_eigenvalue(make_p(c)).real - target,
        *bracket, xtol=1e-14,
    )
    return make_p(coord)


def _rhs(p: ModelParams, grid, u: np.ndarray) -> np.ndarray:
    """The semi-discrete right-hand side ``D lap u + A u + F(u)`` at ``u``, (3, N).

    Assembled from the model's functions and :func:`laplacian_apply`, apart
    from the stepper's banded :meth:`Stepper.residual`; mean-projected
    under zero-average Neumann conditions.
    """
    r = p.diffusion[:, None] * laplacian_apply(grid, u) + linearization_matrix(p) @ u
    r += quadratic_nonlinearity(p, u)
    if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        r -= r.mean(axis=1, keepdims=True)
    return r


def _rhs_jacobian(p: ModelParams, grid, u: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the semi-discrete right-hand side at ``u``, (3N, 3N).

    The right-hand side is :func:`_rhs` on the flattened field.  ``F`` is
    quadratic, so its derivative along ``v`` is ``(F(u + v) - F(u - v)) /
    2`` with no truncation error.  Under zero-average Neumann conditions
    the right-hand side is mean-projected, and so is each block row of the
    Jacobian.
    """
    N = grid.N
    A = linearization_matrix(p)
    d = p.diffusion
    lap = laplacian_apply(grid, np.eye(N)).T
    jac = np.zeros((3 * N, 3 * N))
    for j in range(3):
        unit = np.zeros((3, N))
        unit[j] = 1.0
        local = A[:, j, None] + 0.5 * (
            quadratic_nonlinearity(p, u + unit) - quadratic_nonlinearity(p, u - unit)
        )
        for i in range(3):
            block = np.diag(local[i])
            if i == j:
                block += d[i] * lap
            jac[i * N:(i + 1) * N, j * N:(j + 1) * N] = block
    if p.bc is BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        for i in range(3):
            rows = jac[i * N:(i + 1) * N]
            rows -= rows.mean(axis=0)
    return jac


def _newton_update(p: ModelParams, grid, u: np.ndarray) -> np.ndarray:
    """One dense Newton update of the semi-discrete steady state at ``u``, (3, N).

    Solves ``J du = -r`` for the right-hand side ``r`` of :func:`_rhs` and
    its exact Jacobian :func:`_rhs_jacobian`.  Under zero-average Neumann
    conditions both are mean-projected, and the projected Jacobian,
    singular on the full space, is bordered by the three component-mean
    constraints ``mean(u + du) = 0``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the (bordered) Jacobian is singular.
    """
    N = grid.N
    n = 3 * N
    r = _rhs(p, grid, u)
    jac = _rhs_jacobian(p, grid, u)
    if p.bc is not BoundaryCondition.NEUMANN_ZERO_AVERAGE:
        return np.linalg.solve(jac, -r.reshape(-1)).reshape(3, N)
    means = np.kron(np.eye(3), np.ones((1, N)))  # one row per component
    bordered = np.block([[jac, means.T], [means, np.zeros((3, 3))]])
    rhs_vec = np.concatenate([-r.reshape(-1), -means @ u.reshape(-1)])
    return np.linalg.solve(bordered, rhs_vec)[:n].reshape(3, N)


def _newton_steady_state(p: ModelParams, grid, y_init: float) -> np.ndarray:
    """Steady state of the semi-discrete system via Newton's method.

    Independent of the time stepper: solves ``D lap u + A u + F(u) = 0``
    directly with the dense updates of :func:`_newton_update`, starting
    from the aligned first-mode profile with amplitude ``y_init``.  Under
    zero-average Neumann conditions the state is kept on the zero-mean
    subspace.

    Raises
    ------
    NumericalError
        If a Newton system is singular or the update has not fallen to
        rounding level after ``_NEWTON_MAX_ITER`` iterations.
    """
    mode = critical_mode(p, grid)
    u = y_init * mode.omega[:, None] * mode.e1[None, :]
    for _ in range(_NEWTON_MAX_ITER):
        try:
            du = _newton_update(p, grid, u)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Newton system: {exc}") from None
        u = u + du
        if np.abs(du).max() < 1e-13 * max(1.0, np.abs(u).max()):
            return u
    raise NumericalError(
        f"Newton steady-state solve did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(last update {np.abs(du).max():.3e})"
    )


# ---------------------------------------------------------------------------
# criteria


def criterion_1_steady_state(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Steady-state residual is at rounding level for 1000 random parameter sets."""
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(1000):
        p = _random_params(rng, rate_range=(0.05, 20.0), diff_range=(0.01, 5.0))
        ss = steady_state(p)
        residual = np.abs(reaction_rhs(p, ss.as_array()))
        g, s, f = ss.Mg, ss.Ms, ss.Df
        scales = np.array([
            max(p.k7 * f * g, p.k5 * f * s, p.k1 * f),
            max(p.k7 * f * g, p.k5 * f * s, p.E),
            max(p.k3 * f * g, p.C1 * s, p.k1 * f, p.E),
        ])
        worst = max(worst, float(np.max(residual / scales)))
    return worst <= 1e-12, f"max relative steady-state residual {worst:.3e} (tol 1e-12)"


def criterion_2_spectral(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Eigenpair residuals below 1e-10, and :func:`solve_spectrum`, the
    solver behind every reported eigenvalue, within 1e-10 of the companion
    roots of each block's characteristic coefficients."""
    rng = np.random.default_rng([seed, 2])
    worst_pair = 0.0
    for _ in range(500):
        p = _random_params(rng)
        for spec in mode_spectra(p, 3):
            emat = mode_matrix(p, spec.mode.rho)
            scale = float(np.abs(emat).max())
            for i in range(3):
                fwd = np.abs(emat @ spec.omega[i] - spec.sigma[i] * spec.omega[i]).max()
                adj = np.abs(
                    spec.omega_star[i] @ emat - spec.sigma[i] * spec.omega_star[i]
                ).max()
                rel = max(
                    fwd / (np.abs(spec.omega[i]).max() * scale),
                    adj / (np.abs(spec.omega_star[i]).max() * scale),
                )
                worst_pair = max(worst_pair, float(rel))

    # one stacked draw and solve: the same numbers as 10^4 single ones
    mats = rng.uniform(-2.0, 2.0, (10_000, 3, 3))
    worst_root = max(
        float(np.abs(ours - companion_roots(*char_poly_coeffs(mat))).max())
        for mat, ours in zip(mats, solve_spectrum(mats))
    )

    passed = worst_pair <= 1e-10 and worst_root <= 1e-10
    return passed, (
        f"max eigenpair residual {worst_pair:.3e} over 500 params x 3 modes, "
        f"max solve_spectrum deviation from companion roots {worst_root:.3e} "
        f"over 10^4 matrices (tol 1e-10)"
    )


def criterion_3_scaling(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Mode-m block equals the principal block at rescaled diffusivities."""
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(1000):
        p = _random_params(rng, rate_range=(0.05, 20.0), diff_range=(0.01, 5.0))
        m = int(rng.integers(2, 51))
        rho1 = laplacian_eigenvalue(1, p.ell)
        rho_m = laplacian_eigenvalue(m, p.ell)
        target = mode_matrix(p, rho_m)
        scale = rho_m / rho1
        rescaled = mode_matrix(
            p.replace(d1=p.d1 * scale, d2=p.d2 * scale, d3=p.d3 * scale), rho1
        )
        worst = max(
            worst, float(np.abs(target - rescaled).max() / np.abs(target).max())
        )
    return worst <= 1e-14, (
        f"max relative mode-matrix mismatch {worst:.3e} over 1000 draws, m <= 50 "
        f"(tol 1e-14)"
    )


def criterion_4_canonical_threshold(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Canonical threshold equals the positive root of the reduced cubic."""
    tp = find_threshold(default_verify_config().ray())

    def poly(d: float) -> float:
        return d**3 + 5.0 * d**2 + 5.0 * d - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    dev_oracle = abs(tp.ray_coord - oracle)
    dev_quoted = abs(tp.ray_coord - 0.17009)
    passed = dev_oracle <= 1e-10 and dev_quoted <= 1e-4
    return passed, (
        f"critical diffusivity {tp.ray_coord:.10f}, bisection oracle {oracle:.10f} "
        f"(|diff| {dev_oracle:.2e}), quoted value offset {dev_quoted:.2e}"
    )


def criterion_5_exchange_of_stability(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Only the principal eigenvalue crosses at 100 random admissible thresholds;
    the certificate agrees flag by flag with the eigenvalues of modes 1..50."""
    rng = np.random.default_rng([seed, 5])
    accepted = 0
    attempts = 0
    worst_band = 0.0
    worst_higher = -np.inf
    while accepted < 100 and attempts < 2000:
        attempts += 1
        base = _random_params(rng)
        weights = 10.0 ** rng.uniform(-1.0, 0.0, 3)
        ray = ParameterRay(
            base=base,
            direction={"d1": weights[0], "d2": weights[1], "d3": weights[2]},
            bracket=(1e-3, 100.0),
        )
        try:
            tp = find_threshold(ray)
        except MTPhaseError:
            continue
        if not cond1_ok(tp.lambda0):
            continue
        accepted += 1
        rho = laplacian_eigenvalue(np.arange(1, 51), tp.lambda0.ell)
        s = solve_spectrum(mode_matrices(tp.lambda0, rho))
        higher = float(s[1:, 0].real.max())
        worst_band = max(worst_band, abs(s[0, 0]))
        worst_higher = max(worst_higher, higher)
        flags = {
            "sigma11_in_band": abs(s[0, 0]) <= 1e-8,
            "sigma11_simple": np.all(np.abs(s[0, 1:] - s[0, 0]) > 1e-6),
            "mode1_rest_stable": np.all(s[0, 1:].real < 0.0),
            "higher_modes_stable": higher < 0.0,
            "traces_negative": np.all(s.sum(axis=1).real < 0.0),
            "p1_positive": np.all((s[:, 0] * s[:, 1] + s[:, 2] * (s[:, 0] + s[:, 1])).real > 0.0),
        }
        report = tp.stability_report
        differ = [name for name, value in flags.items() if getattr(report, name) is not bool(value)]
        if differ or not (report.passed and all(flags.values())):
            return False, (
                f"stability exchange failed at threshold #{accepted}: sigma11={s[0, 0]!r}, "
                f"re(sigma12)={s[0, 1].real:.3e}, re(sigma13)={s[0, 2].real:.3e}, "
                f"max higher-mode Re={higher:.3e}, flags unlike the eigenvalues: {differ}"
            )
    if accepted < 100:
        return False, f"only {accepted} admissible thresholds found in {attempts} draws"
    return True, (
        f"100 thresholds (from {attempts} draws): max |sigma11| {worst_band:.2e} "
        f"(band 1e-8), all other eigenvalues stable "
        f"(max higher-mode Re {worst_higher:.3e}, modes up to 50)"
    )


def criterion_6_quadratic_coefficient(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Closed-form and quadrature branch coefficients agree; canonical value."""
    tp = find_threshold(default_verify_config().ray())
    report = classify_transition(tp)
    closed = report.quadratic_coeff
    quad = report.quadratic_coeff_quadrature
    diff = abs(closed - quad) / abs(closed)
    dev = abs(closed - (-0.0747))
    passed = diff <= 1e-10 and dev <= 1e-3
    return passed, (
        f"closed form {closed:.10f}, quadrature {quad:.10f} "
        f"(rel diff {diff:.2e}, tol 1e-10); canonical offset {dev:.2e} (tol 1e-3)"
    )


def criterion_7_mixed_branch(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Simulated saturated amplitude tracks the predicted mixed-branch value.

    The canonical threshold is unfolded in the growth-to-shrinkage rate
    ``k7`` (the second-order branch correction along this direction stays
    inside the 10 % comparison band for all three eigenvalue offsets).
    """
    tp = find_threshold(default_verify_config().ray())
    report = classify_transition(tp)
    alpha = report.quadratic_coeff
    p_star = tp.lambda0
    errors = []
    parts = []
    for target in (0.02, 0.01, 0.005):
        p = _solve_sigma(lambda c: p_star.replace(k7=c), target, (2.0, 3.5))
        grid = make_grid(p, 128)
        ic = initial_state(p, grid, kind="aligned", amplitude=0.01)
        result = simulate(
            p, grid, ic, t_end=4000.0, dt=dt_max(p, grid), record_every=100,
            stop_on_saturation=True, saturation_tol=1e-5,
        )
        if not result.saturated:
            return False, f"run at sigma11={target} did not saturate by t=4000"
        y_pred = report.branch_amplitudes(target)[0]
        y_sim = result.series.y[-1]
        rel = abs(y_sim - y_pred) / abs(y_pred)
        errors.append(rel)
        parts.append(f"sigma11={target}: sim {y_sim:.5f} vs pred {y_pred:.5f} ({rel:.2%})")
    within = all(err <= 0.10 for err in errors)
    monotone = all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))
    return within and monotone, "; ".join(parts) + (
        "; errors non-increasing" if monotone else "; errors NOT non-increasing"
    )


def _unfolding_bracket(
    ray: ParameterRay, s_star: float, target: float
) -> tuple[float, float] | None:
    """Ray interval from the threshold ``s_star`` to where Re sigma_11 passes ``target``.

    Tries halving and doubling the ray coordinate; None if neither side
    reaches ``target``.
    """
    for end in (0.5 * s_star, 2.0 * s_star):
        if (principal_eigenvalue(ray.at(end)).real - target) * target > 0.0:
            return (min(s_star, end), max(s_star, end))
    return None


def _b_range(values: list[float]) -> str:
    if not values:
        return "0"
    return f"{len(values)} (b in [{min(values):.3e}, {max(values):.3e}])"


def criterion_8_pitchfork_branch(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Square-root branch law of the cubic reduction at a zero-average threshold.

    A seeded search over 250 random Neumann zero-average thresholds reports
    the range of the transition number ``b``, split into genuine thresholds
    (stability-exchange report passes) and the rest.  The first genuine
    threshold that :func:`classify_transition` calls type I (``b < 0``) is
    used if one turns up, otherwise the jump point of the packaged
    ``neumann-jump.ini`` (``b > 0``).  The pitchfork pair
    ``+/- sqrt(-sigma11/b)`` is checked on the side of the threshold where
    :meth:`TransitionReport.branch_amplitudes` places it: above it for type
    I, below it (the repeller ring) for type II.  At ``|sigma11|`` = 0.01
    and 0.005 both branches are solved by a mean-projected Newton
    solve at N = 96.  Each solved state must be a fixed point of
    :meth:`Stepper.step_array` (the scheme's fixed points are exactly the
    semi-discrete steady states), lie within 10 % of the predicted
    amplitude with an error that does not grow toward the threshold, and
    mirror the other branch to 1e-3.
    """
    rng = np.random.default_rng([seed, 8])
    genuine: list[float] = []
    other: list[float] = []
    found = None
    for _ in range(1200):
        if len(genuine) + len(other) >= 250 or found is not None:
            break
        try:
            base = _random_params(
                rng,
                rate_range=(0.316, 10.0),
                diff_range=(0.1, 1.0),
                ell_range=(3.0, 10.0),
                bc="neumann-zero-average",
                k1_margin=0.05,
            )
            ray = ParameterRay(
                base=base,
                direction={"d1": base.d1, "d2": base.d2, "d3": base.d3},
                bracket=(1e-3, 50.0),
            )
            tp = find_threshold(ray)
            report = classify_transition(tp)
        except MTPhaseError:
            continue
        b = report.transition_number
        if tp.stability_report.passed:
            genuine.append(b)
            if report.transition_type is TransitionType.TYPE_I:
                found = (ray, tp)
        else:
            other.append(b)
    parts = [
        f"sampled thresholds: genuine {_b_range(genuine)}, "
        f"not genuine {_b_range(other)}"
    ]

    if found is None:
        ray = _packaged_config("neumann-jump").ray()
        tp = find_threshold(ray)
        if not tp.stability_report.passed:
            return False, "; ".join(parts + ["frozen jump point is not a genuine threshold"])
        source = "no genuine b < 0 sampled, frozen jump point"
    else:
        ray, tp = found
        source = "genuine b < 0 threshold"
    report = classify_transition(tp)
    side = 1.0 if report.branch_amplitudes(1.0) else -1.0
    parts.append(
        f"{source}: b={report.transition_number:.4e} "
        f"({report.transition_type.value}) at ray coordinate {tp.ray_coord:.5f}"
    )

    passed = True
    errors = []
    for magnitude in (0.01, 0.005):
        target = side * magnitude
        predicted = report.branch_amplitudes(target)
        bracket = _unfolding_bracket(ray, tp.ray_coord, target)
        if len(predicted) != 2 or bracket is None:
            return False, "; ".join(parts + [f"no branch pair at sigma11={target}"])
        p = _solve_sigma(ray.at, target, bracket)
        grid = make_grid(p, 96)
        stepper = Stepper(p, grid, dt_max(p, grid))
        mode = critical_mode(p, grid)
        solved, fixed = [], []
        try:
            for y_pred in predicted:
                u = _newton_steady_state(p, grid, y_pred)
                solved.append(mode.amplitude(u))
                fixed.append(float(np.abs(stepper.step_array(u) - u).max() / np.abs(u).max()))
        except (NumericalError, StepUnstable) as exc:
            return False, "; ".join(parts + [f"sigma11={target}: {exc}"])
        rel = [abs(y - y_pred) / abs(y_pred) for y, y_pred in zip(solved, predicted)]
        mirror = abs(solved[0] + solved[1]) / abs(solved[0])
        errors.append(rel)
        parts.append(
            f"sigma11={target}: solved {solved[0]:.5f}/{solved[1]:.5f} "
            f"vs ±{predicted[0]:.5f} ({rel[0]:.2%}/{rel[1]:.2%}), "
            f"mirror defect {_defect(mirror, '.2e')}, "
            f"Stepper fixed-point defect {_defect(fixed[0], '.1e')}/{_defect(fixed[1], '.1e')}"
        )
        passed = passed and max(rel) <= 0.10 and mirror <= 1e-3
        passed = passed and max(fixed) <= _FIXED_POINT_TOL
    monotone = all(errors[1][k] <= errors[0][k] + 1e-12 for k in range(2))
    return passed and monotone, "; ".join(parts) + (
        "; errors non-increasing" if monotone else "; errors NOT non-increasing"
    )


def _defect(value: float, spec: str) -> str:
    """``value`` in format ``spec``, or ``"< 1e-13"`` below :data:`_ROUNDING_LEVEL`."""
    return f"< {_ROUNDING_LEVEL:g}" if value < _ROUNDING_LEVEL else format(value, spec)


def _jump_outcome(p: ModelParams, grid, y0: float, t_max: float) -> tuple[str, float]:
    """Run an aligned start of amplitude ``y0`` on the step ladder and read its fate.

    ``("grew", t)`` where ``|y|`` first reaches ``10 |y0|``, or where the
    run blows up on the floor rung (the state left the small-amplitude
    window growing); ``("decayed", t)`` where ``|y|`` first reaches
    ``1e-8``; otherwise ``("timeout", t)`` at the final time, a saturated
    stop included.  Every accepted step is recorded, and a level's time is
    its crossing, log-linear in ``|y|`` between the two records that
    bracket it, so that it follows the solution and not the step sizes.
    """
    ic = initial_state(p, grid, kind="aligned", amplitude=y0)
    try:
        result = simulate(
            p, grid, ic, t_end=t_max, dt=dt_max(p, grid), record_every=1,
            stop_on_saturation=True,
        )
    except StepUnstable as exc:
        return "grew", exc.last_state.t
    y = np.abs(result.series.y)
    times = result.series.times
    grew = y >= 10.0 * abs(y0)
    hits = np.flatnonzero(grew | (y <= 1e-8))
    if hits.size == 0:
        return "timeout", result.final_state.t
    k = hits[0]
    level = 10.0 * abs(y0) if grew[k] else 1e-8
    t = float(times[k])
    if k > 0:
        s = np.log(level / y[k - 1]) / np.log(y[k] / y[k - 1])
        t = float(times[k - 1] + s * (times[k] - times[k - 1]))
    return ("grew" if grew[k] else "decayed"), t


def criterion_9_jump_behavior(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Jump behavior where the cubic coefficient is positive.

    At the zero-average point of the packaged ``neumann-jump.ini``, whose
    transition number is strongly positive, slightly below threshold: an
    aligned state at twice the repeller amplitude must grow tenfold within
    t = 400, one at half the repeller amplitude must decay to 1e-8 within
    t = 1500.  Both runs go through
    :func:`simulate` on its step ladder.
    """
    ray = _packaged_config("neumann-jump").ray()
    tp = find_threshold(ray)
    b = transition_number(tp.lambda0)
    if b <= 0.0:
        return False, f"frozen point lost its positive transition number: b={b:.3e}"
    target = -0.02
    p = _solve_sigma(ray.at, target, (tp.ray_coord, 2.0 * tp.ray_coord))
    y_star = float(np.sqrt(-target / b))
    grid = make_grid(p, 64)

    outcome_hi, t_hi = _jump_outcome(p, grid, 2.0 * y_star, t_max=400.0)
    outcome_lo, t_lo = _jump_outcome(p, grid, 0.5 * y_star, t_max=1500.0)
    passed = outcome_hi == "grew" and outcome_lo == "decayed"
    reached = " to 1e-8" if outcome_lo == "decayed" else ""
    return passed, (
        f"b={b:.4f}, repeller amplitude {y_star:.4f} at sigma11={target}; "
        f"IC at 2.0x: {outcome_hi} (t={t_hi:.1f}), "
        f"IC at 0.5x: {outcome_lo}{reached} (t={t_lo:.1f})"
    )


def criterion_10_constrained_identity(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """General and closed-form transition numbers agree on the constrained family.

    Points satisfy k1 = E = 1 and C1 k7 = k3 (k5 + rho1 d2); the general
    assembly through the slaved second mode must match the closed-form
    product expression to 1e-10 relative.
    """
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    produced = 0
    tries = 0
    while produced < 100 and tries < 2000:
        tries += 1
        k3, k5, k7 = 10.0 ** rng.uniform(np.log10(0.3), np.log10(3.0), 3)
        d1, d2, d3 = 10.0 ** rng.uniform(np.log10(0.05), 0.0, 3)
        ell = rng.uniform(2.0, 6.0)
        rho1 = laplacian_eigenvalue(1, ell)
        C1 = k3 * (k5 + rho1 * d2) / k7
        try:
            p = ModelParams(
                k1=1.0, k3=k3, k5=k5, k7=k7, C1=C1, E=1.0,
                d1=d1, d2=d2, d3=d3, ell=ell, bc="neumann-zero-average",
            )
            general = transition_number(p)
            simplified = transition_number_simplified(p)
        except MTPhaseError:
            continue
        produced += 1
        denom = max(abs(general), abs(simplified))
        if denom > 0.0:
            worst = max(worst, abs(general - simplified) / denom)
    if produced < 100:
        return False, f"only {produced} constrained points produced in {tries} draws"
    return worst <= 1e-10, (
        f"max relative two-path deviation {worst:.3e} over 100 constrained points "
        f"(tol 1e-10)"
    )


def criterion_11_convergence_orders(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Second-order spatial and third-order temporal convergence on the canonical run.

    At sigma11 = 0.02 from an aligned start.  Spatial: saturated amplitudes
    at N = 24, 32 and 48 against a Newton steady state at N = 512, orders
    in [1.8, 2.2].  Temporal: ``simulate``'s fixed path, whose steps are
    the ARK step every run takes, at dt = 0.4 ... 0.025 to T = 60 (N = 64)
    against a Radau integration of the semi-discrete system at rtol 1e-11,
    orders in [2.6, 3.2].
    """
    tp = find_threshold(default_verify_config().ray())
    p = _solve_sigma(lambda c: tp.lambda0.replace(k7=c), 0.02, (2.0, 3.5))

    grid_ref = make_grid(p, 512)
    y_ref = critical_mode(p, grid_ref).amplitude(_newton_steady_state(p, grid_ref, 0.26))
    errs, dxs = [], []
    for N in (24, 32, 48):
        grid = make_grid(p, N)
        ic = initial_state(p, grid, kind="aligned", amplitude=0.01)
        result = simulate(
            p, grid, ic, t_end=3000.0, dt=dt_max(p, grid), record_every=50,
            stop_on_saturation=True, saturation_tol=1e-7,
        )
        errs.append(abs(result.series.y[-1] - y_ref))
        dxs.append(grid.dx)
    spatial = [
        float(np.log(errs[i] / errs[i + 1]) / np.log(dxs[i] / dxs[i + 1]))
        for i in range(2)
    ]

    grid = make_grid(p, 64)
    ic = initial_state(p, grid, kind="aligned", amplitude=0.01)
    T = 60.0

    def y_at(dt: float) -> float:
        return simulate(p, grid, ic, t_end=T, dt=dt, record_every=10**9).series.y[-1]

    # temporal reference: the semi-discrete system integrated by Radau (imported
    # here so that `import mtphase` does not load scipy.integrate)
    from scipy.integrate import solve_ivp

    shape = ic.u.shape
    reference = solve_ivp(
        lambda t, y: _rhs(p, grid, y.reshape(shape)).reshape(-1),
        (0.0, T),
        ic.u.reshape(-1),
        method="Radau",
        rtol=1e-11,
        atol=1e-13,
        jac=lambda t, y: _rhs_jacobian(p, grid, y.reshape(shape)),
    )
    if not reference.success:
        return False, f"Radau temporal reference failed: {reference.message}"
    y_fine = critical_mode(p, grid).amplitude(reference.y[:, -1].reshape(shape))
    errs_t = [abs(y_at(dt) - y_fine) for dt in (0.4, 0.2, 0.1, 0.05, 0.025)]
    temporal = [float(np.log2(errs_t[i] / errs_t[i + 1])) for i in range(4)]

    passed = all(1.8 <= order <= 2.2 for order in spatial)
    passed = passed and all(2.6 <= order <= 3.2 for order in temporal)
    return passed, (
        f"spatial orders {spatial[0]:.3f}, {spatial[1]:.3f} "
        f"(N=24/32/48 vs Newton reference at N=512, band [1.8, 2.2]); "
        f"temporal orders {', '.join(f'{order:.3f}' for order in temporal)} "
        f"(h=0.4/0.2/0.1/0.05/0.025 vs Radau reference, rtol 1e-11, band [2.6, 3.2])"
    )


def _artifact_pipeline(config: RunConfig, out_dir: str, seed: int) -> list[str]:
    """Every artifact subcommand, in the CLI's table order, into ``out_dir``."""
    files: list[str] = []
    for command in artifacts.SUBCOMMANDS:
        files += artifacts.run(command, config, out_dir, seed=seed)
    write_manifest(out_dir, config_sha256(config), files)
    return files


def criterion_12_reproducibility(
    seed: int = DEFAULT_SEED,
    config: RunConfig | None = None,
) -> tuple[bool, str]:
    """Two identically seeded pipeline runs produce byte-identical CSVs."""
    cfg = config if config is not None else default_verify_config()
    with tempfile.TemporaryDirectory(prefix="mtphase-verify-") as tmp:
        dirs = [os.path.join(tmp, "run1"), os.path.join(tmp, "run2")]
        names: list[list[str]] = []
        for out_dir in dirs:
            os.makedirs(out_dir)
            files = _artifact_pipeline(cfg, out_dir, seed=cfg.simulate.seed)
            names.append(sorted(os.path.basename(f) for f in files))
        if names[0] != names[1]:
            return False, f"runs wrote different file sets: {names[0]} vs {names[1]}"
        mismatched = [
            name
            for name in names[0]
            if not filecmp.cmp(
                os.path.join(dirs[0], name), os.path.join(dirs[1], name), shallow=False
            )
        ]
        if mismatched:
            return False, f"CSV bytes differ between identical runs: {mismatched}"
        manifests = [
            {k: v for k, v in read_manifest(os.path.join(d, "manifest.txt")).items()
             if k != "created_utc"}
            for d in dirs
        ]
        if manifests[0] != manifests[1]:
            return False, "manifests differ beyond the timestamp"
    return True, (
        f"{len(names[0])} CSV files byte-identical across two runs; manifests match "
        f"up to the timestamp"
    )


CRITERIA: tuple[tuple[int, str, Callable[..., tuple[bool, str]]], ...] = (
    (1, "steady-state residual", criterion_1_steady_state),
    (2, "spectral solvers vs oracle", criterion_2_spectral),
    (3, "mode-matrix scaling identity", criterion_3_scaling),
    (4, "canonical threshold vs bisection oracle", criterion_4_canonical_threshold),
    (5, "exchange of stability", criterion_5_exchange_of_stability),
    (6, "branch coefficient two-path agreement", criterion_6_quadratic_coefficient),
    (7, "mixed branch amplitude via simulation", criterion_7_mixed_branch),
    (8, "pitchfork branch law (Newton, stepper fixed point)", criterion_8_pitchfork_branch),
    (9, "jump behavior via simulation", criterion_9_jump_behavior),
    (10, "constrained transition-number identity", criterion_10_constrained_identity),
    (11, "simulator convergence orders", criterion_11_convergence_orders),
    (12, "artifact reproducibility", criterion_12_reproducibility),
)


def run_all(
    seed: int = DEFAULT_SEED,
    config: RunConfig | None = None,
    only: Sequence[int] | None = None,
) -> list[CriterionResult]:
    """Run the numbered criteria (optionally a subset) and time each one."""
    results = []
    for index, name, func in CRITERIA:
        if only is not None and index not in only:
            continue
        start = time.perf_counter()
        if func is criterion_12_reproducibility:
            passed, detail = func(seed, config=config)
        else:
            passed, detail = func(seed)
        results.append(
            CriterionResult(
                index=index,
                name=name,
                passed=passed,
                detail=detail,
                seconds=time.perf_counter() - start,
            )
        )
    return results
