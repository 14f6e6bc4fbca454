"""Mode matrices, closed-form cubic solver, and eigenvector formulas."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtphase import (
    MTPhaseError,
    NotAnEigenvalue,
    ParameterRay,
    adjoint_eigenvector,
    char_poly_coeffs,
    companion_roots,
    cubic_roots,
    eigenvector,
    find_threshold,
    laplacian_eigenvalue,
    laplacian_mode,
    linearization_matrix,
    mode_matrix,
    mode_spectra,
    principal_eigenvalue,
    principal_mode_vectors,
    solve_spectrum,
)


def test_laplacian_eigenvalue_formula():
    for ell in (1.0, np.pi, 7.3):
        for m in (1, 2, 9):
            assert laplacian_eigenvalue(m, ell) == pytest.approx(
                (m * np.pi / ell) ** 2, rel=1e-15
            )


def test_mode_functions_are_l2_orthogonal(canonical_params):
    p = canonical_params
    x = np.linspace(0.0, p.ell, 20001)
    for bc in ("dirichlet", "neumann-zero-average"):
        q = p.replace(bc=bc)
        modes = [laplacian_mode(q, m) for m in (1, 2, 3)]
        for i, mi in enumerate(modes):
            fi = mi.evaluate(x)
            for j, mj in enumerate(modes):
                fj = mj.evaluate(x)
                inner = np.trapezoid(fi * fj, x)
                expected = mi.norm_sq if i == j else 0.0
                assert inner == pytest.approx(expected, abs=1e-6)


def test_mode_matrix_is_jacobian_minus_mode_diffusion(canonical_params):
    p = canonical_params
    rho = laplacian_eigenvalue(2, p.ell)
    expected = linearization_matrix(p) - rho * np.diag([p.d1, p.d2, p.d3])
    assert np.allclose(mode_matrix(p, rho), expected, rtol=0, atol=0)


def _reference_cubic_roots(p2, p1, p0):
    """Roots of ``x^3 + p2 x^2 + p1 x + p0`` from mpmath at 60 digits.

    Unlike ``np.roots``, which is off by about 1e-8 at double roots, this
    stays accurate at multiple roots; the extra working precision lets the
    Durand-Kerner iteration converge on a triple root.
    """
    with mpmath.workdps(60):
        roots = mpmath.polyroots([1, p2, p1, p0], maxsteps=1000, extraprec=600)
    return [complex(r) for r in roots]


@settings(max_examples=200, deadline=None)
@given(
    p2=st.floats(-5.0, 5.0),
    p1=st.floats(-5.0, 5.0),
    p0=st.floats(-5.0, 5.0),
)
# near-double roots: the closed form alone is off by ~sqrt(eps) there
@example(p2=5.0, p1=1e-10, p0=0.0)
@example(p2=1.5, p1=1.8443241103819996e-26, p0=1.8443241103819996e-26)
# double and near-double roots where np.roots itself is off by ~1e-8
@example(p2=-1.5, p1=0.0, p0=0.5)
@example(p2=3.0, p1=7.3e-269, p0=-4.0)
@example(p2=4.0, p1=4.0, p0=-4.5e-26)
def test_cubic_roots_match_reference_roots(p2, p1, p0):
    ours = cubic_roots(p2, p1, p0)
    reference = _reference_cubic_roots(p2, p1, p0)
    # Compare as multisets: greedy nearest matching.
    remaining = list(reference)
    for r in ours:
        best = min(remaining, key=lambda z: abs(z - r))
        assert abs(best - r) <= 1e-8 * max(1.0, abs(best))
        remaining.remove(best)


def test_cubic_roots_known_complex_pair():
    # (sigma - 2)(sigma^2 + 1): roots 2, +-i.
    roots = cubic_roots(-2.0, 1.0, -2.0)
    assert sorted(np.round(roots.real, 12).tolist()) == [0.0, 0.0, 2.0]
    assert sorted(np.round(roots.imag, 12).tolist()) == [-1.0, 0.0, 1.0]


def test_cubic_roots_triple_root():
    # (sigma + 1)^3
    roots = cubic_roots(3.0, 3.0, 1.0)
    assert np.abs(roots + 1.0).max() <= 1e-5


def test_companion_oracle_agrees_on_random_coefficients():
    rng = np.random.default_rng(23)
    for _ in range(300):
        p2, p1, p0 = rng.uniform(-4.0, 4.0, 3)
        assert np.abs(cubic_roots(p2, p1, p0) - companion_roots(p2, p1, p0)).max() <= 1e-10


def test_solve_spectrum_residuals(random_params_factory):
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_params_factory(rng)
        rho = laplacian_eigenvalue(int(rng.integers(1, 8)), p.ell)
        emat = mode_matrix(p, rho)
        sigma = solve_spectrum(emat)
        scale = np.abs(emat).max()
        for s in sigma:
            # s is an eigenvalue iff det(E - s I) = 0; check via smallest
            # singular value of the shifted matrix.
            smin = np.linalg.svd(emat - s * np.eye(3), compute_uv=False)[-1]
            assert smin <= 1e-9 * scale


def test_eigenvalue_order_is_descending_real_part(random_params_factory):
    rng = np.random.default_rng(37)
    for _ in range(40):
        p = random_params_factory(rng)
        spec = mode_spectra(p, 4)
        for ms in spec:
            re = ms.sigma.real
            assert re[0] >= re[1] - 1e-12 >= re[2] - 2e-12


def test_eigenvector_formulas_solve_the_eigenproblem(random_params_factory):
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = random_params_factory(rng)
        for ms in mode_spectra(p, 3):
            emat = mode_matrix(p, ms.mode.rho)
            scale = np.abs(emat).max()
            for i in range(3):
                omega = ms.omega[i]
                omega_star = ms.omega_star[i]
                assert np.abs(emat @ omega - ms.sigma[i] * omega).max() <= 1e-9 * scale * np.abs(omega).max()
                assert np.abs(omega_star @ emat - ms.sigma[i] * omega_star).max() <= 1e-9 * scale * np.abs(omega_star).max()


def test_pairing_equals_characteristic_derivative_times_third_component(
    random_params_factory,
):
    rng = np.random.default_rng(43)
    for _ in range(40):
        p = random_params_factory(rng)
        for ms in mode_spectra(p, 2):
            p2, p1, _ = char_poly_coeffs(mode_matrix(p, ms.mode.rho))
            for i in range(3):
                s = ms.sigma[i]
                dchar = 3.0 * s**2 + 2.0 * p2 * s + p1
                pairing = ms.omega[i] @ ms.omega_star[i]
                assert abs(pairing - dchar * ms.omega[i][2]) <= 1e-8 * max(
                    1.0, abs(pairing)
                )


def test_biorthogonality_for_separated_eigenvalues(random_params_factory):
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 25:
        p = random_params_factory(rng)
        ms = mode_spectra(p, 1)[0]
        gaps = [abs(ms.sigma[i] - ms.sigma[j]) for i in range(3) for j in range(i)]
        if min(gaps) < 1e-2:
            continue
        checked += 1
        b = ms.biorthogonality()
        scale = np.abs(np.diag(b)).min()
        off = b - np.diag(np.diag(b))
        assert np.abs(off).max() <= 1e-8 * max(scale, 1.0)


def test_eigenvector_rejects_non_eigenvalue(canonical_params):
    rho = laplacian_eigenvalue(1, canonical_params.ell)
    with pytest.raises(NotAnEigenvalue):
        eigenvector(canonical_params, rho, 12345.0)
    with pytest.raises(NotAnEigenvalue):
        adjoint_eigenvector(canonical_params, rho, 12345.0)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_principal_mode_vectors_are_the_checked_eigenpair(bc, random_params_factory):
    # The unchecked sigma = 0 pair equals the checked one bit for bit at
    # thresholds, so skipping the residual check there skips nothing.
    rng = np.random.default_rng(61)
    found = 0
    while found < 20:
        base = random_params_factory(rng, bc)
        weights = 10.0 ** rng.uniform(-1.0, 0.0, 3)
        ray = ParameterRay(
            base=base,
            direction={"d1": weights[0], "d2": weights[1], "d3": weights[2]},
            bracket=(1e-3, 100.0),
        )
        try:
            p = find_threshold(ray, attach_report=False).lambda0
        except MTPhaseError:
            continue
        found += 1
        omega, omega_star, rho1 = principal_mode_vectors(p)
        assert rho1 == laplacian_eigenvalue(1, p.ell)
        assert np.array_equal(omega, eigenvector(p, rho1, 0.0))
        assert np.array_equal(omega_star, adjoint_eigenvector(p, rho1, 0.0))


def test_principal_eigenvalue_is_top_of_first_mode(random_params_factory):
    rng = np.random.default_rng(53)
    for _ in range(20):
        p = random_params_factory(rng)
        ms = mode_spectra(p, 1)[0]
        assert principal_eigenvalue(p) == pytest.approx(ms.sigma[0], rel=1e-12, abs=1e-12)


def test_mode_matrix_scaling_identity(random_params_factory):
    rng = np.random.default_rng(59)
    for _ in range(30):
        p = random_params_factory(rng)
        m = int(rng.integers(2, 30))
        rho1 = laplacian_eigenvalue(1, p.ell)
        rho_m = laplacian_eigenvalue(m, p.ell)
        scale = rho_m / rho1
        lhs = mode_matrix(p, rho_m)
        rhs = mode_matrix(
            p.replace(d1=p.d1 * scale, d2=p.d2 * scale, d3=p.d3 * scale), rho1
        )
        assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(lhs).max()
