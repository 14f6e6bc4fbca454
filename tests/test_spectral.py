"""Mode matrices, the spectral solver, and eigenvector formulas."""

from __future__ import annotations

import numpy as np
import pytest

import mtphase.spectral
from mtphase import (
    MTPhaseError,
    NotAnEigenvalue,
    ParameterRay,
    char_poly_coeffs,
    companion_roots,
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


def test_companion_oracle_agrees_on_random_coefficients():
    # the characteristic coefficients of random blocks, as in criterion 2
    rng = np.random.default_rng(23)
    for _ in range(300):
        mat = rng.uniform(-4.0, 4.0, (3, 3))
        oracle = companion_roots(*char_poly_coeffs(mat))
        assert np.abs(solve_spectrum(mat) - oracle).max() <= 1e-10


def _rotated(block):
    """``block`` under a fixed orthogonal similarity, so no entry is zero."""
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [-0.3, 1.0, 2.0], [0.7, -1.0, 1.0]]))
    return q.T @ np.asarray(block, dtype=float) @ q


def test_solve_spectrum_known_complex_pair():
    # (sigma - 2)(sigma^2 + 1): roots 2, -i, +i in that order, the pair exactly conjugate
    roots = solve_spectrum(_rotated([[2.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]))
    assert np.abs(roots - np.array([2.0, -1.0j, 1.0j])).max() <= 1e-12
    assert roots[1] == np.conj(roots[2])
    assert np.array_equal(np.round(companion_roots(-2.0, 1.0, -2.0), 12), [2.0, -1.0j, 1.0j])


def test_solve_spectrum_triple_root():
    # (sigma + 1)^3, as a Jordan block and as its companion matrix
    jordan = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]
    for block in (_rotated(jordan), [[-3.0, -3.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        assert np.abs(solve_spectrum(block) + 1.0).max() <= 1e-5


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


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_mode_spectra_rejects_a_pair_off_its_eigenvalue(canonical_params, monkeypatch, adjoint):
    # one half of each pair is the closed form at a value that is not an
    # eigenvalue: the residual check of that half raises
    eigenpair = mtphase.spectral._eigenpair

    def one_half_off(p, rho, sigma):
        omega, omega_star = eigenpair(p, rho, sigma)
        off_omega, off_omega_star = eigenpair(p, rho, sigma + 12345.0)
        return (omega, off_omega_star) if adjoint else (off_omega, omega_star)

    monkeypatch.setattr(mtphase.spectral, "_eigenpair", one_half_off)
    which = "adjoint residual" if adjoint else "relative residual"
    with pytest.raises(NotAnEigenvalue, match=which):
        mode_spectra(canonical_params, 1)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
def test_principal_mode_vectors_are_the_checked_eigenpair(bc, random_params_factory):
    # The unchecked sigma = 0 pair passes both residual checks of
    # mode_spectra at thresholds, so skipping them there skips nothing.
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
            p = find_threshold(ray).lambda0
        except MTPhaseError:
            continue
        found += 1
        omega, omega_star, rho1 = principal_mode_vectors(p)
        assert rho1 == laplacian_eigenvalue(1, p.ell)
        emat = mode_matrix(p, rho1)
        mtphase.spectral._check_residual(emat, 0.0, omega, adjoint=False)
        mtphase.spectral._check_residual(emat, 0.0, omega_star, adjoint=True)


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
