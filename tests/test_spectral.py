"""Mode matrices, the spectral solver, and eigenvector formulas."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

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
    mode_matrices,
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


def _edge_blocks(rng: np.random.Generator) -> np.ndarray:
    """Blocks that stress the kernel, every one at scales 10^-6 .. 10^6:
    random entries, complex pairs, double and triple roots (diagonal,
    Jordan and companion forms, rotated and not), the zero matrix and
    diagonal blocks."""
    a, b, c = rng.uniform(-3.0, 3.0, 3)
    shapes = [
        rng.uniform(-2.0, 2.0, (3, 3)),
        _rotated([[a, -abs(b), 0.0], [abs(b), a, 0.0], [0.0, 0.0, c]]),
        [[a, -1e-9, 0.0], [1e-9, a, 0.0], [0.0, 0.0, c]],
        _rotated(np.diag([a, a, c])),
        _rotated([[a, 1.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, c]]),
        _rotated([[a, 1.0, 0.0], [0.0, a, 1.0], [0.0, 0.0, a]]),
        [[-3.0 * a, -3.0 * a * a, -(a**3)], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        _rotated(np.diag([a, a, a])),
        np.zeros((3, 3)),
        np.diag([a, b, c]),
        np.diag([a, a, c]),
        np.diag([0.0, b, 0.0]),
    ]
    return np.array([
        np.asarray(shape, dtype=float) * 10.0**k for shape in shapes for k in range(-6, 7)
    ])


def test_stacked_solve_equals_single_blocks_bit_for_bit(random_params_factory):
    rng = np.random.default_rng(67)
    model = [
        mode_matrices(p, laplacian_eigenvalue(np.arange(1, 51), p.ell))
        for p in (random_params_factory(rng, bc) for bc in ("dirichlet", "neumann-zero-average"))
    ]
    for _ in range(10):
        stack = np.concatenate([_edge_blocks(rng), *model])
        rng.shuffle(stack)
        single = np.array([solve_spectrum(block) for block in stack])
        assert solve_spectrum(stack).tobytes() == single.tobytes()
        # any stack shape: a (..., 3, 3) stack gives the same rows
        assert solve_spectrum(stack.reshape(2, -1, 3, 3)).tobytes() == single.tobytes()


def test_edge_blocks_have_their_spectra():
    rng = np.random.default_rng(71)
    for block in _edge_blocks(rng):
        sigma = solve_spectrum(block)
        scale = max(np.abs(block).max(), 1e-300)
        # an exact conjugate pair in the middle or at the end, else all real
        if sigma.imag.any():
            pair = [i for i in range(3) if sigma[i].imag != 0.0]
            assert len(pair) == 2 and sigma[pair[0]] == np.conj(sigma[pair[1]])
        assert list(sigma.real) == sorted(sigma.real, reverse=True)
        # a triple root is resolved to the cube root of the rounding level
        oracle = mtphase.spectral._sorted_eigs(np.linalg.eigvals(block))
        assert np.abs(sigma - oracle).max() <= 2e-5 * scale


def test_solve_spectrum_agrees_with_eigvals_over_wide_scales():
    # 300 points with rates and diffusivities over 10^+-2, 50 modes each;
    # the reference is trace-centred eigvals (LAPACK geev), and pairs
    # closer than 1e-6 ||E|| are left out: their conditioning, not the
    # solver, sets the difference there
    rng = np.random.default_rng(73)
    eps = np.finfo(float).eps
    worst, checked = 0.0, 0
    while checked < 300:
        k1, k3, k5, k7, C1, E, d1, d2, d3 = 10.0 ** rng.uniform(-2.0, 2.0, 9)
        if C1 * k1 * k7 - k3 * k5 * E <= 0.05 * C1 * k1 * k7:
            continue
        p = mtphase.ModelParams(
            k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E, d1=d1, d2=d2, d3=d3,
            ell=10.0 ** rng.uniform(-0.3, 1.5),
            bc=("dirichlet", "neumann-zero-average")[checked % 2],
        )
        checked += 1
        blocks = mode_matrices(p, laplacian_eigenvalue(np.arange(1, 51), p.ell))
        mu = np.trace(blocks, axis1=1, axis2=2) / 3.0
        oracle = mtphase.spectral._sorted_eigs(
            np.linalg.eigvals(blocks - mu[:, None, None] * np.eye(3)) + mu[:, None]
        )
        norm = np.abs(blocks).sum(axis=2).max(axis=1)
        gap = np.min([np.abs(oracle[:, i] - oracle[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))], axis=0)
        error = np.abs(solve_spectrum(blocks) - oracle).max(axis=1) / (eps * norm)
        worst = max(worst, float(error[gap > 1e-6 * norm].max(initial=0.0)))
    assert worst <= 64.0, worst  # 13.4 when this test was written


_KERNEL_BYTES = """
import hashlib, sys
import numpy as np
from mtphase import solve_spectrum
stack = np.load(sys.argv[1])
digest = hashlib.sha256(solve_spectrum(stack).tobytes())
for block in stack[::7]:
    digest.update(solve_spectrum(block).tobytes())
print(digest.hexdigest())
"""


def test_kernel_bytes_do_not_depend_on_the_cpu_kernels(tmp_path):
    # one stack, saved once, solved under the default setup, with
    # OpenBLAS's Haswell (AVX2) kernels forced where the CPU can run them,
    # and with every NumPy SIMD feature above the build's baseline disabled
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    rng = np.random.default_rng(79)
    stack = np.concatenate([
        *(_edge_blocks(rng) for _ in range(8)),
        10.0 ** rng.uniform(-3.0, 3.0, (512, 3, 3)) * rng.choice([-1.0, 1.0], (512, 3, 3)),
    ])
    np.save(tmp_path / "stack.npy", stack)
    settings = [{}]
    if platform.machine() in ("x86_64", "AMD64") and __cpu_features__.get("AVX2"):
        settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = set()
    for extra in settings:
        run = subprocess.run(
            [sys.executable, "-c", _KERNEL_BYTES, str(tmp_path / "stack.npy")],
            env=dict(os.environ, PYTHONPATH=src, **extra),
            capture_output=True, text=True, check=True,
        )
        digests.add(run.stdout.strip())
    assert len(digests) == 1, (settings, digests)


def test_non_finite_blocks_raise():
    bad = np.eye(3)
    bad[1, 2] = np.nan
    for block in (bad, np.diag([np.inf, 1.0, 2.0]), np.full((3, 3), 1e200)):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spectrum(block)
        with pytest.raises(np.linalg.LinAlgError):
            solve_spectrum(np.stack([np.eye(3), block]))


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
