"""Per-mode linear algebra: mode matrices, cubic spectra, eigenvectors.

Expanding deviations in the Laplacian eigenbasis decouples the linearized
dynamics into independent 3x3 blocks ``E(rho_m) = A - rho_m * D`` per spatial
mode ``m``.  This module builds those blocks, solves their characteristic
cubics with a fixed-order kernel of correctly rounded float operations
(:func:`solve_spectrum`; LAPACK serves only :func:`companion_roots`, its
oracle), and is the one place that writes out the closed-form eigenvector
omega and adjoint eigenvector omega* (:func:`_eigenpair`).
:func:`mode_spectra` checks each pair against its block;
:func:`principal_mode_vectors` gives the critical pair at sigma = 0 that the
transition analysis and the simulator's amplitude projection contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotAnEigenvalue
from .model import (
    BoundaryCondition,
    ModelParams,
    ParamBatch,
    diffusion_matrix,
    linearization_matrix,
)

__all__ = [
    "Basis",
    "LaplacianMode",
    "ModeSpectrum",
    "laplacian_eigenvalue",
    "laplacian_mode",
    "mode_matrix",
    "mode_matrices",
    "char_poly_coeffs",
    "solve_spectrum",
    "companion_roots",
    "mode_spectra",
    "principal_eigenvalue",
    "principal_mode_vectors",
]


class Basis(str, Enum):
    """Spatial eigenbasis of the 1D Laplacian on (0, ell)."""

    SIN = "sin"
    COS = "cos"


_BASIS_FOR_BC = {
    BoundaryCondition.DIRICHLET: Basis.SIN,
    BoundaryCondition.NEUMANN_ZERO_AVERAGE: Basis.COS,
}


def laplacian_eigenvalue(m: int, ell: float) -> float:
    """Eigenvalue ``rho_m = (m*pi/ell)**2`` of ``-Laplacian`` on (0, ell).

    The value is shared by the sine basis (homogeneous Dirichlet) and the
    cosine basis with ``m >= 1`` (homogeneous Neumann restricted to
    zero-average functions, which removes the constant mode).
    """
    return (m * np.pi / ell) ** 2


@dataclass(frozen=True)
class LaplacianMode:
    """One spatial eigenmode: index, eigenvalue, basis, domain length."""

    m: int
    rho: float
    basis: Basis
    ell: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Mode shape e_m(x): sin or cos of ``m*pi*x/ell``."""
        arg = self.m * np.pi * np.asarray(x) / self.ell
        return np.sin(arg) if self.basis is Basis.SIN else np.cos(arg)

    @property
    def norm_sq(self) -> float:
        """Continuum L2 norm squared, ``ell/2`` for every m >= 1."""
        return self.ell / 2.0


def laplacian_mode(p: ModelParams, m: int) -> LaplacianMode:
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    return LaplacianMode(
        m=m,
        rho=laplacian_eigenvalue(m, p.ell),
        basis=_BASIS_FOR_BC[p.bc],
        ell=p.ell,
    )


def mode_matrix(p: ModelParams, rho: float) -> np.ndarray:
    """Linearized block ``A - rho * diag(d1, d2, d3)`` for one spatial mode.

    Because ``rho`` and the diffusion rates enter only through the products
    ``d_i * rho``, scaling the diffusion vector by ``rho_1/rho_m`` and
    evaluating at ``rho_m`` reproduces the block at ``rho_1``.
    """
    return linearization_matrix(p) - rho * diffusion_matrix(p)


def mode_matrices(p: ModelParams | ParamBatch, rho) -> np.ndarray:
    """Stack of blocks ``A - rho * diag(d1, d2, d3)``, entry for entry equal
    to :func:`mode_matrix`.

    The points of a :class:`ParamBatch` and the array ``rho`` broadcast
    together: one value of ``rho`` per point, or many modes of one point.
    """
    rho = np.asarray(rho, dtype=float)
    jac = linearization_matrix(p)
    shape = np.broadcast_shapes(jac.shape[:-2], rho.shape)
    blocks = np.array(np.broadcast_to(jac, shape + (3, 3)))
    for i, d in enumerate((p.d1, p.d2, p.d3)):
        blocks[..., i, i] -= rho * d
    return blocks


def char_poly_coeffs(Emat: np.ndarray) -> tuple[float, float, float]:
    """Coefficients (p2, p1, p0) of det(sigma*I - E) = sigma^3 + p2*sigma^2 + p1*sigma + p0.

    p2 = -trace(E); p1 = sum of principal 2x2 minors; p0 = -det(E).
    """
    e = np.asarray(Emat)
    p2 = -(e[0, 0] + e[1, 1] + e[2, 2])
    p1 = (
        e[0, 0] * e[1, 1]
        - e[0, 1] * e[1, 0]
        + e[0, 0] * e[2, 2]
        - e[0, 2] * e[2, 0]
        + e[1, 1] * e[2, 2]
        - e[1, 2] * e[2, 1]
    )
    p0 = -float(np.linalg.det(e))
    return float(p2), float(p1), p0


def _sorted_eigs(values: np.ndarray) -> np.ndarray:
    """Descending real part; ties broken by ascending imaginary part.

    A stack is sorted along its last axis.
    """
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, -values.real), axis=-1)
    if values.ndim == 1:
        return values[order]
    return np.take_along_axis(values, order, axis=-1)


class _FloatOps:
    """The kernel's selections, roots and exponents on Python floats."""

    sqrt = staticmethod(math.sqrt)
    frexp = staticmethod(math.frexp)
    ldexp = staticmethod(math.ldexp)
    any = staticmethod(bool)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


class _ArrayOps:
    """The same steps elementwise on NumPy arrays."""

    sqrt = staticmethod(np.sqrt)
    frexp = staticmethod(np.frexp)
    ldexp = staticmethod(np.ldexp)
    any = staticmethod(np.ndarray.any)
    where = staticmethod(np.where)


#: cap on the Newton iterations of the depressed cubic; each element stops
#: as soon as a step fails to decrease |f|, within 8 steps on model blocks
_NEWTON_CAP = 100

#: Newton steps of the polish on det(E - sigma I), per real root
_POLISH_STEPS = 2


def _det_terms(e):
    """The block's diagonal, the four off-diagonal entries and the five
    products of two off-diagonal entries that :func:`_shifted_det` needs."""
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = e
    return (
        (e00, e11, e22),
        (e01, e02, e10, e20),
        (e12 * e21, e02 * e20, e01 * e10, e12 * e20, e10 * e21),
    )


def _shifted_det(terms, s):
    """``det(E - s I)`` and the sum of the principal 2x2 minors of
    ``E - s I``, which is minus its derivative in ``s``."""
    (e00, e11, e22), (e01, e02, e10, e20), (x12_21, x02_20, x01_10, x12_20, x10_21) = terms
    d0, d1, d2 = e00 - s, e11 - s, e22 - s
    c0 = d1 * d2 - x12_21
    det = d0 * c0 - e01 * (e10 * d2 - x12_20) + e02 * (x10_21 - d1 * e20)
    return det, c0 + (d0 * d2 - x02_20) + (d0 * d1 - x01_10)


def _polish(terms, s, cap, ops):
    """At most ``_POLISH_STEPS`` Newton steps on ``det(E - s I)`` from the
    real roots ``s``.  A step is kept only if it is at most ``cap`` long,
    half the distance to the nearest other root, and decreases the
    determinant's magnitude, so a root never jumps to another; ``cap`` = 0
    leaves ``s`` as it is."""
    g, gp = _shifted_det(terms, s)
    live = cap > 0.0
    for _ in range(_POLISH_STEPS):
        go = live & (g != 0.0) & (gp != 0.0)
        if not ops.any(go):
            break
        step = g / ops.where(go, gp, 1.0)
        sn = s + step
        gn, gpn = _shifted_det(terms, sn)
        live = go & (abs(step) <= cap) & (abs(gn) < abs(g))
        s, g, gp = ops.where(live, sn, s), ops.where(live, gn, g), ops.where(live, gpn, gp)
    return s


def _cubic_roots(e, ops):
    """Eigenvalues of the 3x3 block ``e`` (rows of floats, or rows of
    equally shaped arrays) as (re, im) pairs sorted like
    :func:`_sorted_eigs`.

    Only correctly rounded operations (+ - * /, sqrt), exact exponent
    operations and comparisons, in a fixed order: each element's bits do
    not depend on the CPU's vector kernels, and an array element equals
    the same block's float evaluation bit for bit.
    """
    terms = _det_terms(e)
    (e00, e11, e22), (e01, e02, e10, e20), (x12_21, x02_20, x01_10, x12_20, x10_21) = terms
    where = ops.where
    trace = e00 + e11 + e22
    # the trace-centred block's characteristic polynomial x^3 + p x + q,
    # negated in x where q > 0 so that its largest root x1 is >= 0, and
    # simple unless all three roots coincide
    mu = trace / 3.0
    a, b, c = e00 - mu, e11 - mu, e22 - mu
    minor0 = b * c - x12_21
    p = minor0 + (a * c - x02_20) + (a * b - x01_10)
    q = e01 * (e10 * c - x12_20) - e02 * (x10_21 - b * e20) - a * minor0
    sign = where(q > 0.0, -1.0, 1.0)
    q = sign * q
    # Newton decreases monotonically to x1 from any start above it:
    # 2 sqrt(-p/3) where f >= 0 there (three real roots), else
    # sqrt(max(-p, 0)) + 2^ceil(k/3) with |q| < 2^k
    k = ops.frexp(q)[1]
    neg_p = where(p < 0.0, -p, 0.0)
    x = ops.sqrt(neg_p) + where(q < 0.0, ops.ldexp(1.0, -(-k // 3)), 0.0)
    x_real = 2.0 * ops.sqrt(neg_p / 3.0)
    x = where((x_real * x_real + p) * x_real + q >= 0.0, x_real, x)
    f = (x * x + p) * x + q
    live = f != 0.0
    for _ in range(_NEWTON_CAP):
        fp = 3.0 * (x * x) + p
        go = live & (fp > 0.0)
        if not ops.any(go):
            break
        xn = x - f / where(go, fp, 1.0)
        fn = (xn * xn + p) * xn + q
        live = go & (abs(fn) < abs(f))
        x, f = where(live, xn, x), where(live, fn, f)
    # the other two roots lie at least x from x1
    s = _polish(terms, mu + sign * x, 0.5 * x, ops)

    # the other two: their sum, and their product from det E / s where s is
    # the larger, else from the principal minors
    det, minors = _shifted_det(terms, 0.0)
    total = trace - s
    by_det = abs(s) > abs(total)
    prod = where(by_det, det / where(by_det, s, 1.0), minors - s * total)
    h = 0.5 * total
    disc = h * h - prod
    real = disc >= 0.0
    root = ops.sqrt(abs(disc))
    # a real pair: the one larger in magnitude polished, the other from the
    # product
    big = h + where(h >= 0.0, root, -root)
    nonzero = big != 0.0
    small = where(nonzero, prod / where(nonzero, big, 1.0), 0.0)
    gap, gap_s = abs(big - small), abs(big - s)
    big = _polish(terms, big, where(real, 0.5 * where(gap <= gap_s, gap, gap_s), 0.0), ops)
    nonzero = big != 0.0
    small = where(nonzero, prod / where(nonzero, big, 1.0), 0.0)
    # the pair (B, C) in order, then s inserted before the first it precedes
    b_re = where(real, where(big >= small, big, small), h)
    c_re = where(real, where(big >= small, small, big), h)
    b_im, c_im = where(real, 0.0, -root), where(real, 0.0, root)
    before_b = (b_re < s) | ((b_re == s) & (b_im > 0.0))
    before_c = (c_re < s) | ((c_re == s) & (c_im > 0.0))
    return (
        (where(before_b, s, b_re), where(before_b, 0.0, b_im)),
        (where(before_b, b_re, where(before_c, s, c_re)),
         where(before_b, b_im, where(before_c, 0.0, c_im))),
        (where(before_c, c_re, s), where(before_c, c_im, 0.0)),
    )


def solve_spectrum(Emat: np.ndarray) -> np.ndarray:
    """Roots of the characteristic cubic of a real 3x3 matrix.

    A fixed-order closed-form kernel (:func:`_cubic_roots`): Newton's method
    from an upper bound finds the largest root of the trace-centred
    block's depressed cubic, whose centring keeps the tiny separations of
    high spatial modes, where all three eigenvalues sit near ``-rho*d``.
    That root is polished on ``det(E - sigma I)`` evaluated from the
    block's entries, the other two follow from the trace and the
    determinant or principal minors, and the larger of them, if real, is
    polished the same way.  Complex eigenvalues appear as exact conjugate pairs, sorted like
    :func:`companion_roots`.  The result's bits do not depend on the BLAS
    or SIMD kernels of the CPU.

    ``Emat`` may also be a (..., 3, 3) stack: each row of the result is then
    that block's spectrum, bit-identical to solving the block alone.
    """
    e = np.asarray(Emat, dtype=float)
    if e.ndim == 2:
        out = np.array([complex(re, im) for re, im in _cubic_roots(e.tolist(), _FloatOps)])
    else:
        rows = np.ascontiguousarray(np.moveaxis(e, (-2, -1), (0, 1)))
        with np.errstate(all="ignore"):  # the check below reports non-finite values
            roots = _cubic_roots(rows, _ArrayOps)
        out = np.empty(e.shape[:-1], dtype=complex)
        for i, (re, im) in enumerate(roots):
            out.real[..., i] = re
            out.imag[..., i] = im
    if not np.isfinite(out).all():
        raise np.linalg.LinAlgError("a 3x3 block with a non-finite eigenvalue: non-finite entries, or overflow")
    return out


def companion_roots(p2: float, p1: float, p0: float) -> np.ndarray:
    """Roots of ``x^3 + p2 x^2 + p1 x + p0`` via the companion matrix.

    The oracle of :func:`solve_spectrum`: it sees a block only through the
    coefficients of :func:`char_poly_coeffs`, never the block itself
    (``numpy.linalg.eigvals`` balances the companion before QR).  Same
    ordering convention as :func:`solve_spectrum`.
    """
    companion = np.array(
        [
            [-p2, -p1, -p0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    return _sorted_eigs(np.linalg.eigvals(companion))


def _shorthands(p: ModelParams, rho: float, sigma: complex):
    """``a = E/k1``, ``X``, ``Y``, ``q = X*Y - k5*k7*a**2`` and ``omega_3 = q/k1``
    of the closed forms."""
    a = p.E / p.k1
    x = p.d1 * rho + p.k7 * a + sigma
    y = p.d2 * rho + p.k5 * a + sigma
    q = x * y - p.k5 * p.k7 * a * a
    return a, x, y, q, q / p.k1


def _eigenpair(p: ModelParams, rho: float, sigma: complex):
    """Closed-form eigenvector omega of ``mode_matrix(p, rho)`` for
    eigenvalue sigma, and adjoint eigenvector omega* of its transpose,
    unchecked.

    With ``a = E/k1``, ``X = d1*rho + k7*a + sigma`` and
    ``Y = d2*rho + k5*a + sigma``::

        omega  = (k5*a, X, (X*Y - k5*k7*a**2) / k1)
        omega* = (a*(C1*k7 - k3*Y), C1*X - k3*k5*a**2, X*Y - k5*k7*a**2)

    omega reduces to the familiar (k5, X, X*Y - k5*k7) when k1 = E = 1; its
    first component is a positive constant, so it never degenerates.  Under
    the parameter constraint ``C1*k7 = k3*(k5*a + d2*rho)`` the first
    component of omega* vanishes at sigma = 0.  :func:`mode_spectra` checks
    both against the block (:func:`_check_residual`).
    """
    a, x, y, q, w3 = _shorthands(p, rho, sigma)
    omega = np.array([p.k5 * a, x, w3])
    omega_star = np.array(
        [a * (p.C1 * p.k7 - p.k3 * y), p.C1 * x - p.k3 * p.k5 * a * a, q]
    )
    return omega, omega_star


def principal_mode_vectors(p: ModelParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Critical eigenvector, adjoint eigenvector and rho_1 at zero eigenvalue.

    Evaluates the closed forms at exactly sigma = 0 rather than at the tiny
    residual eigenvalue left by root finding; at a genuine threshold these
    are the critical eigenpair, and the formal evaluation also lets the
    algebraic identity checks run at parameter points that are not exact
    thresholds, which is why no residual check is made.

    Returns
    -------
    omega, omega_star : ndarray
        Unnormalized critical and adjoint eigenvectors (real).
    rho1 : float
        Principal Laplacian eigenvalue ``(pi/ell)**2``.
    """
    rho1 = laplacian_eigenvalue(1, p.ell)
    omega, omega_star = _eigenpair(p, rho1, 0.0)
    return omega, omega_star, rho1


#: relative eigenpair residual above which sigma is not an eigenvalue
_RESIDUAL_TOL = 1e-10

# Absolute residual floor per unit matrix-norm cubed (~1e4 machine epsilons).
# The formula vectors inherit an irreducible defect of order
# |char'(sigma)| * ulp(sigma), which grows with the cube of the matrix scale;
# without this term exact eigenvalues of large-rho blocks would be rejected.
_RESIDUAL_FLOOR = 2e-12


def _check_residual(emat: np.ndarray, sigma: complex, vec: np.ndarray, adjoint: bool) -> None:
    norm = np.linalg.norm(vec)
    scale = max(1.0, float(np.abs(emat).sum(axis=1).max()))
    if norm == 0.0:
        raise NotAnEigenvalue(
            f"{'adjoint ' if adjoint else ''}eigenvector degenerates to zero at sigma={sigma}"
        )
    mat = emat.T if adjoint else emat
    residual = np.linalg.norm(mat @ vec - sigma * vec)
    if residual > _RESIDUAL_TOL * norm * scale + _RESIDUAL_FLOOR * scale**3:
        raise NotAnEigenvalue(
            f"sigma={sigma} is not an eigenvalue "
            f"(relative {'adjoint ' if adjoint else ''}residual {residual / (norm * scale):.3e})"
        )


@dataclass(frozen=True)
class ModeSpectrum:
    """Spectral data of one spatial mode.

    ``sigma`` holds the three eigenvalues sorted by descending real part
    (ties by ascending imaginary part); row ``i`` of ``omega`` /
    ``omega_star`` is the closed-form (adjoint) eigenvector for
    ``sigma[i]``, unnormalized.
    """

    mode: LaplacianMode
    sigma: np.ndarray
    omega: np.ndarray
    omega_star: np.ndarray

    def biorthogonality(self) -> np.ndarray:
        """Matrix of bilinear products ``omega_i . omega_star_j``.

        Uses the non-conjugating (bilinear) product, under which eigenvectors
        for distinct eigenvalues of E and E^T are orthogonal even in the
        complex case.  Off-diagonal entries are only meaningful when the
        corresponding eigenvalues are separated (see tests).
        """
        return self.omega @ self.omega_star.T


def _polish_sigma(p: ModelParams, rho: float, sigma: complex, iters: int = 2) -> complex:
    """Newton-polish an eigenvalue against the closed-form eigenvector identity.

    The third-row residual of the closed-form eigenvector equals
    ``char(sigma)/k1`` but is evaluated from the X/Y products directly, which
    avoids the cancellation that computing characteristic coefficients first
    would reintroduce.  The step is capped so a value that is not already
    near a root is returned unchanged (no silent jumps between roots).
    """
    z = -(p.K2 + p.d3 * rho)
    s = sigma
    for _ in range(iters):
        a, x, y, _, w3 = _shorthands(p, rho, s)
        f = -p.k3 * a * p.k5 * a + p.C1 * x + (z - s) * w3
        fp = p.C1 + (z - s) * (x + y) / p.k1 - w3
        if f == 0.0 or abs(fp) < 1e-300:
            break
        step = f / fp
        if abs(step) > 1e-6 * max(1.0, abs(s)):
            break
        s = s - step
    return s


def _spectrum_at(p: ModelParams, mode: LaplacianMode) -> ModeSpectrum:
    emat = mode_matrix(p, mode.rho)
    polished = [_polish_sigma(p, mode.rho, complex(s)) for s in solve_spectrum(emat)]
    sigma = _sorted_eigs(np.array(polished))
    omega = np.empty((3, 3), dtype=complex)
    omega_star = np.empty((3, 3), dtype=complex)
    for i, s in enumerate(sigma):
        s = complex(s)
        if s.imag == 0.0:
            s = s.real
        w, w_star = _eigenpair(p, mode.rho, s)
        _check_residual(emat, s, w, adjoint=False)
        _check_residual(emat, s, w_star, adjoint=True)
        omega[i], omega_star[i] = w, w_star
    return ModeSpectrum(mode=mode, sigma=sigma, omega=omega, omega_star=omega_star)


def mode_spectra(p: ModelParams, M_max: int) -> list[ModeSpectrum]:
    """Complete spectra of modes ``m = 1..M_max`` (deterministic order).

    Eigenvalues are Newton-polished against the closed-form eigenvector
    identity before the vectors are assembled, so the returned eigenpairs
    satisfy the residual bound with headroom.  Each mode's block is built
    once, and each closed-form pair (:func:`_eigenpair`) is checked against
    it and its transpose; :class:`NotAnEigenvalue` is raised if either
    residual is above the bound.
    """
    if M_max < 1:
        raise ValueError(f"M_max must be >= 1, got {M_max}")
    return [_spectrum_at(p, laplacian_mode(p, m)) for m in range(1, M_max + 1)]


def principal_eigenvalue(p: ModelParams) -> complex:
    """Leading eigenvalue sigma_11 of the first spatial mode."""
    sigma = solve_spectrum(mode_matrix(p, laplacian_eigenvalue(1, p.ell)))
    return complex(sigma[0])
