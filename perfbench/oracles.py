"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls the package's analysis, spectral or simulator code.  The
model itself is taken from one place only, ``mtphase.model.reaction_rhs``
(the definition of the reaction terms), and everything else is derived
from it with NumPy and SciPy:

* the uniform steady state from the closed form of ``reaction_rhs = 0``;
* the linearisation ``A`` by central differences with unit steps, which is
  exact up to rounding because the reaction terms are quadratic;
* the quadratic remainder ``F(w) = (f(ss + w) + f(ss - w))/2 - f(ss)``,
  exact for the same reason;
* null vectors of ``E1 = A - rho1 D`` and of its transpose from an SVD;
* Dirichlet steady states of the semi-discrete system by Newton's method,
  and transients by an implicit Radau integration, on the benchmark's own
  second-order Laplacian.

Parameters are passed as the object :func:`rates` makes, with attributes
``k1 k3 k5 k7 C1 E`` (scalars, or equal-shaped arrays for a batch of
parameter points), which is all ``reaction_rhs`` reads.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

from mtphase.model import reaction_rhs

RATES = ("k1", "k3", "k5", "k7", "C1", "E")
#: leading eigenvalues within this band of zero count as on the threshold
SIGMA_BAND = 1e-8
#: iterations after which the reference Newton solve gives up
NEWTON_MAX_ITER = 50


def rates(values) -> SimpleNamespace:
    """Parameter object for ``reaction_rhs`` from a mapping holding the rates."""
    return SimpleNamespace(**{k: np.asarray(values[k], dtype=float) for k in RATES})


def steady_state(q) -> np.ndarray:
    """Uniform equilibrium solving ``reaction_rhs = 0``; shape (3, ...).

    Adding the first two equations gives ``Df = E/k1``; the third then
    gives ``Ms = k3*E*Mg/(k1*C1)`` and the second fixes ``Mg``.
    """
    K1 = q.C1 * q.k1 * q.k7 - q.k3 * q.k5 * q.E
    return np.stack([q.k1**2 * q.C1 / K1, q.k1 * q.k3 * q.E / K1, q.E / q.k1])


def _unit(j: int, like: np.ndarray) -> np.ndarray:
    e = np.zeros_like(like)
    e[j] = 1.0
    return e


def jacobian(q, u: np.ndarray) -> np.ndarray:
    """Jacobian of ``reaction_rhs`` at absolute state ``u`` (3, ...).

    Returns shape (..., 3, 3).  Central differences with unit steps are
    exact for the quadratic reaction terms.
    """
    cols = [
        0.5 * (reaction_rhs(q, u + _unit(j, u)) - reaction_rhs(q, u - _unit(j, u)))
        for j in range(3)
    ]
    return np.moveaxis(np.stack(cols, axis=1), (0, 1), (-2, -1))


def linearisation(q) -> np.ndarray:
    """``A``: Jacobian of the reaction terms at the steady state."""
    return jacobian(q, steady_state(q))


def remainder(q, w: np.ndarray) -> np.ndarray:
    """Quadratic remainder ``F(w)`` of the reaction terms in deviations ``w``."""
    ss = steady_state(q).reshape((3,) + (1,) * (np.ndim(w) - 1))
    return 0.5 * (reaction_rhs(q, ss + w) + reaction_rhs(q, ss - w)) - reaction_rhs(q, ss)


def rho(m: int, ell) -> np.ndarray:
    """``(m*pi/ell)**2``, the m-th eigenvalue of ``-d2/dx2`` for both conditions."""
    return (m * np.pi / np.asarray(ell, dtype=float)) ** 2


def mode_block(A: np.ndarray, d: np.ndarray, rho_m) -> np.ndarray:
    """``A - rho_m * diag(d)`` for (batches of) A (..., 3, 3) and d (..., 3)."""
    rho_m = np.asarray(rho_m, dtype=float)[..., None, None]
    return A - rho_m * (np.asarray(d)[..., None, :] * np.eye(3))


def leading_real(E: np.ndarray) -> np.ndarray:
    """Largest real part among the eigenvalues of each (..., 3, 3) block."""
    return np.linalg.eigvals(E).real.max(axis=-1)


def null_vectors(E1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left null vectors of a (numerically) singular 3x3 block."""
    U, _, Vt = np.linalg.svd(E1)
    return Vt[-1], U[:, -1]


def dirichlet_alpha(q, A: np.ndarray, d: np.ndarray, ell: float):
    """Quadratic branch coefficient and the null vector it belongs to.

    ``alpha = <F(omega) e1^2, omega* e1> / <omega e1, omega* e1>`` with
    ``e1 = sin(pi x/ell)``, ``int e1^3 = 4 ell/(3 pi)`` and
    ``int e1^2 = ell/2``.
    """
    omega, omega_star = null_vectors(mode_block(A, d, rho(1, ell)))
    ratio = (4.0 * ell / (3.0 * np.pi)) / (ell / 2.0)
    alpha = ratio * (remainder(q, omega) @ omega_star) / (omega @ omega_star)
    return float(alpha), omega


def neumann_b(q, A: np.ndarray, d: np.ndarray, ell: float):
    """Cubic transition number and the null vector it belongs to.

    ``b = -1/4 * 2G(omega, E2^-1 F(omega)) . omega* / (omega . omega*)``
    with ``2G(u, v) = F(u + v) - F(u) - F(v)`` and ``E2 = A - rho2 D``.
    """
    omega, omega_star = null_vectors(mode_block(A, d, rho(1, ell)))
    z = np.linalg.solve(mode_block(A, d, rho(2, ell)), remainder(q, omega))
    g2 = remainder(q, omega + z) - remainder(q, omega) - remainder(q, z)
    b = -0.25 * (g2 @ omega_star) / (omega @ omega_star)
    return float(b), omega


# --------------------------------------------------------------------------
# the semi-discrete system


def grid_x(N: int, ell: float, neumann: bool) -> tuple[np.ndarray, float]:
    """Nodes and spacing: interior nodes (Dirichlet) or cell centres (Neumann)."""
    if neumann:
        dx = ell / N
        return dx * (np.arange(N) + 0.5), dx
    dx = ell / (N + 1)
    return dx * np.arange(1, N + 1), dx


def laplacian(N: int, dx: float, neumann: bool) -> np.ndarray:
    """Second-order three-point Laplacian; mirrored ghosts under Neumann."""
    L = (np.diag(np.full(N - 1, 1.0), -1) + np.diag(np.full(N - 1, 1.0), 1)
         - 2.0 * np.eye(N))
    if neumann:
        L[0, 0] = L[-1, -1] = -1.0
    return L / dx**2


class SemiDiscrete:
    """``du/dt = D L u + P(A u + F(u))`` for deviation fields u (3, N).

    ``P`` removes each component's spatial mean under zero-average Neumann
    conditions and is the identity under Dirichlet conditions.
    """

    def __init__(self, q, d, ell: float, N: int, neumann: bool):
        self.q, self.N, self.neumann = q, N, neumann
        self.d = np.asarray(d, dtype=float)
        self.x, dx = grid_x(N, ell, neumann)
        self.L = laplacian(N, dx, neumann)
        self.ss = steady_state(q)[:, None]

    def _project(self, r: np.ndarray) -> np.ndarray:
        return r - r.mean(axis=1, keepdims=True) if self.neumann else r

    def rhs(self, u: np.ndarray) -> np.ndarray:
        react = reaction_rhs(self.q, self.ss + u) - reaction_rhs(self.q, self.ss)
        return self.d[:, None] * (u @ self.L.T) + self._project(react)

    def jac(self, u: np.ndarray) -> np.ndarray:
        N = self.N
        local = jacobian(self.q, self.ss + u)  # (N, 3, 3)
        J = np.zeros((3 * N, 3 * N))
        for i in range(3):
            for j in range(3):
                block = np.diag(local[:, i, j])
                if self.neumann:
                    block -= block.mean(axis=0)
                if i == j:
                    block += self.d[i] * self.L
                J[i * N:(i + 1) * N, j * N:(j + 1) * N] = block
        return J

    def newton(self, u0: np.ndarray) -> np.ndarray:
        """Steady state from ``u0`` (Dirichlet: the projected Jacobian is singular)."""
        if self.neumann:
            raise ValueError("the Newton reference is for Dirichlet conditions")
        u = np.array(u0, dtype=float)
        for _ in range(NEWTON_MAX_ITER):
            du = np.linalg.solve(self.jac(u), -self.rhs(u).reshape(-1))
            u = u + du.reshape(3, self.N)
            if np.abs(du).max() <= 1e-13 * max(1.0, np.abs(u).max()):
                return u
        raise RuntimeError("reference Newton solve did not converge")

    def integrate(self, u0: np.ndarray, t_end: float) -> np.ndarray:
        """Radau (rtol 1e-10, atol 1e-13) from ``u0`` at t = 0 to ``t_end``."""
        shape = (3, self.N)
        sol = solve_ivp(
            lambda t, y: self.rhs(y.reshape(shape)).reshape(-1),
            (0.0, t_end),
            np.asarray(u0, dtype=float).reshape(-1),
            method="Radau",
            jac=lambda t, y: self.jac(y.reshape(shape)),
            rtol=1e-10,
            atol=1e-13,
            t_eval=[t_end],
        )
        if not sol.success:
            raise RuntimeError(f"reference Radau integration failed: {sol.message}")
        return sol.y[:, -1].reshape(shape)

