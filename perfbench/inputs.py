"""Seeded inputs for the benchmark's operations.

Only NumPy and the reference computations in :mod:`oracles` are used here;
the program receives nothing but the generated inputs.
"""

from __future__ import annotations

import configparser
import os
import re
from dataclasses import dataclass

import numpy as np

import oracles

SHIPPED_CONFIGS = ("canonical", "neumann-jump")
DIFFUSIVITIES = ("d1", "d2", "d3")


def config_path(root: str, name: str) -> str:
    return os.path.join(root, "configs", f"{name}.ini")


def with_resolution(text: str, resolution: tuple[int, int]) -> str:
    """Config text with the ``[sweep] resolution`` line replaced."""
    new, count = re.subn(
        r"(?m)^resolution\s*=.*$", f"resolution = {resolution[0]},{resolution[1]}", text
    )
    if count != 1:
        raise ValueError("expected exactly one 'resolution' line in the config")
    return new


@dataclass(frozen=True)
class Plane:
    """A config's model point, sweep axes and resolution, read with the standard library."""

    model: dict
    axis1: dict
    range1: tuple[float, float]
    axis2: dict
    range2: tuple[float, float]
    resolution: tuple[int, int]

    @staticmethod
    def _axis(text: str) -> dict:
        text = text.strip()
        if ":" not in text:
            return {text: None}
        pairs = (part.split(":") for part in text.split(","))
        return {name.strip(): float(weight) for name, weight in pairs}

    @classmethod
    def from_text(cls, text: str) -> "Plane":
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read_string(text)
        model = {k: float(v) for k, v in cp["model"].items()}
        model["ell"] = float(cp["domain"]["ell"])
        sweep = cp["sweep"]
        return cls(
            model=model,
            axis1=cls._axis(sweep["axis1"]),
            range1=tuple(float(v) for v in sweep["range1"].split(",")),
            axis2=cls._axis(sweep["axis2"]),
            range2=tuple(float(v) for v in sweep["range2"].split(",")),
            resolution=tuple(int(v) for v in sweep["resolution"].split(",")),
        )

    def points(self, c1: np.ndarray, c2: np.ndarray) -> dict:
        """Parameter arrays at plane coordinates ``(c1, c2)``."""
        out = {k: np.full(np.shape(c1), v) for k, v in self.model.items()}
        for axis, coord in ((self.axis1, c1), (self.axis2, c2)):
            for name, weight in axis.items():
                out[name] = np.asarray(coord, dtype=float) * (1.0 if weight is None else weight)
        return out


@dataclass(frozen=True)
class Ray:
    """One proportional-diffusivity ray with a bracket around one threshold."""

    bc: str
    base: dict  # rates, ell, and d_i = weights (the ray at coordinate 1)
    weights: tuple[float, float, float]
    bracket: tuple[float, float]
    s_star: float  # the threshold coordinate the generator found


def _screen(values: dict, w: np.ndarray, bc: str, rng: np.random.Generator):
    """Return a bracket and the threshold if the ray is safely inside the theory.

    The thresholds of ``d = s*w`` are the real positive ``s`` with
    ``det(A - s rho1 W) = 0``, the eigenvalues of ``W^-1 A / rho1``.  A ray is
    kept when exactly one of them lies in a random bracket around it, the
    crossing eigenvalue is simple and real with the other two mode-1
    eigenvalues and every eigenvalue of modes 2..50 at least 1e-3 to the
    left of zero, the stability-exchange condition ``k5*K2 > C1`` holds,
    and the branch coefficient is clear of zero (for Neumann, also the
    mode-2 eigenvalues, which the cubic reduction divides by).
    """
    q = oracles.rates(values)
    A = oracles.linearisation(q)
    rho1 = float(oracles.rho(1, values["ell"]))
    roots = np.linalg.eigvals(A / w[:, None]) / rho1
    real = np.sort(roots[(np.abs(roots.imag) <= 1e-12 * np.abs(roots)) & (roots.real > 0)].real)
    if real.size == 0:
        return None
    s_star = float(real[-1])
    lo = s_star * rng.uniform(0.3, 0.8)
    hi = s_star * rng.uniform(1.25, 3.0)
    if np.count_nonzero((real >= lo) & (real <= hi)) != 1:
        return None
    d = s_star * w
    E1 = oracles.mode_block(A, d, rho1)
    sig = np.linalg.eigvals(E1)
    sig = sig[np.argsort(-sig.real)]
    if abs(sig[0]) > 1e-9 * np.abs(E1).max() or sig[1].real > -1e-3:
        return None
    modes = np.arange(2, 51)
    if oracles.leading_real(oracles.mode_block(A, d, modes**2 * rho1)).max() > -1e-3:
        return None
    K1 = values["C1"] * values["k1"] * values["k7"] - values["k3"] * values["k5"] * values["E"]
    K2 = values["k1"] * (1.0 + values["C1"] * values["k1"] * values["k3"] / K1)
    if values["k5"] * K2 - values["C1"] <= 1e-3 * values["C1"]:
        return None
    if bc == "dirichlet":
        coeff, _ = oracles.dirichlet_alpha(q, A, d, values["ell"])
    else:
        if np.abs(np.linalg.eigvals(oracles.mode_block(A, d, 4 * rho1))).min() < 1e-3:
            return None
        coeff, _ = oracles.neumann_b(q, A, d, values["ell"])
    if abs(coeff) < 1e-4:
        return None
    return (float(lo), float(hi)), s_star


def draw_rays(rng: np.random.Generator, n: int) -> list[Ray]:
    """``n`` rays, alternating Dirichlet and zero-average Neumann.

    Rates are log-uniform on [0.3, 3] with ``K1`` at least 30 % of
    ``C1*k1*k7``, diffusivity weights log-uniform on [0.1, 1] and the
    domain length uniform on [2, 6]; draws failing :func:`_screen` are
    discarded.
    """
    rays: list[Ray] = []
    while len(rays) < n:
        bc = "dirichlet" if len(rays) % 2 == 0 else "neumann-zero-average"
        k1, k3, k5, k7, C1, E = 10.0 ** rng.uniform(np.log10(0.3), np.log10(3.0), 6)
        w = 10.0 ** rng.uniform(-1.0, 0.0, 3)
        ell = rng.uniform(2.0, 6.0)
        if C1 * k1 * k7 - k3 * k5 * E <= 0.3 * C1 * k1 * k7:
            continue
        values = dict(k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E, ell=ell)
        screened = _screen(values, w, bc, rng)
        if screened is None:
            continue
        bracket, s_star = screened
        base = dict(values, **dict(zip(DIFFUSIVITIES, w)))
        rays.append(Ray(bc=bc, base=base, weights=tuple(w), bracket=bracket, s_star=s_star))
    return rays
