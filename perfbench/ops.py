"""The benchmark's four operations: prepare inputs, run timed, check outputs.

Each operation has ``prepare()`` (set-up: config parse and input
generation), ``execute()`` (the timed call into the program; returns an
:class:`Outcome`) and ``check(outcome)`` (the independent checks of
:mod:`oracles`; returns a list of failures).  ``execute`` runs one or more
times per round; :meth:`same` requires every later outcome to reproduce
the first exactly, so the full check runs once per run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracles

import mtphase
from mtphase import cli

#: saturation tolerance handed to ``simulate``; the final field must lie
#: within SATURATION_FACTOR times it (relative) of the reference steady state
SATURATION_TOL = 1e-6
SATURATION_FACTOR = 20.0
#: regions are not checked where the reference |Re sigma11| is below this
REGION_EXEMPT = 1e-7
#: relative agreement required with the Radau reference at the final time
TRANSIENT_RTOL = 1e-4
#: the closed-form branch predictions must agree to this relative error
BRANCH_RTOL = 1e-6
MEAN_TOL = 1e-12


@dataclass
class Outcome:
    seconds: float
    attempted: int
    failed: int
    output: object = None
    digest: str = ""
    csv_bytes: int = 0
    errors: list = field(default_factory=list)
    chunks: list = field(default_factory=list)  # (items, seconds) per chunk


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_files(paths: list[str]) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class PhaseDiagram:
    """``mtphase phase-diagram`` on both shipped configs, in-process.

    ``resolutions`` maps a config to the ``[sweep] resolution`` it is run
    at; a config not in it runs as shipped.
    """

    name = "phase-diagram"

    def __init__(self, root: str, work: str, resolutions: dict | None = None):
        self.root, self.work, self.resolutions = root, work, resolutions or {}

    def prepare(self) -> None:
        self.jobs = []
        for cfg in inputs.SHIPPED_CONFIGS:
            path = inputs.config_path(self.root, cfg)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if cfg in self.resolutions:
                text = inputs.with_resolution(text, self.resolutions[cfg])
                path = os.path.join(self.work, f"pd-{cfg}.ini")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            out = os.path.join(self.work, f"pd-{cfg}")
            self.jobs.append((cfg, path, out, inputs.Plane.from_text(text)))
        self.cells = sum(plane.resolution[0] * plane.resolution[1]
                         for *_, plane in self.jobs)

    def execute(self) -> Outcome:
        failed = 0
        t0 = time.perf_counter()
        codes = [_quiet_main(["phase-diagram", "--config", path, "--out", out])
                 for _, path, out, _ in self.jobs]
        seconds = time.perf_counter() - t0
        files = []
        for (cfg, _, out, _), rc in zip(self.jobs, codes):
            if rc != 0:
                failed += 1
                continue
            files += [os.path.join(out, "phase-diagram.csv"),
                      os.path.join(out, "critical-curve.csv")]
        digest, size = _read_files(files)
        errors = [f"phase-diagram on {cfg} exited with {rc}"
                  for (cfg, *_), rc in zip(self.jobs, codes) if rc != 0]
        return Outcome(seconds, len(self.jobs), failed, codes, digest, size, errors)

    def vertices(self) -> int:
        return sum(len(_read_csv(os.path.join(out, "critical-curve.csv")))
                   for _, _, out, _ in self.jobs)

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        for (cfg, _, out, plane), rc in zip(self.jobs, outcome.output):
            if rc == 0:
                problems += [f"{cfg}: {p}" for p in self._check_one(plane, out)]
        return problems

    def _check_one(self, plane: inputs.Plane, out: str) -> list[str]:
        problems = []
        rows = _read_csv(os.path.join(out, "phase-diagram.csv"))
        n1, n2 = plane.resolution
        if len(rows) != n1 * n2:
            return [f"{len(rows)} cells, expected {n1 * n2}"]
        ij = np.array([[int(r["i"]), int(r["j"])] for r in rows])
        c1 = np.array([float(r["coord1"]) for r in rows])
        c2 = np.array([float(r["coord2"]) for r in rows])
        want1 = np.linspace(*plane.range1, n1)[ij[:, 0]]
        want2 = np.linspace(*plane.range2, n2)[ij[:, 1]]
        if not (np.array_equal(c1, want1) and np.array_equal(c2, want2)):
            problems.append("cell coordinates differ from the configured grid")
        lam, feasible = self._leading(plane, c1, c2)
        has_error = np.array([bool(r["error"]) for r in rows])
        if np.any(has_error == feasible):
            problems.append(f"{int(np.sum(has_error == feasible))} cells report an error "
                            "exactly where the point is feasible, or none where it is not")
        region = np.array([r["region"] for r in rows])
        checked = feasible & (np.abs(lam) > REGION_EXEMPT)
        want = np.where(lam > 0.0, "unstable", "stable")
        wrong = checked & (region != want)
        if wrong.any():
            k = int(np.argmax(wrong))
            problems.append(f"{int(wrong.sum())} cells in the wrong region, e.g. cell "
                            f"{tuple(ij[k])}: {region[k]} with Re sigma11 = {lam[k]:.3e}")
        reported = np.array([float(r["sigma11_re"] or "nan") for r in rows])
        off = feasible & ~(np.abs(reported - lam) <= 1e-9 * np.maximum(1.0, np.abs(lam)))
        if off.any():
            problems.append(f"{int(off.sum())} cells report Re sigma11 away from the reference")
        curve = _read_csv(os.path.join(out, "critical-curve.csv"))
        if not curve:
            problems.append("no critical-curve vertex, but the window has both regions")
        else:
            v1 = np.array([float(r["coord1"]) for r in curve])
            v2 = np.array([float(r["coord2"]) for r in curve])
            vlam, _ = self._leading(plane, v1, v2)
            worst = float(np.max(np.abs(vlam)))
            if not worst <= oracles.SIGMA_BAND:
                problems.append(f"critical-curve vertex with |Re sigma11| = {worst:.3e}")
        return problems

    @staticmethod
    def _leading(plane: inputs.Plane, c1: np.ndarray, c2: np.ndarray):
        values = plane.points(c1, c2)
        q = oracles.rates(values)
        d = np.stack([values[k] for k in inputs.DIFFUSIVITIES], axis=-1)
        K1 = q.C1 * q.k1 * q.k7 - q.k3 * q.k5 * q.E
        positive = np.all([values[k] > 0 for k in values], axis=0)
        feasible = positive & (K1 > 0)
        lam = np.full(c1.shape, np.nan)
        if feasible.any():
            sub = oracles.rates({k: v[feasible] for k, v in values.items()})
            E1 = oracles.mode_block(oracles.linearisation(sub), d[feasible],
                                    oracles.rho(1, values["ell"][feasible]))
            lam[feasible] = oracles.leading_real(E1)
        return lam, feasible

    @staticmethod
    def same(first: Outcome, later: Outcome) -> bool:
        return first.digest == later.digest


class ThresholdScan:
    """``find_threshold`` (with its 50-mode report) then ``classify_transition``.

    Rays are timed in chunks of :attr:`CHUNK`, so that a run has many rate
    samples and a short stall moves one of them only.
    """

    name = "threshold-scan"
    CHUNK = 25

    def __init__(self, seed: int, n_rays: int):
        self.seed, self.n_rays = seed, n_rays

    def prepare(self) -> None:
        self.rays = inputs.draw_rays(np.random.default_rng([self.seed, 1]), self.n_rays)

    def execute(self) -> Outcome:
        results, errors, chunks = [], [], []
        t0 = t_chunk = time.perf_counter()
        for k, ray in enumerate(self.rays, start=1):
            try:
                base = mtphase.ModelParams(bc=ray.bc, **ray.base)
                r = mtphase.ParameterRay(
                    base=base,
                    direction=dict(zip(inputs.DIFFUSIVITIES, ray.weights)),
                    bracket=ray.bracket,
                )
                tp = mtphase.find_threshold(r)
                results.append((tp, mtphase.classify_transition(tp)))
            except mtphase.MTPhaseError as exc:
                results.append(None)
                errors.append(f"ray {len(results) - 1}: {type(exc).__name__}: {exc}")
            if k % self.CHUNK == 0 or k == len(self.rays):
                now = time.perf_counter()
                chunks.append((k - sum(n for n, _ in chunks), now - t_chunk))
                t_chunk = now
        seconds = time.perf_counter() - t0
        return Outcome(seconds, len(self.rays), len(errors), results, errors=errors,
                       chunks=chunks)

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        for k, (ray, res) in enumerate(zip(self.rays, outcome.output)):
            if res is None:
                continue
            found = self._check_one(*res)
            if not abs(res[0].ray_coord - ray.s_star) <= 1e-8 * ray.s_star:
                found.append(f"threshold at {res[0].ray_coord!r}, the generator's is "
                             f"{ray.s_star!r}")
            problems += [f"ray {k} ({ray.bc}): {p}" for p in found]
        return problems

    @staticmethod
    def _check_one(tp, report) -> list[str]:
        problems = []
        p = tp.lambda0
        q = oracles.rates(vars(p))
        A = oracles.linearisation(q)
        d = np.array([p.d1, p.d2, p.d3])
        rho1 = float(oracles.rho(1, p.ell))
        sig = np.linalg.eigvals(oracles.mode_block(A, d, rho1))
        sig = sig[np.argsort(-sig.real)]
        if not abs(sig[0].real) <= oracles.SIGMA_BAND:
            problems.append(f"reference Re sigma11 = {sig[0].real:.3e} outside the zero band")
        if not abs(tp.sigma11.real - sig[0].real) <= oracles.SIGMA_BAND:
            problems.append(f"sigma11 {tp.sigma11!r} differs from the reference {sig[0]!r}")

        blocks = oracles.mode_block(A, d, np.arange(1, 51) ** 2 * rho1)
        higher = float(oracles.leading_real(blocks[1:]).max())
        traces = np.trace(blocks, axis1=1, axis2=2)
        minors = sum(
            blocks[:, i, i] * blocks[:, j, j] - blocks[:, i, j] * blocks[:, j, i]
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        rep = tp.stability_report
        own = {
            "sigma11_in_band": abs(sig[0]) <= oracles.SIGMA_BAND,
            "sigma11_simple": bool(np.all(np.abs(sig[1:] - sig[0]) > 1e-6)),
            "mode1_rest_stable": bool(sig[1].real < 0.0 and sig[2].real < 0.0),
            "higher_modes_stable": higher < 0.0,
            "traces_negative": bool(np.all(traces < 0.0)),
            "p1_positive": bool(np.all(minors > 0.0)),
        }
        for flag, value in own.items():
            if getattr(rep, flag) != value:
                problems.append(f"report {flag} = {getattr(rep, flag)}, reference {value}")
        verdict = all(own.values())
        if rep.passed is not verdict:
            problems.append(f"report verdict {rep.passed}, reference {verdict}")

        if p.bc.value == "dirichlet":
            alpha, omega = oracles.dirichlet_alpha(q, A, d, p.ell)
            # omega/alpha does not depend on how omega is normalised
            got = report.omega / report.quadratic_coeff
            want = omega / alpha
            name = "omega/alpha"
        else:
            b, omega = oracles.neumann_b(q, A, d, p.ell)
            got = np.array([report.transition_number / (report.omega @ report.omega)])
            want = np.array([b / (omega @ omega)])
            name = "b/|omega|^2"
        if not np.abs(got - want).max() <= BRANCH_RTOL * np.abs(want).max():
            problems.append(f"{name} = {got} against the reference {want}")
        return problems

    @staticmethod
    def same(first: Outcome, later: Outcome) -> bool:
        def key(res):
            if res is None:
                return None
            tp, rep = res
            return (tp.ray_coord, tp.sigma11, tp.stability_report.passed,
                    rep.quadratic_coeff, rep.transition_number)
        return [key(r) for r in first.output] == [key(r) for r in later.output]


class Saturate:
    """``simulate(..., stop_on_saturation=True)`` to the Dirichlet branch.

    ``full``: the library example of the README, from the canonical
    threshold unfolded to ``k7 = 2.2`` and an aligned start of seeded
    amplitude near 0.01, with the program's own step size.  ``confirm``:
    the same point and grid started on the reference steady state, so the
    run ends after the stop rule's first full window.
    """

    name = "saturate"
    N = 64
    K7 = 2.2

    def __init__(self, seed: int, mode: str):
        self.seed, self.mode = seed, mode

    def reference_point(self):
        # canonical threshold: d*^3 + 5 d*^2 + 5 d* - 1 = 0
        roots = np.roots([1.0, 5.0, 5.0, -1.0])
        d_star = float(max(r.real for r in roots if abs(r.imag) < 1e-12))
        values = dict(k1=1.0, k3=1.0, k5=1.0, k7=self.K7, C1=1.0, E=1.0, ell=float(np.pi))
        return values, np.full(3, d_star)

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.amplitude = 0.01 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
        if self.mode == "confirm":
            self.point = self.reference_point()
            self.start = self.reference()

    def reference(self) -> np.ndarray:
        """Steady state on the branch, by Newton from the reduced prediction."""
        values, d = self.reference_point()
        q = oracles.rates(values)
        A = oracles.linearisation(q)
        system = oracles.SemiDiscrete(q, d, values["ell"], self.N, neumann=False)
        sigma = float(oracles.leading_real(oracles.mode_block(A, d, oracles.rho(1, values["ell"]))))
        alpha, omega = oracles.dirichlet_alpha(q, A, d, values["ell"])
        e1 = np.sin(np.pi * system.x / values["ell"])
        return system.newton((-sigma / alpha) * omega[:, None] * e1[None, :])

    def execute(self) -> Outcome:
        errors = []
        t0 = time.perf_counter()
        try:
            if self.mode == "full":
                base = mtphase.ModelParams(k1=1, k3=1, k5=1, k7=2, C1=1, E=1,
                                           d1=1, d2=1, d3=1, ell=float(np.pi))
                ray = mtphase.ParameterRay(base=base, direction={"d1": 1, "d2": 1, "d3": 1},
                                           bracket=(0.05, 1.0))
                tp = mtphase.find_threshold(ray)
                mtphase.classify_transition(tp)
                p = tp.lambda0.replace(k7=self.K7)
                grid = mtphase.make_grid(p, self.N)
                start = mtphase.initial_state(p, grid, kind="aligned", amplitude=self.amplitude)
            else:
                values, d = self.point
                p = mtphase.ModelParams(d1=d[0], d2=d[1], d3=d[2], **values)
                grid = mtphase.make_grid(p, self.N)
                start = mtphase.FieldState(t=0.0, u=self.start.copy())
            result = mtphase.simulate(p, grid, start, t_end=2000.0,
                                      stop_on_saturation=True, saturation_tol=SATURATION_TOL)
        except mtphase.MTPhaseError as exc:
            result = None
            errors.append(f"saturate ({self.mode}): {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        return Outcome(seconds, 1, len(errors), result, errors=errors)

    def check(self, outcome: Outcome) -> list[str]:
        result = outcome.output
        if result is None:
            return []
        if not result.saturated:
            return [f"did not saturate in {result.steps} steps"]
        ref = self.start if self.mode == "confirm" else self.reference()
        err = float(np.abs(result.final_state.u - ref).max() / np.abs(ref).max())
        if not err <= SATURATION_FACTOR * SATURATION_TOL:
            return [f"final field {err:.3e} (relative) from the reference steady state, "
                    f"bound {SATURATION_FACTOR * SATURATION_TOL:.1e}"]
        return []

    @staticmethod
    def same(first: Outcome, later: Outcome) -> bool:
        a, b = first.output, later.output
        if a is None or b is None:
            return a is b
        return a.steps == b.steps and np.array_equal(a.final_state.u, b.final_state.u)


class Transient:
    """``mtphase simulate`` on a shipped config, in-process."""

    name = "transient"

    def __init__(self, root: str, work: str, seed: int, config: str):
        self.path = inputs.config_path(root, config)
        self.out = os.path.join(work, f"sim-{config}")
        self.sim_seed = int(np.random.default_rng([seed, 3]).integers(0, 2**32))
        self.config = config

    def prepare(self) -> None:
        self.run_config = mtphase.parse_config(self.path)

    def execute(self) -> Outcome:
        t0 = time.perf_counter()
        rc = _quiet_main(["simulate", "--config", self.path, "--out", self.out,
                          "--seed", str(self.sim_seed)])
        seconds = time.perf_counter() - t0
        if rc != 0:
            return Outcome(seconds, 1, 1, rc, errors=[f"simulate on {self.config} exited with {rc}"])
        digest, size = _read_files([os.path.join(self.out, "simulate.csv"),
                                    os.path.join(self.out, "final-state.csv")])
        return Outcome(seconds, 1, 0, rc, digest, size)

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.output != 0:
            return []
        cfg = self.run_config
        p, sc = cfg.params, cfg.simulate
        neumann = p.bc.value != "dirichlet"
        series = _read_csv(os.path.join(self.out, "simulate.csv"))
        state = np.loadtxt(os.path.join(self.out, "final-state.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        t_final = float(series[-1]["t"])
        u = state[:, 1:].T
        q = oracles.rates(vars(p))
        system = oracles.SemiDiscrete(q, p.diffusion, p.ell, sc.N, neumann)
        problems = []
        if not np.allclose(state[:, 0], system.x, rtol=0.0, atol=1e-12 * p.ell):
            problems.append("final-state x column differs from the grid")
        grid = mtphase.make_grid(p, sc.N)
        u0 = mtphase.initial_state(p, grid, kind=sc.ic_kind, amplitude=sc.ic_amplitude,
                                   seed=self.sim_seed).u
        ref = system.integrate(u0, t_final)
        err = float(np.abs(u - ref).max() / np.abs(ref).max())
        if not err <= TRANSIENT_RTOL:
            problems.append(f"final field {err:.3e} (relative) from the Radau reference "
                            f"at t = {t_final!r}")
        if neumann:
            worst = float(np.abs(u.mean(axis=1)).max())
            if not worst <= MEAN_TOL:
                problems.append(f"component mean {worst:.3e} above {MEAN_TOL:.0e}")
        return problems

    @staticmethod
    def same(first: Outcome, later: Outcome) -> bool:
        return first.digest == later.digest
