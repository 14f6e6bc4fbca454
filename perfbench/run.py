"""Benchmark for mtphase: phase-diagram, threshold-scan and saturation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase-diagram --seed 1 --seconds 25 --trace 0

Every workload runs the same four operations in every round, in one
process (a closed loop): ``mtphase phase-diagram`` on both shipped
configs, a batch of threshold rays, a saturation run of ``simulate`` and
``mtphase simulate`` on a shipped config.  The workloads differ in which
operation is run at full size (see README.md).  Rounds repeat until
``--seconds`` have passed; each end-to-end time is the upper quartile of
its samples in the run, and the rate the lower quartile (see
:func:`slow_quartile`).
Outputs are checked against the reference computations in ``oracles.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from spans with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: the matrices are 3x3 to 192x192, and the sweep pool
# already uses every core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import subprocess
import tempfile
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
LARGE_RES = {"canonical": (160, 160), "neumann-jump": (120, 120)}
PROBE_RAYS = 100

#: per workload: sweep resolutions (None: the shipped configs as they
#: are), rays per batch, saturation mode, the config of the ``mtphase
#: simulate`` job, and the operations of one round, in order.  Operations
#: shorter than a second run several times, spread through the round, so
#: that a run has enough samples of them.
WORKLOADS = {
    "phase-diagram": dict(resolutions=LARGE_RES, rays=PROBE_RAYS, saturate="confirm",
                          transient="canonical",
                          schedule=("phase-diagram", "saturate", "transient", "threshold-scan",
                                    "saturate", "transient")),
    "threshold-scan": dict(resolutions=None, rays=400, saturate="confirm",
                           transient="canonical",
                           schedule=("threshold-scan", "phase-diagram", "saturate", "transient",
                                     "phase-diagram", "saturate", "transient",
                                     "phase-diagram")),
    "saturation": dict(resolutions=None, rays=PROBE_RAYS, saturate="full",
                       transient="neumann-jump",
                       schedule=("phase-diagram", "threshold-scan", "phase-diagram", "saturate",
                                 "phase-diagram", "threshold-scan", "phase-diagram",
                                 "transient", "phase-diagram", "threshold-scan",
                                 "phase-diagram")),
}

END_TO_END = {
    "setup_s": "s",
    "phase_diagram_s": "s",
    "thresholds_per_s": "thresholds/s",
    "saturate_s": "s",
    "transient_s": "s",
    "peak_rss_mb": "MB",
    "child_peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulator.step_array_us.n64": "us",
    "simulator.step_array_us.n128": "us",
    "simulator.step_array_us.n512": "us",
    "simulator.step_array_us.neumann": "us",
    "simulator.stepper_init_us": "us",
    "simulator.steps_to_saturation": "count",
    "simulator.simulate_s": "s",
    "spectral.solve_spectrum_us": "us",
    "threshold.plane_at_us": "us",
    "threshold.classify_region_us": "us",
    "threshold.find_threshold_ms": "ms",
    "threshold.stability_report_ms": "ms",
    "threshold.trace_s": "s",
    "threshold.curve_vertices": "count",
    "sweep.sweep_s": "s",
    "sweep.cells": "count",
    "sweep.workers": "count",
    "transition.classify_dirichlet_ms": "ms",
    "transition.classify_neumann_ms": "ms",
    "output.write_csv_ms": "ms",
    "output.csv_bytes": "bytes",
    "output.write_manifest_ms": "ms",
    "config.parse_config_ms": "ms",
    "import_s": "s",
    "trace.overhead_pct": "%",
}

IMPORT_PROBES = 3
SETUP_REPEATS = 3
PROBE_STEPS = 400


class SetupError(Exception):
    """The checkout does not hold the program."""


def load_program(root: str):
    """Import mtphase from ``root/src`` (never from anywhere else)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mtphase", "__init__.py")):
        raise SetupError(f"no mtphase sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import mtphase

    if os.path.dirname(os.path.dirname(os.path.abspath(mtphase.__file__))) != src:
        raise SetupError(f"imported mtphase from {mtphase.__file__}, not from {src}")
    return mtphase


def import_seconds(root: str) -> float:
    """Median wall time of ``import mtphase`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import mtphase; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def build_ops(workload: str, root: str, work: str, seed: int) -> list:
    import ops

    spec = WORKLOADS[workload]
    return [
        ops.PhaseDiagram(root, work, spec["resolutions"]),
        ops.ThresholdScan(seed, spec["rays"]),
        ops.Saturate(seed, spec["saturate"]),
        ops.Transient(root, work, seed, spec["transient"]),
    ]


def run_rounds(op_list, schedule, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed; at least one.

    A round runs the operations named in ``schedule``, in order, and maps
    each operation's name to its outcomes.
    """
    by_name = {op.name: op for op in op_list}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        record = {op.name: [] for op in op_list}
        for name in schedule:
            if tracer is None:
                record[name].append(by_name[name].execute())
            else:
                with tracer.span(f"op.{name}"):
                    record[name].append(by_name[name].execute())
        rounds.append(record)
    return rounds


def alternate_rounds(op_list, schedule, seconds: float, tracer) -> tuple[list, list]:
    """Untraced and traced rounds in turn until ``seconds`` have passed.

    At least one of each; the tracer's wrappers are in place during the
    traced rounds only.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain += run_rounds(op_list, schedule, 0.0)
        tracer.install()
        try:
            traced += run_rounds(op_list, schedule, 0.0, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def outcomes(rounds: list[dict], name: str) -> list:
    return [o for r in rounds for o in r[name]]


def check_rounds(op_list, rounds: list[dict]) -> list[str]:
    """Full checks on the first outcome; every later one must equal it."""
    problems = []
    for op in op_list:
        first, *later = outcomes(rounds, op.name)
        problems += [f"{op.name}: {p}" for p in first.errors]
        problems += [f"{op.name}: {p}" for p in op.check(first)]
        differ = sum(not op.same(first, o) for o in later)
        if differ:
            problems.append(f"{op.name}: {differ} later outcomes differ from the first")
    return problems


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process, and of its largest finished child.

    A forked pool worker's RSS includes the pages it shares with this
    process, so the two are reported apart and never added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def slow_quartile(values: list[float], higher_is_slower: bool = True) -> float:
    """The quartile of a run's samples on the slow side, interpolated within them.

    The shared machine's speed comes in bursts: chunk rates of the same
    rays hold at 165 to 200 per second and jump to 300 for seconds at a
    time.  The slow-side quartile moves less with the bursts a run happens
    to catch than the median does.
    """
    if len(values) == 1:
        return float(values[0])
    return quantiles(values, n=4, method="inclusive")[2 if higher_is_slower else 0]


def end_to_end(rounds: list[dict], setup_s: float, rss: tuple[float, float]) -> dict:
    def seconds(name):
        return slow_quartile([o.seconds for o in outcomes(rounds, name)])

    rates = [n / s for o in outcomes(rounds, "threshold-scan") for n, s in o.chunks]
    return {
        "setup_s": setup_s,
        "phase_diagram_s": seconds("phase-diagram"),
        "thresholds_per_s": slow_quartile(rates, higher_is_slower=False),
        "saturate_s": seconds("saturate"),
        "transient_s": seconds("transient"),
        "peak_rss_mb": rss[0],
        "child_peak_rss_mb": rss[1],
    }


def layer_probes(mtphase, tracer, root: str, saturate) -> None:
    """Direct calls timed layer by layer, outside the workload's rounds."""
    import inputs
    from mtphase.config import parse_config

    values, d = saturate.reference_point()
    dirichlet = mtphase.ModelParams(d1=d[0], d2=d[1], d3=d[2], **values)
    neumann = parse_config(inputs.config_path(root, "neumann-jump")).params
    for label, p, N in (("n64", dirichlet, 64), ("n128", dirichlet, 128),
                        ("n512", dirichlet, 512), ("neumann", neumann, 64)):
        with tracer.span(f"probe.step.{label}"):
            grid = mtphase.make_grid(p, N)
            stepper = mtphase.Stepper(p, grid, 0.5 * mtphase.dt_max(p, grid))
            u = mtphase.initial_state(p, grid, kind="aligned", amplitude=0.1).u
            for _ in range(PROBE_STEPS):
                u = stepper.step_array(u)
    sweep_module = sys.modules["mtphase.sweep"]
    for cfg in inputs.SHIPPED_CONFIGS:
        with tracer.span(f"probe.sweep.{cfg}"):
            config = parse_config(inputs.config_path(root, cfg))
            sweep_module.sweep(config.plane(), config.sweep.resolution, workers=1)


def round_seconds(record: dict) -> float:
    return sum(o.seconds for outs in record.values() for o in outs)


def per_layer(tracer, rounds, op_list, plain_s: float, import_s: float) -> dict:
    from spans import med

    ops_by_name = {op.name: op for op in op_list}
    in_ops = tracer.under("op.")
    n_pd = len(outcomes(rounds, "phase-diagram"))

    def us(name, **kw):
        return med(tracer.durations(name, **kw)) * 1e6

    def total(name):
        return sum(tracer.durations(name, in_ops))

    first = {name: outs[0] for name, outs in rounds[0].items()}
    traced_round_s = median(round_seconds(r) for r in rounds)
    return {
        **{f"simulator.step_array_us.{label}": med(tracer.children(
            f"probe.step.{label}", "simulator.Stepper.step_array")) * 1e6
           for label in ("n64", "n128", "n512", "neumann")},
        "simulator.stepper_init_us": us("simulator.Stepper.__init__"),
        "simulator.steps_to_saturation": first["saturate"].output.steps,
        "simulator.simulate_s": total("simulator.simulate") / len(rounds),
        "spectral.solve_spectrum_us": us("spectral.solve_spectrum"),
        "threshold.plane_at_us": us("threshold.ParameterPlane.at"),
        "threshold.classify_region_us": us("threshold.classify_region"),
        "threshold.find_threshold_ms": us("threshold.find_threshold") / 1e3,
        "threshold.stability_report_ms": us("threshold.stability_exchange_report") / 1e3,
        "threshold.trace_s": total("threshold.trace_threshold_curve") / n_pd,
        "threshold.curve_vertices": ops_by_name["phase-diagram"].vertices(),
        "sweep.sweep_s": total("sweep.sweep") / n_pd,
        "sweep.cells": ops_by_name["phase-diagram"].cells,
        "sweep.workers": sys.modules["mtphase.sweep"].resolve_workers(None),
        "transition.classify_dirichlet_ms": us("transition.classify_transition",
                                               tag="dirichlet") / 1e3,
        "transition.classify_neumann_ms": us("transition.classify_transition",
                                             tag="neumann-zero-average") / 1e3,
        "output.write_csv_ms": us("output.write_csv") / 1e3,
        "output.csv_bytes": sum(o.csv_bytes for o in first.values()),
        "output.write_manifest_ms": us("output.write_manifest") / 1e3,
        "config.parse_config_ms": us("config.parse_config") / 1e3,
        "import_s": import_s,
        "trace.overhead_pct": 100.0 * (traced_round_s - plain_s) / plain_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        mtphase = load_program(root)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        import_s = import_seconds(root)
        op_list = build_ops(args.workload, root, work, args.seed)
        schedule = WORKLOADS[args.workload]["schedule"]
        prepare_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            for op in op_list:
                op.prepare()
            prepare_times.append(time.perf_counter() - t0)
        setup_s = import_s + median(prepare_times)

        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            untraced, traced = alternate_rounds(op_list, schedule, args.seconds, tracer)
            tracer.install()
            try:
                layer_probes(mtphase, tracer, root, op_list[2])
            finally:
                tracer.uninstall()
            rounds = untraced + traced
            plain_s = median(round_seconds(r) for r in untraced)
            metrics = per_layer(tracer, traced, op_list, plain_s, import_s)
            units = PER_LAYER
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                         metrics)
        else:
            rounds = run_rounds(op_list, schedule, args.seconds)
            metrics = end_to_end(rounds, setup_s, peak_rss_mb())
            units = END_TO_END
        problems = check_rounds(op_list, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    every = [o for r in rounds for outs in r.values() for o in outs]
    attempted = sum(o.attempted for o in every)
    failed = sum(o.failed for o in every)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed",
          file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
