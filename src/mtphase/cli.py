"""Command line interface.

Every subcommand reads an INI configuration, writes CSV artifacts plus a
``manifest.txt`` with checksums into the output directory, and returns a
process exit code:

====  =========================================================
code  meaning
====  =========================================================
0     success
2     configuration problem (bad file, unknown key, bad value)
3     numerical failure (no threshold in bracket, unstable step,
      degenerate coefficient, failed verification, ...)
4     internal error
====  =========================================================

Subcommands
-----------
``steady-state``
    Uniform equilibrium and derived constants at the configured point.
``spectrum``
    Eigenvalues and (adjoint) eigenvectors for modes 1..M_max.
``threshold``
    Critical point on the configured parameter ray, with whether the
    stability-exchange condition (cond2) holds there.
``transition``
    Transition classification and branch coefficients at the threshold.
``simulate``
    Time integration of the reaction-diffusion system; amplitude series
    and final fields.
``phase-diagram``
    Parameter-plane sweep with region classification and the traced
    critical curve.
``verify``
    The numbered verification suite; one line per criterion.

Set ``MTPHASE_DEBUG=1`` to re-raise unexpected exceptions with a
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import artifacts
from .config import RunConfig, config_sha256, parse_config
from .errors import ConfigError, MTPhaseError, NumericalError
from .output import MANIFEST_NAME, VERIFY_COLUMNS, write_csv, write_manifest
from .verification import DEFAULT_SEED, default_verify_config, run_all
from .version import __version__

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtphase",
        description="Phase transitions of a microtubule reaction-diffusion model: "
        "analysis, simulation, and verification.",
    )
    parser.add_argument("--version", action="version", version=f"mtphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, help_text: str, *, config_required: bool = True,
            seed: bool = False):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument(
            "--config",
            required=config_required,
            metavar="FILE",
            help="INI configuration file"
            + ("" if config_required else " (default: the packaged canonical.ini)"),
        )
        sp.add_argument(
            "--out",
            metavar="DIR",
            help="output directory (default: [output] directory from the config)",
        )
        if seed:
            sp.add_argument(
                "--seed",
                type=int,
                metavar="U64",
                help="random seed override",
            )
        return sp

    add("steady-state", "uniform equilibrium and derived constants")
    add("spectrum", "mode eigenvalues and eigenvectors")
    add("threshold", "critical point on the configured parameter ray")
    add("transition", "transition type and branch coefficients at the threshold")
    add("simulate", "time integration with amplitude tracking", seed=True)
    add("phase-diagram", "parameter-plane sweep and critical curve")
    verify = add(
        "verify",
        "run the numbered verification suite",
        config_required=False,
        seed=True,
    )
    verify.add_argument(
        "--only",
        metavar="LIST",
        help="comma-separated criterion numbers to run (default: all)",
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        return parse_config(args.config)
    return default_verify_config()


def _out_dir(args: argparse.Namespace, config: RunConfig) -> str:
    out = args.out if args.out else config.output.directory
    os.makedirs(out, exist_ok=True)
    return out


def _finish(out_dir: str, config: RunConfig, files: list[str]) -> int:
    write_manifest(out_dir, config_sha256(config), files)
    for path in files + [os.path.join(out_dir, MANIFEST_NAME)]:
        print(f"wrote {path}")
    return 0


def _seed(args: argparse.Namespace) -> int | None:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _cmd_artifacts(args: argparse.Namespace) -> int:
    seed = _seed(args) if args.command == "simulate" else None
    config = _load_config(args)
    out = _out_dir(args, config)
    return _finish(out, config, artifacts.run(args.command, config, out, seed=seed))


def _parse_only(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--only expects comma-separated integers, got {text!r}")
    bad = [i for i in indices if not 1 <= i <= 12]
    if bad or not indices:
        raise ConfigError(f"--only criteria must be in 1..12, got {text!r}")
    return indices


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = _seed(args)
    config = _load_config(args)
    # The reproducibility criterion replays the full artifact pipeline, so the
    # configuration must define both a ray and a sweep plane; fail fast here.
    config.ray()
    config.plane()
    out = _out_dir(args, config)
    results = run_all(
        seed=DEFAULT_SEED if seed is None else seed,
        config=config,
        only=_parse_only(args.only),
    )
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.index:2d} {status} {r.name}: {r.detail} [{r.seconds:.2f} s]")
    csv_path = write_csv(
        os.path.join(out, "verify.csv"),
        VERIFY_COLUMNS,
        [[[r.index for r in results], [r.name for r in results],
          [r.passed for r in results], [r.detail for r in results]]],
    )
    write_manifest(out, config_sha256(config), [csv_path])
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} criteria passed")
    for path in (csv_path, os.path.join(out, MANIFEST_NAME)):
        print(f"wrote {path}")
    return 0 if n_failed == 0 else 3


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_artifacts(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MTPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        if os.environ.get("MTPHASE_DEBUG"):
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
