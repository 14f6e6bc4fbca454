"""CSV artifact writers and the reproducible run manifest.

Every subcommand serializes its reports through this module so that the
on-disk schema stays fixed and bit-stable: floats are written with 17
significant digits (full binary round-trip), newlines are ``\\n``, and the
column sets below are the versioned contract.  All files are written by the
calling process.

Schemas
-------
``steady-state.csv``
    k1,k3,k5,k7,C1,E,d1,d2,d3,ell,bc,Mg,Ms,Df,K1,K2
``spectrum.csv``
    m,rho,branch,sigma_re,sigma_im,omega1_re,omega1_im,omega2_re,omega2_im,
    omega3_re,omega3_im,omegast1_re,omegast1_im,omegast2_re,omegast2_im,
    omegast3_re,omegast3_im
``threshold.csv``
    ray_coord,k1,k3,k5,k7,C1,E,d1,d2,d3,ell,detE1,sigma11_re,sigma11_im,
    cond2_ok
``transition.csv``
    bc,transition_type,sigma11_re,sigma11_im,rho1,alpha_closed_form,
    alpha_quadrature,transition_number,omega1,omega2,omega3,omegast1,
    omegast2,omegast3
``simulate.csv``
    t,y
``final-state.csv``
    x,u1,u2,u3
``phase-diagram.csv``
    i,j,coord1,coord2,region,sigma11_re,sigma11_im,cond2_ok,error
``critical-curve.csv``
    index,coord1,coord2
``verify.csv``
    criterion,name,passed,detail

The manifest (``manifest.txt``) is key=value text holding the config hash,
tool version, a UTC timestamp, and one SHA-256 line per written file.  The
timestamp is the only line expected to differ between identical runs.
"""

from __future__ import annotations

import csv
import hashlib
import os
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import ModelParams, SteadyState
from .spectral import ModeSpectrum
from .threshold import ThresholdPoint
from .version import __version__

__all__ = [
    "format_value",
    "write_csv",
    "sha256_file",
    "write_manifest",
    "read_manifest",
    "steady_state_row",
    "spectrum_rows",
    "threshold_row",
    "transition_row",
    "series_rows",
    "state_rows",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.txt"


def format_value(value) -> str:
    """Render one CSV cell: floats at 17 significant digits, bools lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write rows to ``path`` with a header line; returns the path.

    Cells are rendered with :func:`format_value` (full-precision floats)
    and quoted minimally, so free-text fields may contain commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])
    return path


def sha256_file(path: str) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str, config_hash: str, files: Sequence[str]) -> str:
    """Write ``manifest.txt`` listing every output file; returns its path.

    ``files`` are paths inside ``out_dir``; they are recorded under their
    base names, sorted, so the manifest is independent of write order.
    If the directory already holds a manifest for the same configuration
    (matching hash and version), its entries are kept and updated, so
    several subcommands writing into one directory accumulate a single
    manifest covering all of their files.
    """
    created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    entries: dict[str, str] = {}
    path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(path):
        previous = read_manifest(path)
        if (
            previous.get("config_sha256") == config_hash
            and previous.get("version") == __version__
        ):
            entries = {
                key[len("sha256:"):]: value
                for key, value in previous.items()
                if key.startswith("sha256:")
            }
    entries.update((os.path.basename(name), sha256_file(name)) for name in files)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"config_sha256 = {config_hash}\n")
        handle.write(f"version = {__version__}\n")
        handle.write(f"created_utc = {created}\n")
        for name, digest in sorted(entries.items()):
            handle.write(f"sha256:{name} = {digest}\n")
    return path


def read_manifest(path: str) -> dict[str, str]:
    """Parse a manifest back into a key → value mapping."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _param_cells(p: ModelParams) -> list:
    return [p.k1, p.k3, p.k5, p.k7, p.C1, p.E, p.d1, p.d2, p.d3]


def steady_state_row(p: ModelParams, ss: SteadyState) -> list:
    """One row of ``steady-state.csv``."""
    return _param_cells(p) + [p.ell, p.bc.value, ss.Mg, ss.Ms, ss.Df, p.K1, p.K2]


STEADY_STATE_COLUMNS = (
    "k1,k3,k5,k7,C1,E,d1,d2,d3,ell,bc,Mg,Ms,Df,K1,K2".split(",")
)

SPECTRUM_COLUMNS = (
    "m,rho,branch,sigma_re,sigma_im,"
    "omega1_re,omega1_im,omega2_re,omega2_im,omega3_re,omega3_im,"
    "omegast1_re,omegast1_im,omegast2_re,omegast2_im,omegast3_re,omegast3_im"
).split(",")


def spectrum_rows(spectra: Sequence[ModeSpectrum]) -> list[list]:
    """Long-format rows of ``spectrum.csv``: one per (mode, branch)."""
    rows = []
    for spec in spectra:
        for i in range(3):
            row = [spec.mode.m, spec.mode.rho, i + 1,
                   spec.sigma[i].real, spec.sigma[i].imag]
            for vec in (spec.omega[i], spec.omega_star[i]):
                for component in vec:
                    row.extend([component.real, component.imag])
            rows.append(row)
    return rows


THRESHOLD_COLUMNS = (
    "ray_coord,k1,k3,k5,k7,C1,E,d1,d2,d3,ell,detE1,sigma11_re,sigma11_im,cond2_ok"
).split(",")


def threshold_row(tp: ThresholdPoint, cond2_ok: bool) -> list:
    """One row of ``threshold.csv``."""
    p = tp.lambda0
    return (
        [tp.ray_coord]
        + _param_cells(p)
        + [p.ell, tp.detE1, tp.sigma11.real, tp.sigma11.imag, cond2_ok]
    )


TRANSITION_COLUMNS = (
    "bc,transition_type,sigma11_re,sigma11_im,rho1,alpha_closed_form,"
    "alpha_quadrature,transition_number,omega1,omega2,omega3,"
    "omegast1,omegast2,omegast3"
).split(",")


def transition_row(report) -> list:
    """One row of ``transition.csv`` (fields not applicable stay empty)."""
    return [
        report.bc.value,
        report.transition_type.value,
        report.threshold.sigma11.real,
        report.threshold.sigma11.imag,
        report.rho1,
        report.quadratic_coeff,
        report.quadratic_coeff_quadrature,
        report.transition_number,
        *[float(c) for c in report.omega],
        *[float(c) for c in report.omega_star],
    ]


SIMULATE_COLUMNS = ["t", "y"]
FINAL_STATE_COLUMNS = ["x", "u1", "u2", "u3"]


def series_rows(times: np.ndarray, y: np.ndarray) -> list[list]:
    """Rows of ``simulate.csv``."""
    return [[float(t), float(v)] for t, v in zip(times, y)]


def state_rows(x: np.ndarray, u: np.ndarray) -> list[list]:
    """Rows of ``final-state.csv`` from grid coordinates and a (3, N) field."""
    return [
        [float(x[j]), float(u[0, j]), float(u[1, j]), float(u[2, j])]
        for j in range(x.size)
    ]


PHASE_DIAGRAM_COLUMNS = (
    "i,j,coord1,coord2,region,sigma11_re,sigma11_im,cond2_ok,error".split(",")
)

CRITICAL_CURVE_COLUMNS = ["index", "coord1", "coord2"]

VERIFY_COLUMNS = ["criterion", "name", "passed", "detail"]
