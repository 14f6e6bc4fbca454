"""CSV artifact writers and the reproducible run manifest.

Every subcommand serializes its reports through :func:`write_csv` so that
the on-disk schema stays fixed and bit-stable: floats are written with 17
significant digits (full binary round-trip), bools as ``true``/``false``,
newlines are ``\\n``, and the column sets below are the versioned
contract.  All files are written by the calling process.

Writers hand :func:`write_csv` columns, not rows, in one or more blocks of
rows.  :func:`format_column` renders a whole column at once by its dtype
(float, bool, integer or string arrays) and falls back to
:func:`format_value`, the one scalar rule, cell by cell for anything else;
either way a cell reads exactly as :func:`format_value` renders it.  The
phase diagram is streamed one grid row per block
(:func:`phase_diagram_blocks`), so its text is never held whole in memory.

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

import hashlib
import os
from collections import defaultdict
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .version import __version__

if TYPE_CHECKING:
    from .model import ModelParams, SteadyState
    from .spectral import ModeSpectrum
    from .sweep import PhaseGrid
    from .threshold import ThresholdPoint

__all__ = [
    "format_value",
    "format_column",
    "write_csv",
    "sha256_file",
    "write_manifest",
    "read_manifest",
    "steady_state_columns",
    "spectrum_columns",
    "threshold_columns",
    "transition_columns",
    "phase_diagram_blocks",
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


def format_column(column) -> list[str]:
    """Render a column of cells, each exactly as :func:`format_value` would.

    A NumPy array of floats (at most 64 bits), bools, integers or strings
    is rendered in one pass over ``tolist()``; any other column, such as
    a list or an object array, cell by cell.
    """
    dtype = getattr(column, "dtype", None)
    kind = "O" if dtype is None else dtype.kind
    if kind == "f" and dtype.itemsize <= 8:
        return [format(x, ".17g") for x in column.tolist()]
    if kind == "b":
        return ["true" if x else "false" for x in column.tolist()]
    if kind in "iu":
        return list(map(str, column.tolist()))
    if kind == "U":
        return column.tolist()
    return [format_value(cell) for cell in column]


#: characters that make ``csv.QUOTE_MINIMAL`` quote a cell under the
#: dialect of :func:`write_csv`: delimiter, quote character and line
#: terminator (a lone ``\r`` is not quoted)
_QUOTED_CHARS = (",", '"', "\n")


def _needs_quotes(text: str) -> bool:
    return any(char in text for char in _QUOTED_CHARS)


def _quote_column(cells: Sequence[str], single: bool) -> Sequence[str]:
    """``cells`` with every cell quoted that ``csv.QUOTE_MINIMAL`` quotes.

    One scan of the column decides whether any cell needs it.  In a
    one-column table (``single``) an empty cell is quoted too, as csv
    writes an empty record.
    """
    if not (_needs_quotes("".join(cells)) or (single and "" in cells)):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"'
        if _needs_quotes(cell) or (single and not cell) else cell
        for cell in cells
    ]


def write_csv(
    path: str, columns: Sequence[str], blocks: Iterable[Sequence]
) -> str:
    """Write a header line and then ``blocks`` of rows to ``path``; returns the path.

    Each block is a sequence of ``len(columns)`` equal-length columns,
    one per header name, and stands for that many rows.  Blocks are
    consumed one at a time, so a generator streams a large table.  Cells
    are rendered with :func:`format_column` (full-precision floats) and
    quoted minimally, so free-text fields may contain commas.  The bytes
    are those of ``csv.writer(lineterminator="\\n",
    quoting=csv.QUOTE_MINIMAL)``; the text of a block is joined at once.
    """
    single = len(columns) == 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_quote_column(columns, single)) + "\n")
        for block in blocks:
            if len(block) != len(columns):
                raise ValueError(
                    f"a block of {len(block)} columns under {len(columns)} names"
                )
            cells = [_quote_column(format_column(column), single) for column in block]
            lines = list(map(",".join, zip(*cells, strict=True)))
            if lines:
                handle.write("\n".join(lines) + "\n")
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


def _one_row(cells: Sequence) -> list[list]:
    """The columns of a single-row table."""
    return [[cell] for cell in cells]


def steady_state_columns(p: ModelParams, ss: SteadyState) -> list[list]:
    """The columns of ``steady-state.csv`` (one row)."""
    return _one_row(
        _param_cells(p) + [p.ell, p.bc.value, ss.Mg, ss.Ms, ss.Df, p.K1, p.K2]
    )


STEADY_STATE_COLUMNS = (
    "k1,k3,k5,k7,C1,E,d1,d2,d3,ell,bc,Mg,Ms,Df,K1,K2".split(",")
)

SPECTRUM_COLUMNS = (
    "m,rho,branch,sigma_re,sigma_im,"
    "omega1_re,omega1_im,omega2_re,omega2_im,omega3_re,omega3_im,"
    "omegast1_re,omegast1_im,omegast2_re,omegast2_im,omegast3_re,omegast3_im"
).split(",")


def spectrum_columns(spectra: Sequence[ModeSpectrum]) -> list[np.ndarray]:
    """Long-format columns of ``spectrum.csv``: one row per (mode, branch)."""
    sigma = np.concatenate([spec.sigma for spec in spectra])
    columns = [
        np.repeat([spec.mode.m for spec in spectra], 3),
        np.repeat([spec.mode.rho for spec in spectra], 3),
        np.tile([1, 2, 3], len(spectra)),
        sigma.real,
        sigma.imag,
    ]
    for name in ("omega", "omega_star"):
        for component in np.concatenate([getattr(spec, name) for spec in spectra]).T:
            columns.extend([component.real, component.imag])
    return columns


THRESHOLD_COLUMNS = (
    "ray_coord,k1,k3,k5,k7,C1,E,d1,d2,d3,ell,detE1,sigma11_re,sigma11_im,cond2_ok"
).split(",")


def threshold_columns(tp: ThresholdPoint, cond2_ok: bool) -> list[list]:
    """The columns of ``threshold.csv`` (one row)."""
    p = tp.lambda0
    return _one_row(
        [tp.ray_coord]
        + _param_cells(p)
        + [p.ell, tp.detE1, tp.sigma11.real, tp.sigma11.imag, cond2_ok]
    )


TRANSITION_COLUMNS = (
    "bc,transition_type,sigma11_re,sigma11_im,rho1,alpha_closed_form,"
    "alpha_quadrature,transition_number,omega1,omega2,omega3,"
    "omegast1,omegast2,omegast3"
).split(",")


def transition_columns(report) -> list[list]:
    """The columns of ``transition.csv`` (one row; fields not applicable stay empty)."""
    return _one_row([
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
    ])


SIMULATE_COLUMNS = ["t", "y"]
FINAL_STATE_COLUMNS = ["x", "u1", "u2", "u3"]

PHASE_DIAGRAM_COLUMNS = (
    "i,j,coord1,coord2,region,sigma11_re,sigma11_im,cond2_ok,error".split(",")
)


def phase_diagram_blocks(grid: PhaseGrid) -> Iterator[list[np.ndarray]]:
    """The blocks of ``phase-diagram.csv``: one per grid row, in row-major order.

    Each index and axis coordinate is formatted once, and the text of
    one grid row at a time is built.  The cell of an infeasible point has
    blank region, eigenvalue and ``cond2_ok`` fields and the error message.
    """
    n2 = grid.coord2.size
    j_text = np.array(format_column(np.arange(n2)))
    t_text = np.array(format_column(grid.coord2))
    no_error = np.full(n2, "")
    errors: dict[int, dict[int, str]] = defaultdict(dict)
    for (i, j), message in grid.errors.items():
        errors[i][j] = message
    for i, s_text in enumerate(format_column(grid.coord1)):
        cells = [
            grid.region[i].astype(str), grid.sigma11[i].real, grid.sigma11[i].imag,
            grid.cond2_ok[i],
        ]
        if i in errors:
            row_errors = errors[i]
            cells = [
                np.array(["" if j in row_errors else text
                          for j, text in enumerate(format_column(column))])
                for column in cells
            ]
            messages = np.array([row_errors.get(j, "") for j in range(n2)])
        else:
            messages = no_error
        yield [np.full(n2, str(i)), j_text, np.full(n2, s_text), t_text, *cells, messages]


CRITICAL_CURVE_COLUMNS = ["index", "coord1", "coord2"]

VERIFY_COLUMNS = ["criterion", "name", "passed", "detail"]
