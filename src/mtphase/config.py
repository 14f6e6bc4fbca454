"""Run configuration: INI parsing, validation, and canonical serialization.

A run is described by a sectioned key=value file (INI dialect, no
interpolation).  The grammar is small and fully enumerated here; unknown
sections or keys are rejected so that typos cannot silently change a run.

Sections and keys
-----------------
``[model]``
    ``k1 k3 k5 k7 C1 E d1 d2 d3`` — reaction rates and diffusivities, all
    required, all positive.
``[domain]``
    ``ell`` (required, positive domain length) and ``bc`` (``dirichlet`` or
    ``neumann-zero-average``; default ``dirichlet``).
``[analysis]``
    ``M_max`` (at least 1, default 50), ``tol`` (the relative tolerance of
    the threshold root finder: at least ``4*eps``, about 8.9e-16, the
    smallest that Brent's method accepts; default 1e-10), and an optional
    ray: ``ray`` (axis spec) with ``bracket`` (``lo,hi``).
``[simulate]``
    ``N`` (at least ``simulator.MIN_GRID_POINTS``, 16; default 256),
    ``dt`` (a positive fixed step, or ``auto``, the default: third-order
    IMEX Runge-Kutta steps under the error tolerance ``simulator.ARK_TOL``,
    recorded every ``record_every`` steps of half the stability limit),
    ``T`` (positive end time, default 100), ``ic`` (``zero``,
    ``random[:amplitude]`` or ``aligned[:amplitude]``; default
    ``random:0.0001``), ``seed`` (non-negative, default 0),
    ``record_every`` (positive, default 10).
``[sweep]``
    ``axis1``/``range1``, ``axis2``/``range2`` (axis specs with ``lo,hi``
    ranges) and ``resolution`` (``n1,n2``).  Optional section; required by
    the phase-diagram subcommand.
``[output]``
    ``directory`` (default ``out``) and ``formats`` (default ``csv``; only
    CSV output is supported).

Every real number must be finite: ``nan``, ``inf`` and ``-inf`` are
rejected as validation errors of their key.

An *axis spec* is either a bare parameter name (``d1``) meaning that field
is set to the coordinate directly, or a comma list ``name:weight,...``
(``d1:1,d2:1,d3:0.5``) meaning each named field is set to ``weight *
coordinate``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field

from .errors import ParseError, UnknownKey, ValidationError
from .model import BoundaryCondition, ModelParams, validate_params
from .simulator import MIN_GRID_POINTS
from .threshold import _BRENT_RTOL, ParameterPlane, ParameterRay

__all__ = [
    "AnalysisConfig",
    "SimulateConfig",
    "SweepConfig",
    "OutputConfig",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_sha256",
]

AxisSpec = "str | tuple[tuple[str, float], ...]"

_MODEL_KEYS = ("k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3")
_AXIS_FIELDS = _MODEL_KEYS + ("ell",)

_SECTION_KEYS = {
    "model": set(_MODEL_KEYS),
    "domain": {"ell", "bc"},
    "analysis": {"M_max", "tol", "ray", "bracket"},
    "simulate": {"N", "dt", "T", "ic", "seed", "record_every"},
    "sweep": {"axis1", "range1", "axis2", "range2", "resolution"},
    "output": {"directory", "formats"},
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings for threshold and transition analysis."""

    M_max: int = 50
    tol: float = 1e-10
    ray_direction: str | tuple[tuple[str, float], ...] | None = None
    ray_bracket: tuple[float, float] | None = None


@dataclass(frozen=True)
class SimulateConfig:
    """Settings for time integration runs."""

    N: int = 256
    dt: float | None = None
    T: float = 100.0
    ic_kind: str = "random"
    ic_amplitude: float = 1e-4
    seed: int = 0
    record_every: int = 10


@dataclass(frozen=True)
class SweepConfig:
    """A two-axis parameter slice with grid resolution."""

    axis1: str | tuple[tuple[str, float], ...]
    range1: tuple[float, float]
    axis2: str | tuple[tuple[str, float], ...]
    range2: tuple[float, float]
    resolution: tuple[int, int]


@dataclass(frozen=True)
class OutputConfig:
    """Where and how artifacts are written."""

    directory: str = "out"
    formats: tuple[str, ...] = ("csv",)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    params: ModelParams
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    sweep: SweepConfig | None = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def ray(self) -> ParameterRay:
        """The analysis ray, if one was configured."""
        if self.analysis.ray_direction is None or self.analysis.ray_bracket is None:
            raise ValidationError(
                "ray", "this subcommand needs [analysis] ray and bracket"
            )
        return ParameterRay(
            base=self.params,
            direction=_axis_as_direction(self.analysis.ray_direction),
            bracket=self.analysis.ray_bracket,
        )

    def plane(self) -> ParameterPlane:
        """The sweep plane, if one was configured."""
        if self.sweep is None:
            raise ValidationError("sweep", "this subcommand needs a [sweep] section")
        return ParameterPlane(
            base=self.params,
            axis1=_axis_as_direction(self.sweep.axis1),
            range1=self.sweep.range1,
            axis2=_axis_as_direction(self.sweep.axis2),
            range2=self.sweep.range2,
        )


def _finite_float(text: str) -> float:
    """``float(text)`` that also rejects nan and infinities with ``ValueError``.

    Every real-valued config entry is read through this, so a non-finite
    value is reported as a validation error of its key.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _axis_as_direction(axis):
    if isinstance(axis, str):
        return axis
    return dict(axis)


def _parse_axis(section: str, key: str, text: str):
    text = text.strip()
    if not text:
        raise ValidationError(key, f"[{section}] {key} is empty")
    if ":" not in text:
        name = text
        if name not in _AXIS_FIELDS:
            raise ValidationError(key, f"unknown parameter {name!r} in axis spec")
        return name
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, weight = item.partition(":")
        name = name.strip()
        if name not in _AXIS_FIELDS:
            raise ValidationError(key, f"unknown parameter {name!r} in axis spec")
        try:
            w = _finite_float(weight)
        except ValueError:
            raise ValidationError(
                key, f"bad weight {weight!r} for {name!r} in axis spec"
            ) from None
        pairs.append((name, w))
    if not pairs:
        raise ValidationError(key, f"[{section}] {key} has no entries")
    return tuple(pairs)


def _axis_text(axis) -> str:
    if isinstance(axis, str):
        return axis
    return ",".join(f"{name}:{weight!r}" for name, weight in axis)


def _parse_pair(section: str, key: str, text: str, cast):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(key, f"[{section}] {key} must be two comma-separated values")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError:
        raise ValidationError(key, f"[{section}] {key}: cannot parse {text!r}") from None


def _parse_ic(text: str) -> tuple[str, float]:
    kind, _, amp = text.strip().partition(":")
    kind = kind.strip()
    if kind not in ("zero", "random", "aligned"):
        raise ValidationError("ic", f"unknown initial-condition kind {kind!r}")
    if not amp:
        return kind, 0.0 if kind == "zero" else 1e-4
    try:
        amplitude = _finite_float(amp)
    except ValueError:
        raise ValidationError("ic", f"bad initial-condition amplitude {amp!r}") from None
    return kind, amplitude


class _Section:
    """One parsed section with typed, checked accessors."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.items.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.items:
            raise ValidationError(key, f"[{self.name}] is missing required key {key!r}")
        return self.items[key]

    def number(self, key: str, default: float | None = None) -> float | None:
        raw = self.items.get(key)
        if raw is None:
            return default
        try:
            return _finite_float(raw)
        except ValueError:
            raise ValidationError(
                key, f"[{self.name}] {key}: not a finite number: {raw!r}"
            ) from None

    def integer(self, key: str, default: int | None = None) -> int | None:
        raw = self.items.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(
                key, f"[{self.name}] {key}: not an integer: {raw!r}"
            ) from None


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text; see the module docstring for the grammar."""
    parser = configparser.ConfigParser(
        interpolation=None,
        strict=True,
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#", ";"),
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(f"line {exc.lineno}: key outside any [section]") from None
    except configparser.ParsingError as exc:
        first = exc.errors[0] if getattr(exc, "errors", None) else None
        where = f"line {first[0]}: {first[1]}" if first else str(exc)
        raise ParseError(where) from None
    except configparser.DuplicateOptionError as exc:
        raise ParseError(
            f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"
        ) from None
    except configparser.DuplicateSectionError as exc:
        raise ParseError(f"line {exc.lineno}: duplicate section [{exc.section}]") from None
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None

    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise UnknownKey(f"unknown section [{name}]")
        items = dict(parser.items(name))
        for key in items:
            if key not in _SECTION_KEYS[name]:
                raise UnknownKey(f"unknown key {key!r} in section [{name}]")
        sections[name] = _Section(name, items)

    for required in ("model", "domain"):
        if required not in sections:
            raise ValidationError(required, f"missing required section [{required}]")

    model = sections["model"]
    record: dict[str, object] = {}
    for key in _MODEL_KEYS:
        model.require(key)
        record[key] = model.number(key)
    domain = sections["domain"]
    domain.require("ell")
    record["ell"] = domain.number("ell")
    bc_text = domain.get("bc", BoundaryCondition.DIRICHLET.value)
    try:
        record["bc"] = BoundaryCondition(bc_text)
    except ValueError:
        raise ValidationError(
            "bc",
            f"unknown boundary condition {bc_text!r}; expected "
            f"'dirichlet' or 'neumann-zero-average'",
        ) from None
    params = validate_params(record)

    analysis = AnalysisConfig()
    if "analysis" in sections:
        sec = sections["analysis"]
        ray_text = sec.get("ray")
        bracket_text = sec.get("bracket")
        if (ray_text is None) != (bracket_text is None):
            raise ValidationError(
                "ray", "[analysis] ray and bracket must be given together"
            )
        analysis = AnalysisConfig(
            M_max=sec.integer("M_max", 50),
            tol=sec.number("tol", 1e-10),
            ray_direction=(
                _parse_axis("analysis", "ray", ray_text) if ray_text is not None else None
            ),
            ray_bracket=(
                _parse_pair("analysis", "bracket", bracket_text, _finite_float)
                if bracket_text is not None
                else None
            ),
        )
        if analysis.M_max < 1:
            raise ValidationError(
                "M_max", f"[analysis] M_max must be at least 1, got {analysis.M_max}"
            )
        if analysis.tol < _BRENT_RTOL:
            raise ValidationError(
                "tol",
                f"[analysis] tol must be at least {_BRENT_RTOL!r}, the smallest "
                f"relative tolerance of Brent's method, got {analysis.tol!r}",
            )

    simulate = SimulateConfig()
    if "simulate" in sections:
        sec = sections["simulate"]
        dt_text = sec.get("dt", "auto")
        if dt_text.strip() == "auto":
            dt = None
        else:
            dt = sec.number("dt")
            if dt is not None and dt <= 0.0:
                raise ValidationError("dt", f"[simulate] dt must be positive, got {dt!r}")
        ic_kind, ic_amplitude = _parse_ic(sec.get("ic", "random:0.0001"))
        simulate = SimulateConfig(
            N=sec.integer("N", 256),
            dt=dt,
            T=sec.number("T", 100.0),
            ic_kind=ic_kind,
            ic_amplitude=ic_amplitude,
            seed=sec.integer("seed", 0),
            record_every=sec.integer("record_every", 10),
        )
        if simulate.N < MIN_GRID_POINTS:
            raise ValidationError(
                "N", f"[simulate] N must be at least {MIN_GRID_POINTS}, got {simulate.N}"
            )
        if simulate.record_every <= 0:
            raise ValidationError(
                "record_every",
                f"[simulate] record_every must be positive, got {simulate.record_every}",
            )
        if simulate.T <= 0.0:
            raise ValidationError("T", f"[simulate] T must be positive, got {simulate.T!r}")
        if simulate.seed < 0:
            raise ValidationError(
                "seed", f"[simulate] seed must be non-negative, got {simulate.seed}"
            )

    sweep = None
    if "sweep" in sections:
        sec = sections["sweep"]
        resolution = _parse_pair("sweep", "resolution", sec.require("resolution"), int)
        if resolution[0] <= 0 or resolution[1] <= 0:
            raise ValidationError(
                "resolution", f"[sweep] resolution must be positive, got {resolution!r}"
            )
        sweep = SweepConfig(
            axis1=_parse_axis("sweep", "axis1", sec.require("axis1")),
            range1=_parse_pair("sweep", "range1", sec.require("range1"), _finite_float),
            axis2=_parse_axis("sweep", "axis2", sec.require("axis2")),
            range2=_parse_pair("sweep", "range2", sec.require("range2"), _finite_float),
            resolution=resolution,
        )

    output = OutputConfig()
    if "output" in sections:
        sec = sections["output"]
        formats = tuple(
            part.strip() for part in sec.get("formats", "csv").split(",") if part.strip()
        )
        if not formats:
            raise ValidationError("formats", "[output] formats has no entries")
        for fmt in formats:
            if fmt != "csv":
                raise ValidationError("formats", f"unsupported output format {fmt!r}")
        directory = sec.get("directory", "out")
        if not directory:
            raise ValidationError("directory", "[output] directory is empty")
        output = OutputConfig(directory=directory, formats=formats)

    return RunConfig(
        params=params, analysis=analysis, simulate=simulate, sweep=sweep, output=output
    )


def parse_config(path: str) -> RunConfig:
    """Read and parse a configuration file.

    Parameters
    ----------
    path : str
        Path of an INI-style configuration file.

    Returns
    -------
    RunConfig
        The validated configuration with all defaults applied.

    Raises
    ------
    ParseError
        If the file is not syntactically valid key=value text.
    UnknownKey
        If an unknown section or key appears.
    ValidationError
        If a required key is missing or a value fails validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def serialize_config(config: RunConfig) -> str:
    """Render a configuration as canonical INI text.

    All defaults are materialized, so parsing the output reproduces
    ``config`` exactly (round-trip identity).  Floats are written with
    ``repr`` which round-trips in binary.
    """
    out = io.StringIO()
    p = config.params
    out.write("[model]\n")
    for key in _MODEL_KEYS:
        out.write(f"{key} = {getattr(p, key)!r}\n")
    out.write("\n[domain]\n")
    out.write(f"ell = {p.ell!r}\n")
    out.write(f"bc = {p.bc.value}\n")

    a = config.analysis
    out.write("\n[analysis]\n")
    out.write(f"M_max = {a.M_max}\n")
    out.write(f"tol = {a.tol!r}\n")
    if a.ray_direction is not None and a.ray_bracket is not None:
        out.write(f"ray = {_axis_text(a.ray_direction)}\n")
        out.write(f"bracket = {a.ray_bracket[0]!r},{a.ray_bracket[1]!r}\n")

    s = config.simulate
    out.write("\n[simulate]\n")
    out.write(f"N = {s.N}\n")
    out.write(f"dt = {'auto' if s.dt is None else repr(s.dt)}\n")
    out.write(f"T = {s.T!r}\n")
    out.write(f"ic = {s.ic_kind}:{s.ic_amplitude!r}\n")
    out.write(f"seed = {s.seed}\n")
    out.write(f"record_every = {s.record_every}\n")

    if config.sweep is not None:
        w = config.sweep
        out.write("\n[sweep]\n")
        out.write(f"axis1 = {_axis_text(w.axis1)}\n")
        out.write(f"range1 = {w.range1[0]!r},{w.range1[1]!r}\n")
        out.write(f"axis2 = {_axis_text(w.axis2)}\n")
        out.write(f"range2 = {w.range2[0]!r},{w.range2[1]!r}\n")
        out.write(f"resolution = {w.resolution[0]},{w.resolution[1]}\n")

    o = config.output
    out.write("\n[output]\n")
    out.write(f"directory = {o.directory}\n")
    out.write(f"formats = {','.join(o.formats)}\n")
    return out.getvalue()


def config_sha256(config: RunConfig) -> str:
    """Hex digest of the canonical serialization (used in run manifests)."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
