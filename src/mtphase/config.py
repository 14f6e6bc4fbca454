"""Run configuration: INI parsing, validation, and canonical serialization.

A run is described by a sectioned key=value file (INI dialect, no
interpolation) with the sections ``[model]`` and ``[domain]`` (required),
``[analysis]``, ``[simulate]``, ``[sweep]`` (optional as a whole; the
phase-diagram subcommand needs it) and ``[output]``.  Unknown sections or
keys are rejected so that typos cannot silently change a run.

The table ``_SCHEMA`` is the single source of the grammar: for each key,
the dataclass field(s) it fills, the parser of its text, the canonical text
of its value, its default (INI text, required or optional) and its range
rule.  :func:`parse_config_text` reads every section through it, absent
sections included, and :func:`serialize_config` writes every section
through it.  A bad value raises a :class:`ValidationError` whose ``field``
is its key and whose message reads ``[section] key: ...``; ``nan``, ``inf``
and ``-inf`` are bad values of every real-valued key.  The model fields
must also be positive (:func:`~mtphase.model.validate_params`).

An *axis spec* is either a bare parameter name (``d1``) meaning that field
is set to the coordinate directly, or a comma list ``name:weight,...``
(``d1:1,d2:1,d3:0.5``) meaning each named field is set to ``weight *
coordinate``.  No field may be named twice in one axis, and the two
``[sweep]`` axes may not set a field in common.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter

from .errors import ParseError, UnknownKey, ValidationError
from .model import (
    MIN_GRID_POINTS,
    POSITIVE_FIELDS,
    BoundaryCondition,
    ModelParams,
    validate_params,
)
from .threshold import _BRENT_RTOL, ParameterPlane, ParameterRay, _axis_overlap

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


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings for threshold and transition analysis."""

    M_max: int
    tol: float
    ray_direction: str | tuple[tuple[str, float], ...] | None
    ray_bracket: tuple[float, float] | None


@dataclass(frozen=True)
class SimulateConfig:
    """Settings for time integration runs."""

    N: int
    dt: float | None
    T: float
    ic_kind: str
    ic_amplitude: float
    seed: int
    record_every: int


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

    directory: str
    formats: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    params: ModelParams
    analysis: AnalysisConfig
    simulate: SimulateConfig
    sweep: SweepConfig | None
    output: OutputConfig

    def ray(self) -> ParameterRay:
        """The analysis ray, if one was configured."""
        if self.analysis.ray_direction is None or self.analysis.ray_bracket is None:
            raise ValidationError("ray", "this subcommand needs [analysis] ray and bracket")
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


def _axis_as_direction(axis):
    if isinstance(axis, str):
        return axis
    return dict(axis)


# The parsers of the table.  Each reads a value's text and raises
# ValueError with the explanation that follows "[section] key: ".


def _number(text: str) -> float:
    """``float(text)``, rejecting nan and the infinities as well."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _pair(cast):
    """The parser of ``a,b``, each part read with ``cast``."""

    def parse(text: str) -> tuple:
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 2:
            raise ValueError("must be two comma-separated values")
        try:
            return cast(parts[0]), cast(parts[1])
        except ValueError:
            raise ValueError(f"cannot parse {text!r}") from None

    return parse


def _pair_text(pair: tuple) -> str:
    return f"{pair[0]!r},{pair[1]!r}"


def _axis(text: str) -> str | tuple[tuple[str, float], ...]:
    """An axis spec: a field name, or ``(name, weight)`` pairs."""
    if not text.strip():
        raise ValueError("is empty")
    if ":" not in text:
        name = text.strip()
        if name not in POSITIVE_FIELDS:
            raise ValueError(f"unknown parameter {name!r} in axis spec")
        return name
    pairs: dict[str, float] = {}
    for item in filter(None, (item.strip() for item in text.split(","))):
        name, _, weight = item.partition(":")
        name = name.strip()
        if name not in POSITIVE_FIELDS:
            raise ValueError(f"unknown parameter {name!r} in axis spec")
        if name in pairs:
            raise ValueError(f"names {name!r} twice")
        try:
            pairs[name] = _number(weight)
        except ValueError:
            raise ValueError(f"bad weight {weight!r} for {name!r} in axis spec") from None
    if not pairs:
        raise ValueError("has no entries")
    return tuple(pairs.items())


def _axis_text(axis) -> str:
    if isinstance(axis, str):
        return axis
    return ",".join(f"{name}:{weight!r}" for name, weight in axis)


def _bc(text: str) -> BoundaryCondition:
    try:
        return BoundaryCondition(text)
    except ValueError:
        raise ValueError(
            f"unknown boundary condition {text!r}; expected "
            f"'dirichlet' or 'neumann-zero-average'"
        ) from None


def _dt(text: str) -> float | None:
    return None if text.strip() == "auto" else _number(text)


def _ic(text: str) -> tuple[str, float]:
    """``kind[:amplitude]``; the amplitude defaults to 0 for ``zero``, else 1e-4."""
    kind, _, amp = text.strip().partition(":")
    kind = kind.strip()
    if kind not in ("zero", "random", "aligned"):
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    if not amp:
        return kind, 0.0 if kind == "zero" else 1e-4
    try:
        return kind, _number(amp)
    except ValueError:
        raise ValueError(f"bad initial-condition amplitude {amp!r}") from None


def _directory(text: str) -> str:
    if not text:
        raise ValueError("is empty")
    return text


def _formats(text: str) -> tuple[str, ...]:
    formats = tuple(part.strip() for part in text.split(",") if part.strip())
    if not formats:
        raise ValueError("has no entries")
    for fmt in formats:
        if fmt != "csv":
            raise ValueError(f"unsupported output format {fmt!r}")
    return formats


def _analysis(**fields) -> AnalysisConfig:
    if (fields["ray_direction"] is None) != (fields["ray_bracket"] is None):
        raise ValidationError("ray", "[analysis] ray: must be given together with bracket")
    return AnalysisConfig(**fields)


def _sweep(**fields) -> SweepConfig:
    overlap = _axis_overlap(*(_axis_as_direction(fields[axis]) for axis in ("axis1", "axis2")))
    if overlap:
        raise ValidationError("axis2", f"[sweep] axis2: {overlap}")
    return SweepConfig(**fields)


#: the default of a key that must be given, and of one that may be absent (None)
_REQUIRED, _OPTIONAL = object(), None

_FLOAT_PAIR, _INT_PAIR = _pair(_number), _pair(_integer)
_POSITIVE = (lambda x: x > 0, "must be positive")

#: section -> (the RunConfig field it fills, the builder of that field from the
#: keyword fields read so far, or None to read on into the next section, and
#: key -> (the field(s) it fills, parser, canonical text, default, range)).  A
#: default is INI text, _REQUIRED or _OPTIONAL; a range is (predicate, phrase)
#: or None.  Sections and keys are read and written in this order.
_SCHEMA = {
    "model": ("params", None, {
        key: ((key,), _number, repr, _REQUIRED, None) for key in POSITIVE_FIELDS[:-1]
    }),
    "domain": ("params", lambda **record: validate_params(record), {
        "ell": (("ell",), _number, repr, _REQUIRED, None),
        "bc": (("bc",), _bc, attrgetter("value"), "dirichlet", None),
    }),
    "analysis": ("analysis", _analysis, {
        "M_max": (("M_max",), _integer, str, "50", (lambda n: n >= 1, "must be at least 1")),
        "tol": (("tol",), _number, repr, "1e-10", (
            lambda tol: tol >= _BRENT_RTOL,
            f"must be at least {_BRENT_RTOL!r}, the smallest relative tolerance "
            f"of Brent's method",
        )),
        "ray": (("ray_direction",), _axis, _axis_text, _OPTIONAL, None),
        "bracket": (("ray_bracket",), _FLOAT_PAIR, _pair_text, _OPTIONAL, None),
    }),
    "simulate": ("simulate", SimulateConfig, {
        "N": (("N",), _integer, str, "256", (
            lambda n: n >= MIN_GRID_POINTS, f"must be at least {MIN_GRID_POINTS}"
        )),
        "dt": (("dt",), _dt, lambda dt: "auto" if dt is None else repr(dt), "auto", (
            lambda dt: dt is None or dt > 0.0, "must be positive"
        )),
        "T": (("T",), _number, repr, "100.0", _POSITIVE),
        "ic": (("ic_kind", "ic_amplitude"), _ic, lambda ic: f"{ic[0]}:{ic[1]!r}", "random", None),
        "seed": (("seed",), _integer, str, "0", (lambda n: n >= 0, "must be non-negative")),
        "record_every": (("record_every",), _integer, str, "10", _POSITIVE),
    }),
    "sweep": ("sweep", _sweep, {
        "axis1": (("axis1",), _axis, _axis_text, _REQUIRED, None),
        "range1": (("range1",), _FLOAT_PAIR, _pair_text, _REQUIRED, None),
        "axis2": (("axis2",), _axis, _axis_text, _REQUIRED, None),
        "range2": (("range2",), _FLOAT_PAIR, _pair_text, _REQUIRED, None),
        "resolution": (("resolution",), _INT_PAIR, _pair_text, _REQUIRED, (
            lambda pair: min(pair) > 0, "must be positive"
        )),
    }),
    "output": ("output", OutputConfig, {
        "directory": (("directory",), _directory, str, "out", None),
        "formats": (("formats",), _formats, ",".join, "csv", None),
    }),
}
_REQUIRED_SECTIONS = ("model", "domain")
#: a section that may be absent as a whole, leaving its RunConfig field None
_OPTIONAL_SECTIONS = ("sweep",)


def _read_ini(text: str) -> configparser.ConfigParser:
    """The INI text as a parser; every syntax error is a :class:`ParseError`."""
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
    return parser


def _value(section: str, key: str, text, parse, check):
    """The value of one key from its text (or its default), checked against its range."""
    if text is _REQUIRED:
        raise ValidationError(key, f"[{section}] {key}: required key is missing")
    if text is _OPTIONAL:
        return None
    try:
        value = parse(text)
    except ValueError as exc:
        raise ValidationError(key, f"[{section}] {key}: {exc}") from None
    if check is not None and not check[0](value):
        raise ValidationError(key, f"[{section}] {key}: {check[1]}, got {text}")
    return value


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text; see the module docstring for the grammar.

    The sections and keys of ``_SCHEMA`` are read in its order, each key
    parsed and range-checked before the next, so the first bad value in
    that order is the one reported.  The model point is validated as soon
    as ``[domain]`` is read, before ``[analysis]``.  Raises what
    :func:`parse_config` raises.
    """
    parser = _read_ini(text)
    for name in parser.sections():
        if name not in _SCHEMA:
            raise UnknownKey(f"unknown section [{name}]")
        for key in dict(parser.items(name)):
            if key not in _SCHEMA[name][2]:
                raise UnknownKey(f"unknown key {key!r} in section [{name}]")
    for required in _REQUIRED_SECTIONS:
        if not parser.has_section(required):
            raise ValidationError(required, f"missing required section [{required}]")

    built: dict[str, object] = {}
    fields: dict[str, object] = {}
    for section, (attr, build, keys) in _SCHEMA.items():
        if not parser.has_section(section) and section in _OPTIONAL_SECTIONS:
            built[attr] = None
            continue
        items = dict(parser.items(section)) if parser.has_section(section) else {}
        for key, (names, parse, _, default, check) in keys.items():
            value = _value(section, key, items.get(key, default), parse, check)
            fields.update(zip(names, value if len(names) > 1 else (value,)))
        if build is not None:
            built[attr] = build(**fields)
            fields = {}
    return RunConfig(**built)


def parse_config(path: str) -> RunConfig:
    """Read and parse the configuration file at ``path``.

    Raises :class:`ParseError` if the file cannot be read or is not valid
    key=value text, :class:`UnknownKey` for an unknown section or key, and
    :class:`ValidationError` for a missing section or key or a bad value.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def serialize_config(config: RunConfig) -> str:
    """Render a configuration as canonical INI text, every section and key
    of ``_SCHEMA`` in its order, defaults included; an absent optional key
    or ``[sweep]`` is left out.  Parsing the output reproduces ``config``
    exactly: floats are written with ``repr``, which round-trips in binary.
    """
    blocks = []
    for section, (attr, _, keys) in _SCHEMA.items():
        holder = getattr(config, attr)
        if holder is None:
            continue
        lines = [f"[{section}]\n"]
        for key, (names, _, text, default, _) in keys.items():
            value = attrgetter(*names)(holder)
            if value is not None or default is not _OPTIONAL:
                lines.append(f"{key} = {text(value)}\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)


def config_sha256(config: RunConfig) -> str:
    """Hex digest of the canonical serialization (used in run manifests)."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
