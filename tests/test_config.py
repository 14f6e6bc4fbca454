"""INI configuration: parsing, validation, defaults, canonical hashing."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtphase import (
    ParseError,
    UnknownKey,
    ValidationError,
    config_sha256,
    default_verify_config,
    main,
    parse_config,
    parse_config_text,
    serialize_config,
)
from mtphase.model import POSITIVE_FIELDS
from mtphase.verification import _packaged_config

MINIMAL = """\
[model]
k1 = 1.0
k3 = 1.0
k5 = 1.0
k7 = 2.0
C1 = 1.0
E = 1.0
d1 = 0.3
d2 = 0.3
d3 = 0.3

[domain]
ell = 3.14
"""

FULL = MINIMAL + """\
bc = neumann-zero-average

[analysis]
M_max = 20
tol = 1e-9
ray = d1:1,d2:2,d3:0.5
bracket = 0.1,2.0

[simulate]
N = 64
dt = 0.005
T = 12.5
ic = aligned:0.01
seed = 3
record_every = 4

[sweep]
axis1 = d1
range1 = 0.1,0.5
axis2 = k7
range2 = 1.0,3.0
resolution = 5,4

[output]
directory = results
formats = csv
"""


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.params.k7 == 2.0
    assert cfg.params.bc == "dirichlet"
    assert cfg.analysis.M_max == 50
    assert cfg.analysis.tol == 1e-10
    assert cfg.analysis.ray_direction is None
    assert cfg.simulate.N == 256
    assert cfg.simulate.dt is None  # "auto"
    assert cfg.simulate.T == 100.0
    assert (cfg.simulate.ic_kind, cfg.simulate.ic_amplitude) == ("random", 1e-4)
    assert cfg.simulate.seed == 0
    assert cfg.simulate.record_every == 10
    assert cfg.sweep is None
    assert cfg.output.directory == "out"
    assert cfg.output.formats == ("csv",)


def test_full_config_values():
    cfg = parse_config_text(FULL)
    assert cfg.params.bc == "neumann-zero-average"
    assert cfg.analysis.ray_direction == (("d1", 1.0), ("d2", 2.0), ("d3", 0.5))
    assert cfg.analysis.ray_bracket == (0.1, 2.0)
    assert cfg.simulate.dt == 0.005
    assert (cfg.simulate.ic_kind, cfg.simulate.ic_amplitude) == ("aligned", 0.01)
    assert cfg.sweep.axis1 == "d1"
    assert cfg.sweep.resolution == (5, 4)
    assert cfg.output.directory == "results"


def test_serialize_round_trip():
    cfg = parse_config_text(FULL)
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    # Serialization is canonical: a second pass is identical text.
    assert serialize_config(parse_config_text(text)) == text


def test_hash_independent_of_formatting():
    reordered = MINIMAL.replace("k1 = 1.0\n", "").replace(
        "[model]\n", "[model]\nk1 = 1.0\n"
    )
    spaced = MINIMAL.replace("k3 = 1.0", "k3=1.0   # growth")
    assert config_sha256(parse_config_text(reordered)) == config_sha256(
        parse_config_text(MINIMAL)
    )
    assert config_sha256(parse_config_text(spaced)) == config_sha256(
        parse_config_text(MINIMAL)
    )
    changed = MINIMAL.replace("k3 = 1.0", "k3 = 1.5")
    assert config_sha256(parse_config_text(changed)) != config_sha256(
        parse_config_text(MINIMAL)
    )


def test_unknown_section_and_key_rejected():
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL + "\n[plotting]\ncolor = red\n")
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL.replace("k3 = 1.0", "k3 = 1.0\nkX = 2.0"))


def test_malformed_ini_raises_parse_error():
    with pytest.raises(ParseError):
        parse_config_text("[model\nk1 = 1\n")
    with pytest.raises(ParseError):
        parse_config_text("k1 = 1.0\n")  # key outside any section


def test_missing_required_key():
    broken = MINIMAL.replace("k5 = 1.0\n", "")
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(broken)
    assert "k5" in str(excinfo.value)


def test_missing_domain_length():
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(MINIMAL.replace("ell = 3.14\n", ""))
    assert "ell" in str(excinfo.value)


def test_ray_requires_bracket():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[analysis]\nray = d1:1\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[analysis]\nbracket = 0.1,1.0\n")


def test_bad_values_rejected():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("k1 = 1.0", "k1 = banana"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("ell = 3.14", "ell = 3.14\nbc = periodic"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[simulate]\nic = wavy:0.1\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[simulate]\nN = 0\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[sweep]\naxis1 = d1\nrange1 = 0.1,0.5\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("k1 = 1.0", "k1 = {}"),  # [model] number
        ("dt = 0.005", "dt = {}"),  # [simulate] number
        ("T = 12.5", "T = {}"),
        ("range1 = 0.1,0.5", "range1 = 0.1,{}"),  # pair
        ("bracket = 0.1,2.0", "bracket = {},2.0"),
        ("ray = d1:1,d2:2,d3:0.5", "ray = d1:1,d2:{},d3:0.5"),  # axis weight
        ("ic = aligned:0.01", "ic = aligned:{}"),  # initial-condition amplitude
    ],
    ids=["model", "dt", "T", "range1", "bracket", "axis-weight", "ic-amplitude"],
)
def test_non_finite_numbers_rejected(old, new, bad):
    assert old in FULL
    with pytest.raises(ValidationError):
        parse_config_text(FULL.replace(old, new.format(bad)))


def test_axis_field_names_validated():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[analysis]\nray = q9:1\nbracket = 0.1,1.0\n")


def test_ray_and_plane_accessors():
    cfg = parse_config_text(FULL)
    ray = cfg.ray()
    assert ray.bracket == (0.1, 2.0)
    assert ray.at(1.0).d2 == pytest.approx(2.0)
    plane = cfg.plane()
    assert plane.at(0.2, 1.5).d1 == pytest.approx(0.2)
    assert plane.at(0.2, 1.5).k7 == pytest.approx(1.5)
    bare = parse_config_text(MINIMAL)
    with pytest.raises(ValidationError):
        bare.ray()
    with pytest.raises(ValidationError):
        bare.plane()


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL)
    assert parse_config(str(path)) == parse_config_text(FULL)


def test_parse_error_reports_line_number():
    bad = MINIMAL + "\n[analysis]\nM_max 20\n"
    with pytest.raises(ParseError) as excinfo:
        parse_config_text(bad)
    assert "line" in str(excinfo.value).lower() or ":" in str(excinfo.value)


CANONICAL_INI = Path(__file__).parents[1] / "configs" / "canonical.ini"
CANONICAL_LINES = CANONICAL_INI.read_text().splitlines()


def test_verify_reads_the_shipped_configs_from_the_package():
    # `mtphase verify` reads its canonical and jump points from the INIs
    # packaged in mtphase/configs, the files configs/ holds
    packaged = resources.files("mtphase") / "configs"
    for name in ("canonical", "neumann-jump"):
        shipped = CANONICAL_INI.with_name(f"{name}.ini")
        assert (packaged / f"{name}.ini").read_bytes() == shipped.read_bytes()
    assert default_verify_config() == parse_config(CANONICAL_INI)
    jump_ini = CANONICAL_INI.with_name("neumann-jump.ini")
    assert _packaged_config("neumann-jump").ray() == parse_config(jump_ini).ray()


#: indices of the ``key = value`` lines of canonical.ini
_ENTRIES = [i for i, line in enumerate(CANONICAL_LINES) if "=" in line and not line.startswith("#")]


def _section_of(index: int) -> str:
    return next(line for line in reversed(CANONICAL_LINES[:index]) if line.startswith("["))


def _mutate(edits) -> tuple[str, bool]:
    """canonical.ini with ``edits`` applied; also whether a duplicate was added."""
    lines = [[line] for line in CANONICAL_LINES]
    tail = []
    duplicate = False
    for index, kind in edits:
        line = CANONICAL_LINES[index]
        key = line.split("=", 1)[0].strip()
        if kind == "empty":
            lines[index][0] = f"{key} ="
        elif kind == "comma":
            lines[index][0] = f"{key} = ,"
        elif kind == "duplicate-key":
            lines[index].append(line)
            duplicate = True
        else:  # duplicate-section
            tail += ["", _section_of(index), line]
            duplicate = True
    return "\n".join([line for group in lines for line in group] + tail) + "\n", duplicate


_KINDS = ["empty", "comma", "duplicate-key", "duplicate-section"]


def _check_mangled(edits) -> None:
    """Parsing succeeds or raises a configuration error; the CLI never exits 4.

    Duplicates raise a ParseError, which the INI reader reports first;
    other edits parse or raise a ValidationError.  ``steady-state`` then
    exits 0 or 2, writing into the configured output directory.
    """
    text, duplicate = _mutate(edits)
    try:
        parse_config_text(text)
    except ParseError:
        assert duplicate
        expected = 2
    except ValidationError:
        assert not duplicate
        expected = 2
    else:
        assert not duplicate
        expected = 0
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        cwd = os.getcwd()
        os.chdir(work)  # the [output] directory, mangled or not, lands here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(["steady-state", "--config", path])
        finally:
            os.chdir(cwd)
    assert rc == expected


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("index", _ENTRIES, ids=lambda i: CANONICAL_LINES[i].split("=")[0].strip())
def test_each_mangled_canonical_entry_is_a_config_error(index, kind):
    _check_mangled([(index, kind)])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ENTRIES), st.sampled_from(_KINDS)), min_size=2, max_size=4))
def test_mangled_canonical_config_is_a_config_error(edits):
    _check_mangled(edits)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("directory = results", "directory =", "directory"),
        ("formats = csv", "formats = ,", "formats"),
        ("ray = d1:1,d2:2,d3:0.5", "ray =", "ray"),
        ("bracket = 0.1,2.0", "bracket =", "bracket"),
    ],
)
def test_empty_values_rejected(old, new, key):
    # Before, these were accepted: an empty directory made every subcommand
    # fail with an internal error, and an empty ray or bracket dropped the
    # ray despite the rule that both are given together.
    assert old in FULL
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(FULL.replace(old, new))
    assert excinfo.value.field == key


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("M_max = 20", "M_max = 0", "M_max"),
        ("tol = 1e-9", "tol = 0", "tol"),
        ("tol = 1e-9", "tol = -1e-10", "tol"),
        ("seed = 3", "seed = -1", "seed"),
        ("T = 12.5", "T = -5.0", "T"),
        ("N = 64", "N = 8", "N"),
    ],
)
def test_out_of_range_values_rejected(old, new, key):
    # Before, M_max = 0, a tol below Brent's smallest and seed = -1 failed
    # later as internal errors, a negative T ran with one recorded row, and
    # N below MIN_GRID_POINTS failed as a numerical error of the grid.
    assert old in FULL
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(FULL.replace(old, new))
    assert excinfo.value.field == key


SHIPPED_SHA256 = {
    "canonical": "f78cd7f8fee04315660994ad1b0247d491d3851343be19c443466500bf5092e3",
    "neumann-jump": "544f94eea930931bbba77b16a68cf7943dc14b203319bfafb65c720cb3d47e3d",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SHA256))
def test_config_sha256_of_the_shipped_configs_is_pinned(name):
    # every run manifest records this hash of the canonical text
    config = parse_config(CANONICAL_INI.with_name(f"{name}.ini"))
    assert config_sha256(config) == SHIPPED_SHA256[name]


def _real(strategy):
    """Text of a float from ``strategy``, as ``repr`` or as 17 significant digits."""
    return st.tuples(strategy, st.sampled_from([repr, "{:.17g}".format])).map(
        lambda pair: pair[1](pair[0])
    )


_POSITIVE_REAL = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE_REAL = st.floats(allow_nan=False, allow_infinity=False)


def _axis_text(names, draw) -> str:
    if len(names) == 1 and draw(st.booleans()):
        return names[0]
    return ",".join(f"{name}:{draw(_real(_FINITE_REAL))}" for name in names)


@st.composite
def _config_texts(draw) -> str:
    """INI text of a valid config in which each optional key may be absent."""
    sections = {
        "model": {key: "1.0" for key in ("k1", "k3", "k5", "C1", "E")},
        "domain": {},
        "analysis": {},
        "simulate": {},
        "output": {},
    }
    sections["model"]["k7"] = "2.0"
    for key in ("d1", "d2", "d3"):
        sections["model"][key] = draw(_real(st.floats(1e-3, 1e3)))
    sections["domain"]["ell"] = draw(_real(st.floats(1e-2, 1e2)))
    optional = {
        ("domain", "bc"): st.sampled_from(["dirichlet", "neumann-zero-average"]),
        ("analysis", "M_max"): st.integers(1, 200).map(str),
        ("analysis", "tol"): _real(st.floats(1e-15, 1.0)),
        ("simulate", "N"): st.integers(16, 4096).map(str),
        ("simulate", "dt"): st.one_of(st.just("auto"), _real(_POSITIVE_REAL)),
        ("simulate", "T"): _real(_POSITIVE_REAL),
        ("simulate", "ic"): st.tuples(
            st.sampled_from(["zero", "random", "aligned"]),
            st.one_of(st.just(""), _real(_FINITE_REAL).map(":{}".format)),
        ).map("".join),
        ("simulate", "seed"): st.integers(0, 2**32).map(str),
        ("simulate", "record_every"): st.integers(1, 1000).map(str),
        ("output", "directory"): st.text("abcXYZ019_-./", min_size=1),
        ("output", "formats"): st.sampled_from(["csv", "csv, csv"]),
    }
    for (section, key), values in optional.items():
        if draw(st.booleans()):
            sections[section][key] = draw(values)
    if draw(st.booleans()):
        ray = draw(st.lists(st.sampled_from(POSITIVE_FIELDS), min_size=1, max_size=4, unique=True))
        sections["analysis"]["ray"] = _axis_text(ray, draw)
        sections["analysis"]["bracket"] = f"{draw(_real(_FINITE_REAL))},{draw(_real(_FINITE_REAL))}"
    if draw(st.booleans()):
        order = draw(st.permutations(POSITIVE_FIELDS))
        n1 = draw(st.integers(1, 4))
        n2 = draw(st.integers(1, 4))
        sections["sweep"] = {
            "axis1": _axis_text(order[:n1], draw),
            "range1": f"{draw(_real(_FINITE_REAL))},{draw(_real(_FINITE_REAL))}",
            "axis2": _axis_text(order[n1:n1 + n2], draw),
            "range2": f"{draw(_real(_FINITE_REAL))},{draw(_real(_FINITE_REAL))}",
            "resolution": f"{draw(st.integers(1, 500))},{draw(st.integers(1, 500))}",
        }
    shown = draw(st.permutations(list(sections)))
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in sections[name].items())
        for name in shown
        if sections[name] or name in ("model", "domain") or draw(st.booleans())
    )


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_serialization_round_trips_and_is_a_fixed_point(text):
    config = parse_config_text(text)
    canonical = serialize_config(config)
    assert parse_config_text(canonical) == config
    assert serialize_config(parse_config_text(canonical)) == canonical


#: one bad value per key of FULL, and the section that holds the key
BAD_VALUES = [
    *[("model", key, "banana") for key in ("k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3")],
    ("domain", "ell", "nan"),
    ("domain", "bc", "periodic"),
    ("analysis", "M_max", "0"),
    ("analysis", "tol", "0"),
    ("analysis", "ray", "d1:1,d1:2"),
    ("analysis", "bracket", "0.1"),
    ("simulate", "N", "8"),
    ("simulate", "dt", "-1"),
    ("simulate", "T", "-5.0"),
    ("simulate", "ic", "wavy:0.1"),
    ("simulate", "seed", "-1"),
    ("simulate", "record_every", "0"),
    ("sweep", "axis1", "q9"),
    ("sweep", "range1", "0.1,0.2,0.3"),
    ("sweep", "axis2", "d1"),
    ("sweep", "range2", "1.0,x"),
    ("sweep", "resolution", "0,3"),
    ("output", "directory", ""),
    ("output", "formats", "pdf"),
]


@pytest.mark.parametrize("section, key, bad", BAD_VALUES, ids=[key for _, key, _ in BAD_VALUES])
def test_every_bad_value_names_its_section_and_key(section, key, bad):
    lines = [f"{key} = {bad}" if line.split("=")[0].strip() == key else line
             for line in FULL.splitlines()]
    assert lines != FULL.splitlines()
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text("\n".join(lines) + "\n")
    assert excinfo.value.field == key
    assert str(excinfo.value).startswith(f"{key}: [{section}] {key}: ")
    if key == "bc":
        assert "expected 'dirichlet' or 'neumann-zero-average'" in str(excinfo.value)


CANONICAL_OVERLAP = "\n".join(CANONICAL_LINES).replace(
    "axis2 = k7", "axis2 = d1").replace("range2 = 1.2,3.0", "range2 = 0.05,0.4") + "\n"


def test_sweep_axes_that_share_a_field_are_rejected(tmp_path):
    # axis1 = d1:1,d2:1,d3:1 and axis2 = d1: axis2 overwrote the d1 of axis1,
    # and the phase diagram wrote a critical curve of its header alone
    assert "axis2 = d1\n" in CANONICAL_OVERLAP
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(CANONICAL_OVERLAP)
    assert excinfo.value.field == "axis2"
    assert "d1" in str(excinfo.value)
    path = tmp_path / "overlap.ini"
    path.write_text(CANONICAL_OVERLAP)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["phase-diagram", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out" / "critical-curve.csv").exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("ray = d1:1,d2:2,d3:0.5", "ray = d2:1, d1:0.5 ,d2:1", "ray"),
        ("axis1 = d1", "axis1 = d1:1,d2:1,d1:3", "axis1"),
        ("axis2 = k7", "axis2 = d2:1,d1:1", "axis2"),
    ],
)
def test_a_field_named_twice_in_the_axes_is_rejected(old, new, key):
    # before, ray = d1:1,d1:2 kept only d1 = 2s while its text and hash kept both
    assert old in FULL
    with pytest.raises(ValidationError) as excinfo:
        parse_config_text(FULL.replace(old, new))
    assert excinfo.value.field == key
