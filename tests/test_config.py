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
