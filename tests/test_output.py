"""CSV formatting, checksum manifests, and float round-tripping."""

from __future__ import annotations

import csv
import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtphase import (
    parse_config,
    read_manifest,
    run_phase_diagram,
    sha256_file,
    sweep,
    write_csv,
    write_manifest,
)
from mtphase.output import (
    MANIFEST_NAME,
    PHASE_DIAGRAM_COLUMNS,
    format_column,
    format_value,
)

CONFIGS = Path(__file__).parents[1] / "configs"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trips(x):
    assert float(format_value(x)) == x


def test_format_value_special_cases():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(None) == ""
    assert format_value("text") == "text"
    assert format_value(np.float64(0.1)) == format_value(0.1)
    assert format_value(np.int64(3)) == "3"


def test_write_csv_quotes_fields_with_commas(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[[1.5, 2.0], ["hello, world", 'say "hi"']]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1.5", "hello, world"], ["2", 'say "hi"']]


def test_write_csv_uses_unix_newlines(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a"], [[[1, 2]]])
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 3


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), max_size=40),
    st.lists(st.booleans(), max_size=40),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
    st.lists(st.none() | st.text(alphabet='ab ,"\''), max_size=40),
)
def test_format_column_matches_format_value(floats, bools, ints, objects):
    columns = [
        np.array(floats, dtype=np.float64),
        np.array(bools, dtype=bool),
        np.array(ints, dtype=np.int64),
        np.array(objects, dtype=object),
        objects,
        np.array([s or "" for s in objects], dtype=str),
    ]
    for column in columns:
        assert format_column(column) == [format_value(v) for v in column]


def test_format_column_edge_floats():
    column = np.array(_EDGE_FLOATS)
    assert format_column(column) == [format_value(v) for v in column]
    assert format_column(column)[:4] == ["0", "-0", "4.9406564584124654e-324",
                                         "-4.9406564584124654e-324"]


def test_write_csv_rejects_a_block_of_the_wrong_width(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[[1, 2]]])
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[[1, 2], [3]]])


def _csv_oracle(columns, blocks) -> bytes:
    """The bytes of ``csv.writer`` under write_csv's dialect, one
    :func:`format_value` per cell."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for block in blocks:
        writer.writerows(zip(*([format_value(cell) for cell in column] for column in block)))
    return handle.getvalue().encode("utf-8")


# every character csv treats specially under the dialect, and "\r",
# which it does not quote when alone
_CELL_TEXT = st.text(alphabet='ab ,"\n\r', max_size=6)
_FLOATS = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
_CELLS = st.none() | st.booleans() | st.integers() | _FLOATS | _CELL_TEXT


def _column(n: int):
    def cells(strategy):
        return st.lists(strategy, min_size=n, max_size=n)

    return st.one_of(
        cells(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        cells(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        cells(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        cells(_CELL_TEXT).map(lambda v: np.array(v, dtype=str)),
        cells(_CELLS),
    )


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 4))
    columns = draw(st.lists(_CELL_TEXT, min_size=width, max_size=width))
    blocks = []
    for n in draw(st.lists(st.integers(0, 5), max_size=3)):
        blocks.append([draw(_column(n)) for _ in range(width)])
    return columns, blocks


@settings(max_examples=300, deadline=None)
@given(_tables())
# a one-column table with an empty cell, which csv writes as ""
@example((["a"], [[["x", "", None]]]))
@example(([""], [[[1.5]]]))
# a header name with a comma, and a lone "\r"
@example((["a,b", "c"], [[["x\ry"], [""]]]))
def test_write_csv_writes_what_csv_writer_writes(tmp_path_factory, table):
    columns, blocks = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(str(path), columns, blocks)
    assert path.read_bytes() == _csv_oracle(columns, blocks)


def test_write_csv_leaves_a_lone_carriage_return_unquoted(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b,c"], [[["x\ry", ""], ["", "q"]]])
    assert path.read_bytes() == b'a,"b,c"\nx\ry,\n,q\n'
    write_csv(str(path), ["a"], [[["", "x\ry", 'say "hi"']]])
    assert path.read_bytes() == b'a\n""\nx\ry\n"say ""hi"""\n'


def _phase_diagram_oracle(grid) -> bytes:
    """phase-diagram.csv as the row-by-row writer produced it."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(PHASE_DIAGRAM_COLUMNS)
    cells = zip(
        itertools.product(enumerate(grid.coord1.tolist()), enumerate(grid.coord2.tolist())),
        grid.region.ravel().tolist(),
        grid.sigma11.real.ravel().tolist(),
        grid.sigma11.imag.ravel().tolist(),
        grid.cond2_ok.ravel().tolist(),
    )
    for ((i, s), (j, t)), region, re_, im, ok in cells:
        if (i, j) in grid.errors:
            row = [i, j, s, t, None, None, None, None, grid.errors[i, j]]
        else:
            row = [i, j, s, t, region, re_, im, ok, None]
        writer.writerow([format_value(cell) for cell in row])
    return handle.getvalue().encode("utf-8")


_INFEASIBLE_WINDOW = {"range1": "-0.1,0.4", "range2": "0.2,3.0"}


@pytest.mark.parametrize(
    "name, window",
    [("canonical", {}), ("neumann-jump", {}), ("canonical", _INFEASIBLE_WINDOW)],
)
def test_phase_diagram_csv_matches_the_row_writer(tmp_path, name, window):
    text = (CONFIGS / f"{name}.ini").read_text()
    for key, value in {**window, "resolution": "40,40"}.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1
    path = tmp_path / "window.ini"
    path.write_text(text)
    config = parse_config(str(path))
    run_phase_diagram(config, str(tmp_path))
    grid = sweep(config.plane(), config.sweep.resolution)
    written = (tmp_path / "phase-diagram.csv").read_bytes()
    assert written == _phase_diagram_oracle(grid)
    if window:
        errors = set(grid.errors.values())
        assert {e.split(":")[0] for e in errors} == {"NonPositiveParameter", "K1NotPositive"}
        assert any("," in e for e in errors)
        assert b'"' in written


def test_manifest_round_trip(tmp_path):
    f1 = tmp_path / "one.csv"
    f1.write_text("a\n1\n")
    f2 = tmp_path / "two.csv"
    f2.write_text("b\n2\n")
    write_manifest(str(tmp_path), "cafe" * 16, [str(f1), str(f2)])
    entries = read_manifest(str(tmp_path / MANIFEST_NAME))
    assert entries["config_sha256"] == "cafe" * 16
    assert "version" in entries and "created_utc" in entries
    assert entries["sha256:one.csv"] == sha256_file(str(f1))
    assert entries["sha256:two.csv"] == sha256_file(str(f2))


def test_manifest_accumulates_for_same_config(tmp_path):
    f1 = tmp_path / "one.csv"
    f1.write_text("a\n1\n")
    f2 = tmp_path / "two.csv"
    f2.write_text("b\n2\n")
    write_manifest(str(tmp_path), "00" * 32, [str(f1)])
    write_manifest(str(tmp_path), "00" * 32, [str(f2)])
    entries = read_manifest(str(tmp_path / MANIFEST_NAME))
    assert "sha256:one.csv" in entries and "sha256:two.csv" in entries


def test_manifest_resets_for_different_config(tmp_path):
    f1 = tmp_path / "one.csv"
    f1.write_text("a\n1\n")
    f2 = tmp_path / "two.csv"
    f2.write_text("b\n2\n")
    write_manifest(str(tmp_path), "00" * 32, [str(f1)])
    write_manifest(str(tmp_path), "11" * 32, [str(f2)])
    entries = read_manifest(str(tmp_path / MANIFEST_NAME))
    assert "sha256:one.csv" not in entries
    assert "sha256:two.csv" in entries


def test_manifest_entries_sorted_by_name(tmp_path):
    names = ["zeta.csv", "alpha.csv", "mid.csv"]
    for name in names:
        (tmp_path / name).write_text(name + "\n")
    write_manifest(
        str(tmp_path), "ab" * 32, [str(tmp_path / name) for name in names]
    )
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    checksum_lines = [ln for ln in lines if ln.startswith("sha256:")]
    assert checksum_lines == sorted(checksum_lines)
