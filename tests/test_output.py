"""CSV formatting, checksum manifests, and float round-tripping."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtphase import read_manifest, sha256_file, write_csv, write_manifest
from mtphase.output import MANIFEST_NAME, format_value


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
    write_csv(path, ["a", "b"], [[1.5, "hello, world"], [2.0, 'say "hi"']])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1.5", "hello, world"], ["2", 'say "hi"']]


def test_write_csv_uses_unix_newlines(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a"], [[1], [2]])
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 3


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
