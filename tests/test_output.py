"""CSV/JSON writers: shortest round-trip floats, byte stability."""

import numpy as np
import pytest

from spindetect.output import (
    CSV_BLOCK_ROWS,
    format_value,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


def test_format_value_round_trips():
    for v in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.0, float(np.pi),
              2.2860415889319944e-07):
        assert float(format_value(v)) == v
    assert format_value(float("nan")) == "nan"
    assert float(format_value(float("inf"))) == float("inf")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    t = np.linspace(0.0, 1.0, 17)
    y = np.sin(t) * 1e7
    write_csv(path, ["t_s", "y"], [t, y])
    cols = read_csv(path)
    assert list(cols) == ["t_s", "y"]
    np.testing.assert_array_equal(cols["t_s"], t)
    np.testing.assert_array_equal(cols["y"], y)


def test_csv_byte_stability(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64) * 10.0 ** rng.integers(-12, 12, 64)
    write_csv(a, ["x"], [x])
    write_csv(b, ["x"], [x])
    assert a.read_bytes() == b.read_bytes()


def _per_element_csv(header, columns):
    """The writer's text built one numpy scalar at a time."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(format_value(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def test_block_writer_matches_per_element_formatting(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 37
    rng = np.random.default_rng(11)
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:len(special)] = special
    floats[CSV_BLOCK_ROWS:CSV_BLOCK_ROWS + len(special)] = special
    columns = [floats, (rng.standard_normal(n) * 1e3).astype(np.float32),
               rng.integers(-10**12, 10**12, n),
               np.arange(n, dtype=np.uint16), rng.uniform(size=n) < 0.5]
    header = ["f64", "f32", "i64", "u16", "flag"]
    write_csv(tmp_path / "block.csv", header, columns)
    text = (tmp_path / "block.csv").read_text()
    assert text == _per_element_csv(header, columns)
    assert "True" in text and "False" in text
    # an empty table is the header line alone
    write_csv(tmp_path / "empty.csv", ["a"], [np.empty(0)])
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def test_csv_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3), np.arange(2)])


def test_json_round_trip(tmp_path):
    path = tmp_path / "t.json"
    payload = {"a": 0.1, "nested": {"b": [1.0 / 3.0, 2]}, "s": "text",
               "none": None}
    write_json(path, payload)
    assert read_json(path) == payload
