"""CSV and JSON emission helpers.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files and every value reloads exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

# rows formatted and written per block by write_csv
CSV_BLOCK_ROWS = 256


def format_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> Path:
    """Write columns (equal length) under the given header, CSV_BLOCK_ROWS
    rows at a time.  Each block goes through one tolist(), whose Python
    floats, ints and bools repr prints as format_value prints the elements."""
    path = Path(path)
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ValueError("CSV columns must have equal length")
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            cells = (map(repr, np.asarray(col[start:start + CSV_BLOCK_ROWS]).tolist())
                     for col in columns)
            f.write("".join(",".join(row) + "\n" for row in zip(*cells)))
    return path


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a file produced by write_csv back into named float columns."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    if data.size == 0:
        return {name: np.empty(0) for name in header}
    return {name: data[:, i] for i, name in enumerate(header)}


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
    return path


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
