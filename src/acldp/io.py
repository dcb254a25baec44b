"""Deterministic CSV/JSON writers, and CSV readers that name the file, row
and column of a bad cell in a ConfigurationError.

Floats are rendered with repr (shortest round-trip), so identical inputs
produce byte-identical files on every run and platform.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigurationError
from .grid import Boundary, Domain, Field

_CSV_BLOCK = 4096           # rows of write_csv formatted at a time


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: FsPath, columns: dict[str, np.ndarray]) -> None:
    """A header row of the column names, then one row per index; the rows
    are formatted and written _CSV_BLOCK at a time."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    n = len(arrays[0])
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for lo in range(0, n, _CSV_BLOCK):
            f.write("".join(",".join(_fmt(a[i]) for a in arrays) + "\n"
                            for i in range(lo, min(lo + _CSV_BLOCK, n))))


def read_text(path: FsPath) -> str:
    """The file's text; bytes that are not UTF-8 raise ConfigurationError
    naming the file."""
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_csv_columns(path: FsPath) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV with a header row, in header order; a
    repeated column name, or a cell that is not a finite number, raises
    ConfigurationError naming the file (and the row and column)."""
    lines = read_text(path).strip().splitlines()
    if not lines:
        raise ConfigurationError(f"{path}: the file is empty")
    names = lines[0].split(",")
    if len(set(names)) < len(names):
        raise ConfigurationError(f"{path}: the header repeats a column name")
    data = np.empty((len(lines) - 1, len(names)))
    for row, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ConfigurationError(
                f"{path}: row {row} has {len(cells)} cells, the header has {len(names)}")
        for i, tok in enumerate(cells):
            try:
                data[row - 1, i] = float(tok)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: row {row}, column {names[i]!r} is not a number: {tok!r}") from None
        bad = np.flatnonzero(~np.isfinite(data[row - 1]))
        if bad.size:
            raise ConfigurationError(
                f"{path}: row {row}, column {names[bad[0]]!r} is not finite: {cells[bad[0]]!r}")
    return {name: data[:, i] for i, name in enumerate(names)}


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: FsPath, obj) -> None:
    FsPath(path).write_text(json.dumps(_to_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_field_csv(path: FsPath, d: Domain, f: Field) -> None:
    write_csv(path, {"xi": d.xi, "value": f.values})


def read_field_csv(path: FsPath, d: Domain, bc: Boundary) -> Field:
    cols = read_csv_columns(path)
    if "xi" not in cols or "value" not in cols:
        raise ConfigurationError(f"field file {path} needs columns (xi, value)")
    if len(cols["value"]) != d.n:
        raise ConfigurationError(
            f"field file {path} has {len(cols['value'])} rows, domain needs {d.n}")
    if not np.allclose(cols["xi"], d.xi, atol=1e-9):
        raise ConfigurationError(f"grid in {path} does not match the configured domain")
    return Field(cols["value"], bc)


def read_path_csv(path: FsPath) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a path CSV whose header is exactly t, z0 .. z{k-1}
    (k >= 1): two rows or more, uniform t."""
    cols = read_csv_columns(path)
    zcols = [f"z{j}" for j in range(len(cols) - 1)]
    if list(cols) != ["t"] + zcols or not zcols or len(cols["t"]) < 2:
        raise ConfigurationError(
            f"path file {path} needs the columns t, z0, z1, ... in order and at least two rows")
    steps = np.diff(cols["t"])
    off = np.flatnonzero(~(np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])))
    if off.size:
        raise ConfigurationError(
            f"path file {path}: t is not uniform, row {off[0] + 2} is off its first step")
    return cols["t"], np.stack([cols[k] for k in zcols], axis=1)

