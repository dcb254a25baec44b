"""Deterministic CSV/JSON writers and a minimal schema validator.

Floats are rendered with repr (shortest round-trip), so identical inputs
produce byte-identical files on every run and platform.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigurationError
from .grid import Boundary, Domain, Field


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: FsPath, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    n = len(arrays[0])
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    FsPath(path).write_text("\n".join(lines) + "\n")


def read_text(path: FsPath) -> str:
    """The file's text; bytes that are not UTF-8 raise ConfigurationError
    naming the file."""
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_csv_columns(path: FsPath) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV with a header row; a cell that is not a
    finite number raises ConfigurationError naming the file, row and column."""
    lines = read_text(path).strip().splitlines()
    if not lines:
        raise ConfigurationError(f"{path}: the file is empty")
    names = lines[0].split(",")
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


def write_path_csv(path: FsPath, times: np.ndarray, values: np.ndarray) -> None:
    cols = {"t": times}
    for j in range(values.shape[1]):
        cols[f"z{j}"] = values[:, j]
    write_csv(path, cols)


def read_path_csv(path: FsPath) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a path CSV (t, z0..z{n-1}): two rows or more, uniform t."""
    cols = read_csv_columns(path)
    zcols = [f"z{j}" for j in range(len(cols)) if f"z{j}" in cols]
    if "t" not in cols or not zcols or len(cols["t"]) < 2:
        raise ConfigurationError(
            f"path file {path} needs columns t, z0, z1, ... and at least two rows")
    steps = np.diff(cols["t"])
    off = np.flatnonzero(~(np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])))
    if off.size:
        raise ConfigurationError(
            f"path file {path}: t is not uniform, row {off[0] + 2} is off its first step")
    return cols["t"], np.stack([cols[k] for k in zcols], axis=1)


# ---------------------------------------------------------------------------
# structural schema validation (subset of JSON schema: types + required)
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


def validate_against_schema(obj, schema: dict, where: str = "$") -> None:
    """Check required keys and primitive types; raises ConfigurationError."""
    typ = schema.get("type")
    if typ == "number":
        if obj is None and schema.get("nullable"):
            return
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            raise ConfigurationError(f"{where}: expected number, got {type(obj).__name__}")
        return
    if typ == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ConfigurationError(f"{where}: expected integer, got {type(obj).__name__}")
        return
    if typ in _TYPES:
        if obj is None and schema.get("nullable"):
            return
        if not isinstance(obj, _TYPES[typ]):
            raise ConfigurationError(f"{where}: expected {typ}, got {type(obj).__name__}")
    if typ == "object":
        for key in schema.get("required", []):
            if key not in obj:
                raise ConfigurationError(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_against_schema(obj[key], sub, f"{where}.{key}")
    if typ == "array":
        items = schema.get("items")
        if items:
            for i, v in enumerate(obj):
                validate_against_schema(v, items, f"{where}[{i}]")


def load_schema(name: str) -> dict:
    here = FsPath(__file__).parent / "schemas" / f"{name}.json"
    return json.loads(here.read_text())
