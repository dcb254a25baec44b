"""Experiment configuration: typed flat key-value files with dotted sections.

The format is diff-able plain text, one `key = value` per line, `#` for
comments.  Lists are comma separated.  Unknown keys are rejected by name.

    L = 2.0
    eps = 0.1, 0.05, 0.025
    noise.kind = constant
    noise.g0 = 1.0
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .noise import KINDS

AUTO = "auto"


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_float_list(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip()]


def _parse_auto_float(text: str):
    return AUTO if text.strip().lower() == AUTO else _finite_float(text)


def _parse_auto_int(text: str):
    return AUTO if text.strip().lower() == AUTO else int(text)


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    "L": (_finite_float, 2.0),
    "n": (int, 255),
    "modes": (int, 128),
    "eps": (_parse_float_list, [0.1, 0.05, 0.025]),
    "dt": (_finite_float, 1e-3),
    "T": (_finite_float, 10.0),
    "burn_in": (_finite_float, 30.0),
    "stride": (_finite_float, 1.0),
    "n_chains": (int, 64),
    "n_samples": (int, 3000),
    "seed": (int, 20260808),
    "kstar": (_finite_float, 0.2),
    "pstar": (int, 8),
    "modes_noise": (int, 0),
    "delta": (_parse_auto_float, AUTO),
    "radius": (_parse_auto_float, AUTO),
    "init": (str, "zero"),
    "stop_tol": (_finite_float, 1e-8),
    "workers": (_parse_auto_int, AUTO),
    "noise.kind": (str, "constant"),
    "noise.g0": (_finite_float, 1.0),
    "noise.c": (_finite_float, 0.0),
    "action.t0": (_finite_float, 5.0),
    "action.ladder": (int, 3),
    "action.steps": (int, 120),
    "output.dir": (str, "out"),
}


@dataclass
class ExperimentConfig:
    """Configuration values by key.  Parsing checks each value's type only;
    `validate_config` checks the whole once every override is applied,
    before any compute."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, list):
                lines.append(f"{key} = {', '.join(repr(x) for x in v)}")
            else:
                lines.append(f"{key} = {v!r}" if isinstance(v, float) else f"{key} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def default_config() -> ExperimentConfig:
    return ExperimentConfig({k: (v[1].copy() if isinstance(v[1], list) else v[1])
                             for k, v in SCHEMA.items()})


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text over the defaults; unknown keys are named and rejected.

    Not validated: a key's bounds may depend on overrides applied later (a
    file's `modes = 300` is valid once `--set n=511` follows), so the caller
    runs `validate_config` on the final values."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        apply_override(cfg, key, val.strip())
    return cfg


def apply_override(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key not in SCHEMA:
        raise ConfigurationError(f"unknown config key {key!r}")
    parser = SCHEMA[key][0]
    try:
        cfg.values[key] = parser(value)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every field against the module preconditions it feeds."""
    v = cfg.values
    checks = [
        (v["L"] > 0, "L must be positive"),
        (v["n"] >= 8, "n must be at least 8"),
        (1 <= v["modes"] <= v["n"], "modes must satisfy 1 <= modes <= n"),
        (len(v["eps"]) >= 1 and all(e > 0 for e in v["eps"]), "eps values must be positive"),
        (v["dt"] > 0, "dt must be positive"),
        (v["T"] > 0, "T must be positive"),
        (v["burn_in"] >= 0, "burn_in must be nonnegative"),
        (v["stride"] > 0, "stride must be positive"),
        (v["n_chains"] >= 1, "n_chains must be at least 1"),
        (v["n_samples"] >= 1, "n_samples must be at least 1"),
        (v["kstar"] >= 0, "kstar must be nonnegative"),
        (v["pstar"] > 0 and v["pstar"] % 2 == 0, "pstar must be a positive even integer"),
        (v["modes_noise"] >= 0, "modes_noise must be nonnegative"),
        (v["noise.kind"] in KINDS, f"noise.kind must be one of {KINDS}"),
        (v["noise.g0"] > 0, "noise.g0 must be positive"),
        (v["noise.c"] >= 0, "noise.c must be nonnegative"),
        (v["action.t0"] > 1.0, "action.t0 must exceed 1 (unit interpolation time)"),
        (v["action.ladder"] >= 1, "action.ladder must be at least 1"),
        (v["action.steps"] >= 4, "action.steps must be at least 4"),
        (v["init"] in ("zero", "profile") or v["init"].endswith(".csv"),
         "init must be zero, profile, or a .csv path"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigurationError(msg)
    if v["delta"] != AUTO and v["delta"] <= 0:
        raise ConfigurationError("delta must be positive or 'auto'")
    if v["radius"] != AUTO and v["radius"] < 0:
        raise ConfigurationError("radius must be nonnegative or 'auto'")
    if v["workers"] != AUTO and v["workers"] < 1:
        raise ConfigurationError("workers must be at least 1 or 'auto'")
