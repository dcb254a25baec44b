"""Multiplicative noise intensities g(theta) of the state theta, bounded below by g0 > 0.

Two families, autonomous as the invariant measure needs, are provided:

    constant:             g = g0
    smooth_bounded_below: g = g0 + c * theta^2 / (1 + theta^2)

Both satisfy inf g = g0 and are globally Lipschitz in the state theta; the
Lipschitz constant of the smooth family is c * 9 / (8 sqrt(3)) (the maximum
of |d/dtheta theta^2/(1+theta^2)| at theta = 1/sqrt(3)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

KINDS = ("constant", "smooth_bounded_below")

_SMOOTH_SLOPE = 9.0 / (8.0 * np.sqrt(3.0))


@functools.lru_cache(maxsize=None)
def _floor_in(g0: float, dtype: np.dtype) -> np.floating:
    """g0 rounded up to dtype (inf past its range), formed once per pair."""
    with np.errstate(over="ignore"):
        floor = dtype.type(g0)
    return floor if float(floor) >= g0 else np.nextafter(floor, dtype.type(np.inf))


@dataclass(frozen=True)
class NoiseModel:
    """Noise intensity family with floor g0 and state-Lipschitz constant."""

    kind: str = "constant"
    g0: float = 1.0
    c: float = 0.0
    lip: float = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}; choose from {KINDS}")
        if not self.g0 > 0:
            raise ConfigurationError(f"noise floor g0 must be positive, got {self.g0}")
        if self.c < 0:
            raise ConfigurationError(f"noise parameter c must be nonnegative, got {self.c}")
        lip = 0.0 if self.kind == "constant" else self.c * _SMOOTH_SLOPE
        object.__setattr__(self, "lip", lip)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or self.c == 0.0

    def g(self, theta: np.ndarray) -> np.ndarray:
        """Intensity evaluated at state theta, in theta's floating dtype (float64
        for other input).  The floor g0 enters rounded up to that dtype, so
        g >= g0 holds in its arithmetic: float32(0.7) lies below 0.7."""
        theta = np.asarray(theta)
        if theta.dtype.kind != "f":
            theta = theta.astype(float)
        g0 = _floor_in(self.g0, theta.dtype)
        if self.is_constant:
            return np.full_like(theta, g0)
        th2 = theta * theta
        return g0 + self.c * th2 / (1.0 + th2)

    def g_prime(self, theta: np.ndarray) -> np.ndarray:
        """State derivative of the intensity (for action-gradient adjoints)."""
        theta = np.asarray(theta, dtype=float)
        if self.is_constant:
            return np.zeros_like(theta)
        return self.c * 2.0 * theta / (1.0 + theta * theta) ** 2

    def linear_growth_constant(self) -> float:
        """Smallest C with |g(theta)| <= C (1 + |theta|) over the families."""
        if self.is_constant:
            return self.g0
        return self.g0 + self.c
