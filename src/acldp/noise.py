"""Multiplicative noise intensities g(theta) of the state theta, bounded below by g0 > 0.

One family, autonomous as the invariant measure needs:

    g = g0 + c * theta^2 / (1 + theta^2),    c >= 0,

with inf g = g0, globally Lipschitz in the state theta with constant
c * 9 / (8 sqrt(3)) (the maximum of |d/dtheta theta^2/(1+theta^2)| at
theta = 1/sqrt(3)).  Its two kinds name its members: `smooth_bounded_below`
any c, and `constant` the c = 0 member, g = g0 (a `constant` model sets
its c to 0).
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
        if self.kind == "constant":
            object.__setattr__(self, "c", 0.0)
        object.__setattr__(self, "lip", self.c * _SMOOTH_SLOPE)

    @property
    def is_constant(self) -> bool:
        return self.c == 0.0

    def g(self, theta: np.ndarray) -> np.ndarray:
        """Intensity evaluated at state theta, in theta's floating dtype (float64
        for other input).  The floor g0 enters rounded up to that dtype, so
        g >= g0 holds in its arithmetic: float32(0.7) lies below 0.7."""
        theta = np.asarray(theta)
        if theta.dtype.kind != "f":
            theta = theta.astype(float)
        g0 = _floor_in(self.g0, theta.dtype)
        th2 = theta * theta
        return g0 + self.c * th2 / (1.0 + th2)

    def g_prime(self, theta: np.ndarray) -> np.ndarray:
        """State derivative of the intensity (for action-gradient adjoints)."""
        theta = np.asarray(theta, dtype=float)
        return self.c * 2.0 * theta / (1.0 + theta * theta) ** 2

    def linear_growth_constant(self) -> float:
        """Smallest C with |g(theta)| <= C (1 + |theta|) over the family."""
        return self.g0 + self.c
