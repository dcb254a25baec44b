"""Spectral core on the interval (-L, L) with Dirichlet boundary data.

The discretization is spectral collocation on a uniform interior grid
xi_j = -L + j * h, h = 2L/(n+1), j = 1..n.  The zero-Dirichlet Laplacian is
diagonalized by the mixed sin/cos family

    e_k(xi) = sin(k pi xi / 2L) / sqrt(L)   (k even)
    e_k(xi) = cos(k pi xi / 2L) / sqrt(L)   (k odd)

with eigenvalues lambda_k = (k pi / 2L)^2.  On the shifted coordinate
xi + L this family is the standard sine basis up to signs, so forward and
inverse transforms reduce to a type-I DST, and composite-trapezoid inner
products on the grid are *exactly* orthonormal:

    h * sum_j e_k(xi_j) e_m(xi_j) = delta_km    for k, m <= n.

Two boundary classes are tracked on fields: zero-Dirichlet values (the
linear space of u with u(-L) = u(L) = 0) and ramp-Dirichlet values
(u(-L) = -1, u(L) = +1).  The ramp psi(xi) = xi/L converts between them.

Every transform is one call of the module attribute `dst`, bound to
`scipy.fftpack.dst`: for type 1 (norm="ortho" too) it is bitwise equal to
`scipy.fft.dst` and skips that function's dispatch layer, about half the
time of a one-row call.  Scalings are precomputed with the plain formulas'
order of operations, so the outputs are bitwise (h / (2 sqrt L)) sign
DST(f)[:modes] and DST(pad(c / (sign sqrt L))) / 2.  The time steppers do
not use these two: `flow.ExpEuler` keeps its state in raw DST coordinates
and folds the scalings into its step weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.fftpack import dst

from .errors import ConfigurationError


class Boundary(enum.Enum):
    """Boundary class of a sampled field."""

    ZERO_DIRICHLET = "zero"
    RAMP_DIRICHLET = "ramp"


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Domain:
    """Immutable grid, eigenpairs, and ramp for the interval (-L, L).

    Domains compare and hash by identity: the array fields have no
    truth-valued equality, and (L, n, modes) determines the rest.

    Attributes
    ----------
    L : half-length of the interval
    n : number of interior grid points
    modes : spectral truncation (N <= n)
    h : grid spacing 2L/(n+1)
    xi : interior grid coordinates, shape (n,)
    lambda_k : Dirichlet-Laplacian eigenvalues (k pi/2L)^2, shape (modes,)
    psi : ramp xi/L sampled on the grid, shape (n,)
    fwd_weight, inv_divisor : (h / (2 sqrt L)) sign and sign sqrt L, shape (modes,)
    """

    L: float
    n: int
    modes: int
    h: float
    xi: np.ndarray
    lambda_k: np.ndarray
    psi: np.ndarray
    fwd_weight: np.ndarray
    inv_divisor: np.ndarray

    def dealias_keep(self) -> int:
        """Number of low modes kept when de-aliasing a cubic nonlinearity."""
        return (2 * self.modes) // 3


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on the interior grid of one Domain."""

    values: np.ndarray
    bc: Boundary

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))


def build_domain(L: float, n: int, modes: int) -> Domain:
    """Construct the discretized interval with its spectral data.

    Raises ConfigurationError for non-positive L, n < 8, modes > n, or an L
    so small that the eigenvalues overflow.
    """
    if not L > 0:
        raise ConfigurationError(f"half-length L must be positive, got {L}")
    if n < 8:
        raise ConfigurationError(f"need at least 8 interior grid points, got n={n}")
    if not 1 <= modes <= n:
        raise ConfigurationError(f"mode count must satisfy 1 <= modes <= n, got modes={modes}, n={n}")
    h = 2.0 * L / (n + 1)
    j = np.arange(1, n + 1)
    xi = -L + j * h
    k = np.arange(1, modes + 1)
    with np.errstate(over="ignore"):
        lam = (k * np.pi / (2.0 * L)) ** 2
    if not np.isfinite(lam[-1]):
        raise ConfigurationError(f"L={L!r} overflows the eigenvalues (k pi/2L)^2 at modes={modes}")
    sign = np.where(np.isin(k % 4, (0, 1)), 1.0, -1.0)   # e_k against the shifted sine basis
    return Domain(
        L=float(L), n=int(n), modes=int(modes), h=h,
        xi=_frozen_array(xi), lambda_k=_frozen_array(lam), psi=_frozen_array(xi / L),
        fwd_weight=_frozen_array((h / (2.0 * np.sqrt(L))) * sign),
        inv_divisor=_frozen_array(sign * np.sqrt(L)),
    )


# ---------------------------------------------------------------------------
# transforms
#
# They act on raw arrays of zero-Dirichlet grid values (subtract psi from a
# ramp field first) and accept stacked inputs with the grid on the last axis,
# so chain ensembles vectorize for free.
# ---------------------------------------------------------------------------

def transform_values(d: Domain, values: np.ndarray) -> np.ndarray:
    """Mode coefficients c_k = <f, e_k>_{L^2} of grid values (trapezoid-exact)."""
    return d.fwd_weight * dst(values, type=1, axis=-1)[..., : d.modes]


def inverse_transform_values(d: Domain, coeff: np.ndarray) -> np.ndarray:
    """Grid values of sum_k c_k e_k; `coeff` may hold only the leading
    k <= modes coefficients (the rest are zero)."""
    k = coeff.shape[-1]
    pad = np.zeros(coeff.shape[:-1] + (d.n,))
    np.divide(coeff, d.inv_divisor[:k], out=pad[..., :k])
    return dst(pad, type=1, axis=-1, overwrite_x=True) / 2.0


def laplacian_values(d: Domain, values: np.ndarray) -> np.ndarray:
    """Raw-array spectral zero-Dirichlet Laplacian (coefficients scaled by
    -lambda_k); supports stacked inputs."""
    return inverse_transform_values(d, -d.lambda_k * transform_values(d, values))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def boundary_values(f: Field) -> tuple[float, float]:
    """Implied values of the field at -L and +L."""
    return (0.0, 0.0) if f.bc is Boundary.ZERO_DIRICHLET else (-1.0, 1.0)


def closure_values(d: Domain, f: Field) -> np.ndarray:
    """Values on the closed grid [-L, xi_1..xi_n, L] including boundary data."""
    lo, hi = boundary_values(f)
    return np.concatenate(([lo], f.values, [hi]))


# ---------------------------------------------------------------------------
# fractional Sobolev norms
# ---------------------------------------------------------------------------

def sobolev_weights(d: Domain, k_star: float) -> np.ndarray:
    """Mode weights lambda_k^(k*/2); one that overflows is a ConfigurationError."""
    with np.errstate(over="ignore"):
        w = d.lambda_k ** (k_star / 2.0)
    if not np.all(np.isfinite(w)):
        raise ConfigurationError(f"kstar={k_star!r} overflows lambda_k^(kstar/2) at modes={d.modes}")
    return w


def sobolev_norm_values(d: Domain, c: np.ndarray, k_star: float, p_star: int) -> np.ndarray:
    """Raw-array fractional Sobolev norm of mode coefficients c, stacked or not.
    A nonzero row whose h sum |rec|^p is no normal finite float (|rec|^p
    overflows, or underflows at large p) is M (h sum (|rec|/M)^p)^(1/p), M = max |rec|."""
    rec = inverse_transform_values(d, c * sobolev_weights(d, k_star))
    with np.errstate(over="ignore", under="ignore"):
        norm = np.asarray(d.h * np.sum(np.abs(rec) ** p_star, axis=-1))
    scaled = ~(np.isfinite(norm) & (norm >= np.finfo(float).tiny)) & np.any(rec, axis=-1)
    norm **= 1.0 / p_star
    a = np.abs(rec[scaled])
    m = np.max(a, axis=-1, keepdims=True)
    norm[scaled] = m[:, 0] * (d.h * np.sum((a / m) ** p_star, axis=-1)) ** (1.0 / p_star)
    return norm


def sobolev_norm(d: Domain, f: Field, k_star: float, p_star: int) -> float:
    """Spectral W^{k*,p*} norm: ||(-Laplacian)^{k*/2} f||_{L^{p*}}.

    k_star = 0 reduces to the plain L^{p*} norm of the mode-truncated field.
    """
    if p_star % 2 != 0 or p_star <= 0:
        raise ConfigurationError(f"p_star must be a positive even integer, got {p_star}")
    if k_star < 0:
        raise ConfigurationError(f"k_star must be nonnegative, got {k_star}")
    if f.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("sobolev_norm expects a zero-Dirichlet field")
    return float(sobolev_norm_values(d, transform_values(d, f.values), k_star, p_star))
