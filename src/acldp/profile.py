"""Stationary profile of the double-well dynamics with ramp boundary data.

The minimizer m of the Ginzburg-Landau energy on (-L, L) with m(+-L) = +-1
solves m'' = m^3 - m and carries the first integral

    m'(xi)^2 = (1/2) (m(xi)^2 - 1)^2 + e_L,

where the constant e_L > 0 is pinned by the boundary data.  Separating
variables turns the boundary condition into a transit-length equation

    T(e) := integral_{-1}^{1} du / sqrt((1/2)(u^2-1)^2 + e) = 2L,

and T is strictly decreasing in e, so e_L is the unique root, found by
geometric bisection.  The substitution u = -cos(s), s in [0, pi/2] on each
half (s = pi/2 - |theta| for u = sin(theta)), gives

    T(e) = 2 integral_0^{pi/2} sin(s) / sqrt((1/2) sin(s)^4 + e) ds,

with 1 - u^2 = sin(s)^2 formed without cancellation near the wells.  The
integrand rises linearly from s = 0 and turns over in a boundary layer of
width (2e)^{1/4}, so every integral here uses one fixed rule
(`dyadic_quadrature`): 24-point Gauss-Legendre on the panels of a dyadic
mesh whose first panel is [0, (2e)^{1/4}] and each next panel twice as wide,
up to the top of the range.  It matches adaptive quadrature to about 1e-14
relative from e = 0.4 down to its reach.

The reach is one limit in float64: the smallest node of the first panel
carries (1/2) sin(s)^4 = t0^4 e (t0 the rule's smallest node on [0, 1]),
and that term stays a normal float for e >= E_MIN = tiny / t0^4 (6.6e-298,
half-length L about 243).  An e below E_MIN is a NumericalError of the rule,
and an L whose e_L lies below it a ConfigurationError of `solve_e_L`.

The profile itself comes from the same rule: the distance from the wall
xi + L = A(s) = integral_0^s sin / sqrt((1/2) sin^4 + e) is solved for s at
every grid point by a safeguarded Newton iteration, vectorized over the
grid, with A' the integrand itself.  m = -+cos(s) on the two halves (odd by
construction), and the first integral gives m' = sqrt((1/2) sin(s)^4 + e)
exactly at each point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import Boundary, Domain, Field

DEFAULT_TOL = 1e-12

# 24-point Gauss-Legendre rule on [0, 1]
_X, _W = np.polynomial.legendre.leggauss(24)
_NODES, _WEIGHTS = 0.5 * (_X + 1.0), 0.5 * _W
# the rule's reach: (1/2) sin(s)^4 at the first panel's smallest node is
# _NODES[0]^4 e, a normal float64 for every e >= E_MIN
E_MIN = float(np.finfo(float).tiny / _NODES[0] ** 4)
# the top of solve_e_L's bracket: 1/2 widened twenty times by 4
E_MAX = 0.5 * 4.0 ** 20

_profile_cache: dict[tuple[float, int, int, float], "Profile"] = {}


@dataclass(frozen=True)
class Profile:
    """Stationary profile m with its first-integral constant and energy."""

    e_L: float
    m: Field                # ramp-Dirichlet samples of the minimizer
    m_prime: np.ndarray     # m'(xi_j) from the first integral (exact pointwise)
    energy_value: float     # energy of the minimizer via the closed formula

    def shifted_values(self, d: Domain) -> np.ndarray:
        """Grid values of m - psi (the zero-Dirichlet equilibrium)."""
        return self.m.values - d.psi


def _mesh(e: float, top: float) -> np.ndarray:
    """Edges of the dyadic mesh on [0, top]: (2^k - 1) (2e)^{1/4}, the last
    one top."""
    w = (2.0 * e) ** 0.25
    k = max(int(np.ceil(np.log2(top / w + 1.0))), 1)
    edges = np.minimum(w * (2.0 ** np.arange(k + 1) - 1.0), top)
    edges[-1] = top
    return edges


def _panel_sums(f, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The rule of f on each panel [lo, lo + width]."""
    return np.sum(width[:, None] * _WEIGHTS * f(lo[:, None] + width[:, None] * _NODES), axis=1)


def dyadic_quadrature(f, e: float, top: float, what: str) -> float:
    """integral_0^top f(s) ds by the rule on the dyadic mesh of e; a
    NumericalError naming `what` for an e below E_MIN (nan too) or a value
    that is not finite."""
    if not e >= E_MIN:
        raise NumericalError(f"{what} is past the rule's reach: it holds in float64 for "
                             f"e >= E_MIN = {E_MIN:.4g}")
    edges = _mesh(e, top)
    val = float(np.sum(_panel_sums(f, edges[:-1], np.diff(edges))))
    if not np.isfinite(val):
        raise NumericalError(f"{what} is not finite: {val!r}")
    return val


def _transit_integrand(s: np.ndarray, e: float) -> np.ndarray:
    """dA/ds = sin(s) / sqrt((1/2) sin(s)^4 + e)."""
    sn = np.sin(s)
    return sn / np.sqrt(0.5 * sn ** 4 + e)


def transit_integral(e: float) -> float:
    """T(e): length of interval crossed by the profile at first-integral constant e."""
    if e <= 0:
        raise ConfigurationError(f"transit integral needs e > 0, got {e}")
    return 2.0 * dyadic_quadrature(lambda s: _transit_integrand(s, e), e, np.pi / 2,
                                   f"transit quadrature at e={e!r}")


def solve_e_L(L: float, tol: float = DEFAULT_TOL) -> float:
    """First-integral constant for half-length L: the root of T(e) = 2L.

    Bisection runs on log(e) since e_L decays like exp(-2 sqrt(2) L); the
    initial bracket [1e-16, 1/2] is widened on both sides as needed, the
    lower end by 1e-4 down to the rule's reach E_MIN and the upper end by 4
    up to E_MAX.  An L past T(E_MIN) / 2 (about 243) has no lower bracket,
    and one below T(E_MAX) / 2 (about 1.35e-6) no upper one: a
    ConfigurationError.
    """
    if not L > 0:
        raise ConfigurationError(f"half-length must be positive, got {L}")
    target = 2.0 * L
    lo, hi = 1e-16, 0.5
    while transit_integral(hi) > target:
        if hi == E_MAX:
            raise ConfigurationError(
                f"half-length L={L} is below the profile solver's reach "
                f"L = T(E_MAX)/2 = {transit_integral(E_MAX) / 2:.6g}: e_L lies above "
                f"E_MAX = {E_MAX:.4g}, the top of the bracket for e_L")
        hi *= 4.0
    while transit_integral(lo) < target:
        if lo == E_MIN:
            raise ConfigurationError(
                f"half-length L={L} is past the profile solver's reach "
                f"L = T(E_MIN)/2 = {transit_integral(E_MIN) / 2:.6g}: e_L lies below "
                f"E_MIN = {E_MIN:.4g}, the smallest e at which the transit rule holds in float64")
        lo = max(lo * 1e-4, E_MIN)
    for _ in range(300):
        mid = np.sqrt(lo) * np.sqrt(hi)     # lo * hi may underflow
        if transit_integral(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-15:
            break
    e = float(np.sqrt(lo) * np.sqrt(hi))
    if abs(transit_integral(e) - target) > max(tol, 1e-11 * target):
        raise NumericalError(f"bisection for e_L stalled at L={L}: e={e!r}")
    return e


def energy_formula(L: float, e: float) -> float:
    """Closed-form energy of the minimizer:
    integral_{-1}^{1} sqrt((1/2)(u^2-1)^2 + e) du - L e, via u = -cos(s)."""
    def f(s):
        sn = np.sin(s)
        return np.sqrt(0.5 * sn ** 4 + e) * sn
    val = dyadic_quadrature(f, e, np.pi / 2, f"energy quadrature at e={e!r}")
    return float(2.0 * val - L * e)


def solve_profile(d: Domain, e_L: float, rtol: float = 1e-12) -> Profile:
    """The profile on the grid: s at each grid point from the wall distance
    A(s) = a by Newton's method, safeguarded by the bracket of its mesh panel,
    until every |A(s) - a| <= rtol max(L, 1) (the last step taken).

    Raises NumericalError when e_L is inconsistent with the domain length
    (the half transit misses L).
    """
    if e_L <= 0:
        raise ConfigurationError(f"first-integral constant must be positive, got {e_L}")
    half = 0.5 * transit_integral(e_L)
    if abs(half - d.L) > 1e-6 * max(d.L, 1.0):
        raise NumericalError(
            f"inconsistent e_L={e_L!r} for L={d.L}: profile lands at xi={2.0 * half - d.L!r}")

    f = lambda s: _transit_integrand(s, e_L)
    edges = _mesh(e_L, np.pi / 2)
    cum = np.concatenate(([0.0], np.cumsum(_panel_sums(f, edges[:-1], np.diff(edges)))))
    j = np.arange(1, d.n + 1)
    a = np.minimum(d.h * np.minimum(j, d.n + 1 - j), cum[-1])   # distance to the nearer wall
    k = np.clip(np.searchsorted(cum, a, side="right") - 1, 0, len(edges) - 2)
    lo, hi = edges[k], edges[k + 1]
    s = lo + (a - cum[k]) / (cum[k + 1] - cum[k]) * (hi - lo)
    tol = rtol * max(d.L, 1.0)
    for _ in range(60):
        r = cum[k] + _panel_sums(f, edges[k], s - edges[k]) - a
        met = np.abs(r) <= tol
        lo, hi = np.where(r < 0, s, lo), np.where(r > 0, s, hi)
        s_new = s - r / f(s)
        # a step out of the bracket bisects it, or stays put once the tolerance
        # is met.  s stays above 0, where f vanishes: f rises on the first
        # panel, so there A(s) < s f(s) and the step s - r / f(s) > 0
        s = np.where((s_new >= lo) & (s_new <= hi), s_new, np.where(met, s, 0.5 * (lo + hi)))
        if np.all(met):
            break
    else:
        raise NumericalError(f"profile Newton solve did not converge at L={d.L}, e_L={e_L!r}")
    m_vals = np.sign(j - 0.5 * (d.n + 1)) * np.cos(s)
    m_prime = np.sqrt(0.5 * np.sin(s) ** 4 + e_L)

    prof = Profile(e_L=float(e_L),
                   m=Field(m_vals, Boundary.RAMP_DIRICHLET),
                   m_prime=m_prime,
                   energy_value=energy_formula(d.L, e_L))
    _check_energy_consistency(d, prof)
    return prof


def _direct_energy(d: Domain, p: Profile) -> float:
    """Energy by direct grid quadrature of the density, using the stored m'."""
    integrand = 0.5 * p.m_prime ** 2 + 0.25 * (p.m.values ** 2 - 1.0) ** 2
    boundary = 0.5 * p.e_L  # m'(+-L)^2 = e_L, V(+-1) = 0
    return float(d.h * (np.sum(integrand) + boundary))


def _check_energy_consistency(d: Domain, p: Profile, rtol: float = 1e-4) -> None:
    direct = _direct_energy(d, p)
    if abs(direct - p.energy_value) > rtol * abs(p.energy_value):
        raise NumericalError(
            f"profile energy mismatch at L={d.L}: formula={p.energy_value!r}, "
            f"grid quadrature={direct!r} (n={d.n} too coarse?)")


def compute_profile(d: Domain, tol: float = DEFAULT_TOL) -> Profile:
    """solve_e_L + solve_profile for a domain, memoized on (L, n, modes, tol)."""
    key = (d.L, d.n, d.modes, tol)
    if key not in _profile_cache:
        _profile_cache[key] = solve_profile(d, solve_e_L(d.L, tol))
    return _profile_cache[key]
