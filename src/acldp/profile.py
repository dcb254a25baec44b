"""Stationary profile of the double-well dynamics with ramp boundary data.

The minimizer m of the Ginzburg-Landau energy on (-L, L) with m(+-L) = +-1
solves m'' = m^3 - m and carries the first integral

    m'(xi)^2 = (1/2) (m(xi)^2 - 1)^2 + e_L,

where the constant e_L > 0 is pinned by the boundary data.  Separating
variables turns the boundary condition into a transit-length equation

    T(e) := integral_{-1}^{1} du / sqrt((1/2)(u^2-1)^2 + e) = 2L,

and T is strictly decreasing in e, so e_L is the unique root.  We solve it
by geometric bisection with adaptive quadrature.  The substitution
u = sin(theta) tames the near-singular integrand at small e (the raw peak
1/sqrt(e) becomes (2e)^{-1/4} and the integrand stays continuous), which
keeps the solver accurate out to L = 20 where e_L ~ 1e-23.

The profile itself is recovered from the same substitution: xi as a
function of theta obeys d(xi)/d(theta) = cos(theta)/sqrt((1/2)cos^4(theta)+e),
a plain quadrature, integrated once with a high-order adaptive stepper and
then inverted per grid point by bracketed root finding.  The grid values of
m' come from the first integral, which is exact pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import ConfigurationError, NumericalError
from .grid import Boundary, Domain, Field

DEFAULT_TOL = 1e-12

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


def _transit_integrand(theta: np.ndarray, e: float) -> np.ndarray:
    c = np.cos(theta)
    return c / np.sqrt(0.5 * c ** 4 + e)


def transit_integral(e: float) -> float:
    """T(e): length of interval crossed by the profile at first-integral constant e."""
    if e <= 0:
        raise ConfigurationError(f"transit integral needs e > 0, got {e}")
    # split off the boundary layer of width ~ (2e)^{1/4} near theta = pi/2
    w = min(max(10.0 * (2.0 * e) ** 0.25, 1e-12), 0.5)
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    v1, err1 = quad(_transit_integrand, 0.0, np.pi / 2 - w, args=(e,), **kw)
    v2, err2 = quad(_transit_integrand, np.pi / 2 - w, np.pi / 2, args=(e,), **kw)
    total = 2.0 * (v1 + v2)
    if not np.isfinite(total) or (err1 + err2) > 1e-8 * max(total, 1.0):
        raise NumericalError(
            f"transit quadrature did not converge at e={e!r}: value={total!r}, err={err1 + err2!r}")
    return total


def solve_e_L(L: float, tol: float = DEFAULT_TOL) -> float:
    """First-integral constant for half-length L: the root of T(e) = 2L.

    Bisection runs on log(e) since e_L decays like exp(-2 sqrt(2) L); the
    initial bracket [1e-16, 1/2] is widened on both sides as needed.
    """
    if not L > 0:
        raise ConfigurationError(f"half-length must be positive, got {L}")
    target = 2.0 * L
    lo, hi = 1e-16, 0.5
    while transit_integral(hi) > target:
        hi *= 4.0
        if hi > 1e12:
            raise NumericalError(f"no upper bracket for e_L at L={L}")
    while transit_integral(lo) < target:
        lo *= 1e-4
        if lo < 1e-300:
            raise NumericalError(f"no lower bracket for e_L at L={L}")
    for _ in range(300):
        mid = np.sqrt(lo * hi)
        if transit_integral(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-15:
            break
    e = np.sqrt(lo * hi)
    if abs(transit_integral(e) - target) > max(tol, 1e-11 * target):
        raise NumericalError(f"bisection for e_L stalled at L={L}: e={e!r}")
    return float(e)


def energy_formula(L: float, e: float) -> float:
    """Closed-form energy of the minimizer:
    integral_{-1}^{1} sqrt((1/2)(u^2-1)^2 + e) du - L e, via u = sin(theta)."""
    f = lambda t: np.sqrt(0.5 * np.cos(t) ** 4 + e) * np.cos(t)
    val, _ = quad(f, 0.0, np.pi / 2, epsabs=1e-14, epsrel=1e-13, limit=200)
    return float(2.0 * val - L * e)


def solve_profile(d: Domain, e_L: float, rtol: float = 1e-12) -> Profile:
    """Integrate the first-order reduction of the profile equation onto the grid.

    Raises NumericalError when e_L is inconsistent with the domain length
    (the integrated half-length misses L).
    """
    if e_L <= 0:
        raise ConfigurationError(f"first-integral constant must be positive, got {e_L}")

    rhs = lambda theta, _xi: _transit_integrand(np.asarray(theta), e_L)
    sol = solve_ivp(rhs, (-np.pi / 2, np.pi / 2), [-d.L], method="DOP853",
                    dense_output=True, rtol=rtol, atol=1e-14 * max(d.L, 1.0),
                    max_step=np.pi / 50)
    if not sol.success:
        raise NumericalError(f"profile integration failed: {sol.message}")
    xi_end = float(sol.y[0, -1])
    if abs(xi_end - d.L) > 1e-6 * max(d.L, 1.0):
        raise NumericalError(
            f"inconsistent e_L={e_L!r} for L={d.L}: profile lands at xi={xi_end!r}")

    def xi_of(theta: float) -> float:
        return float(sol.sol(theta)[0])

    theta_grid = np.empty(d.n)
    for j, x in enumerate(d.xi):
        theta_grid[j] = brentq(lambda t: xi_of(t) - x, -np.pi / 2, np.pi / 2, xtol=1e-14)
    m_vals = np.sin(theta_grid)
    m_prime = np.sqrt(0.5 * (m_vals ** 2 - 1.0) ** 2 + e_L)

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
