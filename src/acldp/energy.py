"""Double-well energy on (-L, L), its shifted form, gradient, and the
small-energy proximity bound.

For ramp-Dirichlet u the energy is

    E(u) = integral [ |u'|^2 / 2 + (u^2 - 1)^2 / 4 ] dxi,

and the shifted energy of a zero-Dirichlet field is
E*(ubar) = E(ubar + psi) - E(m), which vanishes exactly at the equilibrium
ubar = m - psi; E(m) and m come from the domain's `compute_profile(d)`.

Discretization note: the derivative term is evaluated spectrally through
the mode coefficients of u - psi (using |u'|^2 = |ubar'|^2 + 2/L, since the
cross term integrates to zero for zero-Dirichlet ubar), while the potential
term is composite trapezoid on the grid.  With this choice the discrete
functional is *exactly* consistent with :func:`energy_gradient`, so
finite-difference directional derivatives match the gradient to O(tau^2)
with no O(h^2) floor.  The literal finite-difference quadrature is kept in
:func:`energy_fd` as an independent cross-check; the two agree to O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import (Boundary, Domain, Field, closure_values, laplacian_values,
                   transform_values)
from .profile import compute_profile, dyadic_quadrature


def reaction_values(d: Domain, z_values: np.ndarray, out: np.ndarray | None = None,
                    psi: np.ndarray | None = None) -> np.ndarray:
    """Pointwise double-well drift of the shifted field: (z+psi) - (z+psi)^3,
    written into `out` (the shape of z_values) when given.  `psi` is the ramp
    `d.psi` unless given (a copy in the caller's dtype, so that no float64
    operand promotes a float32 step)."""
    u = np.add(z_values, d.psi if psi is None else psi, out=out)
    cube = u * u
    cube *= u
    return np.subtract(u, cube, out=u)


def potential_values(u_values: np.ndarray) -> np.ndarray:
    """Double-well density (u^2 - 1)^2 / 4."""
    return 0.25 * (u_values ** 2 - 1.0) ** 2


def _energy_values(d: Domain, u_values: np.ndarray, c: np.ndarray) -> np.ndarray:
    """E of ramp-Dirichlet grid values u (stacked or not), c the mode coefficients of u - psi."""
    deriv = 0.5 * np.sum(d.lambda_k * c * c, axis=-1) + 1.0 / d.L
    pot = d.h * np.sum(potential_values(u_values), axis=-1)  # V(+-1) = 0 at the boundary
    return deriv + pot


def energy(d: Domain, u: Field) -> float:
    """Energy of a ramp-Dirichlet field (spectrally consistent quadrature)."""
    if u.bc is not Boundary.RAMP_DIRICHLET:
        raise ConfigurationError("energy expects ramp-Dirichlet input u(+-L) = +-1")
    return float(_energy_values(d, u.values, transform_values(d, u.values - d.psi)))


def energy_fd(d: Domain, u: Field) -> float:
    """Energy by trapezoid quadrature with finite-difference derivatives.

    Central differences at interior points, one-sided at the boundary.
    Independent of the spectral route; agreement is O(h^2).
    """
    if u.bc is not Boundary.RAMP_DIRICHLET:
        raise ConfigurationError("energy expects ramp-Dirichlet input u(+-L) = +-1")
    uc = closure_values(d, u)
    du = np.gradient(uc, d.h)
    integrand = 0.5 * du ** 2 + potential_values(uc)
    w = np.full(d.n + 2, d.h)
    w[0] = w[-1] = d.h / 2
    return float(np.sum(w * integrand))


def energy_star(d: Domain, ubar: Field) -> float:
    """Shifted energy E*(ubar) = E(ubar + psi) - E(m); zero at ubar = m - psi."""
    if ubar.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("energy_star expects a zero-Dirichlet field")
    u = Field(ubar.values + d.psi, Boundary.RAMP_DIRICHLET)
    return energy(d, u) - compute_profile(d).energy_value


def energy_star_values(d: Domain, z_values: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw-array shifted energy of grid values z (stacked or not) with mode coefficients c."""
    return _energy_values(d, z_values + d.psi, c) - compute_profile(d).energy_value


def energy_gradient(d: Domain, ubar: Field) -> Field:
    """L^2 gradient of E*: -[Laplacian(ubar) + (ubar+psi) - (ubar+psi)^3]."""
    if ubar.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("energy_gradient expects a zero-Dirichlet field")
    lap = laplacian_values(d, ubar.values)
    return Field(-(lap + reaction_values(d, ubar.values)), Boundary.ZERO_DIRICHLET)


# ---------------------------------------------------------------------------
# proximity bound: small shifted energy pins the field near the equilibrium
# ---------------------------------------------------------------------------

def lipschitz_of_well_speed(e_L: float, box: float = 2.0, n_grid: int = 20001) -> float:
    """Lipschitz constant of V(t) = sqrt((1/2)(t^2-1)^2 + e_L) on [-box, box]."""
    t = np.linspace(-box, box, n_grid)
    dV = t * (t ** 2 - 1.0) / np.sqrt(0.5 * (t ** 2 - 1.0) ** 2 + e_L)
    return float(np.max(np.abs(dV)))


def confinement_threshold(e_L: float) -> float:
    """Largest shifted energy for which sup|u| <= 2 is guaranteed.

    The energy excess of an excursion past u = 1 is at least the transit
    cost integral_1^{sup u} V(u) du, so eta below the cost of reaching
    u = 2 confines the field to [-2, 2].  With u = cosh(t), u^2 - 1 =
    sinh(t)^2 and the integrand's layer at t ~ (2 e_L)^{1/4} is the transit
    integral's, so the profile's rule serves it on [0, arccosh 2].
    """
    def f(t):
        sh = np.sinh(t)
        return np.sqrt(0.5 * sh ** 4 + e_L) * sh
    return dyadic_quadrature(f, e_L, float(np.arccosh(2.0)),
                             f"confinement quadrature at e_L={e_L!r}")


def proximity_check(d: Domain, ubar: Field, eta: float) -> float | None:
    """Sup-norm bound 2 sqrt(L eta) exp(2 L C_V) valid when E*(ubar) <= eta.

    Returns None when eta exceeds the confinement threshold, or when the
    bound is not a finite float (past L of about 125): no bound is claimed
    there.  Verifies that the actual sup distance to m - psi does not exceed
    the returned bound.
    """
    p = compute_profile(d)
    estar = energy_star(d, ubar)
    if estar > eta + 1e-12:
        raise ConfigurationError(f"proximity_check needs E*(ubar) <= eta; got E*={estar!r} > eta={eta!r}")
    if eta > confinement_threshold(p.e_L):
        return None
    c_v = lipschitz_of_well_speed(p.e_L)
    with np.errstate(over="ignore"):
        bound = 2.0 * np.sqrt(d.L * eta) * np.exp(2.0 * d.L * c_v)
    if not np.isfinite(bound):
        return None
    actual = float(np.max(np.abs(ubar.values - p.shifted_values(d))))
    if actual > bound:
        raise NumericalError(
            f"proximity bound violated: distance {actual!r} exceeds bound {bound!r}")
    return float(bound)


@dataclass(frozen=True)
class EnergyReport:
    """Scalar summary of a field's energy state (CLI payload)."""

    value: float                 # E for ramp input, E* for zero input
    gradient_norm: float         # L^2 norm of the shifted-energy gradient
    proximity: float | None      # sup-norm bound from proximity_check, if valid


def energy_report(d: Domain, f: Field) -> EnergyReport:
    """Evaluate energy, gradient norm, and (when applicable) the proximity bound."""
    ubar = f if f.bc is Boundary.ZERO_DIRICHLET else Field(f.values - d.psi, Boundary.ZERO_DIRICHLET)
    estar = energy_star(d, ubar)
    grad = energy_gradient(d, ubar)
    gnorm = float(np.sqrt(d.h * np.sum(grad.values ** 2)))
    prox = proximity_check(d, ubar, max(estar, 0.0) + 1e-12)   # None past the threshold
    value = estar if f.bc is Boundary.ZERO_DIRICHLET else energy(d, f)
    return EnergyReport(value=float(value), gradient_norm=gnorm, proximity=prox)
