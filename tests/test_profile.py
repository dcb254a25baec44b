import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from acldp import profile as profile_module
from acldp.energy import confinement_threshold, energy
from acldp.errors import ConfigurationError, NumericalError
from acldp.grid import Boundary, Field, build_domain
from acldp.profile import (E_MAX, E_MIN, compute_profile, energy_formula, solve_e_L,
                           solve_profile, transit_integral)

# High-precision oracle for the first-integral constant at L = 10, computed
# independently with 40-digit arithmetic (mpmath tanh-sinh quadrature of the
# transit integral plus bisection to 1e-30) before the solver was written.
E_L_10_ORACLE = 1.6651161941936683e-11


class TestTransitSolve:
    def test_round_trip_inverse_identity(self):
        for e in (0.3, 1e-3, 1e-9):
            L = transit_integral(e) / 2.0
            assert solve_e_L(L) == pytest.approx(e, rel=1e-9)

    def test_strictly_decreasing_in_L(self):
        e2, e5, e10 = solve_e_L(2.0), solve_e_L(5.0), solve_e_L(10.0)
        assert e2 > e5 > e10 > 0

    def test_against_high_precision_oracle(self):
        assert solve_e_L(10.0) == pytest.approx(E_L_10_ORACLE, rel=1e-10)

    def test_transit_monotone(self):
        es = np.logspace(-12, -0.5, 8)
        ts = [transit_integral(e) for e in es]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            solve_e_L(-1.0)
        with pytest.raises(ConfigurationError):
            transit_integral(0.0)

    def test_transit_quadrature_doubt_is_its_error_check(self):
        # the transit rule holds in float64 down to E_MIN = 6.6e-298 and is a
        # NumericalError below it, with no warning issued
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert transit_integral(1e-297) == pytest.approx(486.01818, rel=1e-6)
            with pytest.raises(NumericalError, match="e=1e-298"):
                transit_integral(1e-298)
        assert caught == []

    @pytest.mark.parametrize("L", [243.2, 300.0, 1e10])
    def test_length_without_a_lower_bracket_rejected(self, L):
        # T(E_MIN) / 2 = 243.15 is the longest half-length the bracket reaches
        with pytest.raises(ConfigurationError, match=rf"^half-length L={L!r} is past"):
            solve_e_L(L)

    @pytest.mark.parametrize("L", [1.34e-6, 1e-7, 1e-12])
    def test_length_without_an_upper_bracket_rejected(self, L):
        # T(E_MAX) / 2 = 1.3487e-6 is the shortest half-length the bracket reaches
        with pytest.raises(ConfigurationError, match=rf"^half-length L={L!r} is below"):
            solve_e_L(L)

    def test_length_at_the_edge_of_the_lower_reach_solves(self):
        assert transit_integral(E_MAX) / 2.0 == pytest.approx(1.3487e-6, rel=1e-4)
        e = solve_e_L(1.35e-6)
        assert e <= E_MAX
        assert abs(transit_integral(e) - 2.7e-6) <= 1e-11

    @pytest.mark.parametrize("L", [23.9665, 25.0195, 36.0])
    def test_lengths_where_the_theta_integral_stalled_solve(self, L):
        # cos(theta) cancelled near pi/2 and T(e) jumped at the root; in s it does not
        e = solve_e_L(L)
        assert abs(transit_integral(e) - 2.0 * L) <= 1e-11 * 2.0 * L

    def test_profile_solves_at_the_edge_of_the_reach(self):
        assert transit_integral(E_MIN) / 2.0 == pytest.approx(243.154, abs=1e-3)
        d = build_domain(243.0, 8191, 64)
        p = compute_profile(d)
        assert p.e_L >= E_MIN
        inner = np.abs(d.xi) <= 100.0
        assert np.max(np.abs(p.m.values - np.tanh(d.xi / np.sqrt(2.0)))[inner]) < 1e-12

    def test_quadrature_that_fails_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="energy quadrature at e=nan"):
            energy_formula(2.0, float("nan"))
        with pytest.raises(NumericalError, match="confinement quadrature at e_L=nan"):
            confinement_threshold(float("nan"))


def _adaptive(f, a, b, layer):
    """scipy's quad of f on [a, b], split at a + layer 2^k, the oracle for the
    fixed rule."""
    cuts = [x for x in a + layer * 2.0 ** np.arange(400) if a < x < b]
    edges = [a, *cuts, b]
    return sum(quad(f, lo, hi, epsabs=1e-16, epsrel=2e-14, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


class TestRuleAgainstAdaptiveQuadrature:
    """The 24-point rule on the dyadic mesh against scipy's quad, from e = 0.4
    down to the rule's reach E_MIN."""

    ES = np.geomspace(0.4, E_MIN, 25)

    @pytest.mark.parametrize("e", ES)
    def test_transit_integral(self, e):
        f = lambda s: np.sin(s) / np.sqrt(0.5 * np.sin(s) ** 4 + e)
        ref = 2.0 * _adaptive(f, 0.0, np.pi / 2, (2.0 * e) ** 0.25)
        assert transit_integral(e) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("e", ES)
    def test_energy_formula(self, e):
        f = lambda s: np.sqrt(0.5 * np.sin(s) ** 4 + e) * np.sin(s)
        ref = 2.0 * _adaptive(f, 0.0, np.pi / 2, (2.0 * e) ** 0.25) - 3.0 * e
        assert energy_formula(3.0, e) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("e", ES)
    def test_confinement_threshold(self, e):
        # in u itself, split from u - 1 = sqrt(e) or 1e-6: below that the
        # layer carries O(e log e) of the value, and float64 cannot resolve it
        f = lambda u: np.sqrt(0.5 * (u * u - 1.0) ** 2 + e)
        ref = _adaptive(f, 1.0, 2.0, max(np.sqrt(e), 1e-6))
        assert confinement_threshold(e) == pytest.approx(ref, rel=1e-13)


class TestProfile:
    def test_odd_symmetry_center(self, dom2, prof2):
        i0 = dom2.n // 2
        assert prof2.m.values[i0] == pytest.approx(0.0, abs=1e-9)

    def test_odd_and_increasing(self, dom2, prof2):
        m = prof2.m.values
        assert np.max(np.abs(m + m[::-1])) < 1e-9      # odd
        assert np.all(np.diff(m) > 0)                  # strictly increasing

    def test_boundary_class(self, prof2):
        assert prof2.m.bc is Boundary.RAMP_DIRICHLET

    def test_second_order_residual_oracle(self):
        # || FD-Laplacian m - (m^3 - m) ||_inf = O(h^2): C h^2 bound and order
        errs = []
        for n in (127, 255):
            d = build_domain(2.0, n, n // 2)
            p = compute_profile(d)
            ext = np.concatenate(([-1.0], p.m.values, [1.0]))
            lap = (ext[2:] - 2 * p.m.values + ext[:-2]) / d.h ** 2
            errs.append(np.max(np.abs(lap - (p.m.values ** 3 - p.m.values))))
        h2 = (2 * 2.0 / 128) ** 2
        assert errs[0] <= 1.0 * h2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)

    def test_first_integral_constancy(self, dom2, prof2):
        m = prof2.m.values
        ext = np.concatenate(([-1.0], m, [1.0]))
        dm = (ext[2:] - ext[:-2]) / (2 * dom2.h)
        fi = dm ** 2 - 0.5 * (m ** 2 - 1.0) ** 2
        assert fi.max() - fi.min() <= 2.0 * dom2.h ** 2

    def test_tanh_limit_interior(self):
        d = build_domain(10.0, 255, 128)
        p = compute_profile(d)
        mask = np.abs(d.xi) <= 5.0
        diff = np.abs(p.m.values - np.tanh(d.xi / np.sqrt(2.0)))[mask]
        assert diff.max() < 1e-6
        d20 = build_domain(20.0, 511, 256)
        p20 = compute_profile(d20)
        mask20 = np.abs(d20.xi) <= 10.0
        diff20 = np.abs(p20.m.values - np.tanh(d20.xi / np.sqrt(2.0)))[mask20]
        assert diff20.max() < diff.max()       # improves as L grows

    def test_cache_is_keyed_on_tol(self, monkeypatch):
        monkeypatch.setattr(profile_module, "_profile_cache", {})
        d = build_domain(2.0, 31, 16)
        default = compute_profile(d)
        assert compute_profile(d) is default
        loose = compute_profile(d, tol=1e-6)
        assert loose is not default
        assert compute_profile(d, tol=1e-6) is loose

    def test_inconsistent_constant_rejected(self, dom2, prof2):
        with pytest.raises(NumericalError):
            solve_profile(dom2, prof2.e_L * 2.0)

    def test_uniqueness_proxy_quadrature_perturbation(self, dom2, prof2):
        p_loose = solve_profile(dom2, prof2.e_L, rtol=1e-9)
        assert np.max(np.abs(p_loose.m.values - prof2.m.values)) < 1e-8


class TestProfileEnergy:
    @pytest.mark.parametrize("L,n", [(2.0, 255), (5.0, 255), (10.0, 255)])
    def test_formula_vs_direct_quadrature(self, L, n):
        d = build_domain(L, n, n // 2)
        p = compute_profile(d)
        direct = d.h * (np.sum(0.5 * p.m_prime ** 2
                               + 0.25 * (p.m.values ** 2 - 1) ** 2) + 0.5 * p.e_L)
        assert direct == pytest.approx(p.energy_value, rel=1e-4)

    def test_large_L_limit(self):
        e20 = solve_e_L(20.0)
        assert abs(energy_formula(20.0, e20) - 2.0 * np.sqrt(2.0) / 3.0) < 1e-3

    def test_below_ramp_energy(self):
        for L in (1.0, 2.0, 5.0):
            e = solve_e_L(L)
            assert energy_formula(L, e) <= 1.0 / L + 4.0 * L / 15.0

    def test_minimality_under_perturbations(self, dom2, prof2, rng):
        from .conftest import band_limited
        base = prof2.energy_value
        for _ in range(20):
            hfield = band_limited(dom2, rng, k_max=10, amp=1.0)
            hvals = hfield.values / np.sqrt(np.sum(hfield.values ** 2) * dom2.h + 1e-30)
            for tau in (1e-2, -1e-2, 1e-3, -1e-3):
                u = Field(prof2.m.values + tau * hvals, Boundary.RAMP_DIRICHLET)
                assert energy(dom2, u) >= base - 1e-10
