import warnings

import numpy as np
import pytest

from acldp import profile as profile_module
from acldp.energy import confinement_threshold, energy
from acldp.errors import ConfigurationError, NumericalError
from acldp.grid import Boundary, Field, build_domain
from acldp.profile import (compute_profile, energy_formula, solve_e_L,
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
        # scipy doubts the transit quadrature below e = 1e-30 (roundoff) and
        # fails it at 1e-48; the error estimate decides, with no warning issued
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert transit_integral(1e-44) == pytest.approx(74.09028, rel=1e-6)
            with pytest.raises(NumericalError, match="e=1e-48"):
                transit_integral(1e-48)
        assert caught == []

    @pytest.mark.parametrize("L", [37.1, 40.0, 1e10])
    def test_length_without_a_lower_bracket_rejected(self, L):
        # T(1e-44) / 2 = 37.05 is the longest half-length the bracket reaches
        with pytest.raises(ConfigurationError, match=rf"^half-length L={L!r} is past"):
            solve_e_L(L)

    def test_quadrature_that_fails_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="energy quadrature at e=nan"):
            energy_formula(2.0, float("nan"))
        with pytest.raises(NumericalError, match="confinement quadrature at e_L=nan"):
            confinement_threshold(float("nan"))


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
