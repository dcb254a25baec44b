import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acldp.energy import (confinement_threshold, energy, energy_fd,
                          energy_gradient, energy_report, energy_star,
                          lipschitz_of_well_speed, proximity_check)
from acldp.errors import ConfigurationError
from acldp.grid import Boundary, Field, build_domain, transform_values
from acldp.profile import compute_profile

from .conftest import band_limited
from .fields import basis_eval, l2_inner


class TestEnergy:
    def test_ramp_closed_form(self, dom1):
        u = Field(dom1.psi, Boundary.RAMP_DIRICHLET)
        assert energy(dom1, u) == pytest.approx(19.0 / 15.0, rel=1e-8)
        assert energy_fd(dom1, u) == pytest.approx(19.0 / 15.0, rel=1e-6)

    def test_profile_energy_agreement(self, dom2, prof2):
        assert energy(dom2, prof2.m) == pytest.approx(prof2.energy_value, rel=1e-6)

    def test_fd_route_converges_to_spectral(self):
        for L in (1.0, 2.0):
            errs = []
            for n in (127, 255):
                d = build_domain(L, n, n)
                p = compute_profile(d)
                errs.append(abs(energy_fd(d, p.m) - energy(d, p.m)))
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)

    def test_wrong_boundary_class_rejected(self, dom2, rng):
        with pytest.raises(ConfigurationError):
            energy(dom2, band_limited(dom2, rng))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_minimality(self, dom2, prof2, seed):
        f = band_limited(dom2, np.random.default_rng(seed), amp=0.5)
        u = Field(f.values + dom2.psi, Boundary.RAMP_DIRICHLET)
        assert energy(dom2, u) >= prof2.energy_value - 1e-9


class TestEnergyStar:
    def test_zero_at_equilibrium(self, dom2, prof2):
        ubar = Field(prof2.shifted_values(dom2), Boundary.ZERO_DIRICHLET)
        assert abs(energy_star(dom2, ubar)) < 1e-6

    def test_ramp_gap_at_unit_length(self, dom1, prof1):
        zero = Field(np.zeros(dom1.n), Boundary.ZERO_DIRICHLET)
        val = energy_star(dom1, zero)
        assert val == pytest.approx(19.0 / 15.0 - prof1.energy_value, rel=1e-6)
        assert val > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_nonnegative(self, dom2, seed):
        ubar = band_limited(dom2, np.random.default_rng(seed), amp=0.7)
        assert energy_star(dom2, ubar) >= -1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_controls_dirichlet_seminorm(self, dom2, prof2, seed):
        # E*(ubar) >= (1/2) || (ubar + psi)' ||^2 - E(m): the potential term
        # of the energy is nonnegative.
        ubar = band_limited(dom2, np.random.default_rng(seed), amp=0.8)
        c = transform_values(dom2, ubar.values)
        semi = 0.5 * (np.sum(dom2.lambda_k * c * c) + 2.0 / dom2.L)
        assert energy_star(dom2, ubar) >= semi - prof2.energy_value - 1e-9


class TestGradient:
    def test_zero_at_equilibrium(self, dom2, prof2):
        ubar = Field(prof2.shifted_values(dom2), Boundary.ZERO_DIRICHLET)
        g = energy_gradient(dom2, ubar)
        assert np.max(np.abs(g.values)) < 5.0 * dom2.h ** 2

    def test_plug_in_at_zero(self, dom2):
        zero = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        g = energy_gradient(dom2, zero)
        # Laplacian of 0 vanishes, so the gradient is -(psi - psi^3) pointwise
        assert np.allclose(g.values, -(dom2.psi - dom2.psi ** 3), atol=1e-12)

    def test_directional_derivative_50_cases(self, dom2):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            ubar = band_limited(dom2, rng, k_max=16, amp=0.4)
            h = band_limited(dom2, rng, k_max=16, amp=1.0)
            tau = 1e-4
            up = energy_star(dom2, Field(ubar.values + tau * h.values, ubar.bc))
            dn = energy_star(dom2, Field(ubar.values - tau * h.values, ubar.bc))
            fd = (up - dn) / (2 * tau)
            an = l2_inner(dom2, energy_gradient(dom2, ubar), h)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-12))
        assert worst <= 1e-4

    def test_tau_refinement_is_quadratic(self, dom2, rng):
        ubar = band_limited(dom2, rng, k_max=8, amp=0.4)
        h = band_limited(dom2, rng, k_max=8, amp=1.0)
        an = l2_inner(dom2, energy_gradient(dom2, ubar), h)
        errs = []
        for tau in (1e-2, 1e-3):
            up = energy_star(dom2, Field(ubar.values + tau * h.values, ubar.bc))
            dn = energy_star(dom2, Field(ubar.values - tau * h.values, ubar.bc))
            errs.append(abs((up - dn) / (2 * tau) - an))
        assert errs[1] < errs[0] / 20.0       # O(tau^2) drop


class TestProximity:
    def test_bound_shrinks_at_equilibrium(self, dom2, prof2):
        ubar = Field(prof2.shifted_values(dom2), Boundary.ZERO_DIRICHLET)
        for eta in (1e-4, 1e-6, 1e-8):
            bound = proximity_check(dom2, ubar, eta)
            assert bound is not None
            assert bound <= 2.0 * np.sqrt(dom2.L * eta) * np.exp(
                2 * dom2.L * lipschitz_of_well_speed(prof2.e_L)) + 1e-15
        b1 = proximity_check(dom2, ubar, 1e-4)
        b2 = proximity_check(dom2, ubar, 1e-8)
        assert b2 < b1

    def test_perturbation_within_bound(self, dom2, prof2):
        pert = prof2.shifted_values(dom2) + 0.01 * basis_eval(dom2, 1).values
        ubar = Field(pert, Boundary.ZERO_DIRICHLET)
        eta = energy_star(dom2, ubar) * 1.001 + 1e-12
        bound = proximity_check(dom2, ubar, eta)
        assert bound is not None
        actual = np.max(np.abs(ubar.values - prof2.shifted_values(dom2)))
        assert actual <= bound

    def test_threshold_exceeded_gives_no_bound(self, dom1):
        zero = Field(np.zeros(dom1.n), Boundary.ZERO_DIRICHLET)
        assert proximity_check(dom1, zero, 10.0) is None

    def test_energy_above_eta_rejected(self, dom1):
        zero = Field(np.zeros(dom1.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(ConfigurationError):
            proximity_check(dom1, zero, 1e-6)

    def test_confinement_threshold_value(self):
        # at small e_L the transit cost from 1 to 2 approaches (1/sqrt2) * 4/3
        assert confinement_threshold(1e-12) == pytest.approx(4.0 / (3.0 * np.sqrt(2.0)), rel=1e-6)


class TestReport:
    def test_report_fields(self, dom2, prof2):
        ubar = Field(prof2.shifted_values(dom2), Boundary.ZERO_DIRICHLET)
        rep = energy_report(dom2, ubar)
        assert rep.value == pytest.approx(0.0, abs=1e-6)
        assert rep.gradient_norm < 1e-2
        assert rep.proximity is not None
