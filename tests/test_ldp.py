import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acldp.diagnostics import record_replay
from acldp.errors import ConfigurationError
from acldp.grid import build_domain
from acldp.ldp import (TailEstimate, build_tail_report, decay_rate_fit,
                       delta_scaling, tail_probability, tightness_check,
                       tightness_monotone, wilson_interval)
from acldp.noise import NoiseModel
from acldp.profile import compute_profile
from acldp.spde import EmpiricalMeasure, SdeParams, sample_invariant


def synthetic_measure(eps, dist_values, sobolev_values=None, kstar=0.2, pstar=8):
    n = len(dist_values)
    if sobolev_values is None:
        sobolev_values = np.abs(dist_values)
    return EmpiricalMeasure(
        eps=eps, burn_in=0.0, sample_stride=1.0, kstar=kstar, pstar=pstar,
        g_min=1.0, undersampled=n < 100,
        warnings=[], samples=dict(
            chain=np.zeros(n), t=np.arange(n, dtype=float),
            sup_norm=np.abs(dist_values), dist_sup=np.asarray(dist_values),
            energy_star=np.zeros(n), sobolev_norm=np.asarray(sobolev_values)))


def exact_estimate(p, n=10 ** 9):
    # synthetic estimate carrying an exact p_hat (count is informational only)
    return TailEstimate(threshold=0.0, count=max(1, int(round(p * n))), n=n,
                        p_hat=p, lo=p, hi=p, zero_count=p == 0.0)


class TestWilson:
    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(0, 500), extra=st.integers(0, 500))
    @example(count=0, extra=62)      # unclamped, rounding puts lo above 0
    def test_interval_brackets_estimate(self, count, extra):
        n = count + extra + 1
        lo, hi = wilson_interval(count, n)
        assert 0.0 <= lo <= count / n <= hi <= 1.0

    def test_interval_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1


class TestTailProbability:
    def test_zero_threshold_is_one(self):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(0).standard_normal(200)))
        est = tail_probability(em, 0.0)
        assert est.p_hat == 1.0

    def test_huge_threshold_rule_of_three(self):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(0).standard_normal(200)))
        est = tail_probability(em, 10.0)
        assert est.zero_count
        assert est.p_hat == 0.0
        assert est.rule_of_three == pytest.approx(3.0 / 200)
        assert est.hi > 0.0

    @settings(max_examples=50, deadline=None)
    @given(d1=st.floats(0.0, 2.0), d2=st.floats(0.0, 2.0))
    def test_monotone_in_threshold(self, d1, d2):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(3).standard_normal(300)))
        lo_d, hi_d = sorted((d1, d2))
        assert tail_probability(em, lo_d).p_hat >= tail_probability(em, hi_d).p_hat

    def test_undersampled_rejected(self):
        em = synthetic_measure(0.1, np.ones(50))
        with pytest.raises(ConfigurationError):
            tail_probability(em, 0.5)


class TestDecayFit:
    def test_exact_synthetic_slope(self):
        eps = np.array([0.5, 0.2, 0.1, 0.05])
        ests = [exact_estimate(float(np.exp(-3.0 / e))) for e in eps]
        fit = decay_rate_fit(eps, ests)
        assert fit.slope == pytest.approx(3.0, abs=1e-6)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.valid

    def test_degenerate_fit_flagged(self):
        eps = np.array([0.5, 0.2, 0.1, 0.05])
        ps = [0.3, 0.5, 0.2, 0.4]          # no decay structure
        fit = decay_rate_fit(eps, [exact_estimate(p) for p in ps])
        assert not fit.valid

    def test_needs_three_nonzero_cells(self):
        eps = np.array([0.5, 0.2, 0.1])
        ests = [exact_estimate(0.5), exact_estimate(0.0), exact_estimate(0.0)]
        with pytest.raises(ConfigurationError):
            decay_rate_fit(eps, ests)

    def test_report_orders_eps(self):
        rng = np.random.default_rng(1)
        ems = [synthetic_measure(e, np.abs(rng.standard_normal(400)) * np.sqrt(e))
               for e in (0.4, 0.1)]
        with pytest.raises(ConfigurationError):
            build_tail_report(ems[::-1], 0.3)

    def test_gaussian_family_recovers_quadratic_threshold_law(self):
        # |N(0, eps)| tails: -log p = delta^2/(2 eps) (1 + o(1)), so the fitted
        # slope scales by ~4 when delta doubles
        rng = np.random.default_rng(7)
        eps_grid = (0.1, 0.05, 0.025)
        ems = [synthetic_measure(e, np.abs(rng.standard_normal(200_000)) * np.sqrt(e))
               for e in eps_grid]
        out = delta_scaling(ems, 0.28)
        assert out["report_delta"].slope > 0
        assert out["report_delta"].r2 >= 0.8
        assert 2.0 <= out["slope_ratio"] <= 8.0


class TestTightness:
    def test_radius_extremes(self):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(5).standard_normal(300)) + 0.1)
        assert tightness_check(em, 0.0, 0.2, 8).p_hat == 1.0
        big = tightness_check(em, 1e6, 0.2, 8)
        assert big.p_hat == 0.0 and big.rule_of_three == pytest.approx(0.01)

    def test_order_mismatch_rejected(self):
        em = synthetic_measure(0.1, np.ones(200))
        with pytest.raises(ConfigurationError):
            tightness_check(em, 1.0, 0.3, 8)

    def test_monotone_check(self):
        rng = np.random.default_rng(11)
        ems = [synthetic_measure(e, np.ones(1000),
                                 sobolev_values=1.0 + np.sqrt(e) * np.abs(rng.standard_normal(1000)))
               for e in (0.2, 0.1, 0.05)]
        out = tightness_monotone(ems, 1.3, 0.2, 8)
        assert out["nonincreasing"]
        fractions = [e.p_hat for e in out["estimates"]]
        assert fractions[0] >= fractions[-1]


class TestShiftConsistency:
    def test_distance_identity_on_trajectory(self):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        nm = NoiseModel(kind="constant", g0=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=17)
        from acldp.grid import Boundary, Field
        rec = record_replay(d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET), nm, p,
                            0.5, profile=prof)
        # stats on ubar against m - psi == stats on u = ubar + psi against m
        z = rec.path.values
        lhs = np.max(np.abs(z - (prof.m.values - d.psi)), axis=-1)
        rhs = np.max(np.abs((z + d.psi) - prof.m.values), axis=-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_sampler_tail_matches_manual_fraction(self):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        nm = NoiseModel(kind="constant", g0=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=23)
        em = sample_invariant(d, nm, p, burn_in=2.0, n_samples=128, stride=0.25,
                              n_chains=16, profile=prof)
        assert np.all(em.samples["dist_sup"] >= 0)
        est = tail_probability(em, 0.2)
        manual = float(np.mean(em.samples["dist_sup"] >= 0.2))
        assert est.p_hat == manual
        assert est.lo <= est.p_hat <= est.hi
