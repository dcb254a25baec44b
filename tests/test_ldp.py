import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .diagnostics import record_replay
from acldp.errors import ConfigurationError
from acldp.grid import build_domain
from acldp.ldp import delta_scaling, tail_report, tightness_monotone, wilson_interval
from acldp.noise import NoiseModel
from acldp.profile import compute_profile
from acldp.spde import EnsembleResult, SdeParams, sample_invariant


def synthetic_measure(eps, dist_values, sobolev_values=None):
    # one chain holding every sample
    n = len(dist_values)
    if sobolev_values is None:
        sobolev_values = np.abs(dist_values)
    return EnsembleResult(
        eps=eps, mode_states={}, to_coefficients=np.ones(1), t_samples=np.arange(n, dtype=float),
        obs={k: np.asarray(v, dtype=float).reshape(1, n) for k, v in (
            ("sup_norm", np.abs(dist_values)), ("dist_sup", dist_values),
            ("energy_star", np.zeros(n)), ("sobolev_norm", sobolev_values))},
        g_min=1.0)


def counted_measure(eps, count, n):
    # `count` of the n distances sit at 1, the rest at 0: threshold 0.5 counts exactly `count`
    return synthetic_measure(eps, np.r_[np.ones(count), np.zeros(n - count)])


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
        rep = tail_report([em], "dist_sup", 0.0)
        assert rep.p_hat[0] == 1.0

    def test_huge_threshold_rule_of_three(self):
        # a zero count reports Wilson's upper end z^2/(n + z^2), not 3/n
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(0).standard_normal(200)))
        rep = tail_report([em], "dist_sup", 10.0)
        assert rep.counts[0] == 0
        assert rep.p_hat[0] == 0.0
        assert rep.hi[0] == wilson_interval(0, 200)[1]
        assert rep.hi[0] > 0.0

    @settings(max_examples=50, deadline=None)
    @given(d1=st.floats(0.0, 2.0), d2=st.floats(0.0, 2.0))
    def test_monotone_in_threshold(self, d1, d2):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(3).standard_normal(300)))
        lo_d, hi_d = sorted((d1, d2))
        assert (tail_report([em], "dist_sup", lo_d).p_hat[0]
                >= tail_report([em], "dist_sup", hi_d).p_hat[0])

    def test_undersampled_rejected(self):
        em = synthetic_measure(0.1, np.ones(50))
        with pytest.raises(ConfigurationError):
            tail_report([em], "dist_sup", 0.5)

    def test_negative_threshold_rejected(self):
        em = synthetic_measure(0.1, np.ones(200))
        with pytest.raises(ConfigurationError, match="nonnegative"):
            tail_report([em], "dist_sup", -0.5)


class TestDecayFit:
    def test_exact_synthetic_slope(self):
        # p = 2^-k at 1/eps = 2k: -log p = (log 2 / 2) / eps exactly
        ems = [counted_measure(1.0 / (2 * k), 1024 >> k, 1024) for k in (1, 2, 3, 4)]
        rep = tail_report(ems, "dist_sup", 0.5)
        assert rep.slope == pytest.approx(np.log(2.0) / 2, abs=1e-9)
        assert rep.r2 == pytest.approx(1.0, abs=1e-12)
        assert rep.slope_valid

    def test_degenerate_fit_flagged(self):
        eps = (0.5, 0.2, 0.1, 0.05)
        counts = (300, 500, 200, 400)          # no decay structure
        rep = tail_report([counted_measure(e, c, 1000) for e, c in zip(eps, counts)],
                          "dist_sup", 0.5)
        assert rep.slope is not None
        assert not rep.slope_valid

    def test_needs_three_nonzero_cells(self):
        ems = [counted_measure(e, c, 1000) for e, c in ((0.5, 500), (0.2, 0), (0.1, 0))]
        rep = tail_report(ems, "dist_sup", 0.5)
        assert rep.slope is None and rep.r2 is None and not rep.slope_valid

    def test_report_orders_eps(self):
        rng = np.random.default_rng(1)
        ems = [synthetic_measure(e, np.abs(rng.standard_normal(400)) * np.sqrt(e))
               for e in (0.4, 0.1)]
        with pytest.raises(ConfigurationError):
            tail_report(ems[::-1], "dist_sup", 0.3)

    def test_gaussian_family_recovers_quadratic_threshold_law(self):
        # |N(0, eps)| tails: -log p = delta^2/(2 eps) (1 + o(1)), so the fitted
        # slope scales by ~4 when delta doubles
        rng = np.random.default_rng(7)
        eps_grid = (0.1, 0.05, 0.025)
        ems = [synthetic_measure(e, np.abs(rng.standard_normal(200_000)) * np.sqrt(e))
               for e in eps_grid]
        rep, _, ratio = delta_scaling(ems, 0.28)
        assert rep.slope > 0
        assert rep.r2 >= 0.8
        assert 2.0 <= ratio <= 8.0


class TestTightness:
    def test_radius_extremes(self):
        em = synthetic_measure(0.1, np.abs(np.random.default_rng(5).standard_normal(300)) + 0.1)
        assert tightness_monotone([em], 0.0)[0].p_hat[0] == 1.0
        big, _ = tightness_monotone([em], 1e6)
        assert big.p_hat[0] == 0.0 and big.hi[0] == wilson_interval(0, 300)[1]

    def test_monotone_check(self):
        rng = np.random.default_rng(11)
        ems = [synthetic_measure(e, np.ones(1000),
                                 sobolev_values=1.0 + np.sqrt(e) * np.abs(rng.standard_normal(1000)))
               for e in (0.2, 0.1, 0.05)]
        rep, nonincreasing = tightness_monotone(ems, 1.3)
        assert nonincreasing
        assert rep.p_hat[0] >= rep.p_hat[-1]


class TestShiftConsistency:
    def test_distance_identity_on_trajectory(self):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        nm = NoiseModel(kind="constant", g0=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=17)
        from acldp.grid import Boundary, Field
        rec = record_replay(d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET), nm, p,
                            0.5)
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
                              n_chains=16)
        assert np.all(em.obs["dist_sup"] >= 0)
        rep = tail_report([em], "dist_sup", 0.2)
        manual = float(np.mean(em.obs["dist_sup"] >= 0.2))
        assert rep.p_hat[0] == manual
        assert rep.lo[0] <= rep.p_hat[0] <= rep.hi[0]
