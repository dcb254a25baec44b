import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.integrate import quad

from acldp.errors import ConfigurationError, InstabilityError
from acldp.flow import gradient_flow
from acldp.grid import Boundary, Field, build_domain, transform_values
from acldp.noise import NoiseModel
from acldp.profile import compute_profile
from acldp import spde
from acldp.spde import (SdeParams, check_factorization_params,
                        decomposition_residual, ensemble_run,
                        factorization_constant, factorization_identity_error,
                        factorized_convolution, sample_invariant, sde_run,
                        stochastic_convolution)

from .conftest import band_limited


@pytest.fixture(scope="module")
def sdom():
    return build_domain(2.0, 63, 32)


@pytest.fixture(scope="module")
def sprof(sdom):
    return compute_profile(sdom)


@pytest.fixture(scope="module")
def const_noise():
    return NoiseModel(kind="constant", g0=1.0)


def ou_variance(eps, g0, lam, t):
    return eps * g0 ** 2 * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)


class TestReproducibility:
    def test_same_seed_bitwise(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=99)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        a = sde_run(sdom, x, const_noise, p, 0.5, profile=sprof)
        b = sde_run(sdom, x, const_noise, p, 0.5, profile=sprof)
        assert np.array_equal(a.final.values, b.final.values)
        assert np.array_equal(a.sup_norm, b.sup_norm)

    def test_zero_noise_matches_gradient_flow_bitwise(self, sdom, sprof, const_noise, rng):
        x = band_limited(sdom, rng, k_max=8, amp=0.4)
        p = SdeParams(eps=0.0, dt=1e-3, modes_noise=16, seed=7)
        traj = sde_run(sdom, x, const_noise, p, 0.3, profile=sprof)
        flow = gradient_flow(sdom, x, dt=1e-3, T=0.3, stop_tol=0.0,
                             record_every=10 ** 6, profile=sprof)
        assert np.array_equal(traj.final.values, flow.terminal().values)

    def test_chain_invariant_under_batching(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=31)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        ens = ensemble_run(sdom, x, const_noise, p, 0.3, n_chains=5, profile=sprof)
        solo = sde_run(sdom, x, const_noise, p, 0.3, profile=sprof, chain=3)
        assert np.array_equal(ens.final_values[3], solo.final.values)


class TestOUClosedForms:
    def test_mode_variances(self, sdom, sprof):
        # drift off, constant intensity: every mode is an exact OU process
        eps, g0 = 0.08, 0.8
        nm = NoiseModel(kind="constant", g0=g0)
        p = SdeParams(eps=eps, dt=1e-3, modes_noise=8, seed=2024)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        n_chains = 2000
        ens = ensemble_run(sdom, x, nm, p, 2.5, n_chains, profile=sprof,
                           linear_hook=True, mode_checkpoint_times=(0.5, 2.5))
        band = 3.0 * np.sqrt(2.0 / (n_chains - 1))
        snap_t = ens.mode_snaps[500]
        for k in (1, 2, 3, 4):
            lam = sdom.lambda_k[k - 1]
            var_t = np.var(snap_t[:, k - 1], ddof=1)
            expect = ou_variance(eps, g0, lam, 0.5)
            assert abs(var_t - expect) <= band * expect * 1.05  # small dt bias margin
        snap_s = ens.mode_snaps[2500]
        for k in (2, 3, 4):
            lam = sdom.lambda_k[k - 1]
            var_s = np.var(snap_s[:, k - 1], ddof=1)
            stat = eps * g0 ** 2 / (2.0 * lam)
            assert abs(var_s - stat) <= band * stat * 1.05


class TestWeakOrder:
    def test_variance_bias_halves_with_dt(self, sdom, sprof):
        eps, k = 0.1, 7                  # lambda_7 dt = 0.3 at dt = 1e-2
        nm = NoiseModel(kind="constant", g0=1.0)
        lam = sdom.lambda_k[k - 1]
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        exact = eps / (2.0 * lam)
        biases = []
        for dt in (1e-2, 5e-3):
            p = SdeParams(eps=eps, dt=dt, modes_noise=8, seed=5)
            ens = ensemble_run(sdom, x, nm, p, 2.0, 4000, profile=sprof,
                               linear_hook=True, mode_checkpoint_times=(2.0,))
            var = np.var(ens.mode_snaps[int(round(2.0 / dt))][:, k - 1], ddof=1)
            biases.append(var - exact)
        assert biases[0] / biases[1] == pytest.approx(2.0, rel=0.5)


class TestConvolution:
    def _replay_traj(self, sdom, sprof, nm, seed, T=0.4, dt=2e-3, eps=0.05, lam=1.0):
        p = SdeParams(eps=eps, dt=dt, modes_noise=16, lam=lam, seed=seed)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        return sde_run(sdom, x, nm, p, T, profile=sprof, keep_path=True,
                       keep_noise=True), p

    def test_zero_increments_give_zero(self, sdom, sprof, const_noise):
        traj, p = self._replay_traj(sdom, sprof, const_noise, seed=1)
        traj.noise_increments = np.zeros_like(traj.noise_increments)
        gamma = stochastic_convolution(sdom, traj, p)
        assert np.max(np.abs(gamma.path.values)) == 0.0

    def test_replay_needs_recording(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        bare = sde_run(sdom, x, const_noise, p, 0.1, profile=sprof)
        with pytest.raises(ConfigurationError):
            stochastic_convolution(sdom, bare, p)

    def test_frozen_intensity_mode_variance(self, sdom, sprof, const_noise):
        # G == 1: Var gamma_k(t) = (1 - e^{-2(lambda_k+lam)t}) / (2(lambda_k+lam))
        lam, T, dt = 1.0, 0.5, 2e-3
        n_rep = 300
        finals = np.empty((n_rep, sdom.modes))
        for r in range(n_rep):
            traj, p = self._replay_traj(sdom, sprof, const_noise, seed=1000 + r,
                                        T=T, dt=dt, lam=lam)
            gamma = stochastic_convolution(sdom, traj, p)
            finals[r] = transform_values(sdom, gamma.path.values[-1])
        band = 3.0 * np.sqrt(2.0 / (n_rep - 1))
        for k in (1, 2, 4):
            mu = sdom.lambda_k[k - 1] + lam
            expect = (1.0 - np.exp(-2.0 * mu * T)) / (2.0 * mu)
            got = np.var(finals[:, k - 1], ddof=1)
            assert abs(got - expect) <= band * expect * 1.1

    def test_decomposition_identity_first_order(self, sdom, sprof, const_noise):
        errs = []
        for dt in (4e-3, 2e-3):
            traj, p = self._replay_traj(sdom, sprof, const_noise, seed=77,
                                        T=0.4, dt=dt)
            errs.append(decomposition_residual(sdom, traj, p))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.6)

    def test_decomposition_with_state_dependent_intensity(self, sdom, sprof):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        traj, p = self._replay_traj(sdom, sprof, nm, seed=4, T=0.3, dt=2e-3)
        assert traj.g_min >= nm.g0 - 1e-12
        assert decomposition_residual(sdom, traj, p) < 0.05


class TestFactorization:
    def test_feasibility_guards(self):
        check_factorization_params(0.24, 0.2, 8)   # the default triple is feasible
        with pytest.raises(ConfigurationError, match="alpha"):
            check_factorization_params(0.3, 0.2, 8)
        with pytest.raises(ConfigurationError, match="pstar"):
            check_factorization_params(0.2, 0.2, 8)  # below the integrability bound

    def test_default_triple_arithmetic(self):
        lhs = (0.24 - 1.0 - 0.1) * 8.0 / 7.0
        assert lhs == pytest.approx(-0.9829, abs=1e-4)
        assert lhs > -1.0

    def test_beta_identity_oracle(self):
        # int_s^t (t-r)^{alpha-1} (r-s)^{-alpha} dr = pi / sin(pi alpha)
        alpha = 0.24
        for (s, t) in ((0.0, 1.0), (0.3, 0.9), (0.1, 2.4)):
            val, _ = quad(lambda r: 1.0, s, t, weight="alg",
                          wvar=(-alpha, alpha - 1.0))
            assert val == pytest.approx(np.pi / np.sin(np.pi * alpha), rel=1e-8)
        assert factorization_constant(alpha) == pytest.approx(
            np.sin(np.pi * alpha) / np.pi, rel=1e-14)

    def test_deterministic_reconstruction(self, sdom):
        err = factorization_identity_error(sdom, alpha=0.24, lam=1.0, t_eval=0.7)
        assert err < 1e-3

    def test_stochastic_factorized_smoke(self, sdom):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, lam=1.0, seed=11)
        traj = factorized_convolution(sdom, p, 0.24, T=0.5)
        assert np.all(np.isfinite(traj.path.values))
        assert np.all(np.isfinite(traj.sobolev_norm))       # sup ||Gamma|| observable
        assert traj.sobolev_norm[0] == 0.0
        assert traj.sobolev_norm[1:].max() > 0.0

    def test_factorized_tracks_direct_convolution(self, sdom, sprof, const_noise):
        # same seed, same increments: the factorized reconstruction should sit
        # near the stepping construction of gamma (both O(dt)-accurate)
        p = SdeParams(eps=0.1, dt=2e-3, modes_noise=16, lam=1.0, seed=21)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        traj = sde_run(sdom, x, const_noise, p, 0.4, profile=sprof,
                       keep_path=True, keep_noise=True, linear_hook=True)
        direct = stochastic_convolution(sdom, traj, p)
        fact = factorized_convolution(sdom, p, 0.24, T=0.4)
        ref = np.max(np.abs(direct.path.values))
        gap = np.max(np.abs(direct.path.values[-1] - fact.path.values[-1]))
        assert gap < 0.25 * ref


class TestInvariantSampling:
    def test_determinism_and_worker_independence(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=12)
        kw = dict(burn_in=2.0, n_samples=128, stride=0.25, n_chains=64,
                  profile=sprof)
        state_dependent = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        for nm in (const_noise, state_dependent):
            a = sample_invariant(sdom, nm, p, workers=1, **kw)
            b = sample_invariant(sdom, nm, p, workers=2, **kw)
            for key in a.samples:
                assert np.array_equal(a.samples[key], b.samples[key])
            assert a.g_min == b.g_min

    def test_concentration_with_small_noise(self, sdom, sprof, const_noise):
        means = []
        for eps in (0.2, 0.05, 0.0125):
            p = SdeParams(eps=eps, dt=5e-3, modes_noise=16, seed=8)
            em = sample_invariant(sdom, const_noise, p, burn_in=8.0,
                                  n_samples=192, stride=0.5, n_chains=32,
                                  profile=sprof)
            means.append(np.mean(em.samples["dist_sup"]))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.25

    def test_disjoint_seed_ensembles_agree(self, sdom, sprof, const_noise):
        ems = []
        for seed in (101, 202):
            p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=seed)
            ems.append(sample_invariant(sdom, const_noise, p, burn_in=6.0,
                                        n_samples=256, stride=0.5, n_chains=32,
                                        profile=sprof))
        thr = float(np.median(np.concatenate([em.samples["dist_sup"] for em in ems])))
        ps, ses = [], []
        for em in ems:
            vals = em.samples["dist_sup"]
            phat = np.mean(vals >= thr)
            ps.append(phat)
            ses.append(np.sqrt(phat * (1 - phat) / len(vals)))
        assert abs(ps[0] - ps[1]) <= 2.0 * np.hypot(*ses) + 1e-12

    def test_time_vs_ensemble_average(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=55)
        em = sample_invariant(sdom, const_noise, p, burn_in=8.0, n_samples=512,
                              stride=0.5, n_chains=64, profile=sprof)
        e = em.samples["energy_star"].reshape(64, -1)
        time_avg = float(np.mean(e))                    # pooled over chains and time
        final_ens = e[:, -1]
        se = float(np.std(final_ens, ddof=1) / np.sqrt(len(final_ens)))
        assert abs(time_avg - float(np.mean(final_ens))) <= 3.0 * se * np.sqrt(2.0)

    def test_burn_in_warning_and_undersampled_flag(self, sdom, sprof, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=3)
        em = sample_invariant(sdom, const_noise, p, burn_in=0.0, n_samples=64,
                              stride=0.25, n_chains=16, profile=sprof)
        assert em.undersampled
        assert any("burn_in" in w for w in em.warnings)
        assert any("n_samples" in w for w in em.warnings)

    def test_noise_floor_recorded(self, sdom, sprof):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=9)
        em = sample_invariant(sdom, nm, p, burn_in=1.0, n_samples=128,
                              stride=0.25, n_chains=16, profile=sprof)
        assert em.g_min >= nm.g0 - 1e-12


class TestProcessPool:
    def test_uneven_chunks_bitwise_equal_across_workers(self, sdom, sprof, const_noise):
        # 40 chains: chunks of 32 + 8
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=17)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        state_dependent = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        for nm in (const_noise, state_dependent):
            ref, *others = [
                ensemble_run(sdom, x, nm, p, 1.0, 40, profile=sprof,
                             sample_times=(0.25, 0.5, 0.75),
                             mode_checkpoint_times=(0.5, 1.0), workers=w)
                for w in (1, 2, "auto")]
            for ens in others:
                assert np.array_equal(ens.final_values, ref.final_values)
                assert np.array_equal(ens.sup_running, ref.sup_running)
                assert np.array_equal(ens.t_samples, ref.t_samples)
                assert ens.mode_snaps.keys() == ref.mode_snaps.keys() == {100, 200}
                for step in ref.mode_snaps:
                    assert np.array_equal(ens.mode_snaps[step], ref.mode_snaps[step])
                assert ens.obs.keys() == ref.obs.keys()
                for key in ref.obs:
                    assert np.array_equal(ens.obs[key], ref.obs[key])
                assert ens.g_min == ref.g_min
            assert ref.final_values.shape == (40, sdom.n)

    def test_blowup_in_a_child_chunk_names_eps(self, sdom, sprof, const_noise, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)    # the pool runs on any box
        p = SdeParams(eps=4e4, dt=5e-2, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(InstabilityError, match="eps"):
            ensemble_run(sdom, x, const_noise, p, 5.0, 64, profile=sprof, workers=2)

    def test_dead_child_raises_and_does_not_hang(self, sdom, sprof, const_noise, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(spde, "_evolve_chains", lambda *a, **k: os._exit(3))
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        raised = []

        def call():
            try:
                ensemble_run(sdom, x, const_noise, p, 0.1, 64, profile=sprof, workers=2)
            except BrokenProcessPool as exc:
                raised.append(exc)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert len(raised) == 1


class TestMomentBound:
    def test_running_sup_percentile_stable_as_horizon_doubles(self, sdom, sprof, const_noise):
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        qs = []
        for T in (2.0, 4.0):
            p = SdeParams(eps=0.1, dt=2e-3, modes_noise=16, seed=64)
            ens = ensemble_run(sdom, x, const_noise, p, T, 1000, profile=sprof)
            qs.append(float(np.quantile(ens.sup_running, 0.999)))
        assert qs[1] <= 1.25 * qs[0]


class TestGuards:
    def test_blowup_reports_parameters(self, sdom, sprof, const_noise):
        p = SdeParams(eps=4e4, dt=5e-2, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(InstabilityError, match="eps"):
            sde_run(sdom, x, const_noise, p, 5.0, profile=sprof)

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            SdeParams(eps=-1.0, dt=1e-3)
        with pytest.raises(ConfigurationError):
            SdeParams(eps=0.1, dt=0.0)
