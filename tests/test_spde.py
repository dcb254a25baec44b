import ast
import os
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from .diagnostics import (check_factorization_params, damped_remainder_path,
                          decomposition_residual, factorization_constant,
                          factorization_identity_error, record_replay,
                          stochastic_convolution)
from acldp.energy import energy_star_values, reaction_values
from acldp.errors import MEMORY_BYTES, ConfigurationError, InstabilityError
from acldp.flow import ExpEuler, gradient_flow
from acldp.grid import (Boundary, Field, build_domain, dst, inverse_transform_values,
                        sobolev_norm_values, transform_values)
from acldp.ldp import delta_scaling
from acldp.noise import NoiseModel
from acldp.pipeline import choose_delta
from acldp.profile import compute_profile
from acldp import spde
from acldp.spde import SdeParams, ensemble_run, sample_invariant

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


def checkpoint_values(d, state):
    """Grid values of checkpointed kernel states: zero-padded to n, rebuilt
    through the kernel's own `ExpEuler.values` in the states' dtype, and cast
    to float64 as the sampler's observables read them."""
    padded = np.pad(state, [(0, 0)] * (state.ndim - 1) + [(0, d.n - d.modes)])
    return ExpEuler.values(padded).astype(np.float64)


class TestReproducibility:
    def test_same_seed_bitwise(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=99)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        every_step = tuple(np.arange(251) * p.dt)
        a, b = (ensemble_run(sdom, x, const_noise, p, 0.5, n_chains=1,
                             sample_times=every_step, mode_checkpoint_times=(0.5,))
                for _ in range(2))
        assert np.array_equal(a.mode_states[250], b.mode_states[250])
        assert np.array_equal(a.obs["sup_norm"], b.obs["sup_norm"])

    def test_zero_noise_matches_gradient_flow_bitwise(self, sdom, const_noise, rng):
        # at eps = 0 a chain is bitwise the noiseless kernel loop in the
        # sampler's dtype, the flow's step in float32
        x = band_limited(sdom, rng, k_max=8, amp=0.4)
        p = SdeParams(eps=0.0, dt=1e-3, modes_noise=16, seed=7)
        ens = ensemble_run(sdom, x, const_noise, p, 0.3, n_chains=1,
                           mode_checkpoint_times=(0.3,))
        kernel = ExpEuler(sdom, p.dt, dtype=spde.CHAIN_DTYPE)
        a = kernel.state(x.values)
        for _ in range(300):
            kernel.advance(a, kernel.drift(kernel.values(a)))
        assert ens.mode_states[300].dtype == np.float32
        assert np.array_equal(ens.mode_states[300][0], a[:sdom.modes])
        # and within float32 rounding of the float64 gradient flow: each step
        # rounds the state at most 4 times by u = 2^-24 of its scale (see
        # test_flow.TestKernel), and F' <= 1 lets a carried error grow at most
        # by e^{dt} a step, so N = 300 steps stay within 4 N u e^{N dt} max|x|
        flow = gradient_flow(sdom, x, dt=1e-3, T=0.3, stop_tol=0.0)
        bound = 4 * 300 * 2.0 ** -24 * np.exp(0.3) * np.max(np.abs(x.values))
        assert np.max(np.abs(checkpoint_values(sdom, ens.mode_states[300])[0]
                             - flow.terminal().values)) <= bound

    def test_chain_invariant_under_batching(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=31)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        ens = ensemble_run(sdom, x, const_noise, p, 0.3, n_chains=5,
                           mode_checkpoint_times=(0.3,))
        # a batch that holds chain 3 alone
        solo = spde._evolve_chains(sdom, x.values, const_noise, (p,), 150, np.array([150]),
                                   kstar=0.2, pstar=8, chain_ids=np.array([3]),
                                   mode_checkpoints=(150,))
        assert np.array_equal(ens.mode_states[150][3], solo["mode_states"][150][0, 0])


class TestOUClosedForms:
    def test_mode_variances(self, sdom):
        # drift off, constant intensity: every mode is an exact OU process
        eps, g0 = 0.08, 0.8
        nm = NoiseModel(kind="constant", g0=g0)
        p = SdeParams(eps=eps, dt=1e-3, modes_noise=8, seed=2024)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        n_chains = 2000
        ens = ensemble_run(sdom, x, nm, p, 2.5, n_chains,
                           linear_hook=True, mode_checkpoint_times=(0.5, 2.5))
        band = 3.0 * np.sqrt(2.0 / (n_chains - 1))
        snap_t = ens.coefficients(500)
        for k in (1, 2, 3, 4):
            lam = sdom.lambda_k[k - 1]
            var_t = np.var(snap_t[:, k - 1], ddof=1)
            expect = ou_variance(eps, g0, lam, 0.5)
            assert abs(var_t - expect) <= band * expect * 1.05  # small dt bias margin
        snap_s = ens.coefficients(2500)
        for k in (2, 3, 4):
            lam = sdom.lambda_k[k - 1]
            var_s = np.var(snap_s[:, k - 1], ddof=1)
            stat = eps * g0 ** 2 / (2.0 * lam)
            assert abs(var_s - stat) <= band * stat * 1.05


class TestWeakOrder:
    def test_variance_bias_halves_with_dt(self, sdom):
        eps, k = 0.1, 7                  # lambda_7 dt = 0.3 at dt = 1e-2
        nm = NoiseModel(kind="constant", g0=1.0)
        lam = sdom.lambda_k[k - 1]
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        exact = eps / (2.0 * lam)
        biases = []
        for dt in (1e-2, 5e-3):
            p = SdeParams(eps=eps, dt=dt, modes_noise=8, seed=5)
            ens = ensemble_run(sdom, x, nm, p, 2.0, 4000,
                               linear_hook=True, mode_checkpoint_times=(2.0,))
            var = np.var(ens.coefficients(int(round(2.0 / dt)))[:, k - 1], ddof=1)
            biases.append(var - exact)
        assert biases[0] / biases[1] == pytest.approx(2.0, rel=0.5)


class TestConvolution:
    def _record(self, sdom, nm, seed, T=0.4, dt=2e-3, eps=0.05):
        p = SdeParams(eps=eps, dt=dt, modes_noise=16, seed=seed)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        return record_replay(sdom, x, nm, p, T)

    def test_zero_increments_give_zero(self, sdom, const_noise):
        rec = self._record(sdom, const_noise, seed=1)
        rec = replace(rec, noise_increments=np.zeros_like(rec.noise_increments))
        gamma = stochastic_convolution(sdom, rec, 1.0)
        assert np.max(np.abs(gamma.values)) == 0.0

    def test_replay_needs_recording(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        bare = ensemble_run(sdom, x, const_noise, p, 0.1, n_chains=1)
        with pytest.raises(ConfigurationError, match="record_replay"):
            stochastic_convolution(sdom, bare, 1.0)

    def test_negative_damping_rejected(self, sdom, const_noise):
        rec = self._record(sdom, const_noise, seed=3, T=0.1)
        for replay in (stochastic_convolution, damped_remainder_path, decomposition_residual):
            with pytest.raises(ConfigurationError, match="damping lam"):
                replay(sdom, rec, -0.5)

    def test_split_draws_equal_one_draw(self):
        one = spde._draw_block(spde._make_streams(5, np.array([0, 3]), 4), 650)
        streams = spde._make_streams(5, np.array([0, 3]), 4)
        split = np.concatenate([spde._draw_block(streams, 512),
                                spde._draw_block(streams, 138)], axis=1)
        assert one.tobytes() == split.tobytes()

    def test_kept_noise_drove_the_kept_path(self, sdom, const_noise):
        # drift off, constant intensity: in state coordinates a = c / (2 sign sqrt L),
        # a_{s+1} = e^{-lambda dt} a_s + sqrt(eps dt) xi_s / (2 sign sqrt L) in
        # float32, over 650 steps (past one 512-step block of draws)
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=41)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        rec = record_replay(sdom, x, const_noise, p, 1.3, linear_hook=True)
        assert rec.noise_increments.shape == (650, 16)
        ens = ensemble_run(sdom, x, const_noise, p, 1.3, 1, linear_hook=True,
                           mode_checkpoint_times=np.arange(651) * p.dt)
        decay = np.exp(-sdom.lambda_k * p.dt).astype(np.float32)
        noise_weight = ((np.sqrt(p.eps) * const_noise.g0 * np.sqrt(p.dt))
                        / (2.0 * sdom.inv_divisor[:16])).astype(np.float32)
        a = ens.mode_states[0][0].copy()          # zero (the DST's signed zeros kept)
        assert a.dtype == np.float32 and not np.any(a)
        for s, xi in enumerate(rec.noise_increments):
            a *= decay
            a[:16] += (noise_weight * xi).astype(np.float32)
            assert ens.mode_states[s + 1][0].tobytes() == a.tobytes()

    def test_replay_is_independent_of_record_every(self, sdom, sprof, const_noise):
        # the record is chain 0 of ensemble_run, whichever steps that run samples
        rec = self._record(sdom, const_noise, seed=77)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        for every in (1, 5):
            times = tuple(np.arange(0, 201, every) * rec.params.dt)
            ens = ensemble_run(sdom, x, const_noise, rec.params, 0.4, n_chains=1,
                               sample_times=times, mode_checkpoint_times=(0.4,))
            kept = rec.path.values[::every]
            assert np.max(np.abs(kept), axis=-1).tobytes() == ens.obs["sup_norm"][0].tobytes()
            assert (np.max(np.abs(kept - sprof.shifted_values(sdom)), axis=-1).tobytes()
                    == ens.obs["dist_sup"][0].tobytes())
            assert kept[-1].tobytes() == checkpoint_values(sdom, ens.mode_states[200])[0].tobytes()
        # the damping is the replay's own
        assert decomposition_residual(sdom, rec, 3.0) < 0.05

    @pytest.mark.parametrize("kind", ["constant", "smooth_bounded_below"])
    def test_folded_recurrence_matches_per_step_loops(self, sdom, kind):
        # the per-step exponential-Euler loops the replay folds into one
        # stacked forcing transform and a mode-vector recurrence
        nm = NoiseModel(kind=kind, g0=0.5, c=1.0)
        rec = self._record(sdom, nm, seed=6, T=0.3)
        lam, p, path = 1.5, rec.params, rec.path.values
        mu = sdom.lambda_k + lam
        decay = np.exp(-mu * p.dt)
        phi1 = (1.0 - decay) / mu
        gamma, y = np.zeros(sdom.modes), np.zeros(sdom.modes)
        gamma_frames, y_frames = np.zeros_like(path), np.zeros_like(path)
        for s in range(len(path) - 1):
            z = path[s]
            w_phys = inverse_transform_values(sdom, np.sqrt(p.dt) * rec.noise_increments[s])
            gamma = decay * gamma + transform_values(sdom, nm.g(z + sdom.psi) * w_phys)
            gamma_frames[s + 1] = inverse_transform_values(sdom, gamma)
            y = decay * y + phi1 * transform_values(sdom, reaction_values(sdom, z) + lam * z)
            y_frames[s + 1] = inverse_transform_values(sdom, y)
        assert np.array_equal(stochastic_convolution(sdom, rec, lam).values, gamma_frames)
        assert np.array_equal(damped_remainder_path(sdom, rec, lam).values, y_frames)

    def test_frozen_intensity_mode_variance(self, sdom, const_noise):
        # G == 1: Var gamma_k(t) = (1 - e^{-2(lambda_k+lam)t}) / (2(lambda_k+lam))
        lam, T, dt = 1.0, 0.5, 2e-3
        n_rep = 300
        finals = np.empty((n_rep, sdom.modes))
        for r in range(n_rep):
            rec = self._record(sdom, const_noise, seed=1000 + r, T=T, dt=dt)
            gamma = stochastic_convolution(sdom, rec, lam)
            finals[r] = transform_values(sdom, gamma.values[-1])
        band = 3.0 * np.sqrt(2.0 / (n_rep - 1))
        for k in (1, 2, 4):
            mu = sdom.lambda_k[k - 1] + lam
            expect = (1.0 - np.exp(-2.0 * mu * T)) / (2.0 * mu)
            got = np.var(finals[:, k - 1], ddof=1)
            assert abs(got - expect) <= band * expect * 1.1

    def test_decomposition_identity_first_order(self, sdom, const_noise):
        errs = []
        for dt in (4e-3, 2e-3):
            rec = self._record(sdom, const_noise, seed=77, T=0.4, dt=dt)
            errs.append(decomposition_residual(sdom, rec, 1.0))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.6)

    def test_decomposition_with_state_dependent_intensity(self, sdom):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        rec = self._record(sdom, nm, seed=4, T=0.3, dt=2e-3)
        assert decomposition_residual(sdom, rec, 1.0) < 0.05


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


class TestRecordedObservables:
    """A sampled state is transformed once, in float64, for E* and the
    W^{k*,p*} norm both."""

    def test_a_sampled_state_makes_two_float64_dsts(self, sdom, const_noise, dst_dtypes):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=23)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        counts = []
        for times in ((), (0.0,)):                     # the last state is always sampled
            dst_dtypes.clear()
            ensemble_run(sdom, x, const_noise, p, 0.02, 3, sample_times=times)
            counts.append(sum(t == np.float64 for t in dst_dtypes))
        assert counts[1] - counts[0] == 2

    def test_observables_are_the_raw_functions_of_the_replayed_path(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=2e-3, modes_noise=16, seed=17)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        rec = record_replay(sdom, x, const_noise, p, 0.1)
        steps = np.arange(0, 51, 10)
        ens = ensemble_run(sdom, x, const_noise, p, 0.1, 1, sample_times=tuple(steps * p.dt))
        z = rec.path.values[steps]
        c = transform_values(sdom, z)
        assert energy_star_values(sdom, z, c).tobytes() == ens.obs["energy_star"][0].tobytes()
        assert (sobolev_norm_values(sdom, c, 0.2, 8).tobytes()
                == ens.obs["sobolev_norm"][0].tobytes())


class TestInvariantSampling:
    def test_determinism_and_worker_independence(self, sdom, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=12)
        kw = dict(burn_in=2.0, n_samples=128, stride=0.25, n_chains=64)
        state_dependent = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        for nm in (const_noise, state_dependent):
            a = sample_invariant(sdom, nm, p, workers=1, **kw)
            b = sample_invariant(sdom, nm, p, workers=2, **kw)
            assert np.array_equal(a.t_samples, b.t_samples)
            for key in a.obs:
                assert np.array_equal(a.obs[key], b.obs[key])
            assert a.g_min == b.g_min

    def test_concentration_with_small_noise(self, sdom, const_noise):
        means = []
        for eps in (0.2, 0.05, 0.0125):
            p = SdeParams(eps=eps, dt=5e-3, modes_noise=16, seed=8)
            em = sample_invariant(sdom, const_noise, p, burn_in=8.0,
                                  n_samples=192, stride=0.5, n_chains=32)
            means.append(np.mean(em.obs["dist_sup"]))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.25

    def test_disjoint_seed_ensembles_agree(self, sdom, const_noise):
        ems = []
        for seed in (101, 202):
            p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=seed)
            ems.append(sample_invariant(sdom, const_noise, p, burn_in=6.0,
                                        n_samples=256, stride=0.5, n_chains=32))
        thr = float(np.median(np.concatenate([em.obs["dist_sup"].ravel() for em in ems])))
        ps, ses = [], []
        for em in ems:
            vals = em.obs["dist_sup"]
            phat = np.mean(vals >= thr)
            ps.append(phat)
            ses.append(np.sqrt(phat * (1 - phat) / vals.size))
        assert abs(ps[0] - ps[1]) <= 2.0 * np.hypot(*ses) + 1e-12

    def test_time_vs_ensemble_average(self, sdom, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=55)
        em = sample_invariant(sdom, const_noise, p, burn_in=8.0, n_samples=512,
                              stride=0.5, n_chains=64)
        # the chain axis is kept: 8 samples a chain, one stride apart past the burn-in
        assert all(v.shape == (64, 8) for v in em.obs.values())
        assert em.t_samples == pytest.approx(8.0 + 0.5 * np.arange(1, 9), rel=0, abs=1e-12)
        e = em.obs["energy_star"]
        time_avg = float(np.mean(e))                    # pooled over chains and time
        final_ens = e[:, -1]
        se = float(np.std(final_ens, ddof=1) / np.sqrt(len(final_ens)))
        assert abs(time_avg - float(np.mean(final_ens))) <= 3.0 * se * np.sqrt(2.0)

    def test_burn_in_warning_and_undersampled_flag(self, sdom, const_noise):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=3)
        em = sample_invariant(sdom, const_noise, p, burn_in=0.0, n_samples=64,
                              stride=0.25, n_chains=16)
        assert em.obs["sup_norm"].size < spde.MIN_SAMPLES
        assert any("burn_in" in w for w in em.warnings)
        assert any("n_samples" in w for w in em.warnings)

    @pytest.mark.parametrize("n_samples, pooled, undersampled", [(97, 104, False),
                                                                 (93, 96, True)])
    def test_undersampled_flag_reads_the_pooled_count(self, sdom, const_noise,
                                                      n_samples, pooled, undersampled):
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=3)
        em = sample_invariant(sdom, const_noise, p, burn_in=2.0, n_samples=n_samples,
                              stride=0.25, n_chains=8)
        assert em.obs["sup_norm"].shape == (8, pooled // 8)
        assert any("n_samples" in w for w in em.warnings) is undersampled

    def test_noise_floor_recorded(self, sdom):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=9)
        em = sample_invariant(sdom, nm, p, burn_in=1.0, n_samples=128,
                              stride=0.25, n_chains=16)
        assert em.g_min >= nm.g0

    def test_noise_floor_holds_where_float32_rounds_g0_down(self, sdom):
        # float32(0.7) < 0.7: the kernel's intensity floors at g0 rounded up
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.7, c=1.0)
        assert float(np.float32(nm.g0)) < nm.g0
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=9)
        em = sample_invariant(sdom, nm, p, burn_in=1.0, n_samples=128,
                              stride=0.25, n_chains=16)
        assert nm.g0 <= em.g_min < nm.g0 + 0.05

    def test_float32_chains_match_float64_over_a_long_horizon(self, sdom, const_noise,
                                                              monkeypatch):
        # 4 000 steps of 32 chains at three eps levels: the float64 reference is
        # the same kernel at float64 with the same normals
        p = [SdeParams(eps=eps, dt=1e-3, modes_noise=16, seed=5) for eps in (0.2, 0.1, 0.05)]
        kw = dict(burn_in=2.0, n_samples=1280, stride=0.05, n_chains=32)
        ems32 = sample_invariant(sdom, const_noise, p, **kw)
        monkeypatch.setattr(spde, "CHAIN_DTYPE", np.float64)
        ems64 = sample_invariant(sdom, const_noise, p, **kw)
        delta = choose_delta(ems64)
        for rep32, rep64 in zip(delta_scaling(ems32, delta)[:2], delta_scaling(ems64, delta)[:2]):
            assert np.array_equal(rep32.counts, rep64.counts)
            assert np.all(rep64.counts > 0)
        for em32, em64 in zip(ems32, ems64):
            for key in ("energy_star", "dist_sup"):
                assert np.mean(em32.obs[key]) == pytest.approx(
                    np.mean(em64.obs[key]), rel=1e-4)

    @pytest.mark.parametrize("kind", ["constant", "smooth_bounded_below"])
    def test_sampler_kernel_stays_float32(self, sdom, kind, monkeypatch):
        # a float64 operand in a step would promote it (NEP 50) and give the
        # precision's gain back without changing a result by much
        seen = []

        class Watched(ExpEuler):
            def advance(self, a, drift=None, *, g_values=None, **kwargs):
                operands = [drift] + ([] if g_values is None else [g_values])
                super().advance(a, drift, g_values=g_values, **kwargs)
                seen.append({v.dtype for v in [a, self._reaction, self._noise] + operands})

        monkeypatch.setattr(spde, "ExpEuler", Watched)
        nm = NoiseModel(kind=kind, g0=0.7, c=1.0)
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=9)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        ens = ensemble_run(sdom, x, nm, p, 0.05, 3, mode_checkpoint_times=(0.05,))
        assert len(seen) == 10
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
        assert ens.mode_states[10].dtype == np.float32
        assert ens.obs["energy_star"].dtype == np.float64
        # the reaction adds the kernel's float32 psi: float32 arithmetic
        # throughout (on a grid whose psi is not exact in float32)
        d = build_domain(2.0, 100, 50)
        kernel = ExpEuler(d, p.dt, dtype=spde.CHAIN_DTYPE)
        z = np.linspace(-1.0, 1.0, d.n, dtype=np.float32)
        u = z + kernel.psi
        assert kernel.drift(z).tobytes() == dst(u - u * u * u, type=1).tobytes()


class TestProcessPool:
    def test_uneven_chunks_bitwise_equal_across_workers(self, sdom, const_noise):
        # 40 chains: chunks of 32 + 8, observables at every step
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=17)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        state_dependent = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        for nm in (const_noise, state_dependent):
            ref, *others = [
                ensemble_run(sdom, x, nm, p, 1.0, 40,
                             sample_times=tuple(np.arange(201) * p.dt),
                             mode_checkpoint_times=(0.5, 1.0), workers=w)
                for w in (1, 2, "auto")]
            for ens in others:
                assert np.array_equal(ens.t_samples, ref.t_samples)
                assert ens.mode_states.keys() == ref.mode_states.keys() == {100, 200}
                for step in ref.mode_states:
                    assert np.array_equal(ens.mode_states[step], ref.mode_states[step])
                assert ens.obs.keys() == ref.obs.keys()
                for key in ref.obs:
                    assert np.array_equal(ens.obs[key], ref.obs[key])
                assert ens.g_min == ref.g_min
            assert ref.mode_states[200].shape == (40, sdom.modes)
            assert ref.obs["sup_norm"].shape == (40, 201)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stacked_levels_equal_separate_calls(self, sdom, const_noise,
                                                  monkeypatch, workers):
        # 40 chains: chunks of 32 + 8, each stepping three eps levels together
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        kw = dict(burn_in=0.5, n_samples=80, stride=0.25, n_chains=40)
        levels = [SdeParams(eps=eps, dt=5e-3, modes_noise=16, seed=23)
                  for eps in (0.2, 0.1, 0.05)]
        state_dependent = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=1.0)
        for nm in (const_noise, state_dependent):
            stacked = sample_invariant(sdom, nm, levels, workers=workers, **kw)
            assert [em.eps for em in stacked] == [0.2, 0.1, 0.05]
            for p, em in zip(levels, stacked):
                solo = sample_invariant(sdom, nm, p, workers=1, **kw)
                assert np.array_equal(em.t_samples, solo.t_samples)
                assert em.obs.keys() == solo.obs.keys()
                for key in solo.obs:
                    assert np.array_equal(em.obs[key], solo.obs[key])
                assert em.g_min == solo.g_min
                assert em.warnings == solo.warnings

    @pytest.mark.parametrize("change", [dict(dt=1e-2), dict(seed=24), dict(modes_noise=8)])
    def test_stacked_levels_differ_only_in_eps(self, sdom, const_noise, change):
        p = SdeParams(eps=0.2, dt=5e-3, modes_noise=16, seed=23)
        with pytest.raises(ConfigurationError, match="differ only in eps"):
            sample_invariant(sdom, const_noise, [p, replace(p, eps=0.1, **change)],
                             burn_in=0.5, n_samples=8, stride=0.25, n_chains=8)

    def test_blowup_in_a_child_chunk_names_eps(self, sdom, const_noise, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)    # the pool runs on any box
        p = SdeParams(eps=4e4, dt=5e-2, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(InstabilityError, match="eps"):
            ensemble_run(sdom, x, const_noise, p, 5.0, 64, workers=2)

    def test_only_the_sampler_starts_processes(self):
        """The package has one process pool, the sampler's: no other module
        imports concurrent.futures or multiprocessing."""
        def pool_modules(node):
            if isinstance(node, ast.Import):
                return [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            return []

        importers = set()
        for src in sorted((Path(__file__).parents[1] / "src" / "acldp").glob("*.py")):
            for node in ast.walk(ast.parse(src.read_text())):
                if any(m.split(".")[0] in ("concurrent", "multiprocessing")
                       for m in pool_modules(node)):
                    importers.add(src.name)
        assert importers == {"spde.py"}

    def test_dead_child_raises_and_does_not_hang(self, sdom, const_noise, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(spde, "_evolve_chains", lambda *a, **k: os._exit(3))
        p = SdeParams(eps=0.1, dt=5e-3, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        raised = []

        def call():
            try:
                ensemble_run(sdom, x, const_noise, p, 0.1, 64, workers=2)
            except BrokenProcessPool as exc:
                raised.append(exc)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert len(raised) == 1


class TestMomentBound:
    def test_running_sup_percentile_stable_as_horizon_doubles(self, sdom, const_noise):
        # each chain's running sup |z| is the max of sup_norm sampled at every step
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        qs = []
        for T in (2.0, 4.0):
            p = SdeParams(eps=0.1, dt=2e-3, modes_noise=16, seed=64)
            every_step = tuple(np.arange(round(T / p.dt) + 1) * p.dt)
            ens = ensemble_run(sdom, x, const_noise, p, T, 1000,
                               sample_times=every_step, workers=2)
            qs.append(float(np.quantile(ens.obs["sup_norm"].max(axis=1), 0.999)))
        assert qs[1] <= 1.25 * qs[0]


class TestGuards:
    def test_blowup_reports_parameters(self, sdom, const_noise):
        p = SdeParams(eps=4e4, dt=5e-2, modes_noise=16, seed=1)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(InstabilityError, match="eps"):
            ensemble_run(sdom, x, const_noise, p, 5.0, n_chains=1)

    def test_blowup_names_the_level_that_crossed(self, sdom):
        # the first level stays bounded; only the second blows up.  At g0 = 1e300
        # the second level's noise weight overflows, so its state is NaN
        for g0, eps_levels, named in ((1.0, (0.1, 4e4), r"eps=40000\.0, dt=0\.05"),
                                      (1e300, (0.0, 1e300), r"eps=1e\+300, dt=0\.05")):
            nm = NoiseModel(kind="constant", g0=g0)
            levels = [SdeParams(eps=eps, dt=5e-2, modes_noise=16, seed=1) for eps in eps_levels]
            with pytest.raises(InstabilityError, match=named):
                sample_invariant(sdom, nm, levels, burn_in=5.0, n_samples=16,
                                 stride=0.5, n_chains=16)

    def test_stride_below_half_a_step_rejected(self, sdom, const_noise):
        # 0.004 is no whole number of steps of 0.01
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        with pytest.raises(ConfigurationError, match=r"stride=0\.004 .*dt=0\.01"):
            sample_invariant(sdom, const_noise, p, burn_in=0.1, n_samples=4, stride=0.004,
                             n_chains=2)

    @pytest.mark.parametrize("times", [(0.5,), (0.05, 0.5), (-0.02,)])
    def test_sample_time_outside_horizon_rejected(self, sdom, const_noise, times):
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        bad = [t for t in times if not 0 <= t <= 0.1][0]
        with pytest.raises(ConfigurationError, match=rf"sample time {bad} .*T=0\.1"):
            ensemble_run(sdom, x, const_noise, p, 0.1, n_chains=2,
                         sample_times=times)

    def test_mode_checkpoint_outside_horizon_rejected(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(ConfigurationError, match=r"mode checkpoint time 0\.5 .*T=0\.1"):
            ensemble_run(sdom, x, const_noise, p, 0.1, n_chains=2,
                         mode_checkpoint_times=(0.05, 0.5))

    def test_sample_times_on_one_step_rejected(self, sdom, const_noise):
        # 0.001 and 0.002 are no whole number of steps of 0.01
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(ConfigurationError,
                           match=r"sample time=0\.001 is not a whole number of steps of dt=0\.01"):
            ensemble_run(sdom, x, const_noise, p, 0.1, n_chains=2,
                         sample_times=(0.001, 0.002, 0.05))

    def test_times_at_the_horizon_are_kept(self, sdom, const_noise):
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        ens = ensemble_run(sdom, x, const_noise, p, 0.1, n_chains=2,
                           sample_times=(0.0, 0.1), mode_checkpoint_times=(0.0, 0.1))
        assert np.allclose(ens.t_samples, [0.0, 0.1])
        assert sorted(ens.mode_states) == [0, 10]

    def test_mode_checkpoints_beyond_the_byte_cap_rejected_before_stepping(
            self, sdom, const_noise, monkeypatch):
        # 64 chains x 32 modes x 8 B = 16 KiB a checkpoint; 20 001 of them pass the cap
        p = SdeParams(eps=0.05, dt=1e-3, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        times = np.arange(20_001) * p.dt
        assert len(times) * 64 * sdom.modes * 8 > MEMORY_BYTES

        def never(*args, **kwargs):
            raise AssertionError("stepped past the checkpoint cap")

        monkeypatch.setattr(spde, "_evolve_chains", never)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="mode-checkpoint values take"):
                ensemble_run(sdom, x, const_noise, p, 20.0, n_chains=64,
                             mode_checkpoint_times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("T", [0.0, -0.1, 0.004])
    def test_ensemble_horizon_must_cover_a_step(self, sdom, const_noise, T):
        # T = 0.004 is less than one step of 0.01, and no whole number of them
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        match = (rf"T={T} is not a whole number of steps of dt=0\.01" if T == 0.004
                 else rf"at least one step, got T={T} at dt=0\.01")
        with pytest.raises(ConfigurationError, match=match):
            ensemble_run(sdom, x, const_noise, p, T, n_chains=2)

    @pytest.mark.parametrize("front_end", ["sample_invariant", "ensemble_run"])
    def test_needs_a_chain(self, sdom, const_noise, front_end):
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        x = Field(np.zeros(sdom.n), Boundary.ZERO_DIRICHLET)
        for n_chains in (0, -2):
            with pytest.raises(ConfigurationError, match=f"n_chains={n_chains}"):
                if front_end == "sample_invariant":
                    sample_invariant(sdom, const_noise, p, burn_in=0.1, n_samples=8,
                                     stride=0.05, n_chains=n_chains)
                else:
                    ensemble_run(sdom, x, const_noise, p, 0.1, n_chains)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sample_invariant_needs_a_sample(self, sdom, const_noise, n_samples):
        p = SdeParams(eps=0.05, dt=0.01, modes_noise=16, seed=3)
        with pytest.raises(ConfigurationError, match=f"n_samples={n_samples}"):
            sample_invariant(sdom, const_noise, p, burn_in=0.1, n_samples=n_samples,
                             stride=0.05, n_chains=4)

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            SdeParams(eps=-1.0, dt=1e-3)
        with pytest.raises(ConfigurationError):
            SdeParams(eps=0.1, dt=0.0)
