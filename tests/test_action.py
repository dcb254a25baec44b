import importlib
import tracemalloc

import numpy as np
import pytest

from acldp.action import (MAM_DT_FLOW, RUNG_PATHS, _action_core, _dense_laplacian,
                          _eigenbasis, _initial_path, _line_search, _rung_objective,
                          action, mam_minimize, minimize)
from acldp.energy import energy_star, energy_star_values, reaction_values
from acldp.errors import MEMORY_BYTES, ConfigurationError
from acldp.flow import Path, flow_states, gradient_flow, skeleton_solve
from acldp.grid import Boundary, Field, build_domain, laplacian_values, transform_values
from acldp.noise import NoiseModel
from acldp.profile import compute_profile

from .conftest import band_limited, flow_path
from .fields import action_gradient, basis_eval

# the module, not the `action` function that the package re-exports under its name
action_module = importlib.import_module("acldp.action")


def equilibrium(d, prof):
    return Field(prof.shifted_values(d), Boundary.ZERO_DIRICHLET)


def multi_mode_state(d, prof, amps):
    vals = prof.shifted_values(d).copy()
    for k, a in amps:
        vals += a * basis_eval(d, k).values
    return Field(vals, Boundary.ZERO_DIRICHLET)


def reversed_flow(d, zeta, t_star, dt):
    """The time reversal of the noiseless flow from zeta over [0, t_star]."""
    return Path(flow_path(d, zeta, dt, t_star).values[::-1], Boundary.ZERO_DIRICHLET, dt)


def start_path_action(d, zeta, nm, T):
    """Action of mam_minimize's start path on [0, T] at 8 nodes per unit time,
    built from the flow's frames at MAM_DT_FLOW as a rung builds it."""
    steps = int(round(8 * T))
    frames = np.asarray([z for z, _, _ in flow_states(
        d, zeta.values, MAM_DT_FLOW, int(round((T - 1.0) / MAM_DT_FLOW)))])
    Z0 = _initial_path(d, zeta, T, steps, frames=frames, dt_flow=MAM_DT_FLOW)
    return _action_core(d, Z0, T / steps, nm, need_grad=False)[0]


UNIT_AND_CRITERION_4 = pytest.mark.parametrize(
    "nm", [NoiseModel(kind="constant", g0=1.0),
           NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)], ids=["unit", "criterion4"])


@pytest.fixture(scope="module")
def g_half():
    return NoiseModel(kind="constant", g0=0.5)


@pytest.fixture(scope="module")
def g_two():
    return NoiseModel(kind="constant", g0=2.0)


class TestActionValue:
    def test_constant_equilibrium_path_is_zero(self, dom2_full, prof2_full, unit_noise):
        eq = prof2_full.shifted_values(dom2_full)
        pth = Path(np.tile(eq, (21, 1)), Boundary.ZERO_DIRICHLET, 0.05)
        res = action(pth, unit_noise, dom2_full)
        assert res.value < 1e-10
        assert np.max(res.residual_series) < 1e-4

    def test_forward_flow_path_vanishes_with_dt(self, dom2_full, unit_noise, rng):
        x = band_limited(dom2_full, rng, k_max=6, amp=0.4)
        vals = []
        for dt in (1e-2, 5e-3):
            vals.append(action(flow_path(dom2_full, x, dt, 0.5), unit_noise, dom2_full).value)
        # zero control realizes the flow; the action is quadratic in the
        # O(dt) path residual, so it decays at least first order (in fact ~dt^2)
        assert vals[0] < 1e-3
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.6)

    def test_skeleton_action_matches_control_cost(self, dom2_full, unit_noise, rng):
        x = band_limited(dom2_full, rng, k_max=4, amp=0.2)
        T = 0.5
        shape = basis_eval(dom2_full, 2).values
        errs = []
        for dt in (5e-3, 2.5e-3):
            steps = int(round(T / dt))
            tgrid = (np.arange(steps) + 0.5) * dt
            f = 0.4 * np.cos(2.0 * tgrid)[:, None] * shape[None, :]
            got = action(skeleton_solve(dom2_full, x, f, unit_noise, dt=dt), unit_noise,
                         dom2_full).value
            expect = 0.5 * np.sum(f ** 2) * dom2_full.h * dt
            errs.append(abs(got - expect) / expect)
        assert errs[0] < 0.05
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.75)

    def test_boundary_class_rejected(self, dom2_full, unit_noise):
        pth = Path(np.tile(dom2_full.psi, (3, 1)), Boundary.RAMP_DIRICHLET, 0.1)
        with pytest.raises(ConfigurationError):
            action(pth, unit_noise, dom2_full)

    def test_degenerate_path_rejected(self, dom2_full):
        with pytest.raises(ConfigurationError):
            Path(np.zeros((1, dom2_full.n)), Boundary.ZERO_DIRICHLET, 0.1)
        with pytest.raises(ConfigurationError):
            Path(np.zeros((3, dom2_full.n)), Boundary.ZERO_DIRICHLET, -0.1)


class TestZeroControlCharacterization:
    def test_flow_paths_have_small_action_and_reintegrate(self, dom2_full,
                                                          unit_noise, rng):
        x = band_limited(dom2_full, rng, k_max=5, amp=0.3)
        pth = flow_path(dom2_full, x, 5e-3, 0.5)
        assert action(pth, unit_noise, dom2_full).value < 1e-3
        re = flow_path(dom2_full, Field(pth.values[0], pth.bc), 5e-3, 0.5)
        assert np.max(np.abs(re.values - pth.values)) < 1e-10

        bumped = pth.values.copy()
        bumped[len(bumped) // 2] += 0.05 * basis_eval(dom2_full, 3).values
        pb = Path(bumped, Boundary.ZERO_DIRICHLET, pth.dt)
        assert action(pb, unit_noise, dom2_full).value > 1e-2


class TestInterpolation:
    def test_endpoints_and_constant(self, dom2_full, prof2_full, rng):
        # the start path is pinned to the equilibrium and the target, and a
        # flow that stands at the equilibrium gives a constant path
        eq = equilibrium(dom2_full, prof2_full)
        zeta = band_limited(dom2_full, rng, k_max=4, amp=0.3)
        frames = np.array([band_limited(dom2_full, rng, k_max=4, amp=0.3).values
                           for _ in range(5)])
        Z = _initial_path(dom2_full, zeta, 3.0, 24, frames=frames, dt_flow=0.5)
        assert np.array_equal(Z[0], eq.values)
        assert np.array_equal(Z[-1], zeta.values)
        const = _initial_path(dom2_full, eq, 3.0, 24, frames=np.tile(eq.values, (5, 1)),
                              dt_flow=0.5)
        assert np.max(np.abs(const - eq.values)) < 1e-15

    @pytest.mark.parametrize("T, steps, n_frames", [(3.0, 24, 41), (6.0, 48, 101),
                                                    (12.0, 96, 60), (1.5, 7, 11)])
    def test_equals_the_node_by_node_construction(self, dom2_full, prof2_full, rng,
                                                  T, steps, n_frames):
        # the array construction against one node at a time, bit for bit; the
        # (12, 60) case runs past the last frame, which then stands still
        d = dom2_full
        frames = np.array([band_limited(d, rng, k_max=6, amp=0.3).values
                           for _ in range(n_frames)])
        zeta = Field(frames[0], Boundary.ZERO_DIRICHLET)
        mshift = prof2_full.shifted_values(d)
        t_star = T - 1.0
        kept = frames[: int(round(t_star / 0.125)) + 1]
        ref = np.empty((steps + 1, d.n))
        for i, t in enumerate(np.linspace(0.0, T, steps + 1)):
            if t <= 1.0:
                ref[i] = (1.0 - t) * mshift + t * kept[-1]
            else:
                pos = np.clip((t_star - (t - 1.0)) / 0.125, 0.0, len(kept) - 1.0)
                i0 = int(np.floor(pos))
                i1 = min(i0 + 1, len(kept) - 1)
                ref[i] = (1.0 - (pos - i0)) * kept[i0] + (pos - i0) * kept[i1]
        ref[0], ref[-1] = mshift, zeta.values
        Z = _initial_path(d, zeta, T, steps, frames=frames, dt_flow=0.125)
        assert Z.tobytes() == ref.tobytes()

    def test_near_equilibrium_cost_bound(self, dom2_full, prof2_full, unit_noise):
        # relax a perturbed state, then interpolate from the equilibrium to the
        # relaxed endpoint: cost stays below the coarse (C L + 1)^2 eps bound
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.05)])
        b = gradient_flow(dom2_full, zeta, dt=5e-3, T=14.0, stop_tol=0.0).terminal()
        eps_close = np.max(np.abs(b.values - prof2_full.shifted_values(dom2_full)))
        assert eps_close <= 1e-2
        s = np.linspace(0.0, 1.0, 65)[:, None]
        vals = (1.0 - s) * prof2_full.shifted_values(dom2_full)[None, :] + s * b.values[None, :]
        pth = Path(vals, Boundary.ZERO_DIRICHLET, 1.0 / 64)
        lip_f = 11.0                                   # |1 - 3 theta^2| on [-2, 2]
        bound = (lip_f * dom2_full.L + 1.0) ** 2 * 1e-2
        assert action(pth, unit_noise, dom2_full).value <= bound


class TestReversedFlow:
    def test_equilibrium_reversal_is_constant(self, dom2_full, prof2_full, unit_noise):
        pth = reversed_flow(dom2_full, equilibrium(dom2_full, prof2_full),
                               0.5, 5e-3)
        assert action(pth, unit_noise, dom2_full).value < 1e-8

    def test_action_equals_twice_energy_drop(self, dom2_full, prof2_full, unit_noise):
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.2), (3, -0.1)])
        pth = reversed_flow(dom2_full, zeta, 4.0, 2e-3)
        estar = energy_star_values(dom2_full, pth.values, transform_values(dom2_full, pth.values))
        drop = 2.0 * (estar[-1] - estar[0])
        assert action(pth, unit_noise, dom2_full).value == pytest.approx(drop, rel=0.02)

    def test_floor_scaled_bound_large_floor(self, dom2_full, prof2_full, g_two):
        # with g == g0 >= 1 the floor-scaled action sits below twice the energy
        zeta = multi_mode_state(dom2_full, prof2_full, [(2, 0.15)])
        pth = reversed_flow(dom2_full, zeta, 4.0, 2e-3)
        val = action(pth, g_two, dom2_full).value
        estar = energy_star(dom2_full, zeta)
        assert g_two.g0 * val <= 2.0 * estar + 1e-6

    def test_floor_squared_bound_any_floor(self, dom2_full, prof2_full, g_half):
        # the sharp scaling: g0^2 * action <= 2 E* for every constant floor
        zeta = multi_mode_state(dom2_full, prof2_full, [(2, 0.15)])
        pth = reversed_flow(dom2_full, zeta, 4.0, 2e-3)
        val = action(pth, g_half, dom2_full).value
        estar = energy_star(dom2_full, zeta)
        assert g_half.g0 ** 2 * val <= 2.0 * estar * 1.02 + 1e-9


class TestSandwichFloorScaling:
    # g >= g0 gives U <= 2 E* / g0^2; the report scales the action by g0^2
    @pytest.mark.parametrize("g0", [0.5, 1.0, 2.0])
    def test_constant_floor_attains_squared_bound(self, dom2_full, prof2_full, g0):
        nm = NoiseModel(kind="constant", g0=g0)
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.25)])
        estar = energy_star(dom2_full, zeta)
        res = mam_minimize(dom2_full, zeta, nm, T=12.0, steps=48, ladder=1,
                           maxiter=300)
        sw = res.info["sandwich"]
        assert sw["upper_lhs"] == g0 ** 2 * res.value
        assert sw["upper_ok"]
        assert sw["upper_lhs"] == pytest.approx(2.0 * estar, rel=0.05)

    def test_state_dependent_intensity_stays_below_bound(self, dom2_full, prof2_full):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.5, c=0.8)
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.25)])
        estar = energy_star(dom2_full, zeta)
        res = mam_minimize(dom2_full, zeta, nm, T=12.0, steps=48, ladder=1,
                           maxiter=300)
        sw = res.info["sandwich"]
        assert sw["upper_ok"]
        assert sw["upper_lhs"] < 2.0 * estar


class TestQuasipotentialUpper:
    """The start path of every rung bounds the quasi-potential from above."""

    def test_zero_at_equilibrium(self, dom2_full, prof2_full, unit_noise):
        assert start_path_action(dom2_full, equilibrium(dom2_full, prof2_full),
                                 unit_noise, 2.0) < 1e-8

    def test_upper_bound_and_monotone_in_horizon(self, dom2_full, prof2_full, unit_noise):
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.25), (2, -0.15)])
        estar = energy_star(dom2_full, zeta)
        vals = [start_path_action(dom2_full, zeta, unit_noise, t_star + 1.0)
                for t_star in (8.0, 16.0, 32.0)]
        assert vals[1] <= 2.0 * estar * 1.05    # horizon past the relaxation time
        assert vals[1] <= vals[0] + 1e-9
        assert vals[2] <= vals[1] + 1e-9


class TestActionGradient:
    def test_matches_central_differences_20_cases(self, dom2_full, rng):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        steps, dt = 12, 0.05
        base = np.array([band_limited(dom2_full, rng, k_max=6, amp=0.3).values
                         for _ in range(steps + 1)])
        pth = Path(base, Boundary.ZERO_DIRICHLET, dt)
        grad = action_gradient(pth, nm, dom2_full)
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal((steps - 1, dom2_full.n))
            v /= np.sqrt(np.sum(v * v))
            tau = 1e-6
            up = Path(np.vstack([base[:1], base[1:-1] + tau * v, base[-1:]]),
                      Boundary.ZERO_DIRICHLET, dt)
            dn = Path(np.vstack([base[:1], base[1:-1] - tau * v, base[-1:]]),
                      Boundary.ZERO_DIRICHLET, dt)
            fd = (action(up, nm, dom2_full).value - action(dn, nm, dom2_full).value) / (2 * tau)
            an = dom2_full.h * np.sum(grad * v)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-12))
        assert worst <= 1e-4

    def test_reparameterization_second_order(self, dom2_full, prof2_full, unit_noise):
        # smooth synthetic path; doubling the step count shifts the midpoint
        # action by O(dt^2)
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.3)])
        eq = prof2_full.shifted_values(dom2_full)
        T = 2.0
        vals = {}
        for steps in (25, 50, 100):
            s = (np.linspace(0.0, 1.0, steps + 1) ** 2)[:, None]
            Z = (1 - s) * eq[None, :] + s * zeta.values[None, :]
            pth = Path(Z, Boundary.ZERO_DIRICHLET, T / steps)
            vals[steps] = action(pth, unit_noise, dom2_full).value
        d1 = abs(vals[25] - vals[100])
        d2 = abs(vals[50] - vals[100])
        assert d1 / d2 == pytest.approx(5.0, rel=0.5)   # (16-1)/(4-1) = 5 for O(dt^2)


class TestMinimization:
    def test_descent_and_gradient_equality(self, dom2_full, prof2_full, unit_noise):
        zeta = multi_mode_state(dom2_full, prof2_full,
                                [(1, 0.25), (2, -0.15), (3, 0.1)])
        estar = energy_star(dom2_full, zeta)
        res = mam_minimize(dom2_full, zeta, unit_noise, T=9.0, steps=90,
                           ladder=2, maxiter=500)
        inits = [r["init_value"] for r in res.info["ladder"]]
        assert res.value <= min(inits) + 1e-9           # descent from every rung
        assert res.value == pytest.approx(2.0 * estar, rel=0.05)
        sw = res.info["sandwich"]
        assert sw["upper_ok"] and sw["lower_ok"]

    def test_iteration_cap_is_not_convergence(self, dom2_full, prof2_full, unit_noise):
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.25)])
        res = mam_minimize(dom2_full, zeta, unit_noise, T=6.0, steps=40,
                           ladder=1, maxiter=5)
        assert res.iterations == 5
        assert res.converged is False

    def test_every_rung_converges_under_the_cap(self, dom2_full, prof2_full, unit_noise):
        # criterion 5's state 0 and horizons, at the default cap of 800
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.25)])
        res = mam_minimize(dom2_full, zeta, unit_noise, T=6.0, steps=96,
                           ladder=3)
        assert res.converged is True
        for rung in res.info["ladder"]:
            assert rung["nit"] < 800
            assert rung["message"].startswith("CONVERGENCE"), rung["message"]
        assert res.iterations == sum(r["nit"] for r in res.info["ladder"])

    def test_shared_flow_matches_per_rung_construction(self, dom2_full, prof2_full,
                                                       unit_noise):
        # one flow to 23 serves the rungs T = 6, 12, 24; each rung's start must
        # be bitwise the construction from its own flow to T - 1
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, -0.2), (2, 0.1)])
        res = mam_minimize(dom2_full, zeta, unit_noise, T=6.0, steps=96,
                           ladder=3, maxiter=1)
        longest = flow_path(dom2_full, zeta, MAM_DT_FLOW, 23.0).values
        for T_r, rung in zip((6.0, 12.0, 24.0), res.info["ladder"]):
            own = flow_path(dom2_full, zeta, MAM_DT_FLOW, T_r - 1.0).values
            assert np.array_equal(own, longest[: own.shape[0]])
            Z0 = _initial_path(dom2_full, zeta, T_r, 96, frames=own, dt_flow=MAM_DT_FLOW)
            v0, _, _ = _action_core(dom2_full, Z0, T_r / 96, unit_noise, need_grad=False)
            assert rung["T"] == T_r
            assert rung["init_value"] == v0

    def test_horizon_within_unit_time_rejected(self, dom2_full, prof2_full, unit_noise):
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.1)])
        with pytest.raises(ConfigurationError):
            mam_minimize(dom2_full, zeta, unit_noise, T=1.0, steps=10)

    @UNIT_AND_CRITERION_4
    def test_rungs_converge_within_40_iterations(self, nm, dom2_full, prof2_full):
        # criterion 5's five targets at the bench's settings; in whitened
        # space-time coordinates each rung takes 3-8 iterations
        for amps in ([(1, 0.25)], [(1, -0.2), (2, 0.1)], [(2, 0.2), (3, -0.1)],
                     [(1, 0.15), (3, 0.1), (4, -0.05)], [(1, -0.1), (2, -0.1), (5, 0.05)]):
            zeta = multi_mode_state(dom2_full, prof2_full, amps)
            res = mam_minimize(dom2_full, zeta, nm, T=6.0, steps=96, ladder=3)
            for rung in res.info["ladder"]:
                assert rung["message"].startswith("CONVERGENCE"), (amps, rung)
                assert rung["nit"] <= 40, (amps, rung)

    @UNIT_AND_CRITERION_4
    def test_truncated_grid_rungs_converge_within_15_iterations(self, nm):
        # above `modes` the drift's linear part is the reaction's 1 - 3 m^2
        # alone, which a basis of the Laplacian leaves unwhitened (17-114
        # iterations a rung); the linearization's eigenbasis takes 4-8
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        for amps in ([(1, 0.25)], [(1, -0.2), (2, 0.1)]):
            res = mam_minimize(d, multi_mode_state(d, prof, amps), nm, T=6.0, steps=96,
                               ladder=3)
            for rung in res.info["ladder"]:
                assert rung["message"].startswith("CONVERGENCE"), (amps, rung)
                assert rung["nit"] <= 15, (amps, rung)

    def test_ladder_beyond_the_flow_budget_rejected(self, dom2_full, prof2_full,
                                                    unit_noise, monkeypatch):
        # ladder 40 from T = 6 asks for 6.6e13 reversed-flow frames; it must
        # fail before the flow takes a step
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow stepped")

        monkeypatch.setattr(action_module, "flow_states", no_flow)
        zeta = multi_mode_state(dom2_full, prof2_full, [(1, 0.1)])
        for ladder in (40, 10 ** 9):
            with pytest.raises(ConfigurationError, match=f"ladder={ladder} .*frames"):
                mam_minimize(dom2_full, zeta, unit_noise, T=6.0, steps=16,
                             ladder=ladder)

    @pytest.mark.parametrize("ladder, steps_max", [(1, 11_095), (3, 10_651)])
    def test_rung_beyond_the_budget_rejected_before_the_profile(self, unit_noise, monkeypatch,
                                                               ladder, steps_max):
        # at n = 63 a run counts RUNG_PATHS path sizes for the rung and one
        # for each earlier rung; steps_max is the largest action.steps that
        # MEMORY_BYTES admits
        assert 8 * (RUNG_PATHS + ladder - 1) * (steps_max + 1) * 63 <= MEMORY_BYTES

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(action_module, "compute_profile", reached)
        monkeypatch.setattr(action_module, "flow_states", reached)
        d = build_domain(2.0, 63, 32)
        zeta = Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(Reached):
            mam_minimize(d, zeta, unit_noise, T=6.0, steps=steps_max, ladder=ladder)
        with pytest.raises(ConfigurationError,
                           match=f"action.steps={steps_max + 1}: .*MEMORY_BYTES"):
            mam_minimize(d, zeta, unit_noise, T=6.0, steps=steps_max + 1, ladder=ladder)


class TestPreconditionedCoordinates:
    """L-BFGS's coordinates Y = (D_t X V) / s round-trip to the nodes X, its
    gradient is the derivative of its objective, and they whiten the
    quadratic part of the action linearized at the equilibrium, at
    modes = n and modes < n."""

    @pytest.mark.parametrize("which", ["full", "truncated"])
    def test_quadratic_part_is_whitened(self, which, dom2_full, prof2_full, dom2, prof2, rng,
                                        monkeypatch):
        # the reaction replaced by its linear part (1 - 3 m^2) z, unit
        # intensity, pinned ends at zero: the objective is exactly
        # (dt h / 2) |y|^2, which by polarization pins the whole form
        d, prof = (dom2_full, prof2_full) if which == "full" else (dom2, prof2)
        slope = 1.0 - 3.0 * prof.m.values ** 2
        monkeypatch.setattr(action_module, "reaction_values", lambda d, vals: slope * vals)
        steps, dt = 40, 0.15
        fun, y0, _ = _rung_objective(d, NoiseModel(kind="constant", g0=1.0),
                                     np.zeros((steps + 1, d.n)), dt, 1.0)
        assert not np.any(y0)
        for _ in range(3):
            y = rng.standard_normal(y0.shape)
            assert fun(y)[0] == pytest.approx(0.5 * dt * d.h * float(y @ y), rel=1e-12)

    def test_memory_grows_with_the_path_not_steps_squared(self):
        # an (m, m) time transform at steps = 4000 would be 500 path sizes
        # (128 MB); the rung guard admits up to 21 times as many nodes at n = 8
        d = build_domain(2.0, 8, 8)
        Z0 = np.zeros((4001, d.n))
        _eigenbasis(d)
        tracemalloc.start()
        try:
            fun, y0, nodes = _rung_objective(d, NoiseModel(kind="constant", g0=1.0),
                                             Z0, 0.1, 1.0)
            fun(y0)
            nodes(y0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert RUNG_PATHS * Z0.nbytes < MEMORY_BYTES
        assert peak < 32 * Z0.nbytes

    @pytest.mark.parametrize("which", ["full", "truncated"])
    def test_round_trip_and_gradient(self, which, dom2_full, prof2_full, dom2, prof2, rng):
        d, prof = (dom2_full, prof2_full) if which == "full" else (dom2, prof2)
        assert (d.modes == d.n) is (which == "full")
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        zeta = multi_mode_state(d, prof, [(1, 0.2), (3, -0.1)])
        steps, dt = 24, 0.25
        s = np.linspace(0.0, 1.0, steps + 1)[:, None]
        Z0 = (1 - s) * prof.shifted_values(d)[None] + s * zeta.values[None]
        Z0[1:-1] += 0.05 * rng.standard_normal((steps - 1, d.n))   # every mode present
        v0, _, _ = _action_core(d, Z0, dt, nm, need_grad=False)
        fun, y0, nodes = _rung_objective(d, nm, Z0, dt, v0)

        assert np.max(np.abs(nodes(y0) - Z0[1:-1])) <= 1e-13 * np.max(np.abs(Z0))
        f0, grad0 = fun(y0)
        assert f0 == pytest.approx(1.0, rel=1e-12)
        assert grad0.shape == y0.shape

        hstep = 1e-5
        for _ in range(3):
            v = rng.standard_normal(y0.shape)
            fd = (fun(y0 + hstep * v)[0] - fun(y0 - hstep * v)[0]) / (2 * hstep)
            assert fd == pytest.approx(float(grad0 @ v), rel=1e-6)


def general_core(d, Z, dt, g, gslope):
    """The action's value, interior gradient and residual record by the general
    formula, with the intensity g and its slope g' given as arrays.  The
    Laplacian is the same dense matrix as the action's (TestDenseOperators
    ties it to the DST pair)."""
    mid = 0.5 * (Z[1:] + Z[:-1])
    diff = (Z[1:] - Z[:-1]) / dt
    lap = lambda v: v @ _dense_laplacian(d)
    q = diff - (lap(mid) + reaction_values(d, mid))
    theta = mid + d.psi
    r = q / g
    value = 0.5 * dt * d.h * float(np.sum(r * r))
    rg = r / g
    adj = lap(rg) + (1.0 - 3.0 * theta * theta) * rg
    core = -0.5 * adj - 0.5 * (r * r * gslope / g)
    grad = np.zeros_like(Z)
    grad[:-1] += dt * (core - rg / dt)
    grad[1:] += dt * (core + rg / dt)
    return value, d.h * grad[1:-1], np.sqrt(d.h * np.sum(q * q, axis=-1))


class TestActionCore:
    """`_action_core` against the general formula, bit for bit."""

    @pytest.fixture
    def paths(self, dom2_full, prof2_full, rng):
        d = dom2_full
        zeta = multi_mode_state(d, prof2_full, [(1, 0.3), (2, -0.2)])
        s = np.linspace(0.0, 1.0, 41)[:, None]
        Z = (1 - s) * prof2_full.shifted_values(d)[None] + s * zeta.values[None]
        Z[1:-1] += 0.05 * rng.standard_normal((39, d.n))
        return [Z, np.tile(prof2_full.shifted_values(d), (9, 1))]   # the second stands still

    @pytest.mark.parametrize("g0", [1.0, 0.5, 0.7])
    def test_constant_intensity_equals_general_formula(self, g0, dom2_full, paths):
        nm = NoiseModel(kind="constant", g0=g0)
        for Z in paths:
            dt = 0.05
            q_like = np.empty((Z.shape[0] - 1, dom2_full.n))
            ref = general_core(dom2_full, Z, dt, np.full_like(q_like, g0),
                               np.zeros_like(q_like))
            v, grad, resid = _action_core(dom2_full, Z, dt, nm, need_grad=True)
            assert resid is None
            assert v == ref[0] and grad.tobytes() == ref[1].tobytes()
            v, grad, resid = _action_core(dom2_full, Z, dt, nm, need_grad=False)
            assert grad is None
            assert v == ref[0] and resid.tobytes() == ref[2].tobytes()

    def test_state_dependent_intensity_equals_general_formula(self, dom2_full, paths):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        Z, dt = paths[0], 0.05
        theta = 0.5 * (Z[1:] + Z[:-1]) + dom2_full.psi
        ref = general_core(dom2_full, Z, dt, nm.g(theta), nm.g_prime(theta))
        v, grad, _ = _action_core(dom2_full, Z, dt, nm, need_grad=True)
        assert v == ref[0] and grad.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("kind", ["constant", "smooth_bounded_below"])
    def test_value_does_not_depend_on_need_grad(self, kind, dom2_full, paths):
        nm = NoiseModel(kind=kind, g0=0.6, c=0.8)
        for Z in paths:
            a = _action_core(dom2_full, Z, 0.05, nm, need_grad=True)[0]
            b = _action_core(dom2_full, Z, 0.05, nm, need_grad=False)[0]
            assert a == b

    def test_action_returns_the_residual_record(self, dom2_full, paths):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        Z = paths[0]
        res = action(Path(Z, Boundary.ZERO_DIRICHLET, 0.05), nm, dom2_full)
        ref = general_core(dom2_full, Z, 0.05, 1.0, 0.0)   # the record ignores g
        assert res.residual_series.shape == (Z.shape[0] - 1,)
        assert res.residual_series.tobytes() == ref[2].tobytes()


class TestDenseOperators:
    """The dense Laplacian of `_dense_laplacian` against the transforms it is
    built from, and the eigenbasis of `_eigenbasis` against the operator
    A = -Laplacian + diag(3 m^2 - 1) it diagonalizes, at modes = n and
    modes < n."""

    @pytest.mark.parametrize("n, modes", [(63, 63), (63, 32), (127, 64)])
    def test_match_the_transforms(self, n, modes, rng):
        d = build_domain(2.0, n, modes)
        lap = _dense_laplacian(d)
        mu, V = _eigenbasis(d)
        assert lap.shape == V.shape == (n, n) and mu.shape == (n,)
        X = rng.standard_normal((7, n))
        assert np.max(np.abs(X @ lap - laplacian_values(d, X))) <= 1e-12 * d.lambda_k[-1]
        A = -laplacian_values(d, np.eye(n)) + np.diag(3.0 * compute_profile(d).m.values ** 2 - 1.0)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
        assert np.max(np.abs(V.T @ A @ V - np.diag(mu))) <= 1e-12 * np.max(np.abs(mu))
        assert np.all(np.diff(mu) >= 0)

    def test_memoized_on_the_grid(self):
        lap = _dense_laplacian(build_domain(2.0, 63, 32))
        pair = _eigenbasis(build_domain(2.0, 63, 32))
        assert _dense_laplacian(build_domain(2.0, 63, 32)) is lap
        assert _eigenbasis(build_domain(2.0, 63, 32)) is pair
        assert _dense_laplacian(build_domain(2.0, 63, 63)) is not lap
        assert _eigenbasis(build_domain(2.0, 63, 63)) is not pair
        assert not any(a.flags.writeable for a in (lap, *pair))

    def test_build_peak_is_within_what_the_cap_counts(self):
        # the cap counts the Laplacian's build as 24 n^2 bytes (the
        # whole-identity build peaked at 32 n^2) and the eigenbasis's as
        # 48 n^2 + 128 n: the Laplacian, what tracemalloc sees of A, V and mu,
        # and LAPACK's copy of A and syevd's workspace, which it does not see
        d = build_domain(1.5, 512, 512)                 # a grid no other test builds
        compute_profile(d)
        key = (d.L, d.n, d.modes)
        tracemalloc.start()
        try:
            lap = _dense_laplacian(d)
            lap_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mu, V = _eigenbasis(d)
            eig_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            action_module._LAPLACIAN.pop(key, None)
            action_module._EIGENBASIS.pop(key, None)
        n = d.n
        assert lap_peak <= 24 * n ** 2
        lapack = 8 * (n * n + 1 + 6 * n + 2 * n * n)    # the copy of A, syevd's workspace
        assert lap.nbytes + eig_peak + lapack <= 48 * n ** 2 + 128 * n
        assert lap.tobytes() == laplacian_values(d, np.eye(n)).tobytes()

    def test_grid_beyond_the_byte_cap_rejected_before_allocating(self, monkeypatch):
        # at n = 5 000 the Laplacian's build would count 600 MB, and 3 344 is
        # the largest n that MEMORY_BYTES admits; the eigenbasis's count
        # admits n <= 2 363, and mam_minimize rejects n = 3 000 before it
        # solves the profile
        assert 24 * 3344 ** 2 <= MEMORY_BYTES < 24 * 3345 ** 2
        assert 48 * 2363 ** 2 + 128 * 2363 <= MEMORY_BYTES < 48 * 2364 ** 2 + 128 * 2364
        d = build_domain(2.0, 5000, 64)
        pth = Path(np.zeros((2, d.n)), Boundary.ZERO_DIRICHLET, 0.1)

        def no_profile(*args, **kwargs):
            raise AssertionError("the profile was solved")
        monkeypatch.setattr(action_module, "compute_profile", no_profile)
        d_mam = build_domain(2.0, 3000, 64)
        zeta = Field(np.zeros(d_mam.n), Boundary.ZERO_DIRICHLET)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="n=5000 .*MEMORY_BYTES"):
                action(pth, NoiseModel(kind="constant", g0=1.0), d)
            with pytest.raises(ConfigurationError, match="n=3000 .* eigenbasis .*MEMORY_BYTES"):
                mam_minimize(d_mam, zeta, NoiseModel(kind="constant", g0=1.0), T=6.0, steps=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestLbfgs:
    """`minimize` on the convex quadratic 1/2 x'Ax - b'x with condition
    number 1e4, whose minimizer A^{-1} b is known."""

    @pytest.fixture
    def quadratic(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        A = (q * np.logspace(0.0, 4.0, 40)) @ q.T
        b = rng.standard_normal(40)
        return (lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)), np.linalg.solve(A, b)

    def test_reaches_the_minimizer_and_converges(self, quadratic):
        fun, x_star = quadratic
        res = minimize(fun, np.zeros(40), 2000, 1e-13)
        assert res.success is True
        assert res.message == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
        assert 0 < res.nit < 2000 and res.nfev >= res.nit
        assert np.max(np.abs(res.x - x_star)) <= 1e-5 * np.max(np.abs(x_star))
        assert res.fun == pytest.approx(fun(x_star)[0], rel=1e-10)

    def test_ftol_stops_early(self, quadratic):
        fun, _ = quadratic
        loose = minimize(fun, np.zeros(40), 2000, 1e-3)
        tight = minimize(fun, np.zeros(40), 2000, 1e-13)
        assert loose.message.startswith("CONVERGENCE")
        assert loose.nit < tight.nit

    def test_iteration_cap(self, quadratic):
        fun, _ = quadratic
        res = minimize(fun, np.zeros(40), 7, 1e-13)
        assert res.nit == 7
        assert res.success is False
        assert res.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"

    def test_failed_line_search_is_abnormal(self):
        # the gradient's sign is wrong, so no step along -g lowers f
        res = minimize(lambda x: (float(x @ x), -2.0 * x), np.ones(5), 50, 1e-8)
        assert res.success is False and res.nit == 0
        assert res.message == "ABNORMAL_TERMINATION_IN_LNSRCH"

    def test_search_out_of_doublings_is_abnormal(self):
        # f falls without bound along -g: the trial step doubles 10 times, and
        # the search reports a failure rather than a step without a gradient
        res = minimize(lambda x: (float(-x.sum()), -np.ones_like(x)), np.zeros(4), 50, 1e-12)
        assert res.success is False and res.nit == 0 and res.nfev == 12
        assert res.message == "ABNORMAL_TERMINATION_IN_LNSRCH"

    def test_zero_gradient_start(self):
        res = minimize(lambda x: (float(x @ x), 2.0 * x), np.zeros(40), 10, 1e-8)
        assert res.success is True and res.nit == 0 and res.nfev == 1


def _rosenbrock(x):
    a, b = x[:-1], x[1:]
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a * a)
    return float(np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2)), g


class TestLineSearchPort:
    """`_line_search` against `scipy.optimize.line_search`, the search it
    ports: the same step, value, gradient and number of evaluations, bitwise."""

    def assert_same_as_scipy(self, fun, x, p):
        from scipy.optimize import line_search
        f0, g0 = fun(x)
        calls = []
        ours = _line_search(lambda z: calls.append(1) or fun(z), x, p, f0, g0)
        alpha, fc, _, f_new, _, g_new = line_search(
            lambda z: fun(z)[0], lambda z: fun(z)[1], x, p, gfk=g0, old_fval=f0)
        assert ours is not None and g_new is not None
        assert ours[0] == alpha and ours[1] == f_new
        assert np.array_equal(ours[2], g_new)
        assert len(calls) == fc
        return fc

    def test_quadratic(self, rng):
        A = np.diag(np.logspace(0.0, 3.0, 12))
        fun = lambda x: (float(0.5 * x @ A @ x - x.sum()), A @ x - 1.0)
        counts = set()
        for scale in (1.0, 1e-3, 10.0):
            x = rng.standard_normal(12)
            p = -fun(x)[1] * scale
            counts.add(self.assert_same_as_scipy(fun, x, p))
        assert max(counts) > 1            # a zoom or a doubling ran

    def test_rosenbrock(self, rng):
        counts = []
        for _ in range(6):
            x = 2.0 * rng.standard_normal(6)
            g = _rosenbrock(x)[1]
            for scale in (1e-1, 1e-2, 1e-3):
                counts.append(self.assert_same_as_scipy(_rosenbrock, x, -scale * g))
        assert max(counts) >= 4           # the cubic interpolant's trials too

    def test_rung_objective(self, dom2_full, prof2_full):
        d, prof = dom2_full, prof2_full
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        zeta = multi_mode_state(d, prof, [(1, 0.2), (3, -0.1)])
        steps, dt = 24, 0.25
        s = np.linspace(0.0, 1.0, steps + 1)[:, None]
        Z0 = (1 - s) * prof.shifted_values(d)[None] + s * zeta.values[None]
        v0, _, _ = _action_core(d, Z0, dt, nm, need_grad=False)
        fun, y, _ = _rung_objective(d, nm, Z0, dt, v0)
        for _ in range(3):                # three steepest-descent steps
            f, g = fun(y)
            p = -g / np.sqrt(g @ g)
            self.assert_same_as_scipy(fun, y, p)
            y = y + _line_search(fun, y, p, f, g)[0] * p
