import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acldp.errors import ConfigurationError, InstabilityError
from acldp.energy import reaction_values
from acldp.flow import (ExpEuler, flow_states, gradient_flow, relaxation_time, skeleton_solve,
                        steps_of)
from acldp.grid import Boundary, Field, build_domain, inverse_transform_values, transform_values
from acldp.noise import NoiseModel
from acldp.profile import compute_profile

from .conftest import band_limited, flow_path
from .fields import basis_eval, h1_distance


def equilibrium_field(d, prof):
    return Field(prof.shifted_values(d), Boundary.ZERO_DIRICHLET)


class TestGradientFlow:
    def test_equilibrium_is_fixed_point(self, dom2, prof2):
        states = flow_path(dom2, equilibrium_field(dom2, prof2), 1e-3, 1.0).values
        drift = np.max(np.abs(states - states[0]))
        assert drift < 1e-6          # gap to the discrete equilibrium: truncation tail

    def test_convergence_from_zero(self, dom2, prof2):
        res = gradient_flow(dom2, Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET),
                            dt=1e-3, T=30.0, stop_tol=1e-10)
        assert h1_distance(dom2, res.terminal(),
                           equilibrium_field(dom2, prof2)) < 1e-3
        assert res.dist_sup[-1] < 1e-3

    def test_a_step_transforms_twice(self, dom2, prof2, dst_dtypes):
        # a state's way back to the grid and its reaction's forward DST; E*
        # reads the mode coefficients the flow already holds
        x = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        counts = []
        for T in (4e-3, 1.2e-2):
            dst_dtypes.clear()
            gradient_flow(dom2, x, dt=1e-3, T=T)
            counts.append(len(dst_dtypes))
        assert counts[1] - counts[0] == 2 * 8

    def test_flipped_start_converges_to_same_equilibrium(self, dom2, prof2):
        x = Field(-prof2.shifted_values(dom2) - 2.0 * dom2.psi, Boundary.ZERO_DIRICHLET)
        res = gradient_flow(dom2, x, dt=1e-3, T=60.0, stop_tol=1e-10)
        assert h1_distance(dom2, res.terminal(),
                           equilibrium_field(dom2, prof2)) < 1e-3
        # halved-dt oracle: same terminal state
        res2 = gradient_flow(dom2, x, dt=5e-4, T=60.0, stop_tol=1e-10)
        assert np.max(np.abs(res.terminal().values - res2.terminal().values)) < 1e-6

    def test_energy_dissipation_monotone(self, dom2, rng):
        x = band_limited(dom2, rng, k_max=8, amp=0.5)
        res = gradient_flow(dom2, x, dt=1e-3, T=3.0, stop_tol=0.0)
        increases = np.diff(res.energy_star)
        assert np.all(increases <= 1e-8)

    def test_discrete_dissipation_identity(self, dom2):
        res = gradient_flow(dom2, Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET),
                            dt=1e-3, T=1.0, stop_tol=0.0)
        de = np.diff(res.energy_star) / 1e-3
        gsq = 0.5 * (res.grad_norm[:-1] ** 2 + res.grad_norm[1:] ** 2)
        active = gsq > 1e-3 * gsq[0]
        rel = np.abs(de[active] + gsq[active]) / gsq[active]
        assert np.max(rel) <= 0.05

    def test_first_order_in_dt(self, dom2, rng):
        x = band_limited(dom2, rng, k_max=6, amp=0.5)
        outs = [gradient_flow(dom2, x, dt=dt, T=0.5, stop_tol=0.0).terminal().values
                for dt in (4e-3, 2e-3, 1e-3)]
        e1 = np.max(np.abs(outs[0] - outs[2]))
        e2 = np.max(np.abs(outs[1] - outs[2]))
        assert e1 / e2 == pytest.approx(3.0, rel=0.4)   # Richardson: (4h-h)/(2h-h) ~ 3

    def test_early_stop_at_the_first_state_below_tol(self, dom2):
        x = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        res = gradient_flow(dom2, x, dt=1e-3, T=30.0, stop_tol=1e-4)
        assert res.stopped_early
        assert res.grad_norm[-1] < 1e-4 <= res.grad_norm[-2]
        # the stop step s, found from the states' own residuals
        for s, (z, c, f_hat) in enumerate(flow_states(dom2, x.values, 1e-3, 30_000)):
            resid = -dom2.lambda_k * c + f_hat
            if np.sqrt(np.sum(resid * resid)) < 1e-4:
                break
        assert 0 < s < 30_000
        assert len(res.t) == len(res.energy_star) == len(res.dist_sup) == s + 1
        assert res.terminal().values.tobytes() == z.tobytes()

    def test_tolerance_above_the_start_stops_at_state_0(self, dom2, rng):
        x = band_limited(dom2, rng, k_max=8, amp=0.5)
        res = gradient_flow(dom2, x, dt=1e-3, T=1.0, stop_tol=1e3)
        assert res.stopped_early and len(res.grad_norm) == len(res.t) == 1
        state0 = next(flow_states(dom2, x.values, 1e-3, 1000))[0]
        assert res.terminal().values.tobytes() == state0.tobytes()

    def test_holds_the_bytes_it_counts(self):
        # T = 20, dt = 1e-3, n = 31: the four series of 20 001 floats, 640 kB
        # counted (the profile, solved once per domain, is warmed first)
        d = build_domain(2.0, 31, 31)
        steps = 20_000
        counted = 8 * 4 * (steps + 1)
        compute_profile(d)
        tracemalloc.start()
        try:
            res = gradient_flow(d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET), dt=1e-3,
                                T=20.0, stop_tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.t) == steps + 1
        assert peak <= 1.5 * counted

    def test_blowup_guard(self, dom2):
        x = Field(50.0 * basis_eval(dom2, 1).values, Boundary.ZERO_DIRICHLET)
        with pytest.raises(InstabilityError):
            gradient_flow(dom2, x, dt=1e-2, T=1.0)

    def test_bad_inputs(self, dom2, rng):
        with pytest.raises(ConfigurationError):
            gradient_flow(dom2, band_limited(dom2, rng), dt=-1e-3, T=1.0)
        with pytest.raises(ConfigurationError):
            gradient_flow(dom2, Field(dom2.psi, Boundary.RAMP_DIRICHLET), dt=1e-3, T=1.0)


class TestSkeleton:
    def test_zero_control_matches_flow_bitwise(self, dom2, rng, unit_noise):
        x = band_limited(dom2, rng, k_max=8, amp=0.3)
        steps = 200
        f0 = np.zeros((steps, dom2.n))
        skel = skeleton_solve(dom2, x, f0, unit_noise, dt=1e-3)
        assert skel.values.tobytes() == flow_path(dom2, x, 1e-3, steps * 1e-3).values.tobytes()
        flow = gradient_flow(dom2, x, dt=1e-3, T=steps * 1e-3, stop_tol=0.0)
        assert skel.values[-1].tobytes() == flow.terminal().values.tobytes()

    def test_path_is_every_controlled_state(self, dom2, rng):
        x = band_limited(dom2, rng, k_max=6, amp=0.3)
        steps = 150
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.6, c=0.8)
        f = 0.3 * np.cos(np.arange(steps) * 1e-2)[:, None] * basis_eval(dom2, 2).values
        pth = skeleton_solve(dom2, x, f, nm, dt=1e-3)
        want = [z for z, _, _ in flow_states(dom2, x.values, 1e-3, steps, control=f, noise=nm)]
        assert pth.values.shape == (steps + 1, dom2.n)
        assert pth.dt == 1e-3 and pth.bc is Boundary.ZERO_DIRICHLET
        assert pth.values.tobytes() == np.asarray(want).tobytes()

    def test_control_continuity(self, dom2, rng, unit_noise):
        x = band_limited(dom2, rng, k_max=6, amp=0.3)
        steps = 400
        shape = basis_eval(dom2, 2).values
        base = gradient_flow(dom2, x, dt=1e-3, T=0.4, stop_tol=0.0).terminal().values
        diffs = []
        for amp in (0.2, 0.1):
            f = amp * np.tile(shape, (steps, 1))
            out = skeleton_solve(dom2, x, f, unit_noise, dt=1e-3)
            diffs.append(np.max(np.abs(out.values[-1] - base)))
        # terminal deviation scales linearly with the control size
        assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.25)

    def test_a_priori_sup_bound(self, dom2, rng, unit_noise):
        x = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        steps = 1000
        for amp in (0.5, 2.0):
            f = amp * np.tile(basis_eval(dom2, 1).values, (steps, 1))
            out = skeleton_solve(dom2, x, f, unit_noise, dt=1e-3)
            f_l2 = np.sqrt(np.sum(f ** 2) * dom2.h * 1e-3)
            assert np.max(np.abs(out.values)) <= 5.0 * (f_l2 + 1.0)

    def test_control_shape_validated(self, dom2, rng, unit_noise):
        with pytest.raises(ConfigurationError):
            skeleton_solve(dom2, band_limited(dom2, rng),
                           np.zeros((10, dom2.n + 1)), unit_noise, dt=1e-3)


def shifted_plus_modes(d, prof, amps):
    vals = prof.shifted_values(d).copy()
    for k, a in amps:
        vals += a * basis_eval(d, k).values
    return vals


class TestFlowStates:
    """The flow's one loop against the diagnosed flow that reads it."""

    @staticmethod
    def assert_bitwise_gradient_flow(d, z0, dt, steps):
        states = [z for z, _, _ in flow_states(d, z0, dt, steps)]
        want = gradient_flow(d, Field(z0, Boundary.ZERO_DIRICHLET), dt=dt, T=steps * dt,
                             stop_tol=0.0)
        assert len(states) == len(want.t) == steps + 1
        assert states[-1].tobytes() == want.terminal().values.tobytes()

    def test_states_are_gradient_flow_frames(self, dom2_full, prof2_full):
        for amps in ([(1, -0.2), (2, 0.1)], [(1, 0.4), (3, -0.25), (6, 0.05)]):
            self.assert_bitwise_gradient_flow(
                dom2_full, shifted_plus_modes(dom2_full, prof2_full, amps),
                5e-3, 600)

    def test_truncated_modes(self, dom2, prof2):
        # modes < n: the start is projected onto the kept modes, as in the flow
        z0 = shifted_plus_modes(dom2, prof2, [(1, 0.3), (2, -0.15)])
        z0 += 0.01 * np.sin(np.arange(dom2.n))          # content above `modes`
        self.assert_bitwise_gradient_flow(dom2, z0, 1e-3, 300)

    def test_states_come_one_at_a_time(self, dom2):
        z0 = 50.0 * basis_eval(dom2, 1).values           # sup 35: state 0 is in range
        states = flow_states(dom2, z0, 1e-2, 100)
        assert np.max(np.abs(next(states)[0])) < 50.0
        with pytest.raises(InstabilityError, match=r"at t=0\.01; dt=0\.01 "):
            next(states)


class TestKernel:
    """The one exponential-Euler kernel against the textbook step."""

    @staticmethod
    def kernel_and_textbook(kind, dtype):
        # 1 000 steps of 4 chains from a bumped equilibrium, the same normals:
        # c <- e^{-lambda dt} c + phi_1 Proj[F(z)] + sqrt(eps dt) (g0 xi or Proj[g sum e_l xi_l]),
        # the kernel in `dtype` and the textbook step in float64
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        nm = NoiseModel(kind=kind, g0=0.5, c=1.0)
        dt, eps, nw, steps = 1e-3, 0.05, 16, 1000
        z0 = np.tile(shifted_plus_modes(d, prof, [(1, 0.3), (2, -0.1)]), (1, 4, 1))
        xis = np.random.default_rng(9).standard_normal((steps, 4, nw))
        lam = d.lambda_k
        decay = np.exp(-lam * dt)
        phi1 = (1.0 - decay) / lam
        phi1[d.dealias_keep():] = 0.0

        c = transform_values(d, z0)
        z = inverse_transform_values(d, c)
        kernel = ExpEuler(d, dt, (1, 4), noise=nm, noise_modes=nw, noise_scale=np.sqrt(eps),
                          dtype=dtype)
        a = kernel.state(z0)
        for xi in xis:
            g = None if nm.is_constant else nm.g(kernel.values(a) + kernel.psi)
            kernel.advance(a, kernel.drift(kernel.values(a)), xi=xi, g_values=g)
            c = decay * c + phi1 * transform_values(d, reaction_values(d, z))
            if nm.is_constant:
                c[..., :nw] += np.sqrt(eps) * nm.g0 * np.sqrt(dt) * xi
            else:
                w = inverse_transform_values(d, np.sqrt(dt) * xi)
                c += np.sqrt(eps) * transform_values(d, nm.g(z + d.psi) * w)
            z = inverse_transform_values(d, c)
        assert a.dtype == dtype
        return kernel.values(a), z, kernel.coefficients(a), c

    @pytest.mark.parametrize("kind", ["constant", "smooth_bounded_below"])
    def test_matches_the_textbook_step(self, kind):
        values, z, coefficients, c = self.kernel_and_textbook(kind, np.float64)
        assert np.max(np.abs(values - z)) <= 1e-13 * np.max(np.abs(z))
        assert np.max(np.abs(coefficients - c)) <= 1e-13 * np.max(np.abs(c))

    @pytest.mark.parametrize("kind", ["constant", "smooth_bounded_below"])
    def test_float32_kernel_within_rounding_of_the_textbook_step(self, kind):
        # A first-order rounding budget.  Each float32 step rounds the state
        # at most 4 times relative to its scale (the decay weight and product,
        # the drift sum, the noise sum), each by u = 2^-24 at most; the DSTs and
        # the reaction enter only through the drift, weighted by phi_1 <= dt, so
        # their roundings are O(dt u).  A carried error grows at most by
        # e^{dt} a step (the Laplacian dissipates, F' = 1 - 3u^2 <= 1), so
        # after N = 1 000 steps of dt = 1e-3 the error is at most
        # 4 N u e^{N dt} = 6.5e-4 of the scale.  (It was 7e-6 when written.)
        values, z, coefficients, c = self.kernel_and_textbook(kind, np.float32)
        bound = 4 * 1000 * 2.0 ** -24 * np.exp(1.0)
        assert np.max(np.abs(values - z)) <= bound * np.max(np.abs(z))
        assert np.max(np.abs(coefficients - c)) <= bound * np.max(np.abs(c))

    def test_step_arithmetic_only_in_the_kernel(self):
        """The step's weights are formed in flow.step_weights and used by
        flow.ExpEuler alone: no other code of the package names step_weights
        or takes exp / expm1 of an expression in lambda_k.  (The replay's
        damped recurrences in diagnostics use their own rates lambda_k + lam.)"""
        def semigroup_factor(node):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            return name in ("exp", "expm1") and any(
                isinstance(n, ast.Attribute) and n.attr == "lambda_k"
                for arg in node.args for n in ast.walk(arg))

        def names_step_weights(node):
            return ((isinstance(node, ast.Name) and node.id == "step_weights")
                    or (isinstance(node, (ast.Attribute)) and node.attr == "step_weights")
                    or (isinstance(node, ast.alias) and node.name == "step_weights"))

        offenders = []
        for src in sorted((Path(__file__).parents[1] / "src" / "acldp").glob("*.py")):
            tree = ast.parse(src.read_text())
            exempt = {id(n) for top in tree.body
                      if src.name == "flow.py" and getattr(top, "name", None) in
                      ("ExpEuler", "step_weights") for n in ast.walk(top)}
            offenders += [f"{src.name}:{node.lineno}" for node in ast.walk(tree)
                          if id(node) not in exempt
                          and (semigroup_factor(node) or names_step_weights(node))]
        assert offenders == []


def two_pass_relaxation_time(d, prof, threshold, dt, T_max):
    """The first state of the flow from z = 0 within `threshold` of the
    equilibrium in H^1, found after the whole flow is stored."""
    states = flow_path(d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET), dt, T_max).values
    mshift = prof.shifted_values(d)
    for i, z in enumerate(states):
        c = transform_values(d, z - mshift)
        if np.sqrt(np.sum((1.0 + d.lambda_k) * c * c)) < threshold:
            return i * dt
    return None


class TestRelaxation:
    def test_relaxation_time_scale(self, dom2):
        t = relaxation_time(dom2)
        assert 0.5 < t < 20.0
        assert relaxation_time(dom2) == t   # deterministic

    def test_matches_two_pass_definition(self, dom2, prof2):
        for threshold in (1e-1, 1e-2):
            want = two_pass_relaxation_time(dom2, prof2, threshold, 5e-3, 3.0)
            assert want is not None
            assert relaxation_time(dom2, threshold=threshold, dt=5e-3, T_max=3.0) == want

    def test_threshold_not_reached_raises(self, dom2, prof2):
        assert two_pass_relaxation_time(dom2, prof2, 1e-2, 5e-3, 1.0) is None
        with pytest.raises(InstabilityError, match="failed to relax"):
            relaxation_time(dom2, dt=5e-3, T_max=1.0)

    def test_step_and_horizon_validated(self, dom2):
        for dt, T_max in ((0.0, 3.0), (5e-3, 0.0)):
            with pytest.raises(ConfigurationError):
                relaxation_time(dom2, dt=dt, T_max=T_max)


class TestStepsOf:
    @given(k=st.integers(0, 10 ** 7), dt=st.floats(1e-4, 1e-1))
    def test_whole_steps_counted_half_steps_rejected(self, k, dt):
        assert steps_of(k * dt, dt, "T") == k
        with pytest.raises(ConfigurationError, match="^burn_in=.* is not a whole number"):
            steps_of((k + 0.5) * dt, dt, "burn_in")

    @pytest.mark.parametrize("t, dt", [(1e300, 1e-10), (float("inf"), 1e-3),
                                       (float("nan"), 1e-3), (1e-300, 1e30)])
    def test_ratio_without_a_step_count_rejected(self, t, dt):
        # overflow, inf, nan, and a ratio that underflows to 0 though t > 0
        with pytest.raises(ConfigurationError, match=rf"stride=.* of dt={re.escape(repr(dt))}$"):
            steps_of(t, dt, "stride")

    def test_flow_horizon_off_the_step_grid_raises(self, dom2):
        x = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        with pytest.raises(ConfigurationError,
                           match=r"T=0\.0105 is not a whole number of steps of dt=0\.001"):
            gradient_flow(dom2, x, dt=1e-3, T=0.0105)

    def test_no_other_rounding_of_a_time_by_dt(self):
        """Every time-to-step conversion in the package goes through steps_of:
        no other round(...) call divides by dt, .dt or ["dt"]."""
        def by_dt(node):
            return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and (
                (isinstance(node.right, ast.Name) and node.right.id == "dt")
                or (isinstance(node.right, ast.Attribute) and node.right.attr == "dt")
                or (isinstance(node.right, ast.Subscript)
                    and isinstance(node.right.slice, ast.Constant)
                    and node.right.slice.value == "dt")))

        offenders = []
        for src in sorted((Path(__file__).parents[1] / "src" / "acldp").glob("*.py")):
            tree = ast.parse(src.read_text())
            exempt = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      and src.name == "flow.py" and fn.name == "steps_of"
                      for n in ast.walk(fn)}
            offenders += [f"{src.name}:{call.lineno}" for call in ast.walk(tree)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == "round" and id(call) not in exempt
                          and any(by_dt(n) for a in call.args for n in ast.walk(a))]
        assert offenders == []
