"""Action functional on paths, explicit near-optimal path constructions,
and quasi-potential estimation by path-space minimization.

The action of a path z on [0, T] divides the dynamical residual by the
noise intensity:

    I(z) = 1/2 int_0^T || (dz/dt - Laplacian z - F(z)) / g(t, z + psi) ||_{L^2}^2 dt.

Discretization is midpoint-in-time: on each interval the time derivative is
the difference quotient (the central difference at the interval midpoint),
the Laplacian, drift, and intensity are evaluated at the state average, and
the time integral is the midpoint rule.  The scheme is second order on
smooth paths and admits an exact adjoint gradient with respect to interior
nodes, which the minimizer uses.

The quasi-potential upper-bound construction concatenates a unit-time
linear interpolation from the equilibrium to a relaxed state with the
time-reversed noiseless flow; for gradient dynamics with unit intensity its
action approaches twice the shifted energy of the target.  An intensity
bounded below, g >= g0, divides the residual by at least g0, so the action
is at most 1/g0^2 times its unit-intensity value and the quasi-potential
obeys U <= 2 E* / g0^2, with equality under constant intensity g = g0.

The quasi-potential minimizer `mam_minimize` starts each rung from that
construction, with the reversed flow stepped at MAM_DT_FLOW = 5e-2, and
descends with the module's own L-BFGS (`minimize`: two-loop recursion,
strong Wolfe line search, L-BFGS-B's ftol stop).  Per evaluation the
action's Laplacian and the coordinate map are dense (n, n) products, which
are faster than the DST pair from n = 63 (18 vs 137 us) to n = 511
(1.1 vs 1.6 ms).  The rungs are independent once their start paths are
built, so they run at the same time on the package's fork pool
(`pool.fork_map`, `workers` processes at most); a rung's arithmetic does
not depend on the process that runs it, so neither does any result.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, line_search

from .energy import energy_star, reaction_values
from .errors import ConfigurationError
from .flow import Path, flow_states, gradient_flow
from .grid import (Boundary, Domain, Field, dst, inverse_transform_values,
                   transform_values)
from .noise import NoiseModel
from .pool import fork_map
from .profile import Profile, compute_profile

# L-BFGS's ftol for mam_minimize: the objective is the action divided by
# the rung's starting action, so a rung stops once an iteration lowers the
# action by less than this fraction of where it started.
MAM_FTOL = 1e-8
# Step of mam_minimize's reversed flow.  Its frames are only interpolated
# onto a path grid with steps of 0.0625-0.25, and at 5e-2 the minimized
# actions of criterion 5's targets move by at most 4e-7 relative against
# 5e-3, at a tenth of the steps.
MAM_DT_FLOW = 5e-2
# Bytes the reversed flow's frames may take: 2**28 (256 MiB), 532 610 frames
# at n = 63.  A ladder whose longest horizon needs more frames is rejected
# before the flow steps (`--T-ladder 40` would ask for 6.6e13).
MAM_FLOW_BYTES = 2 ** 28
# L-BFGS memory: the number of (s, y) pairs the two-loop recursion keeps.
LBFGS_PAIRS = 10


@dataclass
class ActionResult:
    """Action value with the per-interval residual record and the path."""

    value: float
    residual_series: np.ndarray    # || dz/dt - Laplacian z - F(z) ||_{L^2} per interval
    path: Path
    iterations: int = 0
    converged: bool = True
    info: dict = field(default_factory=dict)


def _lap_values(d: Domain, vals: np.ndarray) -> np.ndarray:
    return inverse_transform_values(d, -d.lambda_k * transform_values(d, vals))


def _dst_ortho(a: np.ndarray) -> np.ndarray:
    """Orthonormal type-I DST over the grid axis; it is its own inverse."""
    return dst(a, type=1, norm="ortho", axis=-1)


_DENSE: dict[tuple[float, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _dense_operators(d: Domain) -> tuple[np.ndarray, np.ndarray]:
    """The spectral Laplacian and the orthonormal DST-I as (n, n) matrices
    acting on rows: `vals @ lap` is `_lap_values(d, vals)` and `vals @ ortho`
    is `_dst_ortho(vals)` up to rounding.  Built on first use from the
    transforms applied to the identity and kept, read-only, per
    (L, n, modes).

    The action applies two Laplacians and the MAM objective two maps per
    evaluation.  One dense product beats the DST pair at every size measured:
    18 vs 137 us for a (95, 63) block, 276 vs 734 us at (119, 255) and
    1 104 vs 1 649 us at (119, 511).
    """
    key = (d.L, d.n, d.modes)
    ops = _DENSE.get(key)
    if ops is None:
        eye = np.eye(d.n)
        ops = _DENSE[key] = (_lap_values(d, eye), _dst_ortho(eye))
        for a in ops:
            a.setflags(write=False)
    return ops


def _action_core(d: Domain, Z: np.ndarray, dt: float, t0: float, nm: NoiseModel,
                 need_grad: bool):
    """Value, and either the interior-node euclidean gradient (need_grad) or
    the residual record.  Under constant intensity g is the scalar g0 and the
    g' term is skipped; for finite values both are bitwise what the general
    formula gives with g = g0 everywhere and g' = 0.  The Laplacian is one
    product with the dense operator of `_dense_operators`."""
    lap = _dense_operators(d)[0]
    mid = 0.5 * (Z[1:] + Z[:-1])
    diff = (Z[1:] - Z[:-1]) / dt
    drift = mid @ lap + reaction_values(d, mid)
    q = diff - drift
    t_mid = t0 + dt * (np.arange(q.shape[0]) + 0.5)[:, None]
    theta = mid + d.psi
    g = nm.g0 if nm.is_constant else nm.g(t_mid, theta)
    r = q / g
    value = 0.5 * dt * d.h * float(np.sum(r * r))
    if not need_grad:
        return value, None, np.sqrt(d.h * np.sum(q * q, axis=-1))

    rg = r / g
    fprime = 1.0 - 3.0 * theta * theta
    adj = rg @ lap + fprime * rg                  # A'(mid)^T (r / g), self-adjoint
    core = -0.5 * adj
    if not nm.is_constant:                        # the g' term, zero under constant g
        core -= 0.5 * (r * r * nm.g_prime(t_mid, theta) / g)
    grad = np.zeros_like(Z)
    grad[:-1] += dt * (core - rg / dt)
    grad[1:] += dt * (core + rg / dt)
    return value, d.h * grad[1:-1], None


def action(pth: Path, nm: NoiseModel, d: Domain) -> ActionResult:
    """Evaluate the discrete action of a zero-Dirichlet path."""
    if pth.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("action expects a zero-Dirichlet path")
    if pth.values.shape[1] != d.n:
        raise ConfigurationError(
            f"path sampled on {pth.values.shape[1]} points, domain has {d.n}")
    value, _, resid = _action_core(d, pth.values, pth.dt, pth.t0, nm, need_grad=False)
    return ActionResult(value=value, residual_series=resid, path=pth)


def action_gradient(pth: Path, nm: NoiseModel, d: Domain) -> np.ndarray:
    """L^2 gradient of the action at interior path nodes, shape (steps-1, n).

    Directional derivatives satisfy dI[v] = h * sum_j G v for interior-node
    perturbations v; this is the object finite differences are checked
    against.
    """
    _, grad_eucl, _ = _action_core(d, pth.values, pth.dt, pth.t0, nm, need_grad=True)
    return grad_eucl / d.h


def interpolation_path(a: Field, b: Field, steps: int) -> Path:
    """Linear-in-time path from a to b over unit time."""
    if a.bc is not b.bc:
        raise ConfigurationError("interpolation endpoints need matching boundary classes")
    if steps < 1:
        raise ConfigurationError(f"need at least one step, got {steps}")
    s = np.linspace(0.0, 1.0, steps + 1)[:, None]
    vals = (1.0 - s) * a.values[None, :] + s * b.values[None, :]
    return Path(vals, a.bc, 0.0, 1.0 / steps)


def reversed_flow_path(d: Domain, zeta: Field, t_star: float, dt: float, *,
                       flow_result=None, profile: Profile | None = None) -> Path:
    """Time-reverse the noiseless flow from zeta over [0, t*] (no re-integration).

    Warns when t* leaves the flow visibly unrelaxed, since the reversed path
    then ends away from the equilibrium.
    """
    profile = profile or compute_profile(d)
    if flow_result is None:
        flow_result = gradient_flow(d, zeta, dt=dt, T=t_star, stop_tol=0.0,
                                    record_every=1, profile=profile)
    if flow_result.grad_norm[-1] > 1e-2:
        warnings.warn(
            f"reversed flow: horizon t*={t_star} is short of relaxation "
            f"(terminal gradient norm {flow_result.grad_norm[-1]:.3g})", stacklevel=2)
    return Path(flow_result.path.values[::-1].copy(), Boundary.ZERO_DIRICHLET,
                0.0, flow_result.path.dt)


def quasipotential_upper(d: Domain, zeta: Field, nm: NoiseModel, t_star: float, *,
                         dt_flow: float = 5e-3, interp_steps: int = 64,
                         profile: Profile | None = None) -> ActionResult:
    """Upper bound on the quasi-potential of zeta from the two-segment path:
    unit-time interpolation (equilibrium -> relaxed state) followed by the
    reversed flow back to zeta.  The segments have different steps, so they
    come back apart in info["segments"]; `path` is the reversed flow."""
    profile = profile or compute_profile(d)
    mshift = Field(profile.shifted_values(d), Boundary.ZERO_DIRICHLET)
    flow_res = gradient_flow(d, zeta, dt=dt_flow, T=t_star, stop_tol=0.0,
                             record_every=1, profile=profile)
    seg1 = interpolation_path(mshift, flow_res.terminal(), interp_steps)
    seg2 = reversed_flow_path(d, zeta, t_star, dt_flow, flow_result=flow_res,
                              profile=profile)
    a1 = action(seg1, nm, d)
    a2 = action(seg2, nm, d)
    return ActionResult(value=a1.value + a2.value,
                        residual_series=np.concatenate([a1.residual_series,
                                                        a2.residual_series]),
                        path=seg2,
                        info=dict(interpolation=a1.value, reversed_flow=a2.value,
                                  t_star=t_star, segments=(seg1, seg2)))


def _initial_path(d: Domain, zeta: Field, T: float, steps: int, *,
                  frames: np.ndarray, dt_flow: float, profile: Profile) -> np.ndarray:
    """Two-segment construction resampled onto the uniform (T, steps) grid:
    interpolation on [0, 1], reversed flow on [1, T] in its native time.

    `frames` is the noiseless flow from zeta with step dt_flow over at least
    T - 1; its first round((T - 1)/dt_flow) + 1 frames are the flow to T - 1.
    """
    t_star = T - 1.0
    frames = frames[: int(round(t_star / dt_flow)) + 1]   # flow time 0 .. t_star
    mshift = profile.shifted_values(d)
    endpoint = frames[-1]
    n_frames = frames.shape[0]

    Z = np.empty((steps + 1, d.n))
    for i, t in enumerate(np.linspace(0.0, T, steps + 1)):
        if t <= 1.0:
            Z[i] = (1.0 - t) * mshift + t * endpoint
        else:
            tau = t_star - (t - 1.0)          # reversed: walk flow time backwards
            pos = np.clip(tau / dt_flow, 0.0, n_frames - 1.0)
            i0 = int(np.floor(pos))
            i1 = min(i0 + 1, n_frames - 1)
            frac = pos - i0
            Z[i] = (1.0 - frac) * frames[i0] + frac * frames[i1]
    Z[0] = mshift
    Z[-1] = zeta.values
    return Z


def _rung_objective(d: Domain, nm: NoiseModel, Z0: np.ndarray, dt: float,
                    scale: float):
    """The action over the interior nodes X of Z0 (endpoints pinned) as
    L-BFGS sees it: in the coordinates Y = DST(X) / s and divided by `scale`
    (see `mam_minimize`).  The DST is one product with the dense orthonormal
    matrix of `_dense_operators`.  Returns fun(y) -> (value, gradient), the
    start y0 and nodes(y) -> X."""
    ortho = _dense_operators(d)[1]
    lam = np.zeros(d.n)
    lam[: d.modes] = d.lambda_k               # no Laplacian above `modes`
    s = 1.0 / np.sqrt(1.0 / dt ** 2 + lam ** 2)
    Z = Z0.copy()

    def nodes(y):
        return (s * y.reshape(Z.shape[0] - 2, d.n)) @ ortho

    def fun(y):
        Z[1:-1] = nodes(y)
        val, grad, _ = _action_core(d, Z, dt, 0.0, nm, need_grad=True)
        return val / scale, (s * (grad @ ortho)).ravel() / scale

    return fun, ((Z0[1:-1] @ ortho) / s).ravel(), nodes


def minimize(fun, x0: np.ndarray, maxiter: int, ftol: float) -> OptimizeResult:
    """Unconstrained L-BFGS (Liu & Nocedal 1989) for fun(x) -> (f, gradient).

    The direction comes from the two-loop recursion over the last
    LBFGS_PAIRS pairs (s, y), with H0 = (s'y / y'y) I from the newest pair; a
    pair with s'y <= 0 is not kept.  The first step, and the step after a
    failed line search, goes along -g / |g|.  Steps satisfy the strong Wolfe
    conditions (`scipy.optimize.line_search`), and a one-entry memo makes
    each point it visits one call of fun.  The stops and messages are
    L-BFGS-B's: the iteration cap, then (f_k - f_{k+1}) <= ftol max(|f_k|,
    |f_{k+1}|, 1); a zero gradient is convergence too, and a line search that
    fails from the steepest-descent direction ends the run.
    """
    memo = dict(x=None, nfev=0)

    def evaluate(x):
        if memo["x"] is None or not np.array_equal(x, memo["x"]):
            memo["f"], memo["g"] = fun(x)
            memo["x"] = x.copy()
            memo["nfev"] += 1
        return memo["f"], memo["g"]

    def result(message, success):
        return OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=memo["nfev"],
                              success=success, message=message)

    x = np.asarray(x0, dtype=float).copy()
    f, g = evaluate(x)
    pairs: deque = deque(maxlen=LBFGS_PAIRS)
    gamma, nit = 1.0, 0
    while True:
        if not np.any(g):
            return result("CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", True)
        if pairs:
            p, alphas = g.copy(), []
            for s_i, y_i, rho in reversed(pairs):
                a = rho * (s_i @ p)
                p -= a * y_i
                alphas.append(a)
            p *= gamma
            for (s_i, y_i, rho), a in zip(pairs, reversed(alphas)):
                p += (a - rho * (y_i @ p)) * s_i
            p = -p
        else:
            p = -g / np.sqrt(g @ g)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "The line search algorithm",
                                    RuntimeWarning)
            alpha, _, _, f_new, _, g_new = line_search(
                lambda z: evaluate(z)[0], lambda z: evaluate(z)[1], x, p,
                gfk=g, old_fval=f)
        if alpha is None:
            if not pairs:
                return result("ABNORMAL_TERMINATION_IN_LNSRCH", False)
            pairs.clear()
            continue
        step = alpha * p
        x_new = x + step
        dg = g_new - g
        sy = step @ dg
        if sy > 0:
            pairs.append((step, dg, 1.0 / sy))
            gamma = sy / (dg @ dg)
        f_old = f
        x, f, g = x_new, f_new, g_new
        nit += 1
        if nit >= maxiter:
            return result("STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", False)
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return result("CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", True)


def _descend(d: Domain, nm: NoiseModel, maxiter: int,
             start: tuple[np.ndarray, float]) -> dict:
    """One rung: L-BFGS from the path Z0 on [0, T], start = (Z0, T); the
    lowest action seen."""
    Z0, T = start
    dt = T / (Z0.shape[0] - 1)
    v_init, _, _ = _action_core(d, Z0, dt, 0.0, nm, need_grad=False)
    scale = v_init if v_init > 0 else 1.0
    fun, y0, nodes = _rung_objective(d, nm, Z0, dt, scale)
    best = dict(f=v_init / scale, y=None)

    def tracked(y):
        f, g = fun(y)
        if f < best["f"]:
            best.update(f=f, y=y.copy())
        return f, g

    res = minimize(tracked, y0, maxiter, MAM_FTOL)
    x = Z0[1:-1] if best["y"] is None else nodes(best["y"])
    Z = np.vstack([Z0[:1], x, Z0[-1:]])
    value, _, _ = _action_core(d, Z, dt, 0.0, nm, need_grad=False)
    return dict(T=T, dt=dt, value=value, x=x, init_value=v_init,
                success=bool(res.success), nit=int(res.nit), nfev=int(res.nfev),
                message=str(res.message))


def mam_minimize(d: Domain, zeta: Field, nm: NoiseModel, T: float, steps: int, *,
                 init: Path | None = None, ladder: int = 1, maxiter: int = 800,
                 profile: Profile | None = None, workers: int | str = 1) -> ActionResult:
    """Minimize the discrete action over paths from the equilibrium to zeta.

    Endpoints stay pinned; interior nodes descend under L-BFGS (`minimize`)
    with the analytic adjoint gradient.  The horizon anneals over the
    geometric ladder T, 2T, ..., 2^{ladder-1} T (each rung re-initialized
    from the two-segment construction, all rungs reading one reversed flow)
    and the best value is reported.  The result never exceeds the starting
    action of any rung.  The reversed flow steps through `flow.flow_states`,
    the flow's one loop, at MAM_DT_FLOW = 5e-2, and keeps its states only:
    the construction reads no per-step diagnostic.

    In node coordinates the action's Hessian in spatial mode k behaves like
    dt (-D_t^2/dt^2 + lambda_k^2), which spans many decades, so L-BFGS runs
    in the coordinates Y = DST(X) / s: X holds the interior nodes, DST is the
    orthonormal type-I DST over the n grid points, and
    s_k = (1/dt^2 + lambda_k^2)^{-1/2}, with lambda_k = 0 above `modes`.
    The map is exactly invertible; the gradient is s * DST(grad_X).  The
    DST and the action's Laplacian are products with dense (n, n) matrices
    (`_dense_operators`), which beat the transform pair at n = 63 to 511.
    The objective is the action divided by the rung's starting action, so
    the `ftol` stop (MAM_FTOL) ends a rung once an iteration lowers the
    action by less than that fraction of its starting value, whatever the
    size of E*; there is no gradient-norm stop, and `maxiter` stays as the
    cap.  A rung counts as converged when `minimize` reports convergence,
    not the cap or a failed line search; `converged` is true when the best
    rung converged and the ladder saturated.  `info["ladder"]` records each
    rung's T, value, init_value, and the optimizer's nit, nfev and stop
    message.

    The rungs run on `pool.pool_size(workers, rungs)` forked processes
    (`workers` as in the config: an int or 'auto'), or serially when that is
    1.  The reversed flow, every start path and the dense operators are built
    first, so the children inherit them; results come back in rung order and
    are bitwise those of a serial run.  A ladder whose reversed flow would
    exceed MAM_FLOW_BYTES is a ConfigurationError before anything steps.
    """
    if zeta.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("target state must be zero-Dirichlet")
    if ladder < 1:
        raise ConfigurationError(f"ladder must have at least one rung, got {ladder}")
    n_built = ladder if init is None else ladder - 1   # rungs started from the construction
    if n_built:
        if T * 2 ** (ladder - n_built) <= 1.0:
            raise ConfigurationError(
                "minimization horizon must exceed the unit interpolation time, "
                f"got T={T * 2 ** (ladder - n_built)}")
        frames_max = MAM_FLOW_BYTES // (8 * d.n)
        if ladder - 1 > math.log2((1.0 + MAM_DT_FLOW * (frames_max - 1)) / T):
            raise ConfigurationError(
                f"ladder={ladder} from T={T} needs the reversed flow to T*2^{ladder - 1}, "
                f"more than the {frames_max} frames of n={d.n} points that fit in "
                f"MAM_FLOW_BYTES={MAM_FLOW_BYTES}")
    profile = profile or compute_profile(d)
    mshift = profile.shifted_values(d)

    starts = []
    if init is not None:
        if init.values.shape != (steps + 1, d.n):
            raise ConfigurationError(
                f"init path shape {init.values.shape} does not match steps={steps}, n={d.n}")
        if (np.max(np.abs(init.values[0] - mshift)) > 1e-6
                or np.max(np.abs(init.values[-1] - zeta.values)) > 1e-6):
            raise ConfigurationError("init path endpoints must be the equilibrium and zeta")
        starts.append((init.values, init.dt * steps))
    if n_built:
        built = [T * 2 ** r for r in range(ladder - n_built, ladder)]
        frames = np.asarray([z for z, _, _ in flow_states(
            d, zeta.values, MAM_DT_FLOW, int(round((built[-1] - 1.0) / MAM_DT_FLOW)))])
        starts += [(_initial_path(d, zeta, T_r, steps, frames=frames, dt_flow=MAM_DT_FLOW,
                                  profile=profile), T_r) for T_r in built]
    _dense_operators(d)     # built here, so that forked rung processes inherit them
    rungs = fork_map(functools.partial(_descend, d, nm, maxiter), starts, workers)

    best_rung = min(rungs, key=lambda q: q["value"])
    Zb = np.vstack([mshift[None], best_rung["x"], zeta.values[None]])
    value, _, resid = _action_core(d, Zb, best_rung["dt"], 0.0, nm, need_grad=False)
    path = Path(Zb, Boundary.ZERO_DIRICHLET, 0.0, best_rung["dt"])

    saturated = True
    if len(rungs) >= 2:
        v_sorted = sorted(q["value"] for q in rungs)
        saturated = abs(v_sorted[0] - v_sorted[1]) <= 0.02 * max(v_sorted[0], 1e-12)

    estar = energy_star(d, zeta, profile)
    sup_path = float(np.max(np.abs(Zb)))
    growth = nm.linear_growth_constant()
    c_tilde = 6.0 * growth ** 2
    lower_c = 0.5 * c_tilde * (sup_path ** 2 + 1.0)
    sandwich = dict(
        energy_star=estar,
        upper_lhs=nm.g0 ** 2 * value, upper_rhs=2.0 * estar,
        upper_ok=bool(nm.g0 ** 2 * value <= 2.0 * estar * 1.05 + 1e-12),
        lower_c=lower_c,
        lower_ok=bool(estar <= lower_c * value * 1.05 + 1e-12),
        sup_path=sup_path,
    )
    return ActionResult(value=value, residual_series=resid, path=path,
                        iterations=sum(q["nit"] for q in rungs),
                        converged=best_rung["success"] and saturated,
                        info=dict(ladder=[{k: q[k] for k in ("T", "value", "init_value",
                                                             "nit", "nfev", "message")}
                                          for q in rungs],
                                  ladder_saturated=saturated, sandwich=sandwich))
