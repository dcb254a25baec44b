"""Noiseless gradient flow and the controlled skeleton dynamics.

Both solve dz/dt = Laplacian(z) + F(z) [+ g(z+psi) f(t)] by exponential
Euler: the stiff linear part is advanced exactly through the semigroup
factor e^{-lambda_k dt} and the remaining drift enters through the
phi_1 weight (1 - e^{-lambda_k dt}) / lambda_k, mirroring the
variation-of-constants form term by term.  The cubic drift is evaluated
pointwise on the grid and projected to modes with the top third zeroed
(de-aliasing); the convergence certificate ||Laplacian(z) + F(z)||_{L^2}
uses the unfiltered projection.

`flow_states` is the one loop that takes these steps, with the one blow-up
check.  `gradient_flow` and `skeleton_solve` only record its per-step
diagnostics and the early stop; the reversed flow of `action.mam_minimize`
and the early-exit loop of `relaxation_time` read its states.  Its step
weights (`step_weights`) and blow-up cap (`BLOWUP_SUP`) are shared with the
stochastic integrator in `spde`, so a chain run at eps = 0 takes exactly the
steps of this flow.  `steps_of` turns every user-facing time into a step
count, and rejects one that is not a whole number of steps of dt.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .energy import energy_star_values, reaction_values
from .errors import ConfigurationError, InstabilityError, check_bytes
from .grid import (Boundary, Domain, Field, inverse_transform_values,
                   transform_values)
from .noise import NoiseModel
from .profile import Profile, compute_profile

# sup |z| past which the flow and the stochastic integrator stop with an
# InstabilityError; a physical state has |u| of order 1, so |z| = |u - psi|
# of order 2.
BLOWUP_SUP = 50.0


@dataclass(frozen=True)
class Path:
    """Time-discretized sequence of same-boundary fields with uniform step."""

    values: np.ndarray            # (steps+1, n)
    bc: Boundary
    t0: float
    dt: float

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ConfigurationError("a path needs at least two time slices")
        if self.dt <= 0:
            raise ConfigurationError(f"path step must be positive, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def terminal(self) -> Field:
        return Field(self.values[-1], self.bc)


@dataclass(frozen=True)
class FlowResult:
    """Integrated trajectory plus per-step diagnostics."""

    path: Path
    t: np.ndarray             # per-step times (length steps+1)
    energy_star: np.ndarray   # E*(z(t)) per step
    grad_norm: np.ndarray     # ||Laplacian z + F(z)||_{L^2} per step
    dist_sup: np.ndarray      # sup |z(t) - (m - psi)| per step
    stopped_early: bool

    def terminal(self) -> Field:
        return self.path.terminal()


def steps_of(t: float, dt: float, what: str) -> int:
    """t / dt rounded to an int when t/dt is finite and that many steps are t
    to 1e-9 relative; otherwise a ConfigurationError naming `what`."""
    t, dt = float(t), float(dt)
    r = t / dt
    if math.isfinite(r) and abs(t - round(r) * dt) <= 1e-9 * abs(t):
        return round(r)
    raise ConfigurationError(f"{what}={t!r} is not a whole number of steps of dt={dt!r}")


def step_weights(d: Domain, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential-Euler weights of one step: the semigroup factor
    e^{-lambda_k dt} and the phi_1 weight (1 - e^{-lambda_k dt}) / lambda_k,
    the latter zero on the top third of the modes (de-aliasing the drift)."""
    decay = np.exp(-d.lambda_k * dt)
    phi1 = (1.0 - decay) / d.lambda_k
    phi1[d.dealias_keep():] = 0.0
    return decay, phi1


def flow_states(d: Domain, z0: np.ndarray, dt: float, steps: int, *,
                control: np.ndarray | None = None,
                noise: NoiseModel | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (z, c, f_hat) for the states 0..steps of the flow from z0 (grid
    values of a zero-Dirichlet field): the grid values, their mode
    coefficients and the projected reaction.  With a control (shape (steps,
    n)) the drift of step s adds the projection of g(z + psi) control[s].
    A state is computed only when the next one is asked for."""
    decay, phi1 = step_weights(d, dt)
    c = transform_values(d, z0)
    z = inverse_transform_values(d, c)
    for s in range(steps + 1):
        f_hat = transform_values(d, reaction_values(d, z))
        yield z, c, f_hat
        if s == steps:
            return
        if control is not None:
            f_hat = f_hat + transform_values(d, noise.g(z + d.psi) * control[s])
        c = decay * c + phi1 * f_hat
        z = inverse_transform_values(d, c)
        if np.abs(z).max() > BLOWUP_SUP:
            raise InstabilityError(
                f"flow left the physical range (sup |z| > {BLOWUP_SUP}) at t={(s + 1) * dt!r}; "
                f"dt={dt!r} likely too large")


def _integrate(d: Domain, x: Field, dt: float, steps: int, *,
               control: np.ndarray | None, noise: NoiseModel | None,
               stop_tol: float, record_every: int,
               profile: Profile) -> FlowResult:
    if x.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("flow initial data must be zero-Dirichlet (work with z = u - psi)")
    mshift = profile.shifted_values(d)
    frames, e_series, g_series, d_series = [], [], [], []
    for s, (z, c, f_hat) in enumerate(flow_states(d, x.values, dt, steps,
                                                  control=control, noise=noise)):
        resid = -d.lambda_k * c + f_hat
        gnorm = float(np.sqrt(np.sum(resid * resid)))
        e_series.append(float(energy_star_values(d, z, profile)))
        g_series.append(gnorm)
        d_series.append(float(np.max(np.abs(z - mshift))))
        if s % record_every == 0:
            frames.append(z)
        if s < steps and gnorm < stop_tol:
            break

    if frames[-1] is not z or len(frames) == 1:
        frames.append(z)                 # the terminal slice, twice if no step was taken
    path = Path(np.asarray(frames), Boundary.ZERO_DIRICHLET, 0.0, dt * record_every)
    return FlowResult(path=path, t=dt * np.arange(len(g_series)),
                      energy_star=np.asarray(e_series),
                      grad_norm=np.asarray(g_series),
                      dist_sup=np.asarray(d_series),
                      stopped_early=len(g_series) <= steps)


def gradient_flow(d: Domain, x: Field, dt: float, T: float,
                  stop_tol: float = 1e-8, record_every: int = 1,
                  profile: Profile | None = None) -> FlowResult:
    """Relax x under dz/dt = Laplacian(z) + F(z) until T or the gradient
    norm drops below stop_tol.

    The gradient norm uses the unfiltered projection of F, while the step
    drops the top third of its modes, so the norm floors above zero.  From
    z = 0 (dt 1e-3, T 30) the floor is 3.05e-5 at (L, n, modes) =
    (2, 127, 64), 2.3e-5 at (2, 63, 63), 7.8e-6 at (1, 127, 127), 5.6e-6 at
    (2, 255, 128) and 7.3e-7 at (2, 255, 255).  A stop_tol below the floor,
    like the default 1e-8, never stops the flow.  Its series (3 floats a
    step) and frames (n floats each) are counted against the memory budget
    (`errors.check_bytes`) before the first step."""
    if dt <= 0 or T <= 0:
        raise ConfigurationError(f"need dt > 0 and T > 0, got dt={dt}, T={T}")
    steps = steps_of(T, dt, "T")
    check_bytes(f"T={T!r} at dt={dt!r}: the flow's series and frames",
                8 * (3 * (steps + 1) + d.n * (steps // record_every + 2)))
    profile = profile or compute_profile(d)
    return _integrate(d, x, dt, steps, control=None, noise=None,
                      stop_tol=stop_tol, record_every=record_every, profile=profile)


def skeleton_solve(d: Domain, x: Field, control: np.ndarray, noise: NoiseModel,
                   dt: float, record_every: int = 1,
                   profile: Profile | None = None) -> FlowResult:
    """Integrate the controlled dynamics dz/dt = Laplacian z + F(z) + g(z+psi) f(t).

    The control is an array of shape (steps, n): one grid-sampled forcing
    slice per time step of length dt.
    """
    control = np.asarray(control, dtype=float)
    if control.ndim != 2 or control.shape[1] != d.n:
        raise ConfigurationError(
            f"control must have shape (steps, {d.n}), got {control.shape}")
    if dt <= 0:
        raise ConfigurationError(f"need dt > 0, got {dt}")
    profile = profile or compute_profile(d)
    return _integrate(d, x, dt, control.shape[0], control=control, noise=noise,
                      stop_tol=0.0, record_every=record_every, profile=profile)


def relaxation_time(d: Domain, threshold: float = 1e-2, dt: float = 5e-3,
                    T_max: float = 200.0, profile: Profile | None = None) -> float:
    """Time for the flow started at z = 0 to come within `threshold` of the
    equilibrium in H^1, where it stops; used to calibrate burn-in schedules."""
    if dt <= 0 or T_max <= 0:
        raise ConfigurationError(f"need dt > 0 and T_max > 0, got dt={dt}, T_max={T_max}")
    mshift = (profile or compute_profile(d)).shifted_values(d)
    steps = steps_of(T_max, dt, "T_max")
    for s, (z, _, _) in enumerate(flow_states(d, np.zeros(d.n), dt, steps)):
        r = transform_values(d, z - mshift)
        if np.sqrt(np.sum((1.0 + d.lambda_k) * r * r)) < threshold:
            return s * dt
    raise InstabilityError(f"flow failed to relax within T={T_max} at L={d.L}")
