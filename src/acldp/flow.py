"""Noiseless gradient flow, the controlled skeleton dynamics, and the one
exponential-Euler kernel that steps them and the stochastic integrator.

Both solve dz/dt = Laplacian(z) + F(z) [+ g(z+psi) f(t)] by exponential
Euler: the stiff linear part is advanced exactly through the semigroup
factor e^{-lambda_k dt} and the remaining drift enters through the
phi_1 weight (1 - e^{-lambda_k dt}) / lambda_k, mirroring the
variation-of-constants form term by term.  The cubic drift is evaluated
pointwise on the grid and projected to modes with the top third zeroed
(de-aliasing); the convergence certificate ||Laplacian(z) + F(z)||_{L^2}
uses the unfiltered projection.

`ExpEuler` is the one kernel that takes these steps, here and in `spde`.  It
keeps the state in DST coordinates, so a step is one forward DST of the
reaction, in-place weights, and one DST back to the grid (see its
docstring).  The flow, the skeleton and `relaxation_time` step in float64;
the sampler builds the same kernel in float32 (`spde.CHAIN_DTYPE`).
`flow_states` is the one loop of the flow, with the one blow-up check: a
state with sup |z| past `BLOWUP_SUP`, or with a value that is not a number,
stops it.  Every caller reads its states: `gradient_flow` keeps their
per-step diagnostics and the last one, `skeleton_solve` keeps them all as
the controlled `Path`, and the reversed flow of `action.mam_minimize` and
the early-exit loop of `relaxation_time` read them too.  The equilibrium
they measure against is the domain's memoized profile, `compute_profile(d)`.
The blow-up cap (`BLOWUP_SUP`) is shared with `spde`, so a chain run at
eps = 0 takes the steps of this flow in float32: bitwise the kernel's loop
at that dtype, and within float32 rounding of this flow.  `steps_of` turns
every user-facing time into a step count, and rejects one that is not a
whole number of steps of dt.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .energy import energy_star_values, reaction_values
from .errors import ConfigurationError, InstabilityError, check_bytes
from .grid import Boundary, Domain, Field, dst, transform_values
from .noise import NoiseModel
from .profile import compute_profile

# sup |z| past which the flow and the stochastic integrator stop with an
# InstabilityError, as they do at a NaN; a physical state has |u| of order 1,
# so |z| = |u - psi| of order 2.
BLOWUP_SUP = 50.0
# the failure of a start state out of that range: no step, so no dt, is to blame
START_OUT_OF_RANGE = f"start state out of range (sup |z| > {BLOWUP_SUP} or NaN); no step was taken"


@dataclass(frozen=True)
class Path:
    """Time-discretized sequence of same-boundary fields with uniform step:
    slice s is the field at time s * dt."""

    values: np.ndarray            # (steps+1, n)
    bc: Boundary
    dt: float

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ConfigurationError("a path needs at least two time slices")
        if self.dt <= 0:
            raise ConfigurationError(f"path step must be positive, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1


@dataclass(frozen=True)
class FlowResult:
    """Per-step diagnostics of a flow and its last state."""

    last: np.ndarray          # grid values of the last state
    t: np.ndarray             # per-step times (length steps+1)
    energy_star: np.ndarray   # E*(z(t)) per step
    grad_norm: np.ndarray     # ||Laplacian z + F(z)||_{L^2} per step
    dist_sup: np.ndarray      # sup |z(t) - (m - psi)| per step
    stopped_early: bool

    def terminal(self) -> Field:
        return Field(self.last, Boundary.ZERO_DIRICHLET)


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


class ExpEuler:
    """The exponential-Euler step of dz = (Laplacian z + F(z) + forcing) dt
    + sqrt(eps) g(z + psi) dW, for states stacked on the leading axes.

    The state is the zero-padded raw-DST vector a = c / (2 sign sqrt L) of
    the mode coefficients c, shape (..., n), whose entries above `modes` stay
    zero: DST-I is its own inverse up to 2(n + 1), so the grid values are
    z = DST(a) (`values`) and the projection of grid values f is
    DST(f)[:modes] / (2(n + 1)) in these coordinates.  A step (`drift`, then
    `advance`) is the reaction into a reused buffer, one in-place forward DST,
    a[:modes] *= e^{-lambda dt}, a[:K] += phi_1 DST(F)[:K] / (2(n + 1)), the
    noise with its own folded weight, and `values` back to the grid; the
    transforms' scalings are folded into the weights once, here, and the
    weights are full rows of length n, zero above `modes`.  Mode
    coefficients are formed only on request (`coefficients`), in float64.

    `dtype` is that of the state, the weights, the buffers and the kernel's
    copy of psi (`psi`): float64 for the flow, float32 for the sampler.  The
    weights are formed in float64 and rounded once; the normals xi may be
    float64 and are rounded in their product with the noise weight, and the
    intensity values must come in `dtype` (`NoiseModel.g` of z + `psi`), so
    that no float64 operand promotes a step.

    The noise of a step is the Euler-Maruyama increment sqrt(dt) xi_k added
    after the exact decay: with normals xi_k of the leading `noise_modes`
    modes, mode k gains sqrt(eps) g0 sqrt(dt) xi_k under a constant
    intensity, and Proj_k[g(z + psi) sum_l e_l sqrt(dt) xi_l] under a
    state-dependent g frozen at the step's start.  Mode k's stationary
    variance is therefore eps g0^2 dt / (1 - e^{-2 lambda_k dt}), not the
    SPDE's eps g0^2 / (2 lambda_k): 5.1 times it at mode 64 for dt = 1e-3,
    L = 2.  `noise_scale` is sqrt(eps), broadcast against the stacked axes
    (one value per eps level)."""

    def __init__(self, d: Domain, dt: float, shape: tuple[int, ...] = (), *,
                 noise: NoiseModel | None = None, noise_modes: int = 0,
                 noise_scale: np.ndarray | float = 0.0, dtype: type = np.float64):
        decay, phi1 = step_weights(d, dt)
        self.d, self.noise_modes = d, noise_modes
        self.fold = fold = 0.5 / (d.n + 1)           # the projection, in state coordinates
        self.to_coefficients = 2.0 * d.inv_divisor
        self.dtype = dtype = np.dtype(dtype)
        self.psi = d.psi.astype(dtype)
        # full-length rows, zero above `modes`: the step's passes run over whole rows
        self.decay, self.drift_weight = np.zeros((2, d.n), dtype)
        self.decay[:d.modes], self.drift_weight[:d.modes] = decay, phi1 * fold
        self._reaction = np.empty(shape + (d.n,), dtype)
        self.noise_weight = self.noise_in = self._noise = None
        # an overflowing weight is inf: the first step's range check stops it
        with np.errstate(over="ignore"):
            if noise is not None and noise.is_constant:
                self.noise_weight = ((noise_scale * noise.g0 * np.sqrt(dt)) / (
                    self.to_coefficients[:noise_modes])).astype(dtype)
                self._noise = np.empty(shape + (noise_modes,), dtype)
            elif noise is not None:
                self.noise_in = (np.sqrt(dt) / self.to_coefficients[:noise_modes]).astype(dtype)
                self.noise_weight = (noise_scale * np.pad(np.full(d.modes, fold),
                                                          (0, d.n - d.modes))).astype(dtype)
                self._noise = np.zeros(shape[1:] + (d.n,), dtype)

    def state(self, z_values: np.ndarray) -> np.ndarray:
        """The state of grid values: their projection onto the modes (inf
        where it overflows `dtype`, for the caller's range check to stop)."""
        m = self.d.modes
        a = np.zeros(z_values.shape[:-1] + (self.d.n,), self.dtype)
        with np.errstate(over="ignore"):
            np.multiply(dst(z_values, type=1, axis=-1)[..., :m], self.fold, out=a[..., :m])
        return a

    @staticmethod
    def values(a: np.ndarray) -> np.ndarray:
        """Grid values of a state (a new array)."""
        return dst(a, type=1, axis=-1)

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """Mode coefficients c_k = <z, e_k> of a state (a new array)."""
        return a[..., :self.d.modes] * self.to_coefficients

    def drift(self, z: np.ndarray) -> np.ndarray:
        """Raw DST of the reaction F(z), in the kernel's buffer: valid until
        the next `drift` or `advance`.  The projection of F is its leading
        `modes` entries times `d.fwd_weight`."""
        return dst(reaction_values(self.d, z, out=self._reaction, psi=self.psi), type=1,
                   axis=-1, overwrite_x=True)

    def advance(self, a: np.ndarray, drift: np.ndarray | None = None, *,
                forcing: np.ndarray | None = None, xi: np.ndarray | None = None,
                g_values: np.ndarray | None = None) -> None:
        """One step of the state a, in place: the decay, then the drift
        (`drift` from `drift`, plus the projection of the grid values
        `forcing`; None for the linear part alone), then the noise of the
        normals xi (shape (..., noise_modes), broadcast over the leading axis
        of a) under the intensity values g_values (None for a constant g).
        `drift`, `forcing` and `g_values` are overwritten."""
        a *= self.decay
        if drift is not None:
            if forcing is not None:
                drift += dst(forcing, type=1, axis=-1, overwrite_x=True)
            drift *= self.drift_weight
            a += drift
        if xi is None:
            return
        if g_values is None:
            np.multiply(self.noise_weight, xi, out=self._noise)
            a[..., :self.noise_modes] += self._noise
            return
        np.multiply(xi, self.noise_in, out=self._noise[..., :self.noise_modes])
        self._noise[..., self.noise_modes:] = 0.0
        g_values *= dst(self._noise, type=1, axis=-1, overwrite_x=True)
        g_hat = dst(g_values, type=1, axis=-1, overwrite_x=True)
        g_hat *= self.noise_weight
        a += g_hat


def flow_states(d: Domain, z0: np.ndarray, dt: float, steps: int, *,
                control: np.ndarray | None = None,
                noise: NoiseModel | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (z, c, f_hat) for the states 0..steps of the flow from z0 (grid
    values of a zero-Dirichlet field): the grid values, their mode
    coefficients and the projected reaction.  With a control (shape (steps,
    n)) the drift of step s adds the projection of g(z + psi) control[s].
    A state is computed only when the next one is asked for; z is a new
    array each step, c and f_hat too.  A state with sup |z| past BLOWUP_SUP,
    or with a value that is not a number, is an InstabilityError before
    anything is formed from it; for the start state it says so
    (START_OUT_OF_RANGE) and blames no dt."""
    kernel = ExpEuler(d, dt)
    a = kernel.state(z0)
    for s in range(steps + 1):
        z = kernel.values(a)
        if not max(z.max(), -z.min()) <= BLOWUP_SUP:        # NaN is out of range too
            raise InstabilityError(START_OUT_OF_RANGE if s == 0 else
                                   f"flow left the physical range (sup |z| > {BLOWUP_SUP} or NaN) "
                                   f"at t={s * dt!r}; dt={dt!r} likely too large")
        r_hat = kernel.drift(z)
        yield z, kernel.coefficients(a), d.fwd_weight * r_hat[:d.modes]
        if s == steps:
            return
        forcing = None if control is None else noise.g(z + d.psi) * control[s]
        kernel.advance(a, r_hat, forcing=forcing)


def gradient_flow(d: Domain, x: Field, dt: float, T: float,
                  stop_tol: float = 1e-8) -> FlowResult:
    """Relax x under dz/dt = Laplacian(z) + F(z) until T or the gradient
    norm drops below stop_tol, keeping the per-step series and the last state.

    The gradient norm uses the unfiltered projection of F, while the step
    drops the top third of its modes, so the norm floors above zero.  From
    z = 0 (dt 1e-3, T 30) the floor is 3.05e-5 at (L, n, modes) =
    (2, 127, 64), 2.3e-5 at (2, 63, 63), 7.8e-6 at (1, 127, 127), 5.6e-6 at
    (2, 255, 128) and 7.3e-7 at (2, 255, 255).  A stop_tol below the floor,
    like the default 1e-8, never stops the flow.  Its four series (t and
    three diagnostics, a float each a step) are counted against the memory
    budget (`errors.check_bytes`) before the first step."""
    if dt <= 0 or T <= 0:
        raise ConfigurationError(f"need dt > 0 and T > 0, got dt={dt}, T={T}")
    steps = steps_of(T, dt, "T")
    check_bytes(f"T={T!r} at dt={dt!r}: the flow's series", 8 * 4 * (steps + 1))
    if x.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("flow initial data must be zero-Dirichlet (work with z = u - psi)")
    mshift = compute_profile(d).shifted_values(d)
    series = np.empty((3, steps + 1))              # E*, gradient norm, sup distance
    for s, (z, c, f_hat) in enumerate(flow_states(d, x.values, dt, steps)):
        resid = -d.lambda_k * c + f_hat
        gnorm = float(np.sqrt(np.sum(resid * resid)))
        series[:, s] = energy_star_values(d, z, c), gnorm, np.max(np.abs(z - mshift))
        if s < steps and gnorm < stop_tol:
            break
    e_series, g_series, d_series = series[:, :s + 1]
    return FlowResult(last=z, t=dt * np.arange(s + 1), energy_star=e_series,
                      grad_norm=g_series, dist_sup=d_series, stopped_early=s < steps)


def skeleton_solve(d: Domain, x: Field, control: np.ndarray, noise: NoiseModel,
                   dt: float) -> Path:
    """The path of the controlled dynamics dz/dt = Laplacian z + F(z) +
    g(z+psi) f(t) from x: every state of `flow_states` under the control,
    steps + 1 slices at dt.

    The control is an array of shape (steps, n): one grid-sampled forcing
    slice per time step of length dt.
    """
    control = np.asarray(control, dtype=float)
    if control.ndim != 2 or control.shape[1] != d.n:
        raise ConfigurationError(
            f"control must have shape (steps, {d.n}), got {control.shape}")
    if dt <= 0:
        raise ConfigurationError(f"need dt > 0, got {dt}")
    if x.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("flow initial data must be zero-Dirichlet (work with z = u - psi)")
    return Path(np.asarray([z for z, _, _ in flow_states(d, x.values, dt, control.shape[0],
                                                         control=control, noise=noise)]),
                Boundary.ZERO_DIRICHLET, dt)


def relaxation_time(d: Domain, threshold: float = 1e-2, dt: float = 5e-3,
                    T_max: float = 200.0) -> float:
    """Time for the flow started at z = 0 to come within `threshold` of the
    equilibrium in H^1, where it stops; used to calibrate burn-in schedules."""
    if dt <= 0 or T_max <= 0:
        raise ConfigurationError(f"need dt > 0 and T_max > 0, got dt={dt}, T_max={T_max}")
    c_eq = transform_values(d, compute_profile(d).shifted_values(d))
    steps = steps_of(T_max, dt, "T_max")
    for s, (_, c, _) in enumerate(flow_states(d, np.zeros(d.n), dt, steps)):
        r = c - c_eq
        if np.sqrt(np.sum((1.0 + d.lambda_k) * r * r)) < threshold:
            return s * dt
    raise InstabilityError(f"flow failed to relax within T={T_max} at L={d.L}")
