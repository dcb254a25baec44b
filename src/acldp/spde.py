"""Stochastic integrator for the shifted double-well dynamics, stochastic
convolution diagnostics, and invariant-measure sampling.

Time stepping is exponential Euler-Maruyama: mode coefficients are advanced
by the exact semigroup factor e^{-lambda_k dt}, the cubic drift enters
explicitly through the de-aliased phi_1 weight, and the noise increment per
step is

    sqrt(eps) * g(t, xi, z + psi) * sum_{k <= N_W} e_k(xi) sqrt(dt) xi_k

with independent standard normals xi_k, assembled in physical space from
the N_W leading coefficients and projected back to modes.  When the
intensity is constant the projection of g0 * sum e_k xi_k is g0 * xi_k
exactly (orthonormality), so the increment is added directly in mode space.
The drift weights (`flow.step_weights`) and the blow-up cap
(`flow.BLOWUP_SUP`) are the gradient flow's, so at eps = 0 a chain is
bitwise the flow.

`_evolve_chains` is the one stepping loop behind `sde_run`, `ensemble_run`
and `sample_invariant`.  It keeps observables at the sample steps and mode
coefficients at the checkpoints, nothing else: `sde_run` rebuilds a kept
path from per-step checkpoints and redraws the kept noise from the chain's
own streams.

The increment sqrt(dt) xi_k follows the exact decay, so under constant g0 mode
k's stationary variance is eps g0^2 dt / (1 - e^{-2 lambda_k dt}), not the SPDE's
eps g0^2 / (2 lambda_k): 5.1 times it at mode 64 for dt = 1e-3, L = 2.

Randomness comes from counter-based streams: one Philox generator per
(master seed, chain id, mode id), so trajectories are bitwise reproducible.
Ensembles run in fixed 32-chain chunks, serially or on the package's pool
of forked processes (`pool.fork_map`, at most one per core), and are merged
in chain order, so no result depends on the worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .energy import energy_star_values, reaction_values
from .errors import ConfigurationError, InstabilityError
from .flow import BLOWUP_SUP, Path, relaxation_time, step_weights
from .grid import (Boundary, Domain, Field, inverse_transform_values,
                   sobolev_norm_values, transform_values)
from .noise import NoiseModel
from .pool import fork_map
from .profile import Profile, compute_profile

_NOISE_BLOCK = 512          # steps of normals drawn per stream at a time
_CHAIN_CHUNK = 32           # chains per vectorized batch (fixed: worker-count independent)


@dataclass(frozen=True)
class SdeParams:
    """Noise strength, step size, truncation, damping, and master seed."""

    eps: float
    dt: float
    modes_noise: int = 0     # 0 means modes // 2, resolved against the domain
    lam: float = 0.0         # damping for convolution diagnostics
    seed: int = 0

    def __post_init__(self):
        if not self.eps >= 0:
            raise ConfigurationError(f"noise strength eps must be nonnegative, got {self.eps}")
        if not self.dt > 0:
            raise ConfigurationError(f"time step must be positive, got {self.dt}")
        if self.modes_noise < 0:
            raise ConfigurationError(f"modes_noise must be nonnegative, got {self.modes_noise}")
        if self.lam < 0:
            raise ConfigurationError(f"damping lam must be nonnegative, got {self.lam}")

    def resolve_noise_modes(self, d: Domain) -> int:
        nw = self.modes_noise if self.modes_noise > 0 else d.modes // 2
        if nw > d.modes:
            raise ConfigurationError(
                f"noise truncation {nw} exceeds the spectral truncation {d.modes}")
        return nw


@dataclass
class Trajectory:
    """One chain's observables, and optionally its full path and noise."""

    chain: int
    params: SdeParams
    kstar: float
    pstar: int
    t: np.ndarray
    sup_norm: np.ndarray
    dist_sup: np.ndarray
    energy_star: np.ndarray
    sobolev_norm: np.ndarray
    g_min: float
    final: Field
    noise_seeds: dict
    path: Path | None = None
    noise_increments: np.ndarray | None = None   # (steps, N_W) unscaled normals
    noise_model: NoiseModel | None = None


@dataclass
class EmpiricalMeasure:
    """Post burn-in observable records pooled over an ensemble of chains."""

    eps: float
    n_traj: int
    burn_in: float
    sample_stride: float
    per_chain: int
    seed: int
    kstar: float
    pstar: int
    g_min: float
    undersampled: bool
    warnings: list[str]
    samples: dict[str, np.ndarray]   # chain, t, sup_norm, dist_sup, energy_star, sobolev_norm

    @property
    def n_samples(self) -> int:
        return len(self.samples["t"])


def _stream_key(seed: int, chain: int, mode: int) -> np.ndarray:
    return np.array([seed % 2 ** 64, ((chain % 2 ** 32) << 32) | (mode % 2 ** 32)],
                    dtype=np.uint64)


def _make_streams(seed: int, chain_ids: np.ndarray, n_modes: int) -> list[list[np.random.Generator]]:
    return [[np.random.Generator(np.random.Philox(key=_stream_key(seed, int(c), k)))
             for k in range(n_modes)] for c in chain_ids]


def _draw_block(gens, n_steps: int) -> np.ndarray:
    """Normals of shape (chains, n_steps, n_modes), one stream per (chain, mode)."""
    n_chains, n_modes = len(gens), len(gens[0])
    out = np.empty((n_chains, n_steps, n_modes))
    for ci in range(n_chains):
        row = gens[ci]
        for k in range(n_modes):
            out[ci, :, k] = row[k].standard_normal(n_steps)
    return out


def _evolve_chains(d: Domain, x_values: np.ndarray, nm: NoiseModel, p: SdeParams,
                   n_steps: int, sample_steps: np.ndarray, *,
                   profile: Profile, kstar: float, pstar: int,
                   chain_ids: np.ndarray, linear_hook: bool = False,
                   mode_checkpoints: tuple[int, ...] = ()) -> dict:
    """Advance a batch of chains; the workhorse behind the public entry points."""
    n_chains = len(chain_ids)
    nw = p.resolve_noise_modes(d)
    decay, phi1 = step_weights(d, p.dt)
    mshift = profile.shifted_values(d)
    sq_dt = np.sqrt(p.dt)
    sq_eps = np.sqrt(p.eps)
    lazy_state = linear_hook and nm.is_constant   # pure mode recursion

    sample_mask = np.zeros(n_steps + 1, dtype=bool)
    sample_mask[np.asarray(sample_steps, dtype=int)] = True
    snap_set = set(int(s) for s in mode_checkpoints)

    gens = _make_streams(p.seed, chain_ids, nw)
    c = transform_values(d, np.broadcast_to(x_values, (n_chains, d.n)))
    z = inverse_transform_values(d, c)

    n_samp = int(sample_mask.sum())
    obs = {name: np.empty((n_chains, n_samp)) for name in
           ("sup_norm", "dist_sup", "energy_star", "sobolev_norm")}
    t_samples = np.empty(n_samp)
    mode_snaps: dict[int, np.ndarray] = {}
    sup_running = np.max(np.abs(z), axis=-1)
    g_min = nm.g0 if nm.is_constant else np.inf
    si = 0

    def record(step: int, z_now: np.ndarray):
        nonlocal si
        t_samples[si] = step * p.dt
        obs["sup_norm"][:, si] = np.max(np.abs(z_now), axis=-1)
        obs["dist_sup"][:, si] = np.max(np.abs(z_now - mshift), axis=-1)
        obs["energy_star"][:, si] = energy_star_values(d, z_now, profile)
        obs["sobolev_norm"][:, si] = sobolev_norm_values(d, z_now, kstar, pstar)
        si += 1

    if sample_mask[0]:
        record(0, z)
    if 0 in snap_set:
        mode_snaps[0] = c.copy()

    block = None
    block_at = 0
    for s in range(n_steps):
        j = s - block_at
        if block is None or j >= block.shape[1]:
            block_at = s
            block = _draw_block(gens, min(_NOISE_BLOCK, n_steps - s))
            j = 0
        xi = block[:, j, :]

        if linear_hook:
            c_new = decay * c
        else:
            f_hat = transform_values(d, reaction_values(d, z))
            c_new = decay * c + phi1 * f_hat

        if nm.is_constant:
            c_new[..., :nw] += sq_eps * nm.g0 * sq_dt * xi
        else:
            w_phys = inverse_transform_values(d, sq_dt * xi)
            g_vals = nm.g(s * p.dt, z + d.psi)
            g_min = min(g_min, float(np.min(g_vals)))
            c_new += sq_eps * transform_values(d, g_vals * w_phys)
        c = c_new

        step = s + 1
        if not lazy_state or sample_mask[step] or step == n_steps or step in snap_set:
            z = inverse_transform_values(d, c)
            sup_now = np.max(np.abs(z), axis=-1)
            if np.max(sup_now) > BLOWUP_SUP:
                raise InstabilityError(
                    f"stochastic integration blew up (sup > {BLOWUP_SUP}) at t={step * p.dt!r} "
                    f"with eps={p.eps!r}, dt={p.dt!r}")
            np.maximum(sup_running, sup_now, out=sup_running)
            if sample_mask[step]:
                record(step, z)
            if step in snap_set:
                mode_snaps[step] = c.copy()

    return dict(t_samples=t_samples, obs=obs, final_values=z.copy(),
                sup_running=sup_running, g_min=float(g_min),
                mode_snaps=mode_snaps, n_noise_modes=nw)


def sde_run(d: Domain, x: Field, nm: NoiseModel, p: SdeParams, T: float, *,
            profile: Profile | None = None, kstar: float = 0.2, pstar: int = 8,
            record_every: int = 1, keep_path: bool = False,
            keep_noise: bool = False, linear_hook: bool = False,
            chain: int = 0) -> Trajectory:
    """Integrate one chain of the stochastic dynamics over [0, T].

    With eps = 0 the trajectory coincides bitwise with the noiseless flow.
    `linear_hook` switches the drift off so that each mode is an exact
    OU process (testing aid for the closed-form variance checks).
    `keep_path` keeps every step's state, rebuilt from the chain's mode
    coefficients checkpointed at every step; `keep_noise` keeps the unscaled
    normals, redrawn from the chain's own streams (one draw of n_steps equals
    the block-wise draws of the run).  Neither depends on `record_every`.
    """
    if x.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("initial data must be zero-Dirichlet (work with z = u - psi)")
    if T <= 0:
        raise ConfigurationError(f"horizon must be positive, got T={T}")
    profile = profile or compute_profile(d)
    n_steps = int(round(T / p.dt))
    sample_steps = np.unique(np.concatenate(
        [np.arange(0, n_steps + 1, record_every), [n_steps]]))
    out = _evolve_chains(d, x.values, nm, p, n_steps, sample_steps,
                         profile=profile, kstar=kstar, pstar=pstar,
                         chain_ids=np.array([chain]), linear_hook=linear_hook,
                         mode_checkpoints=tuple(range(n_steps + 1)) if keep_path else ())
    path = increments = None
    if keep_path:
        path = Path(np.concatenate([inverse_transform_values(d, out["mode_snaps"][s])
                                    for s in range(n_steps + 1)]),
                    Boundary.ZERO_DIRICHLET, 0.0, p.dt)
    if keep_noise:
        increments = _draw_block(_make_streams(p.seed, np.array([chain]),
                                               out["n_noise_modes"]), n_steps)[0]
    return Trajectory(
        chain=chain, params=p, kstar=kstar, pstar=pstar,
        t=out["t_samples"],
        sup_norm=out["obs"]["sup_norm"][0],
        dist_sup=out["obs"]["dist_sup"][0],
        energy_star=out["obs"]["energy_star"][0],
        sobolev_norm=out["obs"]["sobolev_norm"][0],
        g_min=out["g_min"],
        final=Field(out["final_values"][0], Boundary.ZERO_DIRICHLET),
        noise_seeds=dict(seed=p.seed, chain=chain, n_modes=out["n_noise_modes"]),
        path=path, noise_increments=increments, noise_model=nm)


@dataclass
class EnsembleResult:
    """Batched chain outputs for statistical tests over many trajectories."""

    final_values: np.ndarray                 # (n_chains, n)
    sup_running: np.ndarray                  # (n_chains,) running sup of |z|
    mode_snaps: dict[int, np.ndarray]        # step -> (n_chains, modes)
    t_samples: np.ndarray
    obs: dict[str, np.ndarray]               # each (n_chains, n_samples)
    g_min: float


def chain_chunks(n_chains: int) -> list[np.ndarray]:
    """Chain ids 0 .. n_chains - 1 in fixed chunks of _CHAIN_CHUNK."""
    return [np.arange(lo, min(lo + _CHAIN_CHUNK, n_chains))
            for lo in range(0, n_chains, _CHAIN_CHUNK)]


def _evolve_chunk(args, kwargs, chain_ids):
    return _evolve_chains(*args, chain_ids=chain_ids, **kwargs)


def _run_chunks(n_chains: int, workers: int | str, *args, **kwargs) -> EnsembleResult:
    """Run `_evolve_chains(*args, chain_ids=..., **kwargs)` over `chain_chunks`
    through `pool.fork_map`, and merge the outputs in chain order.  The chunk
    size does not depend on the worker count, so neither does any result.  An
    exception in a chunk, a dead process included, is raised here."""
    parts = fork_map(functools.partial(_evolve_chunk, args, kwargs),
                     chain_chunks(n_chains), workers)

    def merged(key):
        return np.concatenate([q[key] for q in parts])

    return EnsembleResult(
        final_values=merged("final_values"), sup_running=merged("sup_running"),
        mode_snaps={step: np.concatenate([q["mode_snaps"][step] for q in parts])
                    for step in parts[0]["mode_snaps"]},
        t_samples=parts[0]["t_samples"],
        obs={k: np.concatenate([q["obs"][k] for q in parts]) for k in parts[0]["obs"]},
        g_min=min(q["g_min"] for q in parts))


def ensemble_run(d: Domain, x: Field, nm: NoiseModel, p: SdeParams, T: float,
                 n_chains: int, *, profile: Profile | None = None,
                 kstar: float = 0.2, pstar: int = 8, linear_hook: bool = False,
                 sample_times: tuple[float, ...] = (),
                 mode_checkpoint_times: tuple[float, ...] = (),
                 workers: int | str = 1) -> EnsembleResult:
    """Run n_chains independent chains (streams keyed by chain id) in fixed-size
    vectorized batches; results are independent of the worker count.  A
    sample or mode-checkpoint time outside [0, T], or two sample times that
    round to the same step, raise ConfigurationError."""
    n_steps = int(round(T / p.dt))
    for what, times in (("sample", sample_times), ("mode checkpoint", mode_checkpoint_times)):
        for t in times:
            if not 0 <= int(round(t / p.dt)) <= n_steps:
                raise ConfigurationError(f"{what} time {t} lies outside [0, T={T}]")
    by_step: dict[int, list[float]] = {}
    for t in sample_times:
        by_step.setdefault(int(round(t / p.dt)), []).append(float(t))
    for step, times in by_step.items():
        if len(times) > 1:
            raise ConfigurationError(f"sample times {', '.join(map(repr, times))} all round "
                                     f"to step {step} at dt={p.dt}")
    profile = profile or compute_profile(d)
    sample_steps = sorted(set(by_step) | {n_steps})
    snaps = tuple(int(round(t / p.dt)) for t in mode_checkpoint_times)
    return _run_chunks(n_chains, workers, d, x.values, nm, p, n_steps,
                       np.asarray(sample_steps), profile=profile, kstar=kstar,
                       pstar=pstar, linear_hook=linear_hook, mode_checkpoints=snaps)


# ---------------------------------------------------------------------------
# stochastic convolution and the damped auxiliary dynamics
# ---------------------------------------------------------------------------

def _require_replayable(traj: Trajectory, p: SdeParams | None) -> SdeParams:
    """The parameters to replay traj with: traj.params, or p (for its damping
    lam) when it keeps the trajectory's dt and eps."""
    if traj.path is None or traj.noise_increments is None or traj.noise_model is None:
        raise ConfigurationError(
            "convolution replay needs a trajectory recorded with keep_path=True and "
            "keep_noise=True")
    if traj.path.values.shape[0] != traj.noise_increments.shape[0] + 1:
        raise ConfigurationError("mismatched noise streams: path and increments disagree in length")
    if traj.path.dt != traj.params.dt:
        raise ConfigurationError("mismatched noise streams: path recorded at a coarser step")
    p = p or traj.params
    if p.dt != traj.params.dt or p.eps != traj.params.eps:
        raise ConfigurationError(
            f"replay with dt={p.dt!r}, eps={p.eps!r} does not match the trajectory's "
            f"dt={traj.params.dt!r}, eps={traj.params.eps!r}")
    return p


def stochastic_convolution(d: Domain, traj: Trajectory, p: SdeParams | None = None) -> Trajectory:
    """Damped convolution gamma_lam accumulated with the trajectory's own
    noise increments and state-adapted intensity.

    gamma(t) solves the exponential-Euler recursion
    gamma <- e^{-(lambda_k + lam) dt} gamma + Proj[g(t, z+psi) dW]; note the
    sqrt(eps) factor is *not* included (it multiplies gamma in the
    decomposition z = Y_lam + sqrt(eps) gamma_lam).
    """
    p = _require_replayable(traj, p)
    nm = traj.noise_model
    decay = np.exp(-(d.lambda_k + p.lam) * p.dt)
    sq_dt = np.sqrt(p.dt)
    n_steps = traj.noise_increments.shape[0]

    gamma = np.zeros(d.modes)
    frames = np.zeros((n_steps + 1, d.n))
    g_min = np.inf
    for s in range(n_steps):
        z = traj.path.values[s]
        w_phys = inverse_transform_values(d, sq_dt * traj.noise_increments[s])
        g_vals = nm.g(s * p.dt, z + d.psi)
        g_min = min(g_min, float(np.min(g_vals)))
        gamma = decay * gamma + transform_values(d, g_vals * w_phys)
        frames[s + 1] = inverse_transform_values(d, gamma)

    profile = compute_profile(d)
    return Trajectory(
        chain=traj.chain, params=p, kstar=traj.kstar, pstar=traj.pstar,
        t=np.arange(n_steps + 1) * p.dt, sup_norm=np.max(np.abs(frames), axis=-1),
        dist_sup=np.max(np.abs(frames - profile.shifted_values(d)), axis=-1),
        energy_star=energy_star_values(d, frames, profile),
        sobolev_norm=sobolev_norm_values(d, frames, traj.kstar, traj.pstar),
        g_min=float(g_min),
        final=Field(frames[-1], Boundary.ZERO_DIRICHLET),
        noise_seeds=traj.noise_seeds,
        path=Path(frames, Boundary.ZERO_DIRICHLET, 0.0, p.dt),
        noise_increments=traj.noise_increments, noise_model=nm)


def damped_remainder_path(d: Domain, traj: Trajectory, p: SdeParams | None = None) -> Path:
    """Y_lam re-solved from dY/dt = (Laplacian - lam) Y + F(z) + lam z along the
    recorded trajectory z; z = Y_lam + sqrt(eps) gamma_lam up to O(dt)."""
    p = _require_replayable(traj, p)
    mu = d.lambda_k + p.lam
    decay = np.exp(-mu * p.dt)
    phi1 = (1.0 - decay) / mu
    n_steps = traj.path.values.shape[0] - 1

    y = np.zeros(d.modes)
    frames = np.zeros((n_steps + 1, d.n))
    for s in range(n_steps):
        z = traj.path.values[s]
        drift = reaction_values(d, z) + p.lam * z
        y = decay * y + phi1 * transform_values(d, drift)
        frames[s + 1] = inverse_transform_values(d, y)
    return Path(frames, Boundary.ZERO_DIRICHLET, 0.0, p.dt)


def decomposition_residual(d: Domain, traj: Trajectory, p: SdeParams | None = None) -> float:
    """max_t sup-norm error of z = Y_lam + sqrt(eps) gamma_lam (O(dt) check)."""
    p = p or traj.params
    gamma = stochastic_convolution(d, traj, p)
    y = damped_remainder_path(d, traj, p)
    recon = y.values + np.sqrt(p.eps) * gamma.path.values
    return float(np.max(np.abs(traj.path.values - recon)))


# ---------------------------------------------------------------------------
# factorization of the stochastic convolution
# ---------------------------------------------------------------------------

def check_factorization_params(alpha: float, kstar: float, pstar: int) -> None:
    """Guard the exponent bookkeeping of the factorization method."""
    if not 0.0 < alpha < 0.25:
        raise ConfigurationError(f"factorization exponent must satisfy 0 < alpha < 1/4, got {alpha}")
    lhs = (alpha - 1.0 - kstar / 2.0) * pstar / (pstar - 1.0)
    if not lhs > -1.0:
        raise ConfigurationError(
            "temporal kernel not integrable: need (alpha - 1 - kstar/2) * pstar/(pstar-1) > -1, "
            f"got {lhs} with alpha={alpha}, kstar={kstar}, pstar={pstar}")


def factorization_constant(alpha: float) -> float:
    """C_alpha = sin(pi alpha) / pi, the reciprocal of the beta-kernel mass."""
    return float(np.sin(np.pi * alpha) / np.pi)


def factorized_convolution(d: Domain, p: SdeParams, alpha: float, *,
                           T: float, kstar: float = 0.2, pstar: int = 8,
                           intensity: float = 1.0, chain: int = 0) -> Trajectory:
    """Simulate Gamma^alpha by stochastic quadrature with frozen scalar
    intensity, then reconstruct the damped convolution through the
    deterministic fractional integral.

    The returned trajectory carries the reconstructed gamma as its path and
    sup_t ||Gamma^alpha||_{L^{p*}} in `sobolev_norm` (the factorization
    observable); `sup_norm` tracks gamma itself.
    """
    check_factorization_params(alpha, kstar, pstar)
    nw = p.resolve_noise_modes(d)
    n_steps = int(round(T / p.dt))
    if n_steps < 2:
        raise ConfigurationError("factorized convolution needs at least two steps")
    dt = p.dt
    mu = d.lambda_k + p.lam                      # (modes,)
    gens = _make_streams(p.seed, np.array([chain]), nw)
    dw = intensity * np.sqrt(dt) * _draw_block(gens, n_steps)[0]   # (n_steps, nw)

    t_nodes = np.arange(n_steps + 1) * dt
    # Gamma^alpha(s_m) = sum_{j<m} (s_m - r_j)^{-alpha} e^{-mu (s_m - r_j)} G dW_j
    gamma_mid = np.zeros((n_steps + 1, d.modes))
    for m_idx in range(1, n_steps + 1):
        s_m = t_nodes[m_idx]
        lagt = s_m - t_nodes[:m_idx]             # (m,)
        ker = lagt[:, None] ** (-alpha) * np.exp(-np.outer(lagt, mu[:nw]))
        gamma_mid[m_idx, :nw] = np.sum(ker * dw[:m_idx], axis=0)

    gamma_phys = inverse_transform_values(d, gamma_mid)
    gamma_lp = (d.h * np.sum(np.abs(gamma_phys) ** pstar, axis=-1)) ** (1.0 / pstar)

    # gamma(t_m) = C_alpha * int_0^{t_m} (t_m - s)^{alpha-1} e^{-mu (t_m - s)} Gamma(s) ds,
    # with the algebraic factor integrated exactly per subinterval and the
    # smooth factor at the midpoint average.
    c_alpha = factorization_constant(alpha)
    conv = np.zeros((n_steps + 1, d.modes))
    for m_idx in range(1, n_steps + 1):
        t_m = t_nodes[m_idx]
        left = t_m - t_nodes[:m_idx]
        right = t_m - t_nodes[1:m_idx + 1]
        w_alg = (left ** alpha - right ** alpha) / alpha
        mid_lag = 0.5 * (left + right)
        smooth = np.exp(-np.outer(mid_lag, mu)) * 0.5 * (gamma_mid[:m_idx] + gamma_mid[1:m_idx + 1])
        conv[m_idx] = c_alpha * np.sum(w_alg[:, None] * smooth, axis=0)

    frames = inverse_transform_values(d, conv)
    profile = compute_profile(d)
    return Trajectory(
        chain=chain, params=p, kstar=kstar, pstar=pstar, t=t_nodes,
        sup_norm=np.max(np.abs(frames), axis=-1),
        dist_sup=np.max(np.abs(frames - profile.shifted_values(d)), axis=-1),
        energy_star=energy_star_values(d, frames, profile),
        sobolev_norm=gamma_lp,
        g_min=float(intensity),
        final=Field(frames[-1], Boundary.ZERO_DIRICHLET),
        noise_seeds=dict(seed=p.seed, chain=chain, n_modes=nw),
        path=Path(frames, Boundary.ZERO_DIRICHLET, 0.0, dt))


def factorization_identity_error(d: Domain, alpha: float, lam: float, t_eval: float,
                                 n_modes: int = 8, omega: float = 3.0) -> float:
    """Deterministic factorization check: replace dW by h(s) ds with smooth
    per-mode h_k(s) = cos(omega s) and compare the factorized reconstruction
    against the direct damped convolution, mode by mode, using adaptive
    quadrature with algebraic endpoint weights.  Returns the l2-relative
    reconstruction error over the first n_modes modes.
    """
    check_factorization_params(alpha, 0.2, 8)
    c_alpha = factorization_constant(alpha)
    mu_all = d.lambda_k[:n_modes] + lam
    h = lambda s: np.cos(omega * s)

    direct = np.empty(n_modes)
    fact = np.empty(n_modes)
    for i, mu in enumerate(mu_all):
        direct[i] = quad(lambda s: np.exp(-mu * (t_eval - s)) * h(s), 0.0, t_eval,
                         epsabs=1e-12, epsrel=1e-12, limit=200)[0]

        def gamma_stage(s: float) -> float:
            if s <= 0:
                return 0.0
            val, _ = quad(lambda r: np.exp(-mu * (s - r)) * h(r), 0.0, s,
                          weight="alg", wvar=(0.0, -alpha), epsabs=1e-11,
                          epsrel=1e-11, limit=200)
            return val

        outer, _ = quad(lambda s: np.exp(-mu * (t_eval - s)) * gamma_stage(s),
                        0.0, t_eval, weight="alg", wvar=(0.0, alpha - 1.0),
                        epsabs=1e-10, epsrel=1e-10, limit=200)
        fact[i] = c_alpha * outer

    return float(np.linalg.norm(fact - direct) / np.linalg.norm(direct))


# ---------------------------------------------------------------------------
# invariant-measure sampling
# ---------------------------------------------------------------------------

def sample_invariant(d: Domain, nm: NoiseModel, p: SdeParams, burn_in: float,
                     n_samples: int, stride: float, *, n_chains: int = 32,
                     profile: Profile | None = None, kstar: float = 0.2,
                     pstar: int = 8, workers: int | str = 1) -> EmpiricalMeasure:
    """Sample observables of the stationary state by time-striding an
    ensemble of chains started at z = 0 past a burn-in window.

    Samples are pooled chain-major; pooled output is bitwise independent of
    the worker count because chains are batched in fixed-size chunks with
    per-chain noise streams.
    """
    if stride <= 0 or burn_in < 0:
        raise ConfigurationError(f"need stride > 0 and burn_in >= 0, got {stride}, {burn_in}")
    profile = profile or compute_profile(d)
    warnings: list[str] = []
    t_relax = relaxation_time(d, profile=profile)
    if burn_in < 5.0 * t_relax:
        warnings.append(
            f"burn_in={burn_in} is below 5x the deterministic relaxation time {t_relax:.3g}")
    undersampled = n_samples < 100
    if undersampled:
        warnings.append(f"n_samples={n_samples} < 100: tail estimates will be unreliable")

    per_chain = max(1, int(np.ceil(n_samples / n_chains)))
    steps_burn = int(round(burn_in / p.dt))
    steps_stride = max(1, int(round(stride / p.dt)))
    n_steps = steps_burn + per_chain * steps_stride
    sample_steps = steps_burn + steps_stride * np.arange(1, per_chain + 1)

    ens = _run_chunks(n_chains, workers, d, np.zeros(d.n), nm, p, n_steps,
                      sample_steps, profile=profile, kstar=kstar, pstar=pstar)
    samples = dict(
        chain=np.repeat(np.arange(n_chains), per_chain).astype(float),
        t=np.tile(ens.t_samples, n_chains),
        sup_norm=ens.obs["sup_norm"].ravel(),
        dist_sup=ens.obs["dist_sup"].ravel(),
        energy_star=ens.obs["energy_star"].ravel(),
        sobolev_norm=ens.obs["sobolev_norm"].ravel(),
    )
    return EmpiricalMeasure(
        eps=p.eps, n_traj=n_chains, burn_in=burn_in, sample_stride=stride,
        per_chain=per_chain, seed=p.seed, kstar=kstar, pstar=pstar,
        g_min=ens.g_min, undersampled=undersampled,
        warnings=warnings, samples=samples)
