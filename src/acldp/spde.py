"""Stochastic integrator for the shifted double-well dynamics and
invariant-measure sampling.

Time stepping is the exponential-Euler kernel `flow.ExpEuler`, the gradient
flow's own: mode coefficients are advanced by the exact semigroup factor
e^{-lambda_k dt}, the cubic drift enters explicitly through the de-aliased
phi_1 weight, and the noise increment per step is

    sqrt(eps) * g(z + psi) * sum_{k <= N_W} e_k(xi) sqrt(dt) xi_k

with independent standard normals xi_k, assembled in physical space from
the N_W leading coefficients and projected back to modes.  When the
intensity is constant the projection of g0 * sum e_k xi_k is g0 * xi_k
exactly (orthonormality), so the increment is added directly in mode space.
The kernel's state is the raw DST vector of the coefficients (see its
docstring), so the chain-step is one forward DST of the reaction, in-place
weights, the noise, and one DST back to the grid.

The chain-step runs in single precision: `_evolve_chains` builds its kernel at
`CHAIN_DTYPE` (float32), so the state, the folded weights, the reaction and
noise buffers and the kernel's copy of psi are float32, and under a
state-dependent g so is the intensity.  The normals stay float64 draws and are
rounded in their product with the noise weight.  Observables are formed in
float64 from the float32 state, against the profile `compute_profile(d)` that
`_run_chunks` solves before it forks, so that the chunks inherit it cached; the
flow, the skeleton, `relaxation_time` and MAM stay float64.  The blow-up cap
(`flow.BLOWUP_SUP`) is the flow's too, so at eps = 0 a chain is bitwise the
flow's step taken in float32, and within float32 rounding of the float64 flow.

The increment sqrt(dt) xi_k follows the exact decay, so under constant g0 mode
k's stationary variance is eps g0^2 dt / (1 - e^{-2 lambda_k dt}), not the
SPDE's eps g0^2 / (2 lambda_k): 5.1 times it at mode 64 for dt = 1e-3, L = 2.

`_evolve_chains` is the one stepping loop, and `_run_chunks` its one caller,
behind `ensemble_run` and `sample_invariant`.  It advances a chunk of chains
at one or more eps levels, its state shaped (levels, chains, ...).  It keeps
observables at the sample steps and kernel states at the checkpoints, nothing
else (`EnsembleResult.coefficients` turns a state into coefficients).
Both entry points return the one record, `EnsembleResult`, per eps level,
with the observables kept chain by chain, shaped (chains, samples); the tail
statistics and the sample files read them so.  The two entry points turn the horizon, burn-in, stride and sample and
checkpoint times into steps with `flow.steps_of`, so each must be a whole
number of steps.  The tests' replay oracle (`record_replay` in
tests/diagnostics.py) runs one chain through `ensemble_run` with a
checkpoint at every step to rebuild its path.  A step mask, observables or mode checkpoints past the
memory budget (2.7e8 steps, 8.4e6 level-chain-samples or 3.4e7 checkpointed
chain-mode values) are a ConfigurationError before any of them is allocated.

Randomness comes from counter-based streams: one Philox generator per
(master seed, chain id, mode id), so trajectories are bitwise reproducible.
The streams do not depend on eps, so the eps levels of one concentration run
share their normals (common random numbers): each step draws them once per
chain and broadcasts them over the levels, which step together in one chunk.
The noise scale is formed per level in the one-level float order, so every
level is bitwise a run at that eps alone.  Ensembles run in fixed 32-chain
chunks, serially or on the package's one pool of forked processes
(`_run_chunks`, `sampler_processes` of them), and are merged in chain order,
so no result depends on the worker count.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .config import AUTO
from .energy import energy_star_values
from .errors import ConfigurationError, InstabilityError, check_bytes
from .flow import BLOWUP_SUP, START_OUT_OF_RANGE, ExpEuler, relaxation_time, steps_of
from .grid import Boundary, Domain, Field, sobolev_norm_values, sobolev_weights, transform_values
from .noise import NoiseModel
from .profile import compute_profile

_NOISE_BLOCK = 512          # steps of normals drawn per stream at a time
CHAIN_CHUNK = 32            # chains per vectorized batch (fixed: worker-count independent)
CHAIN_DTYPE = np.float32    # the chain-step's kernel state, weights and buffers
MIN_SAMPLES = 100           # pooled samples a tail estimate needs (ldp, pipeline)


@dataclass(frozen=True)
class SdeParams:
    """Noise strength, step size, truncation, and master seed."""

    eps: float
    dt: float
    modes_noise: int = 0     # 0 means modes // 2, resolved against the domain
    seed: int = 0

    def __post_init__(self):
        if not self.eps >= 0:
            raise ConfigurationError(f"noise strength eps must be nonnegative, got {self.eps}")
        if not self.dt > 0:
            raise ConfigurationError(f"time step must be positive, got {self.dt}")
        if self.modes_noise < 0:
            raise ConfigurationError(f"modes_noise must be nonnegative, got {self.modes_noise}")

    def resolve_noise_modes(self, d: Domain) -> int:
        nw = self.modes_noise if self.modes_noise > 0 else d.modes // 2
        if nw > d.modes:
            raise ConfigurationError(
                f"noise truncation {nw} exceeds the spectral truncation {d.modes}")
        return nw


def _stream_key(seed: int, chain: int, mode: int) -> np.ndarray:
    return np.array([seed % 2 ** 64, ((chain % 2 ** 32) << 32) | (mode % 2 ** 32)],
                    dtype=np.uint64)


def _make_streams(seed: int, chain_ids: np.ndarray, n_modes: int) -> list[list[np.random.Generator]]:
    return [[np.random.Generator(np.random.Philox(key=_stream_key(seed, int(c), k)))
             for k in range(n_modes)] for c in chain_ids]


def _draw_block(gens, n_steps: int) -> np.ndarray:
    """Normals of shape (chains, n_steps, n_modes), one stream per (chain, mode)."""
    out = np.empty((len(gens), n_steps, len(gens[0])))
    for ci, row in enumerate(gens):
        for k, gen in enumerate(row):
            out[ci, :, k] = gen.standard_normal(n_steps)
    return out


def _evolve_chains(d: Domain, x_values: np.ndarray, nm: NoiseModel,
                   levels: tuple[SdeParams, ...], n_steps: int, sample_steps: np.ndarray, *,
                   kstar: float, pstar: int, chain_ids: np.ndarray, linear_hook: bool = False,
                   mode_checkpoints: tuple[int, ...] = ()) -> dict:
    """Advance a batch of chains at every eps level of `levels` (SdeParams
    that differ only in eps); the workhorse behind the public entry points.

    State and outputs are (levels, chains, ...); the kernel's state is
    CHAIN_DTYPE and the observables float64.  A chain's normals are
    drawn once per step and shared by its levels, and each level's rows see
    the arithmetic of a one-level run bit for bit.  A state with sup |z| past
    BLOWUP_SUP, or with a value that is not a number, is an InstabilityError
    naming the first level that has one; a start state out of range is one
    naming no level (`flow.START_OUT_OF_RANGE`)."""
    p = levels[0]
    n_chains = len(chain_ids)
    shape = (len(levels), n_chains)
    nw = p.resolve_noise_modes(d)
    mshift = compute_profile(d).shifted_values(d)
    sq_eps = np.sqrt([q.eps for q in levels])[:, None, None]
    kernel = ExpEuler(d, p.dt, shape, noise=nm, noise_modes=nw, noise_scale=sq_eps,
                      dtype=CHAIN_DTYPE)
    constant_g = nm.is_constant
    lazy_state = linear_hook and constant_g       # pure mode recursion
    sobolev_weights(d, kstar)                     # an overflowing kstar fails before a step

    sample_mask = np.zeros(n_steps + 1, dtype=bool)
    sample_mask[np.asarray(sample_steps, dtype=int)] = True
    snap_set = set(int(s) for s in mode_checkpoints)

    gens = _make_streams(p.seed, chain_ids, nw)
    a = kernel.state(np.broadcast_to(x_values, shape + (d.n,)))

    n_samp = int(sample_mask.sum())
    obs = {name: np.empty(shape + (n_samp,)) for name in
           ("sup_norm", "dist_sup", "energy_star", "sobolev_norm")}
    t_samples = np.empty(n_samp)
    mode_states: dict[int, np.ndarray] = {}
    g_min = np.full(len(levels), nm.g0 if constant_g else np.inf)
    si = 0

    def visit(step: int) -> np.ndarray:
        """The grid values of state `step`, range-checked before anything is
        formed from them, then recorded at a sample or checkpoint step."""
        nonlocal si
        z_now = kernel.values(a)
        if not max(z_now.max(), -z_now.min()) <= BLOWUP_SUP:        # NaN is out of range too
            if step == 0:
                raise InstabilityError(START_OUT_OF_RANGE)
            level = int(np.argmax(~(np.max(np.abs(z_now), axis=(1, 2)) <= BLOWUP_SUP)))
            raise InstabilityError(
                f"stochastic integration blew up (sup > {BLOWUP_SUP} or NaN) "
                f"at t={step * p.dt!r} with eps={levels[level].eps!r}, dt={p.dt!r}")
        if sample_mask[step]:
            t_samples[si] = step * p.dt
            z64 = np.asarray(z_now, dtype=np.float64)           # observables in float64
            obs["sup_norm"][..., si] = np.max(np.abs(z64), axis=-1)
            obs["dist_sup"][..., si] = np.max(np.abs(z64 - mshift), axis=-1)
            c64 = transform_values(d, z64)
            obs["energy_star"][..., si] = energy_star_values(d, z64, c64)
            obs["sobolev_norm"][..., si] = sobolev_norm_values(d, c64, kstar, pstar)
            si += 1
        if step in snap_set:
            mode_states[step] = a[..., :d.modes].copy()
        return z_now

    z = visit(0)
    for s in range(n_steps):
        if s % _NOISE_BLOCK == 0:
            block = _draw_block(gens, min(_NOISE_BLOCK, n_steps - s))
        xi = block[:, s % _NOISE_BLOCK, :]

        g_vals = None
        if not constant_g:
            g_vals = nm.g(z + kernel.psi)
            np.minimum(g_min, np.min(g_vals, axis=(1, 2)), out=g_min)
        kernel.advance(a, None if linear_hook else kernel.drift(z), xi=xi, g_values=g_vals)

        step = s + 1
        if not lazy_state or sample_mask[step] or step == n_steps or step in snap_set:
            z = visit(step)

    return dict(t_samples=t_samples, obs=obs, g_min=g_min, mode_states=mode_states,
                to_coefficients=kernel.to_coefficients)


def check_sampler_size(n_steps: int, n_levels: int, n_chains: int, n_samples: int,
                       n_checkpoint_values: int = 0) -> None:
    """`errors.check_bytes` on the step mask (1 B a step), the observables
    (32 B a level-chain-sample) and the n_checkpoint_values checkpoint values,
    counted at 8 B each: the checkpoints hold float32 kernel states (4 B), so
    that count is conservative."""
    n_obs = n_levels * n_chains * n_samples
    check_bytes(f"{n_steps} steps", n_steps + 1)
    check_bytes(f"{n_obs} level-chain-samples", 32 * n_obs)
    check_bytes(f"{n_checkpoint_values} mode-checkpoint values", 8 * n_checkpoint_values)


def samples_per_chain(n_samples: int, n_chains: int) -> int:
    """Samples a chain keeps so that n_chains pool at least n_samples >= 1;
    read by `sample_invariant` and by the pipeline's MIN_SAMPLES gate."""
    return -(-n_samples // n_chains)


@dataclass
class EnsembleResult:
    """The chains of one eps level, from `ensemble_run` or `sample_invariant`:
    the observables at the sample times, chain by chain, the kernel states at
    the mode checkpoints, the intensity floor, and the run's warnings (none
    from `ensemble_run`)."""

    eps: float
    mode_states: dict[int, np.ndarray]       # step -> (n_chains, modes) float32 kernel states
    to_coefficients: np.ndarray              # (modes,) state -> mode coefficients
    t_samples: np.ndarray
    obs: dict[str, np.ndarray]               # each (n_chains, n_samples)
    g_min: float
    warnings: list[str] = field(default_factory=list)

    def coefficients(self, step: int) -> np.ndarray:
        """(n_chains, modes) mode coefficients at the checkpoint `step`."""
        return self.mode_states[step] * self.to_coefficients


def _evolve_chunk(args, kwargs, chain_ids):
    return _evolve_chains(*args, chain_ids=chain_ids, **kwargs)


def sampler_processes(workers: int | str, n_chains: int) -> int:
    """Processes a run of n_chains chains uses: one per CHAIN_CHUNK chunk,
    capped by `workers` ('auto' for one per core) and by the core count; 1
    means the chunks run serially in the calling process."""
    cores = os.cpu_count() or 1
    return max(1, min(cores if workers == AUTO else workers, -(-n_chains // CHAIN_CHUNK), cores))


def _run_chunks(n_chains: int, workers: int | str, d: Domain, x_values: np.ndarray,
                nm: NoiseModel, levels: tuple[SdeParams, ...], *args,
                **kwargs) -> list[EnsembleResult]:
    """Run `_evolve_chains(d, x_values, nm, levels, *args, chain_ids=...,
    **kwargs)` over the chain ids 0 .. n_chains - 1 in chunks of CHAIN_CHUNK
    on `sampler_processes` forked processes, and merge the outputs in chain
    order, one EnsembleResult per eps level; no result depends on the worker
    count.  An exception in a chunk is raised here, a dead process as
    `BrokenProcessPool`."""
    chunks = [np.arange(lo, min(lo + CHAIN_CHUNK, n_chains))
              for lo in range(0, n_chains, CHAIN_CHUNK)]
    compute_profile(d)                  # solved here, so forked chunks inherit it cached
    task = functools.partial(_evolve_chunk, (d, x_values, nm, levels) + args, kwargs)
    n_proc = sampler_processes(workers, n_chains)
    if n_proc == 1:
        parts = [task(ids) for ids in chunks]
    else:
        # fork: children inherit modules and caches (spawn re-imports, ~1 s) and
        # callers need no __main__ guard; imported here to keep `import acldp` cheap.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_proc,
                                 mp_context=multiprocessing.get_context("fork")) as ex:
            parts = list(ex.map(task, chunks))

    def merged(arrays):       # (levels, chains, ...) chunks, joined on the chain axis
        return np.concatenate(arrays, axis=1)

    mode_states = {step: merged([q["mode_states"][step] for q in parts])
                   for step in parts[0]["mode_states"]}
    obs = {k: merged([q["obs"][k] for q in parts]) for k in parts[0]["obs"]}
    g_min = np.min([q["g_min"] for q in parts], axis=0)
    return [EnsembleResult(
        eps=q.eps,
        mode_states={step: snap[lev] for step, snap in mode_states.items()},
        to_coefficients=parts[0]["to_coefficients"],
        t_samples=parts[0]["t_samples"],
        obs={k: v[lev] for k, v in obs.items()},
        g_min=float(g_min[lev])) for lev, q in enumerate(levels)]


def ensemble_run(d: Domain, x: Field, nm: NoiseModel, p: SdeParams, T: float,
                 n_chains: int, *, kstar: float = 0.2, pstar: int = 8, linear_hook: bool = False,
                 sample_times: tuple[float, ...] = (),
                 mode_checkpoint_times: tuple[float, ...] = (),
                 workers: int | str = 1) -> EnsembleResult:
    """Run n_chains independent chains (streams keyed by chain id) in fixed-size
    vectorized batches; results are independent of the worker count.  Initial
    data not zero-Dirichlet, no chain or step, a time that is no whole number of
    steps or lies outside [0, T], or the memory budget passed: ConfigurationError."""
    if x.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("initial data must be zero-Dirichlet (work with z = u - psi)")
    n_steps = steps_of(T, p.dt, "T")
    if n_steps < 1:
        raise ConfigurationError(f"horizon must cover at least one step, got T={T} at dt={p.dt}")
    if n_chains < 1:
        raise ConfigurationError(f"need at least one chain, got n_chains={n_chains}")
    check_sampler_size(n_steps, 1, n_chains, len(sample_times) + 1,
                       len(mode_checkpoint_times) * n_chains * d.modes)
    sample_steps, snaps = [], []
    for what, times, steps in (("sample", sample_times, sample_steps),
                               ("mode checkpoint", mode_checkpoint_times, snaps)):
        for t in times:
            steps.append(steps_of(t, p.dt, f"{what} time"))
            if not 0 <= steps[-1] <= n_steps:
                raise ConfigurationError(f"{what} time {t} lies outside [0, T={T}]")
    return _run_chunks(n_chains, workers, d, x.values, nm, (p,), n_steps,
                       np.asarray(sorted(set(sample_steps) | {n_steps})), kstar=kstar,
                       pstar=pstar, linear_hook=linear_hook, mode_checkpoints=tuple(snaps))[0]


# ---------------------------------------------------------------------------
# invariant-measure sampling
# ---------------------------------------------------------------------------

def sample_invariant(d: Domain, nm: NoiseModel, p: SdeParams | Sequence[SdeParams],
                     burn_in: float, n_samples: int, stride: float, *, n_chains: int = 32,
                     kstar: float = 0.2, pstar: int = 8,
                     workers: int | str = 1) -> EnsembleResult | list[EnsembleResult]:
    """Sample observables of the stationary state by time-striding an
    ensemble of chains started at z = 0 past a burn-in window.

    `p` is one SdeParams, or a sequence of SdeParams that differ only in eps
    (else ConfigurationError); a sequence gives one EnsembleResult per
    level, in its order.  Each chain keeps `samples_per_chain` samples, one
    `stride` apart from `burn_in + stride` on, so `obs[k]` is (n_chains,
    per_chain) and the pooled count is its size; `warnings` name a burn-in
    below 5 relaxation times and a pooled count below MIN_SAMPLES.  A
    chain's noise streams do not depend on eps, so the levels share their
    normals (common random numbers) and step together in one chunk: each
    level's samples are bitwise those of a call with that level alone, and
    no sample depends on the worker count, because chains are batched in
    fixed-size chunks with per-chain noise streams.
    """
    levels = (p,) if isinstance(p, SdeParams) else tuple(p)
    if not levels:
        raise ConfigurationError("sample_invariant needs at least one SdeParams")
    for q in levels[1:]:
        if replace(q, eps=levels[0].eps) != levels[0]:
            raise ConfigurationError(
                f"stacked eps levels must differ only in eps: {q} against {levels[0]}")
    if stride <= 0 or burn_in < 0:
        raise ConfigurationError(f"need stride > 0 and burn_in >= 0, got {stride}, {burn_in}")
    if n_chains < 1:
        raise ConfigurationError(f"need at least one chain, got n_chains={n_chains}")
    if n_samples < 1:
        raise ConfigurationError(f"need at least one sample, got n_samples={n_samples}")
    dt = levels[0].dt
    per_chain = samples_per_chain(n_samples, n_chains)
    steps_burn = steps_of(burn_in, dt, "burn_in")
    steps_stride = steps_of(stride, dt, "stride")
    n_steps = steps_burn + per_chain * steps_stride
    check_sampler_size(n_steps, len(levels), n_chains, per_chain)
    warnings: list[str] = []
    t_relax = relaxation_time(d)
    if burn_in < 5.0 * t_relax:
        warnings.append(
            f"burn_in={burn_in} is below 5x the deterministic relaxation time {t_relax:.3g}")
    if per_chain * n_chains < MIN_SAMPLES:
        warnings.append(f"n_samples={n_samples} < {MIN_SAMPLES}: tail estimates will be unreliable")

    sample_steps = steps_burn + steps_stride * np.arange(1, per_chain + 1)

    ensembles = [replace(ens, warnings=list(warnings)) for ens in _run_chunks(
        n_chains, workers, d, np.zeros(d.n), nm, levels, n_steps, sample_steps,
        kstar=kstar, pstar=pstar)]
    return ensembles[0] if isinstance(p, SdeParams) else ensembles
