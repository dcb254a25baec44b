"""Diagnostics of the paper's stochastic estimates, the tests' own oracles:
the damped decomposition z = Y_lam + sqrt(eps) gamma_lam replayed along a
recorded chain, and the factorization identity behind the W^{k*,p*} bound.

`record_replay` runs chain 0 as a one-chain `spde.ensemble_run` and keeps what
a replay needs.  One is the state at every step: rebuilt through the kernel's
own `flow.ExpEuler.values` from its states checkpointed at every step, in
their dtype (so bitwise the chain's), then cast to float64 as the chain's
observables read it.  The other is the unscaled normals that drove it, redrawn
from the chain's own Philox streams (one draw of n_steps equals the run's
block-wise draws).  Along a recorded path the forcing of both damped
processes is known in advance, so each replay is one stacked transform of
its forcing, the recurrence y_{s+1} = e^{-(lambda_k + lam) dt} y_s + w_s over
mode vectors, and one stacked inverse transform.  The damping lam is the
replay's own; dt, eps and the noise model are the record's.

The factorization method (Da Prato, Kwapien & Zabczyk 1987) writes the damped
convolution as C_alpha int_0^t (t - s)^{alpha - 1} S_lam(t - s) Gamma^alpha(s) ds.
`check_factorization_params` guards its exponents, and
`factorization_identity_error` checks the identity with a smooth
deterministic forcing by adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from acldp.energy import reaction_values
from acldp.errors import ConfigurationError
from acldp.flow import ExpEuler, Path, steps_of
from acldp.grid import Boundary, Domain, Field, inverse_transform_values, transform_values
from acldp.noise import NoiseModel
from acldp.spde import SdeParams, _draw_block, _make_streams, ensemble_run


@dataclass(frozen=True)
class Replay:
    """One chain's state at every step and the unscaled normals that drove it."""

    params: SdeParams
    noise_model: NoiseModel
    path: Path                      # (steps + 1, n) states z, at dt = params.dt
    noise_increments: np.ndarray    # (steps, N_W) unscaled normals

    def __post_init__(self):
        if self.path.values.shape[0] != self.noise_increments.shape[0] + 1:
            raise ConfigurationError("mismatched noise streams: path and increments disagree in length")


def record_replay(d: Domain, x: Field, nm: NoiseModel, p: SdeParams, T: float, *,
                  linear_hook: bool = False) -> Replay:
    """Integrate chain 0 over [0, T] from x with `ensemble_run` (`linear_hook`
    switches the drift off), and keep its replay record."""
    n_steps = steps_of(T, p.dt, "T")
    ens = ensemble_run(d, x, nm, p, T, 1, linear_hook=linear_hook,
                       mode_checkpoint_times=np.arange(n_steps + 1) * p.dt)
    states = np.zeros((n_steps + 1, d.n), ens.mode_states[0].dtype)
    states[:, :d.modes] = [ens.mode_states[s][0] for s in range(n_steps + 1)]
    normals = _draw_block(_make_streams(p.seed, np.array([0]), p.resolve_noise_modes(d)),
                          n_steps)[0]
    return Replay(p, nm, Path(ExpEuler.values(states).astype(np.float64),
                              Boundary.ZERO_DIRICHLET, p.dt), normals)


def _replay_rates(d: Domain, rec: Replay, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """mu = lambda_k + lam and the decay e^{-mu dt} of a replay with damping lam."""
    if not isinstance(rec, Replay):
        raise ConfigurationError(
            f"convolution replay needs a Replay from record_replay, got {type(rec).__name__}")
    if not lam >= 0:
        raise ConfigurationError(f"damping lam must be nonnegative, got {lam}")
    mu = d.lambda_k + lam
    return mu, np.exp(-mu * rec.params.dt)


def _damped_recurrence(d: Domain, decay: np.ndarray, forcing: np.ndarray, dt: float) -> Path:
    """Frames of y_{s+1} = decay y_s + forcing_s from y_0 = 0 (forcing (steps, modes))."""
    coeffs = np.empty_like(forcing)
    y = np.zeros(d.modes)
    for s, w in enumerate(forcing):
        y = decay * y + w
        coeffs[s] = y
    frames = np.zeros((len(forcing) + 1, d.n))
    frames[1:] = inverse_transform_values(d, coeffs)
    return Path(frames, Boundary.ZERO_DIRICHLET, dt)


def stochastic_convolution(d: Domain, rec: Replay, lam: float) -> Path:
    """Damped convolution gamma_lam driven by the record's own noise increments
    and state-adapted intensity: gamma <- e^{-(lambda_k + lam) dt} gamma +
    Proj[g(z + psi) dW].  The sqrt(eps) factor is *not* included (it
    multiplies gamma in the decomposition z = Y_lam + sqrt(eps) gamma_lam)."""
    _, decay = _replay_rates(d, rec, lam)
    p, z = rec.params, rec.path.values[:-1]
    w_phys = inverse_transform_values(d, np.sqrt(p.dt) * rec.noise_increments)
    forcing = transform_values(d, rec.noise_model.g(z + d.psi) * w_phys)
    return _damped_recurrence(d, decay, forcing, p.dt)


def damped_remainder_path(d: Domain, rec: Replay, lam: float) -> Path:
    """Y_lam re-solved from dY/dt = (Laplacian - lam) Y + F(z) + lam z along the
    recorded path z; z = Y_lam + sqrt(eps) gamma_lam up to O(dt)."""
    mu, decay = _replay_rates(d, rec, lam)
    z = rec.path.values[:-1]
    forcing = (1.0 - decay) / mu * transform_values(d, reaction_values(d, z) + lam * z)
    return _damped_recurrence(d, decay, forcing, rec.params.dt)


def decomposition_residual(d: Domain, rec: Replay, lam: float) -> float:
    """max_t sup-norm error of z = Y_lam + sqrt(eps) gamma_lam (O(dt) check)."""
    recon = (damped_remainder_path(d, rec, lam).values
             + np.sqrt(rec.params.eps) * stochastic_convolution(d, rec, lam).values)
    return float(np.max(np.abs(rec.path.values - recon)))


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
