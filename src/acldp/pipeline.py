"""Concentration experiment: profile -> invariant sampling of every eps in
one stacked call -> `ldp.TailReport`s of `dist_sup` at delta and 2*delta,
each with its decay-rate fit, plus the report of the Sobolev-ball
exceedance (`sobolev_norm` at the radius) from the same samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AUTO, ExperimentConfig
from .errors import ConfigurationError
from .grid import Domain, build_domain
from .ldp import TailReport, delta_scaling, tightness_monotone
from .noise import NoiseModel
from .spde import MIN_SAMPLES, EnsembleResult, SdeParams, sample_invariant, samples_per_chain

TAIL_FRACTION = 0.02     # auto delta: 2*delta sits at this tail of the rarest cell
RADIUS_QUANTILE = 0.75   # auto radius: quantile of the largest-eps Sobolev norms


@dataclass
class ConcentrationResult:
    measures: list[EnsembleResult]         # decreasing eps
    report_delta: TailReport               # dist_sup at delta
    report_2delta: TailReport              # dist_sup at 2*delta
    slope_ratio: float | None
    tightness: TailReport                  # sobolev_norm at the radius
    nonincreasing: bool                    # tightness fractions, within 2 sigma
    warnings: list[str]


def noise_from_config(cfg: ExperimentConfig) -> NoiseModel:
    return NoiseModel(kind=cfg["noise.kind"], g0=cfg["noise.g0"], c=cfg["noise.c"])


def sde_params_from_config(cfg: ExperimentConfig, eps: float) -> SdeParams:
    return SdeParams(eps=eps, dt=cfg["dt"], modes_noise=cfg["modes_noise"], seed=cfg["seed"])


def domain_from_config(cfg: ExperimentConfig) -> Domain:
    return build_domain(cfg["L"], cfg["n"], cfg["modes"])


def choose_delta(ems: list[EnsembleResult]) -> float:
    """Half the upper quantile of the rarest (smallest-eps) distances, so the
    2*delta cell keeps an expected count of TAIL_FRACTION * n samples."""
    return float(np.quantile(ems[-1].obs["dist_sup"], 1.0 - TAIL_FRACTION)) / 2.0


def choose_radius(ems: list[EnsembleResult]) -> float:
    """Sobolev-ball radius from the largest-eps measure, above the profile floor."""
    return float(np.quantile(ems[0].obs["sobolev_norm"], RADIUS_QUANTILE))


def run_concentration(cfg: ExperimentConfig) -> ConcentrationResult:
    """The full concentration experiment described by the config."""
    eps_list = sorted(cfg["eps"], reverse=True)
    if len(eps_list) < 3:
        raise ConfigurationError(f"concentration pipeline needs >= 3 eps values, got {len(eps_list)}")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigurationError(f"eps values must be distinct, got {cfg['eps']}")
    pooled = samples_per_chain(cfg["n_samples"], cfg["n_chains"]) * cfg["n_chains"]
    if pooled < MIN_SAMPLES:
        raise ConfigurationError(f"n_samples={cfg['n_samples']} over n_chains={cfg['n_chains']} "
                                 f"pools {pooled} samples, below the {MIN_SAMPLES} tails need")
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    measures = sample_invariant(d, nm, [sde_params_from_config(cfg, eps) for eps in eps_list],
                                burn_in=cfg["burn_in"], n_samples=cfg["n_samples"],
                                stride=cfg["stride"], n_chains=cfg["n_chains"],
                                kstar=cfg["kstar"], pstar=cfg["pstar"], workers=cfg["workers"])
    warnings = [f"eps={em.eps}: {w}" for em in measures for w in em.warnings]

    delta = cfg["delta"] if cfg["delta"] != AUTO else choose_delta(measures)
    report_delta, report_2delta, slope_ratio = delta_scaling(measures, delta)

    radius = cfg["radius"] if cfg["radius"] != AUTO else choose_radius(measures)
    tightness, nonincreasing = tightness_monotone(measures, radius)

    return ConcentrationResult(
        measures=measures, report_delta=report_delta, report_2delta=report_2delta,
        slope_ratio=slope_ratio, tightness=tightness, nonincreasing=nonincreasing,
        warnings=warnings)
