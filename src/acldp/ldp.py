"""Tail statistics over empirical invariant measures: the fraction of one
recorded observable at or above a threshold across a decreasing eps grid,
with the decay-rate fit in 1/eps.

`tail_report` is the one function that counts a tail.  `delta_scaling` reads
`dist_sup` (concentration around the profile) at delta and 2*delta, and
`tightness_monotone` reads `sobolev_norm` (exceedance of a Sobolev ball).
Every probability carries a Wilson 95% interval.  A zero-count cell keeps
Wilson's upper end z^2/(n + z^2) and is left out of the log-space fit (never
entered as a zero point estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spde import MIN_SAMPLES, EmpiricalMeasure

Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailReport:
    """One observable at one threshold across a strictly decreasing eps grid:
    the counts at or above the threshold, their fractions with Wilson
    intervals, and the least-squares slope of -log p_hat against 1/eps over
    the nonzero cells (None below three cells; valid when r2 >= 0.8)."""

    threshold: float
    eps: np.ndarray
    counts: np.ndarray
    n: np.ndarray
    p_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    slope: float | None
    r2: float | None
    slope_valid: bool


def wilson_interval(count: int, n: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion.

    The interval always contains p = count / n; at count = 0 (or n) its
    lower (upper) end equals p exactly, and the clamp against p removes the
    rounding that would otherwise leave it a few ulps on the wrong side.
    """
    if n <= 0:
        raise ConfigurationError("interval needs at least one sample")
    z = Z95
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def tail_report(ems: list[EmpiricalMeasure], column: str, threshold: float) -> TailReport:
    """Fractions of the samples' `column` at or above `threshold`, one per
    measure, and their decay fit.  Measures come in strictly decreasing eps
    order, each with at least MIN_SAMPLES samples.

    For `dist_sup` = sup |ubar - (m - psi)| the shift identity u - m =
    ubar - (m - psi) makes the same fraction serve the unshifted field
    against the profile.
    """
    eps = np.array([em.eps for em in ems])
    if not np.all(np.diff(eps) < 0):
        raise ConfigurationError("empirical measures must be ordered by strictly decreasing eps")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be nonnegative, got {threshold}")
    n = np.array([em.n_samples for em in ems])
    if np.any(n < MIN_SAMPLES):
        raise ConfigurationError(
            f"tail estimates need >= {MIN_SAMPLES} samples, a measure has {n.min()}")
    counts = np.array([np.count_nonzero(em.samples[column] >= threshold) for em in ems])
    p_hat = counts / n
    lo, hi = np.array([wilson_interval(c, m) for c, m in zip(counts.tolist(), n.tolist())]).T
    slope = r2 = None
    keep = counts > 0
    if np.count_nonzero(keep) >= 3:
        x, y = 1.0 / eps[keep], -np.log(p_hat[keep])
        fit, intercept = np.polyfit(x, y, 1)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        resid = y - (fit * x + intercept)
        slope = float(fit)
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return TailReport(threshold=float(threshold), eps=eps, counts=counts, n=n, p_hat=p_hat,
                      lo=lo, hi=hi, slope=slope, r2=r2,
                      slope_valid=r2 is not None and r2 >= 0.8)


def delta_scaling(ems: list[EmpiricalMeasure],
                  delta: float) -> tuple[TailReport, TailReport, float | None]:
    """`dist_sup` reports at delta and 2*delta plus the slope ratio (target
    4: the quadratic law in the threshold), None unless both fits are valid
    and the first slope is positive."""
    rep1 = tail_report(ems, "dist_sup", delta)
    rep2 = tail_report(ems, "dist_sup", 2.0 * delta)
    ratio = None
    if rep1.slope_valid and rep2.slope_valid and rep1.slope > 0:
        ratio = rep2.slope / rep1.slope
    return rep1, rep2, ratio


def tightness_monotone(ems: list[EmpiricalMeasure], radius: float, kstar: float,
                       pstar: int) -> tuple[TailReport, bool]:
    """Fractions of samples outside the W^{k*,p*} ball of the given radius
    across decreasing eps, and whether each is at most its predecessor plus
    two standard errors, as the concentration bound implies."""
    for em in ems:
        if (kstar, pstar) != (em.kstar, em.pstar):
            raise ConfigurationError(
                f"measure recorded W^({em.kstar},{em.pstar}) norms; asked for ({kstar},{pstar})")
    rep = tail_report(ems, "sobolev_norm", radius)
    p, n = rep.p_hat, rep.n
    se = np.sqrt(np.maximum(p * (1 - p), 1.0 / n) / n)
    return rep, bool(np.all(p[1:] <= p[:-1] + 2.0 * np.hypot(se[:-1], se[1:])))
