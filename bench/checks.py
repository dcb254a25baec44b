"""Checks on the outputs of one benchmark round, computed apart from acldp.

Every check recomputes what it tests from the round's own files: recounts of
tail cells, its own least-squares fits, equipartition brackets built from its
own sin/cos basis, and its own quadrature of the shifted energy.  None of them
compares against a stored copy of an earlier output.  Each function returns a
list of failure messages; an empty list means the output passed.

`statistical=False` keeps only the exact checks (recounts, containment, exit
code and manifest); the smoke mode uses it, because toy sizes carry too few
samples for the fits and brackets to hold.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BRACKET_MARGIN = 0.05     # equipartition bracket, each side
EPS_AGREEMENT = 0.05      # mean E*/eps across eps values
SLOPE_RATIO = (2.0, 8.0)  # quadratic law in the threshold predicts 4
MAM_TOL = 0.05            # U against 2E* under unit intensity


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def read_json(path: Path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# the model, written out independently of the package
# ---------------------------------------------------------------------------

def eigenvalues(L: float, count: int) -> np.ndarray:
    """Dirichlet-Laplacian eigenvalues (k pi / 2L)^2, k = 1..count."""
    k = np.arange(1, count + 1)
    return (k * np.pi / (2.0 * L)) ** 2


def basis(L: float, xi: np.ndarray, count: int) -> np.ndarray:
    """e_k(xi) for k = 1..count as rows: sin for even k, cos for odd k."""
    k = np.arange(1, count + 1)[:, None]
    arg = k * np.pi * xi[None, :] / (2.0 * L)
    return np.where(k % 2 == 0, np.sin(arg), np.cos(arg)) / np.sqrt(L)


def intensity(kind: str, g0: float, c: float, theta: np.ndarray) -> np.ndarray:
    if kind == "constant":
        return np.full_like(theta, g0)
    th2 = theta * theta
    return g0 + c * th2 / (1.0 + th2)


def scheme_weights(lam: np.ndarray, dt: float) -> np.ndarray:
    """Stationary (1/2) lambda_k Var(c_k) per unit noise variance under the
    exponential Euler step with sqrt(dt) increments: (1/2) lambda_k dt / (1 - e^{-2 lambda_k dt})."""
    return 0.5 * lam * dt / -np.expm1(-2.0 * lam * dt)


def projected_noise_variance(L: float, xi: np.ndarray, g: np.ndarray,
                             modes: int, noise_modes: int) -> np.ndarray:
    """Q_kk = sum_{l <= N_W} <e_k, g e_l>^2 for k <= modes (trapezoid inner products)."""
    h = xi[1] - xi[0]
    e = basis(L, xi, modes)
    inner = h * (e * g[None, :]) @ e[:noise_modes].T
    return np.sum(inner * inner, axis=1)


def shifted_energy(L: float, xi: np.ndarray, m: np.ndarray,
                   amplitudes: list[tuple[int, float]]) -> float:
    """E(m + w) - E(m) for w = sum a_k e_k, by quadrature.

    Since m'' = m^3 - m, the cross term int m' w' equals -int V'(m) w, so
    E(m + w) - E(m) = (1/2) sum lambda_k a_k^2 + int [V(m + w) - V(m) - V'(m) w],
    and the remainder (3m^2 - 1) w^2 / 2 + m w^3 + w^4 / 4 vanishes at both
    ends; the composite trapezoid rule integrates it.
    """
    ks = np.array([k for k, _ in amplitudes])
    a = np.array([amp for _, amp in amplitudes])
    w = a @ basis(L, xi, int(ks.max()))[ks - 1]
    h = xi[1] - xi[0]
    remainder = 0.5 * (3.0 * m * m - 1.0) * w * w + m * w ** 3 + 0.25 * w ** 4
    gradient = 0.5 * float(np.sum(eigenvalues(L, int(ks.max()))[ks - 1] * a * a))
    return gradient + h * float(np.sum(remainder))


# ---------------------------------------------------------------------------
# checks shared by every run
# ---------------------------------------------------------------------------

def check_run(outdir: Path, rc: int, sampler: bool) -> list[str]:
    """Exit code 0, a complete manifest, and no warnings from a sampler run."""
    fails = []
    if rc != 0:
        fails.append(f"{outdir.name}: exit code {rc}")
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return fails + [f"{outdir.name}: no manifest.json"]
    manifest = read_json(manifest_path)
    if manifest.get("partial") is not False:
        fails.append(f"{outdir.name}: manifest partial = {manifest.get('partial')!r}")
    if sampler and manifest.get("warnings"):
        fails.append(f"{outdir.name}: warnings {manifest['warnings']}")
    return fails


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def _equipartition_bracket(per_eps: float, low: float, high: float, what: str) -> list[str]:
    lo, hi = (1.0 - BRACKET_MARGIN) * low, (1.0 + BRACKET_MARGIN) * high
    if not lo <= per_eps <= hi:
        return [f"{what}: mean E*/eps = {per_eps:.6g} outside [{lo:.6g}, {hi:.6g}]"]
    return []


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_concentration(outdir: Path, cfg: dict, statistical: bool = True) -> list[str]:
    """tails.csv against the per-eps sample files it was computed from."""
    fails = []
    tails = read_csv(outdir / "tails.csv")
    samples = {}
    for path in outdir.glob("samples_eps*.csv"):
        samples[float(path.stem[len("samples_eps"):])] = read_csv(path)
    if sorted(samples) != sorted(cfg["eps"]):
        return [f"sample files for eps {sorted(samples)}, config has {sorted(cfg['eps'])}"]

    for eps, delta, p_hat, lo, hi in zip(tails["eps"], tails["delta"], tails["p_hat"],
                                         tails["lo"], tails["hi"]):
        dist = samples[eps]["dist_sup"]
        recount = int(np.sum(dist >= delta)) / len(dist)
        if recount != p_hat:
            fails.append(f"eps={eps}, threshold={delta}: p_hat {p_hat!r}, recount {recount!r}")
        if not lo <= p_hat <= hi:
            fails.append(f"eps={eps}, threshold={delta}: p_hat {p_hat!r} outside [{lo!r}, {hi!r}]")

    slopes = {}
    for delta in np.unique(tails["delta"]):
        rows = tails["delta"] == delta
        order = np.argsort(-tails["eps"][rows])
        eps, p = tails["eps"][rows][order], tails["p_hat"][rows][order]
        if np.any(np.diff(p) > 0):
            fails.append(f"threshold={delta}: p_hat {list(p)} increases as eps decreases")
        if statistical:
            if np.any(p <= 0):
                fails.append(f"threshold={delta}: empty tail cell, no decay fit")
                continue
            slopes[delta] = _slope(1.0 / eps, -np.log(p))
            if not slopes[delta] > 0:
                fails.append(f"threshold={delta}: fitted slope {slopes[delta]:.6g} not positive")

    if statistical and len(slopes) == 2 and min(slopes.values()) > 0:
        d1, d2 = sorted(slopes)
        ratio = slopes[d2] / slopes[d1]
        if not SLOPE_RATIO[0] <= ratio <= SLOPE_RATIO[1]:
            fails.append(f"slope ratio {ratio:.6g} outside {list(SLOPE_RATIO)}")

    if statistical:
        per_eps = {eps: float(np.mean(s["energy_star"])) / eps for eps, s in samples.items()}
        spread = max(per_eps.values()) / min(per_eps.values()) - 1.0
        if spread > EPS_AGREEMENT:
            fails.append(f"mean E*/eps disagrees across eps by {spread:.2%}: {per_eps}")
        nw = cfg["modes_noise"]
        g2 = cfg["noise.g0"] ** 2
        lam = eigenvalues(cfg["L"], nw)
        low = g2 * nw / 4.0
        high = g2 * float(np.sum(scheme_weights(lam, cfg["dt"])))
        for eps, value in per_eps.items():
            fails += _equipartition_bracket(value, low, high, f"eps={eps}")
    return fails


def check_multiplicative(outdir: Path, cfg: dict, profile_csv: Path,
                         statistical: bool = True) -> list[str]:
    """summary.json against samples.csv, the intensity floor, and equipartition."""
    fails = []
    summary = read_json(outdir / "summary.json")
    samples = read_csv(outdir / "samples.csv")
    g0 = cfg["noise.g0"]
    if not summary["g_min"] >= g0:
        fails.append(f"g_min {summary['g_min']!r} below the floor g0 = {g0!r}")
    mean = float(np.mean(samples["energy_star"]))
    if not math.isclose(summary["energy_star"]["mean"], mean, rel_tol=1e-12, abs_tol=0.0):
        fails.append(f"summary mean E* {summary['energy_star']['mean']!r}, "
                     f"samples.csv mean {mean!r}")
    if statistical:
        prof = read_csv(profile_csv)
        g = intensity(cfg["noise.kind"], g0, cfg["noise.c"], prof["value"])
        q = projected_noise_variance(cfg["L"], prof["xi"], g, cfg["modes"], cfg["modes_noise"])
        low = float(np.sum(q)) / 4.0
        high = multiplicative_upper(cfg)
        fails += _equipartition_bracket(mean / cfg["eps"][0], low, high,
                                        f"eps={cfg['eps'][0]}")
    return fails


def multiplicative_upper(cfg: dict) -> float:
    """Scheme equipartition value under any state with g0 <= g <= g0 + c.

    Q_kk(u) = sum_{l <= N_W} <e_k, g(u) e_l>^2 is the noise variance of mode k
    at state u.  By Bessel's inequality Q_kk <= |g e_k|^2 <= (g0 + c)^2.  For
    k > N_W, e_k is orthogonal to every noised e_l, so only h = g - g0 <= c
    feeds it: Q_kk <= c^2, and sum_{k > N_W} Q_kk <= sum_{l <= N_W} |h e_l|^2
    <= N_W c^2.  The scheme's weights grow with k, so the largest sum is
    (g0 + c)^2 on every k <= N_W and c^2 on the N_W highest modes above it.
    """
    nw, g0, c = cfg["modes_noise"], cfg["noise.g0"], cfg["noise.c"]
    w = scheme_weights(eigenvalues(cfg["L"], cfg["modes"]), cfg["dt"])
    return (g0 + c) ** 2 * float(np.sum(w[:nw])) + c ** 2 * float(np.sum(w[nw:][-nw:]))


def check_mam(outdir: Path, noise: dict, two_estar: float,
              statistical: bool = True) -> list[str]:
    """The minimized action U against 2E* from the benchmark's own quadrature.

    Unit intensity: U within 5% of 2E*.  An intensity g with
    g0 <= g <= g0 + c: 0.95 * 2E* / (g0 + c)^2 <= U <= 1.05 * 2E* / g0^2.
    `converged` is not read: it is true whatever L-BFGS did.
    """
    if not statistical:
        return []
    value = read_json(outdir / "mam.json")["value"]
    g0, c = noise["noise.g0"], noise.get("noise.c", 0.0)
    if noise["noise.kind"] == "constant":
        lo, hi = (1.0 - MAM_TOL) * two_estar / g0 ** 2, (1.0 + MAM_TOL) * two_estar / g0 ** 2
    else:
        lo, hi = (1.0 - MAM_TOL) * two_estar / (g0 + c) ** 2, (1.0 + MAM_TOL) * two_estar / g0 ** 2
    if not lo <= value <= hi:
        return [f"{outdir.name}: U = {value!r} outside [{lo:.6g}, {hi:.6g}] (2E* = {two_estar:.6g})"]
    return []
