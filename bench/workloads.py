"""The benchmark's workloads: configs, seeded inputs and the CLI operations of
one round, with the checks that each operation's output must pass.

A round is the same list of `acldp` invocations on every seed; the seed only
changes their inputs (the sampler's master seed, the MAM targets' amplitudes).
`plan` is a pure function of (workload, seed, round directory, smoke), so the
worker that runs a round and the runner that checks it build the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("concentration", "multiplicative", "mam")

SAMPLER = {"L": 2.0, "n": 255, "modes": 128, "modes_noise": 64, "dt": 1e-3,
           "n_chains": 64, "burn_in": 8.0, "noise.kind": "constant",
           "noise.g0": 1.0, "noise.c": 0.0}
SAMPLER_SMOKE = {"n": 63, "modes": 32, "modes_noise": 16, "n_chains": 8}
SAMPLER_SMOKE_SAMPLES = {"concentration": {"n_samples": 240, "stride": 0.25},
                         "multiplicative": {"n_samples": 120, "stride": 0.25}}

CONCENTRATION = dict(SAMPLER, eps=[0.1, 0.05, 0.025], stride=0.5, n_samples=640)
MULTIPLICATIVE = dict(SAMPLER, eps=[0.05], stride=1.0, n_samples=320,
                      **{"noise.kind": "smooth_bounded_below", "noise.g0": 0.5,
                         "noise.c": 0.8})

MAM = {"L": 2.0, "n": 63, "modes": 63, "action.t0": 6.0, "action.steps": 96}
MAM_LADDER = 3
MAM_SMOKE = {"n": 31, "modes": 31, "action.steps": 16}
UNIT = {"noise.kind": "constant", "noise.g0": 1.0, "noise.c": 0.0}
CRITERION_4 = {"noise.kind": "smooth_bounded_below", "noise.g0": 0.6, "noise.c": 0.8}
# Criterion 5's five target states: the equilibrium plus these (k, a_k e_k).
TARGETS = [
    [(1, 0.25)],
    [(1, -0.2), (2, 0.1)],
    [(2, 0.2), (3, -0.1)],
    [(1, 0.15), (3, 0.1), (4, -0.05)],
    [(1, -0.1), (2, -0.1), (5, 0.05)],
]
TARGET_JITTER = 0.05      # each amplitude scaled by 1 + U(-0.05, 0.05) from the seed


@dataclass
class Op:
    """One `acldp` invocation and the check its output must pass."""

    name: str
    argv: list[str]
    outdir: Path
    sampler: bool
    check: Callable[[], list[str]] = field(repr=False)


def set_args(cfg: dict) -> list[str]:
    args = []
    for key, value in cfg.items():
        text = ",".join(repr(v) for v in value) if isinstance(value, list) else str(value)
        args += ["--set", f"{key}={text}"]
    return args


def domain_of(cfg: dict) -> dict:
    return {k: cfg[k] for k in ("L", "n", "modes")}


def mam_targets(seed: int) -> list[list[tuple[int, float]]]:
    rng = np.random.default_rng(seed)
    return [[(k, a * (1.0 + TARGET_JITTER * rng.uniform(-1.0, 1.0))) for k, a in spec]
            for spec in TARGETS]


def config_of(workload: str, seed: int, smoke: bool) -> dict:
    if workload == "mam":
        return dict(MAM, **MAM_SMOKE) if smoke else dict(MAM)
    cfg = dict(CONCENTRATION if workload == "concentration" else MULTIPLICATIVE, seed=seed)
    if smoke:
        cfg.update(SAMPLER_SMOKE, **SAMPLER_SMOKE_SAMPLES[workload])
    return cfg


def write_targets(seed: int, rounddir: Path) -> None:
    """Field CSVs of the MAM targets, zeta = (m - psi) + sum a_k e_k, built from
    the `acldp profile` output with the benchmark's own basis."""
    prof = checks.read_csv(rounddir / "profile" / "profile.csv")
    xi, m = prof["xi"], prof["value"]
    L = MAM["L"]
    for i, spec in enumerate(mam_targets(seed)):
        ks = [k for k, _ in spec]
        e = checks.basis(L, xi, max(ks))
        zeta = m - xi / L + sum(a * e[k - 1] for k, a in spec)
        lines = ["xi,value"] + [f"{x!r},{v!r}" for x, v in zip(xi.tolist(), zeta.tolist())]
        (rounddir / f"target{i}.csv").write_text("\n".join(lines) + "\n")


def plan(workload: str, seed: int, rounddir: Path, smoke: bool = False) -> list[Op]:
    """The operations of one round, in the order they run."""
    statistical = not smoke
    cfg = config_of(workload, seed, smoke)
    if workload == "concentration":
        out = rounddir / "concentration"
        return [Op("concentration", ["concentration", "--out", str(out), *set_args(cfg)],
                   out, True, lambda: checks.check_concentration(out, cfg, statistical))]
    if workload == "multiplicative":
        out = rounddir / "invariant"
        prof = rounddir / "profile" / "profile.csv"
        return [Op("invariant", ["invariant", "--out", str(out), *set_args(cfg)],
                   out, True,
                   lambda: checks.check_multiplicative(out, cfg, prof, statistical))]
    ops = []
    ladder = "1" if smoke else str(MAM_LADDER)
    for i, spec in enumerate(mam_targets(seed)):
        for label, noise in (("unit", UNIT), ("criterion4", CRITERION_4)):
            out = rounddir / f"mam{i}_{label}"

            def check(out=out, spec=spec, noise=noise):
                prof = checks.read_csv(rounddir / "profile" / "profile.csv")
                two_estar = 2.0 * checks.shifted_energy(cfg["L"], prof["xi"], prof["value"], spec)
                return checks.check_mam(out, noise, two_estar, statistical)

            ops.append(Op(f"mam{i}_{label}",
                          ["mam", "--target", str(rounddir / f"target{i}.csv"),
                           "--out", str(out), "--T-ladder", ladder,
                           *set_args(dict(cfg, **noise))],
                          out, False, check))
    return ops


def prepare(workload: str, seed: int, rounddir: Path, smoke: bool, cli_run) -> None:
    """Write the round's inputs; `cli_run` is `acldp.cli.run`.  The profile
    written by `acldp profile` is input preparation and is not timed."""
    rounddir.mkdir(parents=True, exist_ok=True)
    if workload in ("multiplicative", "mam"):
        domain = domain_of(config_of(workload, seed, smoke))
        rc = cli_run(["profile", "--out", str(rounddir / "profile"), *set_args(domain)])
        if rc != 0:
            raise RuntimeError(f"acldp profile exited {rc} while preparing inputs")
    if workload == "mam":
        write_targets(seed, rounddir)
