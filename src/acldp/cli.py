"""Experiment runner: subcommands over a shared flat config.

    acldp profile --set L=10 --out results/
    acldp flow --set T=40 --set init=zero
    acldp mam --target zeta.csv --T-ladder 3
    acldp concentration --config exp.cfg

Every run echoes the resolved config into the output directory and writes a
manifest (config hash, version, wall time, seed, and the worker processes of
the sampler's chunk pool).  Exit codes: 0 ok, 1 numerical failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .action import action, mam_minimize
from .config import (ExperimentConfig, apply_override, default_config,
                     parse_config, validate_config)
from .energy import energy_report
from .errors import ConfigurationError, NumericalError
from .flow import Path, gradient_flow, steps_of
from .grid import Boundary, Field
from .io import (read_field_csv, read_path_csv, read_text, write_csv,
                 write_field_csv, write_json)
from .pipeline import (domain_from_config, noise_from_config, run_concentration,
                       sde_params_from_config)
from .profile import compute_profile
from .spde import (MIN_SAMPLES, EnsembleResult, check_sampler_size, ensemble_run,
                   sample_invariant, sampler_processes)


def _load_config(args) -> ExperimentConfig:
    cfg = default_config()
    if args.config:
        text = read_text(args.config)
        try:
            cfg = parse_config(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{args.config}: {exc}") from None
    for item in args.set or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        apply_override(cfg, key.strip(), val.strip())
    if getattr(args, "t_ladder", None) is not None:
        apply_override(cfg, "action.ladder", args.t_ladder)
    if args.out:
        cfg.values["output.dir"] = args.out
    validate_config(cfg)
    return cfg


def _write_samples(path: FsPath, ens: EnsembleResult) -> None:
    """The samples CSV of one eps level: one row per chain and sample time,
    chain-major, with integer chain ids."""
    n_chains, n_t = ens.obs["sup_norm"].shape
    write_csv(path, dict(chain=np.repeat(np.arange(n_chains), n_t),
                         t=np.tile(ens.t_samples, n_chains),
                         **{k: ens.obs[k].ravel()
                            for k in ("sup_norm", "energy_star", "sobolev_norm", "dist_sup")}))


def _write_finite_json(path: FsPath, payload: dict) -> None:
    """write_json, or a NumericalError and no file when a float of the payload
    is not finite (an input that overflowed the computation)."""
    bad = [k for k, v in payload.items() if isinstance(v, float) and not np.isfinite(v)]
    if bad:
        raise NumericalError(f"{', '.join(bad)} not finite: the input overflows the computation")
    write_json(path, payload)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_profile(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    prof = compute_profile(d)
    write_field_csv(outdir / "profile.csv", d, prof.m)
    write_json(outdir / "profile.json",
               dict(L=d.L, e_L=prof.e_L, energy=prof.energy_value))


def _cmd_energy(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    boundary = Boundary.RAMP_DIRICHLET if args.bc == "ramp" else Boundary.ZERO_DIRICHLET
    f = read_field_csv(args.input, d, boundary)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = energy_report(d, f)
    _write_finite_json(outdir / "energy.json",
                       dict(value=rep.value, gradient_norm=rep.gradient_norm,
                            proximity=rep.proximity, bc=args.bc))


def _initial_field(cfg, d):
    init = cfg["init"]
    if init == "zero":
        return Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET)
    if init == "profile":
        return Field(compute_profile(d).shifted_values(d), Boundary.ZERO_DIRICHLET)
    return read_field_csv(init, d, Boundary.ZERO_DIRICHLET)


def _cmd_flow(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    x = _initial_field(cfg, d)
    res = gradient_flow(d, x, dt=cfg["dt"], T=cfg["T"], stop_tol=cfg["stop_tol"])
    write_csv(outdir / "flow.csv",
              {"t": res.t, "energy_star": res.energy_star,
               "grad_norm": res.grad_norm, "dist_to_profile": res.dist_sup})
    write_json(outdir / "flow.json",
               dict(T=cfg["T"], dt=cfg["dt"], stopped_early=res.stopped_early,
                    terminal_energy_star=float(res.energy_star[-1]),
                    terminal_grad_norm=float(res.grad_norm[-1]),
                    terminal_dist=float(res.dist_sup[-1])))


def _cmd_sde(args, cfg, outdir, warnings):
    n_steps = steps_of(cfg["T"], cfg["dt"], "T")
    every = steps_of(cfg["stride"], cfg["dt"], "stride")
    check_sampler_size(n_steps, 1, cfg["n_chains"], n_steps // every + 1)   # before arange
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    eps = cfg["eps"][0]
    p = sde_params_from_config(cfg, eps)
    x = _initial_field(cfg, d)
    times = tuple(cfg["dt"] * np.arange(0, n_steps + 1, every))
    ens = ensemble_run(d, x, nm, p, cfg["T"], cfg["n_chains"],
                       kstar=cfg["kstar"], pstar=cfg["pstar"],
                       sample_times=times, workers=cfg["workers"])
    _write_samples(outdir / "sde.csv", ens)
    write_json(outdir / "sde.json",
               dict(eps=eps, T=cfg["T"], n_chains=cfg["n_chains"], g_min=ens.g_min,
                    mean_terminal_energy_star=float(np.mean(ens.obs["energy_star"][:, -1]))))


def _summary_stats(values: np.ndarray) -> dict:
    qs = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    return dict(mean=float(np.mean(values)), q05=float(qs[0]), q25=float(qs[1]),
                median=float(qs[2]), q75=float(qs[3]), q95=float(qs[4]))


def _cmd_invariant(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    eps = cfg["eps"][0]
    ens = sample_invariant(d, nm, sde_params_from_config(cfg, eps), burn_in=cfg["burn_in"],
                           n_samples=cfg["n_samples"], stride=cfg["stride"],
                           n_chains=cfg["n_chains"], kstar=cfg["kstar"], pstar=cfg["pstar"],
                           workers=cfg["workers"])
    warnings.extend(ens.warnings)
    _write_samples(outdir / "samples.csv", ens)
    pooled = ens.obs["sup_norm"].size
    write_json(outdir / "summary.json", dict(
        eps=eps, n_samples=pooled, burn_in=cfg["burn_in"], stride=cfg["stride"],
        g_min=ens.g_min, undersampled=pooled < MIN_SAMPLES,
        **{k: _summary_stats(ens.obs[k])
           for k in ("sup_norm", "dist_sup", "energy_star", "sobolev_norm")}))


def _cmd_action(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    t, values = read_path_csv(args.path)
    if values.shape[1] != d.n:
        raise ConfigurationError(
            f"path file {args.path} has {values.shape[1]} grid columns, domain needs {d.n}")
    pth = Path(values, Boundary.ZERO_DIRICHLET, float(t[1] - t[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        res = action(pth, nm, d)
    _write_finite_json(outdir / "action.json",
                       dict(value=res.value, steps=pth.n_steps,
                            residual_max=float(np.max(res.residual_series))))


def _cmd_mam(args, cfg, outdir, warnings):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    zeta = read_field_csv(args.target, d, Boundary.ZERO_DIRICHLET)
    res = mam_minimize(d, zeta, nm, cfg["action.t0"], cfg["action.steps"],
                       ladder=cfg["action.ladder"])
    write_json(outdir / "mam.json",
               dict(value=res.value, iterations=res.iterations,
                    converged=res.converged,
                    sandwich_check=res.info["sandwich"],
                    ladder=res.info["ladder"]))


def _cmd_concentration(args, cfg, outdir, warnings):
    result = run_concentration(cfg)
    warnings.extend(result.warnings)
    reps = (result.report_delta, result.report_2delta)
    write_csv(outdir / "tails.csv", dict(
        eps=np.concatenate([rep.eps for rep in reps]),
        delta=np.repeat([rep.threshold for rep in reps], [len(rep.eps) for rep in reps]),
        **{k: np.concatenate([getattr(rep, k) for rep in reps]) for k in ("p_hat", "lo", "hi")}))
    tight = result.tightness
    write_json(outdir / "tail_reports.json", dict(
        delta=reps[0].threshold, slope_ratio=result.slope_ratio,
        reports=[{("delta" if k == "threshold" else k): v for k, v in vars(rep).items()}
                 for rep in reps],                # every field, the threshold as `delta`
        tightness=dict(radius=tight.threshold, eps=tight.eps, exceedance=tight.p_hat,
                       lo=tight.lo, hi=tight.hi, nonincreasing=result.nonincreasing)))
    for ens in result.measures:
        _write_samples(outdir / f"samples_eps{ens.eps!r}.csv", ens)


# The commands that use `workers`: they spread their chain chunks over the
# sampler's pool (`spde.sampler_processes`).  Every other command runs in the
# calling process.
SAMPLERS = ("sde", "invariant", "concentration")


COMMANDS = {
    "profile": _cmd_profile,
    "energy": _cmd_energy,
    "flow": _cmd_flow,
    "sde": _cmd_sde,
    "invariant": _cmd_invariant,
    "action": _cmd_action,
    "mam": _cmd_mam,
    "concentration": _cmd_concentration,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acldp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)     # `--T` is not `--T-ladder`
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (default from config)")
        if name == "energy":
            p.add_argument("--input", required=True, help="field CSV (xi, value)")
            p.add_argument("--bc", choices=("ramp", "zero"), default="ramp")
        if name == "action":
            p.add_argument("--path", required=True, help="path CSV (t, z0..z{n-1})")
        if name == "mam":
            p.add_argument("--target", required=True, help="target state CSV (xi, value)")
            p.add_argument("--T-ladder", dest="t_ladder",
                           help="number of horizon-doubling rungs (action.ladder)")
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    warnings: list[str] = []
    code = 1                           # a numerical failure, or an exception that escapes
    outdir = None
    try:
        cfg = _load_config(args)
        out = FsPath(cfg["output.dir"])
        out.mkdir(parents=True, exist_ok=True)
        outdir = out                   # a manifest goes only into a directory that exists
        (outdir / "resolved.cfg").write_text(cfg.canonical_text())
        COMMANDS[args.command](args, cfg, outdir, warnings)
        code = 0
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
    finally:
        if outdir is not None:
            workers = (sampler_processes(cfg["workers"], cfg["n_chains"])
                       if args.command in SAMPLERS else 1)
            try:
                write_json(outdir / "manifest.json", dict(
                    command=args.command, config_hash=cfg.config_hash(),
                    version=__version__, wall_time_s=time.time() - started,
                    seed=cfg["seed"], partial=code != 0, warnings=warnings, workers=workers))
            except OSError as exc:
                print(f"configuration error: {exc}", file=sys.stderr)
                code = 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
