"""Experiment runner: subcommands over a shared flat config.

    acldp profile --L 10 --out results/
    acldp flow --set T=40 --set init=zero
    acldp invariant --config exp.cfg
    acldp concentration --config exp.cfg

Every run echoes the resolved config into the output directory and writes a
manifest (config hash, version, wall time, seed, worker processes: the
sampler's chunk pool or mam's rung pool).  Exit
codes: 0 ok, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
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
from .flow import Path, gradient_flow
from .grid import Boundary, Field
from .io import (read_field_csv, read_path_csv, read_text, write_csv,
                 write_field_csv, write_json)
from .pipeline import (domain_from_config, noise_from_config, run_concentration,
                       sde_params_from_config)
from .pool import pool_size
from .profile import compute_profile
from .spde import chain_chunks, ensemble_run, sample_invariant


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
    for key in ("L", "T"):
        flag = getattr(args, key, None)
        if flag is not None:
            apply_override(cfg, key, str(flag))
    if getattr(args, "init", None):
        apply_override(cfg, "init", args.init)
    if args.out:
        cfg.values["output.dir"] = args.out
    env_workers = os.environ.get("ACLDP_WORKERS")
    if env_workers:
        apply_override(cfg, "workers", env_workers)
    validate_config(cfg)
    return cfg


def _tail_report_json(rep) -> dict:
    return dict(delta=rep.delta, eps=list(rep.eps_grid), p_hat=list(rep.p_hat),
                lo=list(rep.lo), hi=list(rep.hi),
                counts=[int(c) for c in rep.counts], n=[int(v) for v in rep.n],
                slope=rep.slope, r2=rep.r2, slope_valid=rep.slope_valid)


def _samples_csv_columns(s: dict) -> dict:
    return {k: np.ravel(s[k]) for k in
            ("chain", "t", "sup_norm", "energy_star", "sobolev_norm", "dist_sup")}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_profile(cfg, outdir, warnings):
    d = domain_from_config(cfg)
    prof = compute_profile(d)
    write_field_csv(outdir / "profile.csv", d, prof.m)
    write_json(outdir / "profile.json",
               dict(L=d.L, e_L=prof.e_L, energy=prof.energy_value))


def _cmd_energy(cfg, outdir, warnings, input_path=None, bc="ramp"):
    if input_path is None:
        raise ConfigurationError("energy needs --input field.csv")
    d = domain_from_config(cfg)
    prof = compute_profile(d)
    boundary = Boundary.RAMP_DIRICHLET if bc == "ramp" else Boundary.ZERO_DIRICHLET
    f = read_field_csv(input_path, d, boundary)
    rep = energy_report(d, f, prof)
    write_json(outdir / "energy.json",
               dict(value=rep.value, gradient_norm=rep.gradient_norm,
                    proximity=rep.proximity, bc=bc))


def _initial_field(cfg, d, prof):
    init = cfg["init"]
    if init == "zero":
        return Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET)
    if init == "profile":
        return Field(prof.shifted_values(d), Boundary.ZERO_DIRICHLET)
    return read_field_csv(init, d, Boundary.ZERO_DIRICHLET)


def _cmd_flow(cfg, outdir, warnings):
    d = domain_from_config(cfg)
    prof = compute_profile(d)
    x = _initial_field(cfg, d, prof)
    res = gradient_flow(d, x, dt=cfg["dt"], T=cfg["T"], stop_tol=cfg["stop_tol"],
                        record_every=max(1, int(round(cfg["T"] / cfg["dt"] / 2000))),
                        profile=prof)
    write_csv(outdir / "flow.csv",
              {"t": res.t, "energy_star": res.energy_star,
               "grad_norm": res.grad_norm, "dist_to_profile": res.dist_sup})
    write_json(outdir / "flow.json",
               dict(T=cfg["T"], dt=cfg["dt"], stopped_early=res.stopped_early,
                    terminal_energy_star=float(res.energy_star[-1]),
                    terminal_grad_norm=float(res.grad_norm[-1]),
                    terminal_dist=float(res.dist_sup[-1])))


def _cmd_sde(cfg, outdir, warnings):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    prof = compute_profile(d)
    eps = cfg["eps"][0]
    p = sde_params_from_config(cfg, eps)
    x = _initial_field(cfg, d, prof)
    times = tuple(np.arange(0.0, cfg["T"] + 1e-12, cfg["stride"]))
    ens = ensemble_run(d, x, nm, p, cfg["T"], cfg["n_chains"], profile=prof,
                       kstar=cfg["kstar"], pstar=cfg["pstar"],
                       sample_times=times, workers=cfg["workers"])
    n_chains, n_t = ens.obs["sup_norm"].shape
    write_csv(outdir / "sde.csv", _samples_csv_columns(dict(
        ens.obs, chain=np.repeat(np.arange(n_chains), n_t), t=np.tile(ens.t_samples, n_chains))))
    write_json(outdir / "sde.json",
               dict(eps=eps, T=cfg["T"], n_chains=n_chains, g_min=ens.g_min,
                    mean_terminal_energy_star=float(np.mean(ens.obs["energy_star"][:, -1]))))


def _summary_stats(values: np.ndarray) -> dict:
    qs = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    return dict(mean=float(np.mean(values)), q05=float(qs[0]), q25=float(qs[1]),
                median=float(qs[2]), q75=float(qs[3]), q95=float(qs[4]))


def _cmd_invariant(cfg, outdir, warnings):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    prof = compute_profile(d)
    eps = cfg["eps"][0]
    em = sample_invariant(d, nm, sde_params_from_config(cfg, eps), burn_in=cfg["burn_in"],
                          n_samples=cfg["n_samples"], stride=cfg["stride"],
                          n_chains=cfg["n_chains"], profile=prof,
                          kstar=cfg["kstar"], pstar=cfg["pstar"],
                          workers=cfg["workers"])
    warnings.extend(em.warnings)
    write_csv(outdir / "samples.csv", _samples_csv_columns(em.samples))
    tail_counts = {}
    for q in (0.5, 0.75, 0.9):
        thr = float(np.quantile(em.samples["dist_sup"], q))
        tail_counts[f"dist_ge_q{int(q * 100)}"] = int(np.sum(em.samples["dist_sup"] >= thr))
    write_json(outdir / "summary.json", dict(
        eps=eps, n_samples=em.n_samples, burn_in=em.burn_in, stride=em.sample_stride,
        g_min=em.g_min, undersampled=em.undersampled,
        sup_norm=_summary_stats(em.samples["sup_norm"]),
        dist_sup=_summary_stats(em.samples["dist_sup"]),
        energy_star=_summary_stats(em.samples["energy_star"]),
        sobolev_norm=_summary_stats(em.samples["sobolev_norm"]),
        tail_counts=tail_counts))


def _cmd_action(cfg, outdir, warnings, path_file=None):
    if path_file is None:
        raise ConfigurationError("action needs --path path.csv")
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    t, values = read_path_csv(path_file)
    if values.shape[1] != d.n:
        raise ConfigurationError(
            f"path file {path_file} has {values.shape[1]} grid columns, domain needs {d.n}")
    pth = Path(values, Boundary.ZERO_DIRICHLET, float(t[0]), float(t[1] - t[0]))
    res = action(pth, nm, d)
    write_json(outdir / "action.json",
               dict(value=res.value, steps=pth.n_steps,
                    residual_max=float(np.max(res.residual_series))))


def _cmd_mam(cfg, outdir, warnings, target_file=None, ladder=None):
    d = domain_from_config(cfg)
    nm = noise_from_config(cfg)
    prof = compute_profile(d)
    if target_file is None:
        raise ConfigurationError("mam needs --target zeta.csv")
    zeta = read_field_csv(target_file, d, Boundary.ZERO_DIRICHLET)
    if ladder is None:
        ladder = cfg["action.ladder"]
    res = mam_minimize(d, zeta, nm, cfg["action.t0"], cfg["action.steps"],
                       ladder=ladder, profile=prof, workers=cfg["workers"])
    write_json(outdir / "mam.json",
               dict(value=res.value, iterations=res.iterations,
                    converged=res.converged,
                    sandwich_check=res.info["sandwich"],
                    ladder=res.info["ladder"]))


def _cmd_concentration(cfg, outdir, warnings, write_samples=True):
    """`concentration`, and `ldp-tail` with write_samples=False."""
    result = run_concentration(cfg)
    warnings.extend(result.warnings)
    rows = {"eps": [], "delta": [], "p_hat": [], "lo": [], "hi": []}
    for rep in (result.report_delta, result.report_2delta):
        for i, eps in enumerate(rep.eps_grid):
            rows["eps"].append(eps)
            rows["delta"].append(rep.delta)
            rows["p_hat"].append(rep.p_hat[i])
            rows["lo"].append(rep.lo[i])
            rows["hi"].append(rep.hi[i])
    write_csv(outdir / "tails.csv", {k: np.asarray(v) for k, v in rows.items()})
    tight = result.tightness
    write_json(outdir / "tail_reports.json", dict(
        delta=result.delta, slope_ratio=result.slope_ratio,
        reports=[_tail_report_json(result.report_delta),
                 _tail_report_json(result.report_2delta)],
        tightness=dict(radius=result.radius, eps=list(tight["eps"]),
                       exceedance=[e.p_hat for e in tight["estimates"]],
                       lo=[e.lo for e in tight["estimates"]],
                       hi=[e.hi for e in tight["estimates"]],
                       nonincreasing=tight["nonincreasing"])))
    if write_samples:
        for em in result.measures:
            write_csv(outdir / f"samples_eps{em.eps!r}.csv", _samples_csv_columns(em.samples))


# The commands that use `workers`: the samplers spread their chain chunks
# over the pool, `mam` its horizon rungs.
SAMPLERS = ("sde", "invariant", "ldp-tail", "concentration")


def _pool_tasks(command: str, cfg, ladder: int | None) -> int:
    """Independent tasks `command` hands to `pool.fork_map`."""
    if command in SAMPLERS:
        return len(chain_chunks(cfg["n_chains"]))
    if command == "mam":
        return cfg["action.ladder"] if ladder is None else ladder
    return 1


COMMANDS = {
    "profile": _cmd_profile,
    "energy": _cmd_energy,
    "flow": _cmd_flow,
    "sde": _cmd_sde,
    "invariant": _cmd_invariant,
    "action": _cmd_action,
    "mam": _cmd_mam,
    "ldp-tail": functools.partial(_cmd_concentration, write_samples=False),
    "concentration": _cmd_concentration,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acldp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--L", type=float, help="half-length override")
        p.add_argument("--T", type=float, help="horizon override")
        if name == "flow":
            p.add_argument("--init", help="zero | profile | custom.csv")
        if name == "energy":
            p.add_argument("--input", required=True, help="field CSV (xi, value)")
            p.add_argument("--bc", choices=("ramp", "zero"), default="ramp")
        if name == "action":
            p.add_argument("--path", required=True, help="path CSV (t, z0..z{n-1})")
        if name == "mam":
            p.add_argument("--target", required=True, help="target state CSV (xi, value)")
            p.add_argument("--T-ladder", type=int, dest="t_ladder",
                           help="number of horizon-doubling rungs")
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    warnings: list[str] = []
    partial = True
    outdir = None
    cfg = None
    try:
        cfg = _load_config(args)
        outdir = FsPath(cfg["output.dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "resolved.cfg").write_text(cfg.canonical_text())
        kwargs = {}
        if args.command == "energy":
            kwargs = dict(input_path=args.input, bc=args.bc)
        elif args.command == "action":
            kwargs = dict(path_file=args.path)
        elif args.command == "mam":
            kwargs = dict(target_file=args.target, ladder=args.t_ladder)
        COMMANDS[args.command](cfg, outdir, warnings, **kwargs)
        partial = False
        return 0
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    finally:
        if outdir is not None and cfg is not None:
            workers = pool_size(cfg["workers"], _pool_tasks(
                args.command, cfg, getattr(args, "t_ladder", None)))
            write_json(outdir / "manifest.json", dict(
                command=args.command, config_hash=cfg.config_hash(),
                version=__version__, wall_time_s=time.time() - started,
                seed=cfg["seed"], partial=partial, warnings=warnings,
                workers=workers))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
