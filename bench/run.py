"""Benchmark of the acldp CLI on three workloads.

    python3 bench/run.py --workload concentration --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; acldp is imported from its `src`.  Every
round runs in a fresh worker process (worker.py), and the runner checks each
operation's output (checks.py) before it counts it.

--trace 0   set-up probes, then whole rounds until --seconds of solve time:
            prints setup_s (median over fresh processes that import acldp and
            solve the workload's profile) and solve_s (median round time).
--trace 1   one untraced round, then one traced round: prints the per-layer
            metrics, process figures from the untraced round, and
            trace.overhead_s, the traced minus the untraced solve time.
--smoke     toy sizes through the same code, exact checks only.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation fails when its `acldp` exit code
is not 0; `correct` is false when an operation that exited 0 wrote output that
fails a check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170      # under the 180 s a run may take, so no worker outlives its runner


def _worker(workload: str, seed: int, rounddir: Path, smoke: bool,
            setup_only: bool = False, trace: Path | None = None) -> tuple[dict | None, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round-dir", str(rounddir)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, stdout=2, timeout=WORKER_TIMEOUT_S)   # fd 2: our stdout carries only the result
    result_path = rounddir / "worker.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None, started
    return json.loads(result_path.read_text()), started


def setup_time(workload: str, seed: int, smoke: bool, tag: str) -> float:
    rounddir = RUNS / f"{tag}-setup"
    result, started = _worker(workload, seed, rounddir, smoke, setup_only=True)
    shutil.rmtree(rounddir, ignore_errors=True)
    if result is None:
        raise RuntimeError("set-up probe failed")
    return result["setup_done"] - started


def run_round(workload: str, seed: int, smoke: bool, tag: str, keep: bool = False,
              trace: Path | None = None) -> dict:
    """One round in a fresh worker, then the checks on every operation."""
    rounddir = RUNS / tag
    shutil.rmtree(rounddir, ignore_errors=True)
    result, _ = _worker(workload, seed, rounddir, smoke, trace=trace)
    ops = workloads.plan(workload, seed, rounddir, smoke)
    failed, wrong = len(ops), []
    if result is not None:
        failed = 0
        for op, done in zip(ops, result["ops"]):
            if done["rc"] != 0:
                failed += 1
                print(f"{op.name}: acldp exited {done['rc']}", file=sys.stderr)
                continue
            wrong += checks.check_run(op.outdir, done["rc"], op.sampler) + op.check()
    for msg in wrong:
        print(f"check failed: {msg}", file=sys.stderr)
    if not keep:
        shutil.rmtree(rounddir, ignore_errors=True)
    return {"attempted": len(ops), "failed": failed, "correct": not wrong,
            "worker": result}


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def report(rounds: list[dict], values: dict, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured (seam missing or round failed): {missing}",
              file=sys.stderr)
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, exact checks only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "acldp" / "cli.py").is_file():
        print(f"no acldp sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    units = metric_units()
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"

    if args.trace == 0:
        setups = [setup_time(args.workload, args.seed, args.smoke, tag)
                  for _ in range(SETUP_PROBES)]
        rounds = []
        while not rounds or sum(r["worker"]["solve_s"] for r in rounds) < args.seconds:
            rounds.append(run_round(args.workload, args.seed, args.smoke,
                                    f"{tag}-r{len(rounds)}"))
            if rounds[-1]["worker"] is None:
                break
        solves = [r["worker"]["solve_s"] for r in rounds if r["worker"] is not None]
        values = {"setup_s": statistics.median(setups)}
        if solves:
            values["solve_s"] = statistics.median(solves)
        out = report(rounds, values, units["end_to_end"])
    else:
        plain = run_round(args.workload, args.seed, args.smoke, f"{tag}-plain")
        traced = run_round(args.workload, args.seed, args.smoke, f"{tag}-traced",
                           trace=RUNS / f"{args.workload}.spans.npz")
        values = {}
        if plain["worker"] is not None and traced["worker"] is not None:
            values.update(traced["worker"]["layers"])
            values.update(plain["worker"]["process"])
            values["cli.import_s"] = plain["worker"]["import_s"]
            values["trace.overhead_s"] = (traced["worker"]["solve_s"]
                                          - plain["worker"]["solve_s"])
            if traced["worker"]["missing"]:
                print(f"seams missing: {traced['worker']['missing']}", file=sys.stderr)
        out = report([plain, traced], values, units["per_layer"])

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
