"""One benchmark round in a fresh process.

    python3 bench/worker.py --workload W --seed S --round-dir DIR [--smoke]
                            [--setup-only] [--trace FILE]

Imports acldp from the checkout's `src`, solves the profile of the workload's
domain (the set-up), writes the round's inputs, then runs the round's `acldp`
invocations in this process through `acldp.cli.run`, timing each.  The result
goes to DIR/worker.json; `setup_done` is a wall-clock stamp that the runner
subtracts from the moment it started this process.  With --trace the
package's functions run inside spans (see spans.py) and the per-layer
metrics are added to the result; the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    # acldp.cli lets ACLDP_WORKERS override the config's worker count; the
    # workloads run on one worker thread, and spans.py needs that too.
    os.environ.pop("ACLDP_WORKERS", None)
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import acldp.cli
    import_s = time.perf_counter() - t_import
    if not Path(acldp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"acldp imported from {acldp.__file__}, not from {ROOT / 'src'}")
    from acldp.grid import build_domain
    from acldp.profile import compute_profile

    import workloads

    tracer = missing = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        missing = spans.install(tracer)

    dom = workloads.domain_of(workloads.config_of(args.workload, args.seed, args.smoke))
    compute_profile(build_domain(dom["L"], dom["n"], dom["modes"]))
    result = {"setup_done": time.time(), "import_s": import_s}
    rounddir = Path(args.round_dir)
    rounddir.mkdir(parents=True, exist_ok=True)
    if not args.setup_only:
        workloads.prepare(args.workload, args.seed, rounddir, args.smoke, acldp.cli.run)
        cpu0 = os.times()
        ops = []
        for op in workloads.plan(args.workload, args.seed, rounddir, args.smoke):
            t0 = time.perf_counter()
            try:
                rc = acldp.cli.run(op.argv)
            except Exception:          # an uncaught error is what the CLI exits 1 on
                traceback.print_exc()
                rc = 1
            ops.append({"name": op.name, "rc": rc, "seconds": time.perf_counter() - t0})
        cpu1 = os.times()
        solve_s = sum(op["seconds"] for op in ops)
        cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        result.update(
            ops=ops, solve_s=solve_s,
            process={"process.cpu_s": cpu_s, "process.cpu_util": cpu_s / solve_s,
                     "process.peak_rss_mib":
                         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        if tracer is not None:
            result["layers"] = spans.available(spans.layer_metrics(tracer), missing)
            result["missing"] = missing
            tracer.save(args.trace)
    (rounddir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
