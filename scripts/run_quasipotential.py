#!/usr/bin/env python3
"""Quasi-potential sweep over perturbation amplitudes.

For a ladder of target states zeta = (m - psi) + a * e_k, minimizes the path
action from the equilibrium and compares against twice the shifted energy
(the exact value for gradient dynamics with unit intensity).  Each target's
horizon rungs run on one forked process per core.

    python scripts/run_quasipotential.py --mode 1 --amps 0.1,0.2,0.3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from acldp.action import mam_minimize  # noqa: E402
from acldp.energy import energy_star  # noqa: E402
from acldp.grid import Boundary, Field, basis_eval, build_domain  # noqa: E402
from acldp.noise import NoiseModel  # noqa: E402
from acldp.profile import compute_profile  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=63)
    ap.add_argument("--mode", type=int, default=1)
    ap.add_argument("--amps", default="0.1,0.2,0.3")
    ap.add_argument("--steps", type=int, default=96)
    ap.add_argument("--T0", type=float, default=6.0)
    ap.add_argument("--ladder", type=int, default=3)
    args = ap.parse_args()

    d = build_domain(args.L, args.n, args.n)
    prof = compute_profile(d)
    nm = NoiseModel(kind="constant", g0=1.0)
    ek = basis_eval(d, args.mode).values

    print(f"{'amp':>6} {'2E*':>12} {'mam':>12} {'rel.err':>9} {'iters':>6} conv")
    for amp in (float(a) for a in args.amps.split(",")):
        zeta = Field(prof.shifted_values(d) + amp * ek, Boundary.ZERO_DIRICHLET)
        target = 2.0 * energy_star(d, zeta, prof)
        res = mam_minimize(d, zeta, nm, T=args.T0, steps=args.steps,
                           ladder=args.ladder, profile=prof, workers="auto")
        rel = abs(res.value - target) / target
        print(f"{amp:6.3f} {target:12.6f} {res.value:12.6f} {rel:9.2%} "
              f"{res.iterations:6d} {res.converged}")


if __name__ == "__main__":
    main()
