"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q        # about 5 minutes

Every check in checks.py must fail on a doctored copy of a real output; the
full-size rounds that supply the outputs run once per pytest run.  The smoke
tests run each workload at toy size through run.py, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

SEED = 7
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

OPS_PER_ROUND = {"concentration": 1, "multiplicative": 1, "mam": 10}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == OPS_PER_ROUND[workload]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_counts_bear_out_the_layer_table(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--smoke")
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 2 * OPS_PER_ROUND[workload]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["grid.dst_calls"] > 0 and values["profile.solve_s"] > 0
    if workload == "mam":
        assert values["spde.chain_steps"] == 0
        assert values["action.core_calls"] > 0 and values["action.lbfgs_iters"] > 0
        assert values["noise.g_calls"] > 0
    else:
        assert values["action.core_calls"] == 0 and values["action.lbfgs_iters"] == 0
        assert values["spde.chain_steps"] > 0 and values["spde.normals_drawn"] > 0
        assert values["flow.relax_s"] > 0
    if workload == "concentration":
        assert values["noise.g_calls"] == 0
    if workload == "multiplicative":
        assert values["noise.g_calls"] > 0


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mam", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_private_seams_are_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import acldp.cli  # noqa: F401
    import spans
    monkeypatch.delattr(sys.modules["acldp.spde"], "_draw_block")
    monkeypatch.delattr(sys.modules["acldp.action"], "_action_core")
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    assert missing == ["acldp.spde._draw_block", "acldp.action._action_core"]
    values = spans.available(spans.layer_metrics(tracer), missing)
    assert "spde.noise_draw_s" not in values and "action.core_calls" not in values
    assert "grid.dst_calls" in values and "spde.chain_steps" in values


# ---------------------------------------------------------------------------
# doctored outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def rounds(tmp_path_factory):
    """One full-size round of each workload, kept; every op passes its checks."""
    base = tmp_path_factory.mktemp("rounds")
    kept = {}
    for workload in workloads.WORKLOADS:
        tag = f"selftest-{workload}"
        res = run.run_round(workload, SEED, False, tag, keep=True)
        assert res["failed"] == 0 and res["correct"], workload
        shutil.move(str(run.RUNS / tag), base / workload)
        kept[workload] = base / workload
    return kept


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _write_csv(path: Path, cols: dict) -> None:
    names = list(cols)
    lines = [",".join(names)] + [",".join(repr(float(cols[k][i])) for k in names)
                                 for i in range(len(cols[names[0]]))]
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _concentration(tmp_path, rounds):
    d = _copy(rounds["concentration"] / "concentration", tmp_path / "concentration")
    return d, workloads.config_of("concentration", SEED, False)


def test_pristine_outputs_pass(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    assert checks.check_concentration(d, cfg) == []
    m = rounds["multiplicative"]
    assert checks.check_multiplicative(m / "invariant", workloads.config_of("multiplicative", SEED, False),
                                       m / "profile" / "profile.csv") == []


def _tails_edit(d: Path, edit) -> None:
    tails = checks.read_csv(d / "tails.csv")
    edit(tails)
    _write_csv(d / "tails.csv", tails)


def _fails_with(fails: list[str], text: str) -> None:
    assert any(text in f for f in fails), fails


def test_altered_p_hat_fails_recount(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _tails_edit(d, lambda t: t["p_hat"].__setitem__(3, t["p_hat"][3] + 1.0 / 640))
    _fails_with(checks.check_concentration(d, cfg), "recount")


def test_p_hat_outside_wilson_interval_fails(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _tails_edit(d, lambda t: t["lo"].__setitem__(0, t["p_hat"][0] + 1e-3))
    _fails_with(checks.check_concentration(d, cfg), "outside [")


def test_p_hat_increasing_as_eps_decreases_fails(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _tails_edit(d, lambda t: t["p_hat"].__setitem__(2, t["p_hat"][1] + 0.01))
    _fails_with(checks.check_concentration(d, cfg), "increases as eps decreases")


def test_flat_tail_fails_positive_slope(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _tails_edit(d, lambda t: t["p_hat"].__setitem__(slice(0, 3), 0.5))
    _fails_with(checks.check_concentration(d, cfg), "not positive")


def test_slope_ratio_outside_range_fails(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _tails_edit(d, lambda t: t["p_hat"].__setitem__(slice(3, 6), t["p_hat"][0:3]))
    _fails_with(checks.check_concentration(d, cfg), "slope ratio")


def _scale_energy(path: Path, factor: float) -> None:
    cols = checks.read_csv(path)
    cols["energy_star"] = cols["energy_star"] * factor
    _write_csv(path, cols)


def test_eps_disagreement_fails(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    _scale_energy(d / "samples_eps0.1.csv", 0.9)
    _fails_with(checks.check_concentration(d, cfg), "disagrees across eps")


def test_concentration_outside_equipartition_bracket_fails(rounds, tmp_path):
    d, cfg = _concentration(tmp_path, rounds)
    for path in d.glob("samples_eps*.csv"):
        _scale_energy(path, 1.2)
    fails = checks.check_concentration(d, cfg)
    _fails_with(fails, "outside [")
    assert not any("disagrees" in f for f in fails)


def _multiplicative(tmp_path, rounds):
    d = _copy(rounds["multiplicative"], tmp_path / "multiplicative")
    return (d / "invariant", workloads.config_of("multiplicative", SEED, False),
            d / "profile" / "profile.csv")


def test_g_min_below_floor_fails(rounds, tmp_path):
    out, cfg, prof = _multiplicative(tmp_path, rounds)
    _edit_json(out / "summary.json", lambda s: s.__setitem__("g_min", 0.9 * cfg["noise.g0"]))
    _fails_with(checks.check_multiplicative(out, cfg, prof), "below the floor")


def test_summary_mean_off_samples_fails(rounds, tmp_path):
    out, cfg, prof = _multiplicative(tmp_path, rounds)
    _edit_json(out / "summary.json",
               lambda s: s["energy_star"].__setitem__("mean", s["energy_star"]["mean"] * (1 + 1e-9)))
    _fails_with(checks.check_multiplicative(out, cfg, prof), "summary mean")


@pytest.mark.parametrize("factor", [0.3, 12.0])
def test_multiplicative_outside_equipartition_bracket_fails(rounds, tmp_path, factor):
    out, cfg, prof = _multiplicative(tmp_path, rounds)
    _scale_energy(out / "samples.csv", factor)
    mean = float(np.mean(checks.read_csv(out / "samples.csv")["energy_star"]))
    _edit_json(out / "summary.json", lambda s: s["energy_star"].__setitem__("mean", mean))
    fails = checks.check_multiplicative(out, cfg, prof)
    _fails_with(fails, "outside [")
    assert len(fails) == 1


def test_multiplicative_upper_bounds_every_admissible_state():
    """No intensity field with g0 <= g <= g0 + c, rough or not, exceeds the bound."""
    cfg = workloads.config_of("multiplicative", SEED, False)
    g0, c = cfg["noise.g0"], cfg["noise.c"]
    xi = np.linspace(-cfg["L"], cfg["L"], cfg["n"] + 2)[1:-1]
    lam = checks.eigenvalues(cfg["L"], cfg["modes"])
    w = checks.scheme_weights(lam, cfg["dt"])
    rng = np.random.default_rng(SEED)
    for g in (np.full(cfg["n"], g0 + c), g0 + c * rng.integers(0, 2, cfg["n"]),
              g0 + c * rng.uniform(0.0, 1.0, cfg["n"])):
        q = checks.projected_noise_variance(cfg["L"], xi, g, cfg["modes"], cfg["modes_noise"])
        assert float(np.sum(q * w)) <= checks.multiplicative_upper(cfg)


def _mam_check(rounds, tmp_path, target: int, label: str, scale: float):
    d = _copy(rounds["mam"], tmp_path / "mam")
    op = next(o for o in workloads.plan("mam", SEED, d) if o.name == f"mam{target}_{label}")
    assert op.check() == []
    _edit_json(op.outdir / "mam.json", lambda r: r.__setitem__("value", r["value"] * scale))
    return op.check()


def test_halved_unit_intensity_action_fails(rounds, tmp_path):
    _fails_with(_mam_check(rounds, tmp_path, 0, "unit", 0.5), "outside [")


def test_criterion4_action_above_floor_bound_fails(rounds, tmp_path):
    _fails_with(_mam_check(rounds, tmp_path, 1, "criterion4", 5.0), "outside [")


def test_criterion4_action_below_ceiling_bound_fails(rounds, tmp_path):
    _fails_with(_mam_check(rounds, tmp_path, 2, "criterion4", 0.2), "outside [")


def test_run_level_failures(rounds, tmp_path):
    d = _copy(rounds["multiplicative"] / "invariant", tmp_path / "invariant")
    assert checks.check_run(d, 0, True) == []
    _fails_with(checks.check_run(d, 1, True), "exit code 1")
    _edit_json(d / "manifest.json", lambda m: m.update(partial=True, warnings=["burn_in short"]))
    fails = checks.check_run(d, 0, True)
    _fails_with(fails, "partial")
    _fails_with(fails, "warnings")
