import concurrent.futures
import contextlib
import importlib
import io
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acldp import pipeline
from acldp.cli import COMMANDS, run
from acldp.errors import InstabilityError
from acldp.grid import Boundary, Field, build_domain
from acldp.io import (load_schema, read_csv_columns, validate_against_schema,
                      write_field_csv, write_path_csv)
from acldp.profile import compute_profile, solve_e_L


def small_cfg(outdir, **extra):
    base = {
        "L": "2.0", "n": "63", "modes": "32", "modes_noise": "16",
        "eps": "0.2, 0.1, 0.05", "dt": "0.005", "T": "1.0",
        "burn_in": "1.0", "stride": "0.25", "n_chains": "16",
        "n_samples": "112", "seed": "42", "output.dir": str(outdir),
    }
    base.update(extra)
    return "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


def write_cfg(tmp_path, outdir, **extra):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(small_cfg(outdir, **extra))
    return cfg


class TestConfigHandling:
    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_knob = 3\n")
        code = run(["profile", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_invalid_value_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tmp_path / "o", dt="-0.5")
        assert run(["profile", "--config", str(cfg)]) == 2
        assert "dt" in capsys.readouterr().err

    def test_resolved_config_echoed(self, tmp_path):
        out = tmp_path / "o"
        assert run(["profile", "--L", "1.0", "--set", "n=63", "--set", "modes=32",
                    "--out", str(out)]) == 0
        text = (out / "resolved.cfg").read_text()
        assert "L = 1.0" in text and "n = 63" in text

    def test_missing_input_marks_partial_manifest(self, tmp_path):
        out = tmp_path / "o"
        code = run(["action", "--path", str(tmp_path / "nope.csv"),
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True

    def test_non_numeric_cell_exits_2_and_marks_partial(self, tmp_path, capsys):
        d = build_domain(2.0, 63, 32)
        field = tmp_path / "field.csv"
        write_field_csv(field, d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET))
        lines = field.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",abc"
        field.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run(["energy", "--input", str(field), "--bc", "zero",
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "field.csv" in err and "row 5" in err and "'value'" in err
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_exits_2_naming_the_cell(self, tmp_path, capsys, cell):
        d = build_domain(2.0, 63, 32)
        field = tmp_path / "field.csv"
        write_field_csv(field, d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET))
        lines = field.read_text().splitlines()
        lines[7] = lines[7].split(",")[0] + "," + cell
        field.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run(["energy", "--input", str(field), "--bc", "zero",
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "field.csv" in err and "row 7" in err and "'value'" in err
        assert not (out / "energy.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_crashed_command_marks_partial(self, tmp_path, monkeypatch):
        def crash(cfg, outdir, warnings):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(COMMANDS, "profile", crash)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError):
            run(["profile", "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["partial"] is True


class TestProfileCommand:
    def test_outputs_match_library(self, tmp_path):
        out = tmp_path / "o"
        assert run(["profile", "--L", "10.0", "--set", "n=127",
                    "--set", "modes=64", "--out", str(out)]) == 0
        payload = json.loads((out / "profile.json").read_text())
        assert payload["e_L"] == pytest.approx(solve_e_L(10.0), rel=1e-9)
        cols = read_csv_columns(out / "profile.csv")
        assert set(cols) == {"xi", "value"}
        assert len(cols["xi"]) == 127
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is False
        assert manifest["command"] == "profile"
        assert manifest["wall_time_s"] > 0
        assert len(manifest["config_hash"]) == 64


class TestEnergyCommand:
    def test_profile_field_energy(self, tmp_path):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        field_csv = tmp_path / "m.csv"
        write_field_csv(field_csv, d, prof.m)
        out = tmp_path / "o"
        assert run(["energy", "--input", str(field_csv), "--bc", "ramp",
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)]) == 0
        payload = json.loads((out / "energy.json").read_text())
        assert payload["value"] == pytest.approx(prof.energy_value, rel=1e-6)
        assert payload["gradient_norm"] < 0.02


class TestFlowCommand:
    def test_flow_series_columns(self, tmp_path):
        out = tmp_path / "o"
        assert run(["flow", "--set", "n=63", "--set", "modes=32", "--T", "2.0",
                    "--init", "profile", "--out", str(out)]) == 0
        cols = read_csv_columns(out / "flow.csv")
        assert set(cols) == {"t", "energy_star", "grad_norm", "dist_to_profile"}
        assert cols["dist_to_profile"][-1] < 1e-3

    def test_custom_init_csv(self, tmp_path):
        d = build_domain(2.0, 63, 32)
        x = Field(0.3 * np.sin(np.pi * d.xi / 4.0), Boundary.ZERO_DIRICHLET)
        init_csv = tmp_path / "x0.csv"
        write_field_csv(init_csv, d, x)
        out = tmp_path / "o"
        assert run(["flow", "--set", "n=63", "--set", "modes=32", "--T", "1.0",
                    "--init", str(init_csv), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "flow.csv")
        assert cols["energy_star"][0] > cols["energy_star"][-1]


class TestActionCommand:
    def test_constant_path_has_zero_action(self, tmp_path):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        eq = prof.shifted_values(d)
        path_csv = tmp_path / "p.csv"
        write_path_csv(path_csv, np.array([0.0, 0.05, 0.1]), np.tile(eq, (3, 1)))
        out = tmp_path / "o"
        assert run(["action", "--path", str(path_csv), "--set", "n=63",
                    "--set", "modes=32", "--out", str(out)]) == 0
        payload = json.loads((out / "action.json").read_text())
        assert payload["value"] < 1e-8

    @staticmethod
    def run_action_on(path_csv):
        out = path_csv.parent / "o"
        code = run(["action", "--path", str(path_csv), "--set", "n=63",
                    "--set", "modes=32", "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["partial"] is True
        return code

    def test_one_row_path_exits_2(self, tmp_path, capsys):
        write_path_csv(tmp_path / "p.csv", np.array([0.0]), np.zeros((1, 63)))
        assert self.run_action_on(tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert "p.csv" in err and "two rows" in err

    def test_path_without_z_columns_exits_2(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("t\n0.0\n0.1\n")
        assert self.run_action_on(tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert "p.csv" in err and "z0, z1" in err

    def test_non_uniform_times_exit_2_naming_the_row(self, tmp_path, capsys):
        write_path_csv(tmp_path / "p.csv", np.array([0.0, 0.1, 0.5]), np.zeros((3, 63)))
        assert self.run_action_on(tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert "p.csv" in err and "row 3" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _not_a_number(tok):
    try:
        float(tok)
    except ValueError:
        return True
    return False


def _non_utf8(draw, text):
    """The text's bytes with a byte that never occurs in UTF-8 inserted."""
    raw = text.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from([b"\xff", b"\xc0", b"\xfe"])) + raw[at:]


NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]


@st.composite
def corrupted(draw, text):
    """One structural corruption of a CSV: rows dropped, the file truncated,
    a cell that is not a number or not finite, the header dropped or
    duplicated, or bytes that are not UTF-8."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop_rows", "truncate", "non_number", "non_finite",
                                 "drop_header", "duplicate_header", "non_utf8"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "non_utf8":
        return _non_utf8(draw, text)
    if kind == "drop_rows":
        i = draw(st.integers(1, len(lines) - 1))
        del lines[i:draw(st.integers(i + 1, len(lines)))]
    elif kind in ("non_number", "non_finite"):
        row = draw(st.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.text(alphabet="abx.+-e ", max_size=4).filter(_not_a_number)
            if kind == "non_number" else st.sampled_from(NON_FINITE))
        lines[row] = ",".join(cells)
    elif kind == "drop_header":
        del lines[0]
    else:
        lines.insert(draw(st.integers(1, len(lines))), lines[0])
    return "\n".join(lines) + "\n"


FLOAT_KEYS = ["L", "dt", "T", "burn_in", "stride", "kstar", "stop_tol", "noise.g0",
              "noise.c", "action.t0", "eps", "delta", "radius"]
INT_KEYS = ["n", "modes", "n_chains", "n_samples", "seed", "pstar", "modes_noise",
            "action.ladder", "action.steps", "workers"]


@st.composite
def corrupted_config(draw, text):
    """One corruption of a config file: bytes that are not UTF-8, a float key
    set to a non-finite value, a line with no '=', or an int key set to a
    value that is not an int."""
    kind = draw(st.sampled_from(["non_utf8", "non_finite", "no_equals", "bad_int"]))
    if kind == "non_utf8":
        return _non_utf8(draw, text)
    if kind == "no_equals":
        lines = text.splitlines()
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["L 2.0", "n", "modes: 16", "eps"])))
        return "\n".join(lines) + "\n"
    if kind == "non_finite":
        key, value = draw(st.sampled_from(FLOAT_KEYS)), draw(st.sampled_from(NON_FINITE))
    else:
        key, value = draw(st.sampled_from(INT_KEYS)), draw(st.sampled_from(
            ["3.5", "1e3", "x", "", "0x10", "2,"]))
    return text + f"{key} = {value}\n"


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Valid input text at n = 31, keyed by the command reading it: a field
    CSV for energy, a path CSV for action, a config file for profile."""
    d = build_domain(2.0, 31, 16)
    prof = compute_profile(d)
    tmp = tmp_path_factory.mktemp("valid")
    write_field_csv(tmp / "f.csv", d, prof.m)
    bump = np.sin(np.pi * (d.xi + d.L) / (2 * d.L))
    write_path_csv(tmp / "p.csv", 0.05 * np.arange(6),
                   prof.shifted_values(d) + 0.01 * np.arange(6)[:, None] * bump)
    return {"energy": ("--input", (tmp / "f.csv").read_text()),
            "action": ("--path", (tmp / "p.csv").read_text()),
            "profile": ("--config", "L = 2.0\nn = 31\nmodes = 16\neps = 0.2, 0.1, 0.05\n")}


class TestExitCodeContract:
    @pytest.mark.parametrize("command", ["energy", "action", "profile"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupted_input_exits_0_or_2(self, valid_inputs, command, data):
        flag, text = valid_inputs[command]
        content = data.draw(corrupted_config(text) if command == "profile" else corrupted(text))
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.txt", Path(tmp) / "o"
            src.write_bytes(content if isinstance(content, bytes) else content.encode())
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run([command, flag, str(src), "--set", "n=31", "--set", "modes=16",
                            "--out", str(out)])
            assert code in (0, 2)
            if code == 2:                             # the message names the file
                assert str(src) in err.getvalue()
            if command == "profile":
                # every corruption is fatal, and before the config is read
                # there is no output directory to hold a manifest
                assert code == 2 and not (out / "manifest.json").exists()
                return
            assert json.loads((out / "manifest.json").read_text())["partial"] is (code != 0)
            for written in out.glob("*.json"):       # strict JSON: no NaN or Infinity
                json.loads(written.read_text(), parse_constant=_reject_constant)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool's executor with one that records its size and
    runs the tasks inline, so no process starts; returns the sizes asked for."""
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers, mp_context):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return asked


class TestMamCommand:
    @staticmethod
    def mam_args(tmp_path, out, ladder="1", *sets):
        d = build_domain(2.0, 63, 32)
        prof = compute_profile(d)
        from acldp.grid import basis_eval
        zeta = Field(prof.shifted_values(d) + 0.15 * basis_eval(d, 1).values,
                     Boundary.ZERO_DIRICHLET)
        zeta_csv = tmp_path / "zeta.csv"
        write_field_csv(zeta_csv, d, zeta)
        args = ["mam", "--target", str(zeta_csv), "--T-ladder", ladder,
                "--set", "n=63", "--set", "modes=32",
                "--set", "action.t0=12.0", "--set", "action.steps=48",
                "--out", str(out)]
        for kv in sets:
            args += ["--set", kv]
        return args

    def run_mam(self, tmp_path, *sets):
        out = tmp_path / "o"
        assert run(self.mam_args(tmp_path, out, "1", *sets)) == 0
        return json.loads((out / "mam.json").read_text())

    def test_minimizer_report(self, tmp_path):
        payload = self.run_mam(tmp_path)
        assert payload["value"] > 0
        assert "sandwich_check" in payload and payload["sandwich_check"]["upper_ok"]

    def test_low_floor_sandwich_is_squared(self, tmp_path):
        # noise.g0 = 0.5 floors g, so the reported bound is g0^2 * U <= 2 E*
        payload = self.run_mam(tmp_path, "noise.g0=0.5")
        sw = payload["sandwich_check"]
        assert sw["upper_lhs"] == 0.25 * payload["value"]
        assert sw["upper_ok"]

    def test_zero_ladder_exits_2(self, tmp_path, capsys):
        # --T-ladder 0 must not fall back to the config's action.ladder
        d = build_domain(2.0, 63, 32)
        zeta_csv = tmp_path / "zeta.csv"
        write_field_csv(zeta_csv, d, Field(compute_profile(d).shifted_values(d),
                                           Boundary.ZERO_DIRICHLET))
        out = tmp_path / "o"
        assert run(["mam", "--target", str(zeta_csv), "--T-ladder", "0",
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)]) == 2
        assert "ladder" in capsys.readouterr().err
        assert not (out / "mam.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_worker_count_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)   # the rung pool runs on any box
        written = []
        for workers in ("1", "2"):
            monkeypatch.setenv("ACLDP_WORKERS", workers)
            out = tmp_path / f"w{workers}"
            assert run(self.mam_args(tmp_path, out, "3", "action.t0=3.0",
                                     "action.steps=24")) == 0
            assert json.loads((out / "manifest.json").read_text())["workers"] == int(workers)
            written.append((out / "mam.json").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("ladder, processes", [("3", [2]), ("1", [])])
    def test_rung_pool_size(self, tmp_path, monkeypatch, inline_pool, ladder, processes):
        # workers = auto on a box faked to 2 cores: ladder 3 asks for 2
        # processes, ladder 1 runs serially and builds no executor
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        assert run(self.mam_args(tmp_path, out, ladder, "action.t0=3.0",
                                 "action.steps=24")) == 0
        assert inline_pool == processes
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == max(processes, default=1)

    def test_instability_in_a_child_rung_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        action_module = importlib.import_module("acldp.action")
        parent, real = os.getpid(), action_module.minimize

        def minimize_or_blow_up(*args, **kwargs):
            if os.getpid() != parent:
                raise InstabilityError("rung blew up in a child")
            return real(*args, **kwargs)

        monkeypatch.setattr(action_module, "minimize", minimize_or_blow_up)
        out = tmp_path / "o"
        assert run(self.mam_args(tmp_path, out, "3", "action.t0=3.0",
                                 "action.steps=24", "workers=2")) == 1
        assert "rung blew up in a child" in capsys.readouterr().err
        assert not (out / "mam.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True and manifest["workers"] == 2

    @pytest.mark.parametrize("ladder, sets", [("60", ()), (None, ("action.ladder=40",))])
    def test_unbounded_ladder_exits_2_at_once(self, tmp_path, capsys, ladder, sets):
        # 6 * 2^59 time units of reversed flow: rejected before any step
        out = tmp_path / "o"
        args = self.mam_args(tmp_path, out, ladder or "1", *sets)
        if ladder is None:
            del args[3:5]                         # no --T-ladder: the config's ladder
        started = time.perf_counter()
        assert run(args) == 2
        assert time.perf_counter() - started < 1.0
        assert f"ladder={ladder or 40}" in capsys.readouterr().err
        assert not (out / "mam.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_reversed_flow_blowup_exits_1(self, tmp_path, capsys):
        # sup |zeta| = 40 leaves the physical range on the flow's first step
        from acldp.grid import basis_eval
        d = build_domain(2.0, 63, 63)
        e1 = basis_eval(d, 1).values
        zeta_csv = tmp_path / "zeta.csv"
        write_field_csv(zeta_csv, d, Field(40.0 * e1 / np.max(np.abs(e1)),
                                           Boundary.ZERO_DIRICHLET))
        out = tmp_path / "o"
        assert run(["mam", "--target", str(zeta_csv), "--T-ladder", "1",
                    "--set", "n=63", "--set", "modes=63", "--set", "action.t0=6.0",
                    "--set", "action.steps=16", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "t=0.05" in err and "dt=0.05" in err
        assert not (out / "mam.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True


class TestSdeAndInvariant:
    def test_sde_observable_columns(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out)
        assert run(["sde", "--config", str(cfg)]) == 0
        cols = read_csv_columns(out / "sde.csv")
        for name in ("chain", "t", "sup_norm", "energy_star", "sobolev_norm"):
            assert name in cols

    def test_sde_stride_below_half_a_step_exits_2(self, tmp_path, capsys):
        # stride 0.002 < dt/2 = 0.0025: t = 0 and t = 0.002 both round to step 0
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, stride="0.002")
        assert run(["sde", "--config", str(cfg)]) == 2
        assert "sample times 0.0, 0.002 all round to step 0" in capsys.readouterr().err
        assert not (out / "sde.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, out1)
        assert run(["invariant", "--config", str(cfg1)]) == 0
        assert run(["invariant", "--config", str(cfg1), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_worker_count_changes_nothing(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        cfg = write_cfg(tmp_path, out1, n_chains="48", n_samples="96")
        monkeypatch.setenv("ACLDP_WORKERS", "1")
        assert run(["invariant", "--config", str(cfg)]) == 0
        monkeypatch.setenv("ACLDP_WORKERS", "2")
        assert run(["invariant", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_pool_never_exceeds_the_cores(self, tmp_path, monkeypatch, inline_pool):
        # 5 chunks of 32 chains and workers = 10**6 on a box faked to 3 cores;
        # the executor runs the chunks inline, so no process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("ACLDP_WORKERS", str(10 ** 6))
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, n_chains="160", n_samples="160", burn_in="0.25")
        assert run(["invariant", "--config", str(cfg)]) == 0
        assert inline_pool == [3]
        assert json.loads((out / "manifest.json").read_text())["workers"] == 3

    def test_manifest_records_worker_processes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out)                # 16 chains: one chunk
        assert run(["invariant", "--config", str(cfg)]) == 0
        assert "workers = auto" in (out / "resolved.cfg").read_text()
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1

    def test_blowup_in_a_worker_exits_1_and_marks_partial(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, eps="40000.0", dt="0.05", n_chains="64",
                        n_samples="128", workers="2")
        assert run(["invariant", "--config", str(cfg)]) == 1
        assert "eps=40000.0" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True and manifest["workers"] == 2

    def test_burn_in_zero_flags_manifest_warning(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, burn_in="0.0")
        assert run(["invariant", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("burn_in" in w for w in manifest["warnings"])


@pytest.fixture(scope="module")
def conc_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("conc")
    out = tmp / "o"
    cfg = tmp / "exp.cfg"
    cfg.write_text(small_cfg(out))
    assert run(["concentration", "--config", str(cfg)]) == 0
    return out


class TestConcentrationOutputs:

    def test_tails_csv_layout(self, conc_out):
        cols = read_csv_columns(conc_out / "tails.csv")
        assert set(cols) == {"eps", "delta", "p_hat", "lo", "hi"}
        assert len(cols["eps"]) == 6          # 3 eps x {delta, 2 delta}

    def test_json_validates_against_schema(self, conc_out):
        payload = json.loads((conc_out / "tail_reports.json").read_text())
        validate_against_schema(payload, load_schema("ldp_tail"))

    def test_per_eps_samples_written(self, conc_out):
        for eps in (0.2, 0.1, 0.05):
            assert (conc_out / f"samples_eps{eps!r}.csv").exists()

    @pytest.mark.parametrize("command", ["concentration", "ldp-tail"])
    @pytest.mark.parametrize("sets, key", [
        (["eps=0.1,0.1,0.05"], "eps"),
        (["n_samples=40", "n_chains=8"], "n_samples"),
        (["n_samples=93", "n_chains=8"], "n_samples"),     # pools 12 x 8 = 96
    ])
    def test_bad_config_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                command, sets, key):
        def never(*args, **kwargs):
            raise AssertionError("sampled a config that cannot be reported")
        monkeypatch.setattr(pipeline, "sample_invariant", never)
        argv = [command, "--config", str(write_cfg(tmp_path, tmp_path / "o"))]
        for item in sets:
            argv += ["--set", item]
        assert run(argv) == 2
        assert key in capsys.readouterr().err

    def test_pooled_count_at_the_minimum_goes_on_to_sample(self, tmp_path, monkeypatch):
        class Sampled(Exception):
            pass

        def sampled(*args, **kwargs):
            raise Sampled
        monkeypatch.setattr(pipeline, "sample_invariant", sampled)
        cfg = write_cfg(tmp_path, tmp_path / "o", n_samples="97", n_chains="8")
        with pytest.raises(Sampled):                      # pools 13 x 8 = 104
            run(["concentration", "--config", str(cfg)])

    def test_ldp_tail_variant(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out)
        assert run(["ldp-tail", "--config", str(cfg)]) == 0
        assert (out / "tail_reports.json").exists()
        assert not (out / "samples_eps0.2.csv").exists()
