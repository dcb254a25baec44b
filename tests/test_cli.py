import concurrent.futures
import contextlib
import copy
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acldp import pipeline
from acldp import profile as profile_module
from acldp.cli import COMMANDS, build_parser, run
from acldp.config import SCHEMA
from acldp.errors import InstabilityError
from acldp.grid import Boundary, Field, build_domain
from acldp.io import _CSV_BLOCK as CSV_BLOCK, read_csv_columns, write_csv, write_field_csv
from acldp.profile import compute_profile, solve_e_L

from .fields import basis_eval, write_path_csv


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


def run_quietly(argv, capsys):
    """Exit code and stderr lines of a run, which must issue no warning and
    print nothing to stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    return code, err.splitlines()


def assert_failed_without_data(out):
    assert json.loads((out / "manifest.json").read_text())["partial"] is True
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "resolved.cfg"]


# the exit line of a start state out of range: it blames no step and no dt
START_OUT_OF_RANGE = ("numerical failure: start state out of range (sup |z| > 50.0 or NaN); "
                      "no step was taken")


def out_of_range_csv(tmp_path):
    """A state of n = 31 points, all 1e200: out of range before its cubic
    would overflow."""
    d = build_domain(2.0, 31, 16)
    path = tmp_path / "big.csv"
    write_field_csv(path, d, Field(np.full(d.n, 1e200), Boundary.ZERO_DIRICHLET))
    return path


class TestImports:
    def test_commands_load_neither_scipy_integrate_nor_optimize(self, tmp_path):
        # a fresh process, since pytest's warning filters import scipy.integrate here
        cfg = write_cfg(tmp_path, tmp_path / "o", n="31", modes="16", modes_noise="8",
                        n_chains="4", n_samples="104", burn_in="0.5",
                        stride="0.5", workers="1")
        script = f"""
import json, sys
import numpy as np
import acldp.cli
from acldp.grid import Boundary, Field, build_domain
from acldp.io import write_field_csv
from acldp.profile import compute_profile
tmp, cfg = {str(tmp_path)!r}, {str(cfg)!r}
d = build_domain(2.0, 31, 16)
prof = compute_profile(d)
write_field_csv(tmp + "/m.csv", d, prof.m)
write_field_csv(tmp + "/zeta.csv", d, Field(prof.shifted_values(d) + 0.1 * np.cos(
    np.pi * d.xi / 4.0), Boundary.ZERO_DIRICHLET))
argvs = [["profile"], ["energy", "--input", tmp + "/m.csv"],
         ["flow", "--set", "T=0.5", "--set", "init=profile"], ["invariant"],
         ["concentration"],
         ["mam", "--target", tmp + "/zeta.csv", "--set", "action.t0=4.0",
          "--set", "action.steps=16"]]
codes = [acldp.cli.run([a[0], "--config", cfg, "--out", tmp + "/" + a[0], *a[1:]])
         for a in argvs]
print(json.dumps(dict(codes=codes, loaded=[m for m in ("scipy.integrate", "scipy.optimize")
                                           if m in sys.modules])))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == dict(codes=[0] * 6, loaded=[])


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
        assert run(["profile", "--set", "L=1.0", "--set", "n=63", "--set", "modes=32",
                    "--out", str(out)]) == 0
        text = (out / "resolved.cfg").read_text()
        assert "L = 1.0" in text and "n = 63" in text

    def test_config_hash_names_the_experiment_not_the_run(self, tmp_path):
        # the output directory and the worker count change no data file, so
        # they leave the hash alone; a key that changes data does not
        def config_hash(name, *sets):
            out = tmp_path / name
            argv = ["profile", "--set", "n=31", "--set", "modes=16", "--out", str(out)]
            for s in sets:
                argv += ["--set", s]
            assert run(argv) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        one = config_hash("a", "workers=1")
        assert config_hash("b", "workers=1") == one
        assert config_hash("c", "workers=2") == one
        assert config_hash("d", "workers=1", "seed=7") != one

    def test_file_value_checked_against_later_overrides(self, tmp_path):
        # modes = 300 is out of range at the file's n = 255, in range at n = 511
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("modes = 300\n")
        out = tmp_path / "o"
        assert run(["profile", "--config", str(cfg), "--set", "n=511", "--out", str(out)]) == 0
        assert "modes = 300" in (out / "resolved.cfg").read_text()

    @pytest.mark.parametrize("argv", [
        ["mam", "--target", "zeta.csv", "--T", "5"],      # not an abbreviation of --T-ladder
        ["flow", "--T", "2"],
        ["profile", "--L", "10"],
        ["flow", "--init", "zero"],
        ["ldp-tail"],
    ])
    def test_removed_flags_and_commands_exit_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run(["profile", "--set", "n=63", "--set", "modes=32",
                    "--out", str(blocker / under)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_unwritable_manifest_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        assert run(["profile", "--set", "n=31", "--set", "modes=16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "manifest.json" in err
        assert (out / "profile.csv").exists() and (out / "manifest.json").is_dir()

    def test_readme_matches_the_parser_and_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()

        def block(heading):
            body = readme.split(f"\n## {heading}\n", 1)[1]
            return body.split("```", 2)[1].split("\n", 1)[1]

        shown = {build_parser().parse_args(shlex.split(line, comments=True)[1:]).command
                 for line in block("Command line").splitlines() if line.startswith("acldp ")}
        assert shown == set(COMMANDS)
        keys = [line.split("=", 1)[0].strip() for line in block("Configuration").splitlines()
                if line.strip()]
        assert sorted(keys) == sorted(SCHEMA)

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
        def crash(args, cfg, outdir, warnings):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(COMMANDS, "profile", crash)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError):
            run(["profile", "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["partial"] is True


class TestProfileCommand:
    def test_outputs_match_library(self, tmp_path):
        out = tmp_path / "o"
        assert run(["profile", "--set", "L=10.0", "--set", "n=127",
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

    def test_length_past_the_profile_solvers_reach_exits_2(self, tmp_path, capsys):
        # e_L is below E_MIN = 6.6e-298 at L = 300, where the transit rule stops holding
        out = tmp_path / "o"
        code, err = run_quietly(["profile", "--set", "L=300", "--set", "n=31", "--set", "modes=16",
                                 "--out", str(out)], capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("configuration error: half-length L=300.0 ")
        assert_failed_without_data(out)

    def test_length_below_the_profile_solvers_reach_exits_2(self, tmp_path, capsys):
        # e_L lies above the top of the bracket, E_MAX, for L < T(E_MAX)/2 = 1.3487e-6
        out = tmp_path / "o"
        code, err = run_quietly(["profile", "--set", "L=1e-7", "--set", "n=31", "--set", "modes=16",
                                 "--out", str(out)], capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("configuration error: half-length L=1e-07 ")
        assert "reach L = T(E_MAX)/2 = 1.3487e-06" in err[0]
        assert_failed_without_data(out)

    def test_length_whose_eigenvalues_overflow_exits_2(self, tmp_path, capsys):
        # (k pi / 2L)^2 overflows at L = 1e-300
        out = tmp_path / "o"
        code, err = run_quietly(["profile", "--set", "L=1e-300", "--out", str(out)], capsys)
        assert code == 2
        assert len(err) == 1 and "L=1e-300" in err[0] and "modes=128" in err[0]
        assert_failed_without_data(out)


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

    def test_proximity_bound_past_float_range_is_not_claimed(self, tmp_path, capsys):
        # 2 sqrt(L eta) exp(2 L C_V) overflows at L = 200: no bound, and no failure
        cfg = ["--set", "L=200", "--set", "n=4095", "--set", "modes=64"]
        prof = tmp_path / "p"
        assert run(["profile", *cfg, "--out", str(prof)]) == 0
        out = tmp_path / "o"
        code, err = run_quietly(["energy", *cfg, "--input", str(prof / "profile.csv"),
                                 "--out", str(out)], capsys)
        assert code == 0 and err == []
        assert json.loads((out / "energy.json").read_text())["proximity"] is None

    @pytest.mark.parametrize("bc", ["zero", "ramp"])
    def test_field_that_overflows_exits_1_without_data(self, tmp_path, capsys, bc):
        # a finite field of 1e200: its energy and gradient overflow
        d = build_domain(2.0, 31, 16)
        field_csv = tmp_path / "big.csv"
        write_field_csv(field_csv, d, Field(np.full(d.n, 1e200), Boundary.ZERO_DIRICHLET))
        out = tmp_path / "o"
        code, err = run_quietly(["energy", "--set", "n=31", "--set", "modes=16", "--input",
                                 str(field_csv), "--bc", bc, "--out", str(out)], capsys)
        assert code == 1
        assert err == ["numerical failure: value, gradient_norm not finite: "
                       "the input overflows the computation"]
        assert_failed_without_data(out)


class TestFlowCommand:
    def test_flow_series_columns(self, tmp_path):
        out = tmp_path / "o"
        assert run(["flow", "--set", "n=63", "--set", "modes=32", "--set", "T=2.0",
                    "--set", "init=profile", "--out", str(out)]) == 0
        cols = read_csv_columns(out / "flow.csv")
        assert set(cols) == {"t", "energy_star", "grad_norm", "dist_to_profile"}
        assert cols["dist_to_profile"][-1] < 1e-3

    def test_horizon_beyond_the_byte_cap_exits_2_at_once(self, tmp_path):
        # 1e300 is a whole number of steps of dt = 1, but their series alone
        # would take 2.4e301 bytes
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "acldp.cli", "flow", "--set", "n=31", "--set", "modes=16",
             "--set", "T=1e300", "--set", "dt=1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2
        assert "T=1e+300" in proc.stderr and "MEMORY_BYTES" in proc.stderr
        assert not (out / "flow.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_state_that_is_not_a_number_exits_1_without_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, err = run_quietly(["flow", "--set", "n=31", "--set", "modes=16", "--set", "T=0.1",
                                 "--set", f"init={out_of_range_csv(tmp_path)}",
                                 "--out", str(out)], capsys)
        assert code == 1 and err == [START_OUT_OF_RANGE]
        assert_failed_without_data(out)

    def test_custom_init_csv(self, tmp_path):
        d = build_domain(2.0, 63, 32)
        x = Field(0.3 * np.sin(np.pi * d.xi / 4.0), Boundary.ZERO_DIRICHLET)
        init_csv = tmp_path / "x0.csv"
        write_field_csv(init_csv, d, x)
        out = tmp_path / "o"
        assert run(["flow", "--set", "n=63", "--set", "modes=32", "--set", "T=1.0",
                    "--set", f"init={init_csv}", "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("header", [
        "t," + ",".join(f"z{j}" for j in range(62)) + ",z63",
        "t,z1,z0," + ",".join(f"z{j}" for j in range(2, 63)),
        "t," + ",".join(f"z{j}" for j in range(63)) + ",foo",
    ], ids=["gap", "order", "extra"])
    def test_header_other_than_t_z0_to_zk_exits_2(self, tmp_path, capsys, header):
        # each header names 63 z columns, as many as the domain needs, so
        # only the names can reject it
        n_cells = header.count(",") + 1
        rows = [",".join([t] + ["0.0"] * (n_cells - 1)) for t in ("0.0", "0.05")]
        (tmp_path / "p.csv").write_text("\n".join([header, *rows]) + "\n")
        assert self.run_action_on(tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert "p.csv" in err and "t, z0, z1, ... in order" in err

    def test_path_that_overflows_exits_1_without_data(self, tmp_path, capsys):
        # a finite path of 1e200: its residual overflows
        write_path_csv(tmp_path / "p.csv", np.array([0.0, 0.05, 0.1]), np.full((3, 31), 1e200))
        out = tmp_path / "o"
        code, err = run_quietly(["action", "--path", str(tmp_path / "p.csv"), "--set", "n=31",
                                 "--set", "modes=16", "--out", str(out)], capsys)
        assert code == 1
        assert err == ["numerical failure: value, residual_max not finite: "
                       "the input overflows the computation"]
        assert_failed_without_data(out)

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
        # --T-ladder 0 is action.ladder = 0: rejected with the config, before
        # the output directory exists, and not replaced by the config's ladder
        d = build_domain(2.0, 63, 32)
        zeta_csv = tmp_path / "zeta.csv"
        write_field_csv(zeta_csv, d, Field(compute_profile(d).shifted_values(d),
                                           Boundary.ZERO_DIRICHLET))
        out = tmp_path / "o"
        assert run(["mam", "--target", str(zeta_csv), "--T-ladder", "0",
                    "--set", "n=63", "--set", "modes=32", "--out", str(out)]) == 2
        assert "ladder" in capsys.readouterr().err
        assert not (out / "mam.json").exists()
        assert not (out / "manifest.json").exists()

    def test_ladder_flag_is_recorded_in_the_resolved_config(self, tmp_path):
        out = tmp_path / "o"
        assert run(self.mam_args(tmp_path, out, "1")) == 0
        assert "action.ladder = 1" in (out / "resolved.cfg").read_text()
        assert len(json.loads((out / "mam.json").read_text())["ladder"]) == 1

    def test_worker_count_changes_nothing(self, tmp_path, monkeypatch):
        # `workers` is ignored: on a box faked to 2 cores, asking for 2 still
        # runs the rungs in the calling process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert run(self.mam_args(tmp_path, out, "3", "action.t0=3.0",
                                     "action.steps=24", f"workers={workers}")) == 0
            assert json.loads((out / "manifest.json").read_text())["workers"] == 1
            written.append((out / "mam.json").read_bytes())
        assert written[0] == written[1]

    def test_instability_in_a_child_rung_exits_1(self, tmp_path, monkeypatch, capsys):
        # the last serial rung blows up after the first two ran to completion
        action_module = importlib.import_module("acldp.action")
        real, calls = action_module.minimize, []

        def minimize_or_blow_up(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise InstabilityError("rung 3 blew up")
            return real(*args, **kwargs)

        monkeypatch.setattr(action_module, "minimize", minimize_or_blow_up)
        out = tmp_path / "o"
        assert run(self.mam_args(tmp_path, out, "3", "action.t0=3.0",
                                 "action.steps=24")) == 1
        assert "rung 3 blew up" in capsys.readouterr().err
        assert not (out / "mam.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True and manifest["workers"] == 1

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

    def test_unbounded_steps_exits_2_at_once(self, tmp_path, capsys):
        # 10**9 steps: 500 GB per rung path, rejected before anything is allocated
        out = tmp_path / "o"
        started = time.perf_counter()
        assert run(self.mam_args(tmp_path, out, "1", "action.steps=1000000000")) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "action.steps=1000000000" in err and "MEMORY_BYTES" in err
        assert not (out / "mam.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_rung_beyond_the_budget_exits_2_at_once(self, tmp_path, capsys):
        # n = 63, one rung: 11 095 steps is the most that the budget admits
        # for RUNG_PATHS path sizes, and 11 096 is rejected before the profile
        out = tmp_path / "o"
        started = time.perf_counter()
        assert run(self.mam_args(tmp_path, out, "1", "action.steps=11096")) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "action.steps=11096" in err and "MEMORY_BYTES" in err
        assert not (out / "mam.json").exists()

    def test_grid_beyond_the_dense_cap_exits_2_at_once(self, tmp_path, capsys):
        # n = 5 000: the build of MAM's eigenbasis would take 1.2 GB; rejected
        # before the profile is solved
        d = build_domain(2.0, 5000, 64)
        zeta_csv = tmp_path / "zeta.csv"
        write_field_csv(zeta_csv, d, Field(np.zeros(d.n), Boundary.ZERO_DIRICHLET))
        out = tmp_path / "o"
        started = time.perf_counter()
        assert run(["mam", "--target", str(zeta_csv), "--T-ladder", "1",
                    "--set", "n=5000", "--set", "modes=64", "--out", str(out)]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "n=5000 dense operators" in err and "MEMORY_BYTES" in err
        assert not (out / "mam.json").exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_target_out_of_range_exits_1_naming_the_start_state(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, err = run_quietly(["mam", "--target", str(out_of_range_csv(tmp_path)),
                                 "--T-ladder", "1", "--set", "n=31", "--set", "modes=16",
                                 "--set", "action.steps=16", "--out", str(out)], capsys)
        assert code == 1 and err == [START_OUT_OF_RANGE]
        assert_failed_without_data(out)

    def test_reversed_flow_blowup_exits_1(self, tmp_path, capsys):
        # sup |zeta| = 40 leaves the physical range on the flow's first step
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
        # stride 0.002 < dt/2 = 0.0025 is no whole number of steps of dt = 0.005
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, stride="0.002")
        assert run(["sde", "--config", str(cfg)]) == 2
        assert "stride=0.002 is not a whole number of steps of dt=0.005" in capsys.readouterr().err
        assert not (out / "sde.csv").exists()

    @pytest.mark.parametrize("command, data", [("invariant", "samples.csv"),
                                               ("concentration", "tails.csv")])
    def test_sampler_stride_below_half_a_step_exits_2(self, tmp_path, capsys, command, data):
        # stride 0.002 is no whole number of steps of dt = 0.005
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, stride="0.002")
        assert run([command, "--config", str(cfg)]) == 2
        assert "stride=0.002 is not a whole number of steps of dt=0.005" in capsys.readouterr().err
        assert not (out / data).exists()

    @pytest.mark.parametrize("command, settings, named, data", [
        ("invariant", dict(dt="0.01", stride="0.015"), "stride=0.015", "samples.csv"),
        ("concentration", dict(dt="0.02", burn_in="0.125", stride="0.2"), "burn_in=0.125",
         "tails.csv"),
    ])
    def test_time_off_the_step_grid_exits_2(self, tmp_path, capsys, command, settings, named,
                                            data):
        # 1.5 and 6.25 steps: a sampler runs whole steps only, so the time is refused
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, **settings)
        assert run([command, "--config", str(cfg)]) == 2
        dt = settings["dt"]
        assert f"{named} is not a whole number of steps of dt={dt}" in capsys.readouterr().err
        assert not (out / data).exists()

    @pytest.mark.parametrize("command, key, data", [("sde", "T", "sde.csv"),
                                                    ("invariant", "burn_in", "samples.csv"),
                                                    ("flow", "T", "flow.csv")])
    def test_non_finite_step_count_exits_2(self, tmp_path, capsys, command, key, data):
        # 1e300 / 1e-10 overflows to inf: no step count at all
        out = tmp_path / "o"
        assert run([command, "--set", "n=31", "--set", "modes=16", "--set", f"{key}=1e300",
                    "--set", "dt=1e-10", "--out", str(out)]) == 2
        assert f"{key}=1e+300 is not a whole number of steps of dt=1e-10" in capsys.readouterr().err
        assert not (out / data).exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    @pytest.mark.parametrize("command, setting, data", [
        ("sde", "T=1e15", "sde.csv"),                                # 7.1 PiB of sample times
        ("invariant", "n_samples=1000000000000000", "samples.csv"),  # 3.6 PiB of steps
        ("concentration", "n_chains=100000000000", "tails.csv"),     # 3.1e9 chain chunks
    ])
    def test_run_beyond_the_byte_cap_exits_2_at_once(self, tmp_path, capsys, command,
                                                     setting, data):
        out = tmp_path / "o"
        started = time.perf_counter()
        assert run([command, "--set", "n=31", "--set", "modes=31", "--set", setting,
                    "--out", str(out)]) == 2
        assert time.perf_counter() - started < 5.0
        assert "MEMORY_BYTES" in capsys.readouterr().err
        assert not (out / data).exists()
        assert json.loads((out / "manifest.json").read_text())["partial"] is True

    def test_overflowing_sobolev_weight_exits_2_before_sampling(self, tmp_path, capsys):
        # lambda_k^(kstar/2) is inf from mode 2 on: no W^{k*,p*} sample is a number
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, kstar="1e300")
        assert run(["invariant", "--config", str(cfg)]) == 2
        assert "kstar=1e+300" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()
        assert not (out / "summary.json").exists()

    def test_large_sobolev_order_writes_finite_json(self, tmp_path):
        # at kstar = 40 |rec|^8 overflows; the norm is rescaled by max |rec|
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, kstar="40", n_chains="4", n_samples="8",
                        burn_in="0.5", stride="0.5")
        assert run(["invariant", "--config", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        assert all(np.isfinite(v) and v > 0 for v in summary["sobolev_norm"].values())

    def test_summary_keys(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, n_chains="4", n_samples="8", burn_in="0.5",
                        stride="0.5")
        assert run(["invariant", "--config", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"eps", "n_samples", "burn_in", "stride", "g_min",
                                "undersampled", "sup_norm", "dist_sup", "energy_star",
                                "sobolev_norm"}

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, out1)
        assert run(["invariant", "--config", str(cfg1)]) == 0
        assert run(["invariant", "--config", str(cfg1), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_invariant_holds_a_small_multiple_of_the_counted_samples(self, tmp_path):
        # 64 000 samples are 2.0 MB at the 32 B a level-chain-sample that
        # check_sampler_size counts; the samples and their CSV columns hold 6
        # floats a sample.  write_csv once kept every row string, 11.7 times the count.
        n_samples = 64_000
        tracemalloc.start()
        try:
            assert run(["invariant", "--out", str(tmp_path / "o"), "--set", "n=31",
                        "--set", "modes=16", "--set", "dt=0.01", "--set", "stride=0.01",
                        "--set", "burn_in=0", "--set", "n_chains=32",
                        "--set", f"n_samples={n_samples}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 32 * n_samples

    def test_worker_count_changes_nothing(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        cfg = write_cfg(tmp_path, out1, n_chains="48", n_samples="96")
        assert run(["invariant", "--config", str(cfg), "--set", "workers=1"]) == 0
        assert run(["invariant", "--config", str(cfg), "--set", "workers=2",
                    "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_pool_never_exceeds_the_cores(self, tmp_path, monkeypatch, inline_pool):
        # 5 chunks of 32 chains and workers = 10**6 on a box faked to 3 cores;
        # the executor runs the chunks inline, so no process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, n_chains="160", n_samples="160", burn_in="0.25")
        assert run(["invariant", "--config", str(cfg), "--set", f"workers={10 ** 6}"]) == 0
        assert inline_pool == [3]
        assert json.loads((out / "manifest.json").read_text())["workers"] == 3

    @pytest.mark.parametrize("workers", ["1", "2", "auto"])
    @pytest.mark.parametrize("n_chains", [1, 32, 33, 96])
    def test_manifest_workers_are_the_pool_that_ran(self, tmp_path, monkeypatch, inline_pool,
                                                    n_chains, workers):
        # on a box faked to 2 cores the chunks of 32 chains take 2 processes
        # once there are two chunks and workers allows it; a serial run builds
        # no executor
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, T="0.25", n_chains=str(n_chains), workers=workers)
        assert run(["sde", "--config", str(cfg)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["workers"]
        assert recorded == (inline_pool[0] if inline_pool else 1)
        assert inline_pool == ([] if workers == "1" or n_chains <= 32 else [2])

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

    @pytest.mark.parametrize("command", ["sde", "invariant", "concentration"])
    def test_state_that_is_not_a_number_exits_1_without_data(self, tmp_path, capsys, command):
        # eps^(1/2) g0 overflows: the first level's noise weight is inf, its state NaN
        out = tmp_path / "o"
        assert run([command, "--set", "n=31", "--set", "modes=16", "--set", "n_chains=2",
                    "--set", "eps=1e300,1e299,1e298", "--set", "noise.g0=1e300",
                    "--out", str(out)]) == 1
        assert "eps=1e+300" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["partial"] is True
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_init_out_of_range_exits_1_naming_the_start_state(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, err = run_quietly(["sde", "--set", "n=31", "--set", "modes=16", "--set", "T=0.1",
                                 "--set", "n_chains=2",
                                 "--set", f"init={out_of_range_csv(tmp_path)}",
                                 "--out", str(out)], capsys)
        assert code == 1 and err == [START_OUT_OF_RANGE]
        assert_failed_without_data(out)

    def test_floor_past_float32_exits_1_with_only_the_exit_line(self, tmp_path, capsys):
        # g0 = 1e300 has no float32 value: the chain's floor is inf, its state NaN
        out = tmp_path / "o"
        code, err = run_quietly(["sde", "--set", "n=31", "--set", "modes=16",
                                 "--set", "n_chains=2", "--set", "eps=1e300",
                                 "--set", "noise.g0=1e300", "--set", "noise.kind=smooth_bounded_below",
                                 "--set", "noise.c=1", "--set", "T=0.01", "--out", str(out)], capsys)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("numerical failure:") and "eps=1e+300" in err[0]
        assert_failed_without_data(out)

    def test_one_samples_format(self, tmp_path, monkeypatch, conc_out):
        # sde from z = 0 on one process, and invariant with no burn-in on two
        # (40 chains: chunks of 32 + 8), keep the same chains at the same times
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outs = {cmd: tmp_path / cmd for cmd in ("sde", "invariant")}
        cfg = write_cfg(tmp_path, tmp_path / "o", n_chains="40", n_samples="160", T="1.0",
                        burn_in="0", init="zero")
        for cmd, workers in (("sde", "1"), ("invariant", "2")):
            assert run([cmd, "--config", str(cfg), "--set", f"workers={workers}",
                        "--out", str(outs[cmd])]) == 0
        header, *sde_rows = (outs["sde"] / "sde.csv").read_text().splitlines()
        samples = (outs["invariant"] / "samples.csv").read_text().splitlines()
        assert header == samples[0] == "chain,t,sup_norm,energy_star,sobolev_norm,dist_sup"
        past_start = [row for row in sde_rows if float(row.split(",")[1]) > 0]
        assert len(past_start) == 160
        assert past_start == samples[1:]
        assert {row.split(",")[0] for row in samples[1:]} == {str(c) for c in range(40)}
        for path in conc_out.glob("samples_eps*.csv"):
            assert path.read_text().partition("\n")[0] == header

    @pytest.mark.parametrize("n_samples, pooled, undersampled", [("97", 104, False),
                                                                 ("93", 96, True)])
    def test_summary_undersampled_reads_the_pooled_count(self, tmp_path, n_samples, pooled,
                                                         undersampled):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, n_samples=n_samples, n_chains="8")
        assert run(["invariant", "--config", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_samples"] == pooled
        assert summary["undersampled"] is undersampled
        assert len(read_csv_columns(out / "samples.csv")["t"]) == pooled

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
        schema = json.loads(files("acldp").joinpath("schemas/ldp_tail.json").read_text())
        validator = jsonschema.Draft202012Validator(schema)
        payload = json.loads((conc_out / "tail_reports.json").read_text())
        validator.validate(payload)
        # a fit that could not be made reports null slopes and ratio
        nulls = copy.deepcopy(payload)
        nulls["slope_ratio"] = None
        for rep in nulls["reports"]:
            rep["slope"] = rep["r2"] = None
        validator.validate(nulls)
        bad = dict(payload, slope_ratio="x")
        with pytest.raises(jsonschema.ValidationError, match="'x' is not of type"):
            validator.validate(bad)

    def test_tightness_block_matches_the_samples(self, conc_out):
        tight = json.loads((conc_out / "tail_reports.json").read_text())["tightness"]
        for eps, exceedance, lo, hi in zip(tight["eps"], tight["exceedance"],
                                           tight["lo"], tight["hi"]):
            norms = read_csv_columns(conc_out / f"samples_eps{eps!r}.csv")["sobolev_norm"]
            assert np.count_nonzero(norms >= tight["radius"]) / len(norms) == exceedance
            assert lo <= exceedance <= hi

    def test_tails_csv_rows_are_the_reports(self, conc_out):
        cols = read_csv_columns(conc_out / "tails.csv")
        reports = json.loads((conc_out / "tail_reports.json").read_text())["reports"]
        for key in ("eps", "p_hat", "lo", "hi"):
            assert cols[key].tolist() == [v for rep in reports for v in rep[key]]
        assert cols["delta"].tolist() == [rep["delta"] for rep in reports for _ in rep["eps"]]

    def test_manifest_states_each_run_warning_once(self, conc_out):
        # the burn-in rule and the pooled count do not depend on eps
        warnings = json.loads((conc_out / "manifest.json").read_text())["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith("burn_in=1.0 is below 5x the deterministic relaxation time")

    def test_per_eps_samples_written(self, conc_out):
        for eps in (0.2, 0.1, 0.05):
            assert (conc_out / f"samples_eps{eps!r}.csv").exists()

    @pytest.mark.parametrize("command", ["concentration"])
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

    @pytest.mark.parametrize("n_samples, pooled, code", [("97", 104, 0), ("90", 96, 2)])
    def test_pooled_count_boundary(self, tmp_path, capsys, n_samples, pooled, code):
        # over 8 chains, 97 samples pool 13 x 8 = 104 and 90 pool 12 x 8 = 96
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, n_samples=n_samples, n_chains="8")
        assert run(["concentration", "--config", str(cfg)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert not any("n_samples" in w for w in manifest["warnings"])   # not undersampled
        if code == 0:
            reports = json.loads((out / "tail_reports.json").read_text())["reports"]
            assert all(rep["n"] == [pooled] * 3 for rep in reports)
        else:
            assert f"pools {pooled} samples" in capsys.readouterr().err

    def test_one_sampler_call_for_every_eps(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline.sample_invariant

        def counted(d, nm, p, *args, **kwargs):
            calls.append([q.eps for q in p])
            return real(d, nm, p, *args, **kwargs)
        monkeypatch.setattr(pipeline, "sample_invariant", counted)
        cfg = write_cfg(tmp_path, tmp_path / "o", eps="0.1, 0.2, 0.05")
        assert run(["concentration", "--config", str(cfg)]) == 0
        assert calls == [[0.2, 0.1, 0.05]]

    def test_worker_count_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)    # the pool runs on any box
        outs = {w: tmp_path / f"w{w}" for w in ("1", "2")}
        cfg = write_cfg(tmp_path, outs["1"], n_chains="40", n_samples="120")  # 32 + 8
        for workers, out in outs.items():
            assert run(["concentration", "--config", str(cfg), "--set", f"workers={workers}",
                        "--out", str(out)]) == 0
        names = sorted(f.name for f in outs["1"].iterdir()
                       if f.name not in ("manifest.json", "resolved.cfg"))
        assert names == ["samples_eps0.05.csv", "samples_eps0.1.csv", "samples_eps0.2.csv",
                         "tail_reports.json", "tails.csv"]
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def test_blowup_of_one_level_exits_1_without_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, out, eps="40000.0, 0.1, 0.05", dt="0.05")
        assert run(["concentration", "--config", str(cfg)]) == 1
        assert "eps=40000.0" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["partial"] is True
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "resolved.cfg"]


class TestProfileSolvedOnce:
    """A run solves its domain's profile once, however many chunks or forked
    processes read it.  The solves are counted in a file, so a forked chunk
    that solved it again would add to the count."""

    @pytest.fixture
    def solves(self, tmp_path, monkeypatch):
        log = tmp_path / "solves.log"
        real = profile_module.solve_profile

        def counted(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        def count(argv):
            monkeypatch.setattr(profile_module, "_profile_cache", {})
            log.write_text("")
            assert run(argv) == 0
            return len(log.read_text().splitlines())

        monkeypatch.setattr(profile_module, "solve_profile", counted)
        return count

    @pytest.mark.parametrize("command, workers", [("concentration", "1"),
                                                  ("concentration", "2"), ("sde", "2")])
    def test_sampler(self, tmp_path, monkeypatch, solves, command, workers):
        # 40 chains: chunks of 32 + 8, on two forked processes at workers = 2
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write_cfg(tmp_path, tmp_path / "o", n_chains="40", n_samples="120",
                        init="zero", workers=workers)
        assert solves([command, "--config", str(cfg)]) == 1

    def test_mam(self, tmp_path, solves):
        argv = TestMamCommand.mam_args(tmp_path, tmp_path / "o", "1", "action.steps=24")
        assert solves(argv) == 1


class TestWriteCsv:
    def test_blocks_write_the_bytes_of_one_join(self, tmp_path):
        # past two blocks of rows: the file is the header and the rows joined whole
        n = 2 * CSV_BLOCK + 3
        x = np.random.default_rng(3).standard_normal(n)
        cols = {"t": 0.1 * np.arange(n), "x": x, "k": np.arange(n)}
        write_csv(tmp_path / "c.csv", cols)
        rows = [f"{t!r},{v!r},{k}" for t, v, k in zip((0.1 * np.arange(n)).tolist(),
                                                       x.tolist(), range(n))]
        want = "\n".join(["t,x,k"] + rows) + "\n"
        assert (tmp_path / "c.csv").read_bytes() == want.encode()
