"""The benchmark's seams resolve: every function that `bench/spans.py` wraps
by name exists once the CLI is imported, with the parameters its counters
bind.  The span module is loaded from its file, read-only, and installs
nothing."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import acldp.cli  # noqa: F401  (loads every module a seam lives in)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True                # no __pycache__ beside the file
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def resolve(home: str, attr: str):
    obj = sys.modules[home]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_seam_resolves(spans):
    missing = []
    for home, attr, *_ in spans.SEAMS:
        try:
            resolve(home, attr)
        except (KeyError, AttributeError):
            missing.append(f"{home}.{attr}")
    assert missing == []


def test_counters_bind_parameters_that_exist(spans):
    binds = {spans._chain_steps: {"chain_ids", "n_steps"}, spans._written: {"path"}}
    checked = []
    for home, attr, _, counter, _ in spans.SEAMS:
        if counter in binds:
            params = inspect.signature(resolve(home, attr)).parameters
            assert binds[counter] <= set(params), f"{home}.{attr}"
            checked.append(f"{home}.{attr}")
    assert checked == ["acldp.spde._evolve_chains", "acldp.io.write_csv", "acldp.io.write_json"]
