"""Spans around acldp's module-level functions, installed from outside the
package, and the per-layer metrics computed from them.

`install` wraps each seam below in every acldp module that holds it by name:
spde, energy, flow and action import `reaction_values`, `gradient_flow` and
the rest by name, so wrapping the defining module alone would miss their
calls.  `acldp.action` as a package attribute is the function `action`, so
modules are reached through `sys.modules`.  A seam that a refactor removed is
reported as missing and the metrics that need it are left out.

Spans are kept in memory (name, start, end, parent) and written out when the
round ends.  A span's self time is its duration minus that of its direct
child spans.  Transparent spans (the chain-stepping seam, which only counts
chain-steps) are recorded but are nobody's parent.  The stack is
process-wide, so traced rounds must run the sampler with one worker thread,
as the workloads do (worker.py clears ACLDP_WORKERS, which would override it).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.transparent: list[bool] = []
        self.outermost: list[bool] = []       # no enclosing span of the same name
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, count=None, transparent: bool = False):
        """`fn` inside a span; `count(args, kwargs, result)` adds to the counters."""
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        trans, outer, stack, depth = self.transparent, self.outermost, self._stack, self._depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            trans.append(transparent)
            outer.append(depth[nid] == 0)
            end.append(0.0)
            if not transparent:
                stack.append(sid)
            depth[nid] += 1
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                depth[nid] -= 1
                if not transparent:
                    stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.array(self.name_id, dtype=np.int32),
                            start=np.array(self.start), end=np.array(self.end),
                            parent=np.array(self.parent, dtype=np.int64))


# ---------------------------------------------------------------------------
# seams
# ---------------------------------------------------------------------------

def _dst_bytes(tr, fn):
    def count(args, kwargs, result):
        tr.add("grid.dst_bytes", np.asarray(args[0]).nbytes + result.nbytes)
    return count


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _chain_steps(tr, fn):
    bind = _bound(fn)

    def count(args, kwargs, result):
        a = bind(args, kwargs)
        tr.add("spde.chain_steps", len(a["chain_ids"]) * int(a["n_steps"]))
    return count


def _normals(tr, fn):
    def count(args, kwargs, result):
        tr.add("spde.normals_drawn", result.size)
    return count


def _written(tr, fn):
    bind = _bound(fn)

    def count(args, kwargs, result):
        tr.add("io.bytes_written", os.path.getsize(bind(args, kwargs)["path"]))
    return count


# (defining module, attribute, span name, counter factory, transparent)
SEAMS = [
    ("acldp.grid", "dst", "grid.dst", _dst_bytes, False),
    ("acldp.energy", "reaction_values", "energy.reaction", None, False),
    ("acldp.energy", "energy_star_values", "energy.observables", None, False),
    ("acldp.grid", "sobolev_norm_values", "energy.observables", None, False),
    ("acldp.noise", "NoiseModel.g", "noise.g", None, False),
    ("acldp.noise", "NoiseModel.g_prime", "noise.g", None, False),
    ("acldp.spde", "sample_invariant", "spde.sample", None, False),
    ("acldp.spde", "_evolve_chains", "spde.evolve", _chain_steps, True),
    ("acldp.spde", "_draw_block", "spde.noise_draw", _normals, False),
    ("acldp.profile", "solve_e_L", "profile.solve", None, False),
    ("acldp.profile", "solve_profile", "profile.solve", None, False),
    ("acldp.flow", "relaxation_time", "flow.relax", None, False),
    ("acldp.flow", "gradient_flow", "flow.gradient_flow", None, False),
    ("acldp.action", "_action_core", "action.core", None, False),
    ("acldp.action", "minimize", "action.lbfgs", None, False),
    ("acldp.ldp", "delta_scaling", "ldp.tail", None, False),
    ("acldp.ldp", "tightness_monotone", "ldp.tail", None, False),
    ("acldp.io", "write_csv", "io.write", _written, False),
    ("acldp.io", "write_json", "io.write", _written, False),
    ("acldp.io", "write_field_csv", "io.write", None, False),
]


def _wrap_minimize(tr: Tracer, minimize):
    """L-BFGS span whose objective calls are child spans, so that the
    minimizer's self time is its own work."""
    def traced_minimize(fun, *args, **kwargs):
        return minimize(tr.wrap("action.objective", fun), *args, **kwargs)
    return tr.wrap("action.lbfgs", functools.wraps(minimize)(traced_minimize),
                   count=lambda args, kwargs, result: tr.add("action.lbfgs_iters", int(result.nit)))


def install(tr: Tracer) -> list[str]:
    """Wrap every seam in every loaded acldp module; return the missing seams."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "acldp" or name.startswith("acldp."))]
    missing = []
    for home, attr, span, counter, transparent in SEAMS:
        owner = sys.modules.get(home)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                missing.append(f"{home}.{attr}")
                continue
            setattr(cls, meth, tr.wrap(span, fn))
            continue
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{home}.{attr}")
            continue
        if attr == "minimize":
            wrapped = _wrap_minimize(tr, fn)
        else:
            wrapped = tr.wrap(span, fn, counter(tr, fn) if counter else None, transparent)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> the spans it is computed from
NEEDS = {
    "grid.dst_calls": ["grid.dst"], "grid.dst_s": ["grid.dst"], "grid.dst_bytes": ["grid.dst"],
    "energy.reaction_calls": ["energy.reaction"], "energy.reaction_s": ["energy.reaction"],
    "energy.observables_s": ["energy.observables"],
    "noise.g_calls": ["noise.g"], "noise.g_s": ["noise.g"],
    "spde.chain_steps": ["spde.evolve"], "spde.sample_s": ["spde.sample", "flow.relax"],
    "spde.us_per_chain_step": ["spde.evolve", "spde.sample", "flow.relax"],
    "spde.noise_draw_s": ["spde.noise_draw"], "spde.normals_drawn": ["spde.noise_draw"],
    "spde.self_s": ["spde.sample"],
    "profile.solve_s": ["profile.solve"],
    "flow.relax_s": ["flow.relax"],
    "flow.gradient_flow_calls": ["flow.gradient_flow"],
    "flow.gradient_flow_s": ["flow.gradient_flow"],
    "action.core_calls": ["action.core"], "action.core_s": ["action.core"],
    "action.lbfgs_iters": ["action.lbfgs"], "action.lbfgs_self_s": ["action.lbfgs"],
    "ldp.tail_s": ["ldp.tail"],
    "io.write_s": ["io.write"], "io.bytes_written": ["io.write"],
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    name_id = np.array(tr.name_id, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    parent = np.array(tr.parent, dtype=np.int64)
    opaque = ~np.array(tr.transparent, dtype=bool)
    outer = np.array(tr.outermost, dtype=bool)
    n = len(dur)
    has_parent = opaque & (parent >= 0)
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

    def mask(span):
        return name_id == tr._ids[span] if span in tr._ids else np.zeros(n, dtype=bool)

    def inclusive(span):
        return float(np.sum(dur[mask(span) & outer]))

    def calls(span):
        return int(np.sum(mask(span)))

    def self_time(span):
        m = mask(span)
        return float(np.sum(dur[m] - child[m]))

    sample = mask("spde.sample")
    relax_in_sample = mask("flow.relax") & (parent >= 0) & sample[np.maximum(parent, 0)]
    sample_s = inclusive("spde.sample") - float(np.sum(dur[relax_in_sample]))
    chain_steps = int(tr.counters.get("spde.chain_steps", 0))
    c = tr.counters
    values = {
        "grid.dst_calls": calls("grid.dst"), "grid.dst_s": inclusive("grid.dst"),
        "grid.dst_bytes": int(c.get("grid.dst_bytes", 0)),
        "energy.reaction_calls": calls("energy.reaction"),
        "energy.reaction_s": inclusive("energy.reaction"),
        "energy.observables_s": inclusive("energy.observables"),
        "noise.g_calls": calls("noise.g"), "noise.g_s": inclusive("noise.g"),
        "spde.chain_steps": chain_steps, "spde.sample_s": sample_s,
        "spde.us_per_chain_step": 1e6 * sample_s / chain_steps if chain_steps else 0.0,
        "spde.noise_draw_s": inclusive("spde.noise_draw"),
        "spde.normals_drawn": int(c.get("spde.normals_drawn", 0)),
        "spde.self_s": self_time("spde.sample"),
        "profile.solve_s": inclusive("profile.solve"),
        "flow.relax_s": inclusive("flow.relax"),
        "flow.gradient_flow_calls": calls("flow.gradient_flow"),
        "flow.gradient_flow_s": inclusive("flow.gradient_flow"),
        "action.core_calls": calls("action.core"), "action.core_s": inclusive("action.core"),
        "action.lbfgs_iters": int(c.get("action.lbfgs_iters", 0)),
        "action.lbfgs_self_s": self_time("action.lbfgs"),
        "ldp.tail_s": inclusive("ldp.tail"),
        "io.write_s": inclusive("io.write"),
        "io.bytes_written": int(c.get("io.bytes_written", 0)),
    }
    return values


def available(values: dict, missing_seams: list[str]) -> dict:
    """Drop the metrics that need a span none of whose seams was installed."""
    installed = {span for home, attr, span, _, _ in SEAMS
                 if f"{home}.{attr}" not in missing_seams}
    return {k: v for k, v in values.items() if set(NEEDS[k]) <= installed}
