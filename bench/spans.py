"""Span tracing around the public functions of each exprabelo module.

The tracer wraps every function in ``TARGETS`` at every module binding that
holds it (``exprabelo.solver.step`` as well as ``exprabelo.scheme.step``), so
calls are seen whichever name the caller looks up, and restores the original
bindings afterwards. Spans are kept in memory as tuples and written out once
the run ends. Each thread keeps its own stack of open spans, because the
epsilon sweep runs its ladder on a thread pool.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _snapshot_count(args, kwargs, result):
    return len(result.snapshots)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (span name, module, attribute, amount recorded on return)
TARGETS = (
    ("scheme.step", "scheme", "step", None),
    ("scheme.interface_fluxes", "scheme", "interface_fluxes", None),
    ("scheme.cfl_dt", "scheme", "cfl_dt", None),
    ("nonlocal_op.prefix_integral", "nonlocal_op", "prefix_integral", None),
    ("solver.evolve", "solver", "evolve", _snapshot_count),
    ("solver.record_diagnostics", "solver", "record_diagnostics", None),
    ("solver.run_simulation", "solver", "run_simulation", None),
    ("grid_field.init_field", "grid_field", "init_field", None),
    ("grid_field.u_from_v", "grid_field", "u_from_v", None),
    ("verifiers.kruzhkov_residual", "verifiers", "kruzhkov_residual", None),
    ("verifiers.entropy_weak_values", "verifiers", "entropy_weak_values", None),
    ("verifiers.epsilon_convergence", "verifiers", "epsilon_convergence", None),
    ("verifiers.run_many", "verifiers", "_run_many", None),
    ("cli_io.load_config", "cli_io", "load_config", None),
    ("cli_io.write_snapshot_csv", "cli_io", "write_snapshot_csv", _file_bytes),
    ("cli_io.write_diagnostics_csv", "cli_io", "write_diagnostics_csv", _file_bytes),
    ("cli_io.write_report", "cli_io", "write_report", None),
)

SPAN_FIELDS = ("span", "parent", "name", "start", "end", "op", "amount")


class Tracer:
    """Records (span, parent, name, start, end, op, amount) for wrapped calls."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []

    def _wrap(self, name, fn, amount_of):
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            amount = amount_of(args, kwargs, result) if amount_of else None
            spans.append((sid, parent, name, start, end, self.op, amount))
            return result

        return traced

    def install(self):
        """Wrap every target at each exprabelo module binding that holds it."""
        originals = [getattr(importlib.import_module(f"exprabelo.{module}"), attr)
                     for _, module, attr, _ in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "exprabelo" or n.startswith("exprabelo."))]
        for (name, _, _, amount_of), original in zip(TARGETS, originals):
            wrapper = self._wrap(name, original, amount_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        while self._restore:
            mod, key, original = self._restore.pop()
            setattr(mod, key, original)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            out.writerows(self.spans)


def op_stats(spans, op) -> dict:
    """Per span name: calls, busy (summed span time), self (busy minus the time
    of direct child spans in the same thread) and the summed amount."""
    mine = [s for s in spans if s[5] == op]
    child_time = defaultdict(float)
    for sid, parent, name, start, end, _, _ in mine:
        if parent:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "amount": 0})
    for sid, parent, name, start, end, _, amount in mine:
        s = stats[name]
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - child_time[sid]
        s["amount"] += amount or 0
    ladders = [s for s in mine if s[2] == "verifiers.run_many"]
    runs = [s for s in mine if s[2] == "solver.run_simulation"]
    ladder_time = sum(end - start for _, _, _, start, end, _, _ in ladders)
    inside = sum(r[4] - r[3] for r in runs
                 if any(lad[3] <= r[3] and r[4] <= lad[4] for lad in ladders))
    stats["verifiers.run_many"]["concurrency"] = inside / ladder_time if ladder_time else 0.0
    return stats


def layer_metrics(stats: dict, n_cells: int) -> dict:
    """The per-layer metrics of one traced operation, as {name: (value, unit)}."""
    def st(name, key):
        return stats[name][key] if name in stats else 0

    steps = st("scheme.step", "calls")
    runs = st("solver.evolve", "calls")
    snapshots = st("solver.evolve", "amount")

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}

    def timing(name, *keys):
        for key in keys:
            if key == "calls":
                m[f"{name}.calls"] = (st(name, "calls"), "count")
            else:
                m[f"{name}.{key}_s"] = (st(name, key), "s")

    timing("scheme.step", "calls", "busy", "self")
    m["scheme.step.ns_per_cell"] = (per(st("scheme.step", "busy"), steps * n_cells, 1e9), "ns")
    timing("scheme.interface_fluxes", "calls", "busy")
    # every run makes one call for its initial diagnostics row before any step
    m["scheme.interface_fluxes.per_step"] = (
        per(st("scheme.interface_fluxes", "calls") - runs, steps), "1/step")
    timing("scheme.cfl_dt", "calls", "busy")
    timing("nonlocal_op.prefix_integral", "calls", "busy")
    m["nonlocal_op.prefix_integral.per_step"] = (
        per(st("nonlocal_op.prefix_integral", "calls") - runs, steps), "1/step")
    m["solver.steps"] = (steps, "count")
    m["solver.snapshots"] = (snapshots, "count")
    timing("solver.evolve", "busy", "self")
    timing("solver.record_diagnostics", "calls", "busy")
    m["solver.record_diagnostics.us_per_call"] = (
        per(st("solver.record_diagnostics", "busy"),
            st("solver.record_diagnostics", "calls"), 1e6), "us")
    timing("grid_field.init_field", "calls", "busy")
    timing("grid_field.u_from_v", "calls", "busy")
    timing("verifiers.kruzhkov_residual", "busy")
    timing("verifiers.entropy_weak_values", "calls", "busy")
    timing("verifiers.epsilon_convergence", "busy", "self")
    m["verifiers.run_many.concurrency"] = (st("verifiers.run_many", "concurrency"), "ratio")
    # computed from array sizes: each stored snapshot holds v, u and P in float64
    m["verifiers.snapshot_bytes"] = (snapshots * 3 * n_cells * 8, "B")
    timing("cli_io.load_config", "busy")
    timing("cli_io.write_snapshot_csv", "calls", "busy")
    m["cli_io.write_snapshot_csv.bytes"] = (st("cli_io.write_snapshot_csv", "amount"), "B")
    timing("cli_io.write_diagnostics_csv", "busy")
    m["cli_io.write_diagnostics_csv.bytes"] = (st("cli_io.write_diagnostics_csv", "amount"), "B")
    timing("cli_io.write_report", "calls", "busy")
    return m
