"""The benchmark's tracer (``bench/spans.py``) wraps exprabelo functions by
module and name, and its traced run fails when one of them is missing or no
longer takes what its amount function reads. These tests load the tracer
without importing the benchmark package, so a rename in ``src`` fails here
first."""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from exprabelo import cli_io
from exprabelo.grid_field import FieldV, build_grid
from exprabelo.scheme import SchemeConfig
from exprabelo.solver import evolve


@functools.cache
def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("target", _spans().TARGETS, ids=lambda t: t[0])
def test_benchmark_trace_target_exists(target):
    _, module, attr, _ = target
    assert callable(getattr(importlib.import_module(f"exprabelo.{module}"), attr))


@pytest.mark.parametrize("name", ["write_snapshot_csv", "write_diagnostics_csv"])
def test_csv_writers_take_the_path_the_byte_count_reads(name):
    # the tracer's byte count opens args[1], or the keyword ``path``
    params = list(inspect.signature(getattr(cli_io, name)).parameters)
    assert params[1] == "path"


def test_evolve_returns_the_snapshots_the_snapshot_count_reads():
    grid = build_grid(-8.0, 8.0, 16)
    run = evolve(grid, FieldV(np.exp(-grid.centers**2), 0.0), SchemeConfig(), 0.125, (0.0,))
    assert _spans()._snapshot_count((), {}, run) == len(run.snapshots) == 2
