"""The benchmark's tracer (``bench/spans.py``) wraps exprabelo functions by
module and name, and its traced run fails when one of them is missing. These
tests load its target table without importing the benchmark package, so a
rename in ``src`` fails here first."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest


def _traced_targets():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("target", _traced_targets(), ids=lambda t: t[0])
def test_benchmark_trace_target_exists(target):
    _, module, attr, _ = target
    assert callable(getattr(importlib.import_module(f"exprabelo.{module}"), attr))
