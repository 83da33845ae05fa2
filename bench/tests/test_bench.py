"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads((BENCH / ".work" / workload / "result.json").read_text())
    return json.loads(proc.stdout.splitlines()[-1]), record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, record = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(record["setup_samples_s"]) == 2
    assert record["digests"] and record["error_rate"] == 0.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_per_layer_metric(workload):
    result, record = smoke(workload, 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sum(op["traced"] for op in record["ops"]) >= worker.MIN_TRACED_ROUNDS
    assert record["counts_repeat"]
    assert metrics["scheme.interface_fluxes.per_step"] == 3.0
    assert metrics["nonlocal_op.prefix_integral.per_step"] == 1.0
    assert metrics["solver.steps"] == metrics["scheme.step.calls"] > 0
    assert metrics["solver.record_diagnostics.calls"] > metrics["solver.steps"]
    if workload.startswith("simulate"):
        assert metrics["solver.snapshots"] == workloads.SNAPSHOT_COUNT
        assert metrics["cli_io.write_snapshot_csv.calls"] == workloads.SNAPSHOT_COUNT
        assert metrics["cli_io.write_diagnostics_csv.bytes"] > 0
    if workload.startswith("sweep"):
        assert metrics["grid_field.init_field.calls"] == 3  # eps = 0 plus a 2-rung ladder
        assert metrics["verifiers.run_many.concurrency"] > 0
    if workload.startswith("entropy"):
        assert metrics["verifiers.entropy_weak_values.calls"] == 7


def test_failed_operations_count_instead_of_crashing(tmp_path):
    import exprabelo.cli_io as cli_io

    wl = workloads.get("simulate-16384", smoke=True)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(workloads.config_text(wl, workloads.init_params(0)) + "no.such.key = 1\n")
    result = worker.measure(cli_io, wl, cfg, tmp_path / "out", seconds=0.0, trace=False)
    assert len(result["ops"]) == 1
    assert result["ops"][0]["problems"] == ["exit status 2"]

    class Raising:
        @staticmethod
        def dispatch(argv):
            raise RuntimeError("boom")

    result = worker.measure(Raising, wl, cfg, tmp_path / "out", seconds=0.0, trace=False)
    assert result["ops"][0]["problems"] == ["exit status raised RuntimeError('boom')"]


def test_seed_zero_is_the_stock_gaussian():
    import exprabelo.cli_io as cli_io
    from exprabelo import InitialDataSpec, SchemeConfig, build_grid

    for wl in workloads.WORKLOADS.values():
        cfg = cli_io.parse_config(workloads.config_text(wl, workloads.init_params(0)))
        assert cfg.grid == build_grid(-8.0, 8.0, wl.n_cells)
        assert cfg.init == InitialDataSpec.gaussian()
        assert cfg.scheme == SchemeConfig()
        assert cfg.final_time == 1.0


def test_jittered_seeds_stay_in_the_stated_box():
    for seed in range(1, 50):
        params = workloads.init_params(seed)
        assert params == workloads.init_params(seed)
        for name, (lo, hi) in workloads.JITTER.items():
            assert lo <= params[name] <= hi


def test_tracer_restores_every_binding():
    import exprabelo.scheme
    import exprabelo.solver

    before = exprabelo.solver.step
    tracer = spans.Tracer()
    tracer.install()
    assert exprabelo.solver.step is not before
    assert exprabelo.scheme.step is exprabelo.solver.step
    tracer.uninstall()
    assert exprabelo.solver.step is before is exprabelo.scheme.step
