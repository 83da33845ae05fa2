"""The benchmark's workloads: config generation from a seed and output checks.

Every workload is the stock gaussian of the test suite (domain [-8, 8],
godunov flux, SSP-RK2, cfl 0.4, T = 1) at a workload-specific grid size,
driven through one CLI subcommand. Seed 0 reproduces the stock parameters
exactly; any other seed jitters the gaussian within ``JITTER``. The ranges
are kept narrow because the step count, and with it the cost of one
operation, follows them: with a center range of +-0.1 the sweep's step count
moved by +-3% between seeds. ``check_jitter.py`` confirms that every corner
of the box keeps the verdicts the checks below demand.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path

STOCK_INIT = {"amplitude": 0.0, "center": 0.0, "sigma": 1.0}
JITTER = {"amplitude": (-0.005, 0.005), "center": (-0.01, 0.01), "sigma": (0.995, 1.005)}
SNAPSHOT_COUNT = 5
EPSILON_LADDER_LEN = 5  # exprabelo.verifiers.EPSILON_LADDER, the sweep default


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int
    final_time: float
    command: tuple  # CLI argv with {cfg} and {out} placeholders
    snapshots: bool = False  # whether run.snapshots is set in the config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-eps-2048", 2048, 1.0, ("sweep", "epsilon", "{cfg}", "--out", "{out}")),
        Workload("simulate-16384", 16384, 1.0, ("simulate", "{cfg}", "--out", "{out}"), True),
        Workload("entropy-4096", 4096, 1.0, ("verify", "entropy", "{cfg}", "--out", "{out}")),
    )
}

# Tiny variants for the benchmark's own tests. The epsilon sweep refuses
# grids below 2048 cells, so its smoke form shortens the run and the ladder.
SMOKE = {
    "sweep-eps-2048": replace(WORKLOADS["sweep-eps-2048"], final_time=0.02,
                              command=WORKLOADS["sweep-eps-2048"].command
                              + ("--ladder", "0.1,0.01")),
    "simulate-16384": replace(WORKLOADS["simulate-16384"], n_cells=256, final_time=0.25),
    "entropy-4096": replace(WORKLOADS["entropy-4096"], n_cells=512, final_time=0.5),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def init_params(seed: int) -> dict:
    """Gaussian parameters for a workload seed; seed 0 is the stock gaussian."""
    if seed == 0:
        return dict(STOCK_INIT)
    rng = random.Random(seed)
    return {name: rng.uniform(lo, hi) for name, (lo, hi) in JITTER.items()}


def snapshot_times(wl: Workload) -> tuple:
    return tuple(wl.final_time * k / (SNAPSHOT_COUNT - 1) for k in range(SNAPSHOT_COUNT))


def config_text(wl: Workload, params: dict) -> str:
    lines = [
        "grid.x_min = -8",
        "grid.x_max = 8",
        f"grid.n_cells = {wl.n_cells}",
        "init.preset = gaussian",
        *(f"init.{name} = {value!r}" for name, value in params.items()),
        "scheme.flux = godunov",
        "scheme.cfl = 0.4",
        f"run.T = {wl.final_time!r}",
    ]
    if wl.snapshots:
        lines.append("run.snapshots = " + ", ".join(repr(t) for t in snapshot_times(wl)))
    return "\n".join(lines) + "\n"


def argv(wl: Workload, cfg: Path, out: Path) -> list:
    return [a.format(cfg=cfg, out=out) for a in wl.command]


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def check_outputs(wl: Workload, out: Path) -> list:
    """Problems with one operation's output directory; empty when it is right.

    Checks the expected file set, the row count of every CSV, and the verdict
    keys of the reports.
    """
    files = {p.name for p in out.iterdir()}
    problems = []

    def expect_files(names):
        if files != set(names):
            problems.append(f"files {sorted(files)}, expected {sorted(names)}")
            return False
        return True

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label} is {got!r}, expected {want!r}")

    if wl.command[0] == "sweep":
        if expect_files({"sweep_epsilon.report", "ladder.csv"}):
            ladder_len = (len(wl.command[-1].split(",")) if "--ladder" in wl.command
                          else EPSILON_LADDER_LEN)
            expect("ladder.csv rows", _rows(out / "ladder.csv"), 1 + ladder_len)
            expect("convergence.monotone",
                   read_report(out / "sweep_epsilon.report").get("convergence.monotone"),
                   "true")
    elif wl.command[0] == "simulate":
        snaps = [f"snapshot_{i:04d}.csv" for i in range(SNAPSHOT_COUNT)]
        if expect_files({*snaps, "diagnostics.csv", "run.report"}):
            rep = read_report(out / "run.report")
            expect("run.n_cells", rep.get("run.n_cells"), str(wl.n_cells))
            expect("run.snapshots", rep.get("run.snapshots"), str(SNAPSHOT_COUNT))
            steps = int(rep.get("run.steps", "-1"))
            expect("diagnostics.csv rows", _rows(out / "diagnostics.csv"), steps + 2)
            for name in snaps:
                expect(f"{name} rows", _rows(out / name), wl.n_cells + 1)
    else:
        if expect_files({"entropy.report"}):
            rep = read_report(out / "entropy.report")
            expect("entropy.pass", rep.get("entropy.pass"), "true")
            expect("entropy.n_phi", rep.get("entropy.n_phi"), "64")
    return problems


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
