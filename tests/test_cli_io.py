"""Tests for config parsing, CSV round trips, report rendering, and the
command-line entry point.

The CLI contract pinned down here: exit status 0 for a passing run, 1 for
a verification failure, 2 for unusable input; CSV numbers at 17
significant digits survive a bitwise round trip; report files are plain
key=value lines behind a single comment header; repeated invocations are
byte-identical.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import exprabelo.cli_io
import exprabelo.scheme
import exprabelo.solver
from exprabelo.errors import BoundaryFluxWarning, ConfigError, GridAlignmentError
from exprabelo.grid_field import GridSpec, InitialDataSpec, init_field
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig
from exprabelo.solver import DEFAULT_ALPHAS, run_simulation
from exprabelo.cli_io import (
    CSV_CHUNK_ROWS,
    CSV_HEADER,
    _write_csv,
    dispatch,
    parse_config,
    read_report,
    read_snapshot_csv,
    report_text,
    write_diagnostics_csv,
    write_report,
    write_snapshot_csv,
)
from exprabelo.verifiers import (
    BalanceReport,
    ConvergenceReport,
    EntropyReport,
    MassBalanceReport,
    RiemannCheck,
    StabilityReport,
    SupMonitorReport,
    grid_convergence,
    l1_stability_check,
    lp_balance_ladder,
    lp_balance_residual,
    mass_balance_identity,
    mass_balance_ladder,
    run_ladder,
)
from exprabelo.solver import evolve

from conftest import cancelling_forcing, golden_host_note, stock_config

MINIMAL = """
grid.x_min = -8
grid.x_max = 8
grid.n_cells = 64
init.preset = gaussian
run.T = 0.25
"""

# two configs that `verify balance` cannot use
NO_ALPHA0 = MINIMAL + "diag.alphas = 1, 2\n"
AT_T0 = MINIMAL.replace("run.T = 0.25", "run.T = 0")
AT_T0_FINE = AT_T0.replace("grid.n_cells = 64", "grid.n_cells = 2048")

FULL = """
# geometry
grid.x_min = -8        # left edge
grid.x_max = 8
grid.n_cells = 128

init.preset = two-bump
init.amplitude1 = 0.0
init.center1 = -2.0
init.sigma1 = 1.0
init.amplitude2 = -1.0
init.center2 = 2.0
init.sigma2 = 0.5

scheme.flux = rusanov
scheme.epsilon = 1e-2
scheme.cfl = 0.3

run.T = 0.5
run.snapshots = 0, 0.25, 0.5
diag.alphas = 0, 1
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.n_cells == 64
    assert cfg.init.preset == "gaussian"
    assert cfg.scheme.flux == "godunov"
    assert cfg.scheme.epsilon == 0.0
    assert cfg.scheme.cfl == 0.4
    assert not hasattr(cfg.scheme, "v_floor")  # v is clipped at 0 only
    assert cfg.final_time == 0.25
    assert cfg.snapshot_times == ()
    assert cfg.diagnostic_alphas == (0.0, 1.0, 2.0)
    # absent keys take the library's own defaults, not a restated copy
    assert cfg.scheme == SchemeConfig()
    assert cfg.diagnostic_alphas == DEFAULT_ALPHAS


def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.init.preset == "two-bump"
    assert cfg.init.params["center2"] == 2.0
    assert cfg.scheme.flux == "rusanov"
    assert cfg.scheme.epsilon == 1e-2
    assert cfg.snapshot_times == (0.0, 0.25, 0.5)
    assert cfg.diagnostic_alphas == (0.0, 1.0)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("just some words", "key = value"),
        ("grid.n_cells = 64", "duplicate"),
        ("grid.rotation = 7", "unknown key"),
        ("seed = 3", "unknown key"),
        ("scheme.v_floor = 1e-10", "unknown key 'scheme.v_floor'"),
        ("scheme.flux = upwindish", "unknown flux"),
        ("run.snapshots = 0, banana", "banana"),
        ("scheme.epsilon = nan", "nan"),
        ("run.snapshots = 0.5, nan", "run.snapshots"),
        ("diag.alphas = 0, nan", "diag.alphas"),
    ],
)
def test_parse_rejects_bad_lines_with_line_number(mutation, fragment):
    text = MINIMAL + mutation + "\n"
    bad_line_no = len(text.splitlines())
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    assert f"line {bad_line_no}" in str(err.value)


def test_parse_rejects_missing_required_key():
    text = MINIMAL.replace("run.T = 0.25\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "run.T" in str(err.value)


def test_parse_rejects_unknown_preset():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("gaussian", "sawtooth"))
    assert "sawtooth" in str(err.value)


def test_parse_rejects_foreign_init_parameter():
    # a plateau parameter under the gaussian preset is an unknown key
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "init.width = 4\n")


def test_parse_propagates_scheme_validation():
    with pytest.raises(ValueError):
        parse_config(MINIMAL + "scheme.cfl = 1.5\n")


def test_parse_propagates_grid_alignment():
    text = MINIMAL.replace("grid.x_min = -8", "grid.x_min = -8.1")
    with pytest.raises(GridAlignmentError):
        parse_config(text)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def _small_run():
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    return run_simulation(cfg)


def test_snapshot_csv_round_trip_is_bitwise(tmp_path):
    run = _small_run()
    snap = run.snapshot_at(0.25)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(snap, path)

    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + run.grid.n_cells
    assert "\r" not in path.read_bytes().decode()

    t, x, v, u, p = read_snapshot_csv(path)
    assert np.all(t == 0.25)
    np.testing.assert_array_equal(x, run.grid.centers)
    np.testing.assert_array_equal(v, snap.field_v.values)
    np.testing.assert_array_equal(u, snap.u)
    np.testing.assert_array_equal(p, snap.p.cell_values)


def test_snapshot_p_column_is_the_prefix_integral(tmp_path):
    run = _small_run()
    snap = run.snapshot_at(0.25)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(snap, path)
    *_, p = read_snapshot_csv(path)
    fresh = prefix_integral(run.grid, snap.field_v)
    np.testing.assert_array_equal(p, fresh.cell_values)


@pytest.mark.parametrize(
    "text, cause",
    [
        ("time,x,v,u,P\n0,0,1,0,0\n", "missing snapshot header"),
        ("t,x,v,u,P\n", "has no rows"),
        ("t,x,v,u,P\n0,1,2\n", "expected 5 columns"),
    ],
    ids=["wrong header", "header only", "three columns"],
)
def test_read_snapshot_rejects_tampered_header(tmp_path, text, cause):
    path = tmp_path / "snap.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=cause) as exc:
        read_snapshot_csv(path)
    assert str(path) in str(exc.value)


def test_diagnostics_csv_header_lists_alpha_blocks(tmp_path):
    run = _small_run()
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(run.diagnostics, path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "time,dt,sup_u,sup_u_x,mass,boundary_flux,p_left,p_right,clip_count,"
        "lp_a0,dissipation_a0,source_a0,"
        "lp_a1,dissipation_a1,source_a1,"
        "lp_a2,dissipation_a2,source_a2"
    )
    n_rows = len(path.read_text().splitlines()) - 1
    assert n_rows == run.diagnostics["time"].size

    cfg = stock_config(n_cells=64, final_time=0.25, alphas=(0, 0.5, 2))
    write_diagnostics_csv(run_simulation(cfg).diagnostics, path)
    assert path.read_text().splitlines()[0].split(",")[9:] == [
        "lp_a0", "dissipation_a0", "source_a0",
        "lp_a0.5", "dissipation_a0.5", "source_a0.5",
        "lp_a2", "dissipation_a2", "source_a2",
    ]


@pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_csv_writer_matches_savetxt_bytes(tmp_path, rows):
    # the chunked writer must give exactly savetxt's bytes, with LF endings;
    # its one %.17g prints a count column as savetxt's %d does
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[0] = -0.0
    counts = rng.integers(0, 10**6, rows)
    cases = {
        "floats": ("t,x,v", (floats, np.exp(floats.clip(-700, 700)), floats[::-1]), "%.17g"),
        "with_count": ("count,value", (counts, floats), ("%d", "%.17g")),
    }
    for name, (header, cols, fmt) in cases.items():
        ours, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        _write_csv(ours, header, cols)
        with open(ref, "w", encoding="utf-8", newline="\n") as fh:
            np.savetxt(fh, np.column_stack(cols), fmt=fmt, delimiter=",", header=header,
                       comments="")
        data = ours.read_bytes()
        assert data == ref.read_bytes(), name
        assert b"\r" not in data and data.count(b"\n") == rows + 1


def test_diagnostics_csv_round_trip_is_bitwise(tmp_path):
    cfg = stock_config(n_cells=64, epsilon=1e-2, final_time=0.25, alphas=(0, 0.5, 2))
    series = run_simulation(cfg).diagnostics
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(series, path)
    header, *lines = path.read_text().splitlines()
    texts = zip(*(line.split(",") for line in lines))
    assert header.split(",") == list(series.columns)
    assert series["clip_count"].dtype == np.int64
    for (name, col), text in zip(series.columns.items(), texts, strict=True):
        parse = int if name == "clip_count" else float
        back = np.array([parse(tok) for tok in text], dtype=col.dtype)
        assert back.tobytes() == np.ascontiguousarray(col).tobytes(), name


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def test_identical_run_stability_report_text():
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    rep = l1_stability_check(cfg, cfg, R=2.0)
    text = report_text(rep)
    assert text.startswith("#")
    assert "stability.pass=true\n" in text
    assert "stability.max_measured=0\n" in text


def test_frozen_field_balance_report_prints_zero_residual():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    base = SchemeConfig(epsilon=0.0, source_enabled=False)
    frozen_cfg = replace(base, forcing=cancelling_forcing(grid, v0, base))
    result = evolve(grid, v0, frozen_cfg, final_time=0.25)
    rep = lp_balance_residual(result, alpha=0.0)
    assert "balance.terminal_residual=0\n" in report_text(rep)


def test_grid_convergence_report_key_inventory():
    base = stock_config(n_cells=32, final_time=0.125)
    rep = grid_convergence(base, (32, 64, 128))
    keys = [line.partition("=")[0] for line in report_text(rep).splitlines()[1:]]
    assert keys.count("convergence.distance_1") == 1
    assert keys.count("convergence.distance_2") == 1
    assert "convergence.distance_3" not in keys
    assert keys.count("convergence.order") == 1


def test_report_text_rejects_unknown_objects():
    with pytest.raises(TypeError):
        report_text({"not": "a report"})


def test_report_text_golden_for_every_report_class():
    # fixed instances of all seven report classes, covering both sides of
    # every optional block (ladder order, sup-monitor violation, cauchy),
    # and the manufactured-solution ladder that no command writes
    balance = BalanceReport(
        alpha=2.0,
        terminal_residual=1e-5,
        max_residual=2e-5,
        initial_norm=1 / 3,
        relative_terminal=3e-5,
    )
    mass = MassBalanceReport(
        terminal_residual=1e-6,
        max_residual=2e-6,
        initial_mass=1.7724538509055159,
        relative_max=1.1e-6,
    )
    cases = [
        (
            balance,
            "# power balance, alpha = 2\n"
            "balance.alpha=2\n"
            "balance.initial_norm=0.33333333333333331\n"
            "balance.terminal_residual=1.0000000000000001e-05\n"
            "balance.max_residual=2.0000000000000002e-05\n"
            "balance.relative_terminal=3.0000000000000001e-05\n"
            "balance.pass=true\n",
        ),
        (
            replace(
                balance,
                relative_terminal=0.5,
                order=1.9876,
                level_cells=(256, 512),
                level_terminals=(4e-5, 1e-5),
            ),
            "# power balance, alpha = 2\n"
            "balance.alpha=2\n"
            "balance.initial_norm=0.33333333333333331\n"
            "balance.terminal_residual=1.0000000000000001e-05\n"
            "balance.max_residual=2.0000000000000002e-05\n"
            "balance.relative_terminal=0.5\n"
            "balance.order=1.9876\n"
            "balance.level_cells=256,512\n"
            "balance.level_terminals=4.0000000000000003e-05,1.0000000000000001e-05\n"
            "balance.pass=false\n",
        ),
        (
            mass,
            "# mass balance with integration-by-parts closure\n"
            "mass_balance.initial_mass=1.7724538509055159\n"
            "mass_balance.terminal_residual=9.9999999999999995e-07\n"
            "mass_balance.max_residual=1.9999999999999999e-06\n"
            "mass_balance.relative_max=1.1000000000000001e-06\n"
            "mass_balance.pass=true\n",
        ),
        (
            replace(
                mass,
                relative_max=0.02,
                order=2.0,
                level_cells=(256, 512),
                level_maxima=(8e-6, 2e-6),
            ),
            "# mass balance with integration-by-parts closure\n"
            "mass_balance.initial_mass=1.7724538509055159\n"
            "mass_balance.terminal_residual=9.9999999999999995e-07\n"
            "mass_balance.max_residual=1.9999999999999999e-06\n"
            "mass_balance.relative_max=0.02\n"
            "mass_balance.order=2\n"
            "mass_balance.level_cells=256,512\n"
            "mass_balance.level_maxima=7.9999999999999996e-06,1.9999999999999999e-06\n"
            "mass_balance.pass=false\n",
        ),
        (
            SupMonitorReport(0.0, 0.0, 0.0, 1e-10, False, None, None),
            "# running maximum of u against its initial value\n"
            "sup_monitor.sup_u0=0\n"
            "sup_monitor.max_sup_u=0\n"
            "sup_monitor.worst_excess=0\n"
            "sup_monitor.tol=1e-10\n"
            "sup_monitor.violated=false\n",
        ),
        (
            SupMonitorReport(0.0, 0.25, 0.25, 1e-10, True, 0.125, -2.0625),
            "# running maximum of u against its initial value\n"
            "sup_monitor.sup_u0=0\n"
            "sup_monitor.max_sup_u=0.25\n"
            "sup_monitor.worst_excess=0.25\n"
            "sup_monitor.tol=1e-10\n"
            "sup_monitor.violated=true\n"
            "sup_monitor.first_violation_time=0.125\n"
            "sup_monitor.violation_location=-2.0625\n",
        ),
        (
            EntropyReport(
                levels=(-1.0, 0.5),
                family="tensor-hats-8x8",
                n_phi=64,
                dx=0.03125,
                tolerance=1e-3,
                min_value=-4e-3,
                min_by_level=(-4e-3, 2e-3),
                passed=False,
            ),
            "# Kruzhkov weak-form certificate\n"
            "entropy.family=tensor-hats-8x8\n"
            "entropy.n_phi=64\n"
            "entropy.dx=0.03125\n"
            "entropy.tolerance=0.001\n"
            "entropy.min_value=-0.0040000000000000001\n"
            "entropy.margin_ratio=4\n"
            "entropy.levels=-1,0.5\n"
            "entropy.min_by_level=-0.0040000000000000001,0.002\n"
            "entropy.pass=false\n",
        ),
        (
            StabilityReport(
                R=2.0,
                T=0.25,
                c0=2.0,
                c_of_t=5.0,
                sup_u0=0.0,
                sup_w0=-0.5,
                sample_times=(0.125, 0.25),
                measured=(1e-3, 2e-3),
                bound=(0.01, 0.02),
                bound_wide=(0.02, 0.04),
                margins=(9e-3, 0.018),
                passed=True,
                wide_window_clipped=True,
            ),
            "# L1 stability of u against the Gronwall envelope\n"
            "stability.R=2\n"
            "stability.T=0.25\n"
            "stability.C0=2\n"
            "stability.CT=5\n"
            "stability.sup_u0=0\n"
            "stability.sup_w0=-0.5\n"
            "stability.max_measured=0.002\n"
            "stability.min_margin=0.0089999999999999993\n"
            "stability.wide_window_clipped=true\n"
            "stability.times=0.125,0.25\n"
            "stability.measured=0.001,0.002\n"
            "stability.bound=0.01,0.02\n"
            "stability.bound_wide=0.02,0.040000000000000001\n"
            "stability.margins=0.0089999999999999993,0.017999999999999999\n"
            "stability.pass=true\n",
        ),
        (
            ConvergenceReport("grid", (32, 64, 128), (0.04, 0.01), True, order=2.0),
            "# grid ladder in L1 at final time\n"
            "convergence.kind=grid\n"
            "convergence.params=32,64,128\n"
            "convergence.distance_1=0.040000000000000001\n"
            "convergence.distance_2=0.01\n"
            "convergence.order=2\n"
            "convergence.monotone=true\n"
            "convergence.pass=true\n",
        ),
        (
            ConvergenceReport("grid", (32, 64), (0.04,), True),
            "# grid ladder in L1 at final time\n"
            "convergence.kind=grid\n"
            "convergence.params=32,64\n"
            "convergence.distance_1=0.040000000000000001\n"
            "convergence.monotone=true\n"
            "convergence.pass=true\n",
        ),
        (
            ConvergenceReport("epsilon", (0.1, 0.01), (0.02, 0.03), False, cauchy=(0.015,)),
            "# epsilon ladder in L1 at final time\n"
            "convergence.kind=epsilon\n"
            "convergence.params=0.10000000000000001,0.01\n"
            "convergence.distance_1=0.02\n"
            "convergence.distance_2=0.029999999999999999\n"
            "convergence.cauchy_1=0.014999999999999999\n"
            "convergence.monotone=false\n"
            "convergence.pass=false\n",
        ),
        (
            # a failing numpy shock error makes ``passed`` a numpy bool
            RiemannCheck(1024, 0.015625, np.float64(0.05), 0.02),
            "# source-free Riemann sanity against exact solutions\n"
            "burgers.n_cells=1024\n"
            "burgers.dx=0.015625\n"
            "burgers.shock_position_error=0.050000000000000003\n"
            "burgers.shock_tol=0.03125\n"
            "burgers.rarefaction_l1_error=0.02\n"
            "burgers.rarefaction_tol=0.078125\n"
            "burgers.pass=false\n",
        ),
        (
            ConvergenceReport("mms", (256, 512, 1024), (1.89e-3, 4.87e-4, 1.23e-4), True, 1.97),
            "# mms ladder in L1 at final time\n"
            "convergence.kind=mms\n"
            "convergence.params=256,512,1024\n"
            "convergence.distance_1=0.00189\n"
            "convergence.distance_2=0.00048700000000000002\n"
            "convergence.distance_3=0.00012300000000000001\n"
            "convergence.order=1.97\n"
            "convergence.monotone=true\n"
            "convergence.pass=true\n",
        ),
    ]
    for report, expected in cases:
        assert report_text(report) == expected


def test_read_report_inverts_write_report(tmp_path):
    base = stock_config(n_cells=32, final_time=0.125)
    rep = grid_convergence(base, (32, 64))
    path = tmp_path / "conv.report"
    write_report(rep, path)
    data = read_report(path)
    assert data["convergence.kind"] == "grid"
    assert data["convergence.monotone"] in ("true", "false")
    assert float(data["convergence.distance_1"]) > 0.0


# ---------------------------------------------------------------------------
# the command-line entry point
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, name="run.cfg", text=None):
    path = tmp_path / name
    body = text if text is not None else (
        "grid.x_min = -8\n"
        "grid.x_max = 8\n"
        "grid.n_cells = 64\n"
        "init.preset = gaussian\n"
        "run.T = 0.25\n"
        "run.snapshots = 0, 0.25\n"
    )
    path.write_text(body)
    return str(path)


def test_simulate_writes_everything_and_exits_zero(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["simulate", cfg, "--out", str(out)]) == 0
    assert (out / "snapshot_0000.csv").exists()
    assert (out / "snapshot_0001.csv").exists()
    assert not (out / "snapshot_0002.csv").exists()
    assert (out / "diagnostics.csv").exists()
    report = read_report(out / "run.report")
    assert report["run.n_cells"] == "64"
    assert report["run.snapshots"] == "2"
    assert int(report["run.steps"]) > 0


def test_simulate_is_byte_identical_across_invocations(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert dispatch(["simulate", cfg, "--out", str(out_a)]) == 0
    assert dispatch(["simulate", cfg, "--out", str(out_b)]) == 0
    for name in ("snapshot_0000.csv", "snapshot_0001.csv", "diagnostics.csv", "run.report"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# CLI invocations whose output files are pinned byte for byte below: 17-digit
# floats, an integer clip_count column, a %g-tagged alpha (lp_a0.5), the two
# ladder.csv layouts (an integer cell-count column and a viscosity column)
# and LF line endings
CLI_GOLDEN_RUNS = {
    "simulate": (
        ["simulate", "{cfg}"],
        MINIMAL.replace("= 64", "= 256").replace("0.25", "0.5")
        + "scheme.epsilon = 1e-2\nrun.snapshots = 0, 0.25, 0.5\ndiag.alphas = 0, 0.5, 1, 2\n",
    ),
    "sweep-grid": (["sweep", "grid", "{cfg}", "--ladder", "64,128,256"], MINIMAL),
    "sweep-epsilon": (
        ["sweep", "epsilon", "{cfg}", "--ladder", "0.1,0.01"],
        MINIMAL.replace("= 64", "= 2048").replace("0.25", "0.05"),
    ),
}

# sha256 of each pinned file, taken with numpy 2.4.6 on x86-64 Linux
CLI_GOLDEN_DIGESTS = {
    "simulate/diagnostics.csv": "40177dfe269ba4ddf2d83ddd79dabe6cfef4eee18f3e9f8c7c628de422c95961",
    "simulate/run.report": "cdb91bb003ff04d8711a716a9590542a30227e4c2037930a4150712227f17086",
    "simulate/snapshot_0000.csv": "b1f0ff92a33297ef56043bc05ab522b9ed74399b7682d67191b201b834569fe5",
    "simulate/snapshot_0001.csv": "f7c9f677fbfb2983b493fb98a17d77d358025243bc075df52786ee85a7573448",
    "simulate/snapshot_0002.csv": "97808940bbf0bb278b43d23fe499eaaaaee024d2d1603d51cbf2381322ed64a2",
    "sweep-epsilon/ladder.csv": "f2b1bf9342a9dd2f05c3ac55b5599a2d218bf49e3cedc6cfd2cccfee84df9418",
    "sweep-grid/ladder.csv": "6a40bccdf08802fe47853c8aa2bb9d91c5162db1562caa75c658f0220226ef0a",
}


def test_cli_outputs_are_bitwise_golden(tmp_path):
    # the round-trip tests read back what was written, so only fixed digests
    # catch a writer that changes a header, a line ending or an integer column
    digests = {}
    for case, (argv, text) in CLI_GOLDEN_RUNS.items():
        cfg = _write_cfg(tmp_path, name=f"{case}.cfg", text=text)
        out = tmp_path / case
        assert dispatch([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 0
        for path in out.iterdir():
            digests[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = {k: v for k, v in digests.items() if k.startswith("simulate/") or "ladder" in k}
    assert pinned == CLI_GOLDEN_DIGESTS, golden_host_note()


# every command's result path: the report files it writes, one stderr status
# line per report, and its exit status, including failing checks (alpha = 2
# at 64 cells, the expansion-shock fixture) and a stability comparison whose
# second config ends after the first one's final time
CLI_RESULT_CONFIGS = {
    "minimal": MINIMAL,
    "alphas": MINIMAL + "diag.alphas = 0, 0.5, 1, 2\n",
    "sampled": MINIMAL + "run.snapshots = 0.125, 0.25\n",
    "two_bump": MINIMAL.replace("gaussian", "two-bump").replace("0.25", "0.75")
    + "init.amplitude2 = -1\ninit.center2 = 1\nscheme.epsilon = 1e-2\n",
    "fine": CLI_GOLDEN_RUNS["sweep-epsilon"][1],
}
CLI_RESULT_RUNS = {
    "simulate": ["simulate", "{minimal}"],
    "verify-balance": ["verify", "balance", "{alphas}"],
    "verify-balance-ladder": ["verify", "balance", "{alphas}", "--ladder", "64,128,256"],
    "verify-entropy": ["verify", "entropy", "{minimal}"],
    "verify-entropy-fixture": ["verify", "entropy", "--fixture", "expansion-shock"],
    "verify-stability": ["verify", "stability", "{sampled}", "--cfg2", "{two_bump}"],
    "sweep-grid": ["sweep", "grid", "{minimal}", "--ladder", "64,128,256"],
    "sweep-epsilon": ["sweep", "epsilon", "{fine}", "--ladder", "0.1,0.01"],
    "burgers-sanity": ["burgers-sanity", "--cells", "256"],
}

# case -> (exit status, stderr with the temporary directory as {tmp},
# {report file: sha256}), taken with numpy 2.4.6 on x86-64 Linux
CLI_RESULT_GOLDEN = {
    "simulate": (
        0,
        "simulate: 1 snapshot file(s), diagnostics.csv and run.report written to {tmp}/simulate\n",
        {"run.report": "869602d275ddd6ab3a13b47b6b29d9be629b6ae2d14dca045fd01d5ecba39240"},
    ),
    "verify-balance": (
        1,
        "verify balance: alpha=0 relative terminal residual 5.896e-05 (pass)\n"
        "verify balance: alpha=0.5 relative terminal residual 3.030e-03 (pass)\n"
        "verify balance: alpha=1 relative terminal residual 7.235e-03 (pass)\n"
        "verify balance: alpha=2 relative terminal residual 1.837e-02 (FAIL)\n"
        "verify balance: mass identity relative residual 2.946e-04 (pass)\n",
        {
            "balance_a0.5.report": "ce53e1fb7dca5b318ee61d04009905e28628faf075dc2945ec37d90906276160",
            "balance_a0.report": "f9cb8fb7257d15f72dc4f9b1e9ee6ffa1796749293b7ba74e6d818a06c562490",
            "balance_a1.report": "cd97713102a1e24f57eb777c142477520b187c431445ddd7593d6b776e5991b1",
            "balance_a2.report": "cb3fb4aa50f459938ab38e6150e57bbdf350662122beb4a3fa945d017f9e68a4",
            "mass_balance.report": "4d5e5b4c8fd6bda52fcf78a13dc7b66e67bb4e06d8a4131c5c8475ef1d7e430c",
        },
    ),
    "verify-balance-ladder": (
        0,
        "verify balance: alpha=0 relative terminal residual 3.433e-06 (pass)\n"
        "verify balance: alpha=0.5 relative terminal residual 1.613e-04 (pass)\n"
        "verify balance: alpha=1 relative terminal residual 3.936e-04 (pass)\n"
        "verify balance: alpha=2 relative terminal residual 1.073e-03 (pass)\n"
        "verify balance: mass identity relative residual 2.327e-05 (pass)\n",
        {
            "balance_a0.5.report": "43554be349b66f3ff7334f4f81d9c6fe9bad3dd938500332ee1c9f359f577f5e",
            "balance_a0.report": "9a75a32f9d956adb50652a6f6520bd811fc5a131be8d6edd07ad33f41c9c04fd",
            "balance_a1.report": "7ff5194c3919feea8fd67e5bd54ff2200e868199a10a74dd23c246f10a81102c",
            "balance_a2.report": "472c439254d0835ebc2e48ee933d7fe0ec6f8365967bb9c15d9960ac624c1e9f",
            "mass_balance.report": "944a3097c28f89300fd935f9eafe40d15de39c755e8da99a0567197a05d7530b",
        },
    ),
    "verify-entropy": (
        0,
        "verify entropy: {tmp}/minimal.cfg min weak value -1.528e-03 vs tolerance -1.235e-01 "
        "(pass)\n",
        {"entropy.report": "1fa9e6d3ca82c2fc0e0b3cedfd2df26e75c00fff4bfbccc88820f3f9c8cf98e8"},
    ),
    "verify-entropy-fixture": (
        1,
        "verify entropy: expansion-shock fixture min weak value -6.886e-03 vs tolerance "
        "-3.858e-04 (FAIL)\n",
        {"entropy.report": "4211e137bc1855048adc65e31553c1c8cd2561977faadb91d1e944006f8c5def"},
    ),
    "verify-stability": (
        0,
        "verify stability: max measured 5.636e+00, min margin 7.719e+00 (pass)\n",
        {"stability.report": "edd09ae327198ed819d3c23510f60aea9278e9e762822105d35d366def611b9d"},
    ),
    "sweep-grid": (
        0,
        "sweep grid: distances [0.0195, 0.006344] monotone=True\n",
        {"sweep_grid.report": "229d9b5b0ea7bdc0bd5c44ef5658bb45c3fdf2dde3adf986a2fbcf8f19da8546"},
    ),
    "sweep-epsilon": (
        0,
        "sweep epsilon: distances [0.009371, 0.0009477] monotone=True\n",
        {"sweep_epsilon.report": "232296a9a3544b7a791daf00640d85af2162ce5a5f578df6ab488ccac855f5e1"},
    ),
    "burgers-sanity": (
        0,
        "burgers-sanity: shock error 3.382e-03 (tol 1.250e-01), rarefaction error 2.616e-02 "
        "(tol 3.125e-01) (pass)\n",
        {"burgers.report": "2055da5a05be57cbd4d5e1729ac04814d6927ca0622a496e9bda0e42eb573961"},
    ),
}


def test_cli_reports_status_lines_and_exit_codes_are_golden(tmp_path, capsys):
    texts = CLI_RESULT_CONFIGS.items()
    paths = {k: _write_cfg(tmp_path, name=f"{k}.cfg", text=t) for k, t in texts}
    results = {}
    for case, argv in CLI_RESULT_RUNS.items():
        out = tmp_path / case
        code = dispatch([a.format(**paths) for a in argv] + ["--out", str(out)])
        err = capsys.readouterr().err.replace(str(tmp_path), "{tmp}")
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix == ".report"
        }
        results[case] = (code, err, digests)
    assert results == CLI_RESULT_GOLDEN, golden_host_note()


# entropy.report of the stock gaussian at 4096 cells and T = 1, the size at
# which the certificate's (levels x cells) work arrays, 229 KB each, lie
# above the allocator's mmap threshold; the goldens above stay below it
ENTROPY_4096_GOLDEN = "408508f300b9855a7d54d06da226d71397f7afbb3ad275085cf3331255042219"


def test_entropy_report_at_4096_cells_is_golden(tmp_path, capsys):
    text = MINIMAL.replace("n_cells = 64", "n_cells = 4096").replace("run.T = 0.25", "run.T = 1")
    cfg = _write_cfg(tmp_path, text=text)
    assert dispatch(["verify", "entropy", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "entropy.report").read_bytes()
    assert hashlib.sha256(report).hexdigest() == ENTROPY_4096_GOLDEN, golden_host_note()


# the commands whose checks read the diagnostics series; every other one
# runs state-only
RECORDING_RUNS = {"simulate", "verify-balance", "verify-balance-ladder"}


@pytest.mark.parametrize("case", CLI_RESULT_RUNS)
def test_only_budget_commands_record_diagnostics(tmp_path, monkeypatch, case):
    # a recording run makes one row for its initial state and one per step
    calls = Counter()
    for name in ("record_diagnostics", "step", "evolve"):
        original = getattr(exprabelo.solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exprabelo.solver, name, counted)
    texts = CLI_RESULT_CONFIGS.items()
    paths = {k: _write_cfg(tmp_path, name=f"{k}.cfg", text=t) for k, t in texts}
    dispatch([a.format(**paths) for a in CLI_RESULT_RUNS[case]] + ["--out", str(tmp_path)])
    if case in RECORDING_RUNS:
        assert calls["evolve"] >= 1
        assert calls["record_diagnostics"] == calls["step"] + calls["evolve"]
    else:
        assert calls["record_diagnostics"] == 0
    assert calls["step"] > 0 or case == "verify-entropy-fixture"


@pytest.mark.parametrize("case", CLI_RESULT_RUNS)
def test_every_report_file_goes_through_write_report(tmp_path, monkeypatch, case):
    # a tracer that wraps cli_io.write_report sees one call per report file,
    # run.report included
    written = []

    def counted(report, path):
        written.append(path.name)
        write_report(report, path)

    monkeypatch.setattr(exprabelo.cli_io, "write_report", counted)
    texts = CLI_RESULT_CONFIGS.items()
    paths = {k: _write_cfg(tmp_path, name=f"{k}.cfg", text=t) for k, t in texts}
    out = tmp_path / "out"
    dispatch([a.format(**paths) for a in CLI_RESULT_RUNS[case]] + ["--out", str(out)])
    assert sorted(written) == sorted(p.name for p in out.iterdir() if p.suffix == ".report")
    assert written


def test_verify_balance_writes_reports_and_reflects_outcome(tmp_path):
    # At 64 cells the alpha = 2 budget sits above the 1e-2 gate (its
    # residual is second order in dx, but the grid is coarse), so the exit
    # status must say so while every report file is still written.
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = dispatch(["verify", "balance", cfg, "--out", str(out)])
    reports = {
        name: read_report(out / f"{name}.report")
        for name in ("balance_a0", "balance_a1", "balance_a2", "mass_balance")
    }
    assert reports["balance_a0"]["balance.pass"] == "true"
    assert reports["mass_balance"]["mass_balance.pass"] == "true"
    all_passed = all(
        rep.get("balance.pass", rep.get("mass_balance.pass")) == "true"
        for rep in reports.values()
    )
    assert code == (0 if all_passed else 1)


@pytest.mark.parametrize("ladder", [None, (64, 128, 256)], ids=["one run", "ladder"])
def test_verify_balance_writes_the_verifiers_reports(tmp_path, ladder):
    # with --ladder every report is the ladder report, with its order and
    # per-level values; without it, the plain residuals of one run
    text = MINIMAL + "diag.alphas = 0, 0.5, 1\n"
    cfg = parse_config(text)
    out = tmp_path / "out"
    argv = ["verify", "balance", _write_cfg(tmp_path, text=text), "--out", str(out)]
    code = dispatch(argv + (["--ladder", ",".join(map(str, ladder))] if ladder else []))
    if ladder:
        runs = run_ladder(cfg, ladder)
        want = [lp_balance_ladder(runs, a) for a in cfg.diagnostic_alphas]
        want.append(mass_balance_ladder(runs))
    else:
        run = run_simulation(cfg)
        want = [lp_balance_residual(run, a) for a in cfg.diagnostic_alphas]
        want.append(mass_balance_identity(run))
    names = [f"balance_a{a:g}.report" for a in cfg.diagnostic_alphas] + ["mass_balance.report"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name, rep in zip(names, want):
        text = (out / name).read_text()
        assert text == report_text(rep), name
        assert ("order=" in text and "level_cells=64,128,256\n" in text) == bool(ladder), name
    assert code == (0 if all(rep.passed for rep in want) else 1)


def test_verify_entropy_fixture_fails_loudly(tmp_path):
    out = tmp_path / "out"
    code = dispatch(["verify", "entropy", "--fixture", "expansion-shock", "--out", str(out)])
    assert code == 1
    rep = read_report(out / "entropy.report")
    assert rep["entropy.pass"] == "false"
    assert float(rep["entropy.margin_ratio"]) >= 10.0


def test_verify_entropy_on_config_passes(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["verify", "entropy", cfg, "--out", str(out)]) == 0
    rep = read_report(out / "entropy.report")
    assert rep["entropy.pass"] == "true"


def test_verify_stability_against_itself(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = dispatch(["verify", "stability", cfg, "--cfg2", cfg, "--out", str(out)])
    assert code == 0
    rep = read_report(out / "stability.report")
    assert rep["stability.max_measured"] == "0"
    assert rep["stability.pass"] == "true"


def test_sweep_grid_ladder(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["sweep", "grid", cfg, "--out", str(out), "--ladder", "64,128,256"]) == 0
    rep = read_report(out / "sweep_grid.report")
    assert rep["convergence.kind"] == "grid"
    ladder = (out / "ladder.csv").read_text().splitlines()
    assert ladder[0] == "n_cells_coarse,l1_distance_to_refined"
    assert len(ladder) == 3  # header + one row per successive pair


def test_sweep_epsilon_ladder(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        text=(
            "grid.x_min = -8\n"
            "grid.x_max = 8\n"
            "grid.n_cells = 2048\n"
            "init.preset = gaussian\n"
            "run.T = 0.125\n"
        ),
    )
    out = tmp_path / "out"
    code = dispatch(["sweep", "epsilon", cfg, "--out", str(out), "--ladder", "3e-2,1e-2"])
    assert code == 0
    rep = read_report(out / "sweep_epsilon.report")
    assert rep["convergence.kind"] == "epsilon"
    assert rep["convergence.monotone"] == "true"
    ladder = (out / "ladder.csv").read_text().splitlines()
    assert ladder[0] == "epsilon,l1_distance_to_limit"
    assert len(ladder) == 3


# one step of dt = 1e-300: budget residuals and ladder distances are 0 or
# subnormal, and a ladder with a value of 0 has no order
TINY_T = MINIMAL.replace("= 64", "= 2048").replace("0.25", "1e-300")


@pytest.mark.parametrize("ladder", ["2048,4096,8192", "2048,4096"])
def test_balance_ladder_with_a_zero_residual_writes_no_order(tmp_path, ladder):
    # the alpha = 0 residual is exactly 0 on 4096 cells, so that ladder has
    # no order and no log2 error; the other residuals are rounding, subnormal
    # for alpha 1 and 2 and about 1e-15 for the mass rate, below
    # ORDER_RESIDUAL_FLOOR relative to the initial norm or mass, so no report
    # writes an order, and each still lists its rungs
    out = tmp_path / "out"
    argv = ["verify", "balance", _write_cfg(tmp_path, text=TINY_T), "--out", str(out)]
    assert dispatch(argv + ["--ladder", ladder]) == 0
    rep = read_report(out / "balance_a0.report")
    assert rep["balance.level_terminals"].split(",")[1] == "0"
    for name in ("balance_a0", "balance_a1", "balance_a2", "mass_balance"):
        rep = read_report(out / f"{name}.report")
        assert not any(key.endswith(".order") for key in rep)
        assert [v for k, v in rep.items() if k.endswith(".level_cells")] == [ladder]


def test_sweep_epsilon_with_zero_distances_fails_without_an_order(tmp_path):
    out = tmp_path / "out"
    assert dispatch(["sweep", "epsilon", _write_cfg(tmp_path, text=TINY_T), "--out", str(out)]) == 1
    rep = read_report(out / "sweep_epsilon.report")
    assert rep["convergence.distance_1"] == "0"
    assert rep["convergence.monotone"] == "false"
    assert "convergence.order" not in rep


def test_ladder_orders_hold_for_any_refinement_ratio(tmp_path):
    # rungs four times finer report the order of rungs twice as fine: each
    # log2 ratio is divided by log2 of the cell-width ratio
    cfg = _write_cfg(tmp_path, text=MINIMAL.replace("0.25", "1"))

    def orders(command, ladder):
        out = tmp_path / f"{command}-{ladder}"
        assert dispatch([*command.split(), cfg, "--out", str(out), "--ladder", ladder]) == 0
        return {
            (path.name, key): float(value)
            for path in out.glob("*.report")
            for key, value in read_report(path).items() if key.endswith(".order")
        }

    for command, x2, x4 in (
        ("verify balance", "128,256", "128,512"),
        ("sweep grid", "128,256,512", "128,512,2048"),
    ):
        doubling, quadrupling = orders(command, x2), orders(command, x4)
        assert doubling and doubling.keys() == quadrupling.keys()
        for key, order in doubling.items():
            assert quadrupling[key] == pytest.approx(order, rel=0.1), (command, key)


# a steep gaussian whose v^401 overflows from the first state on
STEEP = (
    MINIMAL.replace("= 64", "= 2048").replace("run.T = 0.25", "run.T = 0.05")
    + "init.amplitude = 2\ndiag.alphas = 0, 400\n"
)


def test_state_only_checks_ignore_an_overflowing_diagnostic_column(tmp_path, capsys):
    # the checks that read only fields compute no lp column, so the one that
    # overflows can no longer turn them into unusable input
    cfg = _write_cfg(tmp_path, text=STEEP)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = dispatch(["sweep", "epsilon", cfg, "--out", str(tmp_path / "sweep")])
        assert (code, capsys.readouterr().err) == (
            0, "sweep epsilon: distances [0.4526, 0.1442, 0.04899, 0.0148, 0.004943] "
            "monotone=True\n")
        assert dispatch(["verify", "entropy", cfg, "--out", str(tmp_path / "entropy")]) != 2
    capsys.readouterr()
    # simulate records that column and names it, with its first time, and
    # no numpy warning escapes
    code = dispatch(["simulate", cfg, "--out", str(tmp_path / "simulate")])
    assert (code, capsys.readouterr().err) == (
        2, "error: non-finite diagnostic entry: lp_a400 at t = 0\n")


def test_burgers_sanity_subcommand(tmp_path):
    # the Riemann fixtures touch the boundary by design and must not warn
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryFluxWarning)
        assert dispatch(["burgers-sanity", "--out", str(out), "--cells", "256"]) == 0
    rep = read_report(out / "burgers.report")
    assert rep["burgers.pass"] == "true"
    assert float(rep["burgers.shock_position_error"]) <= float(rep["burgers.shock_tol"])


@pytest.mark.parametrize("radius", ["0", "-1", "nan"])
def test_verify_stability_rejects_an_empty_window(tmp_path, radius):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = dispatch(["verify", "stability", cfg, "--cfg2", cfg, "--out", str(out), "--R", radius])
    assert code == 2
    assert not (out / "stability.report").exists()


def test_usage_errors_exit_two(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path)
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["simulate", str(tmp_path / "missing.cfg"), "--out", out]) == 2
    assert dispatch(["verify", "balance", "--out", out]) == 2
    assert dispatch(["verify", "stability", cfg, "--out", out]) == 2  # missing --cfg2
    bad = _write_cfg(tmp_path, name="bad.cfg", text="grid.x_min = -8\n")
    assert dispatch(["simulate", bad, "--out", out]) == 2
    # v is clipped at 0 only; the retired positivity floor is an unknown key
    floor = _write_cfg(tmp_path, name="floor.cfg", text=MINIMAL + "scheme.v_floor = 1e-10\n")
    assert dispatch(["simulate", floor, "--out", out]) == 2
    # 1 and 1.0000001 would share the columns lp_a1, dissipation_a1, source_a1
    collide = _write_cfg(tmp_path, name="collide.cfg", text=MINIMAL + "diag.alphas = 1, 1.0000001\n")
    assert dispatch(["simulate", collide, "--out", out]) == 2
    # an empty viscosity ladder on a grid fine enough to be swept
    fine = _write_cfg(tmp_path, name="fine.cfg", text=MINIMAL.replace("= 64", "= 2048"))
    assert dispatch(["sweep", "epsilon", fine, "--out", out, "--ladder", ","]) == 2


def test_non_finite_viscosity_rung_is_named_on_stderr(tmp_path, capsys):
    fine = _write_cfg(tmp_path, text=MINIMAL.replace("= 64", "= 2048"))
    out = tmp_path / "out"
    assert dispatch(["sweep", "epsilon", fine, "--out", str(out), "--ladder", "inf,0.01"]) == 2
    assert "error: epsilon must be finite and nonnegative, got inf" in capsys.readouterr().err


# a domain wide enough for a stability window of R = 1000, where C0 = 2
WIDE = """
grid.x_min = -2048
grid.x_max = 2048
grid.n_cells = 4096
init.preset = gaussian
run.T = 0.5
run.snapshots = 0.5
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "epsilon", "{cfg}", "--ladder", ","],
        ["sweep", "grid", "{cfg}", "--ladder", "64"],
        ["verify", "balance", "{cfg}", "--ladder", ","],
        ["verify", "entropy"],
        ["verify", "entropy", "{viscous}"],
        ["burgers-sanity", "--cells", "0"],
        ["verify", "balance", "{cfg}", "--ladder", "8192"],
        ["verify", "balance", "{no_alpha0}"],
        ["verify", "balance", "{no_alpha0}", "--ladder", "64,128"],
        ["verify", "balance", "{t0}", "--ladder", "64,128"],
        ["sweep", "epsilon", "{t0_fine}", "--ladder", "0.1,0.01"],
        ["sweep", "grid", "{t0}", "--ladder", "64,128,256"],
        ["verify", "entropy", "{t0}"],
        # ladders must strictly increase
        ["verify", "balance", "{cfg}", "--ladder", "128,64"],
        ["verify", "balance", "{cfg}", "--ladder", "64,64"],
        ["sweep", "grid", "{cfg}", "--ladder", "128,64"],
        ["sweep", "grid", "{cfg}", "--ladder", "64,64"],
        # stability input that the certificate rejects before either run
        ["verify", "stability", "{cfg}", "--cfg2", "{cfg}", "--R", "0"],
        ["verify", "stability", "{cfg}", "--cfg2", "{coarse}"],
        ["verify", "stability", "{cfg}", "--cfg2", "{short}"],
        ["verify", "stability", "{short}", "--cfg2", "{short}"],  # no positive snapshot
        ["verify", "stability", "{cfg}", "--cfg2", "{cfg}", "--R", "7.6"],  # R + C0 T > 8
        ["verify", "stability", "{wide}", "--cfg2", "{wide}", "--R", "1000"],  # e^1001 overflows
        # a zero cell count, which the nesting test divides by
        ["sweep", "grid", "{cfg}", "--ladder", "0,64"],
        # an option of another check, or both of entropy's sources
        ["verify", "balance", "{cfg}", "--R", "3"],
        ["verify", "balance", "{cfg}", "--fixture", "expansion-shock"],
        ["verify", "entropy", "{cfg}", "--fixture", "expansion-shock"],
        ["verify", "stability", "{cfg}", "--cfg2", "{cfg}", "--ladder", "64,128"],
        # an empty --ladder= asks for no rungs, not for the default ladder
        ["sweep", "epsilon", "{fine}", "--ladder="],
        ["sweep", "grid", "{cfg}", "--ladder="],
        ["verify", "balance", "{cfg}", "--ladder="],
    ],
    ids=" ".join,
)
def test_rejected_command_leaves_no_output_directory(tmp_path, no_evolve, argv):
    texts = {
        "cfg": None,
        "viscous": MINIMAL + "scheme.epsilon = 1e-2\n",
        "no_alpha0": NO_ALPHA0,
        "t0": AT_T0,
        "t0_fine": AT_T0_FINE,
        "coarse": MINIMAL.replace("= 64", "= 128"),
        "short": MINIMAL.replace("0.25", "0.1"),  # ends before {cfg}'s snapshot at 0.25
        "fine": MINIMAL.replace("= 64", "= 2048"),
        "wide": WIDE,
    }
    paths = {k: _write_cfg(tmp_path, name=f"{k}.cfg", text=t) for k, t in texts.items()}
    out = tmp_path / "d"
    assert dispatch([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "text, ladder, cause",
    [
        (MINIMAL, "8192", "at least two cell counts"),
        (NO_ALPHA0, None, "alpha = 0 in diag.alphas"),
        (AT_T0, "64,128", "run.T > 0"),
        (MINIMAL, "128,64", "strictly increasing"),
    ],
    ids=["one-rung ladder", "no alpha 0", "T = 0", "decreasing ladder"],
)
def test_verify_balance_names_why_it_rejects_input(tmp_path, capsys, text, ladder, cause):
    argv = ["verify", "balance", _write_cfg(tmp_path, text=text), "--out", str(tmp_path / "d")]
    assert dispatch(argv + (["--ladder", ladder] if ladder else [])) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "epsilon", "--ladder", "0.1,0.01"],
        ["sweep", "grid", "--ladder", "64,128,256"],
        ["verify", "entropy"],
    ],
    ids=" ".join,
)
def test_zero_final_time_is_rejected_naming_run_T(tmp_path, capsys, argv):
    # at T = 0 a sweep compares initial data with itself and the entropy
    # certificate integrates over nothing; both refuse such input by name
    cfg = _write_cfg(tmp_path, text=AT_T0_FINE)
    out = tmp_path / "d"
    assert dispatch(argv[:2] + [cfg, "--out", str(out)] + argv[2:]) == 2
    assert "needs run.T > 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_non_finite_init_parameter(tmp_path, capsys, no_evolve):
    cfg = _write_cfg(tmp_path, text=MINIMAL + "init.amplitude = inf\n")
    out = tmp_path / "d"
    assert dispatch(["simulate", cfg, "--out", str(out)]) == 2
    assert "parameter 'amplitude' must be finite" in capsys.readouterr().err
    assert not out.exists()


# v <= e^-300 on 64 cells: v^3 underflows to 0, v^2 and v do not
UNDERFLOW = MINIMAL.replace("run.T = 0.25", "run.T = 0.5") + "init.amplitude = -300\n"
# ((x - c) / sigma)^2 overflows, so the profile is 0 everywhere
TINY_SIGMA = MINIMAL + "init.sigma = 1e-300\n"
# a cell count beyond 2^53, where the float64 cell indices stop being exact
HUGE_COUNT = "1" + "0" * 400
# 4 cells on [-5e-324, 5e-324]: the cell width underflows to 0
ZERO_WIDTH = (MINIMAL.replace("x_min = -8", "x_min = -5e-324")
              .replace("x_max = 8", "x_max = 5e-324").replace("n_cells = 64", "n_cells = 4"))


# the exit-status contract on input that parses but that the arithmetic cannot
# use: (config text or None, command, status, a phrase of the status lines).
# The config's path goes last, and also where the command names {cfg}.
# 0 passes, 1 is a failed verification, 2 is unusable input with no output.
# Where numpy overflows on the way, the program's own check names the value,
# and no numpy warning escapes (the suite turns warnings into errors).
@pytest.mark.parametrize(
    "text, command, status, says",
    [
        (UNDERFLOW, ["verify", "balance"], 2, "alpha = 2 needs a positive initial norm"),
        (MINIMAL + "init.amplitude = -746\n", ["simulate"], 2, "max v must be positive"),
        (UNDERFLOW + "diag.alphas = 0, 1\n", ["verify", "balance"], 0, "(pass)"),
        (MINIMAL + "diag.alphas = -0, 1\n", ["verify", "balance"], 0, "(pass)"),
        (None, ["verify", "entropy", "--fixture", "expansion-shock"], 1, "(FAIL)"),
        (TINY_SIGMA, ["simulate"], 2, "max v must be positive"),
        (MINIMAL + "init.amplitude = 800\n", ["simulate"], 2, "FieldV values must be finite"),
        (MINIMAL + "init.amplitude = 700\n", ["simulate"], 2, "non-finite boundary flux at t = 0"),
        (MINIMAL + "init.amplitude = 200\n", ["simulate"], 2,
         "non-finite value in cell 3 at t = 7.32677e-87"),
        (ZERO_WIDTH, ["simulate"], 2,
         "cell width 0.0 of [-5e-324, 5e-324] with 4 cells must be positive"),
        (MINIMAL.replace("n_cells = 64", f"n_cells = {HUGE_COUNT}"), ["simulate"], 2,
         "n_cells must be at most 2^53"),
        (None, ["burgers-sanity", "--cells", HUGE_COUNT], 2, "n_cells must be at most 2^53"),
        # 8e15 bytes lie beyond the address space: the first allocation is
        # refused outright, before any page is touched
        (MINIMAL.replace("n_cells = 64", "n_cells = 1000000000000000"), ["simulate"], 2,
         "Unable to allocate 7.11 PiB"),
        # on 64 cells over [-8, 8] the window |x| < dx/2 holds no cell centre
        (MINIMAL + "run.snapshots = 0.25\n", ["verify", "stability", "--cfg2", "{cfg}",
                                              "--R", "0.125"], 2, "must exceed dx/2 = 0.125"),
    ],
    ids=["zero initial norm", "v underflows", "positive norms", "negative zero alpha",
         "expansion shock", "profile overflows", "v overflows", "flux overflows", "blow-up",
         "width underflows", "count past 2^53", "burgers count past 2^53", "allocation refused",
         "stability window of no cell"],
)
def test_hostile_input_gets_its_documented_exit_status(tmp_path, capsys, text, command,
                                                       status, says):
    if text is not None:
        cfg = _write_cfg(tmp_path, text=text)
        command = [*(a.format(cfg=cfg) for a in command), cfg]
    out = tmp_path / "out"
    assert dispatch([*command, "--out", str(out)]) == status
    err = capsys.readouterr().err
    assert says in err
    assert out.exists() == (status != 2)
    if status == 2:  # one error line, no traceback
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _no_flapack():
    raise ImportError("no scipy.linalg._flapack in scipy 0.0")


VISCOUS = MINIMAL + "scheme.epsilon = 1e-2\n"
PLATEAU = MINIMAL.replace("init.preset = gaussian", "init.preset = plateau")


# a scipy piece that cannot be imported makes the installation unusable, which
# is exit 2, not a failed verification
@pytest.mark.parametrize(
    "text, unload",
    [
        (VISCOUS, lambda mp: mp.setattr(exprabelo.scheme, "_dgtsv", _no_flapack)),
        (PLATEAU, lambda mp: mp.setitem(sys.modules, "scipy.special", None)),
    ],
    ids=["no dgtsv", "no scipy.special"],
)
def test_a_missing_scipy_piece_exits_two(tmp_path, capsys, monkeypatch, text, unload):
    unload(monkeypatch)
    out = tmp_path / "out"
    assert dispatch(["simulate", _write_cfg(tmp_path, text=text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_a_scipy_without_flapack_is_named_and_exits_two(tmp_path):
    # the path finder finds no _flapack under an empty linalg directory; the
    # error names the module and the scipy version
    import scipy

    (tmp_path / "linalg").mkdir()
    out = tmp_path / "out"
    code = (f"import scipy\nscipy.__path__ = [{str(tmp_path)!r}]\n"
            "from exprabelo.cli_io import main\n"
            f"main(['simulate', {_write_cfg(tmp_path, text=VISCOUS)!r}, '--out', {str(out)!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: no scipy.linalg._flapack in scipy {scipy.__version__}\n")
    assert not out.exists()


def test_module_entry_point_sets_the_exit_status(tmp_path):
    # python -m runs __main__ and main()
    out = tmp_path / "out"
    argv = ["verify", "entropy", "--fixture", "expansion-shock", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "exprabelo", *argv], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert read_report(out / "entropy.report")["entropy.pass"] == "false"
    # outside pytest's warning filters too, an overflow reaches stderr only
    # as the one error line of the check that refuses it
    cfg = _write_cfg(tmp_path, text=TINY_SIGMA)
    argv = ["simulate", cfg, "--out", str(tmp_path / "tiny")]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "exprabelo", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, "error: max v must be positive to size a time step\n")
    assert not (tmp_path / "tiny").exists()


LOADED_SCIPY = """
def loaded(step):
    names = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(step, *names)
"""

# Runs in one fresh interpreter: after each step it prints the scipy modules
# loaded so far. Of these CLI steps only the viscous solve (LAPACK's dgtsv)
# and the plateau profile (expit) may load scipy, each when first needed.
COLD_START = LOADED_SCIPY + """
import sys
import exprabelo.cli_io
import exprabelo.solver

loaded("import")
for step, argv in [
    ("simulate", ["simulate", CFG["inviscid"]]),
    ("entropy", ["verify", "entropy", CFG["inviscid"]]),
    ("viscous", ["simulate", CFG["viscous"]]),
    ("plateau", ["simulate", CFG["plateau"]]),
]:
    assert exprabelo.cli_io.dispatch(argv + ["--out", OUT + step]) == 0, step
    loaded(step)
"""


def test_cold_start_loads_scipy_only_where_it_is_used(tmp_path):
    cfgs = {
        "inviscid": _write_cfg(tmp_path, name="inviscid.cfg", text=MINIMAL),
        "viscous": _write_cfg(
            tmp_path, name="viscous.cfg", text=MINIMAL + "scheme.epsilon = 1e-2\n"
        ),
        "plateau": _write_cfg(
            tmp_path,
            name="plateau.cfg",
            text=MINIMAL.replace("init.preset = gaussian", "init.preset = plateau"),
        ),
    }
    code = f"CFG = {cfgs!r}\nOUT = {str(tmp_path / 'out-')!r}\n" + COLD_START
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {step: set(names) for step, *names in map(str.split, proc.stdout.splitlines())}
    assert list(loaded) == ["import", "simulate", "entropy", "viscous", "plateau"]
    for step in ("import", "simulate", "entropy"):
        assert loaded[step] == set(), step
    # the viscous step loads dgtsv's extension module and what import scipy
    # loads by itself, but never runs scipy.linalg's package init
    code = LOADED_SCIPY + "import sys, scipy\nloaded('scipy')\n"
    bare = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    _, *bare_scipy = bare.stdout.split()
    assert loaded["viscous"] - set(bare_scipy) == {"scipy.linalg._flapack"}
    assert not {"scipy.linalg", "scipy.linalg.lapack"} & loaded["viscous"]
    assert not {"scipy.special", "scipy.integrate", "scipy.optimize"} & loaded["viscous"]
    assert "scipy.special" in loaded["plateau"]


def test_viscous_entropy_request_exits_two(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        name="viscous.cfg",
        text=(
            "grid.x_min = -8\n"
            "grid.x_max = 8\n"
            "grid.n_cells = 64\n"
            "init.preset = gaussian\n"
            "scheme.epsilon = 1e-2\n"
            "run.T = 0.25\n"
        ),
    )
    out = str(tmp_path / "out")
    assert dispatch(["verify", "entropy", cfg, "--out", out]) == 2
