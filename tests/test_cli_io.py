"""Tests for config parsing, CSV round trips, report rendering, and the
command-line entry point.

The CLI contract pinned down here: exit status 0 for a passing run, 1 for
a verification failure, 2 for unusable input; CSV numbers at 17
significant digits survive a bitwise round trip; report files are plain
key=value lines behind a single comment header; repeated invocations are
byte-identical.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from exprabelo.errors import BoundaryFluxWarning, ConfigError, GridAlignmentError
from exprabelo.grid_field import GridSpec, InitialDataSpec, init_field
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig
from exprabelo.solver import DEFAULT_ALPHAS, run_simulation
from exprabelo.cli_io import (
    CSV_HEADER,
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
    MmsReport,
    RiemannCheck,
    StabilityReport,
    SupMonitorReport,
    cancelling_forcing,
    grid_convergence,
    l1_stability_check,
    lp_balance_residual,
)
from exprabelo.solver import evolve

from conftest import stock_config

MINIMAL = """
grid.x_min = -8
grid.x_max = 8
grid.n_cells = 64
init.preset = gaussian
run.T = 0.25
"""

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
scheme.v_floor = 1e-10

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
    assert cfg.scheme.v_floor == 1e-12
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
        ("scheme.flux = upwindish", "unknown flux"),
        ("run.snapshots = 0, banana", "banana"),
        ("scheme.epsilon = nan", "nan"),
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
    np.testing.assert_array_equal(u, snap.field_u.values)
    np.testing.assert_array_equal(p, snap.p.cell_values)


def test_snapshot_p_column_is_the_prefix_integral(tmp_path):
    run = _small_run()
    snap = run.snapshot_at(0.25)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(snap, path)
    *_, p = read_snapshot_csv(path)
    fresh = prefix_integral(run.grid, snap.field_v)
    np.testing.assert_array_equal(p, fresh.cell_values)


def test_read_snapshot_rejects_tampered_header(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("time,x,v,u,P\n0,0,1,0,0\n")
    with pytest.raises(ValueError):
        read_snapshot_csv(path)


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
    assert n_rows == run.diagnostics.times.size

    cfg = stock_config(n_cells=64, final_time=0.25, alphas=(0, 0.5, 2))
    write_diagnostics_csv(run_simulation(cfg).diagnostics, path)
    assert path.read_text().splitlines()[0].split(",")[9:] == [
        "lp_a0", "dissipation_a0", "source_a0",
        "lp_a0.5", "dissipation_a0.5", "source_a0.5",
        "lp_a2", "dissipation_a2", "source_a2",
    ]


def test_diagnostics_csv_round_trip_is_bitwise(tmp_path):
    cfg = stock_config(n_cells=64, epsilon=1e-2, final_time=0.25, alphas=(0, 0.5, 2))
    series = run_simulation(cfg).diagnostics
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(series, path)
    header, *lines = path.read_text().splitlines()
    texts = zip(*(line.split(",") for line in lines))
    assert header.split(",") == [name for name, _ in series.columns()]
    assert series.clip_counts.dtype == np.int64
    for (name, col), text in zip(series.columns(), texts, strict=True):
        parse = int if name == "clip_count" else float
        back = np.array([parse(tok) for tok in text], dtype=col.dtype)
        assert back.tobytes() == np.ascontiguousarray(col).tobytes(), name


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def test_identical_run_stability_report_text():
    times = (0.0, 0.25)
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=times)
    run_a = run_simulation(cfg)
    run_b = run_simulation(cfg)
    rep = l1_stability_check(run_a, run_b, R=2.0, T=0.25, sample_times=(0.25,))
    text = report_text(rep)
    assert text.startswith("#")
    assert "stability.pass=true\n" in text
    assert "stability.max_measured=0\n" in text


def test_frozen_field_balance_report_prints_zero_residual():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    base = SchemeConfig(epsilon=0.0, source_enabled=False, v_floor=1e-300)
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
    # fixed instances of all eight report classes, covering both sides of
    # every optional block (ladder order, sup-monitor violation, cauchy)
    t, r = np.array([0.0, 0.5]), np.array([0.0, 1e-5])
    balance = BalanceReport(
        alpha=2.0,
        times=t,
        residuals=r,
        terminal_residual=1e-5,
        max_residual=2e-5,
        initial_norm=1 / 3,
        relative_terminal=3e-5,
    )
    mass = MassBalanceReport(
        times=t,
        residuals=r,
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
            MmsReport((256, 512, 1024), (1.89e-3, 4.87e-4, 1.23e-4), (1.95, 1.98), 1.97),
            "# manufactured-solution L1 order\n"
            "mms.cells=256,512,1024\n"
            "mms.errors=0.00189,0.00048700000000000002,0.00012300000000000001\n"
            "mms.pair_orders=1.95,1.98\n"
            "mms.order=1.97\n"
            "mms.pass=true\n",
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
    # 1 and 1.0000001 would share the columns lp_a1, dissipation_a1, source_a1
    collide = _write_cfg(tmp_path, name="collide.cfg", text=MINIMAL + "diag.alphas = 1, 1.0000001\n")
    assert dispatch(["simulate", collide, "--out", out]) == 2
    # an empty viscosity ladder on a grid fine enough to be swept
    fine = _write_cfg(tmp_path, name="fine.cfg", text=MINIMAL.replace("= 64", "= 2048"))
    assert dispatch(["sweep", "epsilon", fine, "--out", out, "--ladder", ","]) == 2


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
