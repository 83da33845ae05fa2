"""Tests for the time-stepping driver and its diagnostics recording.

The oracles here lean on exact discrete identities: the recorded source
integral at alpha = 0 telescopes to half the difference of squared
boundary prefix values, snapshot timestamps are forced bitwise onto the
requested times, and a forcing term built to cancel the full right-hand
side freezes the field exactly.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import exprabelo.scheme
import exprabelo.solver
from exprabelo.errors import (
    BoundaryFluxWarning,
    DataGapError,
    ShapeError,
    StateError,
)
from exprabelo.grid_field import FieldV, GridSpec, InitialDataSpec, init_field
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig, interface_fluxes
from exprabelo.solver import (
    DEFAULT_ALPHAS,
    DiagnosticsSeries,
    RunConfig,
    evolve,
    record_diagnostics,
    run_simulation,
)
from exprabelo.verifiers import (
    cancelling_forcing,
    lp_balance_residual,
    mms_forcing,
    riemann_initial,
)

from conftest import stock_config


def test_source_integral_telescopes_to_boundary_prefix_values(stock_run_256):
    # S_0 = sum_i v_i P_i dx is an exact telescoping sum: with P the
    # cumulative integral of v, v_i P_i dx = P interface differences
    # times the midpoint value, which collapses to (P_R^2 - P_L^2) / 2.
    diag = stock_run_256.diagnostics
    s0 = diag.source_integral[0.0]
    expected = 0.5 * (diag.p_right**2 - diag.p_left**2)
    np.testing.assert_allclose(s0, expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("flux", ["godunov", "rusanov"])
def test_boundary_flux_matches_the_full_interface_fluxes(flux):
    # the diagnostics read the boundary fluxes from their own full
    # evaluation, which the next step's first stage reuses; standalone they
    # must agree bitwise with a fresh one
    rng = np.random.default_rng(13)
    cfg = SchemeConfig(flux=flux)
    for n in (4, 6, 64):
        grid = GridSpec(-1.0, 1.0, n)
        fv = FieldV(rng.uniform(0.0, 2.0, n), 0.0)
        row = record_diagnostics(grid, fv, prefix_integral(grid, fv), cfg, 0.0)
        series = DiagnosticsSeries.from_rows([row], DEFAULT_ALPHAS)
        full = interface_fluxes(fv.values, flux)
        assert series.boundary_flux[0] == abs(full[0]) + abs(full[-1])


def test_snapshots_land_bitwise_on_requested_times(stock_run_256):
    times = [snap.time for snap in stock_run_256.snapshots]
    for want in (0.0, 0.25, 0.5):
        assert want in times  # equality, not approx: dt is shortened to land


def test_final_time_always_snapshotted():
    cfg = stock_config(n_cells=64, final_time=0.125, snapshot_times=())
    run = run_simulation(cfg)
    assert run.snapshots[-1].time == 0.125
    assert run.final_state is run.snapshots[-1].field_v


def test_diagnostic_times_strictly_increase_and_end_at_final_time(stock_run_256):
    t = stock_run_256.diagnostics.times
    assert np.all(np.diff(t) > 0)
    assert t[-1] == 0.5


def test_zero_duration_run_records_initial_state_only():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=32)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    cfg = SchemeConfig()
    result = evolve(grid, v0, cfg, final_time=0.0, snapshot_times=(0.0,))
    assert result.diagnostics.times.shape == (1,)
    assert result.diagnostics.dts[0] == 0.0
    assert len(result.snapshots) == 1
    np.testing.assert_array_equal(result.snapshots[0].field_v.values, v0.values)


def test_evolve_rejects_nonzero_initial_time():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=32)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    shifted = FieldV(values=v0.values, time=0.5)
    with pytest.raises(ValueError):
        evolve(grid, shifted, SchemeConfig(), final_time=1.0)


def test_evolve_rejects_snapshot_time_outside_run():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=32)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    with pytest.raises(ValueError):
        evolve(grid, v0, SchemeConfig(), final_time=1.0, snapshot_times=(2.0,))


def test_snapshot_at_hit_and_miss(stock_run_256):
    snap = stock_run_256.snapshot_at(0.25)
    assert snap.time == 0.25
    with pytest.raises(DataGapError):
        stock_run_256.snapshot_at(0.33)


def test_boundary_flux_warning_on_nonzero_boundary_data():
    # A Riemann step with v > 0 at both ends pushes mass through the
    # right boundary, which the driver reports as a warning.
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=64)
    v0 = riemann_initial(grid, v_left=2.0, v_right=1.0)
    cfg = SchemeConfig(source_enabled=False)
    with pytest.warns(BoundaryFluxWarning):
        evolve(grid, v0, cfg, final_time=0.5)


def test_stock_run_is_warning_free():
    import warnings

    cfg = stock_config(n_cells=128, final_time=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryFluxWarning)
        run_simulation(cfg)


def test_diagnostics_series_rejects_bad_rows():
    good = dict(
        times=np.array([0.0, 0.1]),
        dts=np.array([0.1, 0.1]),
        sup_u=np.zeros(2),
        sup_u_x=np.zeros(2),
        mass=np.ones(2),
        boundary_flux=np.zeros(2),
        p_left=np.zeros(2),
        p_right=np.ones(2),
        clip_counts=np.zeros(2, dtype=np.int64),
        alphas=(0.0,),
        lp_norms={0.0: np.ones(2)},
        dissipation={0.0: np.zeros(2)},
        source_integral={0.0: np.zeros(2)},
    )
    DiagnosticsSeries(**good)  # sanity: the template itself is valid

    empty = {
        k: (v[:0] if isinstance(v, np.ndarray) else v) for k, v in good.items()
    }
    empty["lp_norms"] = {0.0: np.ones(0)}
    empty["dissipation"] = {0.0: np.zeros(0)}
    empty["source_integral"] = {0.0: np.zeros(0)}
    with pytest.raises(DataGapError):
        DiagnosticsSeries(**empty)

    decreasing = dict(good)
    decreasing["times"] = np.array([0.1, 0.0])
    with pytest.raises(StateError):
        DiagnosticsSeries(**decreasing)

    tainted = dict(good)
    tainted["mass"] = np.array([1.0, math.nan])
    with pytest.raises(StateError):
        DiagnosticsSeries(**tainted)

    ragged = dict(good)
    ragged["dissipation"] = {0.0: np.zeros(3)}
    with pytest.raises(ShapeError):
        DiagnosticsSeries(**ragged)


def test_cancelling_forcing_freezes_field_exactly():
    # With the source switched off, no viscosity, and a forcing equal to
    # minus the full semi-discrete right-hand side of the initial state,
    # both Heun stages add exactly zero: the field never moves.
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=128)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    # v_floor far below the gaussian tails, so the positivity clip is a
    # no-op and the cancellation survives bitwise.
    base = SchemeConfig(epsilon=0.0, source_enabled=False, v_floor=1e-300)
    frozen = replace(base, forcing=cancelling_forcing(grid, v0, base))
    result = evolve(grid, v0, frozen, final_time=0.5, snapshot_times=(0.5,))
    np.testing.assert_array_equal(result.final_state.values, v0.values)

    report = lp_balance_residual(result, alpha=0.0)
    assert report.terminal_residual == 0.0


def test_run_simulation_normalizes_diagnostic_alphas():
    cfg = stock_config(n_cells=64, final_time=0.25, alphas=(2, 0, 1, 1))
    run = run_simulation(cfg)
    assert run.diagnostics.alphas == (0.0, 1.0, 2.0)
    assert set(run.diagnostics.lp_norms) == {0.0, 1.0, 2.0}


def test_evolve_normalizes_alphas_as_run_config_does():
    # evolve sorts and dedupes the alphas itself, so a direct call writes
    # the columns of a RunConfig run, and rejects colliding %g tags
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    names = [
        [name for name, _ in evolve(grid, v0, SchemeConfig(), 0.1, alphas=a).diagnostics.columns()]
        for a in ((2, 1), (1, 2), (1.0, 2.0, 2))
    ]
    assert names[0] == names[1] == names[2]
    assert names[0][-6:] == ["lp_a1", "dissipation_a1", "source_a1",
                             "lp_a2", "dissipation_a2", "source_a2"]
    with pytest.raises(ValueError, match=r"1\.0 and 1\.0000001"):
        evolve(grid, v0, SchemeConfig(), 0.1, alphas=(1, 1.0000001))


def test_run_config_normalizes_and_validates():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=32)
    init = InitialDataSpec.gaussian()
    cfg = RunConfig(grid=grid, init=init, snapshot_times=(0.5, 0.25, 0.5))
    assert cfg.snapshot_times == (0.25, 0.5)

    with pytest.raises(ValueError):
        RunConfig(grid=grid, init=init, final_time=-1.0)
    with pytest.raises(ValueError):
        RunConfig(grid=grid, init=init, snapshot_times=(3.0,))
    with pytest.raises(ValueError):
        RunConfig(grid=grid, init=init, diagnostic_alphas=())
    with pytest.raises(ValueError):
        RunConfig(grid=grid, init=init, diagnostic_alphas=(-1.0,))
    # 1 and 1.0000001 both print as a1, so their columns and reports collide
    with pytest.raises(ValueError, match=r"1\.0 and 1\.0000001"):
        RunConfig(grid=grid, init=init, diagnostic_alphas=(1.0, 1.0000001))


def test_clip_counts_are_integer_valued(stock_run_256):
    counts = stock_run_256.diagnostics.clip_counts
    assert np.issubdtype(counts.dtype, np.integer)
    assert np.all(counts >= 0)


def test_sup_location_tracks_moving_maximum():
    # The gaussian bump drifts right under the positive transport speed,
    # so the recorded argmax location should never move left by more
    # than one cell and should end strictly right of where it started.
    cfg = stock_config(n_cells=256, final_time=1.0)
    run = run_simulation(cfg)
    xs = run.diagnostics.sup_u_x
    assert np.all(np.diff(xs) >= -run.grid.dx * 1.5)
    assert xs[-1] > xs[0]


# (n_cells, epsilon, flux, source_enabled, forcing) of the runs whose every
# output bit is pinned below. At 256 cells dx is a power of two, which makes
# scaling by dx exact; the 240-cell runs (dx = 1/15) also pin the order of
# the operations that involve dx.
GOLDEN_CASES = {
    "stock": (256, 0.0, "godunov", True, False),
    "viscous": (256, 1e-2, "godunov", True, False),
    "rusanov": (256, 0.0, "rusanov", True, False),
    "viscous-rusanov-nosource": (256, 1e-2, "rusanov", False, False),
    "godunov-nosource": (256, 0.0, "godunov", False, False),
    "viscous-rusanov": (256, 1e-2, "rusanov", True, False),
    "viscous-forced": (256, 1e-2, "godunov", True, True),
    "viscous-limited": (256, 1e-1, "godunov", True, False),
    "viscous-240": (240, 1e-2, "godunov", True, False),
    "viscous-limited-rusanov-240": (240, 1e-1, "rusanov", True, False),
    "forced-nosource-240": (240, 1e-2, "godunov", False, True),
}

GOLDEN_DIGESTS = {
    "forced-nosource-240": "ba667e81240380c296ad56865fabe722a3beb69f736b2f1275acce252bcb4e3b",
    "godunov-nosource": "ff425041b44882e9bac0708ec0a65f5615f26aa73e96bc36cd949fae42e4f837",
    "rusanov": "23c59d3da61799d3f45f2eb6dca5f4a2bdc8c00f94528552f9a8e8e144dfe4f1",
    "stock": "5a9acbf3c8acf59bda247ca7de433827c8aa132ae33a9668e6ae6af500bdf841",
    "viscous": "679d76ede2368b6c0078e1399075a404f61eaf8c0c7cbc58be1451b0ce6045be",
    "viscous-240": "d280db5e834c306685dc98c0fe7069c05800eba95b331cc07392b7a1ed52527b",
    "viscous-forced": "fd931dbb4910970459e92dd46529b91418de6b300f4f53cf9b36e73a2af884c1",
    "viscous-limited": "4e95493bc73582427817d33815fd3bd9fe22c1acdc51c09c8a9626eda09d3219",
    "viscous-limited-rusanov-240": "b9340277a9c17551da6b324014f2642770f56e35d4abc6c4db7cb01e52f712eb",
    "viscous-rusanov": "2b762647907993050212e6c93c1e653c71ff737869001c0a10c934243d7417ec",
    "viscous-rusanov-nosource": "a0f1f02e944e4a5465b9212a8814f43f709e8e6a1afd61b79fbbadef42a5242a",
}


def _output_digest(run) -> str:
    """sha256 over the final v, every diagnostics column in file order and
    every snapshot's u and prefix integral."""
    cols = [run.final_state.values] + [col for _, col in run.diagnostics.columns()]
    for snap in run.snapshots:
        cols += [snap.field_u.values, snap.p.interface_values, snap.p.cell_values]
    h = hashlib.sha256()
    for col in cols:
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_outputs_are_bitwise_golden(case):
    # The hot loop may be restructured only through exact IEEE identities,
    # so every output bit of these small runs must stay as pinned (digests
    # taken with numpy 2.4 and scipy 1.17 on x86-64; the eps > 0 runs also
    # go through LAPACK's dgtsv).
    n_cells, eps, flux, source, forced = GOLDEN_CASES[case]
    scheme = SchemeConfig(
        flux=flux,
        epsilon=eps,
        source_enabled=source,
        forcing=mms_forcing(eps) if forced else None,
    )
    base = stock_config(n_cells, final_time=0.5, snapshot_times=(0.0, 0.25, 0.5))
    run = run_simulation(replace(base, scheme=scheme))
    assert _output_digest(run) == GOLDEN_DIGESTS[case]


def _traced_targets():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_traced_functions_exist_and_evolve_calls_them_through_module_bindings(monkeypatch):
    # the benchmark's tracer wraps these names at their module bindings; a
    # missing name breaks the traced run, and a call that bypasses the
    # binding goes unseen (solver.steps would read 0)
    for _, module, attr, _ in _traced_targets():
        assert callable(getattr(importlib.import_module(f"exprabelo.{module}"), attr))

    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("step", "cfl_dt", "prefix_integral", "record_diagnostics", "interface_fluxes"):
        count(exprabelo.solver, name)
    count(exprabelo.scheme, "interface_fluxes")  # the second stage of each step
    run = run_simulation(stock_config(64, epsilon=1e-2, final_time=0.25, snapshot_times=(0.125,)))
    rows = run.diagnostics.times.size
    steps = rows - 1
    assert steps > 2
    # one flux evaluation per diagnostics row, reused by the next step's
    # first stage, and one for each second stage
    assert calls == {
        "step": steps,
        "cfl_dt": steps,
        "prefix_integral": rows,
        "record_diagnostics": rows,
        "interface_fluxes": 2 * steps + 1,
    }
