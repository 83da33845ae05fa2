"""Tests for the time-stepping driver and its diagnostics recording.

The oracles here lean on exact discrete identities: the recorded source
integral at alpha = 0 telescopes to half the difference of squared
boundary prefix values, snapshot timestamps are forced bitwise onto the
requested times, and a forcing term built to cancel the full right-hand
side freezes the field exactly.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exprabelo.scheme
import exprabelo.solver
from exprabelo.errors import (
    BoundaryFluxWarning,
    DataGapError,
    ShapeError,
    StateError,
)
from exprabelo.grid_field import FieldV, GridSpec, InitialDataSpec, init_field, u_from_v
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig, interface_fluxes
from exprabelo.solver import (
    DiagnosticsSeries,
    ROW_BLOCK,
    RunConfig,
    column_names,
    evolve,
    landings,
    record_diagnostics,
    run_diagnostics,
    run_simulation,
)
from exprabelo.verifiers import (
    lp_balance_residual,
    mms_forcing,
    riemann_initial,
)

from conftest import (
    cancelling_forcing,
    golden_host_note,
    host_kernels,
    reference_diagnostics_row,
    stock_config,
    traced_peak,
)


def test_source_integral_telescopes_to_boundary_prefix_values(stock_run_256):
    # S_0 = sum_i v_i P_i dx is an exact telescoping sum: with P the
    # cumulative integral of v, v_i P_i dx = P interface differences
    # times the midpoint value, which collapses to (P_R^2 - P_L^2) / 2.
    diag = stock_run_256.diagnostics
    s0 = diag.of("source", 0.0)
    expected = 0.5 * (diag["p_right"]**2 - diag["p_left"]**2)
    np.testing.assert_allclose(s0, expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("flux", ["godunov", "rusanov"])
def test_boundary_flux_matches_the_full_interface_fluxes(flux, monkeypatch):
    # evolve evaluates each state's interface fluxes once, records the
    # boundary column from them and hands them to the next step; every
    # recorded value must agree bitwise with a fresh full evaluation
    rng = np.random.default_rng(13)
    cfg = SchemeConfig(flux=flux)
    states = []
    original = exprabelo.solver.step

    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        states.append(out.values)
        return out

    monkeypatch.setattr(exprabelo.solver, "step", keep)
    for n in (4, 6, 64):
        grid = GridSpec(-1.0, 1.0, n)
        v0 = FieldV(rng.uniform(0.0, 2.0, n), 0.0)
        states[:] = [v0.values]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryFluxWarning)
            run = evolve(grid, v0, cfg, 0.25, (0.1,))
        assert len(states) == run.diagnostics["time"].size > 2
        for v, recorded in zip(states, run.diagnostics["boundary_flux"]):
            full = interface_fluxes(v, flux)
            assert recorded == abs(full[0]) + abs(full[-1])


def _one_sided_state():
    """A bump on x > 0 only, so P >= 0 and every term of the lp, source and
    dissipation sums is >= 0: a relative error per term bounds the sum's."""
    grid = GridSpec(-4.0, 4.0, 256)
    x = grid.centers
    fv = FieldV(np.where(x > 0.0, np.exp(-(((x - 1.5) / 0.5) ** 2)), 0.0), 0.0)
    return grid, fv, prefix_integral(grid, fv)


def _power_columns(alphas, **cfg):
    grid, fv, p = _one_sided_state()
    scheme = SchemeConfig(**cfg)
    flux = interface_fluxes(fv.values, scheme.flux)
    row = record_diagnostics(grid, fv, p, flux, scheme, 0.0, alphas)
    series = DiagnosticsSeries.from_rows([row], alphas)
    return {name: np.array([series.of(name, a)[0] for a in alphas])
            for name in exprabelo.solver.ALPHA_COLUMNS} | {"mass": series["mass"][0]}


def _np_power_columns(alphas, epsilon):
    """The same columns with every v^(a+1) taken by np.power and reduced as
    record_diagnostics reduces them."""
    grid, fv, p = _one_sided_state()
    v, k = fv.values, np.array(alphas) + 1.0
    pad = np.zeros((len(alphas), v.size + 2))
    for row, power in zip(pad, k):
        np.power(v, power, out=row[1:-1])
    dv = np.diff(np.concatenate(([0.0], v, [0.0])))
    return {
        "lp": np.add.reduce(pad[:, 1:-1], axis=1) * grid.dx,
        "dissipation": epsilon * k * np.add.reduce(np.diff(pad, axis=1) * dv, axis=1) / grid.dx,
        "source": k * np.add.reduce(pad[:, 1:-1] * p.cell_values, axis=1) * grid.dx,
    }


def test_power_chain_column_depends_only_on_its_own_alpha():
    # v^3 = (v v) v whether or not v^2 is a column of the same row, and in
    # whatever order a direct caller lists the alphas
    alone = _power_columns((2.0,), epsilon=1e-2)
    for alphas in ((0.0, 1.0, 2.0), (0.5, 2.0, 3.0), (3.0, 2.0)):
        cols = _power_columns(alphas, epsilon=1e-2)
        j = alphas.index(2.0)
        for name in ("lp", "dissipation", "source"):
            assert cols[name][j] == alone[name][0], (alphas, name)


def test_power_chain_columns_lie_within_2_ulp_of_np_power():
    alphas = (0.0, 1.0, 2.0, 3.0)
    cols = _power_columns(alphas, epsilon=1e-2)
    ref = _np_power_columns(alphas, epsilon=1e-2)
    for name in ("lp", "dissipation", "source"):
        assert np.all(ref[name] > 0.0)
        np.testing.assert_array_max_ulp(cols[name], ref[name], maxulp=2)
    # alpha 0 and 1 are v and v v either way, and lp_a0 is the mass sum
    for name in ("lp", "dissipation", "source"):
        assert cols[name][:2].tobytes() == ref[name][:2].tobytes()
    assert cols["lp"][0] == cols["mass"]


def test_unchained_alpha_columns_keep_np_power_bitwise():
    # non-integer alphas, and integer ones past the chain's v^4 (a chain of
    # a million products would not end in reasonable time), take np.power
    alphas = (0.5, 1.5, 2.0, 4.0, 1e6)
    cols = _power_columns(alphas, epsilon=1e-2)
    ref = _np_power_columns(alphas, epsilon=1e-2)
    keep = [0, 1, 3, 4]
    for name in ("lp", "dissipation", "source"):
        assert cols[name][keep].tobytes() == ref[name][keep].tobytes(), name


# nonnegative fields with exact zeros, long enough for numpy's pairwise sums
_fields = arrays(
    np.float64,
    st.integers(4, 300),
    elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e-3)),
)


@given(
    v=_fields,
    alphas=st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0)),
                    min_size=1, max_size=5, unique=True),
    epsilon=st.sampled_from((0.0, 1e-2)),
    source_enabled=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_one_row_recorder_gives_the_block_rows_bitwise(v, alphas, epsilon, source_enabled):
    # alpha sets with gaps such as (0, 2) and (1, 3), non-integer alphas and
    # ones past CHAIN_MAX_POWER, sorted as evolve passes them or in any order
    # a direct caller lists them; the float bits are compared, so a -0.0 for
    # a 0.0 would fail
    alphas = tuple(alphas)
    grid = GridSpec(-0.25 * (v.size // 2), 0.25 * (v.size - v.size // 2), v.size)
    fv = FieldV(v, 0.25, 3)
    p = prefix_integral(grid, fv)
    cfg = SchemeConfig(epsilon=epsilon, source_enabled=source_enabled)
    flux = interface_fluxes(fv.values, cfg.flux)
    row = record_diagnostics(grid, fv, p, flux, cfg, 1e-3, alphas)
    ref = reference_diagnostics_row(grid, fv, p, flux, cfg, 1e-3, alphas)
    assert np.array(row).view(np.uint64).tolist() == np.array(ref).view(np.uint64).tolist()


def test_snapshots_land_bitwise_on_requested_times(stock_run_256):
    times = [snap.time for snap in stock_run_256.snapshots]
    for want in (0.0, 0.25, 0.5):
        assert want in times  # equality, not approx: dt is shortened to land


def test_landed_fields_are_not_rescanned(monkeypatch):
    # step checks each field it makes once; relabelling a landed field with
    # its requested time must not run FieldV's validating constructor again
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    scans = []
    original = FieldV.__post_init__
    monkeypatch.setattr(FieldV, "__post_init__", lambda self: scans.append(original(self)))
    times = (0.1, 0.2, 0.3)
    run = evolve(grid, v0, SchemeConfig(), final_time=0.3, snapshot_times=times)
    assert [snap.time for snap in run.snapshots] == list(times)
    assert scans == []
    assert not run.final_state.values.flags.writeable


def test_snapshot_at_matches_the_exact_time_only(stock_run_256):
    assert stock_run_256.snapshot_at(0.5).time == 0.5
    with pytest.raises(DataGapError, match="no snapshot at t = 0.5000000000000001"):
        stock_run_256.snapshot_at(math.nextafter(0.5, 1.0))


def test_final_time_always_snapshotted():
    cfg = stock_config(n_cells=64, final_time=0.125, snapshot_times=())
    run = run_simulation(cfg)
    assert run.snapshots[-1].time == 0.125
    assert run.final_state is run.snapshots[-1].field_v


def test_diagnostic_times_strictly_increase_and_end_at_final_time(stock_run_256):
    t = stock_run_256.diagnostics["time"]
    assert np.all(np.diff(t) > 0)
    assert t[-1] == 0.5


def test_zero_duration_run_records_initial_state_only():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=32)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    cfg = SchemeConfig()
    result = evolve(grid, v0, cfg, final_time=0.0, snapshot_times=(0.0,))
    assert result.diagnostics["time"].shape == (1,)
    assert result.diagnostics["dt"][0] == 0.0
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
        time=np.array([0.0, 0.1]),
        dt=np.array([0.1, 0.1]),
        sup_u=np.zeros(2),
        sup_u_x=np.zeros(2),
        mass=np.ones(2),
        boundary_flux=np.zeros(2),
        p_left=np.zeros(2),
        p_right=np.ones(2),
        clip_count=np.zeros(2, dtype=np.int64),
        lp_a0=np.ones(2),
        dissipation_a0=np.zeros(2),
        source_a0=np.zeros(2),
    )
    DiagnosticsSeries((0.0,), good)  # sanity: the template itself is valid

    with pytest.raises(DataGapError):
        DiagnosticsSeries((0.0,), {k: v[:0] for k, v in good.items()})

    decreasing = dict(good)
    decreasing["time"] = np.array([0.1, 0.0])
    with pytest.raises(StateError):
        DiagnosticsSeries((0.0,), decreasing)

    tainted = dict(good)
    tainted["mass"] = np.array([1.0, math.nan])
    with pytest.raises(StateError, match=r"entry: mass at t = 0\.1$"):
        DiagnosticsSeries((0.0,), tainted)
    # the first tainted column in file order is named, at its first bad time
    tainted["source_a0"] = np.array([math.inf, math.inf])
    tainted["boundary_flux"] = np.array([0.0, math.inf])
    with pytest.raises(StateError, match=r"entry: mass at t = 0\.1$"):
        DiagnosticsSeries((0.0,), tainted)
    tainted["mass"] = np.ones(2)
    with pytest.raises(StateError, match=r"entry: boundary_flux at t = 0\.1$"):
        DiagnosticsSeries((0.0,), tainted)
    tainted["boundary_flux"] = np.zeros(2)
    with pytest.raises(StateError, match=r"entry: source_a0 at t = 0$"):
        DiagnosticsSeries((0.0,), tainted)

    ragged = dict(good)
    ragged["dissipation_a0"] = np.zeros(3)
    with pytest.raises(ShapeError):
        DiagnosticsSeries((0.0,), ragged)

    # the columns are exactly column_names(alphas), in order
    reordered = {"dt": good["dt"]} | good
    for columns, alphas in ((good, (1.0,)), (reordered, (0.0,)), ({}, (0.0,))):
        with pytest.raises(ShapeError, match="diagnostic columns must be"):
            DiagnosticsSeries(alphas, columns)


def test_cancelling_forcing_freezes_field_exactly():
    # With the source switched off, no viscosity, and a forcing equal to
    # minus the full semi-discrete right-hand side of the initial state,
    # both Heun stages add exactly zero: the field never moves.
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=128)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    # No cell goes negative, so the positivity clip is a no-op and the
    # cancellation survives bitwise.
    base = SchemeConfig(epsilon=0.0, source_enabled=False)
    frozen = replace(base, forcing=cancelling_forcing(grid, v0, base))
    result = evolve(grid, v0, frozen, final_time=0.5, snapshot_times=(0.5,))
    np.testing.assert_array_equal(result.final_state.values, v0.values)

    report = lp_balance_residual(result, alpha=0.0)
    assert report.terminal_residual == 0.0


def test_run_simulation_normalizes_diagnostic_alphas():
    cfg = stock_config(n_cells=64, final_time=0.25, alphas=(2, 0, 1, 1))
    run = run_simulation(cfg)
    assert run.diagnostics.alphas == (0.0, 1.0, 2.0)
    assert [name for name in run.diagnostics.columns if name.startswith("lp_")] == [
        "lp_a0", "lp_a1", "lp_a2"]


def test_negative_zero_alpha_is_alpha_zero():
    # -0 == 0, but "%g" tags it a-0: it must name the alpha = 0 columns
    run = run_simulation(stock_config(n_cells=64, final_time=0.25, alphas=(-0.0, 1)))
    assert run.diagnostics.alphas == (0.0, 1.0)
    assert math.copysign(1.0, run.diagnostics.alphas[0]) == 1.0
    assert [name for name in run.diagnostics.columns if name.startswith("lp_")] == [
        "lp_a0", "lp_a1"]
    assert run.diagnostics.of("lp", -0.0) is run.diagnostics["lp_a0"]


def test_evolve_normalizes_alphas_as_run_config_does():
    # evolve sorts and dedupes the alphas itself, so a direct call writes
    # the columns of a RunConfig run, and rejects colliding %g tags
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    names = [
        list(evolve(grid, v0, SchemeConfig(), 0.1, alphas=a).diagnostics.columns)
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
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            RunConfig(grid=grid, init=init, diagnostic_alphas=(0.0, alpha))
    # 1 and 1.0000001 both print as a1, so their columns and reports collide
    with pytest.raises(ValueError, match=r"1\.0 and 1\.0000001"):
        RunConfig(grid=grid, init=init, diagnostic_alphas=(1.0, 1.0000001))


def test_clip_counts_are_integer_valued(stock_run_256):
    counts = stock_run_256.diagnostics["clip_count"]
    assert np.issubdtype(counts.dtype, np.integer)
    assert np.all(counts >= 0)


def test_sup_location_tracks_moving_maximum():
    # The gaussian bump drifts right under the positive transport speed,
    # so the recorded argmax location should never move left by more
    # than one cell and should end strictly right of where it started.
    cfg = stock_config(n_cells=256, final_time=1.0)
    run = run_simulation(cfg)
    xs = run.diagnostics["sup_u_x"]
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
    "forced-nosource-240": "9f90ad33d3921a6e061e28d3fcf59879c729ef0ed41213faeb13195cc04b9319",
    "godunov-nosource": "3bf818d391207b6c5cee3741e317cc84e1b7c80ec5d26ca4ebf9031db8a3e12a",
    "rusanov": "9d8ac5671e566a96d699f8cb78fad29cc8707d20d42b69eeb6e240ac37602a3c",
    "stock": "e7386cca9989fcc81916ffc8fd7b9de6e32ef82c42dcb53b338206597a671cb4",
    "viscous": "f2741c661f980d3fa47fb56fda827366bfc8f39dd4678457c11185f52702dec2",
    "viscous-240": "e69d67febf5cd48a0614bebbc8efd3d47eccfc506b774b01057cd508913b20d6",
    "viscous-forced": "294e54249621478e809f219d6d1ec96b16928a95b7f1a66feb961bd91c425b7c",
    "viscous-limited": "78bc01c91000fe00cbdd400c8e60dd98b502c30b53406700d7c92fccbe84760e",
    "viscous-limited-rusanov-240": "688250b2ed9a461528c05cdd495cc46461cb4feed63b1feb91560e400f4b9b0b",
    "viscous-rusanov": "d1b5965ea6d937f0d9f601e3f4574ffa4a7c38a61ad17f06b31a68551acb6136",
    "viscous-rusanov-nosource": "d1f3b9fc1ff4388e97fee90168d5c61469f4669af6e2e2a20ba86b40113af830",
}


def _output_digest(run) -> str:
    """sha256 over the final v, every diagnostics column in file order and
    every snapshot's u and prefix integral."""
    cols = [run.final_state.values, *run.diagnostics.columns.values()]
    for snap in run.snapshots:
        cols += [snap.u, snap.p.interface_values, snap.p.cell_values]
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
    assert _output_digest(run) == GOLDEN_DIGESTS[case], golden_host_note()


def test_landings_yield_the_golden_snapshots():
    # streamed, the snapshots are exactly those the stock golden run keeps
    base = stock_config(256, final_time=0.5, snapshot_times=(0.0, 0.25, 0.5))
    landed = tuple(landings(base.grid, init_field(base.grid, base.init), base.scheme,
                            base.final_time, base.snapshot_times))
    assert [snap.time for snap in landed] == [0.0, 0.25, 0.5]
    run = replace(run_simulation(base), snapshots=landed)
    assert _output_digest(run) == GOLDEN_DIGESTS["stock"], golden_host_note()


# The equation is invariant under v(t, x) -> lam v(lam t, x), and so is the
# scheme: flux, P, source, CFL step, landing and implicit solve all scale
# exactly in IEEE arithmetic when lam is a power of two. So this pin holds on
# any host, whatever its exp, log and BLAS kernels, and it fails on a term
# that does not scale like the PDE (-P for -v P, eps v_xx for eps v v_xx).
@pytest.mark.parametrize("lam", [2.0, 8.0, 0.25])
@pytest.mark.parametrize("flux", ["godunov", "rusanov"])
@pytest.mark.parametrize("epsilon", [0.0, 1e-2])
@pytest.mark.parametrize("n_cells, half_width", [(256, 8.0), (240, 7.5)])
def test_rescaled_data_give_the_rescaled_run_bit_for_bit(n_cells, half_width, epsilon, flux,
                                                         lam):
    grid = GridSpec(x_min=-half_width, x_max=half_width, n_cells=n_cells)
    cfg = SchemeConfig(epsilon=epsilon, flux=flux)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    base = evolve(grid, v0, cfg, 1.0, (0.25, 0.5))
    scaled = evolve(grid, FieldV(lam * v0.values), cfg, 1.0 / lam, (0.25 / lam, 0.5 / lam))
    assert [s.time for s in scaled.snapshots] == [s.time / lam for s in base.snapshots]
    for a, b in zip(base.snapshots, scaled.snapshots):
        assert (lam * a.field_v.values).tobytes() == b.field_v.values.tobytes()
    assert (base.diagnostics["dt"] / lam).tobytes() == scaled.diagnostics["dt"].tobytes()


def test_a_golden_mismatch_names_three_kernel_facts_or_unknown(monkeypatch, tmp_path):
    facts = host_kernels().split(", ")
    assert [fact.split()[0] for fact in facts] == ["numpy", "SIMD", "OpenBLAS"]
    # a numpy without the bundled library next to it: that fact reads unknown
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert host_kernels() == ", ".join([*facts[:2], "OpenBLAS unknown"])


def stream(*args):
    """The snapshots ``landings`` yields for ``args``, as a tuple."""
    return tuple(landings(*args))


# (epsilon, flux, source_enabled, forced) of the state-only parity runs: both
# fluxes at eps = 0 and 1e-2, with the source on and off, and the
# manufactured forcing
PARITY_CASES = [
    (eps, flux, source, False)
    for eps in (0.0, 1e-2) for flux in ("godunov", "rusanov") for source in (True, False)
] + [(1e-2, "godunov", True, True)]


@pytest.mark.parametrize("leaky", [False, True], ids=["stock-domain", "leaky-domain"])
@pytest.mark.parametrize("case", PARITY_CASES, ids=lambda c: "-".join(map(str, c)))
def test_state_only_run_matches_a_recording_run_bitwise(monkeypatch, case, leaky):
    eps, flux, source, forced = case
    scheme = SchemeConfig(flux=flux, epsilon=eps, source_enabled=source,
                          forcing=mms_forcing(eps) if forced else None)
    # on [-2, 2] the gaussian starts at e^-4 on the edges and leaks out
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=128) if leaky else stock_config(128).grid
    v0 = FieldV(np.exp(-grid.centers**2), 0.0)
    # steps and flux evaluations, keyed by the run in progress: a streamed
    # run still reuses each state's fluxes in the next step
    calls = Counter()
    for module, name in ((exprabelo.solver, "step"), (exprabelo.solver, "interface_fluxes"),
                         (exprabelo.scheme, "interface_fluxes")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name, run] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    runs, warned = {}, {}
    for run in (evolve, stream):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs[run] = run(grid, v0, scheme, 0.5, (0.0, 0.25, 0.5))
        warned[run] = [(w.category, str(w.message)) for w in caught]
    recorded, state_only = runs[evolve], runs[stream]

    steps = recorded.diagnostics["time"].size - 1
    assert calls["step", stream] == calls["step", evolve] == steps
    assert calls["interface_fluxes", stream] == calls["interface_fluxes", evolve] == 2 * steps + 1
    assert state_only[-1].field_v.values.tobytes() == recorded.final_state.values.tobytes()
    assert len(state_only) == len(recorded.snapshots) == 3
    for a, b in zip(state_only, recorded.snapshots):
        assert a.time == b.time
        assert a.field_v.values.tobytes() == b.field_v.values.tobytes()
        assert a.u.tobytes() == b.u.tobytes()
        assert a.p.interface_values.tobytes() == b.p.interface_values.tobytes()
        assert a.p.cell_values.tobytes() == b.p.cell_values.tobytes()
    assert warned[stream] == warned[evolve]
    assert [c for c, _ in warned[evolve]] == [BoundaryFluxWarning] * leaky


def test_state_only_run_keeps_the_finite_boundary_flux_check(monkeypatch):
    # evolve and landings check each state's boundary flux in their one
    # loop, with one message
    def overflowing(v, flux):
        return np.full(v.size + 1, math.inf)

    monkeypatch.setattr(exprabelo.solver, "interface_fluxes", overflowing)
    cfg = stock_config(64, final_time=0.125)
    for run in (evolve, stream):
        with pytest.raises(StateError, match="non-finite boundary flux at t = 0$"):
            run(cfg.grid, init_field(cfg.grid, cfg.init), cfg.scheme, cfg.final_time)


@pytest.mark.parametrize("run", [evolve, stream], ids=["evolve", "landings"])
def test_boundary_flux_warning_points_at_the_caller(run):
    # the warning is given inside the loop's generator; it must name the
    # line that asked for the run, not a line of solver.py
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=64)
    v0 = riemann_initial(grid, v_left=2.0, v_right=1.0)
    with pytest.warns(BoundaryFluxWarning) as caught:
        run(grid, v0, SchemeConfig(source_enabled=False), 0.5)
    assert [w.filename for w in caught] == [__file__]


def test_boundary_flux_warning_of_a_diagnostics_run_points_at_the_caller(monkeypatch):
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=64)
    monkeypatch.setattr(exprabelo.solver, "init_field",
                        lambda g, spec: riemann_initial(g, v_left=2.0, v_right=1.0))
    cfg = replace(stock_config(64, final_time=0.5), grid=grid,
                  scheme=SchemeConfig(source_enabled=False))
    with pytest.warns(BoundaryFluxWarning) as caught:
        run_diagnostics(cfg)
    assert [w.filename for w in caught] == [__file__]


def test_traced_functions_exist_and_evolve_calls_them_through_module_bindings(monkeypatch):
    # a call that bypasses the module binding the benchmark's tracer wraps
    # goes unseen (solver.steps would read 0)
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
    rows = run.diagnostics["time"].size
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


@given(
    n_cells=st.integers(32, 128).map(lambda k: 2 * k),  # x = 0 on an interface
    two_bump=st.booleans(),
    cfl=st.sampled_from((0.4, 0.05, 0.02)),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_snapshots_and_stored_rows_carry_the_bits_of_the_march(n_cells, two_bump, cfl,
                                                                fractions):
    # a snapshot keeps v alone, so its u and P, computed when read, must be
    # those of the state the march yielded; the rows evolve stores as they
    # are made, over one or more blocks, must be those record_diagnostics
    # gives for the same states
    init = InitialDataSpec.two_bump() if two_bump else InitialDataSpec.gaussian()
    base = stock_config(n_cells, final_time=0.25, init=init, alphas=(0.0, 0.5, 1.0, 2.0),
                        snapshot_times=tuple(0.25 * f for f in fractions))
    cfg = replace(base, scheme=SchemeConfig(cfl=cfl))
    grid, scheme, alphas = cfg.grid, cfg.scheme, cfg.diagnostic_alphas
    v0 = init_field(grid, cfg.init)
    rows, states = [], []
    for fv, p, flux, dt, landed in exprabelo.solver._march(grid, v0, scheme, cfg.final_time,
                                                           cfg.snapshot_times):
        rows.append(record_diagnostics(grid, fv, p, flux, scheme, dt, alphas))
        if landed:
            states.append((fv, p))
    run = run_simulation(cfg)
    streamed = tuple(landings(grid, v0, scheme, cfg.final_time, cfg.snapshot_times))
    for snapshots in (run.snapshots, streamed):
        assert len(snapshots) == len(states)
        for snap, (fv, p) in zip(snapshots, states):
            assert snap.time == fv.time
            assert snap.x is grid.centers
            assert snap.field_v.values.tobytes() == fv.values.tobytes()
            assert snap.p.interface_values.tobytes() == p.interface_values.tobytes()
            assert snap.p.cell_values.tobytes() == p.cell_values.tobytes()
            assert snap.u.tobytes() == u_from_v(snap.field_v).tobytes()
    want = DiagnosticsSeries.from_rows(rows, alphas)
    diagnostics_only = run_diagnostics(cfg)
    assert diagnostics_only.snapshots == ()
    for series in (run.diagnostics, diagnostics_only.diagnostics):
        assert list(series.columns) == list(want.columns)
        for name, col in want.columns.items():
            assert series[name].dtype == col.dtype
            assert series[name].tobytes() == col.tobytes(), name


def test_a_kept_snapshot_costs_one_float64_field():
    # a snapshot keeps v alone; keeping u and P beside it took about 4 fields
    cfg = stock_config(2048, final_time=0.25)
    v0 = init_field(cfg.grid, cfg.init)

    def run(n_snapshots):
        times = tuple(np.linspace(0.0, cfg.final_time, n_snapshots + 1)[1:])
        evolve(cfg.grid, v0, cfg.scheme, cfg.final_time, times)

    run(0)  # one-time allocations
    bare, snapped = (traced_peak(lambda: run(n)) for n in (0, 40))
    assert snapped - bare <= 1.25 * 40 * cfg.grid.n_cells * 8


def test_stored_diagnostics_take_at_most_two_float64_per_entry():
    # each row is copied into float64 as it is made, and each column is
    # joined alone; rows kept as lists of floats until the end took about
    # 6 float64 per entry at the peak
    cfg = replace(stock_config(256), scheme=SchemeConfig(cfl=0.01))
    v0 = init_field(cfg.grid, cfg.init)
    rows = {}

    def run(final_time):
        rows[final_time] = evolve(cfg.grid, v0, cfg.scheme, final_time).diagnostics["time"].size

    run(0.1)  # one-time allocations
    short, long = (traced_peak(lambda: run(t)) for t in (0.1, 1.0))
    assert rows[1.0] - rows[0.1] > 8 * ROW_BLOCK
    entries = (rows[1.0] - rows[0.1]) * len(column_names(cfg.diagnostic_alphas))
    assert long - short <= 2 * entries * 8


def test_a_run_holds_at_most_eighteen_fields_at_its_peak():
    # every stage computes into arrays it allocates and drops; a pool of
    # work buffers held for the whole run peaked at 22-29 fields here
    n = 2048
    viscous = stock_config(n, epsilon=1e-2, final_time=0.05)
    v0 = init_field(viscous.grid, viscous.init)
    exprabelo.scheme.step(viscous.grid, v0, viscous.scheme, 1e-3)  # loads LAPACK untraced

    def stream():
        for _ in landings(viscous.grid, v0, SchemeConfig(), 0.05):
            pass

    peaks = {
        "landings": traced_peak(stream),
        "evolve": traced_peak(lambda: evolve(viscous.grid, v0, SchemeConfig(), 0.05)),
        "viscous evolve": traced_peak(lambda: evolve(viscous.grid, v0, viscous.scheme, 0.05)),
    }
    assert {name: peak / (n * 8) for name, peak in peaks.items() if peak > 18 * n * 8} == {}


def test_final_state_of_a_run_that_kept_no_snapshot_is_a_data_gap():
    run = run_diagnostics(stock_config(64, final_time=0.125, snapshot_times=(0.0, 0.0625)))
    assert run.snapshots == ()
    with pytest.raises(DataGapError, match="kept no snapshot"):
        run.final_state
