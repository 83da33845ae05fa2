"""Tests for the verification toolkit.

Each derived quantity gets an independent oracle: cumulative trapezoid
sums are checked against scipy, hat-function integrals against adaptive
quadrature, the manufactured forcing against finite differences of the
closed-form solution, and the entropy certificate against analytic
shock fields whose admissibility is known in advance.
"""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import exprabelo.verifiers
from exprabelo.errors import (
    BoundaryFluxWarning,
    DataGapError,
    DomainError,
    SparseSnapshotsError,
)
from exprabelo.grid_field import GridSpec, InitialDataSpec, build_grid, init_field, u_from_v
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig
from exprabelo.solver import RunConfig, evolve, landings, run_simulation
from exprabelo.verifiers import (
    ENTROPY_HATS,
    EPSILON_LADDER,
    EPSILON_LADDER_MIN_CELLS,
    _chord_speed,
    _default_levels,
    _entropy_report,
    _hat_at,
    _hat_integral,
    _hat_sums,
    _kruzhkov_pair,
    _max_sample_gap,
    _samples,
    burgers_riemann_oracle,
    burgers_sanity,
    dense_snapshot_times,
    epsilon_convergence,
    expansion_shock_field,
    grid_convergence,
    kruzhkov_on_field,
    kruzhkov_residual,
    l1_stability_check,
    lp_balance_ladder,
    lp_balance_residual,
    mass_balance_identity,
    mass_balance_ladder,
    mms_forcing,
    mms_prefix,
    mms_solution,
    observed_order,
    restrict_to_coarse,
    riemann_initial,
    run_ladder,
    sup_principle_monitor,
)

from conftest import (
    cancelling_forcing,
    perturbed_gaussian,
    semi_discrete_rhs,
    stock_config,
    traced_peak,
    v_form_kruzhkov_pair,
)


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------

def test_restrict_to_coarse_is_block_average():
    fine = np.array([1.0, 3.0, 2.0, 6.0, 10.0, 0.0])
    np.testing.assert_array_equal(restrict_to_coarse(fine, 2), [2.0, 4.0, 5.0])
    np.testing.assert_array_equal(restrict_to_coarse(fine, 3), [2.0, 16.0 / 3.0])
    with pytest.raises(ValueError):
        restrict_to_coarse(fine, 4)  # 6 not divisible by 4
    with pytest.raises(ValueError):
        restrict_to_coarse(fine, 0)


def test_dense_snapshot_times_resolve_the_grid_scale():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=128)
    times = np.asarray(dense_snapshot_times(grid, 1.0))
    assert times[0] == 0.0
    assert times[-1] == 1.0
    assert np.max(np.diff(times)) <= grid.dx * (1.0 + 1e-12)


def test_dense_snapshot_times_resolve_the_time_hats():
    # on a short run the time hats, of half-width T / (ENTROPY_HATS + 1),
    # are narrower than dx; samples dx apart would step over a whole hat
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    times = np.asarray(dense_snapshot_times(grid, 0.25))
    w_t = 0.25 / (exprabelo.verifiers.ENTROPY_HATS + 1)
    assert times.size == 19
    assert times[0] == 0.0 and times[-1] == 0.25
    assert np.max(np.diff(times)) <= 0.5 * w_t * (1.0 + 1e-12) < grid.dx


def test_kruzhkov_on_field_rejects_samples_wider_than_half_a_time_hat():
    # the 64-cell fixture has dx = 1/32 against w_t / 2 = 0.4 / 18: samples
    # dx apart pass the old grid rule and still miss the time hats
    grid, _, _ = expansion_shock_field(n_cells=64)
    times = np.linspace(0.0, 0.4, math.ceil(0.4 / grid.dx) + 1)
    assert np.max(np.diff(times)) <= grid.dx
    u = np.log(np.where(grid.centers[None, :] < 1.5 * times[:, None], 1.0, 2.0))
    with pytest.raises(SparseSnapshotsError, match="exceeds min\\(dx, w_t / 2\\)"):
        kruzhkov_on_field(grid, times, u)


@pytest.mark.parametrize(
    "amplitude, n_cells", [(2.0, 1024), (2.0, 2048), (2.0, 4096), (None, 2048)],
    ids=["amplitude2-1024", "amplitude2-2048", "amplitude2-4096", "stock-2048"],
)
def test_kruzhkov_certifies_smooth_data_on_a_short_horizon(amplitude, n_cells):
    # T = 0.05 lies well before the breaking time (about 0.16 at amplitude
    # 2), so the solution is smooth and an entropy solution. With samples
    # only dx apart the certificate failed here by 1.2-42 tolerances, since
    # its time hats were narrower than the sample spacing
    cfg = stock_config(n_cells, final_time=0.05)
    if amplitude is not None:
        cfg = replace(cfg, init=InitialDataSpec.gaussian(amplitude=amplitude))
    report = kruzhkov_residual(cfg)
    assert report.passed
    assert report.margin_ratio < 0.5


def test_run_ladder_produces_nested_grids():
    base = stock_config(n_cells=32, final_time=0.125)
    runs = run_ladder(base, (32, 64))
    assert [r.grid.n_cells for r in runs] == [32, 64]
    assert all(r.grid.x_min == -8.0 and r.grid.x_max == 8.0 for r in runs)


def test_cancelling_forcing_negates_rhs_at_initial_state():
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=64)
    v0 = init_field(grid, InitialDataSpec.gaussian())
    cfg = SchemeConfig(epsilon=1e-2)
    forcing = cancelling_forcing(grid, v0, cfg)
    p = prefix_integral(grid, v0)
    flux_div, source, viscous = semi_discrete_rhs(grid, v0, p, cfg)
    np.testing.assert_array_equal(forcing(0.0, grid.centers), -(flux_div + source + viscous))
    # frozen in time: the closure ignores t
    np.testing.assert_array_equal(forcing(7.0, grid.centers), forcing(0.0, grid.centers))


# ---------------------------------------------------------------------------
# norm budgets
# ---------------------------------------------------------------------------

def test_lp_balance_requires_recorded_alpha(stock_run_256):
    with pytest.raises(DataGapError):
        lp_balance_residual(stock_run_256, alpha=3.0)


def test_lp_balance_ladder_alpha0_second_order(stock_ladder_runs):
    runs = [stock_ladder_runs[(n, 0.0)] for n in (512, 1024, 2048)]
    report = lp_balance_ladder(runs, alpha=0.0)
    assert report.level_cells == (512, 1024, 2048)
    assert report.order is not None and report.order >= 1.6
    assert report.passed


def test_balance_ladder_of_exact_zero_residuals_has_no_order():
    # source-free, the alpha = 0 budget closes to the last bit on both
    # rungs, and a ladder of zero residuals has no order (nor a log2 error)
    runs = run_ladder(stock_config(128, source_enabled=False), (128, 256))
    report = lp_balance_ladder(runs, alpha=0.0)
    assert report.level_terminals == (0.0, 0.0)
    assert report.order is None
    assert report.passed


def test_budget_ladders_of_rounding_level_residuals_have_no_order():
    # at T = 1e-300 the residuals are rounding, 6.1e-316 and 5.6e-317 for
    # alpha = 1 and 1.6e-15 and 1.8e-15 for the mass rate, and read as
    # orders 3.46 and -0.19 without the floor
    runs = run_ladder(stock_config(final_time=1e-300), (2048, 4096))
    reports = [lp_balance_ladder(runs, a) for a in (0.0, 1.0, 2.0)]
    reports.append(mass_balance_ladder(runs))
    assert [r.order for r in reports] == [None] * 4
    assert all(r.level_cells == (2048, 4096) for r in reports)
    assert reports[1].level_terminals[0] > 0.0 and reports[3].level_maxima[0] > 0.0


def test_mass_balance_identity_closes(stock_run_256):
    report = mass_balance_identity(stock_run_256)
    assert report.relative_max <= 1e-2
    assert report.passed


@pytest.mark.parametrize("epsilon, bound", [(0.0, 1e-12), (1e-2, 1e-2)])
def test_source_free_mass_balance_closes_on_the_dissipation_alone(epsilon, bound):
    # with the source off the closure drops (P_R^2 - P_L^2)/2; kept on the
    # same data it misses the mass rate by about 0.21 relative
    run = run_simulation(
        stock_config(256, epsilon=epsilon, final_time=0.5, source_enabled=False)
    )
    report = mass_balance_identity(run)
    assert report.relative_max <= bound and report.passed
    relabelled = replace(run, scheme=replace(run.scheme, source_enabled=True))
    assert not mass_balance_identity(relabelled).passed


def test_power_balance_refuses_an_underflowed_initial_norm():
    # v <= e^-300, so v^3 <= e^-900 underflows to 0: the relative residual
    # has no denominator. alpha = 0 and 1 keep a positive norm and pass.
    run = run_simulation(
        stock_config(64, final_time=0.5, init=InitialDataSpec.gaussian(amplitude=-300.0))
    )
    with pytest.raises(DomainError, match="alpha = 2 needs a positive initial norm"):
        lp_balance_residual(run, 2.0)
    assert all(lp_balance_residual(run, a).passed for a in (0.0, 1.0))


def test_mass_balance_refuses_an_underflowed_initial_mass():
    # v <= e^-745 underflows to 0 in every cell, so the mass is 0 and the
    # relative residual has no denominator
    run = run_simulation(
        stock_config(64, final_time=0.5, init=InitialDataSpec.gaussian(amplitude=-745.0))
    )
    assert run.diagnostics["mass"][0] == 0.0
    with pytest.raises(DomainError, match="mass balance needs a positive initial mass"):
        mass_balance_identity(run)


@pytest.mark.parametrize(
    "alphas, final_time, cause",
    [((1.0,), 0.1, "needs alpha = 0 diagnostics"), ((0.0,), 0.0, "needs at least one step")],
    ids=["no alpha 0", "T = 0"],
)
def test_mass_balance_refuses_a_run_it_cannot_close(alphas, final_time, cause):
    run = run_simulation(stock_config(64, final_time=final_time, alphas=alphas))
    with pytest.raises(DataGapError, match=cause):
        mass_balance_identity(run)


def test_mass_balance_ladder_order(stock_ladder_runs):
    runs = [stock_ladder_runs[(n, 0.0)] for n in (512, 1024, 2048)]
    report = mass_balance_ladder(runs)
    assert report.order is not None and report.order >= 1.6


# ---------------------------------------------------------------------------
# sup monitor
# ---------------------------------------------------------------------------

def test_sup_monitor_quiet_on_stock_run(stock_ladder_runs):
    report = sup_principle_monitor(stock_ladder_runs[(512, 0.0)])
    assert not report.violated
    assert report.worst_excess <= 1e-10
    assert report.first_violation_time is None


def test_sup_monitor_detects_growth_left_of_anchor():
    # Left of the anchor the prefix integral is negative, so the source
    # feeds the field there: a bump centered at x = -2 must grow and the
    # monitor must localize the violation on the left half-line.
    cfg = stock_config(
        n_cells=256,
        final_time=1.0,
        init=InitialDataSpec.gaussian(center=-2.0),
    )
    report = sup_principle_monitor(run_simulation(cfg))
    assert report.violated
    assert report.worst_excess > 0.1
    assert report.first_violation_time is not None and report.first_violation_time > 0.0
    assert report.violation_location is not None and report.violation_location < 0.0


# ---------------------------------------------------------------------------
# entropy certificate
# ---------------------------------------------------------------------------

def test_hat_profile_shape():
    x = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    got = _hat_at(x, 1.0, 1.0)
    np.testing.assert_allclose(got, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0])


def test_hat_integral_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(20):
        c = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.1, 1.5)
        a = rng.uniform(-4.0, 4.0)
        b = a + rng.uniform(0.0, 4.0)
        knots = [p for p in (c - w, c, c + w) if a < p < b]
        want, _ = quad(
            lambda s: _hat_at(np.array([s]), c, w)[0], a, b, points=knots, limit=200
        )
        got = _hat_integral(a, b, c, w)
        assert got == pytest.approx(want, abs=1e-10)


def test_kruzhkov_passes_on_smooth_run():
    report = kruzhkov_residual(stock_config(n_cells=256, final_time=0.5))
    assert report.passed
    assert report.min_value >= -report.tolerance


def test_kruzhkov_rejects_viscous_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a viscous configuration was run before its rejection")

    monkeypatch.setattr(exprabelo.solver, "_march", no_run)
    with pytest.raises(ValueError):
        kruzhkov_residual(stock_config(n_cells=64, final_time=0.125, epsilon=1e-2))


def test_kruzhkov_refuses_a_zero_span_before_it_runs(no_evolve):
    # the weak-form sums check (t0, t_end) before they draw the first
    # streamed sample, so a T = 0 run is refused and never started
    with pytest.raises(SparseSnapshotsError, match="sample times must increase"):
        kruzhkov_residual(stock_config(n_cells=64, final_time=0.0))


def test_kruzhkov_ignores_the_config_snapshot_times():
    # the certificate samples the run at its own dense times
    base = stock_config(n_cells=64, final_time=0.25)
    want = kruzhkov_residual(base)
    for times in ((0.125, 0.25), (0.1,), (0.0, 0.03, 0.25)):
        assert kruzhkov_residual(replace(base, snapshot_times=times)) == want


def certified_samples(monkeypatch, cfg):
    """The report of ``kruzhkov_residual(cfg)`` and the ``(time, u, P)``
    samples its weak-form sums consumed, captured by wrapping
    ``verifiers._hat_sums``."""
    consumed = []
    hat_sums = exprabelo.verifiers._hat_sums

    def recording(grid, pair, t0, t_end, samples):
        def passed_on():
            for sample in samples:
                consumed.append(sample)
                yield sample

        return hat_sums(grid, pair, t0, t_end, passed_on())

    monkeypatch.setattr(exprabelo.verifiers, "_hat_sums", recording)
    return kruzhkov_residual(cfg), consumed


@pytest.mark.parametrize(
    "n_cells, final_time", [(512, 1.0), (1024, 0.05)], ids=["stock-512", "short-1024"]
)
def test_certificate_samples_lie_within_the_gap_and_on_the_knots(monkeypatch, n_cells,
                                                                   final_time):
    # at T = 0.05 the gap w_t / 2 is below the CFL step, so it caps the steps
    cfg = stock_config(n_cells, final_time=final_time)
    _, samples = certified_samples(monkeypatch, cfg)
    times = np.array([s[0] for s in samples])
    assert np.all(np.diff(times) > 0.0)
    # within the rounding that the sums' own gap check forgives
    assert np.max(np.diff(times)) <= _max_sample_gap(cfg.grid.dx, final_time) * (1.0 + 1e-9)
    knots = np.linspace(0.0, final_time, ENTROPY_HATS + 2)
    assert set(knots.tolist()) <= set(times.tolist())


def test_certified_run_is_the_simulated_run_where_the_gap_does_not_bind(monkeypatch):
    # at 512 cells the CFL step stays below the gap dx, so the certificate
    # runs what `simulate` runs with snapshots on the ten knots, step for
    # step and bit for bit
    cfg = stock_config(512)
    knots = tuple(np.linspace(0.0, 1.0, ENTROPY_HATS + 2))
    dts = []
    march = exprabelo.solver._march

    def recorded_march(*args, **kwargs):
        for state in march(*args, **kwargs):
            dts.append(state[3])
            yield state

    monkeypatch.setattr(exprabelo.solver, "_march", recorded_march)
    _, samples = certified_samples(monkeypatch, cfg)
    certified_dts = list(dts)
    assert max(certified_dts) < _max_sample_gap(cfg.grid.dx, 1.0)
    run = run_simulation(replace(cfg, snapshot_times=knots))
    assert certified_dts == run.diagnostics["dt"].tolist()
    assert len(samples) < len(certified_dts)
    time, u, p = samples[-1]
    assert time == 1.0
    assert u.tobytes() == u_from_v(run.final_state).tobytes()
    assert p.tobytes() == run.snapshots[-1].p.cell_values.tobytes()


@pytest.mark.parametrize("n_cells", [1024, 2048])
def test_certificate_takes_no_sliver_step_where_the_gap_binds(monkeypatch, n_cells):
    # at T = 0.05 two steps capped at the gap w_t / 2 from a knot can stop
    # an ulp short of the next; landing there must not take a step of ~1e-17
    cfg = stock_config(n_cells, final_time=0.05)
    dts = []
    march = exprabelo.solver._march

    def recorded_march(*args, **kwargs):
        for state in march(*args, **kwargs):
            dts.append(state[3])
            yield state

    monkeypatch.setattr(exprabelo.solver, "_march", recorded_march)
    kruzhkov_residual(cfg)
    assert min(dts[1:]) >= 1e-6 * _max_sample_gap(cfg.grid.dx, 0.05)


def test_no_evolve_catches_a_certificate_run(no_evolve):
    with pytest.raises(AssertionError, match="rejected input ran a simulation"):
        kruzhkov_residual(stock_config(n_cells=64, final_time=0.25))


def test_kruzhkov_rejects_sparse_snapshots():
    grid, times, u = expansion_shock_field(n_cells=64)
    with pytest.raises(SparseSnapshotsError):
        kruzhkov_on_field(grid, times[::2], u[::2])
    with pytest.raises(SparseSnapshotsError, match="need at least two snapshots in time"):
        kruzhkov_on_field(grid, times[:1], u[:1])
    with pytest.raises(SparseSnapshotsError, match="does not match times x cells"):
        kruzhkov_on_field(grid, times, u[:, :-1])


@pytest.mark.parametrize(
    "cut, match",
    [
        ("empty", "no samples"),
        ("late-start", "first sample at 0.0111111 is not at t0 = 0"),
        ("early-end", "last sample at 0.188889 is not at t_end = 0.2"),
        ("first-only", "last sample at 0 is not at t_end = 0.2"),
    ],
)
def test_hat_sums_refuse_a_stream_that_does_not_span_the_run(cut, match):
    # on the whole stream the fixture fails at level 0.3 (min -3.08e-3);
    # handed its first sample alone, the sums returned zeros and passed it
    grid, times, u = expansion_shock_field(n_cells=128, final_time=0.2)
    levels = (0.3,)
    rows = list(zip(times.tolist(), u, [None] * times.size))
    pair = _kruzhkov_pair(levels, grid.n_cells)
    assert not _entropy_report(grid, levels, pair, 0.0, 0.2, rows).passed
    cut_rows = {"empty": [], "late-start": rows[1:], "early-end": rows[:-1],
                "first-only": rows[:1]}[cut]
    with pytest.raises(SparseSnapshotsError, match=match):
        _hat_sums(grid, pair, 0.0, 0.2, cut_rows)


@pytest.mark.parametrize("shape", ["one-row", "extra-row", "interfaces"])
def test_kruzhkov_on_field_rejects_p_that_is_not_times_by_cells(shape):
    # one row of n cells would give sample i the scalar p[i] as its whole
    # source, an extra row would be ignored, and an interface block would
    # not broadcast against the cells
    grid, times, u = expansion_shock_field(n_cells=64)
    p = {
        "one-row": np.ones(grid.n_cells),
        "extra-row": np.ones((times.size + 1, grid.n_cells)),
        "interfaces": np.ones((times.size, grid.n_cells + 1)),
    }[shape]
    with pytest.raises(SparseSnapshotsError, match="P sample shape does not match times x cells"):
        kruzhkov_on_field(grid, times, u, p)


def test_hat_sums_allocate_no_block_per_sample():
    # one (levels x cells) float64 block is 229 KB at 4096 cells; blocks
    # that large are mapped afresh and faulted in again on every sample
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=4096)
    levels = tuple(np.linspace(-3.0, -0.5, 7).tolist())
    rng = np.random.default_rng(0)
    u = rng.uniform(-4.0, 0.0, (3, grid.n_cells))
    p = rng.uniform(0.0, 1.0, (3, grid.n_cells))
    times = dense_snapshot_times(grid, 0.05)
    peaks = []

    def samples():  # traces the sums' work on the third sample
        yield times[0], u[0], p[0]
        yield times[1], u[1], p[1]
        tracemalloc.start()
        try:
            yield times[2], u[2], p[2]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        for i in range(3, len(times)):  # the rest of the span, which the sums require
            yield times[i], u[i % 3], p[i % 3]

    _hat_sums(grid, _kruzhkov_pair(levels, grid.n_cells), 0.0, 0.05, samples())
    assert peaks[0] < len(levels) * grid.n_cells * 8


@pytest.mark.parametrize("with_p", [False, True])
def test_hat_sums_only_read_the_pair_blocks(with_p):
    # a pair may return read-only blocks, and the reused buffers of
    # _kruzhkov_pair must give the same bits as fresh copies of them
    grid, times, u = expansion_shock_field()
    p = np.cos(grid.centers)[None, :] * times[:, None] if with_p else None
    direct = _kruzhkov_pair(_default_levels(u[0]), grid.n_cells)

    def read_only(u_row):
        blocks = tuple(b.copy() for b in direct(u_row))
        for b in blocks:
            b.setflags(write=False)
        return blocks

    values = []
    for pair in (direct, read_only):
        values.append(_hat_sums(grid, pair, *_samples(grid, times, u, p))[0].tobytes())
    assert values[0] == values[1]


def test_kruzhkov_certifies_a_constant_field_on_flat_range_levels():
    # a constant u gives no range to spread the levels in, so they spread
    # over u - 1 to u + 1; a constant solves the law, so the minimum is 0
    grid = build_grid(-1.0, 1.0, 64)
    times = np.array(dense_snapshot_times(grid, 0.5))
    report = kruzhkov_on_field(grid, times, np.full((times.size, grid.n_cells), -0.5))
    assert report.levels == (-1.25, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25)
    assert abs(report.min_value) <= 1e-15 and report.passed


@pytest.mark.parametrize("order", ["reversed", "repeated", "swapped"])
def test_kruzhkov_on_field_rejects_times_that_do_not_increase(order):
    grid, times, u = expansion_shock_field(n_cells=64)
    idx = np.arange(times.size)
    if order == "reversed":
        idx = idx[::-1]
    elif order == "repeated":
        idx = np.insert(idx, 3, 2)
    else:
        idx[[2, 3]] = idx[[3, 2]]
    with pytest.raises(SparseSnapshotsError):
        kruzhkov_on_field(grid, times[idx], u[idx])


def _dense_kruzhkov_minimum(grid, times, u, p, k, nt=8, nx=8):
    # the dense-matrix quadrature the streamed sums replaced: slab averages
    # of the (times x cells) sample, projected on each x-hat, then weighted
    # by each t-hat
    e = np.abs(u - k)
    sgn = np.sign(u - k)
    q = sgn * (np.exp(u) - math.exp(k))
    e_avg, q_avg, s_avg = (0.5 * (a[:-1] + a[1:]) for a in (e, q, sgn * p))
    ifc = grid.interfaces
    w_t = (times[-1] - times[0]) / (nt + 1)
    w_x = (ifc[-1] - ifc[0]) / (nx + 1)
    values = []
    for c_x in ifc[0] + w_x * np.arange(1, nx + 1):
        ihx = _hat_integral(ifc[:-1], ifc[1:], c_x, w_x)
        dhx = _hat_at(ifc[1:], c_x, w_x) - _hat_at(ifc[:-1], c_x, w_x)
        e_w, q_w, s_w = e_avg @ ihx, q_avg @ dhx, s_avg @ ihx
        for c_t in times[0] + w_t * np.arange(1, nt + 1):
            ht = _hat_at(times, c_t, w_t)
            iht = _hat_integral(times[:-1], times[1:], c_t, w_t)
            values.append((ht[1:] - ht[:-1]) @ e_w + iht @ q_w - iht @ s_w + ht[0] * (e[0] @ ihx))
    return min(values)


def test_streamed_certificate_matches_the_dense_quadrature(monkeypatch):
    cfg = stock_config(n_cells=256)
    report, samples = certified_samples(monkeypatch, cfg)
    times, u, p = map(np.array, zip(*samples))
    for k, got in zip(report.levels, report.min_by_level):
        assert got == pytest.approx(_dense_kruzhkov_minimum(cfg.grid, times, u, p, k), rel=1e-10)
    # the matrices of the samples the streamed sums consumed give its report
    assert kruzhkov_on_field(cfg.grid, times, u, p) == report


def test_certificate_memory_grows_linearly_in_cells():
    kruzhkov_residual(stock_config(n_cells=64, final_time=0.5))  # one-time allocations
    peaks = []
    for n in (512, 1024):
        tracemalloc.start()
        try:
            kruzhkov_residual(stock_config(n_cells=n, final_time=0.5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # dense snapshots would need ~4x for twice the cells and twice the samples
    assert peaks[1] / peaks[0] <= 2.5


def test_expansion_shock_certificate_fails_strongly():
    grid, times, u = expansion_shock_field()
    report = kruzhkov_on_field(grid, times, u)
    assert not report.passed
    assert report.margin_ratio >= 10.0


def _compression_shock_field(n_cells=512, final_time=0.25):
    # Admissible counterpart to the expansion fixture: u jumps DOWN from
    # log 2 to 0 across a discontinuity moving at the chord speed of the
    # flux e^u, s = (e^uL - e^uR) / (uL - uR) = 1 / log 2. That is the
    # exact entropy solution of u_t + (e^u)_x = 0 for this step.
    grid = GridSpec(x_min=-1.0, x_max=1.0, n_cells=n_cells)
    steps = int(math.ceil(final_time / grid.dx)) + 1
    times = np.linspace(0.0, final_time, max(steps, 2))
    speed = 1.0 / math.log(2.0)
    x = grid.centers
    u = np.empty((times.size, grid.n_cells))
    for i, t in enumerate(times):
        u[i] = np.where(x < speed * t, math.log(2.0), 0.0)
    return grid, times, u


def test_compression_shock_certificate_passes():
    grid, times, u = _compression_shock_field()
    report = kruzhkov_on_field(grid, times, u)
    assert report.passed
    assert report.min_value >= -report.tolerance


def test_quadratic_entropy_pair_splits_the_shock_fields():
    # eta(u) = u^2 with flux q(u) = 2((u - 1) e^u + 1) satisfies
    # q' = eta' f' for f(u) = e^u. A strictly convex pair must accept the
    # admissible compression shock and reject the expansion fixture.
    from exprabelo.verifiers import entropy_weak_values

    eta = lambda s: s**2
    flux_q = lambda s: 2.0 * ((s - 1.0) * np.exp(s) + 1.0)
    eta_prime = lambda s: 2.0 * s

    grid, times, u = _compression_shock_field()
    values, phi_mass = entropy_weak_values(
        grid, times, u, None, eta=eta, flux_q=flux_q, eta_prime=eta_prime
    )
    tol = 10.0 * grid.dx * phi_mass
    assert float(np.min(values)) >= -tol

    grid, times, u = expansion_shock_field()
    values, phi_mass = entropy_weak_values(
        grid, times, u, None, eta=eta, flux_q=flux_q, eta_prime=eta_prime
    )
    tol = 10.0 * grid.dx * phi_mass
    assert float(np.min(values)) < -tol


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the scheme conserves v, so its shock misses the Rankine-Hugoniot speed in u",
)
def test_riemann_shock_certificate_holds_at_2048_cells():
    # v drops from 2 to 1 at x = -1. The certificate is posed in u, where
    # the shock moves at (v_l - v_r) / ln(v_l / v_r) = 1.443; the scheme
    # conserves v and moves it at (v_l + v_r) / 2 = 1.5. At level -1, below
    # both states, the weak value tends to -4.1e-3 under refinement while
    # the tolerance halves per level: 1.54e-2 at 512 cells, 3.86e-3 here.
    grid = GridSpec(x_min=-4.0, x_max=4.0, n_cells=2048)
    cfg = SchemeConfig(epsilon=0.0, source_enabled=False)
    times = dense_snapshot_times(grid, 1.0)
    with warnings.catch_warnings():  # the data touch the boundary by design
        warnings.simplefilter("ignore", BoundaryFluxWarning)
        run = evolve(grid, riemann_initial(grid, 2.0, 1.0, x0=-1.0), cfg, 1.0, times)
    u = np.stack([s.u for s in run.snapshots])
    report = kruzhkov_on_field(grid, np.array(times), u, levels=(-1.0,))
    assert report.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the scheme conserves v, so past the breaking time its shock misses "
    "the Rankine-Hugoniot speed in u",
)
def test_stock_kruzhkov_minimum_shrinks_under_refinement_past_the_shock():
    # The stock gaussian breaks between T = 1 and T = 2. At T = 3 the
    # certificate's minimum should shrink with dx like its tolerance, but it
    # stays near -1.7e-2 (-1.79e-2, -1.71e-2, -1.67e-2 at 1024, 2048 and
    # 4096 cells): a Rankine-Hugoniot defect in u, not an entropy defect.
    deficits = [max(0.0, -kruzhkov_residual(stock_config(n, final_time=3.0)).min_value)
                for n in (1024, 2048, 4096)]
    assert all(1.5 * b <= a for a, b in zip(deficits, deficits[1:])), deficits


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the scheme conserves v, so past the breaking time its shock misses "
    "the Rankine-Hugoniot speed in u",
)
def test_two_bump_preset_passes_the_certificate_at_the_stock_final_time():
    # The default two-bump preset breaks at t = 0.868, before the stock
    # T = 1, so `verify entropy` on it fails at 4096 cells: min weak value
    # -9.22e-3 against the tolerance 7.72e-3 (margin 1.19).
    report = kruzhkov_residual(stock_config(4096, init=InitialDataSpec.two_bump()))
    assert report.passed, (report.min_value, report.tolerance)


def test_two_bump_preset_passes_the_certificate_before_it_breaks():
    # the same data at T = 0.8, before breaking: min weak value -1.56e-4,
    # margin 0.025
    report = kruzhkov_residual(stock_config(4096, final_time=0.8, init=InitialDataSpec.two_bump()))
    assert report.passed, (report.min_value, report.tolerance)


def v_form_certificate(grid, v0, scheme, final_time, levels):
    """The certificate of the v-form Kruzhkov pairs at the v levels
    ``levels``, through the same weak-form sums, on a run streamed at
    ``dense_snapshot_times``."""
    source = scheme.source_enabled
    samples = (
        (snap.time, snap.field_v.values, snap.p.cell_values if source else None)
        for snap in landings(grid, v0, scheme, final_time, dense_snapshot_times(grid, final_time))
    )
    return _entropy_report(grid, tuple(levels), v_form_kruzhkov_pair(levels), 0.0, final_time,
                           samples)


def test_riemann_shock_v_form_certificate_holds_at_2048_cells():
    # the diagnosis behind the strict xfail above: on the same run the pairs
    # of the law the scheme conserves, at the v level e^-1, certify the
    # shock (measured -1.73e-4 against the tolerance 3.86e-3)
    grid = GridSpec(x_min=-4.0, x_max=4.0, n_cells=2048)
    cfg = SchemeConfig(epsilon=0.0, source_enabled=False)
    with warnings.catch_warnings():  # the data touch the boundary by design
        warnings.simplefilter("ignore", BoundaryFluxWarning)
        report = v_form_certificate(
            grid, riemann_initial(grid, 2.0, 1.0, x0=-1.0), cfg, 1.0, (math.exp(-1.0),)
        )
    assert report.passed, (report.min_value, report.tolerance)


def test_stock_v_form_kruzhkov_minimum_shrinks_under_refinement_past_the_shock():
    # where the u-form minimum stalls near -1.7e-2 (the strict xfail above),
    # the v-form one, at the default levels taken as v = e^k, halves with dx:
    # -3.48e-5, -1.63e-5 and -7.36e-6 at 1024, 2048 and 4096 cells
    deficits = []
    for n in (1024, 2048, 4096):
        cfg = stock_config(n, final_time=3.0)
        v0 = init_field(cfg.grid, cfg.init)
        levels = [math.exp(k) for k in _default_levels(u_from_v(v0))]
        report = v_form_certificate(cfg.grid, v0, cfg.scheme, 3.0, levels)
        deficits.append(max(0.0, -report.min_value))
    assert all(1.5 * b <= a for a, b in zip(deficits, deficits[1:])), deficits


def test_expansion_shock_field_is_the_advertised_weak_solution():
    grid, times, u = expansion_shock_field(n_cells=128, final_time=0.2)
    assert u.shape == (times.size, 128)
    assert np.max(np.diff(times)) <= grid.dx * (1.0 + 1e-9)
    # two-state field: u in {log 1, log 2}, jump at the chord speed 1.5 t
    vals = np.unique(u)
    np.testing.assert_allclose(vals, [0.0, math.log(2.0)], atol=1e-12)
    k = times.size // 2
    jump_x = _chord_speed(1.0, 2.0) * times[k]
    row = u[k]
    left = row[grid.centers < jump_x - grid.dx]
    right = row[grid.centers > jump_x + grid.dx]
    assert np.all(left == 0.0)
    assert np.all(right == math.log(2.0))


# ---------------------------------------------------------------------------
# L1 stability
# ---------------------------------------------------------------------------

def test_stability_identical_runs_saturate_nothing():
    cfg = stock_config(n_cells=128, final_time=0.5, snapshot_times=(0.25, 0.5))
    report = l1_stability_check(cfg, cfg, R=2.0)
    assert report.max_measured == 0.0
    assert report.passed
    assert report.min_margin >= 0.0
    assert report.c0 == pytest.approx(2.0 * math.exp(report.sup_u0))


def test_stability_reads_its_window_from_the_first_config():
    # T and the sample times are the first config's; the second config runs
    # to the same snapshots, so its own snapshot times play no part
    cfg_u = stock_config(n_cells=64, final_time=0.5, snapshot_times=(0.0, 0.25))
    cfg_w = stock_config(n_cells=64, final_time=0.75, snapshot_times=(0.1, 0.75))
    report = l1_stability_check(cfg_u, cfg_w, R=2.0)
    assert report.T == 0.5
    assert report.sample_times == (0.25,)
    # sup u0 is the first diagnostics row's, bit for bit
    assert report.sup_u0 == run_simulation(cfg_u).diagnostics["sup_u"][0]


def test_stability_runs_both_configs_to_the_first_configs_final_time(monkeypatch):
    # the samples end at T = 0.25, so the second config's run stops there
    # too, and the report is the one for a second config that ends at T
    cfg_u = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.125, 0.25))
    cfg_w = stock_config(n_cells=64, epsilon=1e-2, final_time=3.0, init=perturbed_gaussian())
    ends = []
    march = exprabelo.solver._march

    def recorded_march(*args, **kwargs):
        for state in march(*args, **kwargs):
            yield state
        ends.append(state[0].time)

    monkeypatch.setattr(exprabelo.solver, "_march", recorded_march)
    report = l1_stability_check(cfg_u, cfg_w, R=2.0)
    assert ends == [0.25, 0.25]
    assert report == l1_stability_check(cfg_u, replace(cfg_w, final_time=0.25), R=2.0)


def test_stability_memory_does_not_grow_with_the_sample_count():
    # both runs step side by side, and only the pair just landed is kept
    grid = build_grid(-16.0, 16.0, 2048)

    def check(n_samples):
        times = tuple(np.linspace(0.0, 1.0, n_samples + 1)[1:])
        cfg_u = RunConfig(grid, InitialDataSpec.gaussian(), snapshot_times=times)
        l1_stability_check(cfg_u, replace(cfg_u, init=perturbed_gaussian()), R=2.0)

    check(4)  # one-time allocations
    few, many = (traced_peak(lambda: check(n)) for n in (4, 160))
    # keeping every landing of both runs takes about 24x
    assert many <= 1.5 * few


def test_stability_rejects_mismatched_grids(no_evolve):
    cfg_a = stock_config(n_cells=128, final_time=0.25, snapshot_times=(0.0, 0.25))
    cfg_b = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    with pytest.raises(DomainError):
        l1_stability_check(cfg_a, cfg_b, R=2.0)


def test_stability_rejects_window_leaving_domain(no_evolve):
    cfg = stock_config(n_cells=128, final_time=0.25, snapshot_times=(0.0, 0.25))
    with pytest.raises(DomainError):
        l1_stability_check(cfg, cfg, R=100.0)
    # R + C0 T = 7.6 + 2 e^(sup u0) 0.25, about 8.1, leaves [-8, 8]
    with pytest.raises(DomainError, match="widened window"):
        l1_stability_check(cfg, cfg, R=7.6)


def test_stability_rejects_an_overflowing_envelope(no_evolve):
    # C0 = 2, so C(T) t = (2R + 2) 0.5 = 1001 at R = 1000: e^1001 is no double
    cfg = RunConfig(
        grid=build_grid(-2048.0, 2048.0, 4096), init=InitialDataSpec.gaussian(),
        final_time=0.5, snapshot_times=(0.5,),
    )
    with pytest.raises(DomainError, match=r"e\^1001 overflows"):
        l1_stability_check(cfg, cfg, R=1000.0)


UNDEFINED_WINDOWS = (0.0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize("R, match", [
    *((R, "finite and positive") for R in UNDEFINED_WINDOWS),
    # dx = 0.25: the cell centres nearest 0 sit at +-dx/2 = +-0.125
    (0.0625, r"must exceed dx/2 = 0\.125"),
    (0.125, r"must exceed dx/2 = 0\.125"),
], ids=[*map(str, UNDEFINED_WINDOWS), "quarter cell", "half cell"])
def test_stability_rejects_an_empty_or_undefined_window(no_evolve, R, match):
    # the window |x| < R holds no cell centre for R <= dx/2 (for R <= 0 it
    # is empty outright): the certificate would check nothing and pass
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    with pytest.raises(DomainError, match=match):
        l1_stability_check(cfg, cfg, R=R)


def test_stability_rejects_an_empty_sample_set(no_evolve):
    # with no sample time the certificate would check nothing and pass
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0,))
    with pytest.raises(DomainError, match="at least one sample time"):
        l1_stability_check(cfg, cfg, R=2.0)


# ---------------------------------------------------------------------------
# convergence ladders
# ---------------------------------------------------------------------------

def test_grid_convergence_requires_nested_ladder():
    base = stock_config(n_cells=32, final_time=0.125)
    with pytest.raises(ValueError):
        grid_convergence(base, (100, 150))
    with pytest.raises(ValueError):
        grid_convergence(base, (64,))


def test_grid_convergence_contracts_on_smooth_data():
    base = stock_config(n_cells=64, final_time=0.5)
    report = grid_convergence(base, (64, 128, 256))
    assert report.kind == "grid"
    assert report.params == (64, 128, 256)
    assert len(report.distances) == 2
    assert report.monotone
    assert report.order is not None and report.order > 0.5


def test_epsilon_convergence_validates_inputs():
    base = stock_config(n_cells=256, final_time=0.25)
    with pytest.raises(ValueError, match="positive and decreasing"):
        epsilon_convergence(base, ladder=(1e-3, 1e-2))
    with pytest.raises(ValueError, match="positive and decreasing"):
        epsilon_convergence(base, ladder=(1e-2, -1e-3))
    with pytest.raises(ValueError, match=r"needs a fine grid \(>= 2048 cells\), got 256"):
        epsilon_convergence(base)
    # on a fine enough grid an empty ladder would run only eps = 0, compare
    # nothing and pass
    fine = stock_config(n_cells=EPSILON_LADDER_MIN_CELLS, final_time=0.01)
    with pytest.raises(ValueError, match="nonempty"):
        epsilon_convergence(fine, ladder=())


def test_epsilon_convergence_small_ladder():
    base = stock_config(n_cells=EPSILON_LADDER_MIN_CELLS, final_time=0.25)
    report = epsilon_convergence(base, ladder=(3e-2, 1e-2))
    assert report.kind == "epsilon"
    assert len(report.distances) == 2
    assert report.cauchy is not None and len(report.cauchy) == 1
    assert report.monotone
    # reported, not gated: first order in eps before the breaking time
    assert report.order is not None and 0.5 < report.order < 1.5


def test_sweep_memory_does_not_grow_with_snapshot_times():
    # a sweep reads only each run's final field, so the snapshot times it
    # lands on keep nothing
    def sweeps(n_snapshots):
        def config(n_cells, final_time):
            times = tuple(np.linspace(0.0, final_time, n_snapshots + 1)[1:])
            return stock_config(n_cells, final_time=final_time, snapshot_times=times)

        grid_convergence(config(512, 0.25), (512, 1024))
        epsilon_convergence(config(EPSILON_LADDER_MIN_CELLS, 0.1), ladder=(1e-1, 3e-2))

    sweeps(0)  # one-time allocations
    bare, snapped = (traced_peak(lambda: sweeps(n)) for n in (0, 40))
    # keeping every landing of every run takes about 15x
    assert snapped <= 1.5 * bare


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(0.25, 4.0),
    c=st.floats(1e-3, 1e3),
    h0=st.floats(1e-3, 1.0),
    ratios=st.lists(st.floats(1.01, 16.0), min_size=1, max_size=5),
)
def test_observed_order_recovers_a_power_law(p, c, h0, ratios):
    widths = [h0]
    for r in ratios:
        widths.append(widths[-1] / r)
    values = [c * h**p for h in widths]
    assert observed_order(values, widths) == pytest.approx(p, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(1e-12, 1e3), min_size=2, max_size=6),
    half_cells=st.integers(2, 512),
)
def test_observed_order_on_doubling_grids_is_the_mean_log2_ratio(values, half_cells):
    # the width ratio of a doubling grid ladder is exactly 2, so its reports
    # keep the bits of the plain mean log2 ratio
    widths = [GridSpec(-8.0, 8.0, 2 * half_cells << i).dx for i in range(len(values))]
    mean_log2 = float(np.mean([math.log2(a / b) for a, b in zip(values, values[1:])]))
    assert observed_order(values, widths) == mean_log2


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=5),
    bad=st.sampled_from([0.0, -0.0, -1e-300, -2.5, math.nan]),
    at=st.integers(0, 5),
)
def test_observed_order_is_none_without_two_positive_values(values, bad, at):
    widths = [2.0**-i for i in range(len(values) + 1)]
    assert observed_order([], []) is None
    assert observed_order(values[:1], widths[:1]) is None
    assert observed_order(values[:at] + [bad] + values[at:], widths) is None


def test_epsilon_ladder_constant_is_decreasing():
    assert all(a > b > 0.0 for a, b in zip(EPSILON_LADDER, EPSILON_LADDER[1:]))


# ---------------------------------------------------------------------------
# transport-only limit against exact Riemann solutions
# ---------------------------------------------------------------------------

def test_burgers_oracle_initial_step():
    x = np.array([-1.0, -1e-9, 1e-9, 1.0])
    got = burgers_riemann_oracle(2.0, 1.0, 0.0, x)
    np.testing.assert_array_equal(got, [2.0, 2.0, 1.0, 1.0])


def test_burgers_oracle_shock_sides():
    # v_left > v_right: jump travels at the chord speed (v_l + v_r) / 2
    t, s = 2.0, 1.5
    x = np.array([s * t - 0.01, s * t + 0.01])
    got = burgers_riemann_oracle(2.0, 1.0, t, x)
    np.testing.assert_array_equal(got, [2.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2, unique=True).map(sorted),
    st.floats(1e-3, 1e3),
)
def test_burgers_oracle_shock_moves_at_the_rankine_hugoniot_speed(states, t):
    # the shared shock speed s meets s [v] = [v^2 / 2] to 4 ulp, in exact
    # rationals, and the oracle jumps from v_left to v_right at x = s t
    v_right, v_left = states
    s = _chord_speed(v_left, v_right)
    a, b = Fraction(v_left), Fraction(v_right)
    jump = (a * a - b * b) / 2
    assert abs(Fraction(s) * (a - b) - jump) <= 4 * math.ulp(float(jump))
    x = s * t
    got = burgers_riemann_oracle(v_left, v_right, t, [math.nextafter(x, -math.inf), x])
    assert got.tolist() == [v_left, v_right]


def test_burgers_oracle_fan_profile():
    t = 2.0
    x = np.linspace(-3.0, 5.0, 401)
    got = burgers_riemann_oracle(0.5, 1.5, t, x)
    np.testing.assert_allclose(got, np.clip(x / t, 0.5, 1.5), rtol=0, atol=0)
    assert np.all(np.diff(got) >= 0.0)


def test_burgers_oracle_rejects_bad_states():
    with pytest.raises(DomainError):
        burgers_riemann_oracle(-1.0, 1.0, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        burgers_riemann_oracle(1.0, 1.0, -1.0, np.array([0.0]))
    # the oracle and the initial data share one state check
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=8)
    for states in [(math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0)]:
        with pytest.raises(DomainError, match="finite and nonnegative"):
            burgers_riemann_oracle(*states, 1.0, np.array([0.0]))
        with pytest.raises(DomainError, match="finite and nonnegative"):
            riemann_initial(grid, *states)


def test_riemann_initial_places_the_step():
    grid = GridSpec(x_min=-2.0, x_max=2.0, n_cells=8)
    v0 = riemann_initial(grid, 2.0, 1.0)
    np.testing.assert_array_equal(v0.values, [2, 2, 2, 2, 1, 1, 1, 1])


def test_burgers_sanity_coarse_grid():
    check = burgers_sanity(n_cells=256)
    assert check.shock_position_error <= check.shock_tol
    assert check.rarefaction_l1_error <= check.rarefaction_tol
    assert check.passed


# ---------------------------------------------------------------------------
# manufactured solution
# ---------------------------------------------------------------------------

def test_mms_solution_formula():
    x = np.array([-1.0, 0.0, 0.5])
    got = mms_solution(0.3, x)
    want = math.exp(-0.3) * np.exp(-(x**2))
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_mms_prefix_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(8):
        t = rng.uniform(0.0, 1.0)
        xq = rng.uniform(-3.0, 3.0)
        want, _ = quad(lambda y: mms_solution(t, np.array([y]))[0], 0.0, xq)
        got = mms_prefix(t, np.array([xq]))[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_mms_forcing_matches_finite_differences():
    # g must equal dv/dt + d(v^2/2)/dx + v P - eps v d2v/dx2 for the
    # closed-form field; check with central differences in t and x.
    eps = 1e-2
    g = mms_forcing(eps)
    h = 1e-5
    rng = np.random.default_rng(11)
    for _ in range(12):
        t = rng.uniform(0.1, 1.0)
        xp = rng.uniform(-2.5, 2.5)
        x = np.array([xp])
        vt = (mms_solution(t + h, x) - mms_solution(t - h, x)) / (2 * h)
        f = lambda xx: 0.5 * mms_solution(t, xx) ** 2
        fx = (f(x + h) - f(x - h)) / (2 * h)
        vxx = (
            mms_solution(t, x + h) - 2 * mms_solution(t, x) + mms_solution(t, x - h)
        ) / h**2
        v = mms_solution(t, x)
        want = vt + fx + v * mms_prefix(t, x) - eps * v * vxx
        assert g(t, x)[0] == pytest.approx(want[0], rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# the README's verifier table
# ---------------------------------------------------------------------------

def test_readme_verifier_table_names_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("| property | verifier |") + 2  # skip the header rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    names = [n for row in rows for n in re.findall(r"`([^`]+)`", row.split("|")[-2])]
    assert len(names) >= 10
    missing = [n for n in names if not hasattr(exprabelo.verifiers, n)]
    assert missing == []
