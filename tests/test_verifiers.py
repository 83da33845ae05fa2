"""Tests for the verification toolkit.

Each derived quantity gets an independent oracle: cumulative trapezoid
sums are checked against scipy, hat-function integrals against adaptive
quadrature, the manufactured forcing against finite differences of the
closed-form solution, and the entropy certificate against analytic
shock fields whose admissibility is known in advance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from exprabelo.errors import DataGapError, DomainError, SparseSnapshotsError
from exprabelo.grid_field import GridSpec, InitialDataSpec, init_field
from exprabelo.nonlocal_op import prefix_integral
from exprabelo.scheme import SchemeConfig, semi_discrete_rhs
from exprabelo.solver import run_simulation
from exprabelo.verifiers import (
    EPSILON_LADDER,
    EPSILON_LADDER_MIN_CELLS,
    _hat_at,
    _hat_integral,
    burgers_riemann_oracle,
    burgers_sanity,
    cancelling_forcing,
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
    restrict_to_coarse,
    riemann_initial,
    run_ladder,
    sup_principle_monitor,
)

from conftest import stock_config


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


def test_mass_balance_identity_closes(stock_run_256):
    report = mass_balance_identity(stock_run_256)
    assert report.relative_max <= 1e-2
    assert report.passed


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


def _dense_run(n_cells=256, final_time=0.5, **kw):
    grid = GridSpec(x_min=-8.0, x_max=8.0, n_cells=n_cells)
    cfg = stock_config(
        n_cells=n_cells,
        final_time=final_time,
        snapshot_times=dense_snapshot_times(grid, final_time),
        **kw,
    )
    return run_simulation(cfg)


def test_kruzhkov_passes_on_smooth_run():
    report = kruzhkov_residual(_dense_run())
    assert report.passed
    assert report.min_value >= -report.tolerance


def test_kruzhkov_rejects_viscous_runs():
    run = _dense_run(n_cells=64, final_time=0.125, epsilon=1e-2)
    with pytest.raises(ValueError):
        kruzhkov_residual(run)


def test_kruzhkov_needs_initial_snapshot():
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.125, 0.25))
    with pytest.raises(DataGapError):
        kruzhkov_residual(run_simulation(cfg))


def test_kruzhkov_rejects_sparse_snapshots():
    cfg = stock_config(n_cells=64, final_time=0.5, snapshot_times=(0.0, 0.5))
    with pytest.raises(SparseSnapshotsError):
        kruzhkov_residual(run_simulation(cfg))


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


def test_expansion_shock_field_is_the_advertised_weak_solution():
    grid, times, u = expansion_shock_field(n_cells=128, final_time=0.2)
    assert u.shape == (times.size, 128)
    assert np.max(np.diff(times)) <= grid.dx * (1.0 + 1e-9)
    # two-state field: u in {log 1, log 2}, jump at the chord speed 1.5 t
    vals = np.unique(u)
    np.testing.assert_allclose(vals, [0.0, math.log(2.0)], atol=1e-12)
    k = times.size // 2
    jump_x = 1.5 * times[k]
    row = u[k]
    left = row[grid.centers < jump_x - grid.dx]
    right = row[grid.centers > jump_x + grid.dx]
    assert np.all(left == 0.0)
    assert np.all(right == math.log(2.0))


# ---------------------------------------------------------------------------
# L1 stability
# ---------------------------------------------------------------------------

def test_stability_identical_runs_saturate_nothing():
    times = (0.0, 0.25, 0.5)
    cfg = stock_config(n_cells=128, final_time=0.5, snapshot_times=times)
    run_a = run_simulation(cfg)
    run_b = run_simulation(cfg)
    report = l1_stability_check(run_a, run_b, R=2.0, T=0.5, sample_times=(0.25, 0.5))
    assert report.max_measured == 0.0
    assert report.passed
    assert report.min_margin >= 0.0
    assert report.c0 == pytest.approx(2.0 * math.exp(report.sup_u0))


def test_stability_rejects_mismatched_grids():
    times = (0.0, 0.25)
    cfg_a = stock_config(n_cells=128, final_time=0.25, snapshot_times=times)
    cfg_b = stock_config(n_cells=64, final_time=0.25, snapshot_times=times)
    with pytest.raises(DomainError):
        l1_stability_check(
            run_simulation(cfg_a),
            run_simulation(cfg_b),
            R=2.0,
            T=0.25,
            sample_times=(0.25,),
        )


def test_stability_rejects_window_leaving_domain():
    times = (0.0, 0.25)
    cfg = stock_config(n_cells=128, final_time=0.25, snapshot_times=times)
    run_a = run_simulation(cfg)
    run_b = run_simulation(cfg)
    with pytest.raises(DomainError):
        l1_stability_check(run_a, run_b, R=100.0, T=0.25, sample_times=(0.25,))


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_stability_rejects_an_empty_or_undefined_window(R):
    # the window |x| < R is empty for R <= 0: the certificate would check
    # nothing and pass
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    run = run_simulation(cfg)
    with pytest.raises(DomainError, match="finite and positive"):
        l1_stability_check(run, run, R=R, T=0.25, sample_times=(0.25,))


def test_stability_rejects_an_empty_sample_set():
    # with no sample time the certificate would check nothing and pass
    cfg = stock_config(n_cells=64, final_time=0.25, snapshot_times=(0.0, 0.25))
    run = run_simulation(cfg)
    with pytest.raises(DomainError, match="at least one sample time"):
        l1_stability_check(run, run, R=2.0, T=0.25, sample_times=())


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
    assert report.order is None


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
