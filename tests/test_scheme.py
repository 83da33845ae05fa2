"""Fluxes, the semi-discrete operator, CFL sizing, and single steps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprabelo import (
    BlowUpError,
    FieldV,
    SchemeConfig,
    ShapeError,
    StateError,
    build_grid,
    cfl_dt,
    godunov_flux,
    interface_fluxes,
    prefix_integral,
    rusanov_flux,
    semi_discrete_rhs,
    step,
)
from exprabelo.grid_field import InitialDataSpec, init_field
from exprabelo.scheme import Workspace, face_states, implicit_viscous_solve
from exprabelo.solver import DiagnosticsSeries, evolve, record_diagnostics


def f(v):
    return 0.5 * v * v


def godunov_brute_force(a, b, samples=4001):
    """Independent oracle: extremize f over the interval between the states."""
    grid = np.linspace(min(a, b), max(a, b), samples)
    return np.min(f(grid)) if a <= b else np.max(f(grid))


def test_godunov_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b = rng.uniform(-4.0, 4.0, size=2)
        expected = godunov_brute_force(a, b)
        assert godunov_flux(a, b) == pytest.approx(expected, abs=2e-6)


def test_flux_consistency_within_4_ulp():
    a = np.arange(-4.0, 4.0 + 1e-9, 1e-2)
    for flux in (godunov_flux, rusanov_flux):
        vals = flux(a, a)
        assert np.all(np.abs(vals - f(a)) <= 4.0 * np.spacing(np.maximum(np.abs(f(a)), 1e-300)))


def test_godunov_named_values():
    assert godunov_flux(1.0, 2.0) == 0.5
    assert godunov_flux(2.0, 1.0) == 2.0
    assert godunov_flux(-1.0, 1.0) == 0.0


def test_rusanov_value_and_dissipativity():
    # 0.5 (0.5 + 2.0) - 0.5 * 2 * (2 - 1) = 0.25
    assert rusanov_flux(1.0, 2.0) == pytest.approx(0.25)
    # rusanov never exceeds godunov on a rarefaction-side pair
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 3.0, 100)
    b = a + rng.uniform(0.0, 1.0, 100)
    assert np.all(rusanov_flux(a, b) <= godunov_flux(a, b) + 1e-14)


def test_interface_fluxes_use_zero_ghosts():
    # cell 0 rises from the zero ghost to cell 1 at slope 1, so its face
    # states are 0.5 and 1.5; cell 1 is a peak above the zero ghost and keeps
    # its cell value on both faces
    fluxes = interface_fluxes(np.array([1.0, 2.0]), "godunov")
    assert np.array_equal(fluxes, [0.0, 1.125, 2.0])


cell_values = st.lists(
    st.floats(0.0, 1e6, allow_subnormal=False), min_size=1, max_size=40
).map(np.array)


@settings(max_examples=200, deadline=None)
@given(cell_values)
def test_minmod_face_states_lie_between_neighbouring_cells(v):
    # the limiter must never create a new extremum, zero ghosts included,
    # which is what keeps reconstructed states nonnegative
    left, right = face_states(v)
    padded = np.concatenate(([0.0], v, [0.0]))
    lo = np.minimum(padded[:-1], padded[1:])
    hi = np.maximum(padded[:-1], padded[1:])
    for states in (left, right):
        assert np.all(lo <= states) and np.all(states <= hi)
    assert left[0] == 0.0 and right[-1] == 0.0


def test_minmod_face_states_are_exact_on_linear_data():
    # interior cells of a linear profile take the full slope: each face state
    # is the midpoint of its two cells
    v = np.arange(1.0, 9.0)
    left, right = face_states(v)
    mid = 0.5 * (v[:-1] + v[1:])
    assert np.array_equal(left[2:-1], mid[1:])
    assert np.array_equal(right[1:-2], mid[:-1])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.1, 10.0), min_size=2, max_size=40).map(np.array),
    st.floats(1e-4, 1.0),
)
def test_dissipation_column_is_what_the_viscous_term_removes(v, eps):
    # with flux and source out of the budget, d/dt sum v^(a+1) dx through the
    # viscous term alone is (a+1) sum v^a viscous dx, and the recorded
    # dissipation must be exactly its negative up to rounding
    v = np.concatenate((v, v[::-1]))  # an even count puts x = 0 on an interface
    g = build_grid(-1.0, 1.0, v.size)
    fv = FieldV(v, 0.0)
    p = prefix_integral(g, fv)
    cfg = SchemeConfig(epsilon=eps, source_enabled=False)
    _, _, viscous = semi_discrete_rhs(g, fv, p, cfg)
    alphas = (0.0, 0.5, 1.0, 2.0)
    row = DiagnosticsSeries.from_rows([record_diagnostics(g, fv, p, cfg, 0.0, alphas)], alphas)
    for a in alphas:
        diss = row.dissipation[a][0]
        terms = (a + 1.0) * v**a * viscous * g.dx
        scale = np.sum(np.abs(terms))
        assert abs(diss + np.sum(terms)) <= 1e-12 * scale + 1e-300
    assert [row.source_integral[a][0] for a in alphas] == [0.0] * len(alphas)


def euler_step(g, fv, cfg, dt):
    """Reference forward-Euler step built from the semi-discrete parts alone."""
    parts = semi_discrete_rhs(g, fv, prefix_integral(g, fv), cfg)
    return FieldV(fv.values + dt * sum(parts), fv.time + dt)


def test_rhs_parts_add_up_and_constant_state_example():
    g = build_grid(-1.0, 1.0, 4)
    fv = FieldV(np.ones(4), 0.0)
    p = prefix_integral(g, fv)
    cfg = SchemeConfig(epsilon=0.0)
    flux_div, source, viscous = semi_discrete_rhs(g, fv, p, cfg)
    # the parts add up to the rate both Heun stages use
    dt = 0.1 * cfl_dt(g, fv, p, cfg)
    stepped = step(g, fv, cfg, dt).values
    chained = euler_step(g, euler_step(g, fv, cfg, dt), cfg, dt).values
    assert np.array_equal(stepped, 0.5 * fv.values + 0.5 * chained)
    # interior source equals -P(x_i) = -x_i and interior flux divergence vanishes
    assert np.allclose(source, -g.centers, rtol=1e-15)
    assert flux_div[1] == 0.0
    assert flux_div[2] == 0.0
    assert flux_div[0] != 0.0  # inflow ghost sees the jump
    assert np.array_equal(viscous, np.zeros(4))


def test_viscous_term_flattens_a_spike():
    g = build_grid(-1.0, 1.0, 8)
    v = np.full(8, 1e-12)
    v[4] = 1.0
    fv = FieldV(v, 0.0)
    _, _, viscous = semi_discrete_rhs(g, fv, prefix_integral(g, fv), SchemeConfig(epsilon=0.1))
    assert viscous[4] < 0.0
    assert viscous[3] > 0.0


def test_rhs_shape_errors():
    g = build_grid(-1.0, 1.0, 8)
    fv = FieldV(np.ones(8), 0.0)
    p_other = prefix_integral(build_grid(-1.0, 1.0, 16), FieldV(np.ones(16), 0.0))
    with pytest.raises(ShapeError):
        semi_discrete_rhs(g, fv, p_other, SchemeConfig())
    with pytest.raises(ShapeError):
        semi_discrete_rhs(g, FieldV(np.ones(9), 0.0), prefix_integral(g, fv), SchemeConfig())


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(flux="roe")
    with pytest.raises(ValueError):
        SchemeConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(epsilon=-1e-6)
    with pytest.raises(ValueError):
        SchemeConfig(v_floor=0.0)
    # one scheme: the integrator and the reconstruction are not knobs
    with pytest.raises(TypeError):
        SchemeConfig(integrator="ssp-rk2")
    with pytest.raises(TypeError):
        SchemeConfig(reconstruction="minmod")


def test_cfl_worked_examples():
    g = build_grid(-1.0, 1.0, 200)  # dx = 0.01
    fv = FieldV(np.ones(200), 0.0)
    p = prefix_integral(g, fv)  # p_sup just under 1, so 1/p_sup is not binding
    dts = [cfl_dt(g, fv, p, SchemeConfig(epsilon=e, cfl=0.4)) for e in (0.0, 0.01, 0.04)]
    assert dts[0] == pytest.approx(0.004, rel=1e-12)
    # the viscous term is implicit, so epsilon does not shorten the step
    assert dts[0] == dts[1] == dts[2]


def test_cfl_rejects_nonpositive_field():
    g = build_grid(-1.0, 1.0, 8)
    fv = FieldV(np.zeros(8), 0.0)
    with pytest.raises(StateError):
        cfl_dt(g, fv, prefix_integral(g, fv), SchemeConfig())


implicit_cells = st.lists(
    st.floats(0.0, 1e6, allow_subnormal=False), min_size=4, max_size=40
).map(np.array)


@settings(max_examples=200, deadline=None)
@given(implicit_cells, st.data(), st.floats(0.0, 1e6, allow_subnormal=False))
def test_implicit_viscous_solve_is_a_nonnegative_exact_solve(w, data, coef):
    # (I - coef diag(w) L) is an M-matrix for w >= 0, so a nonnegative
    # right-hand side gives a nonnegative solution; positivity of the
    # viscous stages rests on this
    rhs = np.array(data.draw(st.lists(
        st.floats(0.0, 1e6, allow_subnormal=False), min_size=w.size, max_size=w.size
    )))
    x = implicit_viscous_solve(w, rhs, coef)
    assert np.all(x >= 0.0)
    padded = np.concatenate(([0.0], x, [0.0]))
    lap = padded[:-2] - 2.0 * x + padded[2:]
    residual = x - coef * w * lap - rhs
    scale = x + coef * w * (padded[:-2] + 2.0 * x + padded[2:]) + rhs
    # a subnormal x is rounded to an absolute 2^-1074, which the diagonal
    # 1 + 2 coef w scales up in the residual
    floor = 4.0 * (1.0 + 2.0 * coef * w) * 2.0**-1074
    assert np.all(np.abs(residual) <= 1e-13 * scale + floor)


@pytest.mark.parametrize("eps", [0.1, 0.03])
def test_viscous_step_is_second_order_in_time(eps):
    # the IMEX step converges at second order in dt on a fixed grid; a
    # coefficient frozen at the stage start (one solve per stage), or an
    # implicit solve after each explicit stage, drops this to about 1
    g = build_grid(-8.0, 8.0, 256)
    v0 = init_field(g, InitialDataSpec.gaussian())

    def final(cfl):
        cfg = SchemeConfig(epsilon=eps, cfl=cfl, v_floor=1e-300)
        return evolve(g, v0, cfg, 0.5).final_state.values

    reference = final(0.4 / 64)
    errors = [g.dx * np.abs(final(c) - reference).sum() for c in (0.4, 0.2, 0.1)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, orders


def test_ssp_rk2_is_half_sum_of_euler_chain():
    # Heun's method: the step at epsilon = 0 equals the average of the state
    # and two chained Euler steps, bitwise, when nothing clips
    rng = np.random.default_rng(29)
    g = build_grid(-2.0, 2.0, 48)
    v0 = rng.uniform(0.5, 1.5, 48)
    fv = FieldV(v0, 0.0)
    cfg = SchemeConfig(epsilon=0.0)
    dt = 0.5 * cfl_dt(g, fv, prefix_integral(g, fv), cfg)
    e2 = euler_step(g, euler_step(g, fv, cfg, dt), cfg, dt)
    rk = step(g, fv, cfg, dt)
    assert rk.clip_count == 0
    assert np.array_equal(rk.values, 0.5 * v0 + 0.5 * e2.values)


@st.composite
def pulses(draw):
    """Zero-padded staircases of 1 to 4 adjacent plateaus of height 0.1 to 2
    on 16 or 64 cells."""
    n = draw(st.sampled_from((16, 64)))
    k = draw(st.integers(1, 4))
    edges = sorted(draw(st.lists(st.integers(0, n), min_size=k + 1, max_size=k + 1, unique=True)))
    v = np.zeros(n)
    for lo, hi in zip(edges, edges[1:]):
        v[lo:hi] = draw(st.floats(0.1, 2.0))
    return v


def total_variation(v):
    return float(np.sum(np.abs(np.diff(np.concatenate(([0.0], v, [0.0]))))))


@settings(max_examples=200, deadline=None)
@given(pulses(), st.sampled_from(("godunov", "rusanov")))
def test_single_step_is_tvd_source_off(v, flux):
    # minmod face states with Heun under the CFL rule make a step TVD:
    # total variation, zero ghosts included, grows by rounding at most
    g = build_grid(-2.0, 2.0, v.size)
    cfg = SchemeConfig(flux=flux, epsilon=0.0, source_enabled=False, v_floor=1e-300)
    fv = FieldV(v, 0.0)
    out = step(g, fv, cfg, cfl_dt(g, fv, prefix_integral(g, fv), cfg))
    assert total_variation(out.values) <= total_variation(v) * (1.0 + 1e-13)


def test_positivity_without_clipping():
    # with the stated CFL no cell should need rescuing from below zero
    rng = np.random.default_rng(57)
    cfg = SchemeConfig(epsilon=0.0, source_enabled=True, v_floor=1e-300)
    for _ in range(20):
        g = build_grid(-2.0, 2.0, 64)
        v = rng.uniform(1e-6, 2.0, 64)
        fv = FieldV(v, 0.0)
        dt = cfl_dt(g, fv, prefix_integral(g, fv), cfg)
        out = step(g, fv, cfg, dt)
        assert out.clip_count == 0
        assert np.all(out.values >= 0.0)


def test_discrete_conservation_single_step():
    rng = np.random.default_rng(71)
    g = build_grid(-2.0, 2.0, 64)
    v = rng.uniform(0.1, 2.0, 64)
    fv = FieldV(v, 0.0)
    cfg = SchemeConfig(epsilon=0.0, source_enabled=False, v_floor=1e-300)
    dt = cfl_dt(g, fv, prefix_integral(g, fv), cfg)
    out = step(g, fv, cfg, dt)
    # mass changes by the boundary fluxes of both Heun stages, averaged
    f1 = interface_fluxes(v, "godunov")
    f2 = interface_fluxes(euler_step(g, fv, cfg, dt).values, "godunov")
    expected = np.sum(v) * g.dx - 0.5 * dt * (f1[-1] - f1[0] + f2[-1] - f2[0])
    assert np.sum(out.values) * g.dx == pytest.approx(expected, rel=1e-13)


def test_clip_counts_cells_below_floor():
    # all cells start below the floor except the bump; after one Heun step
    # only the bump and the two cells downwind of it, which the fluxes of
    # the two stages feed, sit above it, so exactly five cells are lifted
    g = build_grid(-2.0, 2.0, 8)
    v = np.full(8, 1e-15)
    v[4] = 1.0
    cfg = SchemeConfig(epsilon=0.0, source_enabled=True)
    out = step(g, FieldV(v, 0.0), cfg, 1e-3)
    assert out.clip_count == 5
    assert np.all(out.values >= cfg.v_floor)


def test_blow_up_reports_first_cell_and_time():
    g = build_grid(-2.0, 2.0, 8)
    fv = FieldV(np.ones(8), 0.0)

    def bad_forcing(t, x):
        out = np.zeros_like(x)
        out[3] = np.inf
        return out

    # with the source on, the prefix integral carries the inf into every
    # cell; without it the Godunov stage two keeps it in cell 3, where the
    # upwind flux sends it only away from the cells to its left; stage two
    # adds the inf forcing to an inf flux difference, which numpy reports
    # as an invalid value before the step's own check raises
    cfg = SchemeConfig(forcing=bad_forcing, source_enabled=False)
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as exc:
        step(g, fv, cfg, 1e-3)
    assert exc.value.cell_index == 3
    assert exc.value.time == pytest.approx(1e-3)


def test_stepped_field_is_checked_in_step_only(monkeypatch):
    # step clips and checks its output once; the FieldV it returns is not
    # rescanned by the constructor's validation
    g = build_grid(-2.0, 2.0, 8)
    v = np.full(8, 1e-15)
    v[4] = 1.0
    fv = FieldV(v, 0.0)
    cfg = SchemeConfig(epsilon=1e-2)
    scans = []
    original = FieldV.__post_init__
    monkeypatch.setattr(FieldV, "__post_init__", lambda self: scans.append(original(self)))
    out = step(g, fv, cfg, 1e-3)
    assert scans == []
    assert out.clip_count > 0
    assert out.values.dtype == np.float64 and out.values.shape == (8,)
    assert np.all(np.isfinite(out.values)) and np.all(out.values >= cfg.v_floor)
    with pytest.raises(ValueError):
        out.values[0] = 1.0

    def nan_forcing(t, x):
        out = np.zeros_like(x)
        out[5] = np.nan
        return out

    # the NaN that stage one puts in cell 5 reaches cells 3..7 through the
    # two-cell reach of the minmod stage-two rate; the error names the first
    # of them and the time the step would have reached
    with pytest.raises(BlowUpError) as exc:
        step(g, fv, SchemeConfig(forcing=nan_forcing), 1e-3)
    assert exc.value.cell_index == 3
    assert exc.value.time == 1e-3


def test_shared_workspace_matches_a_fresh_one_bitwise():
    # a run's workspace carries buffers and the fluxes of the last
    # diagnostics row from call to call; none of that may leak into results
    rng = np.random.default_rng(83)
    g = build_grid(-2.0, 2.0, 32)
    fv = FieldV(rng.uniform(0.5, 1.5, 32), 0.0)
    p = prefix_integral(g, fv)
    godunov = SchemeConfig(epsilon=1e-2)
    rusanov = SchemeConfig(flux="rusanov")
    dt = 0.5 * cfl_dt(g, fv, p, godunov)
    ws = Workspace(g.n_cells)
    record_diagnostics(g, fv, p, godunov, 0.0, ws=ws)
    first = step(g, fv, godunov, dt, p, ws)
    kept = first.values.copy()
    # the cached godunov fluxes of fv must not serve a rusanov step
    other = step(g, fv, rusanov, dt, p, ws)
    second = step(g, first, godunov, dt, None, ws)
    assert np.array_equal(first.values, kept)
    assert np.array_equal(first.values, step(g, fv, godunov, dt, p).values)
    assert np.array_equal(other.values, step(g, fv, rusanov, dt).values)
    assert np.array_equal(second.values, step(g, first, godunov, dt).values)


def test_step_rejects_bad_dt():
    g = build_grid(-2.0, 2.0, 8)
    fv = FieldV(np.ones(8), 0.0)
    with pytest.raises(ValueError):
        step(g, fv, SchemeConfig(), 0.0)
    with pytest.raises(ValueError):
        step(g, fv, SchemeConfig(), math.nan)
