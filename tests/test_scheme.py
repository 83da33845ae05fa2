"""Fluxes, the semi-discrete operator, CFL sizing, and single steps."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprabelo import (
    BlowUpError,
    FieldV,
    SchemeConfig,
    StateError,
    build_grid,
    cfl_dt,
    godunov_flux,
    interface_fluxes,
    prefix_integral,
    rusanov_flux,
    step,
)
from exprabelo.grid_field import InitialDataSpec, init_field
from exprabelo.scheme import DELTA, Workspace, _rate, face_states, implicit_viscous_solve
from exprabelo.solver import DiagnosticsSeries, evolve, record_diagnostics
from exprabelo.verifiers import ORACLE_DOMAIN, ORACLE_FINAL_TIME, mms_forcing, mms_solution

from conftest import semi_discrete_rhs


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


nonnegative_cells = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308]),
        st.floats(0.0, 2.2250738585072014e-308),  # subnormals
        st.floats(0.0, 1e150),  # f(v) = v^2 / 2 stays finite
    ),
    min_size=1,
    max_size=40,
).map(lambda xs: np.array(xs, dtype=np.float64))


@settings(max_examples=300, deadline=None)
@given(nonnegative_cells)
def test_godunov_on_the_positive_cone_is_the_upwind_flux_bitwise(v):
    # interface_fluxes takes the upwind branch whenever v.min() >= 0; its
    # bits must be those of the general Godunov kernel on the face states
    left, right = face_states(v)
    expected = godunov_flux(left, right)
    assert interface_fluxes(v, "godunov").tobytes() == expected.tobytes()


def test_godunov_with_a_negative_cell_keeps_the_general_kernel():
    # a negative cell makes a right face state negative: the sonic point is
    # crossed and the upwind value f(left) is wrong at both faces
    v = np.array([1.0, -1.0, 1.0])
    left, right = face_states(v)
    general = godunov_flux(left, right)
    assert not np.array_equal(0.5 * left * left, general)
    assert interface_fluxes(v, "godunov").tobytes() == general.tobytes()


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
    flux = interface_fluxes(fv.values, cfg.flux)
    row = record_diagnostics(g, fv, p, flux, cfg, 0.0, alphas)
    row = DiagnosticsSeries.from_rows([row], alphas)
    for a in alphas:
        diss = row.of("dissipation", a)[0]
        terms = (a + 1.0) * v**a * viscous * g.dx
        scale = np.sum(np.abs(terms))
        assert abs(diss + np.sum(terms)) <= 1e-12 * scale + 1e-300
    assert [row.of("source", a)[0] for a in alphas] == [0.0] * len(alphas)


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


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(flux="roe")
    with pytest.raises(ValueError):
        SchemeConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(epsilon=-1e-6)
    # a non-finite viscosity is refused by what it is, not called negative
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            SchemeConfig(epsilon=eps)
    # one scheme: the integrator, the reconstruction and a positivity floor
    # are not knobs
    with pytest.raises(TypeError):
        SchemeConfig(integrator="ssp-rk2")
    with pytest.raises(TypeError):
        SchemeConfig(v_floor=1e-12)
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


def check_nonnegative_exact_solve(w, rhs, coef):
    x = implicit_viscous_solve(w, rhs, coef)
    assert np.all(x >= 0.0)
    padded = np.concatenate(([0.0], x, [0.0]))
    lap = padded[:-2] - 2.0 * x + padded[2:]
    residual = x - coef * w * lap - rhs
    scale = x + coef * w * (padded[:-2] + 2.0 * x + padded[2:]) + rhs
    # a subnormal x is rounded to an absolute 2^-1074, which the diagonal
    # 1 + 2 coef w scales up in the residual; a subnormal off-diagonal
    # coef w is rounded the same way, and the neighbours x_(i-1) and x_(i+1)
    # scale that up
    floor = 4.0 * (1.0 + 2.0 * coef * w + np.abs(padded[:-2]) + np.abs(padded[2:])) * 2.0**-1074
    assert np.all(np.abs(residual) <= 1e-13 * scale + floor)


@settings(max_examples=200, deadline=None)
@given(implicit_cells, st.data(), st.floats(0.0, 1e6, allow_subnormal=False))
def test_implicit_viscous_solve_is_a_nonnegative_exact_solve(w, data, coef):
    # (I - coef diag(w) L) is an M-matrix for w >= 0, so a nonnegative
    # right-hand side gives a nonnegative solution; positivity of the
    # viscous stages rests on this
    rhs = np.array(data.draw(st.lists(
        st.floats(0.0, 1e6, allow_subnormal=False), min_size=w.size, max_size=w.size
    )))
    check_nonnegative_exact_solve(w, rhs, coef)


@pytest.mark.parametrize(
    "w, rhs, coef",
    [
        # x_4 = 6.76e-312 is subnormal and scaled by the diagonal
        ([0.0, 0.0, 0.0, 259945.0], [0.0, 0.0, 0.0, 1e-300], 284386.0),
        # the off-diagonal coef w_3 = 1e-312 is subnormal and scaled by x_3
        ([918572.0, 966493.484375, 1e-300, 0.0], [0.0, 28.0, 0.0, 0.0], 1e-12),
    ],
    ids=["subnormal-solution", "subnormal-off-diagonal"],
)
def test_implicit_viscous_solve_replays(w, rhs, coef):
    # draws that once failed the property above; @example cannot carry the
    # st.data() draw of the right-hand side, so they are pinned here
    check_nonnegative_exact_solve(np.array(w), np.array(rhs), coef)


@settings(max_examples=100, deadline=None)
@given(implicit_cells, st.data(), st.floats(0.0, 1e6, allow_subnormal=False))
def test_implicit_viscous_solve_is_lapack_dgtsv(w, data, coef):
    # the by-path loader hands out scipy's own routine: the same row-scaled
    # system, solved by scipy.linalg.lapack.dgtsv, agrees bit for bit
    from scipy.linalg.lapack import dgtsv

    rhs = np.array(data.draw(st.lists(
        st.floats(0.0, 1e6, allow_subnormal=False), min_size=w.size, max_size=w.size
    )))
    off = w * -coef
    diag = off * -2.0 + 1.0
    off = off / diag
    *_, expected, info = dgtsv(off[1:], np.ones(w.size), off[:-1], rhs / diag)
    assert info == 0
    assert implicit_viscous_solve(w, rhs, coef).tobytes() == expected.tobytes()


def test_implicit_viscous_solve_writes_every_out():
    # LAPACK solves a strided or float32 out in a converted copy, which the
    # solve must copy back rather than leave out holding rhs / diag
    w = np.linspace(0.5, 1.5, 6)
    rhs = np.linspace(1.0, 2.0, 6)
    expected = implicit_viscous_solve(w, rhs, 0.5)
    strided = np.zeros(12)[::2]
    assert implicit_viscous_solve(w, rhs, 0.5, strided) is strided
    assert strided.tobytes() == expected.tobytes()
    single = np.zeros(6, dtype=np.float32)
    assert implicit_viscous_solve(w, rhs, 0.5, single) is single
    np.testing.assert_allclose(single, expected, rtol=1e-6)
    same = w.copy()
    assert implicit_viscous_solve(same, rhs, 0.5, same) is same
    assert same.tobytes() == expected.tobytes()


SOLVE = "exprabelo.scheme.implicit_viscous_solve(np.ones(4), np.ones(4), 0.5)"
LAPACK = "import scipy.linalg.lapack"


@pytest.mark.parametrize("first, then", [(SOLVE, LAPACK), (LAPACK, SOLVE)],
                         ids=["solve-first", "lapack-first"])
def test_dgtsv_is_scipys_in_either_import_order(first, then):
    # whichever comes first, scipy.linalg.lapack and the scheme share one
    # dgtsv, and loading it raises no warning
    code = "\n".join(["import numpy as np", "import exprabelo.scheme", first, then, LAPACK,
                      "assert scipy.linalg.lapack.dgtsv is exprabelo.scheme._dgtsv()"])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def time_orders(eps):
    """Observed orders in dt of the stock gaussian at 256 cells and T = 0.5:
    L1 errors at cfl 0.4, 0.2 and 0.1 against a cfl 0.4/64 run."""
    g = build_grid(-8.0, 8.0, 256)
    v0 = init_field(g, InitialDataSpec.gaussian())

    def final(cfl):
        cfg = SchemeConfig(epsilon=eps, cfl=cfl)
        return evolve(g, v0, cfg, 0.5).final_state.values

    reference = final(0.4 / 64)
    errors = [g.dx * np.abs(final(c) - reference).sum() for c in (0.4, 0.2, 0.1)]
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("eps", [0.1, 0.03])
def test_viscous_step_is_second_order_in_time(eps):
    # the IMEX step converges at second order in dt on a fixed grid; a
    # coefficient frozen at the stage start (one solve per stage), or an
    # implicit solve after each explicit stage, drops this to about 1
    orders = time_orders(eps)
    assert min(orders) >= 1.8, orders


def test_inviscid_step_is_second_order_in_time():
    # the eps = 0 path, SSP-RK2, that every entropy certificate run takes
    # (measured 1.97 and 2.04)
    orders = time_orders(0.0)
    assert min(orders) >= 1.8, orders


def test_inviscid_scheme_is_second_order_in_space():
    # the manufactured solution with eps = 0, whose forcing keeps it smooth
    # to T = 1: L1 orders 1.92 and 1.95 on 256, 512 and 1024 cells
    cfg = SchemeConfig(epsilon=0.0, forcing=mms_forcing(0.0))
    errors = []
    for n in (256, 512, 1024):
        g = build_grid(*ORACLE_DOMAIN, n)
        v0 = FieldV(mms_solution(0.0, g.centers), 0.0)
        run = evolve(g, v0, cfg, ORACLE_FINAL_TIME)
        exact = mms_solution(ORACLE_FINAL_TIME, g.centers)
        errors.append(g.dx * np.abs(run.final_state.values - exact).sum())
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
    cfg = SchemeConfig(flux=flux, epsilon=0.0, source_enabled=False)
    fv = FieldV(v, 0.0)
    out = step(g, fv, cfg, cfl_dt(g, fv, prefix_integral(g, fv), cfg))
    assert total_variation(out.values) <= total_variation(v) * (1.0 + 1e-13)


@settings(max_examples=200, deadline=None)
@given(pulses(), st.sampled_from(("godunov", "rusanov")), st.sampled_from((0.4, 0.5)))
def test_positivity_without_clipping(v, flux, cfl):
    # at epsilon = 0 Heun is a convex combination of forward-Euler steps,
    # each of which keeps v >= 0 under the CFL rule with cfl <= 1/2 (Zhang
    # and Shu 2010), so no cell, zeros included, needs rescuing from below
    g = build_grid(-2.0, 2.0, v.size)
    cfg = SchemeConfig(flux=flux, epsilon=0.0, cfl=cfl, source_enabled=True)
    fv = FieldV(v, 0.0)
    out = step(g, fv, cfg, cfl_dt(g, fv, prefix_integral(g, fv), cfg))
    assert out.clip_count == 0
    assert np.all(out.values >= 0.0)


def test_viscous_step_can_clip_a_cell_and_counts_it():
    # no such guarantee at epsilon > 0: ARS(2,2,2)'s explicit weight
    # DELTA = 1 - 1/(2 GAMMA) is negative, and this front sends cell 5 below
    # zero within one CFL step; it is clipped to 0 and counted
    assert DELTA < 0.0
    g = build_grid(-2.0, 2.0, 10)
    fv = FieldV(np.array([1.0, 1.0, 1.0, 0.109375, 0.109375, 0.0, 0.0, 0.0, 0.0, 0.0]))
    cfg = SchemeConfig(flux="rusanov", epsilon=1e-2, cfl=0.4)
    out = step(g, fv, cfg, cfl_dt(g, fv, prefix_integral(g, fv), cfg))
    assert out.clip_count == 1
    assert out.values[5] == 0.0
    assert np.all(out.values[:5] > 0.0) and out.values[6] > 0.0


def test_discrete_conservation_single_step():
    rng = np.random.default_rng(71)
    g = build_grid(-2.0, 2.0, 64)
    v = rng.uniform(0.1, 2.0, 64)
    fv = FieldV(v, 0.0)
    cfg = SchemeConfig(epsilon=0.0, source_enabled=False)
    dt = cfl_dt(g, fv, prefix_integral(g, fv), cfg)
    out = step(g, fv, cfg, dt)
    # mass changes by the boundary fluxes of both Heun stages, averaged
    f1 = interface_fluxes(v, "godunov")
    f2 = interface_fluxes(euler_step(g, fv, cfg, dt).values, "godunov")
    expected = np.sum(v) * g.dx - 0.5 * dt * (f1[-1] - f1[0] + f2[-1] - f2[0])
    assert np.sum(out.values) * g.dx == pytest.approx(expected, rel=1e-13)


def sink(t, x):
    """A forcing that drains cells 1 and 6 of an 8-cell grid at rate 2000."""
    out = np.zeros_like(x)
    out[[1, 6]] = -2000.0
    return out


def test_clip_counts_cells_below_floor():
    # the floor is 0: the sink takes cells 1 and 6 from 0.5 to about -1.5 in
    # one step, and those two cells alone are clipped to 0 and counted. A
    # bump on zeros clips nothing: v = 0 is admissible and kept
    g = build_grid(-2.0, 2.0, 8)
    v = np.full(8, 0.5)
    out = step(g, FieldV(v, 0.0), SchemeConfig(epsilon=0.0, forcing=sink), 1e-3)
    assert out.clip_count == 2
    assert out.values[1] == out.values[6] == 0.0
    assert np.all(np.delete(out.values, [1, 6]) > 0.4)
    v = np.zeros(8)
    v[4] = 1.0
    out = step(g, FieldV(v, 0.0), SchemeConfig(epsilon=0.0), 1e-3)
    assert out.clip_count == 0
    assert np.count_nonzero(out.values == 0.0) > 0


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


def test_blow_up_to_plus_inf_alone_names_the_first_inf_cell():
    # the forcing turns on only at stage two's time, when it sends cells 3
    # and 5 to +inf and nothing to NaN: the output's minimum is finite and
    # >= 0, its maximum is inf, and the error names cell 3
    g = build_grid(-2.0, 2.0, 8)
    fv = FieldV(np.ones(8), 0.0)

    def late_inf(t, x):
        out = np.zeros_like(x)
        if t > 0.0:
            out[[3, 5]] = np.inf
        return out

    for source_enabled in (True, False):
        with pytest.raises(BlowUpError) as exc:
            step(g, fv, SchemeConfig(forcing=late_inf, source_enabled=source_enabled), 1e-3)
        assert exc.value.cell_index == 3
        assert exc.value.time == 1e-3


def test_negative_zero_output_is_kept_and_not_clipped():
    # on a zero field whose cell 3 holds -0.0, a forcing of minus the
    # smallest subnormal at stage two's time leaves stage two at -5e-324,
    # which halves to -0.0; 0.5 (-0.0) + (-0.0) is -0.0. That cell is not
    # below 0, so it is neither clipped nor counted, and keeps its sign bit
    g = build_grid(-2.0, 2.0, 8)
    v = np.zeros(8)
    v[3] = -0.0

    def tiny_sink(t, x):
        out = np.zeros_like(x)
        if t > 0.0:
            out[3] = -5e-324
        return out

    out = step(g, FieldV(v, 0.0), SchemeConfig(forcing=tiny_sink), 1.0)
    assert out.clip_count == 0
    assert out.values[3] == 0.0 and np.signbit(out.values[3])
    assert not np.any(np.signbit(np.delete(out.values, 3)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 200), forced=st.booleans(),
       source_enabled=st.booleans())
@settings(max_examples=100, deadline=None)
def test_rate_equals_flux_divergence_plus_negated_source_bitwise(seed, n, forced, source_enabled):
    # _rate subtracts v P - g; it must give the bits of rate + ((-v) P + g),
    # with zeros for v P when the source is off. A third of the cells have
    # g = v P exactly, where the source is a signed zero
    rng = np.random.default_rng(seed)
    g = build_grid(-0.25 * (n // 2), 0.25 * (n - n // 2), n)
    v = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
    fv = FieldV(v, 0.5)
    p = prefix_integral(g, fv)
    forcing_values = np.where(rng.random(n) < 1 / 3, v * p.cell_values, rng.normal(size=n))
    cfg = SchemeConfig(forcing=(lambda t, x: forcing_values) if forced else None,
                       source_enabled=source_enabled)
    flux_div, source, _ = semi_discrete_rhs(g, fv, p, cfg)
    expected = flux_div + source
    got = _rate(g, fv.values, fv.time, None, cfg, Workspace(n))
    assert got.tobytes() == expected.tobytes()


def test_stepped_field_is_checked_in_step_only(monkeypatch):
    # step clips and checks its output once; the FieldV it returns is not
    # rescanned by the constructor's validation
    g = build_grid(-2.0, 2.0, 8)
    fv = FieldV(np.full(8, 0.5), 0.0)
    cfg = SchemeConfig(epsilon=1e-2, forcing=sink)
    scans = []
    original = FieldV.__post_init__
    monkeypatch.setattr(FieldV, "__post_init__", lambda self: scans.append(original(self)))
    out = step(g, fv, cfg, 1e-3)
    assert scans == []
    assert out.clip_count == 2
    assert out.values.dtype == np.float64 and out.values.shape == (8,)
    assert np.all(np.isfinite(out.values)) and np.all(out.values >= 0.0)
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
    # a run's workspace carries its buffers from call to call; what the last
    # call left in them may not leak into results
    rng = np.random.default_rng(83)
    g = build_grid(-2.0, 2.0, 32)
    fv = FieldV(rng.uniform(0.5, 1.5, 32), 0.0)
    p = prefix_integral(g, fv)
    godunov = SchemeConfig(epsilon=1e-2)
    rusanov = SchemeConfig(flux="rusanov")
    dt = 0.5 * cfl_dt(g, fv, p, godunov)
    ws = Workspace(g.n_cells)
    interface_fluxes(fv.values, godunov.flux, ws)  # godunov fluxes of fv in ws
    other = step(g, fv, rusanov, dt, p, ws)
    first = step(g, fv, godunov, dt, p, ws)
    kept = first.values.copy()
    second = step(g, first, godunov, dt, None, ws)
    assert np.array_equal(first.values, kept)
    assert np.array_equal(first.values, step(g, fv, godunov, dt, p).values)
    assert np.array_equal(other.values, step(g, fv, rusanov, dt).values)
    assert np.array_equal(second.values, step(g, first, godunov, dt).values)


def _negative_cell_state(g):
    """A state with one negative cell, so that the Godunov flux takes its
    general kernel rather than the upwind branch; such a field is never
    stepped from, but it is what an unclipped Heun stage can look like."""
    values = np.exp(-g.centers**2)
    values[g.n_cells // 2] = -0.25
    return FieldV._checked(values, 0.0, 0)


@pytest.mark.parametrize("state", ["positive", "negative-cell"])
@pytest.mark.parametrize(
    "cfg",
    [SchemeConfig(), SchemeConfig(flux="rusanov"), SchemeConfig(epsilon=1e-2),
     SchemeConfig(flux="rusanov", epsilon=1e-2),
     SchemeConfig(epsilon=1e-2, forcing=mms_forcing(1e-2))],
    ids=["godunov", "rusanov", "godunov-viscous", "rusanov-viscous", "mms"],
)
def test_handed_p_and_flux_give_a_fresh_step_bitwise(cfg, state):
    # the run loop hands each state's P and interface fluxes to the step, the
    # fluxes as the workspace's own buffer; the step must equal one that
    # evaluates both itself, in a fresh workspace
    g = build_grid(-4.0, 4.0, 64)
    fv = FieldV(np.exp(-g.centers**2), 0.0) if state == "positive" else _negative_cell_state(g)
    assert (fv.values.min() < 0.0) == (state == "negative-cell")
    dt = 0.4 * g.dx / float(fv.values.max())
    ws = Workspace(g.n_cells)
    step(g, FieldV(np.full(g.n_cells, 2.0), 0.0), cfg, dt, None, ws)  # leave other data in ws
    p = prefix_integral(g, fv)
    flux = interface_fluxes(fv.values, cfg.flux, ws)
    assert flux is ws.flux
    handed = step(g, fv, cfg, dt, p, ws, flux)
    fresh = step(g, fv, cfg, dt)
    assert handed.values.tobytes() == fresh.values.tobytes()
    assert handed.clip_count == fresh.clip_count


def test_step_rejects_bad_dt():
    g = build_grid(-2.0, 2.0, 8)
    fv = FieldV(np.ones(8), 0.0)
    with pytest.raises(ValueError):
        step(g, fv, SchemeConfig(), 0.0)
    with pytest.raises(ValueError):
        step(g, fv, SchemeConfig(), math.nan)
