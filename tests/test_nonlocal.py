"""The anchored prefix integral P(x) = int_0^x v dy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from exprabelo import (
    FieldV,
    InitialDataSpec,
    ShapeError,
    build_grid,
    init_field,
    p_sup,
    prefix_integral,
)
from exprabelo.nonlocal_op import _prefix_arrays


def brute_force_prefix(grid, v):
    """Independent O(n^2) oracle: sum cell masses interface by interface,
    then subtract the anchor value."""
    n = grid.n_cells
    raw = [0.0]
    for i in range(n):
        raw.append(raw[-1] + float(v[i]) * grid.dx)
    anchored = [r - raw[grid.anchor_index] for r in raw]
    anchored[grid.anchor_index] = 0.0
    cells = [0.5 * (anchored[j] + anchored[j + 1]) for j in range(n)]
    return np.array(anchored), np.array(cells)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    g = build_grid(-3.0, 5.0, 64)
    v = rng.uniform(0.0, 2.0, size=64)
    p = prefix_integral(g, FieldV(v, 0.0))
    ifc, cells = brute_force_prefix(g, v)
    assert np.allclose(p.interface_values, ifc, rtol=0, atol=1e-14)
    assert np.allclose(p.cell_values, cells, rtol=0, atol=1e-14)


def test_constant_one_gives_identity():
    g = build_grid(-8.0, 8.0, 512)
    p = prefix_integral(g, FieldV(np.ones(512), 0.0))
    assert np.array_equal(p.cell_values, g.centers)
    assert np.array_equal(p.interface_values, g.interfaces)


def test_anchor_value_exactly_zero_for_random_fields():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(8, 200))
        k = int(rng.integers(1, n))
        g = build_grid(-k * 0.125, (n - k) * 0.125, n)
        v = rng.uniform(0.0, 3.0, size=n)
        p = prefix_integral(g, FieldV(v, 0.0))
        assert p.interface_values[g.anchor_index] == 0.0


def stored_anchor_prefix(grid, v):
    """_prefix_arrays with 0.0 stored at the anchor after the subtraction."""
    interface = np.empty(grid.n_cells + 1)
    interface[0] = 0.0
    np.add.accumulate(v * grid.dx, out=interface[1:])
    interface -= interface[grid.anchor_index]
    interface[grid.anchor_index] = 0.0
    return interface, 0.5 * (interface[:-1] + interface[1:])


FIELDS = {
    "signed zeros": st.sampled_from((0.0, -0.0)),
    "zeros and positive": st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 2.0)),
    "negative cells": st.floats(-2.0, 2.0),  # as an unclipped Heun stage has
}


@given(
    data=st.data(),
    n=st.integers(4, 200),
    dx=st.sampled_from((1.0, 0.25, 0.1)),
    kind=st.sampled_from(sorted(FIELDS)),
)
@settings(max_examples=300, deadline=None)
def test_anchor_is_positive_zero_without_a_store(data, n, dx, kind):
    # x - x is +0.0 for every finite x, -0.0 included: the subtraction alone
    # leaves +0.0 at the anchor, and a store of 0.0 after it moves no bit
    anchor = data.draw(st.integers(1, n - 1))
    g = build_grid(-anchor * dx, (n - anchor) * dx, n)
    v = data.draw(arrays(np.float64, n, elements=FIELDS[kind]))
    interface, cells = _prefix_arrays(g, v, np.empty(n + 1), np.empty(n))
    assert interface[anchor].tobytes() == np.float64(0.0).tobytes()
    expected = stored_anchor_prefix(g, v)
    assert (interface.tobytes(), cells.tobytes()) == tuple(a.tobytes() for a in expected)


def test_gaussian_tail_reaches_half_sqrt_pi():
    g = build_grid(-8.0, 8.0, 4096)
    fv = init_field(g, InitialDataSpec.gaussian())
    p = prefix_integral(g, fv)
    assert abs(p.interface_values[-1] - 0.5 * np.sqrt(np.pi)) < 1e-6
    assert abs(p.interface_values[0] + 0.5 * np.sqrt(np.pi)) < 1e-6


def test_quadrature_order_at_least_1_8():
    errs = []
    for n in (1024, 2048, 4096):
        g = build_grid(-8.0, 8.0, n)
        fv = init_field(g, InitialDataSpec.gaussian())
        p = prefix_integral(g, fv)
        exact = 0.5 * np.sqrt(np.pi) * erf(g.centers)
        errs.append(np.max(np.abs(p.cell_values - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_integration_by_parts_telescopes():
    # sum of v_i P_i dx equals (P_right^2 - P_left^2) / 2 up to roundoff;
    # this closure is what the mass-balance verifier leans on
    rng = np.random.default_rng(5)
    g = build_grid(-2.0, 6.0, 128)
    v = rng.uniform(0.0, 2.0, size=128)
    p = prefix_integral(g, FieldV(v, 0.0))
    lhs = float(np.sum(v * p.cell_values) * g.dx)
    rhs = 0.5 * (p.interface_values[-1] ** 2 - p.interface_values[0] ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_shape_mismatch_rejected():
    g = build_grid(-1.0, 1.0, 8)
    with pytest.raises(ShapeError):
        prefix_integral(g, FieldV(np.ones(9), 0.0))


def test_p_sup():
    g = build_grid(-8.0, 8.0, 64)
    p = prefix_integral(g, FieldV(np.ones(64), 0.0))
    assert p_sup(p) == np.max(np.abs(g.centers))


@given(
    data=st.data(),
    n=st.integers(4, 200),
    dx=st.sampled_from((1.0, 0.25, 0.1)),
    scale=st.sampled_from((1.0, 1e-300, 1e300)),
)
@settings(max_examples=200, deadline=None)
def test_p_sup_reads_the_end_cells_bitwise(data, n, dx, scale):
    # P of a field >= 0 is nondecreasing in floating point, so its largest
    # |P| sits in an end cell; zeros, values near 1e-300 and 1e300, and an
    # anchor at or next to either end of the grid may not move a bit
    anchor = data.draw(st.sampled_from((1, 2, n // 2, n - 2, n - 1)))
    g = build_grid(-anchor * dx, (n - anchor) * dx, n)
    values = data.draw(arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-320, 1e-300))))
    p = prefix_integral(g, FieldV(values * scale, 0.0))
    expected = np.abs(p.cell_values).max()
    assert np.array(p_sup(p)).tobytes() == expected.tobytes()


def test_arrays_read_only():
    g = build_grid(-1.0, 1.0, 8)
    p = prefix_integral(g, FieldV(np.ones(8), 0.0))
    with pytest.raises(ValueError):
        p.cell_values[0] = 1.0
