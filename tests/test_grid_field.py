"""Grid construction, field validation, and the initial-data presets."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, expit

from exprabelo import (
    DomainTooSmallError,
    FieldV,
    GridAlignmentError,
    GridSizeError,
    GridSpec,
    InitialDataSpec,
    build_grid,
    init_field,
    u_from_v,
)
from exprabelo.grid_field import PRESET_DEFAULTS


def test_basic_grid_geometry():
    g = build_grid(-1.0, 1.0, 4)
    assert g.dx == 0.5
    assert g.anchor_index == 2
    assert np.array_equal(g.interfaces, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(g.centers, [-0.75, -0.25, 0.25, 0.75])


def test_anchor_interface_is_exactly_zero_even_asymmetric():
    for args in ((-8.0, 8.0, 256), (-3.0, 5.0, 64), (-0.5, 1.5, 16)):
        g = build_grid(*args)
        assert g.interfaces[g.anchor_index] == 0.0


def test_misaligned_endpoints_rejected_with_suggestion():
    with pytest.raises(GridAlignmentError) as exc:
        build_grid(-1.0, 1.1, 4)
    # the message should propose admissible endpoints
    assert "x_min" in str(exc.value)


def test_grid_size_and_sign_validation():
    with pytest.raises(GridSizeError):
        build_grid(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        build_grid(1.0, 2.0, 8)  # zero not interior
    with pytest.raises(ValueError):
        build_grid(-math.inf, 1.0, 8)
    # the float64 cell indices are exact up to 2^53 cells, and no further
    assert build_grid(-1.0, 1.0, 2**53).anchor_index == 2**52
    with pytest.raises(GridSizeError, match=r"at most 2\^53"):
        build_grid(-1.0, 1.0, 2**53 + 2)
    # a cell width that underflows to 0 or overflows to inf
    for x_min, x_max in ((-5e-324, 5e-324), (-1e308, 1e308)):
        with pytest.raises(GridSizeError, match="must be positive and finite"):
            build_grid(x_min, x_max, 4)


@settings(max_examples=200, deadline=None)
@given(
    n_cells=st.integers(4, 4096),
    share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(1e-300, 1e300),
)
def test_grid_width_and_anchor_come_from_the_endpoints(n_cells, share, width):
    k = min(max(round(share * n_cells), 1), n_cells - 1)
    h = width / n_cells
    x_min, x_max = -k * h, (n_cells - k) * h
    g = GridSpec(x_min, x_max, n_cells)
    assert g.dx.hex() == ((x_max - x_min) / n_cells).hex()
    assert g.anchor_index == round(-x_min / g.dx) == k
    # equality, hash and repr see the three defining fields only, even once
    # one of two equal grids has cached its arrays
    twin = GridSpec(x_min, x_max, n_cells)
    assert g.interfaces[k] == 0.0
    assert g == twin and hash(g) == hash(twin) == hash((x_min, x_max, n_cells))
    assert repr(g) == repr(twin) == f"GridSpec(x_min={x_min!r}, x_max={x_max!r}, n_cells={n_cells})"


def test_grid_arrays_are_read_only():
    g = build_grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        g.centers[0] = 99.0
    with pytest.raises(ValueError):
        g.interfaces[0] = 99.0


def test_field_v_validation():
    FieldV(np.array([0.0, 1.0, 2.0]), 0.0)  # zeros allowed
    with pytest.raises(ValueError):
        FieldV(np.array([1.0, -1e-30]), 0.0)
    with pytest.raises(ValueError):
        FieldV(np.array([1.0, np.nan]), 0.0)
    with pytest.raises(ValueError):
        FieldV(np.ones((2, 2)), 0.0)
    with pytest.raises(ValueError):
        FieldV(np.array([]), 0.0)
    fv = FieldV(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        fv.values[0] = 3.0


def test_u_from_v_floors_and_counts():
    # u = ln v is floored only where v underflows: at the smallest normal
    # double, so v = 0 and subnormal v get the finite u = -708.4
    tiny = sys.float_info.min
    fv = FieldV(np.array([1.0, 1e-40, 1e-300, tiny, 5e-324, 0.0]), 0.25)
    fu = u_from_v(fv)
    assert fu[0] == 0.0
    assert fu[1] == math.log(1e-40)
    assert fu[2] == math.log(1e-300)
    assert fu[3] == fu[4] == fu[5] == math.log(tiny)
    assert fu[5] == pytest.approx(-708.396, abs=1e-3)
    assert not fu.flags.writeable
    with pytest.raises(ValueError):
        fu[0] = 1.0
    with pytest.raises(TypeError):
        u_from_v(fv, 1e-12)  # the floor is not a parameter


def test_gaussian_profile_matches_formula():
    spec = InitialDataSpec.gaussian(amplitude=0.3, center=-1.0, sigma=2.0)
    x = np.linspace(-4, 4, 17)
    expected = np.exp(0.3 - ((x + 1.0) / 2.0) ** 2)
    assert np.allclose(spec.profile(x), expected, rtol=1e-15)


def test_two_bump_is_sum_of_gaussians():
    spec = InitialDataSpec.two_bump()
    x = np.linspace(-6, 6, 25)
    left = InitialDataSpec.gaussian(center=-2.0).profile(x)
    right = InitialDataSpec.gaussian(center=2.0).profile(x)
    assert np.allclose(spec.profile(x), left + right, rtol=1e-15)


def test_plateau_profile_shape():
    spec = InitialDataSpec.plateau(height=0.5, width=4.0, steepness=4.0)
    x = np.array([0.0])
    expected = math.exp(0.5) * expit(8.0) * expit(8.0)
    assert np.allclose(spec.profile(x), expected, rtol=1e-15)
    # symmetric and decaying outward
    xs = np.linspace(0.0, 8.0, 30)
    vals = spec.profile(xs)
    assert np.all(np.diff(vals) <= 0)
    assert np.allclose(spec.profile(-xs), vals, rtol=1e-15)


def test_unknown_preset_and_bad_param_rejected():
    with pytest.raises(ValueError):
        InitialDataSpec("bump", {})
    with pytest.raises(ValueError):
        InitialDataSpec("gaussian", {"centre": 0.0})
    with pytest.raises(ValueError):
        InitialDataSpec.gaussian(sigma=0.0)


def test_preset_constructors_take_their_defaults_from_the_one_table():
    for ctor, name in (
        (InitialDataSpec.gaussian, "gaussian"),
        (InitialDataSpec.two_bump, "two-bump"),
        (InitialDataSpec.plateau, "plateau"),
    ):
        assert ctor() == InitialDataSpec(name)
        assert ctor().params == PRESET_DEFAULTS[name]
    spec = InitialDataSpec.two_bump(center2=3.0)
    assert spec.params == {**PRESET_DEFAULTS["two-bump"], "center2": 3.0}
    with pytest.raises(ValueError):
        InitialDataSpec.plateau(sigma=1.0)


def _quad_mass(spec, a, b, features):
    """The integral of the profile over (a, b) by adaptive quadrature, split
    at the features inside it so that no bump or edge is missed."""
    cuts = [a, *sorted(c for c in features if a < c < b), b]
    f = lambda x: float(spec.profile(x))
    return sum(
        quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0] for lo, hi in zip(cuts, cuts[1:])
    )


def test_tail_fraction_against_closed_form():
    # for exp(-x^2), the mass outside [-L, L] is erfc(L) relative to sqrt(pi)
    spec = InitialDataSpec.gaussian()
    for L in (2.0, 3.0, 4.0):
        expected = erfc(L)
        assert spec.tail_fraction(-L, L) == pytest.approx(expected, rel=1e-8)

    # every preset against quadrature, on random parameters and domains
    rng = np.random.default_rng(14)
    for preset in ("gaussian", "two-bump", "plateau"):
        for _ in range(40):
            if preset == "plateau":
                params = {"height": rng.uniform(-2, 2), "width": rng.uniform(0.5, 6),
                          "steepness": rng.uniform(0.5, 8)}
                features = (-0.5 * params["width"], 0.5 * params["width"])
            else:
                keys = ("",) if preset == "gaussian" else ("1", "2")
                params = {}
                for k in keys:
                    params |= {f"amplitude{k}": rng.uniform(-2, 2),
                               f"center{k}": rng.uniform(-3, 3), f"sigma{k}": rng.uniform(0.3, 2)}
                features = tuple(params[f"center{k}"] for k in keys)
            spec = InitialDataSpec(preset, params)
            x_min, x_max = -rng.uniform(1, 8), rng.uniform(1, 8)
            outside = (_quad_mass(spec, -np.inf, x_min, features)
                       + _quad_mass(spec, x_max, np.inf, features))
            expected = outside / (outside + _quad_mass(spec, x_min, x_max, features))
            assert spec.tail_fraction(x_min, x_max) == pytest.approx(expected, rel=1e-10)


def test_overflowing_plateau_tail_is_finite_and_rejected():
    # s w overflows: the tail is still computed, and nearly all of a plateau
    # 1e10 wide lies outside [-8, 8]
    g = build_grid(-8.0, 8.0, 64)
    wide = InitialDataSpec.plateau(width=1e10, steepness=1e300)
    assert wide.tail_fraction(-8.0, 8.0) == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(DomainTooSmallError):
        init_field(g, wide)
    # a box of steepness 1e300 well inside the domain has no tail at all
    box = InitialDataSpec.plateau(width=4.0, steepness=1e300)
    assert box.tail_fraction(-8.0, 8.0) == 0.0
    assert np.all(init_field(g, box).values >= 0.0)


def test_init_field_rejects_nan_tail_fraction(monkeypatch):
    monkeypatch.setattr(InitialDataSpec, "tail_fraction", lambda self, lo, hi: math.nan)
    with pytest.raises(DomainTooSmallError):
        init_field(build_grid(-8.0, 8.0, 64), InitialDataSpec.gaussian())


def test_init_field_samples_midpoints():
    g = build_grid(-8.0, 8.0, 64)
    fv = init_field(g, InitialDataSpec.gaussian())
    assert np.array_equal(fv.values, np.exp(-g.centers**2))
    assert fv.time == 0.0


def test_init_field_rejects_small_domain():
    g = build_grid(-2.0, 2.0, 16)
    with pytest.raises(DomainTooSmallError) as exc:
        init_field(g, InitialDataSpec.gaussian())
    assert "try" in str(exc.value)
    # shifted mass near the right edge is also rejected
    g2 = build_grid(-8.0, 8.0, 64)
    with pytest.raises(DomainTooSmallError):
        init_field(g2, InitialDataSpec.gaussian(center=7.0))
    # mass far outside the domain counts, however narrow or distant its bump
    far_bump = InitialDataSpec.two_bump(center2=100.0, amplitude2=3.0)
    with pytest.raises(DomainTooSmallError, match=r"9\.526e-01 .* try x_min <= -128"):
        init_field(g2, far_bump)
    needle = InitialDataSpec.gaussian(center=20.0, sigma=0.01)
    with pytest.raises(DomainTooSmallError, match=r"try x_min <= -32, x_max >= 32"):
        init_field(g2, needle)
