"""Uniform grids, nonnegative state fields, and the preset initial-data catalog.

The state variable everywhere is v = e^u >= 0. u is carried only as a derived
logarithm, so that sup bounds and L1 comparisons can be phrased in u; it is
floored at ln V_TINY, where v underflows, so that v = 0 has a finite u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainTooSmallError, GridAlignmentError, GridSizeError, ShapeError

ALIGNMENT_RTOL = 1e-12
TAIL_FRACTION_LIMIT = 1e-10
V_TINY = sys.float_info.min  # smallest normal double; ln V_TINY = -708.4

# preset name -> its parameters, in config order, with their defaults
PRESET_DEFAULTS = {
    "gaussian": {"amplitude": 0.0, "center": 0.0, "sigma": 1.0},
    "two-bump": {
        "amplitude1": 0.0,
        "center1": -2.0,
        "sigma1": 1.0,
        "amplitude2": 0.0,
        "center2": 2.0,
        "sigma2": 1.0,
    },
    "plateau": {"height": 0.0, "width": 4.0, "steepness": 4.0},
}


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid on [x_min, x_max] with x = 0 pinned to an interface.

    Coordinates are generated anchored at zero, so the interface at
    ``anchor_index`` is exactly 0.0 regardless of rounding in dx.
    """

    x_min: float
    x_max: float
    n_cells: int
    # cell width and the index of the interface at x = 0, set by the check
    dx: float = field(init=False, repr=False, compare=False)
    anchor_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise GridAlignmentError("grid endpoints must be finite")
        if self.n_cells < 4:
            raise GridSizeError(f"n_cells must be at least 4, got {self.n_cells}")
        if self.n_cells > 2**53:  # where float64 cell indices stop being exact
            raise GridSizeError(f"n_cells must be at most 2^53, got {self.n_cells}")
        if not (self.x_min < 0.0 < self.x_max):
            raise GridAlignmentError(
                f"x = 0 must lie strictly inside the domain, got "
                f"[{self.x_min}, {self.x_max}]"
            )
        dx = (self.x_max - self.x_min) / self.n_cells
        if not 0.0 < dx < math.inf:
            raise GridSizeError(f"cell width {dx} of [{self.x_min}, {self.x_max}] with "
                                f"{self.n_cells} cells must be positive and finite")
        ratio = -self.x_min / dx
        nearest = round(ratio)
        if abs(ratio - nearest) > ALIGNMENT_RTOL * max(1.0, abs(ratio)):
            k = min(max(nearest, 1), self.n_cells - 1)
            sx_min = -k * dx
            sx_max = sx_min + self.n_cells * dx
            raise GridAlignmentError(
                f"x = 0 does not fall on a cell interface for "
                f"[{self.x_min}, {self.x_max}] with {self.n_cells} cells; "
                f"nearest admissible endpoints are x_min = {sx_min:.17g}, "
                f"x_max = {sx_max:.17g}"
            )
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "anchor_index", nearest)

    @cached_property
    def interfaces(self) -> np.ndarray:
        j = np.arange(self.n_cells + 1, dtype=np.float64)
        return _readonly((j - self.anchor_index) * self.dx)

    @cached_property
    def centers(self) -> np.ndarray:
        i = np.arange(self.n_cells, dtype=np.float64)
        return _readonly((i - self.anchor_index + 0.5) * self.dx)


def build_grid(x_min: float, x_max: float, n_cells: int) -> GridSpec:
    """Construct a GridSpec, validating alignment of x = 0 with an interface."""
    return GridSpec(float(x_min), float(x_max), int(n_cells))


@dataclass(frozen=True)
class FieldV:
    """Cell values of v = e^u at a fixed time; entries are finite and >= 0.

    ``clip_count`` records how many negative entries the producing step set
    to zero (0 for fields built directly from data).
    """

    values: np.ndarray
    time: float = 0.0
    clip_count: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError("FieldV values must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("FieldV values must be finite")
        if np.any(vals < 0.0):
            raise ShapeError("FieldV values must be nonnegative")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "time", float(self.time))

    @classmethod
    def _checked(cls, values: np.ndarray, time: float, clip_count: int) -> "FieldV":
        """Wrap a 1-D float64 array whose producer has already checked that
        every entry is finite and nonnegative, without scanning it again."""
        fv = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(fv, "values", values)
        object.__setattr__(fv, "time", float(time))
        object.__setattr__(fv, "clip_count", clip_count)
        return fv


def u_from_v(fv: FieldV) -> np.ndarray:
    """u_i = ln v_i as a read-only array, floored only where v_i underflows:
    u_i >= ln V_TINY. A FieldV is finite and >= 0, so u is finite wherever
    v is: the floor keeps v = 0 from giving -inf."""
    return _readonly(np.log(np.maximum(fv.values, V_TINY)))


@dataclass(frozen=True)
class InitialDataSpec:
    """A named initial-data preset with its shape parameters.

    Presets describe v directly:

    * ``gaussian``: v(x) = exp(A - ((x - c) / sigma)^2)
    * ``two-bump``: sum of two such bumps
    * ``plateau``: exp(height) * expit(s (x + w/2)) * expit(s (w/2 - x))

    All presets decay fast enough that the mass outside a generous domain is
    negligible; ``init_field`` enforces that quantitatively.
    """

    preset: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESET_DEFAULTS:
            raise ValueError(
                f"unknown preset {self.preset!r}; expected one of "
                f"{sorted(PRESET_DEFAULTS)}"
            )
        merged = dict(PRESET_DEFAULTS[self.preset])
        for name, value in self.params.items():
            if name not in merged:
                raise ValueError(
                    f"parameter {name!r} is not valid for preset {self.preset!r}"
                )
            merged[name] = float(value)
        for name, value in merged.items():
            if not math.isfinite(value):
                raise ValueError(f"parameter {name!r} must be finite, got {value}")
        for name in ("sigma", "sigma1", "sigma2", "width", "steepness"):
            if name in merged and merged[name] <= 0.0:
                raise ValueError(f"parameter {name!r} must be positive")
        object.__setattr__(self, "params", merged)

    # the keyword parameters override the preset's entries in PRESET_DEFAULTS
    @classmethod
    def gaussian(cls, **params):
        return cls("gaussian", params)

    @classmethod
    def two_bump(cls, **params):
        return cls("two-bump", params)

    @classmethod
    def plateau(cls, **params):
        return cls("plateau", params)

    def _bumps(self) -> list[tuple[float, float, float]]:
        """(amplitude, center, sigma) of each bump of a bump preset."""
        p = self.params
        if self.preset == "gaussian":
            return [(p["amplitude"], p["center"], p["sigma"])]
        return [(p[f"amplitude{k}"], p[f"center{k}"], p[f"sigma{k}"]) for k in (1, 2)]

    def profile(self, x: np.ndarray) -> np.ndarray:
        """Evaluate v(0, x) pointwise."""
        x = np.asarray(x, dtype=np.float64)
        if self.preset != "plateau":
            return sum(np.exp(a - ((x - c) / sigma) ** 2) for a, c, sigma in self._bumps())
        from scipy.special import expit  # only the plateau needs scipy.special

        half = 0.5 * self.params["width"]
        s = self.params["steepness"]
        return np.exp(self.params["height"]) * expit(s * (x + half)) * expit(s * (half - x))

    def tail_fraction(self, x_min: float, x_max: float) -> float:
        """Fraction of the total integral of v(0, .) lying outside [x_min, x_max].

        A bump exp(a - ((x - c)/sigma)^2) has mass e^a sigma sqrt(pi), of which
        (erfc((x_max - c)/sigma) + erfc((c - x_min)/sigma)) / 2 lies outside. The
        plateau is (expit(s(x + h)) - expit(s(x - h))) / (1 - e^(-s w)) times e^height,
        h = w/2, so (sp(h - y) - sp(-y - h)) / w of its mass lies beyond y, where
        sp(z) = softplus(s z) / s = max(z, 0) + log1p(exp(-s |z|)) / s cannot overflow;
        it is even, so y = -x_min gives the left side. Each side is computed
        directly, not as the total minus the interior.
        """
        if self.preset == "plateau":
            w, s = self.params["width"], self.params["steepness"]
            sp = lambda z: max(z, 0.0) + math.log1p(math.exp(-s * abs(z))) / s
            beyond = lambda y: sp(0.5 * w - y) - sp(-y - 0.5 * w)
            return (beyond(x_max) + beyond(-x_min)) / w
        bumps = self._bumps()
        top = max(a for a, _, _ in bumps)
        weights = [sigma * math.exp(a - top) for a, _, sigma in bumps]
        outside = sum(
            wt * (math.erfc((x_max - c) / sigma) + math.erfc((c - x_min) / sigma))
            for wt, (_, c, sigma) in zip(weights, bumps)
        )
        return 0.5 * outside / sum(weights)


def init_field(grid: GridSpec, spec: InitialDataSpec) -> FieldV:
    """Sample a preset at cell midpoints, checking tail admissibility.

    Raises DomainTooSmallError when at least 1e-10 of the profile's mass lies
    outside the domain, with a suggestion for endpoints that would suffice.
    """
    frac = spec.tail_fraction(grid.x_min, grid.x_max)
    if not frac < TAIL_FRACTION_LIMIT:  # a NaN fraction fails too
        lo, hi = grid.x_min, grid.x_max
        for _ in range(10):
            lo, hi = 2.0 * lo, 2.0 * hi
            if spec.tail_fraction(lo, hi) < TAIL_FRACTION_LIMIT:
                break
        raise DomainTooSmallError(
            f"{frac:.3e} of the initial mass lies outside "
            f"[{grid.x_min}, {grid.x_max}] (limit {TAIL_FRACTION_LIMIT:g}); "
            f"try x_min <= {lo:g}, x_max >= {hi:g}"
        )
    v = spec.profile(grid.centers)
    return FieldV(v, 0.0)
