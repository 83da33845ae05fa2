"""Semi-discrete finite-volume scheme and explicit time stepping for

    dv/dt + d/dx (v^2 / 2) = -v * P[v] + epsilon * v * d2v/dx2,

with P[v] the signed prefix integral anchored at x = 0. The convective flux
f(v) = v^2 / 2 is convex with its sonic point at v = 0, which is what the
Godunov formula below encodes. Boundaries are Dirichlet-zero ghost cells.

The interface states fed to the flux are either the raw cell values
(``reconstruction="none"``, a first-order monotone scheme) or a MUSCL
reconstruction limited by minmod (``"minmod"``, the default; van Leer 1979),
which is second order on smooth data and TVD under the same CFL rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, ShapeError, StateError
from .grid_field import FieldV, GridSpec
from .nonlocal_op import NonlocalP, _prefix_arrays, p_sup

FLUXES = ("godunov", "rusanov")
INTEGRATORS = ("forward-euler", "ssp-rk2")
RECONSTRUCTIONS = ("none", "minmod")

ForcingFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization knobs.

    ``reconstruction`` selects the interface states (see the module
    docstring); ``"none"`` keeps the first-order monotone scheme.
    ``source_enabled`` switches the nonlocal source off, giving the plain
    conservation law (used by the Riemann sanity checks); ``forcing`` is an
    optional g(t, x) added to the right-hand side for manufactured solutions.
    """

    flux: str = "godunov"
    epsilon: float = 0.0
    cfl: float = 0.4
    v_floor: float = 1e-12
    integrator: str = "ssp-rk2"
    reconstruction: str = "minmod"
    source_enabled: bool = True
    forcing: ForcingFn | None = None

    def __post_init__(self):
        if self.flux not in FLUXES:
            raise ValueError(f"flux must be one of {FLUXES}, got {self.flux!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if self.reconstruction not in RECONSTRUCTIONS:
            raise ValueError(
                f"reconstruction must be one of {RECONSTRUCTIONS}, "
                f"got {self.reconstruction!r}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (math.isfinite(self.v_floor) and self.v_floor > 0.0):
            raise ValueError(f"v_floor must be positive, got {self.v_floor}")


class Workspace:
    """Preallocated float64 buffers for one grid size.

    ``evolve`` makes one per run and hands it to every ``step`` and
    diagnostics row, so the hot loop allocates only each new field and its
    prefix integral. Called without one, the public functions build their
    own, which keeps a single arithmetic path.

    ``flux`` also remembers whose interface fluxes it holds: the diagnostics
    row of a state computes them and the first stage of the next step reads
    them instead of evaluating them again.
    """

    def __init__(self, n_cells: int, n_alphas: int = 1):
        n = n_cells
        self.half_diff = np.empty(n + 1)
        self.lo = np.empty(n)
        self.hi = np.empty(n)
        self.left = np.empty(n + 1)
        self.right = np.empty(n + 1)
        self.flux = np.empty(n + 1)
        self.flux_tmp = np.empty(n + 1)
        self.flux_of = None  # (v, flux, reconstruction) that ``flux`` belongs to
        self.rate = np.empty(n)
        self.source = np.empty(n)
        self.lap = np.empty(n)
        self.viscous = np.empty(n)
        self.stage = np.empty(n)
        self.p_interface = np.empty(n + 1)
        self.p_cells = np.empty(n)
        self.mask = np.empty(n, dtype=bool)
        # diagnostics, one row per alpha: v and its powers zero-padded by one
        # ghost on each side, their forward differences, and powers times P
        self.v_pad = np.zeros(n + 2)
        self.dv = np.empty(n + 1)
        self.power_pad = np.zeros((n_alphas, n + 2))
        self.dw = np.empty((n_alphas, n + 1))
        self.weighted = np.empty((n_alphas, n))


# The flux kernels evaluate f(v) = v^2 / 2 as (0.5 v) v into ``out``, using
# ``a``, ``b`` and ``tmp`` as work arrays (their contents are destroyed).
def _godunov(a, b, out, tmp):
    np.maximum(a, 0.0, out=a)
    np.multiply(a, 0.5, out=out)
    out *= a
    np.minimum(b, 0.0, out=b)
    np.multiply(b, 0.5, out=tmp)
    tmp *= b
    return np.maximum(out, tmp, out=out)


def _rusanov(a, b, out, tmp):
    np.multiply(a, 0.5, out=out)
    out *= a
    np.multiply(b, 0.5, out=tmp)
    tmp *= b
    out += tmp
    out *= 0.5                      # 0.5 (f(a) + f(b))
    np.abs(a, out=tmp)
    np.subtract(b, a, out=a)        # a now holds b - a
    np.abs(b, out=b)
    np.maximum(tmp, b, out=tmp)
    tmp *= 0.5
    tmp *= a                        # 0.5 max(|a|, |b|) (b - a)
    return np.subtract(out, tmp, out=out)


_FLUX_FN = {"godunov": _godunov, "rusanov": _rusanov}


def _pointwise_flux(kernel, a, b):
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    out = np.empty(a.shape)
    kernel(a.copy(), b.copy(), out, np.empty(a.shape))
    return out[()]


def godunov_flux(a, b):
    """Exact Riemann flux for f(v) = v^2/2: max(f(max(a,0)), f(min(b,0)))."""
    return _pointwise_flux(_godunov, a, b)


def rusanov_flux(a, b):
    """Local Lax-Friedrichs flux 0.5 (f(a) + f(b)) - 0.5 max(|a|,|b|) (b - a)."""
    return _pointwise_flux(_rusanov, a, b)


def _half_minmod_slopes(v: np.ndarray, ws: Workspace) -> np.ndarray:
    """Half of minmod(v_i - v_(i-1), v_(i+1) - v_i) per cell, zero ghosts.

    minmod(a, b) is the median of a, b and 0, computed as
    min(max(min(a, b), 0), max(a, b)).
    """
    d = ws.half_diff
    d[0] = 0.5 * v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[1:-1] *= 0.5
    d[-1] = -0.5 * v[-1]
    lo = np.minimum(d[:-1], d[1:], out=ws.lo)
    hi = np.maximum(d[:-1], d[1:], out=ws.hi)
    np.maximum(lo, 0.0, out=lo)
    return np.minimum(lo, hi, out=lo)


def face_states(
    v: np.ndarray, reconstruction: str = "minmod", ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """States on the left and right of each of the n+1 interfaces.

    With ``"none"`` interface i+1/2 sees the cell values v_i and v_(i+1).
    With ``"minmod"`` it sees v_i + s_i and v_(i+1) - s_(i+1), where s is half
    the minmod-limited slope; each state lies between the two neighbouring
    cell values, so nonnegative cells give nonnegative states. The ghost
    cells carry zero value and zero slope. With a workspace the states are
    ``ws.left`` and ``ws.right``.
    """
    if ws is None:
        ws = Workspace(v.size)
    left, right = ws.left, ws.right
    left[0] = 0.0
    right[-1] = 0.0
    if reconstruction == "minmod":
        s = _half_minmod_slopes(v, ws)
        np.add(v, s, out=left[1:])
        np.subtract(v, s, out=right[:-1])
    elif reconstruction == "none":
        left[1:] = v
        right[:-1] = v
    else:
        raise ValueError(
            f"reconstruction must be one of {RECONSTRUCTIONS}, got {reconstruction!r}"
        )
    return left, right


def interface_fluxes(
    v: np.ndarray,
    flux: str,
    reconstruction: str = "minmod",
    ws: Workspace | None = None,
) -> np.ndarray:
    """Numerical fluxes on the n+1 interfaces, evaluated on ``face_states``
    (zero ghost states on both sides). With a workspace the result is
    ``ws.flux``, valid until the next evaluation in that workspace."""
    if ws is None:
        ws = Workspace(v.size)
    kernel = _FLUX_FN[flux]
    left, right = face_states(v, reconstruction, ws)
    kernel(left, right, ws.flux, ws.flux_tmp)
    ws.flux_of = (v, flux, reconstruction)
    return ws.flux


def _rhs_parts(
    grid: GridSpec,
    v: np.ndarray,
    t: float,
    p_cells: np.ndarray | None,
    cfg: SchemeConfig,
    ws: Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Flux divergence, source and viscous parts, in workspace buffers; the
    viscous part is None when epsilon is zero."""
    dx = grid.dx
    cached = ws.flux_of
    if cached is not None and cached[0] is v and cached[1:] == (cfg.flux, cfg.reconstruction):
        flux = ws.flux
    else:
        flux = interface_fluxes(v, cfg.flux, cfg.reconstruction, ws)
    flux_div = np.subtract(flux[:-1], flux[1:], out=ws.rate)
    flux_div /= dx

    source = ws.source
    if cfg.source_enabled:
        if p_cells is None:
            _, p_cells = _prefix_arrays(grid, v, ws.p_interface, ws.p_cells)
        np.negative(v, out=source)
        source *= p_cells
    else:
        source.fill(0.0)
    if cfg.forcing is not None:
        source += cfg.forcing(t, grid.centers)

    if cfg.epsilon == 0.0:
        return flux_div, source, None
    lap = ws.lap
    np.multiply(v[1:-1], 2.0, out=lap[1:-1])
    np.subtract(v[2:], lap[1:-1], out=lap[1:-1])
    lap[1:-1] += v[:-2]
    lap[0] = v[1] - 2.0 * v[0]           # zero ghost on the left
    lap[-1] = v[-2] - 2.0 * v[-1]        # zero ghost on the right
    viscous = np.multiply(v, cfg.epsilon, out=ws.viscous)
    viscous *= lap
    viscous /= dx * dx
    return flux_div, source, viscous


def semi_discrete_rhs(
    grid: GridSpec, fv: FieldV, p: NonlocalP, cfg: SchemeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial operator split into (flux divergence, source, viscous) parts;
    the viscous part is zeros when epsilon is zero."""
    if fv.values.shape != (grid.n_cells,):
        raise ShapeError(
            f"field has {fv.values.shape[0]} cells, grid has {grid.n_cells}"
        )
    if p.cell_values.shape != (grid.n_cells,):
        raise ShapeError("nonlocal operator was built on a different grid")
    flux_div, source, viscous = _rhs_parts(
        grid, fv.values, fv.time, p.cell_values, cfg, Workspace(grid.n_cells)
    )
    if viscous is None:
        viscous = np.zeros_like(flux_div)
    return flux_div, source, viscous


def cfl_dt(grid: GridSpec, fv: FieldV, p: NonlocalP, cfg: SchemeConfig) -> float:
    """Stable step size: cfl times the tightest of the convective, viscous,
    and source restrictions."""
    vmax = float(fv.values.max())
    if vmax <= 0.0:
        raise StateError("max v must be positive to size a time step")
    dx = grid.dx
    limit = min(dx / vmax, 1.0 / (p_sup(p) + 1e-30))
    if cfg.epsilon > 0.0:
        limit = min(limit, dx * dx / (2.0 * cfg.epsilon * vmax))
    return cfg.cfl * limit


def _rate(
    grid: GridSpec,
    v: np.ndarray,
    t: float,
    p_cells: np.ndarray | None,
    cfg: SchemeConfig,
    ws: Workspace,
) -> np.ndarray:
    flux_div, source, viscous = _rhs_parts(grid, v, t, p_cells, cfg, ws)
    total = np.add(flux_div, source, out=flux_div)
    if viscous is not None:
        total += viscous
    return total


def step(
    grid: GridSpec,
    fv: FieldV,
    cfg: SchemeConfig,
    dt: float,
    p: NonlocalP | None = None,
    ws: Workspace | None = None,
) -> FieldV:
    """Advance one step of size dt; the nonlocal operator is rebuilt per stage.

    ``p``, when given, must be the prefix integral of ``fv``; the first stage
    then reuses it instead of rebuilding it. ``ws`` is the run's workspace
    (a fresh one when omitted). The result is clipped below at
    ``cfg.v_floor`` and the number of clipped entries is recorded on the
    returned field. Non-finite output raises BlowUpError naming the first
    offending cell; this is the only check a stepped field gets.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if ws is None:
        ws = Workspace(grid.n_cells)

    v, t = fv.values, fv.time
    r1 = _rate(grid, v, t, None if p is None else p.cell_values, cfg, ws)
    out = np.empty(v.size)
    if cfg.integrator == "ssp-rk2":
        stage = np.multiply(r1, dt, out=ws.stage)
        stage += v
        r2 = _rate(grid, stage, t + dt, None, cfg, ws)
        r2 *= dt
        r2 += stage
        r2 *= 0.5
        np.multiply(v, 0.5, out=out)
        out += r2                        # 0.5 v + 0.5 (stage + dt r2)
    else:
        np.multiply(r1, dt, out=out)
        out += v
    finite = np.isfinite(out, out=ws.mask)
    if not finite.all():
        raise BlowUpError(int(np.argmin(finite)), fv.time + dt)
    clip_count = int(np.count_nonzero(np.less(out, cfg.v_floor, out=ws.mask)))
    if clip_count:
        np.maximum(out, cfg.v_floor, out=out)
    return FieldV._checked(out, fv.time + dt, clip_count)
