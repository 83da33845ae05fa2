"""Semi-discrete finite-volume scheme and its time stepping for

    dv/dt + d/dx (v^2 / 2) = -v * P[v] + epsilon * v * d2v/dx2,

with P[v] the signed prefix integral anchored at x = 0. The convective flux
f(v) = v^2 / 2 is convex with its sonic point at v = 0, which is what the
Godunov formula below encodes. Boundaries are Dirichlet-zero ghost cells.

The interface states fed to the flux come from a MUSCL reconstruction
limited by minmod (van Leer 1979), which is second order on smooth data and
TVD under the CFL rule of ``cfl_dt``.

Convection and the source are stepped explicitly, by SSP-RK2 (Heun) when
epsilon is zero. With epsilon > 0 the viscous term is linearly implicit:
each implicit stage solves a tridiagonal M-matrix system
(``implicit_viscous_solve``), coupled to the explicit part by the IMEX
Runge-Kutta scheme ARS(2,2,2) (Ascher, Ruuth and Spiteri 1997). The step size
then comes from the convective and source limits alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import BlowUpError, ShapeError, StateError
from .grid_field import FieldV, GridSpec
from .nonlocal_op import NonlocalP, _prefix_arrays, p_sup

FLUXES = ("godunov", "rusanov")

# ARS(2,2,2): the implicit diagonal gamma and the explicit weight delta
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)

ForcingFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization knobs of the scheme described in the module docstring.

    ``source_enabled`` switches the nonlocal source off, giving the plain
    conservation law (used by the Riemann sanity checks); ``forcing`` is an
    optional g(t, x) added to the right-hand side for manufactured solutions.
    """

    flux: str = "godunov"
    epsilon: float = 0.0
    cfl: float = 0.4
    v_floor: float = 1e-12
    source_enabled: bool = True
    forcing: ForcingFn | None = None

    def __post_init__(self):
        if self.flux not in FLUXES:
            raise ValueError(f"flux must be one of {FLUXES}, got {self.flux!r}")
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
        self.flux_of = None  # (v, flux) that ``flux`` belongs to
        self.rate = np.empty(n)
        self.source = np.empty(n)
        self.stage = np.empty(n)
        self.implicit = np.empty(n)      # second ARS(2,2,2) stage value
        self.acc = np.empty(n)           # right-hand side of the last stage
        self.off = np.empty(n)           # off-diagonals and diagonal of the
        self.diag = np.empty(n)          # implicit viscous solve
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


def face_states(v: np.ndarray, ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """States on the left and right of each of the n+1 interfaces.

    Interface i+1/2 sees v_i + s_i and v_(i+1) - s_(i+1), where s is half the
    minmod-limited slope; each state lies between the two neighbouring cell
    values, so nonnegative cells give nonnegative states. The ghost cells
    carry zero value and zero slope. With a workspace the states are
    ``ws.left`` and ``ws.right``.
    """
    if ws is None:
        ws = Workspace(v.size)
    left, right = ws.left, ws.right
    left[0] = 0.0
    right[-1] = 0.0
    s = _half_minmod_slopes(v, ws)
    np.add(v, s, out=left[1:])
    np.subtract(v, s, out=right[:-1])
    return left, right


def interface_fluxes(v: np.ndarray, flux: str, ws: Workspace | None = None) -> np.ndarray:
    """Numerical fluxes on the n+1 interfaces, evaluated on ``face_states``
    (zero ghost states on both sides). With a workspace the result is
    ``ws.flux``, valid until the next evaluation in that workspace."""
    if ws is None:
        ws = Workspace(v.size)
    kernel = _FLUX_FN[flux]
    left, right = face_states(v, ws)
    kernel(left, right, ws.flux, ws.flux_tmp)
    ws.flux_of = (v, flux)
    return ws.flux


def _rhs_parts(
    grid: GridSpec,
    v: np.ndarray,
    t: float,
    p_cells: np.ndarray | None,
    cfg: SchemeConfig,
    ws: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Flux divergence and source (forcing included), the parts that are
    stepped explicitly, in workspace buffers."""
    dx = grid.dx
    cached = ws.flux_of
    if cached is not None and cached[0] is v and cached[1] == cfg.flux:
        flux = ws.flux
    else:
        flux = interface_fluxes(v, cfg.flux, ws)
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
    return flux_div, source


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
    v = fv.values
    flux_div, source = _rhs_parts(grid, v, fv.time, p.cell_values, cfg, Workspace(v.size))
    padded = np.concatenate(([0.0], v, [0.0]))  # zero ghosts
    lap = padded[:-2] - 2.0 * v + padded[2:]
    return flux_div, source, cfg.epsilon * v * lap / (grid.dx * grid.dx)


def cfl_dt(grid: GridSpec, fv: FieldV, p: NonlocalP, cfg: SchemeConfig) -> float:
    """Stable step size: cfl times the tighter of the convective and source
    restrictions. The viscous term is implicit and sets no limit."""
    vmax = float(fv.values.max())
    if vmax <= 0.0:
        raise StateError("max v must be positive to size a time step")
    dx = grid.dx
    return cfg.cfl * min(dx / vmax, 1.0 / (p_sup(p) + 1e-30))


def _rate(
    grid: GridSpec,
    v: np.ndarray,
    t: float,
    p_cells: np.ndarray | None,
    cfg: SchemeConfig,
    ws: Workspace,
) -> np.ndarray:
    """The explicit rate: flux divergence plus source, in ``ws.rate``."""
    flux_div, source = _rhs_parts(grid, v, t, p_cells, cfg, ws)
    return np.add(flux_div, source, out=flux_div)


def implicit_viscous_solve(
    w: np.ndarray,
    rhs: np.ndarray,
    coef: float,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Solve (I - coef diag(w) L) x = rhs, L x_i = x_(i-1) - 2 x_i + x_(i+1)
    with zero ghosts, by LAPACK's tridiagonal ``dgtsv``.

    Row i has diagonal 1 + 2 coef w_i and off-diagonals -coef w_i. For
    w >= 0 and coef >= 0 that is a strictly diagonally dominant matrix with
    nonpositive off-diagonals, an M-matrix, whose inverse is nonnegative:
    rhs >= 0 gives x >= 0. Each row is divided by its diagonal first. Its
    off-diagonals then lie in [-1/2, 0], so the elimination never swaps rows
    and only ever adds nonnegative terms, and x >= 0 holds in floating point
    too. ``out`` may be ``w`` itself, which is read before ``out`` is written.
    """
    if ws is None:
        ws = Workspace(w.size)
    if out is None:
        out = np.empty(w.size)
    off = np.multiply(w, -coef, out=ws.off)
    diag = np.multiply(off, -2.0, out=ws.diag)
    diag += 1.0
    off /= diag
    np.divide(rhs, diag, out=out)
    diag.fill(1.0)
    dgtsv(off[1:], diag, off[:-1], out, overwrite_d=1, overwrite_b=1)
    return out


def _implicit_stage(
    start: np.ndarray, rhs: np.ndarray, coef: float, out: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Solve x - coef x L x = rhs linearly: freeze the coefficient x at the
    stage's start value, then once more at that first solution. With a single
    frozen solve the step loses its second order in time."""
    implicit_viscous_solve(start, rhs, coef, out, ws)
    return implicit_viscous_solve(out, rhs, coef, out, ws)


def _imex_step(
    grid: GridSpec,
    v: np.ndarray,
    t: float,
    e1: np.ndarray,
    cfg: SchemeConfig,
    dt: float,
    ws: Workspace,
    out: np.ndarray,
) -> np.ndarray:
    """One ARS(2,2,2) step into ``out``, given the explicit rate ``e1`` = E(v).

    Write V(r, c) for the solution x of x - c dt eps x D+D-x = r (see
    ``_implicit_stage``). With g = GAMMA and d = DELTA:
        r2 = v + g dt E(v),                                   V2 = V(r2, g)
        r3 = v + dt (d E(v) + (1-d) E(V2)) + (1-g) dt K2,    K2 = (V2 - r2) / (g dt)
    and the new value is V(r3, g), the last stage (stiffly accurate). E(V2)
    is evaluated at time t + g dt.
    """
    coef = cfg.epsilon * dt / (grid.dx * grid.dx)
    acc = np.multiply(e1, DELTA * dt, out=ws.acc)
    acc += v
    r2 = np.multiply(e1, GAMMA * dt, out=ws.stage)
    r2 += v
    v2 = _implicit_stage(v, r2, GAMMA * coef, ws.implicit, ws)
    k2 = np.subtract(v2, r2, out=ws.stage)
    k2 *= (1.0 - GAMMA) / GAMMA                      # (1 - g) dt K2
    acc += k2
    e2 = _rate(grid, v2, t + GAMMA * dt, None, cfg, ws)
    e2 *= (1.0 - DELTA) * dt
    acc += e2
    return _implicit_stage(v2, acc, GAMMA * coef, out, ws)


def step(
    grid: GridSpec,
    fv: FieldV,
    cfg: SchemeConfig,
    dt: float,
    p: NonlocalP | None = None,
    ws: Workspace | None = None,
) -> FieldV:
    """Advance one step of size dt; the nonlocal operator is rebuilt per stage.

    With epsilon = 0 this is SSP-RK2 (Heun). With epsilon > 0 the viscous
    term is implicit and the step is ARS(2,2,2) (``_imex_step``).

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
    if cfg.epsilon > 0.0:
        _imex_step(grid, v, t, r1, cfg, dt, ws, out)
    else:
        stage = np.multiply(r1, dt, out=ws.stage)
        stage += v
        r2 = _rate(grid, stage, t + dt, None, cfg, ws)
        r2 *= dt
        r2 += stage
        r2 *= 0.5
        np.multiply(v, 0.5, out=out)
        out += r2                        # 0.5 v + 0.5 (stage + dt r2)
    finite = np.isfinite(out, out=ws.mask)
    if not finite.all():
        raise BlowUpError(int(np.argmin(finite)), fv.time + dt)
    clip_count = int(np.count_nonzero(np.less(out, cfg.v_floor, out=ws.mask)))
    if clip_count:
        np.maximum(out, cfg.v_floor, out=out)
    return FieldV._checked(out, fv.time + dt, clip_count)
