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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, StateError
from .grid_field import FieldV, GridSpec
from .nonlocal_op import NonlocalP, _prefix_arrays, p_sup

# ARS(2,2,2): the implicit diagonal gamma and the explicit weight delta
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)

ForcingFn = Callable[[float, np.ndarray], np.ndarray]

# LAPACK's tridiagonal solver, loaded by the first viscous solve, which an
# inviscid run never makes. Importing it from scipy.linalg.lapack would run
# scipy.linalg's package init for this one routine: 85 scipy modules where
# this needs 11, about 0.4 s and 23 MB per process. So _dgtsv asks the path
# finder for the extension module scipy.linalg._flapack in scipy's linalg
# directory, under any extension suffix, and loads it under its own name; a
# later import of scipy.linalg.lapack reuses it and its dgtsv. The location is
# private to scipy and was checked on scipy 1.17.1 only.
@functools.cache
def _dgtsv() -> Callable:
    import os
    import sys
    from importlib import machinery, util

    import scipy  # its init loads the OpenBLAS that _flapack links against

    name = "scipy.linalg._flapack"
    spec = machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"no {name} in scipy {scipy.__version__}", name=name)
    module = sys.modules[name] = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgtsv


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
    source_enabled: bool = True
    forcing: ForcingFn | None = None

    def __post_init__(self):
        if self.flux not in FLUXES:
            raise ValueError(f"flux must be one of {FLUXES}, got {self.flux!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")


# The flux kernels evaluate f(v) = v^2 / 2 as (0.5 v) v; the face states
# ``a`` and ``b`` are work arrays whose contents they destroy.
def _godunov(a, b):
    np.maximum(a, 0.0, out=a)
    out = np.multiply(a, 0.5)
    out *= a
    np.minimum(b, 0.0, out=b)
    np.multiply(b, 0.5, out=a)
    a *= b
    return np.maximum(out, a, out=out)


def _rusanov(a, b):
    out = np.multiply(a, 0.5)
    out *= a
    tmp = np.multiply(b, 0.5)
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
FLUXES = tuple(_FLUX_FN)


def _pointwise_flux(kernel, a, b):
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    # at least 1-d copies: a ufunc on 0-d arrays gives a scalar, not an array
    return kernel(np.array(a, ndmin=1), np.array(b, ndmin=1)).reshape(a.shape)[()]


def godunov_flux(a, b):
    """Exact Riemann flux for f(v) = v^2/2: max(f(max(a,0)), f(min(b,0)))."""
    return _pointwise_flux(_godunov, a, b)


def rusanov_flux(a, b):
    """Local Lax-Friedrichs flux 0.5 (f(a) + f(b)) - 0.5 max(|a|,|b|) (b - a)."""
    return _pointwise_flux(_rusanov, a, b)


def _half_minmod_slopes(v: np.ndarray) -> np.ndarray:
    """Half of minmod(v_i - v_(i-1), v_(i+1) - v_i) per cell, zero ghosts.

    minmod(a, b) is the median of a, b and 0, computed as
    min(max(min(a, b), 0), max(a, b)).
    """
    d = np.empty(v.size + 1)
    d[0] = 0.5 * v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[1:-1] *= 0.5
    d[-1] = -0.5 * v[-1]
    lo = np.minimum(d[:-1], d[1:])
    hi = np.maximum(d[:-1], d[1:])
    np.maximum(lo, 0.0, out=lo)
    return np.minimum(lo, hi, out=lo)


def _left_states(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """v_i + s_i on the right face of each cell, after a zero ghost state."""
    left = np.empty(v.size + 1)
    left[0] = 0.0
    np.add(v, s, out=left[1:])
    return left


def face_states(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States on the left and right of each of the n+1 interfaces.

    Interface i+1/2 sees v_i + s_i and v_(i+1) - s_(i+1), where s is half the
    minmod-limited slope; each state lies between the two neighbouring cell
    values, so nonnegative cells give nonnegative states. The ghost cells
    carry zero value and zero slope.
    """
    s = _half_minmod_slopes(v)
    right = np.empty(v.size + 1)
    right[-1] = 0.0
    np.subtract(v, s, out=right[:-1])
    return _left_states(v, s), right


def interface_fluxes(v: np.ndarray, flux: str) -> np.ndarray:
    """Numerical fluxes on the n+1 interfaces, evaluated on ``face_states``
    (zero ghost states on both sides).

    When every cell is >= 0 (a NaN fails the test), so is every face state,
    and the Godunov flux never meets the sonic point: max(f(max(a, 0)),
    f(min(b, 0))) is then exactly f(a) = (0.5 a) a, the upwind flux, to the
    bit. That branch skips the right states. Any other field, such as an
    unclipped Heun stage at cfl > 1/2, takes the general kernel.
    """
    if flux == "godunov" and v.min() >= 0.0:
        # upwind on the positive cone: the right states are >= 0 as well
        left = _left_states(v, _half_minmod_slopes(v))
        out = np.multiply(left, 0.5)
        out *= left
        return out
    return _FLUX_FN[flux](*face_states(v))


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
    flux: np.ndarray | None = None,
) -> np.ndarray:
    """The explicit rate, flux divergence plus source (forcing included);
    ``flux`` and ``p_cells`` are evaluated when not given."""
    if flux is None:
        flux = interface_fluxes(v, cfg.flux)
    rate = np.subtract(flux[:-1], flux[1:])
    rate /= grid.dx

    # rate - (v P - g) is rate + ((-v) P + g) bit for bit: (-v) P = -(v P),
    # and x - y = -(y - x) except that both are +0 when x = y. Adding and
    # subtracting +0 differ only on a rate of -0, which no flux difference
    # gives, since no flux kernel returns -0
    if cfg.source_enabled:
        if p_cells is None:
            _, p_cells = _prefix_arrays(grid, v, np.empty(v.size + 1), np.empty(v.size))
        source = np.multiply(v, p_cells)
    else:
        source = np.zeros(v.size)
    if cfg.forcing is not None:
        source -= cfg.forcing(t, grid.centers)
    return np.subtract(rate, source, out=rate)


def implicit_viscous_solve(
    w: np.ndarray, rhs: np.ndarray, coef: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Solve (I - coef diag(w) L) x = rhs, L x_i = x_(i-1) - 2 x_i + x_(i+1)
    with zero ghosts, by LAPACK's tridiagonal ``dgtsv``.

    Row i has diagonal 1 + 2 coef w_i and off-diagonals -coef w_i. For
    w >= 0 and coef >= 0 that is a strictly diagonally dominant matrix with
    nonpositive off-diagonals, an M-matrix, whose inverse is nonnegative:
    rhs >= 0 gives x >= 0. Each row is divided by its diagonal first. Its
    off-diagonals then lie in [-1/2, 0], so the elimination never swaps rows
    and only ever adds nonnegative terms, and x >= 0 holds in floating point
    too. ``out`` may be ``w`` itself, which is read before ``out`` is written;
    an ``out`` that is not a C-contiguous float64 array gets the solution
    copied in, since LAPACK then solves in a converted copy.
    """
    off = np.multiply(w, -coef)
    diag = np.multiply(off, -2.0)
    diag += 1.0
    off /= diag
    out = np.divide(rhs, diag, out=out)
    diag.fill(1.0)
    x = _dgtsv()(off[1:], diag, off[:-1], out, overwrite_d=1, overwrite_b=1)[3]
    if x is not out:
        out[...] = x
    return out


def _implicit_stage(start: np.ndarray, rhs: np.ndarray, coef: float) -> np.ndarray:
    """Solve x - coef x L x = rhs linearly: freeze the coefficient x at the
    stage's start value, then once more at that first solution. With a single
    frozen solve the step loses its second order in time."""
    x = implicit_viscous_solve(start, rhs, coef)
    return implicit_viscous_solve(x, rhs, coef, x)


def _imex_step(
    grid: GridSpec, v: np.ndarray, t: float, e1: np.ndarray, cfg: SchemeConfig, dt: float
) -> np.ndarray:
    """One ARS(2,2,2) step, given the explicit rate ``e1`` = E(v), which it
    overwrites.

    Write V(r, c) for the solution x of x - c dt eps x D+D-x = r (see
    ``_implicit_stage``). With g = GAMMA and d = DELTA:
        r2 = v + g dt E(v),                                   V2 = V(r2, g)
        r3 = v + dt (d E(v) + (1-d) E(V2)) + (1-g) dt K2,    K2 = (V2 - r2) / (g dt)
    and the new value is V(r3, g), the last stage (stiffly accurate). E(V2)
    is evaluated at time t + g dt.
    """
    coef = cfg.epsilon * dt / (grid.dx * grid.dx)
    acc = np.multiply(e1, DELTA * dt)
    acc += v
    r2 = np.multiply(e1, GAMMA * dt, out=e1)
    r2 += v
    v2 = _implicit_stage(v, r2, GAMMA * coef)
    k2 = np.subtract(v2, r2, out=r2)
    k2 *= (1.0 - GAMMA) / GAMMA                      # (1 - g) dt K2
    acc += k2
    e2 = _rate(grid, v2, t + GAMMA * dt, None, cfg)
    e2 *= (1.0 - DELTA) * dt
    acc += e2
    return _implicit_stage(v2, acc, GAMMA * coef)


def step(
    grid: GridSpec,
    fv: FieldV,
    cfg: SchemeConfig,
    dt: float,
    p: NonlocalP | None = None,
    flux: np.ndarray | None = None,
) -> FieldV:
    """Advance one step of size dt; the nonlocal operator is rebuilt per stage.

    With epsilon = 0 this is SSP-RK2 (Heun). With epsilon > 0 the viscous
    term is implicit and the step is ARS(2,2,2) (``_imex_step``).

    ``p`` and ``flux``, when given, must be the prefix integral of ``fv``
    and its ``interface_fluxes`` under ``cfg.flux``; the first stage then
    reads them instead of evaluating them again, and leaves them as they are.

    Negative entries of the result are set to zero and counted on the
    returned field's ``clip_count``; v = 0 itself is admissible. At epsilon
    = 0 with cfl <= 1/2 no entry goes negative (Zhang and Shu 2010);
    ARS(2,2,2)'s negative explicit weight DELTA gives no such guarantee at
    epsilon > 0. Non-finite output raises BlowUpError naming the first
    offending cell; this is the only check a stepped field gets.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")

    v, t = fv.values, fv.time
    r1 = _rate(grid, v, t, None if p is None else p.cell_values, cfg, flux)
    if cfg.epsilon > 0.0:
        out = _imex_step(grid, v, t, r1, cfg, dt)
    else:
        stage = np.multiply(r1, dt, out=r1)
        stage += v
        r2 = _rate(grid, stage, t + dt, None, cfg)
        r2 *= dt
        r2 += stage
        r2 *= 0.5
        out = np.multiply(v, 0.5)
        out += r2                        # 0.5 v + 0.5 (stage + dt r2)
    # a minimum >= 0 (not NaN) and a finite maximum clear the output in two
    # reductions; only a field that fails them is scanned cell by cell
    if out.min() >= 0.0 and out.max() < math.inf:
        return FieldV._checked(out, fv.time + dt, 0)
    finite = np.isfinite(out)
    if not finite.all():
        raise BlowUpError(int(np.argmin(finite)), fv.time + dt)
    clip_count = int(np.count_nonzero(out < 0.0))
    np.maximum(out, 0.0, out=out)
    return FieldV._checked(out, fv.time + dt, clip_count)
