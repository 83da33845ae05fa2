"""Machine checks that the discrete dynamics honors the continuum estimates:
power-norm balance, mass balance, the sup monitor, Kruzhkov entropy
certificates, an L1 stability bound, vanishing-viscosity and grid ladders,
and exact Riemann oracles for the source-free (pure Burgers) limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import erf

from .errors import BoundaryFluxWarning, DataGapError, DomainError, SparseSnapshotsError
from .grid_field import FieldV, GridSpec, build_grid
from .nonlocal_op import prefix_integral
from .scheme import SchemeConfig, semi_discrete_rhs
from .solver import RunConfig, RunResult, evolve, run_simulation

SQRT_PI = math.sqrt(math.pi)
EPSILON_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
EPSILON_LADDER_MIN_CELLS = 2048  # below this the grid's own dissipation swamps eps = 1e-3
SUP_MONITOR_TOL = 1e-10


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def l1_distance(dx: float, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.abs(a - b)) * dx)


def restrict_to_coarse(fine: np.ndarray, factor: int) -> np.ndarray:
    """Cell-average restriction of a fine-grid field onto a nested coarse grid."""
    if factor < 1 or fine.size % factor:
        raise ValueError(f"cannot restrict {fine.size} cells by factor {factor}")
    return fine.reshape(-1, factor).mean(axis=1)


def dense_snapshot_times(grid: GridSpec, final_time: float) -> tuple:
    """Snapshot times spaced at most dx apart, as the entropy quadrature needs."""
    m = max(1, math.ceil(final_time / grid.dx))
    return tuple(np.linspace(0.0, final_time, m + 1))


def _mean_log2_order(values: Sequence[float]) -> float:
    """Mean log2 ratio of successive entries of a refinement ladder."""
    ratios = [values[i] / max(values[i + 1], 1e-300) for i in range(len(values) - 1)]
    return float(np.mean([math.log2(r) for r in ratios]))


def _run_many(configs: Sequence[RunConfig]) -> list[RunResult]:
    """Run a batch of configurations one after another, in input order.

    The runs are small-array loops that hold the interpreter lock, so threads
    would only add contention.
    """
    return [run_simulation(c) for c in configs]


def run_ladder(base: RunConfig, n_ladder: Sequence[int]) -> list[RunResult]:
    """Rerun one configuration across grid resolutions (same domain)."""
    configs = [
        replace(base, grid=build_grid(base.grid.x_min, base.grid.x_max, int(n)))
        for n in n_ladder
    ]
    return _run_many(configs)


def cancelling_forcing(grid: GridSpec, v0: FieldV, cfg: SchemeConfig):
    """Forcing that freezes v0: g = -(flux divergence + source + viscous)(v0)."""
    flux_div, source, viscous = semi_discrete_rhs(grid, v0, prefix_integral(grid, v0), cfg)
    g = -(flux_div + source + viscous)

    def forcing(t: float, x: np.ndarray) -> np.ndarray:
        return g

    return forcing


# ---------------------------------------------------------------------------
# power-norm balance  d/dt N_a + D_a + S_a = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceReport:
    """Residual of the integrated power balance for one exponent alpha."""

    alpha: float
    times: np.ndarray
    residuals: np.ndarray
    terminal_residual: float
    max_residual: float
    initial_norm: float
    relative_terminal: float
    order: float | None = None
    level_cells: tuple | None = None
    level_terminals: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.relative_terminal <= 1e-2


def lp_balance_residual(run: RunResult, alpha: float) -> BalanceReport:
    """|N_a(t) - N_a(0) + int_0^t (D_a + S_a) ds| with trapezoid time quadrature."""
    diag = run.diagnostics
    if alpha not in diag.alphas:
        raise DataGapError(
            f"alpha = {alpha} was not recorded; available: {diag.alphas}"
        )
    norm = diag.lp_norms[alpha]
    rate = diag.dissipation[alpha] + diag.source_integral[alpha]
    residuals = np.abs(
        norm - norm[0] + cumulative_trapezoid(rate, diag.times, initial=0.0)
    )
    terminal = float(residuals[-1])
    initial = float(norm[0])
    return BalanceReport(
        alpha=float(alpha),
        times=diag.times,
        residuals=residuals,
        terminal_residual=terminal,
        max_residual=float(np.max(residuals)),
        initial_norm=initial,
        relative_terminal=terminal / initial,
    )


def _ladder(runs: Sequence[RunResult], report_of, measure: str, levels: str):
    """``report_of`` the finest run, annotated with the refinement order of
    the field ``measure`` across a ladder of runs (coarsest first), whose
    per-run values go to the field ``levels``."""
    if len(runs) < 2:
        raise ValueError("a ladder needs at least two runs")
    reports = [report_of(r) for r in runs]
    values = tuple(getattr(r, measure) for r in reports)
    return replace(
        reports[-1],
        order=_mean_log2_order(values),
        level_cells=tuple(r.grid.n_cells for r in runs),
        **{levels: values},
    )


def lp_balance_ladder(runs: Sequence[RunResult], alpha: float) -> BalanceReport:
    """Balance report on the finest run, annotated with the refinement order
    of the terminal residual observed across a ladder of runs."""
    return _ladder(
        runs, lambda r: lp_balance_residual(r, alpha), "terminal_residual", "level_terminals"
    )


# ---------------------------------------------------------------------------
# mass balance  dM/dt + eps int (dv/dx)^2 + (P_R^2 - P_L^2)/2 = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassBalanceReport:
    """Differentiated mass-balance residual at step midpoints."""

    times: np.ndarray
    residuals: np.ndarray
    terminal_residual: float
    max_residual: float
    initial_mass: float
    relative_max: float
    order: float | None = None
    level_cells: tuple | None = None
    level_maxima: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.relative_max <= 1e-2


def mass_balance_identity(run: RunResult) -> MassBalanceReport:
    """Checks dM/dt against the integration-by-parts closure of the source.

    The source integral telescopes exactly to (P_right^2 - P_left^2)/2 on the
    midpoint-collocated prefix integral, so the residual isolates the time
    discretization and closes at second order in dt.
    """
    diag = run.diagnostics
    if 0.0 not in diag.alphas:
        raise DataGapError("mass balance needs alpha = 0 diagnostics")
    if diag.times.size < 2:
        raise DataGapError("mass balance needs at least one step")
    mass = diag.mass
    d0 = diag.dissipation[0.0]
    if run.scheme.source_enabled:
        g = 0.5 * (diag.p_right**2 - diag.p_left**2)
    else:
        g = np.zeros_like(diag.p_right)
    dts = np.diff(diag.times)
    rate = np.diff(mass) / dts
    closure = 0.5 * (d0[:-1] + d0[1:]) + 0.5 * (g[:-1] + g[1:])
    residuals = np.abs(rate + closure)
    mid_times = 0.5 * (diag.times[:-1] + diag.times[1:])
    return MassBalanceReport(
        times=mid_times,
        residuals=residuals,
        terminal_residual=float(residuals[-1]),
        max_residual=float(np.max(residuals)),
        initial_mass=float(mass[0]),
        relative_max=float(np.max(residuals)) / float(mass[0]),
    )


def mass_balance_ladder(runs: Sequence[RunResult]) -> MassBalanceReport:
    return _ladder(runs, mass_balance_identity, "max_residual", "level_maxima")


# ---------------------------------------------------------------------------
# sup monitor (informational: the continuum bound sup u(t) <= sup u(0))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupMonitorReport:
    sup_u0: float
    max_sup_u: float
    worst_excess: float
    tol: float
    violated: bool
    first_violation_time: float | None
    violation_location: float | None


def sup_principle_monitor(run: RunResult, tol: float = SUP_MONITOR_TOL) -> SupMonitorReport:
    """Watch sup u(t) against sup u(0) + tol; reports, never raises."""
    diag = run.diagnostics
    s0 = float(diag.sup_u[0])
    excess = diag.sup_u - s0
    worst = float(np.max(excess))
    hits = np.nonzero(excess > tol)[0]
    first = int(hits[0]) if hits.size else None
    return SupMonitorReport(
        sup_u0=s0,
        max_sup_u=float(np.max(diag.sup_u)),
        worst_excess=worst,
        tol=tol,
        violated=first is not None,
        first_violation_time=None if first is None else float(diag.times[first]),
        violation_location=None if first is None else float(diag.sup_u_x[first]),
    )


# ---------------------------------------------------------------------------
# entropy certificate: weak Kruzhkov inequality tested against tensor hats
# ---------------------------------------------------------------------------

def _hat_at(x, c: float, w: float):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=np.float64) - c) / w)


def _hat_antideriv(x, c: float, w: float):
    t1 = np.clip(np.asarray(x, dtype=np.float64) - (c - w), 0.0, w)
    t2 = np.clip(np.asarray(x, dtype=np.float64) - c, 0.0, w)
    return t1 * t1 / (2.0 * w) + t2 - t2 * t2 / (2.0 * w)


def _hat_integral(a, b, c: float, w: float):
    return _hat_antideriv(b, c, w) - _hat_antideriv(a, c, w)


def entropy_weak_values(
    grid: GridSpec,
    times: np.ndarray,
    u_matrix: np.ndarray,
    p_matrix: np.ndarray | None,
    eta: Callable[[np.ndarray], np.ndarray],
    flux_q: Callable[[np.ndarray], np.ndarray],
    eta_prime: Callable[[np.ndarray], np.ndarray],
    nt: int = 8,
    nx: int = 8,
) -> tuple[np.ndarray, float]:
    """Weak-form values of one entropy pair against an nt-by-nx family of
    tensor-product hats interior to (0, T) x (x_min, x_max).

    Each value approximates

      int int (eta(u) dphi/dt + q(u) dphi/dx - eta'(u) P phi) dx dt
      + int eta(u(0, x)) phi(0, x) dx

    using cellwise-constant u per snapshot slab (endpoint average in time)
    and exact integration of the piecewise-linear phi. Nonnegative values are
    what an entropy solution must produce; the return includes the common
    integral of phi for tolerance scaling.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise SparseSnapshotsError("need at least two snapshots in time")
    span_t = float(times[-1] - times[0])
    ifc = grid.interfaces
    e_all = eta(u_matrix)
    q_all = flux_q(u_matrix)
    if p_matrix is None:
        s_all = np.zeros_like(e_all)
    else:
        s_all = eta_prime(u_matrix) * p_matrix
    e_avg = 0.5 * (e_all[:-1] + e_all[1:])
    q_avg = 0.5 * (q_all[:-1] + q_all[1:])
    s_avg = 0.5 * (s_all[:-1] + s_all[1:])

    w_t = span_t / (nt + 1)
    w_x = float(ifc[-1] - ifc[0]) / (nx + 1)
    values = np.empty(nt * nx, dtype=np.float64)
    idx = 0
    for k in range(1, nx + 1):
        c_x = float(ifc[0]) + k * w_x
        ihx = _hat_integral(ifc[:-1], ifc[1:], c_x, w_x)
        dhx = _hat_at(ifc[1:], c_x, w_x) - _hat_at(ifc[:-1], c_x, w_x)
        e_w = e_avg @ ihx
        q_w = q_avg @ dhx
        s_w = s_avg @ ihx
        e_initial = float(e_all[0] @ ihx)
        for j in range(1, nt + 1):
            c_t = float(times[0]) + j * w_t
            ht = _hat_at(times, c_t, w_t)
            dht = ht[1:] - ht[:-1]
            iht = _hat_integral(times[:-1], times[1:], c_t, w_t)
            values[idx] = (
                dht @ e_w
                + iht @ q_w
                - iht @ s_w
                + float(_hat_at(times[0], c_t, w_t)) * e_initial
            )
            idx += 1
    return values, w_t * w_x


@dataclass(frozen=True)
class EntropyReport:
    """Minimum weak-form value over Kruzhkov levels and hat test functions."""

    levels: tuple
    family: str
    n_phi: int
    dx: float
    tolerance: float
    min_value: float
    min_by_level: tuple
    passed: bool

    @property
    def margin_ratio(self) -> float:
        """How many tolerances below zero the worst value sits (>= 0)."""
        return max(0.0, -self.min_value) / self.tolerance


def kruzhkov_on_field(
    grid: GridSpec,
    times: np.ndarray,
    u_matrix: np.ndarray,
    p_matrix: np.ndarray | None = None,
    levels: Sequence[float] | None = None,
    nt: int = 8,
    nx: int = 8,
    c_tol: float = 10.0,
) -> EntropyReport:
    """Kruzhkov certificate on an explicit space-time sample of u (and P)."""
    times = np.asarray(times, dtype=np.float64)
    u_matrix = np.asarray(u_matrix, dtype=np.float64)
    if u_matrix.shape != (times.size, grid.n_cells):
        raise SparseSnapshotsError("u sample shape does not match times x cells")
    gaps = np.diff(times)
    if times.size < 2 or np.max(gaps) > grid.dx * (1.0 + 1e-9):
        raise SparseSnapshotsError(
            f"snapshot spacing {np.max(gaps) if times.size > 1 else math.inf:.3e} "
            f"exceeds dx = {grid.dx:.3e}; record denser snapshots"
        )
    if levels is None:
        lo, hi = float(u_matrix.min()), float(u_matrix.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        levels = tuple(lo + (hi - lo) * j / 8.0 for j in range(1, 8))
    else:
        levels = tuple(float(k) for k in levels)

    minima = []
    phi_mass = None
    for k in levels:
        ek = math.exp(k)
        vals, phi_mass = entropy_weak_values(
            grid,
            times,
            u_matrix,
            p_matrix,
            eta=lambda u, k=k: np.abs(u - k),
            flux_q=lambda u, k=k, ek=ek: np.sign(u - k) * (np.exp(u) - ek),
            eta_prime=lambda u, k=k: np.sign(u - k),
            nt=nt,
            nx=nx,
        )
        minima.append(float(np.min(vals)))
    tol = c_tol * grid.dx * phi_mass
    min_value = min(minima)
    return EntropyReport(
        levels=levels,
        family=f"tensor-hats-{nt}x{nx}",
        n_phi=nt * nx,
        dx=grid.dx,
        tolerance=tol,
        min_value=min_value,
        min_by_level=tuple(minima),
        passed=min_value >= -tol,
    )


def kruzhkov_residual(
    run: RunResult,
    levels: Sequence[float] | None = None,
    nt: int = 8,
    nx: int = 8,
    c_tol: float = 10.0,
) -> EntropyReport:
    """Kruzhkov certificate for an inviscid run with dense snapshots.

    The nonlocal term enters with the run's own P when the source was active;
    source-free runs are certified against the plain conservation law.
    """
    if run.scheme.epsilon != 0.0:
        raise ValueError("the entropy certificate applies to epsilon = 0 runs")
    if not run.snapshots or run.snapshots[0].time != 0.0:
        raise DataGapError("entropy certificate needs snapshots starting at t = 0")
    times = np.array([s.time for s in run.snapshots])
    u_matrix = np.stack([s.field_u.values for s in run.snapshots])
    p_matrix = (
        np.stack([s.p.cell_values for s in run.snapshots])
        if run.scheme.source_enabled
        else None
    )
    return kruzhkov_on_field(run.grid, times, u_matrix, p_matrix, levels, nt, nx, c_tol)


def expansion_shock_field(
    n_cells: int = 512,
    domain: tuple = (-1.0, 1.0),
    v_left: float = 1.0,
    v_right: float = 2.0,
    final_time: float = 0.4,
    v_floor: float = 1e-12,
) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """Frozen analytic expansion shock (an entropy-violating weak solution).

    The jump from v_left up to v_right travels at the chord speed even though
    characteristics spread; every Kruzhkov level strictly between the states
    produces entropy on the jump, so the certificate must reject this field.
    """
    if not (0.0 <= v_left < v_right):
        raise DomainError("expansion shock needs 0 <= v_left < v_right")
    grid = build_grid(domain[0], domain[1], n_cells)
    speed = 0.5 * (v_left + v_right)
    times = np.array(dense_snapshot_times(grid, final_time))
    front = speed * times[:, None]
    v = np.where(grid.centers[None, :] < front, v_left, v_right)
    u = np.log(np.maximum(v, v_floor))
    return grid, times, u


# ---------------------------------------------------------------------------
# L1 stability of the u fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Measured ||u - w||_L1(-R, R) against the Gronwall envelope.

    ``bound`` widens the initial-data window by C0 t (the sharper variant);
    ``bound_wide`` widens by C(T) t and is logged for comparison, clipped to
    the domain when necessary.
    """

    R: float
    T: float
    c0: float
    c_of_t: float
    sup_u0: float
    sup_w0: float
    sample_times: tuple
    measured: tuple
    bound: tuple
    bound_wide: tuple
    margins: tuple
    passed: bool
    wide_window_clipped: bool

    @property
    def max_measured(self) -> float:
        return max(self.measured)

    @property
    def min_margin(self) -> float:
        return min(self.margins)


def l1_stability_check(
    run_u: RunResult,
    run_w: RunResult,
    R: float,
    T: float,
    sample_times: Sequence[float],
) -> StabilityReport:
    """Compare two runs in L1 of u over (-R, R) against the stability bound

        e^(C(T) t) ||u0 - w0||_L1(-R - C0 t, R + C0 t),

    C0 = e^(sup u0) + e^(sup w0) and C(T) = 2R + 2 C0 T. The domain must
    contain the widened window (-R - C0 T, R + C0 T).
    """
    if not (math.isfinite(R) and R > 0.0):
        # an empty window would certify nothing yet pass
        raise DomainError(f"stability window radius R must be finite and positive, got {R}")
    if len(sample_times) == 0:
        raise DomainError("stability comparison needs at least one sample time")
    if run_u.grid != run_w.grid:
        raise DomainError("stability comparison needs a shared grid")
    grid = run_u.grid
    dx = grid.dx
    x = grid.centers
    sup_u0 = float(run_u.diagnostics.sup_u[0])
    sup_w0 = float(run_w.diagnostics.sup_u[0])
    c0 = math.exp(sup_u0) + math.exp(sup_w0)
    c_of_t = 2.0 * R + 2.0 * c0 * T
    reach = R + c0 * T
    if reach > min(-grid.x_min, grid.x_max) + 1e-12:
        raise DomainError(
            f"widened window radius {reach:.4g} exceeds the domain "
            f"[{grid.x_min}, {grid.x_max}]; enlarge the domain or shrink R/T"
        )
    u0 = run_u.snapshot_at(0.0).field_u.values
    w0 = run_w.snapshot_at(0.0).field_u.values
    half_domain = min(-grid.x_min, grid.x_max)

    measured, bound, bound_wide, margins = [], [], [], []
    clipped = False
    for t in sample_times:
        su = run_u.snapshot_at(float(t))
        sw = run_w.snapshot_at(float(t))
        core = np.abs(x) < R
        m = float(np.sum(np.abs(su.field_u.values - sw.field_u.values)[core]) * dx)
        grow = math.exp(c_of_t * t)
        win = np.abs(x) < R + c0 * t
        b = grow * float(np.sum(np.abs(u0 - w0)[win]) * dx)
        wide_radius = R + c_of_t * t
        if wide_radius > half_domain:
            clipped = True
            wide_radius = half_domain
        wwin = np.abs(x) < wide_radius
        bw = grow * float(np.sum(np.abs(u0 - w0)[wwin]) * dx)
        measured.append(m)
        bound.append(b)
        bound_wide.append(bw)
        margins.append(b - m)
    return StabilityReport(
        R=float(R),
        T=float(T),
        c0=c0,
        c_of_t=c_of_t,
        sup_u0=sup_u0,
        sup_w0=sup_w0,
        sample_times=tuple(float(t) for t in sample_times),
        measured=tuple(measured),
        bound=tuple(bound),
        bound_wide=tuple(bound_wide),
        margins=tuple(margins),
        passed=all(m <= b for m, b in zip(measured, bound)),
        wide_window_clipped=clipped,
    )


# ---------------------------------------------------------------------------
# convergence ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """L1 ladder summary; ``kind`` is 'grid' or 'epsilon'.

    For a grid ladder ``distances`` holds successive-pair distances after
    cell-average restriction and ``order`` their log2 ratio average. For an
    epsilon ladder ``distances`` are distances to the epsilon = 0 run and
    ``cauchy`` the successive-pair distances.
    """

    kind: str
    params: tuple
    distances: tuple
    monotone: bool
    order: float | None = None
    cauchy: tuple | None = None


def grid_convergence(base: RunConfig, n_ladder: Sequence[int]) -> ConvergenceReport:
    """Self-convergence of final-time v across nested grids (coarsest first)."""
    ns = [int(n) for n in n_ladder]
    if len(ns) < 2 or any(b % a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"grid ladder must be nested, got {ns}")
    runs = run_ladder(base, ns)
    dists = []
    for coarse, fine in zip(runs, runs[1:]):
        factor = fine.grid.n_cells // coarse.grid.n_cells
        restricted = restrict_to_coarse(fine.final_state.values, factor)
        dists.append(l1_distance(coarse.grid.dx, restricted, coarse.final_state.values))
    order = _mean_log2_order(dists) if len(dists) >= 2 else None
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    return ConvergenceReport(
        kind="grid",
        params=tuple(ns),
        distances=tuple(dists),
        monotone=monotone,
        order=order,
    )


def epsilon_convergence(
    base: RunConfig,
    ladder: Sequence[float] = EPSILON_LADDER,
) -> ConvergenceReport:
    """Distances at final time between viscous runs and the inviscid run.

    The ladder must be strictly decreasing in epsilon; distances to the
    epsilon = 0 limit should then decrease monotonically, and successive
    viscous runs should be Cauchy. No rate is claimed.
    """
    eps = [float(e) for e in ladder]
    if not eps or any(a <= b for a, b in zip(eps, eps[1:])) or any(e <= 0.0 for e in eps):
        # an empty ladder would compare nothing yet pass
        raise ValueError(f"epsilon ladder must be nonempty, positive and decreasing, got {eps}")
    if base.grid.n_cells < EPSILON_LADDER_MIN_CELLS:
        raise ValueError(
            f"epsilon ladder needs a fine grid (>= {EPSILON_LADDER_MIN_CELLS} cells), "
            f"got {base.grid.n_cells}"
        )
    configs = [replace(base, scheme=replace(base.scheme, epsilon=e)) for e in (0.0, *eps)]
    runs = _run_many(configs)
    limit, viscous = runs[0], runs[1:]
    dx = base.grid.dx
    finals = [r.final_state.values for r in viscous]
    dists = [l1_distance(dx, f, limit.final_state.values) for f in finals]
    cauchy = [l1_distance(dx, a, b) for a, b in zip(finals, finals[1:])]
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    return ConvergenceReport(
        kind="epsilon",
        params=tuple(eps),
        distances=tuple(dists),
        monotone=monotone,
        order=None,
        cauchy=tuple(cauchy),
    )


# ---------------------------------------------------------------------------
# source-free Riemann oracles and the manufactured smooth solution
# ---------------------------------------------------------------------------

def burgers_riemann_oracle(v_left: float, v_right: float, t: float, x) -> np.ndarray:
    """Exact entropy solution of dv/dt + d(v^2/2)/dx = 0 with step data at 0.

    Requires nonnegative states (the regime of v = e^u); shocks travel at the
    chord speed, rarefactions open the fan x/t.
    """
    if not (v_left >= 0.0 and v_right >= 0.0):
        raise DomainError("Riemann states must be nonnegative")
    if not (math.isfinite(v_left) and math.isfinite(v_right) and t >= 0.0):
        raise DomainError("Riemann oracle needs finite states and t >= 0")
    x = np.asarray(x, dtype=np.float64)
    if t == 0.0:
        return np.where(x < 0.0, v_left, v_right)
    if v_left >= v_right:
        speed = 0.5 * (v_left + v_right)
        return np.where(x < speed * t, v_left, v_right)
    fan = x / t
    return np.clip(fan, v_left, v_right)


def riemann_initial(grid: GridSpec, v_left: float, v_right: float, x0: float = 0.0) -> FieldV:
    if v_left < 0.0 or v_right < 0.0:
        raise DomainError("Riemann states must be nonnegative")
    return FieldV(np.where(grid.centers < x0, float(v_left), float(v_right)), 0.0)


def _riemann_run(
    grid: GridSpec, v_left: float, v_right: float, flux: str, final_time: float
) -> RunResult:
    """Pure Burgers run (source and viscosity off) from Riemann data. Such
    data touch the boundary by design, so the boundary-flux warning that
    ``evolve`` gives user runs is silenced here."""
    cfg = SchemeConfig(flux=flux, epsilon=0.0, source_enabled=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryFluxWarning)
        return evolve(grid, riemann_initial(grid, v_left, v_right), cfg, final_time)


@dataclass(frozen=True)
class RiemannCheck:
    """Shock-position and rarefaction errors against the exact Riemann solution."""

    n_cells: int
    dx: float
    shock_position_error: float
    rarefaction_l1_error: float

    @property
    def shock_tol(self) -> float:
        return 2.0 * self.dx

    @property
    def rarefaction_tol(self) -> float:
        return 5.0 * self.dx

    @property
    def passed(self) -> bool:
        return (
            self.shock_position_error <= self.shock_tol
            and self.rarefaction_l1_error <= self.rarefaction_tol
        )


def burgers_sanity(n_cells: int = 1024, flux: str = "godunov") -> RiemannCheck:
    """Run both stock Riemann problems at one resolution and collect errors."""
    shock_err, dx = burgers_shock_position_error(n_cells, flux=flux)
    fan_err, _ = burgers_rarefaction_error(n_cells, flux=flux)
    return RiemannCheck(
        n_cells=n_cells,
        dx=dx,
        shock_position_error=shock_err,
        rarefaction_l1_error=fan_err,
    )


def burgers_shock_position_error(
    n_cells: int,
    v_left: float = 2.0,
    v_right: float = 1.0,
    final_time: float = 1.0,
    domain: tuple = (-8.0, 8.0),
    flux: str = "godunov",
) -> tuple[float, float]:
    """Distance between the computed mid-value crossing and the exact shock.

    Returns (error, dx). The search starts beyond the reach of the erosion
    wave the zero-inflow boundary sends in from the left.
    """
    if not v_left > v_right >= 0.0:
        raise DomainError("shock case needs v_left > v_right >= 0")
    grid = build_grid(domain[0], domain[1], n_cells)
    run = _riemann_run(grid, v_left, v_right, flux, final_time)
    v = run.final_state.values
    x = grid.centers
    exact = 0.5 * (v_left + v_right) * final_time
    mid = 0.5 * (v_left + v_right)
    safe = grid.x_min + v_left * final_time + 1.0
    pos = None
    for i in range(grid.n_cells - 1):
        if x[i] <= safe:
            continue
        if v[i] >= mid > v[i + 1]:
            frac = (v[i] - mid) / (v[i] - v[i + 1])
            pos = x[i] + frac * grid.dx
    if pos is None:
        raise DomainError("no mid-value crossing found; shock left the window")
    return abs(pos - exact), grid.dx


def burgers_rarefaction_error(
    n_cells: int,
    v_left: float = 0.0,
    v_right: float = 1.0,
    final_time: float = 1.0,
    domain: tuple = (-8.0, 8.0),
    flux: str = "godunov",
) -> tuple[float, float]:
    """L1 distance at final time between the computed fan and the exact one."""
    if not 0.0 <= v_left < v_right:
        raise DomainError("rarefaction case needs 0 <= v_left < v_right")
    grid = build_grid(domain[0], domain[1], n_cells)
    run = _riemann_run(grid, v_left, v_right, flux, final_time)
    exact = burgers_riemann_oracle(v_left, v_right, final_time, grid.centers)
    return l1_distance(grid.dx, run.final_state.values, exact), grid.dx


# -- manufactured smooth solution v*(t, x) = e^(-t) e^(-x^2) ----------------

def mms_solution(t: float, x: np.ndarray) -> np.ndarray:
    return np.exp(-t) * np.exp(-np.asarray(x, dtype=np.float64) ** 2)


def mms_prefix(t: float, x: np.ndarray) -> np.ndarray:
    """Exact prefix integral of the manufactured solution from 0 to x."""
    return np.exp(-t) * 0.5 * SQRT_PI * erf(np.asarray(x, dtype=np.float64))


def mms_forcing(epsilon: float):
    """Forcing that makes v* solve the full equation with viscosity epsilon."""

    def g(t: float, x: np.ndarray) -> np.ndarray:
        vs = mms_solution(t, x)
        return (
            -vs
            - 2.0 * x * vs * vs
            + vs * mms_prefix(t, x)
            - epsilon * (4.0 * x * x - 2.0) * vs * vs
        )

    return g


@dataclass(frozen=True)
class MmsReport:
    n_ladder: tuple
    errors: tuple
    pair_orders: tuple
    order: float

    @property
    def passed(self) -> bool:
        return self.order >= 1.5


def mms_convergence(
    n_ladder: Sequence[int] = (256, 512, 1024),
    epsilon: float = 1e-2,
    final_time: float = 1.0,
    domain: tuple = (-8.0, 8.0),
    flux: str = "godunov",
) -> MmsReport:
    """L1 errors against the manufactured solution across a grid ladder."""
    ns = [int(n) for n in n_ladder]
    errors = []
    for n in ns:
        grid = build_grid(domain[0], domain[1], n)
        cfg = SchemeConfig(flux=flux, epsilon=epsilon, forcing=mms_forcing(epsilon))
        v0 = FieldV(mms_solution(0.0, grid.centers), 0.0)
        run = evolve(grid, v0, cfg, final_time)
        errors.append(
            l1_distance(grid.dx, run.final_state.values, mms_solution(final_time, grid.centers))
        )
    pair_orders = tuple(
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    )
    order = math.log2(errors[0] / errors[-1]) / (len(errors) - 1)
    return MmsReport(tuple(ns), tuple(errors), pair_orders, order)
