"""Machine checks that the discrete dynamics honors the continuum estimates:
power-norm balance, mass balance, the sup monitor, Kruzhkov entropy
certificates, an L1 stability bound, vanishing-viscosity and grid ladders,
and exact Riemann oracles for the source-free (pure Burgers) limit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BoundaryFluxWarning, DataGapError, DomainError, SparseSnapshotsError
from .grid_field import (
    V_TINY, FieldV, GridSpec, InitialDataSpec, build_grid, init_field, u_from_v,
)
from . import solver
from .scheme import SchemeConfig
from .solver import RunConfig, RunResult, landings, run_diagnostics

SQRT_PI = math.sqrt(math.pi)
EPSILON_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
EPSILON_LADDER_MIN_CELLS = 2048  # below this the grid's own dissipation swamps eps = 1e-3
SUP_MONITOR_TOL = 1e-10
ENTROPY_HATS = 8  # tensor hats per axis in the Kruzhkov certificate
ENTROPY_C_TOL = 10.0  # its tolerance, in units of dx times the hat integral
LEVEL_FLOOR = math.log(1e-12)  # default Kruzhkov levels start no lower
# the exact-solution checks: the Riemann problems and the manufactured solution
ORACLE_DOMAIN = (-8.0, 8.0)
ORACLE_FINAL_TIME = 1.0
SHOCK_STATES = (2.0, 1.0)  # (v_left, v_right) of the Riemann shock
FAN_STATES = (0.0, 1.0)  # and of the rarefaction fan
MMS_LADDER = (256, 512, 1024)
MMS_EPSILON = 1e-2
MMS_MIN_ORDER = 1.5
# budget ladders give no order below this relative residual: rounding alone
# leaves about 1e-15 (one-step runs), the stock T = 1 ladder at least 4.08e-7
ORDER_RESIDUAL_FLOOR = 1e-12
LN_MAX_DOUBLE = math.log(np.finfo(np.float64).max)  # about 709.78; e^x overflows above


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


def _max_sample_gap(dx: float, span: float) -> float:
    """The widest spacing the entropy quadrature accepts between samples
    spread over ``span``: min(dx, w_t / 2), where w_t = span /
    (ENTROPY_HATS + 1) is the half-width of its time hats, so that no hat
    falls between two samples."""
    return min(dx, span / (2 * (ENTROPY_HATS + 1)))


def dense_snapshot_times(grid: GridSpec, final_time: float) -> tuple:
    """Evenly spaced snapshot times from 0 to final_time, at most
    ``_max_sample_gap`` apart, as the entropy quadrature needs."""
    gap = _max_sample_gap(grid.dx, final_time)
    m = max(1, math.ceil(final_time / gap)) if gap > 0.0 else 1
    return tuple(np.linspace(0.0, final_time, m + 1))


def observed_order(values: Sequence[float], widths: Sequence[float]) -> float | None:
    """Observed order of a refinement ladder: the mean over successive rungs
    of log2(d_i / d_(i+1)) / log2(h_i / h_(i+1)), where d are the ladder's
    values and h its widths (cell width or viscosity), so any refinement
    ratio counts. None for fewer than two values, or for any value that is
    not positive: such a ladder has no order."""
    if len(values) < 2 or not all(d > 0.0 for d in values):
        return None
    return float(np.mean([
        math.log2(d0 / d1) / math.log2(h0 / h1)
        for d0, d1, h0, h1 in zip(values, values[1:], widths, widths[1:])
    ]))


def _run_many(runs: Iterable[tuple]) -> list[np.ndarray]:
    """The final v of each run, given as the arguments of ``landings``. The
    runs go one after another, in input order, and of each only its last
    landed snapshot is kept."""
    return [deque(landings(*run), maxlen=1)[0].field_v.values for run in runs]


def _final_fields(configs: Sequence[RunConfig]) -> list[np.ndarray]:
    """The final v of the run of each of ``configs``."""
    return _run_many((c.grid, init_field(c.grid, c.init), c.scheme, c.final_time,
                      c.snapshot_times) for c in configs)


def _ladder_configs(base: RunConfig, n_ladder: Sequence[int]) -> list[RunConfig]:
    """``base`` on at least two grid resolutions (same domain), which must
    strictly increase: the ladder reports read the last run as the finest."""
    if len(n_ladder) < 2 or any(a >= b for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError(
            f"a ladder needs at least two cell counts, strictly increasing, got {list(n_ladder)}"
        )
    return [
        replace(base, grid=build_grid(base.grid.x_min, base.grid.x_max, int(n)))
        for n in n_ladder
    ]


def run_ladder(base: RunConfig, n_ladder: Sequence[int]) -> list[RunResult]:
    """Recording runs of ``base`` on the grids of ``_ladder_configs``, as
    ``run_diagnostics`` makes them, with no snapshot; a bad ladder is
    refused before anything runs."""
    return [run_diagnostics(c) for c in _ladder_configs(base, n_ladder)]


# ---------------------------------------------------------------------------
# power-norm balance  d/dt N_a + D_a + S_a = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceReport:
    """Residual of the integrated power balance for one exponent alpha."""

    alpha: float
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
    norm = diag.of("lp", alpha)
    rate = diag.of("dissipation", alpha) + diag.of("source", alpha)
    integral = np.cumsum(np.diff(diag["time"]) * (rate[1:] + rate[:-1]) / 2.0)
    residuals = np.abs(norm - norm[0] + np.concatenate(([0.0], integral)))
    terminal = float(residuals[-1])
    initial = float(norm[0])
    if not initial > 0.0:  # v^(alpha+1) underflowed: no relative residual
        raise DomainError(f"power balance at alpha = {alpha:g} needs a positive initial norm")
    return BalanceReport(
        alpha=float(alpha),
        terminal_residual=terminal,
        max_residual=float(np.max(residuals)),
        initial_norm=initial,
        relative_terminal=terminal / initial,
    )


def _ladder(runs: Sequence[RunResult], report_of, measure: str, relative: str, levels: str):
    """``report_of`` the finest run, annotated with the refinement order of
    the field ``measure`` across a ladder of runs (coarsest first), whose
    per-run values go to the field ``levels``. There is no order when any
    run's field ``relative``, the measure relative to its initial norm or
    mass, is below ORDER_RESIDUAL_FLOOR. A one-run ladder is that run's
    plain report."""
    reports = [report_of(r) for r in runs]
    if len(reports) == 1:
        return reports[0]
    values = tuple(getattr(r, measure) for r in reports)
    rounding = any(getattr(r, relative) < ORDER_RESIDUAL_FLOOR for r in reports)
    return replace(
        reports[-1],
        order=None if rounding else observed_order(values, [r.grid.dx for r in runs]),
        level_cells=tuple(r.grid.n_cells for r in runs),
        **{levels: values},
    )


def lp_balance_ladder(runs: Sequence[RunResult], alpha: float) -> BalanceReport:
    """Balance report on the finest run, annotated with the refinement order
    of the terminal residual observed across a ladder of runs."""
    return _ladder(
        runs, lambda r: lp_balance_residual(r, alpha),
        "terminal_residual", "relative_terminal", "level_terminals",
    )


# ---------------------------------------------------------------------------
# mass balance  dM/dt + eps int (dv/dx)^2 + (P_R^2 - P_L^2)/2 = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassBalanceReport:
    """Differentiated mass-balance residual at step midpoints."""

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
    if diag["time"].size < 2:
        raise DataGapError("mass balance needs at least one step")
    mass = diag["mass"]
    if not mass[0] > 0.0:  # v underflowed: no relative residual
        raise DomainError("mass balance needs a positive initial mass")
    d0 = diag.of("dissipation", 0.0)
    if run.scheme.source_enabled:
        g = 0.5 * (diag["p_right"]**2 - diag["p_left"]**2)
    else:
        g = np.zeros_like(diag["p_right"])
    dts = np.diff(diag["time"])
    rate = np.diff(mass) / dts
    closure = 0.5 * (d0[:-1] + d0[1:]) + 0.5 * (g[:-1] + g[1:])
    residuals = np.abs(rate + closure)
    return MassBalanceReport(
        terminal_residual=float(residuals[-1]),
        max_residual=float(np.max(residuals)),
        initial_mass=float(mass[0]),
        relative_max=float(np.max(residuals)) / float(mass[0]),
    )


def mass_balance_ladder(runs: Sequence[RunResult]) -> MassBalanceReport:
    return _ladder(runs, mass_balance_identity, "max_residual", "relative_max", "level_maxima")


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


def sup_principle_monitor(run: RunResult) -> SupMonitorReport:
    """Watch sup u(t) against sup u(0) + SUP_MONITOR_TOL; a violation is
    reported, never raised."""
    diag = run.diagnostics
    s0 = float(diag["sup_u"][0])
    excess = diag["sup_u"] - s0
    worst = float(np.max(excess))
    hits = np.nonzero(excess > SUP_MONITOR_TOL)[0]
    first = int(hits[0]) if hits.size else None
    return SupMonitorReport(
        sup_u0=s0,
        max_sup_u=float(np.max(diag["sup_u"])),
        worst_excess=worst,
        tol=SUP_MONITOR_TOL,
        violated=first is not None,
        first_violation_time=None if first is None else float(diag["time"][first]),
        violation_location=None if first is None else float(diag["sup_u_x"][first]),
    )


# ---------------------------------------------------------------------------
# entropy certificate: weak Kruzhkov inequality tested against tensor hats
# ---------------------------------------------------------------------------

def _hat_at(x, c, w: float):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=np.float64) - c) / w)


def _hat_antideriv(x, c, w: float):
    # np.minimum(np.maximum(...)) is np.clip bit for bit, and cheaper per call
    x = np.asarray(x, dtype=np.float64)
    t1 = np.minimum(np.maximum(x - (c - w), 0.0), w)
    t2 = np.minimum(np.maximum(x - c, 0.0), w)
    return t1 * t1 / (2.0 * w) + t2 - t2 * t2 / (2.0 * w)


def _hat_integral(a, b, c, w: float):
    return _hat_antideriv(b, c, w) - _hat_antideriv(a, c, w)


def _hat_sums(grid: GridSpec, pair, t0: float, t_end: float, samples) -> tuple[np.ndarray, float]:
    """Weak-form values of a batch of entropy pairs against the square family
    of ENTROPY_HATS x ENTROPY_HATS tensor-product hats interior to
    (t0, t_end) x (x_min, x_max), and the common integral of phi.

    ``samples`` yields ``(time, u, P or None)``, the first at t0 and the
    last at t_end, each at most ``_max_sample_gap`` after the previous one;
    a stream that does not span [t0, t_end] raises
    ``SparseSnapshotsError``. Each value
    approximates

      int int (eta(u) dphi/dt + q(u) dphi/dx - eta'(u) P phi) dx dt
      + int eta(u(t0, x)) phi(t0, x) dx

    using cellwise-constant u per slab between samples (endpoint average in
    time) and exact integration of the piecewise-linear phi. ``pair(u)``
    returns the (pairs, n) blocks eta(u), q(u) and eta'(u); they need only
    be valid until the next call, and they are only read, so a pair may
    reuse its buffers or return read-only arrays. Each sample is projected
    onto the x-hats at once and only the previous sample's projections are
    kept, so memory is O(pairs * n) whatever the number of samples, and
    ``samples`` may be a generator that keeps nothing. The first sample's
    eta is copied, and eta - eta0 and eta' P are formed in one (pairs, n)
    work array, so a sample allocates no block of that size. The values
    come as a (pairs, x-hats, t-hats) array; nonnegative values are what an
    entropy solution must produce.

    eta enters relative to the first sample: the time hats telescope, so of
    eta(u(t0)) only its product with phi(t_end) remains, and cells where u
    stays put add nothing. Projecting eta itself loses about 1e-10 of the
    stock 4096-cell values to rounding, since the far field's large
    |u - k| cancels in the sums.
    """
    if not t_end > t0:
        raise SparseSnapshotsError("sample times must increase")
    ifc = grid.interfaces
    max_gap = _max_sample_gap(grid.dx, t_end - t0)
    hats = np.arange(1, ENTROPY_HATS + 1)
    w_t = (t_end - t0) / (ENTROPY_HATS + 1)
    c_t = t0 + hats * w_t
    w_x = float(ifc[-1] - ifc[0]) / (ENTROPY_HATS + 1)
    c_x = float(ifc[0]) + hats * w_x
    left, right = ifc[:-1, None], ifc[1:, None]
    ihx = _hat_integral(left, right, c_x, w_x)  # (cells, x-hats)
    dhx = _hat_at(right, c_x, w_x) - _hat_at(left, c_x, w_x)
    # time, t-hat values and antiderivatives, and projections of the last sample
    prev = None
    for time, u, p in samples:
        if prev is None and time != t0:
            raise SparseSnapshotsError(f"first sample at {time:.6g} is not at t0 = {t0:.6g}")
        eta, q, eta_prime = pair(u)
        if prev is None:
            eta0 = eta.copy()
            work = np.empty(eta.shape)  # scratch for eta - eta0 and eta' P
            sums = np.zeros((len(eta), ihx.shape[1], c_t.size))  # without the eta(u(t0)) term
        f = q @ dhx
        if p is not None:
            f -= np.multiply(eta_prime, p, out=work) @ ihx
        e = np.subtract(eta, eta0, out=work) @ ihx
        ht = _hat_at(time, c_t, w_t)
        at = _hat_antideriv(time, c_t, w_t)
        if prev is not None:
            t_prev, ht_prev, at_prev, e_prev, f_prev = prev
            if not time > t_prev:
                raise SparseSnapshotsError(f"sample time {time:.6g} does not follow {t_prev:.6g}")
            if time - t_prev > max_gap * (1.0 + 1e-9):
                raise SparseSnapshotsError(
                    f"snapshot spacing {time - t_prev:.3e} exceeds min(dx, w_t / 2) = "
                    f"{max_gap:.3e}; record denser snapshots"
                )
            sums += 0.5 * (e_prev + e)[:, :, None] * (ht - ht_prev)
            sums += 0.5 * (f_prev + f)[:, :, None] * (at - at_prev)
        prev = (time, ht, at, e, f)
    if prev is None:
        raise SparseSnapshotsError("no samples")
    if prev[0] != t_end:
        raise SparseSnapshotsError(f"last sample at {prev[0]:.6g} is not at t_end = {t_end:.6g}")
    return sums + (eta0 @ ihx)[:, :, None] * prev[1], w_t * w_x


def _samples(grid: GridSpec, times, u_matrix, p_matrix) -> tuple[float, float, list]:
    """The first and last time of an explicit space-time sample, and its
    rows ``(time, u, P or None)`` as ``_hat_sums`` takes them, checked for
    one row of u and of P per time."""
    times = np.asarray(times, dtype=np.float64)
    u_matrix = np.asarray(u_matrix, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise SparseSnapshotsError("need at least two snapshots in time")
    if u_matrix.shape != (times.size, grid.n_cells):
        raise SparseSnapshotsError("u sample shape does not match times x cells")
    if p_matrix is None:
        p_matrix = [None] * times.size
    else:
        p_matrix = np.asarray(p_matrix, dtype=np.float64)
        if p_matrix.shape != u_matrix.shape:
            raise SparseSnapshotsError("P sample shape does not match times x cells")
    return float(times[0]), float(times[-1]), list(zip(times.tolist(), u_matrix, p_matrix))


def entropy_weak_values(
    grid: GridSpec,
    times: np.ndarray,
    u_matrix: np.ndarray,
    p_matrix: np.ndarray | None,
    eta: Callable[[np.ndarray], np.ndarray],
    flux_q: Callable[[np.ndarray], np.ndarray],
    eta_prime: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, float]:
    """Weak-form values of one entropy pair on an explicit space-time sample
    of u (and P), as ``_hat_sums`` computes them; the return includes the
    common integral of phi for tolerance scaling."""

    def pair(u):
        return eta(u)[None], flux_q(u)[None], eta_prime(u)[None]

    values, phi_mass = _hat_sums(grid, pair, *_samples(grid, times, u_matrix, p_matrix))
    return values[0].ravel(), phi_mass


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


def _default_levels(u0: np.ndarray) -> tuple:
    """Seven levels evenly inside the range of the initial u, cut off below
    at LEVEL_FLOOR. The sup principle bounds u by max u0 from above; below,
    u is unbounded, so the range is a choice fixed before the run. The cut
    keeps the levels where the solution moves: the stock gaussian reaches
    u = -64 at the domain edge, and levels spread down there would all sit
    in the far field, where nothing moves."""
    hi = float(u0.max())
    lo = min(max(float(u0.min()), LEVEL_FLOOR), hi)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    return tuple(lo + (hi - lo) * j / 8.0 for j in range(1, 8))


def _kruzhkov_pair(levels: tuple, n_cells: int):
    """The Kruzhkov pairs |u - k|, sign(u - k)(e^u - e^k) and the derivative
    sign(u - k), one row per level k, for u of ``n_cells`` cells. Each call
    fills the same three (levels, n_cells) buffers and returns them, so a
    block is valid only until the next call."""
    k = np.array(levels)[:, None]
    ek = np.array([math.exp(c) for c in levels])[:, None]
    d, sgn, q = (np.empty((len(levels), n_cells)) for _ in range(3))
    exp_u = np.empty(n_cells)

    def pair(u):
        np.subtract(u, k, out=d)
        np.sign(d, out=sgn)
        np.subtract(np.exp(u, out=exp_u), ek, out=q)
        return np.abs(d, out=d), np.multiply(q, sgn, out=q), sgn

    return pair


def _entropy_report(grid: GridSpec, levels: tuple, pair, t0: float, t_end: float,
                    samples) -> EntropyReport:
    """The certificate of ``pair`` at ``levels`` on ``samples``, as ``_hat_sums``
    takes them."""
    values, phi_mass = _hat_sums(grid, pair, t0, t_end, samples)
    minima = tuple(float(m) for m in values.min(axis=(1, 2)))
    tol = ENTROPY_C_TOL * grid.dx * phi_mass
    min_value = min(minima)
    return EntropyReport(
        levels=levels,
        family=f"tensor-hats-{ENTROPY_HATS}x{ENTROPY_HATS}",
        n_phi=ENTROPY_HATS * ENTROPY_HATS,
        dx=grid.dx,
        tolerance=tol,
        min_value=min_value,
        min_by_level=minima,
        passed=min_value >= -tol,
    )


def kruzhkov_on_field(
    grid: GridSpec,
    times: np.ndarray,
    u_matrix: np.ndarray,
    p_matrix: np.ndarray | None = None,
    levels: Sequence[float] | None = None,
) -> EntropyReport:
    """Kruzhkov certificate on an explicit space-time sample of u (and P),
    with times strictly increasing at most ``_max_sample_gap`` apart. The
    default levels come from the first row."""
    t0, t_end, rows = _samples(grid, times, u_matrix, p_matrix)
    levels = _default_levels(rows[0][1]) if levels is None else tuple(float(k) for k in levels)
    return _entropy_report(grid, levels, _kruzhkov_pair(levels, grid.n_cells), t0, t_end, rows)


def _certificate_samples(cfg: RunConfig, v0: FieldV):
    """The samples ``kruzhkov_residual`` takes from the run of ``cfg``:
    ``(time, u, P or None)`` of the initial state, of the states landed on
    the time-hat knots, and between them of the fewest states that keep the
    samples at most the ``_max_sample_gap`` apart.

    The run steps at its CFL step capped at the gap, so a state lies at
    most the gap past the one before it. Each state is held back one step:
    when the next lies more than the gap past the last sample, the held one
    becomes a sample. ``step`` and ``prefix_integral`` return fresh arrays,
    so holding a state copies nothing, and u is taken only of samples.
    """
    source = cfg.scheme.source_enabled
    gap = _max_sample_gap(cfg.grid.dx, cfg.final_time)
    knots = np.linspace(0.0, cfg.final_time, ENTROPY_HATS + 2)

    def sample(fv, p):
        return fv.time, u_from_v(fv), p.cell_values if source else None

    last = held = None
    for fv, p, _, _, landed in solver._march(cfg.grid, v0, cfg.scheme, cfg.final_time, knots,
                                             max_dt=gap):
        if held is not None and fv.time - last > gap:
            yield sample(*held)
            last = held[0].time
        held = (fv, p)
        if landed:
            yield sample(fv, p)
            last, held = fv.time, None


def kruzhkov_residual(cfg: RunConfig) -> EntropyReport:
    """Kruzhkov certificate for an inviscid configuration.

    Runs ``cfg`` to its final time, ignoring its snapshot times, and streams
    the samples of ``_certificate_samples`` into the weak-form sums as they
    arrive, so no state is kept past the next step. The run lands on the
    time-hat knots j T / (ENTROPY_HATS + 1), so no sample slab straddles a
    kink of a time hat, and otherwise steps at the scheme's own CFL step
    wherever that is below ``_max_sample_gap``. The levels come from the
    initial u. The nonlocal term enters with the run's own P when the
    source is active; source-free runs are certified against the plain
    conservation law.
    """
    if cfg.scheme.epsilon != 0.0:
        raise ValueError("the entropy certificate applies to epsilon = 0 runs")
    grid = cfg.grid
    v0 = init_field(grid, cfg.init)
    levels = _default_levels(u_from_v(v0))
    pair = _kruzhkov_pair(levels, grid.n_cells)
    return _entropy_report(grid, levels, pair, 0.0, cfg.final_time, _certificate_samples(cfg, v0))


def expansion_shock_field(
    n_cells: int = 512, final_time: float = 0.4
) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """Frozen analytic expansion shock (an entropy-violating weak solution)
    on [-1, 1].

    The jump from v = 1 up to v = 2 travels at the chord speed 3/2 even
    though characteristics spread; every Kruzhkov level strictly between the
    states produces entropy on the jump, so the certificate must reject this
    field.
    """
    grid = build_grid(-1.0, 1.0, n_cells)
    times = np.array(dense_snapshot_times(grid, final_time))
    front = _chord_speed(1.0, 2.0) * times[:, None]
    v = np.where(grid.centers[None, :] < front, 1.0, 2.0)
    return grid, times, np.log(v)


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


def l1_stability_check(cfg_u: RunConfig, cfg_w: RunConfig, R: float) -> StabilityReport:
    """Run two configurations and compare them in L1 of u over (-R, R)
    against the stability bound

        e^(C(T) t) ||u0 - w0||_L1(-R - C0 t, R + C0 t),

    C0 = e^(sup u0) + e^(sup w0) and C(T) = 2R + 2 C0 T, at the positive
    snapshot times t of ``cfg_u``, whose final time is T. ``cfg_w`` must
    reach the last of them; both configs then run to T. Before either run,
    the domain must contain the widened window (-R - C0 T, R + C0 T), which
    covers every sample's window, and e^(C(T) t) must not overflow.
    """
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"stability window radius R must be finite and positive, got {R}")
    sample_times = tuple(t for t in cfg_u.snapshot_times if t > 0.0)
    if not sample_times:
        raise DomainError("stability needs at least one sample time: a positive snapshot time")
    T = float(cfg_u.final_time)
    # RunConfig refuses a cfg_w that ends before the last sample time
    cfg_u, cfg_w = (
        replace(replace(c, snapshot_times=sample_times), final_time=T) for c in (cfg_u, cfg_w)
    )
    if cfg_u.grid != cfg_w.grid:
        raise DomainError("stability comparison needs a shared grid")
    grid = cfg_u.grid
    if R <= grid.dx / 2:
        # the window |x| < R may hold no cell centre: it would certify nothing yet pass
        raise DomainError(f"stability window radius R = {R:g} must exceed dx/2 = {grid.dx / 2:g}")
    half_domain = min(-grid.x_min, grid.x_max)
    start_u, start_w = (init_field(grid, c.init) for c in (cfg_u, cfg_w))
    # sup u at t = 0, as the first diagnostics row records it
    sup_u0, sup_w0 = (math.log(max(float(f.values.max()), V_TINY)) for f in (start_u, start_w))
    c0 = math.exp(sup_u0) + math.exp(sup_w0)
    c_of_t = 2.0 * R + 2.0 * c0 * T
    reach = R + c0 * T
    exponent = c_of_t * sample_times[-1]
    if exponent > LN_MAX_DOUBLE:  # an infinite envelope would certify nothing
        raise DomainError(f"Gronwall factor e^(C(T) t) = e^{exponent:.4g} overflows; shrink R/T")
    if reach > half_domain + 1e-12:
        raise DomainError(
            f"widened window radius {reach:.4g} exceeds the domain "
            f"[{grid.x_min}, {grid.x_max}]; enlarge the domain or shrink R/T"
        )
    runs = [landings(grid, start, c.scheme, T, sample_times)
            for start, c in ((start_u, cfg_u), (start_w, cfg_w))]
    initial_gap = np.abs(u_from_v(start_u) - u_from_v(start_w))
    abs_x = np.abs(grid.centers)

    def l1_in(gap: np.ndarray, radius: float) -> float:
        """The L1 norm of ``gap`` over |x| < radius."""
        return float(np.sum(gap[abs_x < radius]) * grid.dx)

    # the runs step side by side, measured as they land (zip would leave the
    # second unfinished, without its warning); T lands even when not sampled
    pairs = itertools.zip_longest(*runs)
    measured = tuple(l1_in(np.abs(a.u - b.u), R) for a, b in pairs if a.time <= sample_times[-1])
    grow = [math.exp(c_of_t * t) for t in sample_times]
    bound = tuple(g * l1_in(initial_gap, R + c0 * t) for g, t in zip(grow, sample_times))
    wide = [R + c_of_t * t for t in sample_times]
    bound_wide = tuple(g * l1_in(initial_gap, min(r, half_domain)) for g, r in zip(grow, wide))
    return StabilityReport(
        R=float(R),
        T=T,
        c0=c0,
        c_of_t=c_of_t,
        sup_u0=sup_u0,
        sup_w0=sup_w0,
        sample_times=sample_times,
        measured=measured,
        bound=bound,
        bound_wide=bound_wide,
        margins=tuple(b - m for b, m in zip(bound, measured)),
        passed=all(m <= b for m, b in zip(measured, bound)),
        wide_window_clipped=any(r > half_domain for r in wide),
    )


# ---------------------------------------------------------------------------
# convergence ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """L1 ladder summary; ``kind`` is 'grid', 'epsilon' or 'mms'.

    For a grid ladder ``distances`` holds successive-pair distances after
    cell-average restriction. For an epsilon ladder ``distances`` are
    distances to the epsilon = 0 run and ``cauchy`` the successive-pair
    distances. For the manufactured solution ``distances`` are the errors
    against it, and it passes only at order >= MMS_MIN_ORDER. ``order`` is
    the ``observed_order`` of the distances.
    """

    kind: str
    params: tuple
    distances: tuple
    monotone: bool
    order: float | None = None
    cauchy: tuple | None = None

    @property
    def passed(self) -> bool:
        if self.kind == "mms":
            return self.monotone and self.order is not None and self.order >= MMS_MIN_ORDER
        return self.monotone


def _convergence(kind: str, params, distances, widths, cauchy=None) -> ConvergenceReport:
    """The ladder report of ``distances`` taken at ``widths``: monotone when
    they strictly decrease, with their ``observed_order``."""
    return ConvergenceReport(
        kind=kind,
        params=tuple(params),
        distances=tuple(distances),
        monotone=all(a > b for a, b in zip(distances, distances[1:])),
        order=observed_order(distances, widths),
        cauchy=cauchy,
    )


def grid_convergence(base: RunConfig, n_ladder: Sequence[int]) -> ConvergenceReport:
    """Self-convergence of final-time v across nested grids (coarsest first)."""
    ns = [int(n) for n in n_ladder]
    if any(a <= 0 or b % a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"grid ladder must be positive and nested, got {ns}")
    configs = _ladder_configs(base, ns)
    finals = _final_fields(configs)
    dists = [
        l1_distance(c.grid.dx, restrict_to_coarse(fine, fine.size // coarse.size), coarse)
        for c, coarse, fine in zip(configs, finals, finals[1:])
    ]
    return _convergence("grid", ns, dists, [c.grid.dx for c in configs[:-1]])


def epsilon_convergence(
    base: RunConfig,
    ladder: Sequence[float] = EPSILON_LADDER,
) -> ConvergenceReport:
    """Distances at final time between viscous runs and the inviscid run.

    The ladder must be strictly decreasing in epsilon; distances to the
    epsilon = 0 limit should then decrease monotonically, and successive
    viscous runs should be Cauchy. Their order in epsilon is reported but
    not gated: no rate is claimed.
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
    limit, *finals = _final_fields(configs)
    dx = base.grid.dx
    dists = [l1_distance(dx, f, limit) for f in finals]
    cauchy = [l1_distance(dx, a, b) for a, b in zip(finals, finals[1:])]
    return _convergence("epsilon", eps, dists, eps, cauchy=tuple(cauchy))


# ---------------------------------------------------------------------------
# source-free Riemann oracles and the manufactured smooth solution
# ---------------------------------------------------------------------------

def _chord_speed(v_left: float, v_right: float) -> float:
    """Speed of the Burgers shock joining v_left to v_right: the
    Rankine-Hugoniot chord slope (v_l^2 - v_r^2) / (2 (v_l - v_r))."""
    return 0.5 * (v_left + v_right)


def _check_riemann_states(v_left: float, v_right: float) -> None:
    if not (math.isfinite(v_left) and math.isfinite(v_right) and min(v_left, v_right) >= 0.0):
        raise DomainError("Riemann states must be finite and nonnegative")


def burgers_riemann_oracle(v_left: float, v_right: float, t: float, x) -> np.ndarray:
    """Exact entropy solution of dv/dt + d(v^2/2)/dx = 0 with step data at 0.

    Requires finite nonnegative states (the regime of v = e^u); shocks
    travel at the chord speed, rarefactions open the fan x/t.
    """
    _check_riemann_states(v_left, v_right)
    if not t >= 0.0:
        raise DomainError(f"Riemann oracle needs t >= 0, got {t}")
    x = np.asarray(x, dtype=np.float64)
    if t == 0.0:
        return np.where(x < 0.0, v_left, v_right)
    if v_left >= v_right:
        return np.where(x < _chord_speed(v_left, v_right) * t, v_left, v_right)
    fan = x / t
    return np.clip(fan, v_left, v_right)


def riemann_initial(grid: GridSpec, v_left: float, v_right: float, x0: float = 0.0) -> FieldV:
    _check_riemann_states(v_left, v_right)
    return FieldV(np.where(grid.centers < x0, float(v_left), float(v_right)), 0.0)


def _riemann_run(grid: GridSpec, states: tuple, final_time: float) -> np.ndarray:
    """Final v of a pure Burgers run (source and viscosity off) from the
    Riemann data ``states`` = (v_left, v_right). Such data touch the
    boundary by design, so the boundary-flux warning that every run gives
    is silenced here."""
    cfg = SchemeConfig(epsilon=0.0, source_enabled=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryFluxWarning)
        [v] = _run_many([(grid, riemann_initial(grid, *states), cfg, final_time)])
    return v


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


def _shock_error(grid: GridSpec, v: np.ndarray, t: float) -> float:
    """Distance at time t from the shock of SHOCK_STATES in ``v`` to the
    exact one. The shock in ``v`` sits at the mid-value crossing, searched
    beyond the reach of the erosion wave the zero-inflow boundary sends in
    from the left; of several crossings the rightmost counts."""
    v_left, v_right = SHOCK_STATES
    x = grid.centers
    # the crossing level halfway between the states: the chord speed's
    # formula, but a level on the jump, which stays if the speed changes
    mid = 0.5 * (v_left + v_right)
    safe = grid.x_min + v_left * t + 1.0
    (hits,) = np.nonzero((x[:-1] > safe) & (v[:-1] >= mid) & (mid > v[1:]))
    if hits.size == 0:
        raise DomainError("no mid-value crossing found; shock left the window")
    i = hits[-1]
    pos = x[i] + (v[i] - mid) / (v[i] - v[i + 1]) * grid.dx
    return abs(pos - _chord_speed(v_left, v_right) * t)


def _fan_error(grid: GridSpec, v: np.ndarray, t: float) -> float:
    """L1 distance at time t from ``v`` to the exact fan of FAN_STATES."""
    return l1_distance(grid.dx, v, burgers_riemann_oracle(*FAN_STATES, t, grid.centers))


def burgers_sanity(n_cells: int = 1024) -> RiemannCheck:
    """Run both stock Riemann problems on ORACLE_DOMAIN to ORACLE_FINAL_TIME
    at one resolution and measure their errors: ``_shock_error`` for the
    shock from SHOCK_STATES and ``_fan_error`` for the fan from FAN_STATES.

    Raises DomainError, before any run, on a grid so coarse that Riemann
    data that never move would pass the shock or the fan half of the check:
    below 22 cells for the shock, up to 160 for the fan.
    """
    grid = build_grid(*ORACLE_DOMAIN, n_cells)
    t = ORACLE_FINAL_TIME

    def measured(field) -> RiemannCheck:  # field(states): v at time t
        return RiemannCheck(n_cells=n_cells, dx=grid.dx,
                            shock_position_error=_shock_error(grid, field(SHOCK_STATES), t),
                            rarefaction_l1_error=_fan_error(grid, field(FAN_STATES), t))

    unmoved = measured(lambda states: riemann_initial(grid, *states).values)
    if (unmoved.shock_position_error <= unmoved.shock_tol
            or unmoved.rarefaction_l1_error <= unmoved.rarefaction_tol):
        raise DomainError(
            f"burgers-sanity cannot fail on {n_cells} cells: Riemann data that never move "
            f"score shock error {unmoved.shock_position_error:.3g} (tol {unmoved.shock_tol:.3g}) "
            f"and rarefaction error {unmoved.rarefaction_l1_error:.3g} "
            f"(tol {unmoved.rarefaction_tol:.3g})"
        )
    return measured(lambda states: _riemann_run(grid, states, t))


# -- manufactured smooth solution v*(t, x) = e^(-t) e^(-x^2) ----------------

def mms_solution(t: float, x: np.ndarray) -> np.ndarray:
    return np.exp(-t) * np.exp(-np.asarray(x, dtype=np.float64) ** 2)


def mms_prefix(t: float, x: np.ndarray) -> np.ndarray:
    """Exact prefix integral of the manufactured solution from 0 to x."""
    from scipy.special import erf  # only the manufactured solution needs it

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


def mms_convergence() -> ConvergenceReport:
    """L1 errors against the manufactured solution with viscosity MMS_EPSILON
    at ORACLE_FINAL_TIME, across the grid ladder MMS_LADDER on ORACLE_DOMAIN.
    Its initial data v*(0, x) = e^(-x^2) are the stock gaussian preset."""
    scheme = SchemeConfig(epsilon=MMS_EPSILON, forcing=mms_forcing(MMS_EPSILON))
    grid = build_grid(*ORACLE_DOMAIN, MMS_LADDER[0])
    base = RunConfig(grid, InitialDataSpec.gaussian(), scheme, ORACLE_FINAL_TIME)
    configs = _ladder_configs(base, MMS_LADDER)
    errors = [
        l1_distance(c.grid.dx, v, mms_solution(ORACLE_FINAL_TIME, c.grid.centers))
        for c, v in zip(configs, _final_fields(configs))
    ]
    return _convergence("mms", MMS_LADDER, errors, [c.grid.dx for c in configs])
