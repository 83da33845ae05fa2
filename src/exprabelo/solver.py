"""Time integration: one time loop, ``_march``, with four consumers.
``evolve`` keeps snapshots at exact requested times and a per-step
diagnostics series recording the quantities the budget verifiers consume;
``run_diagnostics`` records the same series and keeps no snapshot;
``landings`` streams the snapshots and keeps nothing; and the entropy
certificate, ``verifiers.kruzhkov_residual``, samples the states it needs.
A kept snapshot holds v alone: u and P are derived from it when read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryFluxWarning, DataGapError, ShapeError, StateError
from .grid_field import V_TINY, FieldV, GridSpec, InitialDataSpec, init_field, u_from_v
from .nonlocal_op import NonlocalP, prefix_integral
from .scheme import SchemeConfig, cfl_dt, interface_fluxes, step

BOUNDARY_LEAK_THRESHOLD = 1e-8
DEFAULT_ALPHAS = (0.0, 1.0, 2.0)
# integer powers up to v^4 are chained products in the diagnostics row; a
# longer chain would cost more multiplies than np.power takes, round more
# often, and for a large alpha would not end
CHAIN_MAX_POWER = 4


def _normalize_alphas(alphas) -> tuple:
    """The distinct alphas as sorted floats, -0 folded into 0, which fixes
    the diagnostics column order. Raises ValueError when there are none,
    when one is negative or not finite, or when two share a ``%g`` tag,
    which names their diagnostics columns and report files."""
    alphas = tuple(sorted({float(a) + 0.0 for a in alphas}))
    if not alphas:
        raise ValueError("diagnostic_alphas must be non-empty")
    tags = {}
    for a in alphas:
        if not (math.isfinite(a) and a >= 0.0):
            raise ValueError(f"diagnostic alpha must be finite and nonnegative, got {a}")
        tag = f"{a:g}"
        if tag in tags:
            raise ValueError(f"diagnostic alphas {tags[tag]!r} and {a!r} share the tag a{tag}")
        tags[tag] = a
    return alphas


def _snapshot_times(final_time: float, snapshot_times) -> tuple:
    """The distinct snapshot times, sorted; raises ValueError unless
    final_time is finite and >= 0 and every time lies in [0, final_time]."""
    if not (math.isfinite(final_time) and final_time >= 0.0):
        raise ValueError(f"final_time must be finite and >= 0, got {final_time}")
    times = tuple(sorted({float(t) for t in snapshot_times}))
    for t in times:
        if not (0.0 <= t <= final_time):
            raise ValueError(f"snapshot time {t} outside [0, {final_time}]")
    return times


@dataclass(frozen=True)
class RunConfig:
    """A complete run description: grid, initial data, scheme, and outputs."""

    grid: GridSpec
    init: InitialDataSpec
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    final_time: float = 1.0
    snapshot_times: tuple = ()
    diagnostic_alphas: tuple = DEFAULT_ALPHAS

    def __post_init__(self):
        times = _snapshot_times(self.final_time, self.snapshot_times)
        object.__setattr__(self, "snapshot_times", times)
        object.__setattr__(self, "diagnostic_alphas", _normalize_alphas(self.diagnostic_alphas))


@dataclass(frozen=True)
class Snapshot:
    """State at one instant, self-contained for serialization. It keeps v
    and its grid; the cell centers, u = ln v (a read-only array, floored
    only where v underflows) and P are computed from them on each read, by
    the functions that computed them during the run, so they carry the
    run's bits."""

    time: float
    grid: GridSpec
    field_v: FieldV

    @property
    def x(self) -> np.ndarray:
        return self.grid.centers

    @property
    def u(self) -> np.ndarray:
        return u_from_v(self.field_v)

    @property
    def p(self) -> NonlocalP:
        return prefix_integral(self.grid, self.field_v)


# diagnostics.csv columns in file order: the fixed columns, then one block
# per alpha whose names carry the suffix _a%g
FIXED_COLUMNS = (
    "time", "dt", "sup_u", "sup_u_x", "mass", "boundary_flux", "p_left", "p_right", "clip_count",
)
ALPHA_COLUMNS = ("lp", "dissipation", "source")


def column_names(alphas) -> tuple:
    """The diagnostics.csv header for these alphas, in file order: the one
    statement of the layout of a diagnostics row and of a series."""
    return FIXED_COLUMNS + tuple(f"{name}_a{a:g}" for a in alphas for name in ALPHA_COLUMNS)


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-step time series: ``columns`` maps each diagnostics.csv header
    name, in ``column_names(alphas)`` order, to one entry per time. Read a
    column as ``series["mass"]``, and a per-alpha one as ``series.of("lp", a)``.

    lp_a<a>[m]          =  sum_i v_i^(a+1) dx                  at time m
    dissipation_a<a>[m] =  eps (a+1) sum D+(v^(a+1)) D+v dx    (forward
                           differences over the n+1 interfaces, with zero
                           ghost values on both sides)
    source_a<a>[m]      =  (a+1) sum v^(a+1) P dx  (zero when the source
                           term is disabled, so the budget matches the
                           dynamics actually run)

    Both rate columns are what the semi-discrete scheme removes from
    N_a = sum v^(a+1) dx: summing (a+1) v^a times the viscous term
    eps v D+D-v by parts against the zero ghosts gives exactly -dissipation,
    and (a+1) v^a times the source -v P gives exactly -source.
    """

    alphas: tuple
    columns: dict

    def __post_init__(self):
        if tuple(self.columns) != column_names(self.alphas):
            raise ShapeError(f"diagnostic columns must be {column_names(self.alphas)}")
        t = np.asarray(self["time"])
        if t.size == 0:
            raise DataGapError("diagnostics series is empty")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise StateError("diagnostic times must be strictly increasing")
        for name, col in self.columns.items():
            if np.shape(col) != t.shape:  # the CSV writer zips the columns
                raise ShapeError("every diagnostic column needs one entry per time")
            finite = np.isfinite(col)
            if not finite.all():
                first = t[int(np.argmin(finite))]
                raise StateError(f"non-finite diagnostic entry: {name} at t = {first:.6g}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def of(self, name: str, alpha: float) -> np.ndarray:
        """The column ``name`` of the block of ``alpha``, ``<name>_a<alpha>``,
        -0 read as 0."""
        return self.columns[f"{name}_a{alpha + 0.0:g}"]

    @classmethod
    def from_rows(cls, rows, alphas: tuple) -> "DiagnosticsSeries":
        """Transpose rows laid out like ``column_names(alphas)``, a list of
        rows or a 2-D array with one row per time, into a series."""
        return cls.from_columns(np.ascontiguousarray(np.asarray(rows, dtype=np.float64).T), alphas)

    @classmethod
    def from_columns(cls, columns, alphas: tuple) -> "DiagnosticsSeries":
        """A series of float64 columns given in ``column_names(alphas)``
        order; the clip counts become integers."""
        columns = dict(zip(column_names(alphas), columns))
        columns["clip_count"] = columns["clip_count"].astype(np.int64)
        return cls(alphas=tuple(alphas), columns=columns)


def record_diagnostics(
    grid: GridSpec,
    fv: FieldV,
    p: NonlocalP,
    flux: np.ndarray,
    cfg: SchemeConfig,
    dt: float,
    alphas: tuple = DEFAULT_ALPHAS,
) -> list:
    """Compute one diagnostics row for the current state, laid out like
    ``column_names(alphas)``.

    ``p`` and ``flux`` are the state's prefix integral and interface fluxes;
    the row reads the boundary flux |F_1/2| + |F_n+1/2| from ``flux`` and
    evaluates no fluxes itself.

    The alphas are taken one at a time in one power row. An integer power
    v^k, k = a + 1 up to ``CHAIN_MAX_POWER``, is the product v v ... v taken
    from the left, v^3 = (v v) v: the row times v when the row holds
    v^(k-1), else built from v, and v itself when k = 1. Either way a
    column's bits depend only on its own alpha; every other alpha takes
    ``np.power``. ``lp_a0`` is the mass sum itself.
    """
    v = fv.values
    dx = grid.dx
    imax = int(v.argmax())
    sup_u = math.log(max(float(v[imax]), V_TINY))
    sup_u_x = float(grid.centers[imax])
    mass = float(v.sum()) * dx
    boundary = float(abs(flux[0]) + abs(flux[-1]))
    row = [fv.time, float(dt), sup_u, sup_u_x, mass, boundary,
           float(p.interface_values[0]), float(p.interface_values[-1]), fv.clip_count]

    # D+ of a row zero-padded by one ghost on each side: the forward
    # difference over every interface
    if cfg.epsilon > 0.0:
        dv = np.diff(v, prepend=0.0, append=0.0)
    power, held = v, 1.0  # power holds v^held; None after np.power
    for a in alphas:
        k = a + 1.0
        if not (k.is_integer() and k <= CHAIN_MAX_POWER):
            power, held = np.power(v, k), None
        else:
            if held != k - 1.0:
                power, held = v, 1.0
            while held < k:
                power, held = power * v, held + 1.0
        lp = mass if power is v else float(np.add.reduce(power)) * dx
        diss = src = 0.0
        if cfg.epsilon > 0.0:
            dpow = dv if power is v else np.diff(power, prepend=0.0, append=0.0)
            s = float(np.add.reduce(dpow * dv))
            diss = cfg.epsilon * (a + 1.0) * s / dx
        if cfg.source_enabled:
            s = float(np.add.reduce(power * p.cell_values))
            src = (a + 1.0) * s * dx
        row += (lp, diss, src)
    return row


ROW_BLOCK = 128  # diagnostics entries per float64 block of one column


class _Recorder:
    """The diagnostics rows of one run, each copied into float64 as soon as
    ``record_diagnostics`` makes it: every column fills blocks of
    ``ROW_BLOCK`` entries, and ``series`` joins them once, at the end."""

    def __init__(self, grid: GridSpec, cfg: SchemeConfig, alphas):
        self.grid, self.cfg, self.alphas = grid, cfg, _normalize_alphas(alphas)
        self.blocks = [[] for _ in column_names(self.alphas)]
        self.rows = 0

    def record(self, fv: FieldV, p: NonlocalP, flux: np.ndarray, dt: float) -> None:
        row = record_diagnostics(self.grid, fv, p, flux, self.cfg, dt, self.alphas)
        k = self.rows % ROW_BLOCK
        if k == 0:
            for blocks in self.blocks:
                blocks.append(np.empty(ROW_BLOCK))
        for blocks, value in zip(self.blocks, row):
            blocks[-1][k] = value
        self.rows += 1

    def series(self) -> DiagnosticsSeries:
        """The rows as a series. Each column's blocks are dropped as soon
        as it is joined, so the join holds the rows about once, not twice
        as one 2-D table joined from the blocks would."""
        filled = (self.rows - 1) % ROW_BLOCK + 1  # in the last block
        columns = []
        for blocks in self.blocks:
            blocks[-1] = blocks[-1][:filled]
            columns.append(np.concatenate(blocks))
            blocks.clear()
        return DiagnosticsSeries.from_columns(columns, self.alphas)


@dataclass(frozen=True)
class RunResult:
    """Everything a verifier needs: the grid, the scheme that produced the
    data, snapshots at the requested times (none from ``run_diagnostics``),
    and the per-step diagnostics."""

    grid: GridSpec
    scheme: SchemeConfig
    snapshots: tuple
    diagnostics: DiagnosticsSeries

    def snapshot_at(self, t: float) -> Snapshot:
        """The snapshot at exactly t, as ``evolve`` lands each requested time."""
        for snap in self.snapshots:
            if snap.time == t:
                return snap
        raise DataGapError(f"no snapshot at t = {t}")

    @property
    def final_state(self) -> FieldV:
        if not self.snapshots:
            raise DataGapError("the run kept no snapshot")
        return self.snapshots[-1].field_v  # evolve always lands a final snapshot


def _march(grid: GridSpec, v0: FieldV, cfg: SchemeConfig, final_time: float, snapshot_times,
           max_dt: float = math.inf):
    """March v0 to final_time, landing exactly on every requested snapshot
    time, and yield ``(fv, p, flux, dt, landed)`` for the initial state and
    after every step: the state, its prefix integral P and interface fluxes
    F, the step that reached it (0 at first), and whether it lands on a
    snapshot time or the final time.

    Each step is the CFL-stable one, capped at ``max_dt`` (no cap by
    default, so ``evolve`` and ``landings`` step at the CFL step itself),
    then shortened, or stretched by at most 4 ulps of the event time, to
    hit snapshot times and the final time: landed timestamps equal the
    requests bitwise, and no sliver step follows an ulp short of an event.
    Each state's P and F are computed once, as it arrives, and its
    boundary flux |F_1/2| + |F_n+1/2| must be finite; the next ``step``
    takes P and F as arguments and evaluates only its later stages. A
    ``BoundaryFluxWarning``, pointing at the frame that iterates the
    consumer of this generator, is given at the end when the boundary
    flux's maximum exceeds ``BOUNDARY_LEAK_THRESHOLD``.
    """
    events = sorted(set(_snapshot_times(final_time, snapshot_times)) | {float(final_time)})
    if v0.time != 0.0:
        raise ValueError("initial field must carry time = 0")

    fv, dt, landing = v0, 0.0, events[0] == 0.0
    max_boundary = 0.0
    while True:
        p = prefix_integral(grid, fv)
        flux = interface_fluxes(fv.values, cfg.flux)
        boundary = float(abs(flux[0]) + abs(flux[-1]))
        if not math.isfinite(boundary):
            raise StateError(f"non-finite boundary flux at t = {fv.time:.6g}")
        max_boundary = max(max_boundary, boundary)
        yield fv, p, flux, dt, landing
        if landing:
            events.pop(0)
            if not events:
                break
        target = events[0]
        dt = min(cfl_dt(grid, fv, p, cfg), max_dt)
        landing = fv.time + dt >= target - 4 * math.ulp(target)
        if landing:
            dt = target - fv.time
        fv = step(grid, fv, cfg, dt, p, flux)
        if landing:  # step has checked the values; relabel them, not rescan
            fv = FieldV._checked(fv.values, target, fv.clip_count)

    if max_boundary > BOUNDARY_LEAK_THRESHOLD:
        warnings.warn(
            f"boundary flux reached {max_boundary:.3e} "
            f"(threshold {BOUNDARY_LEAK_THRESHOLD:g}); the domain may be too small",
            BoundaryFluxWarning,
            stacklevel=3,  # past this generator and the consumer that iterates it
        )


def evolve(
    grid: GridSpec,
    v0: FieldV,
    cfg: SchemeConfig,
    final_time: float,
    snapshot_times: tuple = (),
    alphas: tuple = DEFAULT_ALPHAS,
) -> RunResult:
    """Run v0 to final_time as ``_march`` does, keeping a snapshot, v alone,
    at every requested time and at the final time, and a diagnostics row,
    built from each state's own P and F, for the initial state and after
    every step, with the alphas normalized as in ``_normalize_alphas``."""
    recorder, snaps = _Recorder(grid, cfg, alphas), []
    for fv, p, flux, dt, landed in _march(grid, v0, cfg, final_time, snapshot_times):
        recorder.record(fv, p, flux, dt)
        if landed:
            snaps.append(Snapshot(fv.time, grid, fv))
    return RunResult(grid, cfg, tuple(snaps), recorder.series())


def landings(grid: GridSpec, v0: FieldV, cfg: SchemeConfig, final_time: float,
             snapshot_times: tuple = ()):
    """Yield, in time order, the snapshot of each requested time and of the
    final time of the run ``evolve`` makes, bitwise (v alone, as ``evolve``
    keeps it), and keep none of them, nor any diagnostics: memory does not
    grow with the number of snapshots.
    The boundary-flux warning comes with the last one, when the generator
    is exhausted."""
    for fv, _, _, _, landed in _march(grid, v0, cfg, final_time, snapshot_times):
        if landed:
            yield Snapshot(fv.time, grid, fv)


def run_simulation(cfg: RunConfig) -> RunResult:
    """Build the grid and initial data from a RunConfig and evolve it."""
    v0 = init_field(cfg.grid, cfg.init)
    return evolve(cfg.grid, v0, cfg.scheme, cfg.final_time, cfg.snapshot_times,
                  cfg.diagnostic_alphas)


def run_diagnostics(cfg: RunConfig) -> RunResult:
    """The run of ``run_simulation(cfg)``, with its steps, landings and
    diagnostics series bit for bit, keeping no snapshot: for checks that
    read only the diagnostics, so memory does not grow with the number of
    snapshot times."""
    recorder = _Recorder(cfg.grid, cfg.scheme, cfg.diagnostic_alphas)
    v0 = init_field(cfg.grid, cfg.init)
    for fv, p, flux, dt, _ in _march(cfg.grid, v0, cfg.scheme, cfg.final_time,
                                      cfg.snapshot_times):
        recorder.record(fv, p, flux, dt)
    return RunResult(cfg.grid, cfg.scheme, (), recorder.series())
