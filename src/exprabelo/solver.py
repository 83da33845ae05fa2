"""Time integration driver: snapshots at exact requested times plus a
per-step diagnostics series recording the quantities the verifiers consume.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundaryFluxWarning, DataGapError, ShapeError, StateError
from .grid_field import FieldU, FieldV, GridSpec, InitialDataSpec, init_field, u_from_v
from .nonlocal_op import NonlocalP, prefix_integral
from .scheme import SchemeConfig, Workspace, cfl_dt, interface_fluxes, step

BOUNDARY_LEAK_THRESHOLD = 1e-8
DEFAULT_ALPHAS = (0.0, 1.0, 2.0)


def _normalize_alphas(alphas) -> tuple:
    """The distinct alphas as sorted floats, which fixes the diagnostics
    column order. Raises ValueError when there are none, when one is
    negative or not finite, or when two share a ``%g`` tag, which names
    their diagnostics columns and report files."""
    alphas = tuple(sorted({float(a) for a in alphas}))
    if not alphas:
        raise ValueError("diagnostic_alphas must be non-empty")
    tags = {}
    for a in alphas:
        if not (math.isfinite(a) and a >= 0.0):
            raise ValueError(f"diagnostic alpha must be nonnegative, got {a}")
        tag = f"{a:g}"
        if tag in tags:
            raise ValueError(f"diagnostic alphas {tags[tag]!r} and {a!r} share the tag a{tag}")
        tags[tag] = a
    return alphas


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
        if not (math.isfinite(self.final_time) and self.final_time >= 0.0):
            raise ValueError(f"final_time must be finite and >= 0, got {self.final_time}")
        times = tuple(sorted({float(t) for t in self.snapshot_times}))
        for t in times:
            if not (0.0 <= t <= self.final_time):
                raise ValueError(
                    f"snapshot time {t} outside [0, {self.final_time}]"
                )
        object.__setattr__(self, "snapshot_times", times)
        object.__setattr__(self, "diagnostic_alphas", _normalize_alphas(self.diagnostic_alphas))


@dataclass(frozen=True)
class Snapshot:
    """State at one instant: cell centers, v, the floored u, and the prefix
    integral, self-contained for serialization."""

    time: float
    x: np.ndarray
    field_v: FieldV
    field_u: FieldU
    p: NonlocalP


# diagnostics.csv columns in file order, as (csv name, DiagnosticsSeries
# attribute): the fixed columns, then one block per alpha whose names carry
# the suffix _a%g and whose attributes are dicts keyed by alpha
FIXED_COLUMNS = (
    ("time", "times"), ("dt", "dts"), ("sup_u", "sup_u"), ("sup_u_x", "sup_u_x"),
    ("mass", "mass"), ("boundary_flux", "boundary_flux"), ("p_left", "p_left"),
    ("p_right", "p_right"), ("clip_count", "clip_counts"),
)
ALPHA_COLUMNS = (("lp", "lp_norms"), ("dissipation", "dissipation"), ("source", "source_integral"))


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-step time series; the per-alpha columns are keyed by alpha value.

    lp_norms[a][m]        =  sum_i v_i^(a+1) dx                  at time m
    dissipation[a][m]     =  eps (a+1) sum D+(v^(a+1)) D+v dx    (forward
                             differences over the n+1 interfaces, with zero
                             ghost values on both sides)
    source_integral[a][m] =  (a+1) sum v^(a+1) P dx  (zero when the source
                             term is disabled, so the budget matches the
                             dynamics actually run)

    Both rate columns are what the semi-discrete scheme removes from
    N_a = sum v^(a+1) dx: summing (a+1) v^a times the viscous term
    eps v D+D-v by parts against the zero ghosts gives exactly -dissipation,
    and (a+1) v^a times the source -v P gives exactly -source_integral.
    """

    alphas: tuple
    times: np.ndarray
    dts: np.ndarray
    sup_u: np.ndarray
    sup_u_x: np.ndarray
    mass: np.ndarray
    boundary_flux: np.ndarray
    p_left: np.ndarray
    p_right: np.ndarray
    clip_counts: np.ndarray
    lp_norms: dict
    dissipation: dict
    source_integral: dict

    def __post_init__(self):
        t = np.asarray(self.times)
        if t.size == 0:
            raise DataGapError("diagnostics series is empty")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise StateError("diagnostic times must be strictly increasing")
        for _, col in self.columns():
            if np.shape(col) != t.shape:  # the CSV writer zips the columns
                raise ShapeError("every diagnostic column needs one entry per time")
            if not np.all(np.isfinite(col)):
                raise StateError("non-finite diagnostic entry")

    def columns(self) -> list:
        """(csv name, column) pairs in diagnostics.csv order."""
        cols = [(name, getattr(self, attr)) for name, attr in FIXED_COLUMNS]
        for a in self.alphas:
            cols += [(f"{name}_a{a:g}", getattr(self, attr)[a]) for name, attr in ALPHA_COLUMNS]
        return cols

    @classmethod
    def from_rows(cls, rows: list, alphas: tuple) -> "DiagnosticsSeries":
        """Transpose rows laid out like ``columns()`` into a series."""
        data = np.ascontiguousarray(np.array(rows, dtype=np.float64).T)
        fields = {attr: col for (_, attr), col in zip(FIXED_COLUMNS, data)}
        fields["clip_counts"] = fields["clip_counts"].astype(np.int64)
        blocks = data[len(FIXED_COLUMNS):].reshape(len(alphas), len(ALPHA_COLUMNS), -1)
        for j, (_, attr) in enumerate(ALPHA_COLUMNS):
            fields[attr] = dict(zip(alphas, blocks[:, j]))
        return cls(alphas=tuple(alphas), **fields)


def record_diagnostics(
    grid: GridSpec,
    fv: FieldV,
    p: NonlocalP,
    cfg: SchemeConfig,
    dt: float,
    alphas: tuple = DEFAULT_ALPHAS,
    ws: Workspace | None = None,
) -> list:
    """Compute one diagnostics row for the current state, laid out like
    ``DiagnosticsSeries.columns()``.

    ``ws`` is the run's workspace (a fresh one when omitted); the interface
    fluxes computed here for the boundary flux stay in it for the next step.
    """
    if ws is None or ws.power_pad.shape[0] != len(alphas):
        ws = Workspace(grid.n_cells, len(alphas))
    v = fv.values
    dx = grid.dx
    imax = int(v.argmax())
    sup_u = math.log(max(float(v[imax]), cfg.v_floor))
    sup_u_x = float(grid.centers[imax])
    mass = float(v.sum()) * dx

    flux = interface_fluxes(v, cfg.flux, ws)
    boundary = float(abs(flux[0]) + abs(flux[-1]))

    # one zero-padded row per alpha holds v^(a+1); D+ of a padded row is the
    # forward difference over every interface. Each row reduces on its own.
    pad = ws.power_pad
    powers = pad[:, 1:-1]
    for power, a in zip(powers, alphas):
        np.power(v, a + 1.0, out=power)
    lp = [s * dx for s in np.add.reduce(powers, axis=1).tolist()]
    if cfg.epsilon > 0.0:
        ws.v_pad[1:-1] = v
        dv = np.subtract(ws.v_pad[1:], ws.v_pad[:-1], out=ws.dv)
        dw = np.subtract(pad[:, 1:], pad[:, :-1], out=ws.dw)
        dw *= dv
        sums = np.add.reduce(dw, axis=1).tolist()
        diss = [cfg.epsilon * (a + 1.0) * s / dx for a, s in zip(alphas, sums)]
    else:
        diss = [0.0] * len(alphas)
    if cfg.source_enabled:
        weighted = np.multiply(powers, p.cell_values, out=ws.weighted)
        sums = np.add.reduce(weighted, axis=1).tolist()
        src = [(a + 1.0) * s * dx for a, s in zip(alphas, sums)]
    else:
        src = [0.0] * len(alphas)

    row = [fv.time, float(dt), sup_u, sup_u_x, mass, boundary,
           float(p.interface_values[0]), float(p.interface_values[-1]), fv.clip_count]
    for block in zip(lp, diss, src):
        row += block
    for val in (sup_u, mass, boundary):
        if not math.isfinite(val):
            raise StateError(f"non-finite diagnostic at t = {fv.time:.6g}")
    return row


@dataclass(frozen=True)
class RunResult:
    """Everything a verifier needs: the grid, the scheme that produced the
    data, snapshots at the requested times, and the per-step diagnostics."""

    grid: GridSpec
    scheme: SchemeConfig
    snapshots: tuple
    diagnostics: DiagnosticsSeries

    def snapshot_at(self, t: float, rtol: float = 1e-12) -> Snapshot:
        for snap in self.snapshots:
            if snap.time == t or abs(snap.time - t) <= rtol * max(1.0, abs(t)):
                return snap
        raise DataGapError(f"no snapshot at t = {t}")

    @property
    def final_state(self) -> FieldV:
        return self.snapshots[-1].field_v


def _make_snapshot(grid: GridSpec, fv: FieldV, p: NonlocalP, cfg: SchemeConfig) -> Snapshot:
    return Snapshot(
        time=fv.time,
        x=grid.centers,
        field_v=fv,
        field_u=u_from_v(fv, cfg.v_floor),
        p=p,
    )


def evolve(
    grid: GridSpec,
    v0: FieldV,
    cfg: SchemeConfig,
    final_time: float,
    snapshot_times: tuple = (),
    alphas: tuple = DEFAULT_ALPHAS,
) -> RunResult:
    """March v0 to final_time, landing exactly on every requested snapshot time.

    The CFL-stable step is shortened (never stretched) to hit snapshot times
    and the final time, so snapshot timestamps equal the requests bitwise.
    A diagnostics row is recorded for the initial state and after every step,
    with the alphas normalized as in ``_normalize_alphas``.
    """
    if not (math.isfinite(final_time) and final_time >= 0.0):
        raise ValueError(f"final_time must be finite and >= 0, got {final_time}")
    if v0.time != 0.0:
        raise ValueError("initial field must carry time = 0")
    events = sorted({float(t) for t in snapshot_times} | {float(final_time)})
    for t in events:
        if not (0.0 <= t <= final_time):
            raise ValueError(f"snapshot time {t} outside [0, {final_time}]")
    alphas = _normalize_alphas(alphas)

    ws = Workspace(grid.n_cells, len(alphas))
    fv = v0
    p = prefix_integral(grid, fv)
    rows = [record_diagnostics(grid, fv, p, cfg, 0.0, alphas, ws)]
    snaps = []
    if events[0] == 0.0:
        snaps.append(_make_snapshot(grid, fv, p, cfg))
        events.pop(0)

    while events:
        target = events[0]
        dt_stable = cfl_dt(grid, fv, p, cfg)
        if fv.time + dt_stable >= target:
            dt = target - fv.time
            landing = True
        else:
            dt = dt_stable
            landing = False
        fv = step(grid, fv, cfg, dt, p, ws)
        if landing:
            fv = replace(fv, time=target)
        p = prefix_integral(grid, fv)
        rows.append(record_diagnostics(grid, fv, p, cfg, dt, alphas, ws))
        if landing:
            snaps.append(_make_snapshot(grid, fv, p, cfg))
            events.pop(0)

    series = DiagnosticsSeries.from_rows(rows, alphas)
    max_boundary = series.boundary_flux.max()
    if max_boundary > BOUNDARY_LEAK_THRESHOLD:
        warnings.warn(
            f"boundary flux reached {max_boundary:.3e} "
            f"(threshold {BOUNDARY_LEAK_THRESHOLD:g}); the domain may be too small",
            BoundaryFluxWarning,
            stacklevel=2,
        )
    return RunResult(
        grid=grid,
        scheme=cfg,
        snapshots=tuple(snaps),
        diagnostics=series,
    )


def run_simulation(cfg: RunConfig) -> RunResult:
    """Build the grid and initial data from a RunConfig and evolve it."""
    v0 = init_field(cfg.grid, cfg.init)
    return evolve(
        cfg.grid,
        v0,
        cfg.scheme,
        cfg.final_time,
        cfg.snapshot_times,
        cfg.diagnostic_alphas,
    )
