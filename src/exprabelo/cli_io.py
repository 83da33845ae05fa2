"""Config parsing, CSV and report emission, and the exprabelo command line.

The config format is flat ``key = value`` text with ``#`` comments. Floats
are printed everywhere with 17 significant digits so every file round-trips
bit for bit; diagnostics go to stderr and data goes to files only.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .grid_field import PRESET_DEFAULTS, InitialDataSpec, build_grid
from .scheme import FLUXES, SchemeConfig
from .solver import DiagnosticsSeries, RunConfig, RunResult, Snapshot, run_simulation
from .verifiers import (
    BalanceReport,
    ConvergenceReport,
    EPSILON_LADDER,
    EntropyReport,
    MassBalanceReport,
    MmsReport,
    RiemannCheck,
    StabilityReport,
    SupMonitorReport,
    burgers_sanity,
    dense_snapshot_times,
    epsilon_convergence,
    expansion_shock_field,
    grid_convergence,
    kruzhkov_on_field,
    kruzhkov_residual,
    l1_stability_check,
    lp_balance_ladder,
    lp_balance_residual,
    mass_balance_identity,
    mass_balance_ladder,
    run_ladder,
)

CSV_HEADER = "t,x,v,u,P"


def _fmt(x: float) -> str:
    return "%.17g" % (float(x),)


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "grid.x_min": float,
    "grid.x_max": float,
    "grid.n_cells": int,
    "init.preset": str,
    "scheme.flux": str,
    "scheme.epsilon": float,
    "scheme.cfl": float,
    "scheme.v_floor": float,
    "run.T": float,
    "run.snapshots": "float_list",
    "diag.alphas": "float_list",
}
_REQUIRED_KEYS = ("grid.x_min", "grid.x_max", "grid.n_cells", "init.preset", "run.T")


def _parse_scalar(kind, key: str, raw: str, line_no: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if value != value:
                raise ValueError("nan")
            return value
        if kind == "float_list":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"malformed value {raw!r} for {key}", line_no) from None
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated run configuration.

    Unknown keys, duplicates, and malformed numbers are rejected with the
    offending line number; invariant violations (grid alignment, CFL range,
    preset parameters) surface from the constructors they belong to.
    """
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", line_no)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        pairs[key] = (value, line_no)

    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")

    preset_raw, preset_line = pairs["init.preset"]
    if preset_raw not in PRESET_DEFAULTS:
        raise ConfigError(
            f"unknown preset {preset_raw!r}; expected one of {sorted(PRESET_DEFAULTS)}",
            preset_line,
        )
    init_keys = {f"init.{name}" for name in PRESET_DEFAULTS[preset_raw]}

    for key, (_, line_no) in pairs.items():
        if key not in _SCALAR_KEYS and key not in init_keys:
            raise ConfigError(f"unknown key {key!r}", line_no)

    def get(key: str):
        raw, line_no = pairs[key]
        return _parse_scalar(_SCALAR_KEYS.get(key, float), key, raw, line_no)

    def given(keys: dict) -> dict:
        """{argument: parsed value} for the document keys that are present, so
        that absent ones take the constructor's own default."""
        return {arg: get(key) for key, arg in keys.items() if key in pairs}

    scheme = given({f"scheme.{name}": name for name in ("flux", "epsilon", "cfl", "v_floor")})
    if "flux" in scheme and scheme["flux"] not in FLUXES:
        raise ConfigError(
            f"unknown flux {scheme['flux']!r}; expected one of {list(FLUXES)}",
            pairs["scheme.flux"][1],
        )
    return RunConfig(
        grid=build_grid(get("grid.x_min"), get("grid.x_max"), get("grid.n_cells")),
        init=InitialDataSpec(
            preset_raw, given({f"init.{name}": name for name in PRESET_DEFAULTS[preset_raw]})
        ),
        scheme=SchemeConfig(**scheme),
        final_time=get("run.T"),
        **given({"run.snapshots": "snapshot_times", "diag.alphas": "diagnostic_alphas"}),
    )


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_snapshot_csv(snapshot: Snapshot, path) -> None:
    """One row per cell: t,x,v,u,P at 17 significant digits, LF endings."""
    t = _fmt(snapshot.time)
    rows = [CSV_HEADER]
    for x, v, u, p in zip(
        snapshot.x,
        snapshot.field_v.values,
        snapshot.field_u.values,
        snapshot.p.cell_values,
    ):
        rows.append(f"{t},{_fmt(x)},{_fmt(v)},{_fmt(u)},{_fmt(p)}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


def read_snapshot_csv(path) -> tuple:
    """Read back a snapshot CSV as (t, x, v, u, P) float arrays, bitwise."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing snapshot header {CSV_HEADER!r}")
    data = np.array(
        [[float(tok) for tok in line.split(",")] for line in lines[1:]],
        dtype=np.float64,
    )
    if data.ndim != 2 or data.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 columns")
    return tuple(np.ascontiguousarray(data[:, j]) for j in range(5))


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> None:
    """Per-step diagnostics table, one CSV column per ``series.columns()``
    entry; integer columns are written as integers."""
    names, cols = zip(*series.columns())
    text = [map(str if col.dtype.kind == "i" else _fmt, col.tolist()) for col in cols]
    rows = [",".join(names)] + [",".join(cells) for cells in zip(*text)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# report emission: comment block + deterministic key=value section
# ---------------------------------------------------------------------------

# report class -> (namespace, title, keys). A key reads the attribute of the
# same name, or the second member of a (key, attribute) pair. Keys ending in
# "_" expand to one numbered key per entry; None values are left out.
_REPORT_FORMATS = {
    BalanceReport: ("balance", "power balance, alpha = {r.alpha:g}", (
        "alpha", "initial_norm", "terminal_residual", "max_residual",
        "relative_terminal", "order", "level_cells", "level_terminals",
        ("pass", "passed"),
    )),
    MassBalanceReport: ("mass_balance", "mass balance with integration-by-parts closure", (
        "initial_mass", "terminal_residual", "max_residual", "relative_max", "order",
        "level_cells", "level_maxima", ("pass", "passed"),
    )),
    SupMonitorReport: ("sup_monitor", "running maximum of u against its initial value", (
        "sup_u0", "max_sup_u", "worst_excess", "tol", "violated",
        "first_violation_time", "violation_location",
    )),
    EntropyReport: ("entropy", "Kruzhkov weak-form certificate", (
        "family", "n_phi", "dx", "tolerance", "min_value", "margin_ratio", "levels",
        "min_by_level", ("pass", "passed"),
    )),
    StabilityReport: ("stability", "L1 stability of u against the Gronwall envelope", (
        "R", "T", ("C0", "c0"), ("CT", "c_of_t"), "sup_u0", "sup_w0", "max_measured",
        "min_margin", "wide_window_clipped", ("times", "sample_times"), "measured",
        "bound", "bound_wide", "margins", ("pass", "passed"),
    )),
    ConvergenceReport: ("convergence", "{r.kind} ladder in L1 at final time", (
        "kind", "params", ("distance_", "distances"), ("cauchy_", "cauchy"), "order",
        "monotone", ("pass", "monotone"),
    )),
    RiemannCheck: ("burgers", "source-free Riemann sanity against exact solutions", (
        "n_cells", "dx", "shock_position_error", "shock_tol", "rarefaction_l1_error",
        "rarefaction_tol", ("pass", "passed"),
    )),
    MmsReport: ("mms", "manufactured-solution L1 order", (
        ("cells", "n_ladder"), "errors", "pair_orders", "order", ("pass", "passed"),
    )),
}


def _fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def report_text(report) -> str:
    """Render a verifier report as a comment header plus key=value lines."""
    if type(report) not in _REPORT_FORMATS:
        raise TypeError(f"no report format for {type(report).__name__}")
    namespace, title, keys = _REPORT_FORMATS[type(report)]
    lines = [f"# {title.format(r=report)}"]
    for entry in keys:
        key, attr = entry if isinstance(entry, tuple) else (entry, entry)
        value = getattr(report, attr)
        if value is None:
            continue
        if key.endswith("_"):
            lines += [f"{namespace}.{key}{i}={_fmt(v)}" for i, v in enumerate(value, start=1)]
        else:
            lines.append(f"{namespace}.{key}={_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def write_report(report, path) -> None:
    Path(path).write_text(report_text(report), encoding="utf-8", newline="\n")


def read_report(path) -> dict:
    """Parse a report file back into a {key: string} mapping."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_report_items(run: RunResult) -> str:
    d = run.diagnostics
    lines = [
        "# run summary",
        f"run.T={_fmt(d.times[-1])}",
        f"run.n_cells={run.grid.n_cells}",
        f"run.dx={_fmt(run.grid.dx)}",
        f"run.steps={d.times.size - 1}",
        f"run.snapshots={len(run.snapshots)}",
        f"run.clip_total={int(np.sum(d.clip_counts))}",
        f"run.mass_initial={_fmt(d.mass[0])}",
        f"run.mass_final={_fmt(d.mass[-1])}",
        f"run.sup_u_initial={_fmt(d.sup_u[0])}",
        f"run.sup_u_final={_fmt(d.sup_u[-1])}",
        f"run.boundary_flux_max={_fmt(np.max(d.boundary_flux))}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    run = run_simulation(cfg)
    for i, snap in enumerate(run.snapshots):
        write_snapshot_csv(snap, out / f"snapshot_{i:04d}.csv")
    write_diagnostics_csv(run.diagnostics, out / "diagnostics.csv")
    (out / "run.report").write_text(_run_report_items(run), encoding="utf-8", newline="\n")
    _status(
        f"simulate: {len(run.snapshots)} snapshot file(s), diagnostics.csv and "
        f"run.report written to {out}"
    )
    return 0


def _parse_int_ladder(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _parse_float_ladder(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _cmd_verify_balance(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    ok = True
    if args.ladder:
        ns = _parse_int_ladder(args.ladder)
        runs = run_ladder(cfg, ns)
        reports = [lp_balance_ladder(runs, a) for a in cfg.diagnostic_alphas]
        mass_rep = mass_balance_ladder(runs)
    else:
        run = run_simulation(cfg)
        reports = [lp_balance_residual(run, a) for a in cfg.diagnostic_alphas]
        mass_rep = mass_balance_identity(run)
    for rep in reports:
        write_report(rep, out / f"balance_a{rep.alpha:g}.report")
        ok = ok and rep.passed
        _status(
            f"verify balance: alpha={rep.alpha:g} relative terminal residual "
            f"{rep.relative_terminal:.3e} ({'pass' if rep.passed else 'FAIL'})"
        )
    write_report(mass_rep, out / "mass_balance.report")
    ok = ok and mass_rep.passed
    _status(
        f"verify balance: mass identity relative residual {mass_rep.relative_max:.3e} "
        f"({'pass' if mass_rep.passed else 'FAIL'})"
    )
    return 0 if ok else 1


def _cmd_verify_entropy(args) -> int:
    out = _out_dir(args)
    if args.fixture == "expansion-shock":
        grid, times, u_matrix = expansion_shock_field()
        rep = kruzhkov_on_field(grid, times, u_matrix)
        label = "expansion-shock fixture"
    else:
        if args.config is None:
            raise ConfigError("verify entropy needs a config file or --fixture")
        cfg = load_config(args.config)
        dense = dense_snapshot_times(cfg.grid, cfg.final_time)
        run = run_simulation(replace(cfg, snapshot_times=dense))
        rep = kruzhkov_residual(run)
        label = args.config
    write_report(rep, out / "entropy.report")
    _status(
        f"verify entropy: {label} min weak value {rep.min_value:.3e} vs "
        f"tolerance -{rep.tolerance:.3e} ({'pass' if rep.passed else 'FAIL'})"
    )
    return 0 if rep.passed else 1


def _cmd_verify_stability(args) -> int:
    if args.cfg2 is None:
        raise ConfigError("verify stability needs --cfg2 with the comparison config")
    cfg_u = load_config(args.config)
    cfg_w = load_config(args.cfg2)
    out = _out_dir(args)
    times = tuple(sorted(set(cfg_u.snapshot_times) | {0.0}))
    sample = tuple(t for t in times if t > 0.0)
    if not sample:
        raise ConfigError("stability needs at least one positive snapshot time")
    run_u = run_simulation(replace(cfg_u, snapshot_times=times))
    run_w = run_simulation(replace(cfg_w, snapshot_times=times))
    rep = l1_stability_check(run_u, run_w, R=args.R, T=cfg_u.final_time, sample_times=sample)
    write_report(rep, out / "stability.report")
    _status(
        f"verify stability: max measured {rep.max_measured:.3e}, min margin "
        f"{rep.min_margin:.3e} ({'pass' if rep.passed else 'FAIL'})"
    )
    return 0 if rep.passed else 1


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    if args.axis == "epsilon":
        ladder = _parse_float_ladder(args.ladder) if args.ladder else EPSILON_LADDER
        rep = epsilon_convergence(cfg, ladder)
        rows = ["epsilon,l1_distance_to_limit"]
        rows += [f"{_fmt(e)},{_fmt(d)}" for e, d in zip(rep.params, rep.distances)]
    else:
        if args.ladder:
            ns = _parse_int_ladder(args.ladder)
        else:
            n = cfg.grid.n_cells
            ns = (n, 2 * n, 4 * n)
        rep = grid_convergence(cfg, ns)
        rows = ["n_cells_coarse,l1_distance_to_refined"]
        rows += [f"{n},{_fmt(d)}" for n, d in zip(rep.params, rep.distances)]
    write_report(rep, out / f"sweep_{args.axis}.report")
    (out / "ladder.csv").write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    _status(
        f"sweep {args.axis}: distances {[float('%.3e' % d) for d in rep.distances]} "
        f"monotone={rep.monotone}"
    )
    return 0 if rep.monotone else 1


def _cmd_burgers_sanity(args) -> int:
    out = _out_dir(args)
    rep = burgers_sanity(args.cells)
    write_report(rep, out / "burgers.report")
    _status(
        f"burgers-sanity: shock error {rep.shock_position_error:.3e} (tol "
        f"{rep.shock_tol:.3e}), rarefaction error {rep.rarefaction_l1_error:.3e} "
        f"(tol {rep.rarefaction_tol:.3e}) ({'pass' if rep.passed else 'FAIL'})"
    )
    return 0 if rep.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exprabelo",
        description="Finite-volume laboratory for the exp-Rabelo equation in v = e^u.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration and dump CSV output")
    p_sim.add_argument("config", help="path to a key = value config file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_ver = sub.add_parser("verify", help="run one verifier and write its report")
    p_ver.add_argument("check", choices=("balance", "entropy", "stability"))
    p_ver.add_argument("config", nargs="?", help="path to a config file")
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--cfg2", help="comparison config (stability only)")
    p_ver.add_argument("--R", type=float, default=2.0, help="stability window radius")
    p_ver.add_argument("--ladder", help="comma list of cell counts (balance only)")
    p_ver.add_argument(
        "--fixture",
        choices=("expansion-shock",),
        help="built-in analytic field instead of a run (entropy only)",
    )

    p_sweep = sub.add_parser("sweep", help="run a refinement ladder")
    p_sweep.add_argument("axis", choices=("epsilon", "grid"))
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--ladder", help="comma list overriding the default ladder")

    p_bs = sub.add_parser("burgers-sanity", help="check the source-free Riemann cases")
    p_bs.add_argument("--out", required=True)
    p_bs.add_argument("--cells", type=int, default=1024)
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the process exit status.

    0 means every requested check passed, 1 means a verification failed, and
    2 means the invocation or configuration was unusable.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "verify":
            if args.check == "balance":
                if args.config is None:
                    raise ConfigError("verify balance needs a config file")
                return _cmd_verify_balance(args)
            if args.check == "entropy":
                return _cmd_verify_entropy(args)
            return _cmd_verify_stability(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_burgers_sanity(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
    raise SystemExit(dispatch(argv))
