"""Config parsing, CSV and report emission, and the exprabelo command line.

The config format is flat ``key = value`` text with ``#`` comments. Floats
are printed everywhere with 17 significant digits so every file round-trips
bit for bit; numpy writes and reads the CSV tables, always with LF endings.
argparse declares each command's own arguments, so an option that a command
does not read is a usage error (exit 2). Status lines go to stderr and data
goes to files only.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
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
    RiemannCheck,
    StabilityReport,
    SupMonitorReport,
    burgers_sanity,
    epsilon_convergence,
    expansion_shock_field,
    grid_convergence,
    kruzhkov_on_field,
    kruzhkov_residual,
    l1_stability_check,
    lp_balance_ladder,
    mass_balance_ladder,
    run_ladder,
)

CSV_HEADER = "t,x,v,u,P"
CSV_CHUNK_ROWS = 1024  # rows formatted by one % operation and written at once


def _fmt(x: float) -> str:
    return "%.17g" % (float(x),)


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _parse_list(raw: str, kind) -> tuple:
    """A comma list of ``kind`` values; empty entries are skipped."""
    return tuple(kind(tok) for tok in raw.split(",") if tok.strip())


def _parse_float(raw: str) -> float:
    """A float that is not NaN."""
    value = float(raw)
    if value != value:
        raise ValueError("nan")
    return value


# config key -> its value's parser, which raises ValueError; init.* keys take _parse_float
_SCALAR_KEYS = {
    "grid.x_min": _parse_float,
    "grid.x_max": _parse_float,
    "grid.n_cells": int,
    "init.preset": str,
    "scheme.flux": str,
    "scheme.epsilon": _parse_float,
    "scheme.cfl": _parse_float,
    "run.T": _parse_float,
    "run.snapshots": partial(_parse_list, kind=_parse_float),
    "diag.alphas": partial(_parse_list, kind=_parse_float),
}
_REQUIRED_KEYS = ("grid.x_min", "grid.x_max", "grid.n_cells", "init.preset", "run.T")


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
        try:
            return _SCALAR_KEYS.get(key, _parse_float)(raw)
        except ValueError:
            raise ConfigError(f"malformed value {raw!r} for {key}", line_no) from None

    def given(keys: dict) -> dict:
        """{argument: parsed value} for the document keys that are present, so
        that absent ones take the constructor's own default."""
        return {arg: get(key) for key, arg in keys.items() if key in pairs}

    scheme = given({f"scheme.{name}": name for name in ("flux", "epsilon", "cfl")})
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

def _write_csv(path, header: str, cols) -> None:
    """The bytes ``np.savetxt(fh, np.column_stack(cols), fmt="%.17g",
    delimiter=",", header=header, comments="")`` writes, one ``%`` format and
    one ``write`` per chunk of rows instead of per row. A whole number below
    2^53, such as a count, prints as an integer, as ``%d`` would print it."""
    table = np.column_stack(cols)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_snapshot_csv(snapshot: Snapshot, path) -> None:
    """One row per cell: t,x,v,u,P at 17 significant digits, LF endings."""
    cols = (snapshot.x, snapshot.field_v.values, snapshot.u, snapshot.p.cell_values)
    _write_csv(path, CSV_HEADER, (np.full(snapshot.x.size, snapshot.time), *cols))


def read_snapshot_csv(path) -> tuple:
    """Read back a snapshot CSV as (t, x, v, u, P) float arrays, bitwise."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != CSV_HEADER:
            raise ValueError(f"{path}: missing snapshot header {CSV_HEADER!r}")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: snapshot has no rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 columns")
    return tuple(np.ascontiguousarray(data[:, j]) for j in range(5))


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> None:
    """Per-step diagnostics table: ``series.columns`` under their names, in
    order; the clip counts print as integers."""
    _write_csv(path, ",".join(series.columns), list(series.columns.values()))


# ---------------------------------------------------------------------------
# report emission: comment block + deterministic key=value section
# ---------------------------------------------------------------------------

# report class -> (namespace, title, keys, file name, status). A key reads the
# attribute of the same name, or the second member of a (key, attribute) pair,
# which may also be a function of the report. Keys ending in "_" expand to one
# numbered key per entry; None values are left out. A command writes a report
# to its file name and prints status(report, out dir) after its own words.
_REPORT_FORMATS = {
    BalanceReport: ("balance", "power balance, alpha = {r.alpha:g}", (
        "alpha", "initial_norm", "terminal_residual", "max_residual",
        "relative_terminal", "order", "level_cells", "level_terminals",
        ("pass", "passed"),
    ), "balance_a{r.alpha:g}.report", lambda r, out: (
        f"alpha={r.alpha:g} relative terminal residual {r.relative_terminal:.3e} ({_verdict(r)})"
    )),
    MassBalanceReport: ("mass_balance", "mass balance with integration-by-parts closure", (
        "initial_mass", "terminal_residual", "max_residual", "relative_max", "order",
        "level_cells", "level_maxima", ("pass", "passed"),
    ), "mass_balance.report", lambda r, out: (
        f"mass identity relative residual {r.relative_max:.3e} ({_verdict(r)})"
    )),
    SupMonitorReport: ("sup_monitor", "running maximum of u against its initial value", (
        "sup_u0", "max_sup_u", "worst_excess", "tol", "violated",
        "first_violation_time", "violation_location",
    ), None, None),
    EntropyReport: ("entropy", "Kruzhkov weak-form certificate", (
        "family", "n_phi", "dx", "tolerance", "min_value", "margin_ratio", "levels",
        "min_by_level", ("pass", "passed"),
    ), "entropy.report", lambda r, out: (
        f"min weak value {r.min_value:.3e} vs tolerance -{r.tolerance:.3e} ({_verdict(r)})"
    )),
    StabilityReport: ("stability", "L1 stability of u against the Gronwall envelope", (
        "R", "T", ("C0", "c0"), ("CT", "c_of_t"), "sup_u0", "sup_w0", "max_measured",
        "min_margin", "wide_window_clipped", ("times", "sample_times"), "measured",
        "bound", "bound_wide", "margins", ("pass", "passed"),
    ), "stability.report", lambda r, out: (
        f"max measured {r.max_measured:.3e}, min margin {r.min_margin:.3e} ({_verdict(r)})"
    )),
    ConvergenceReport: ("convergence", "{r.kind} ladder in L1 at final time", (
        "kind", "params", ("distance_", "distances"), ("cauchy_", "cauchy"), "order",
        "monotone", ("pass", "passed"),
    ), "sweep_{r.kind}.report", lambda r, out: (
        f"distances {[float('%.3e' % d) for d in r.distances]} monotone={r.monotone}"
    )),
    RiemannCheck: ("burgers", "source-free Riemann sanity against exact solutions", (
        "n_cells", "dx", "shock_position_error", "shock_tol", "rarefaction_l1_error",
        "rarefaction_tol", ("pass", "passed"),
    ), "burgers.report", lambda r, out: (
        f"shock error {r.shock_position_error:.3e} (tol {r.shock_tol:.3e}), rarefaction error "
        f"{r.rarefaction_l1_error:.3e} (tol {r.rarefaction_tol:.3e}) ({_verdict(r)})"
    )),
    RunResult: ("run", "run summary", (
        ("T", lambda r: r.diagnostics["time"][-1]), ("n_cells", lambda r: r.grid.n_cells),
        ("dx", lambda r: r.grid.dx), ("steps", lambda r: r.diagnostics["time"].size - 1),
        ("snapshots", lambda r: len(r.snapshots)),
        ("clip_total", lambda r: np.sum(r.diagnostics["clip_count"])),
        ("mass_initial", lambda r: r.diagnostics["mass"][0]),
        ("mass_final", lambda r: r.diagnostics["mass"][-1]),
        ("sup_u_initial", lambda r: r.diagnostics["sup_u"][0]),
        ("sup_u_final", lambda r: r.diagnostics["sup_u"][-1]),
        ("boundary_flux_max", lambda r: np.max(r.diagnostics["boundary_flux"])),
    ), "run.report", lambda r, out: (
        f"{len(r.snapshots)} snapshot file(s), diagnostics.csv and run.report written to {out}"
    )),
}


def _verdict(report) -> str:
    return "pass" if report.passed else "FAIL"


def _fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def report_text(report) -> str:
    """Render a report or a run summary as a comment header plus key=value lines."""
    if type(report) not in _REPORT_FORMATS:
        raise TypeError(f"no report format for {type(report).__name__}")
    namespace, title, keys, _, _ = _REPORT_FORMATS[type(report)]
    lines = [f"# {title.format(r=report)}"]
    for entry in keys:
        key, attr = entry if isinstance(entry, tuple) else (entry, entry)
        value = attr(report) if callable(attr) else getattr(report, attr)
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

def _finish(args, words: str, reports, tables=()) -> int:
    """The one exit of every command, once its input is validated and its
    results computed, so a rejected command leaves no directory behind: it
    creates ``--out``, writes each (file name, writer) table and each report,
    prints one status line per report after ``words``, and returns 1 if a
    report failed, else 0. A run summary carries no verdict."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in tables:
        write(out / name)
    for rep in reports:
        _, _, _, name, status = _REPORT_FORMATS[type(rep)]
        write_report(rep, out / name.format(r=rep))
        print(f"{words} {status(rep, out)}", file=sys.stderr)
    return 0 if all(getattr(rep, "passed", True) for rep in reports) else 1


def _cmd_simulate(args) -> int:
    run = run_simulation(load_config(args.config))
    tables = [
        (f"snapshot_{i:04d}.csv", partial(write_snapshot_csv, snap))
        for i, snap in enumerate(run.snapshots)
    ]
    tables.append(("diagnostics.csv", partial(write_diagnostics_csv, run.diagnostics)))
    return _finish(args, "simulate:", [run], tables)


def _load_evolving_config(path, command: str) -> RunConfig:
    """The config at ``path``, refused before anything runs when run.T = 0."""
    cfg = load_config(path)
    if cfg.final_time == 0.0:
        raise ConfigError(f"{command} needs run.T > 0: at T = 0 it has nothing to check")
    return cfg


def _cmd_verify_balance(args) -> int:
    cfg = _load_evolving_config(args.config, "verify balance")
    # the mass report is always written, so refuse before anything runs
    if 0.0 not in cfg.diagnostic_alphas:
        raise ConfigError("verify balance needs alpha = 0 in diag.alphas for the mass balance")
    # an empty --ladder= is a ladder of no rungs, which run_ladder refuses
    runs = (
        [run_simulation(cfg)] if args.ladder is None
        else run_ladder(cfg, _parse_list(args.ladder, int))
    )
    reports = [lp_balance_ladder(runs, a) for a in cfg.diagnostic_alphas]
    return _finish(args, "verify balance:", [*reports, mass_balance_ladder(runs)])


def _cmd_verify_entropy(args) -> int:
    if args.fixture == "expansion-shock":
        rep = kruzhkov_on_field(*expansion_shock_field())
        source = "expansion-shock fixture"
    else:
        rep = kruzhkov_residual(_load_evolving_config(args.config, "verify entropy"))
        source = args.config
    return _finish(args, f"verify entropy: {source}", [rep])


def _cmd_verify_stability(args) -> int:
    rep = l1_stability_check(load_config(args.config), load_config(args.cfg2), R=args.R)
    return _finish(args, "verify stability:", [rep])


def _cmd_sweep(args) -> int:
    cfg = _load_evolving_config(args.config, f"sweep {args.axis}")
    if args.axis == "epsilon":
        ladder = EPSILON_LADDER if args.ladder is None else _parse_list(args.ladder, float)
        rep = epsilon_convergence(cfg, ladder)
        header = "epsilon,l1_distance_to_limit"
    else:
        n = cfg.grid.n_cells
        ns = (n, 2 * n, 4 * n) if args.ladder is None else _parse_list(args.ladder, int)
        rep = grid_convergence(cfg, ns)
        header = "n_cells_coarse,l1_distance_to_refined"
    cols = (rep.params[: len(rep.distances)], rep.distances)
    ladder_csv = ("ladder.csv", partial(_write_csv, header=header, cols=cols))
    return _finish(args, f"sweep {args.axis}:", [rep], [ladder_csv])


def _cmd_burgers_sanity(args) -> int:
    return _finish(args, "burgers-sanity:", [burgers_sanity(args.cells)])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exprabelo",
        description="Finite-volume laboratory for the exp-Rabelo equation in v = e^u.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command writes to --out, and all but burgers-sanity read a config
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    cfg = argparse.ArgumentParser(add_help=False, parents=[out])
    cfg.add_argument("config", help="path to a key = value config file")
    ladder = argparse.ArgumentParser(add_help=False, parents=[cfg])
    ladder.add_argument("--ladder", help="comma list of cell counts or viscosities")

    p = sub.add_parser("simulate", parents=[cfg], help="run one configuration and dump CSV output")
    p.set_defaults(run=_cmd_simulate)

    checks = sub.add_parser("verify", help="run one verifier and write its report")
    checks = checks.add_subparsers(dest="check", required=True)
    p = checks.add_parser("balance", parents=[ladder], help="power-norm and mass budgets")
    p.set_defaults(run=_cmd_verify_balance)
    p = checks.add_parser("entropy", parents=[out], help="Kruzhkov entropy certificate")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", help="path to a config file")
    source.add_argument("--fixture", choices=("expansion-shock",),
                        help="built-in analytic field instead of a run")
    p.set_defaults(run=_cmd_verify_entropy)
    p = checks.add_parser("stability", parents=[cfg], help="L1 stability between two configs")
    p.add_argument("--cfg2", required=True, help="comparison config on the same grid")
    p.add_argument("--R", type=float, default=2.0, help="stability window radius")
    p.set_defaults(run=_cmd_verify_stability)

    axes = sub.add_parser("sweep", help="run a refinement ladder")
    axes = axes.add_subparsers(dest="axis", required=True)
    for axis in ("epsilon", "grid"):
        axes.add_parser(axis, parents=[ladder]).set_defaults(run=_cmd_sweep)

    p = sub.add_parser("burgers-sanity", parents=[out], help="check the source-free Riemann cases")
    p.add_argument("--cells", type=int, default=1024)
    p.set_defaults(run=_cmd_burgers_sanity)
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the process exit status.

    0 means every requested check passed, 1 means a verification failed, and
    2 means the invocation, configuration or installation was unusable: a
    grid the machine cannot allocate, or a scipy piece that cannot be imported.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # the program's own checks refuse and name every overflow or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except (ValueError, RuntimeError, OSError, MemoryError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
    raise SystemExit(dispatch(argv))
