"""One workload process: import exprabelo from the checkout, load the config,
then run CLI operations back to back through ``exprabelo.cli_io.dispatch``.

``run.py`` starts this script and times it up to the ``ready`` line it
prints once set-up is done. Outputs go to ``out/`` and spans to
``spans.csv``, next to the config. The result goes to stdout as one JSON
line at the end. With ``--setup-only`` the process stops after ``ready``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

# A traced run makes at least this many rounds, whatever --seconds is, so
# that the exact counts are compared between operations and the tracing
# overhead is a median of several pairs.
MIN_TRACED_ROUNDS = 3


def import_program(root: Path):
    """Import exprabelo from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import exprabelo.cli_io

    where = Path(exprabelo.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"exprabelo was imported from {where}, not from {src}")
    return exprabelo.cli_io


def openblas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, asked through ctypes
    (threadpoolctl is not available)."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({m.group(1) for m in re.finditer(r"(/\S*openblas\S*\.so\S*)", fh.read())})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def env_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "openblas_threads": openblas_threads(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_op(dispatch, wl, cfg: Path, out: Path) -> dict:
    """Run one CLI operation and check its output."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workloads.argv(wl, cfg, out)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        status = dispatch(argv)
    except Exception as exc:  # a raising operation is a failed one, not a crash
        status = f"raised {exc!r}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if status != 0:
        problems = [f"exit status {status}"]
    else:
        problems = workloads.check_outputs(wl, out)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems,
            "digests": workloads.digests(out)}


def measure(cli_io, wl, cfg: Path, out: Path, seconds: float, trace: bool,
            spans_path: Path | None = None) -> dict:
    """Operations back to back for ``seconds``; with ``trace`` each round is
    one untraced and one traced operation.

    Rounds start until ``seconds`` have passed, so the last one ends up to a
    round later; with ``trace`` at least ``MIN_TRACED_ROUNDS`` are made.
    Every operation's files must hash the same as the first successful
    operation's.
    """
    tracer = spans.Tracer() if trace else None
    ops, rounds = [], 0
    reference = None
    begin = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.op = len(ops)
                tracer.install()
            try:
                rec = run_op(cli_io.dispatch, wl, cfg, out)
            finally:
                if traced:
                    tracer.uninstall()
            rec["traced"] = traced
            if not rec["problems"]:
                if reference is None:
                    reference = rec["digests"]
                elif rec["digests"] != reference:
                    rec["problems"].append("output digests differ from the first operation")
            ops.append(rec)
        rounds += 1
        if (time.perf_counter() - begin >= seconds
                and (not trace or rounds >= MIN_TRACED_ROUNDS)):
            break

    result = {
        "ops": ops,
        "digests": reference or {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced_ops = [i for i, rec in enumerate(ops) if rec["traced"]]
        per_op = [spans.layer_metrics(spans.op_stats(tracer.spans, i), wl.n_cells)
                  for i in traced_ops]
        exact = {"count", "B"}  # units of values that must repeat from one operation to the next
        layer = {name: [(statistics.median_low if unit in exact else statistics.median)(
                            [m[name][0] for m in per_op]), unit]
                 for name, (_, unit) in per_op[0].items()}
        layer["trace.overhead_s"] = [statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(ops[0::2], ops[1::2])), "s"]
        result["layer"] = layer
        result["counts_repeat"] = all(
            len({m[name][0] for m in per_op}) == 1
            for name, (_, unit) in per_op[0].items() if unit in exact)
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli_io = import_program(args.root)
    try:
        cli_io.load_config(args.config)
        load_error = None
    except ValueError as exc:  # the operations will fail on it and be counted
        load_error = str(exc)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wl = workloads.get(args.workload, args.smoke)
    work = args.config.parent
    result = measure(cli_io, wl, args.config, work / "out", args.seconds,
                     bool(args.trace), work / "spans.csv")
    result["load_error"] = load_error
    result["env"] = env_info()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
