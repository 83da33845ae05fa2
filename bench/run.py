"""exprabelo benchmark: one workload, run through the public CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop from one
process: one CLI operation (``exprabelo.cli_io.dispatch``) at a time, back to
back, started until S seconds have passed. The workload config is generated from the seed
(see ``workloads.py``); the program sees only that file.

With ``--trace 0`` the end-to-end metrics are printed: wall_s and cpu_s per
operation (median, quartiles and sample count), the peak RSS of the workload
process, and setup_s, the median over several fresh processes of the time
from process start to the end of importing exprabelo and loading the config.
With ``--trace 1`` the operations alternate untraced and traced, and the
per-layer metrics of ``spans.py`` are printed together with the tracing
overhead. Every operation's exit status, files, row counts, verdicts and
output digests are checked; a failed operation counts in error_rate.

The last stdout line is a JSON object with the keys correct, attempted,
failed and metrics. The full record, spans included when traced, is kept in
``bench/.work/<workload>/``. The exit status is 0 when every operation was
correct, 1 when some failed, and 2 (with no result line) when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import MIN_TRACED_ROUNDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROCESSES = 11
SMOKE_SETUP_PROCESSES = 2
# Allowances for the time limit of a run: a fresh process up to its ready
# line, and one full-size operation (the slowest, a traced sweep, takes ~10 s).
SETUP_LIMIT_S = 5.0
OP_LIMIT_S = 15.0


class ProgramError(RuntimeError):
    """The workload process could not start or did not finish."""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def start_worker(args, work: Path, deadline: float, *extra):
    """Start a workload process; return it with the seconds until it is ready."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--config", str(work / "run.cfg"), *extra]
    if args.smoke:
        cmd.append("--smoke")
    with open(work / "worker.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, bufsize=0)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if readable else b""  # unbuffered: reads just this line
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise ProgramError(f"workload process did not get ready; see {work / 'worker.log'}")
    return proc, setup


def finish(proc, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ProgramError("workload process ran past the time limit") from None
    if proc.returncode != 0:
        raise ProgramError(f"workload process exited with status {proc.returncode}")
    return out


def time_limit(args, setups: int) -> float:
    """Seconds a whole run may take: the set-up processes, the measured
    seconds, and the operations that may run past them (one untraced; up to
    the minimum traced rounds when traced)."""
    ops = 2 * MIN_TRACED_ROUNDS if args.trace else 1
    return setups * SETUP_LIMIT_S + args.seconds + ops * OP_LIMIT_S


def run(args) -> tuple[dict, dict]:
    setup_processes = 1 if args.trace else (
        SMOKE_SETUP_PROCESSES if args.smoke else SETUP_PROCESSES)
    deadline = time.monotonic() + time_limit(args, setup_processes)
    wl = workloads.get(args.workload, args.smoke)
    params = workloads.init_params(args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "run.cfg").write_text(workloads.config_text(wl, params), encoding="utf-8")

    setups = []
    for _ in range(setup_processes - 1):
        proc, setup = start_worker(args, work, deadline, "--setup-only")
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = start_worker(args, work, deadline, "--seconds", str(args.seconds),
                               "--trace", str(args.trace))
    setups.append(setup)
    result = json.loads(finish(proc, deadline).splitlines()[-1])

    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "init": params, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "env": result["env"],
        "attempted": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "load_error": result["load_error"], "digests": result["digests"],
        "setup_samples_s": setups, "ops": ops,
    }
    if args.trace:
        record["counts_repeat"] = result["counts_repeat"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layer"].items()}
    else:
        metrics = {}
        for name in ("wall_s", "cpu_s"):
            values = [op[name] for op in ops]
            q1, q3 = _quartiles(values)
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            record[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                            "n": len(values)}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, short runs and fewer set-up processes, "
                         "for the benchmark's own tests")
    args = ap.parse_args()

    try:
        record, metrics = run(args)
    except (ProgramError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"init {json.dumps(record['init'])}")
    print("env " + json.dumps(record["env"]))
    for name in ("wall_s", "cpu_s"):
        if name in record:
            r = record[name]
            print(f"{name} median {r['median']:.6f} q1 {r['q1']:.6f} q3 {r['q3']:.6f} "
                  f"n {r['n']} (s)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"error_rate {record['error_rate']!r} ({record['failed']} of "
          f"{record['attempted']} operations failed)")
    for name, digest in record["digests"].items():
        print(f"sha256 {digest} {name}")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            print(f"problem op {i}: {problem}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
