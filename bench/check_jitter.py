"""Check that the seed jitter box keeps every workload's verdicts.

    python3 bench/check_jitter.py --out bench/results/jitter_check.json

Runs each workload's CLI operation once at the stock parameters and at the
eight corners of ``workloads.JITTER``, and applies the same output checks as
the benchmark: exit status 0 (so no DomainTooSmallError or other config
failure), the file set and row counts, a monotone epsilon ladder and a
passing entropy certificate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    cli_io = worker.import_program(ROOT)
    names = list(workloads.JITTER)
    points = [dict(workloads.STOCK_INIT)]
    points += [dict(zip(names, corner))
               for corner in itertools.product(*(workloads.JITTER[n] for n in names))]
    checks, ok = [], True
    work = ROOT / "bench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        for wl in workloads.WORKLOADS.values():
            for params in points:
                cfg = tmp / "run.cfg"
                cfg.write_text(workloads.config_text(wl, params), encoding="utf-8")
                rec = worker.run_op(cli_io.dispatch, wl, cfg, tmp / "out")
                ok = ok and not rec["problems"]
                checks.append({"workload": wl.name, "init": params,
                               "problems": rec["problems"], "wall_s": rec["wall_s"]})
                print(wl.name, params, rec["problems"] or "ok", flush=True)
    doc = {"jitter": workloads.JITTER, "passed": ok, "checks": checks}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
