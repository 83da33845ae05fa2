"""Repeat the benchmark over several seeds and measure how steady it is.

    python3 bench/steadiness.py --label seed --out bench/results/BENCH_seed.json

For every workload in ``BENCHMARK.json`` it runs ``run.py`` for
``run_seconds`` once per seed 1 to 10 (untraced), then once traced on seed 1.
For each end-to-end metric it reports the ten values, their median and
quartiles (``statistics.quantiles`` with n=4) and the spread,
(q3 - q1) / median, next to the metric's bound in ``BENCHMARK.json``. The
output file also holds each run's environment record, output digests and
error rate. With ``--compare`` it also reports, for each workload and metric,
how much worse this set's median is than the median in an earlier file,
next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / ".work" / workload / "result.json").read_text())
    keep = ("seed", "init", "env", "attempted", "failed", "error_rate", "digests",
            "setup_samples_s", "wall_s", "cpu_s", "counts_repeat")
    return {**{k: record[k] for k in keep if k in record},
            "op_wall_s": [op["wall_s"] for op in record["ops"]],
            "correct": result["correct"], "metrics": result["metrics"],
            "process_s": elapsed}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def compare(old: dict, new: dict, spec: dict) -> dict:
    """How much worse each new median is than the old one, as a share of the
    old median (negative when better), against the metric's bound."""
    out = {"against": old["label"], "workloads": {}}
    for name, entry in new["workloads"].items():
        if name not in old["workloads"]:
            continue
        rows = {}
        for metric in spec["end_to_end"]:
            before = old["workloads"][name]["summary"][metric["name"]]["median"]
            after = entry["summary"][metric["name"]]["median"]
            worse = (after - before) / before
            if metric["better"] == "higher":
                worse = -worse
            rows[metric["name"]] = {"before": before, "after": after, "worse_by": worse,
                                    "bound": metric["bound"],
                                    "within": worse <= metric["bound"]}
            print(f"{name} {metric['name']}: {before:.4g} -> {after:.4g} "
                  f"worse by {worse:+.4f} (bound {metric['bound']})", flush=True)
        out["workloads"][name] = rows
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--compare", type=Path, help="earlier output of this script")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    doc = {"label": args.label, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in names:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            m = runs[-1]["metrics"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in m.items())
                + f" failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {**spread(values), "bound": metric["bound"],
                                       "values": values}
            s = summary[metric["name"]]
            print(f"  {metric['name']}: median {s['median']:.4g} spread {s['spread']:.4f} "
                  f"(bound {metric['bound']}, a third is {metric['bound'] / 3:.4f})",
                  flush=True)
        doc["workloads"][name] = {"summary": summary, "runs": runs,
                                  "traced": run_once(name, SEEDS[0], seconds, 1)}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if args.compare:
        doc["compare"] = compare(json.loads(args.compare.read_text()), doc, spec)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
