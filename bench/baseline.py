"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py [--seeds 1-10] [--workloads scan-grid,...] [--write]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json. It then makes two
traced runs of each workload with the first seed and fails if a deterministic
counter differs between them. ``--write`` stores the summary, the first traced
run's per-layer metrics and the environment in ``baseline.json``; without it,
each median is compared with the one stored there, and the gap is printed as
a share of the stored median (positive means worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DETERMINISTIC, ROOT, environment

BASELINE_FILE = Path(__file__).resolve().parent / "baseline.json"


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    stored = json.loads(BASELINE_FILE.read_text())["workloads"] if BASELINE_FILE.is_file() else {}
    summary = {}
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        summary[workload] = {}
        for metric in bounds:
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"{workload:10s} {metric:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[metric]}{flag}", flush=True)
        for metric in bounds:
            if args.write or metric not in stored.get(workload, {}):
                continue
            ref = stored[workload][metric]["median"]
            gap = (summary[workload][metric]["median"] - ref) / ref
            gap = gap if better[metric] == "lower" else -gap
            flag = "  <-- worse by more than the bound" if gap > bounds[metric] else ""
            print(f"{workload:10s} {metric:14s} stored median {ref:12.6g}  gap {gap:+7.4f}  "
                  f"bound {bounds[metric]}{flag}", flush=True)

    per_layer = {}
    for workload in names:
        first, second = (run_once(workload, args.seeds[0], bench["run_seconds"], trace=1) for _ in range(2))
        differ = [k for k in first if k.rsplit(".", 1)[-1] in DETERMINISTIC and first[k] != second[k]]
        if differ:
            raise SystemExit(f"{workload}: counters differ between two traced runs: {differ}")
        per_layer[workload] = first
        print(f"{workload:10s} traced twice, deterministic counters identical", flush=True)

    if args.write:
        doc = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
               "environment": environment(), "workloads": summary,
               "per_layer": {"seed": args.seeds[0], "workloads": per_layer}}
        BASELINE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {BASELINE_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
