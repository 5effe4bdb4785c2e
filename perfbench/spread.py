"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads gensets,cayley,qh] [--seeds 1-10]

Runs ``run.py`` once per seed and workload, one run at a time, then prints
for each metric the median and the distance between the first and third
quartiles as a share of the median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seeds_from(args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            report_path = ROOT / ".perfbench" / f"{workload}-trace0" / f"report-seed{seed}.json"
            report = json.loads(report_path.read_text())
            print(f"{workload} seed={seed} run={time.perf_counter() - started:.1f}s "
                  f"correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                  + " drift={before:.4f}/{after:.4f}".format(**report["drift_probe_s"])
                  + " wall: " + " ".join(f"{k}={v:.5g}" for k, v in report["wall_metrics"].items()),
                  flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for key, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            worst = max(worst, share / bounds[key])
            print(f"  {workload} {key}: median {median:.5g}  spread {share:.3f}  bound {bounds[key]}")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
