"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py --out perfbench/trajectory/NN-name.json

Runs run.py --trace 0 on seeds 1 to 10 for each workload, one after another,
then one --trace 1 run per workload on seed 1. Writes every run's metrics and
report lines (which also hold the metrics that are printed but not gated) and,
per end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, which BENCHMARK.json's bound
must exceed. Prints the spreads against the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(workload, seed, trace, seconds) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, 0, spec["run_seconds"]) for seed in range(1, RUNS + 1)]
        traced = bench(workload, 1, 1, spec["run_seconds"])
        stats = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        record["workloads"][workload] = {
            "machine": runs[0]["report"][1],
            "end_to_end": stats,
            "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                      "report": r["report"][2:]}
                     for seed, r in enumerate(runs, start=1)],
            "traced": {"seed": 1, "correct": traced["correct"], "report": traced["report"][2:4],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for name, s in stats.items():
            flag = "ok" if s["spread"] <= bounds[name] / 3 else ("WITHIN BOUND" if s["spread"] <= bounds[name] else "OVER BOUND")
            print(f"{workload:<13} {name:<13} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {flag}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
