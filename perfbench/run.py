"""Benchmark of the mosaicseg reference executor and cost model.

    python3 perfbench/run.py --workload city_forward|ade_stream|cost_sweep \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --regenerate

Run from the root of a checkout. The program is imported from the checkout's
``src``; nothing is installed. Every job runs in a fresh worker process with the
BLAS thread count pinned to the usable cores. Inputs are generated from --seed
into a scratch directory under ``.perfbench_work/`` that is removed afterwards.

Prints a readable report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--regenerate`` rewrites golden.json from the current tree and records its commit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED, HELD_OUT_SEED = 1, 2
# set-up is timed in fresh processes: one untimed warm-up, then this many before
# and as many after the timed phase, so the median spans the host's state over the run
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mosaicseg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git(*argv) -> str | None:
    """Output of a git command on this checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Worker:
    """Starts worker.py jobs, each in a fresh process, within one deadline."""

    def __init__(self, time_limit: float):
        self.deadline = time.monotonic() + time_limit
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def __call__(self, job, **options) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), job]
        for key, value in options.items():
            argv += [f"--{key}", str(value)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before the {job} job")
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {job} job did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"the {job} job exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# Printed beside the end-to-end metrics but not gated by a bound: wall-clock times
# follow the shared host's speed, which moves by 30-45% for minutes at a time, so
# they are gated as item_time_ref and the scaled setup_s; failed_frac is 1 - ok_frac.
REPORTED_ONLY = {"setup_wall_s": "s", "first_item_s": "s", "item_p50_s": "s", "items_per_s": "1/s",
                 "failed_frac": "frac"}


def end_to_end(setup_times, result) -> dict[str, float]:
    latencies = result["latencies"]
    return {
        "setup_s": statistics.median(t["setup_s"] for t in setup_times),
        "setup_wall_s": statistics.median(t["setup_wall_s"] for t in setup_times),
        "first_item_s": result["first_item_s"],
        "item_p50_s": statistics.median(latencies) if latencies else result["first_item_s"],
        "items_per_s": result["completed"] / result["item_s"],
        "item_time_ref": (result["item_s"] / result["timed_items"]) / (result["ref_s"] / result["ref_runs"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
        "failed_frac": result["failed"] / result["attempted"],
    }


def report(args, units, values, result, setup_times, machine):
    facts = dict(result["facts"], commit=git("rev-parse", "HEAD") or "unknown (not a git checkout)",
                 source_sha256=source_sha256())
    print(f"mosaicseg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, one client in a closed loop")
    print("machine: " + json.dumps(facts))
    if machine:
        print(f"machine: last-level cache {machine['llc_bytes']} B, triad arrays "
              f"{machine['triad_array_bytes']} B each, three arrays")
    print(f"output gate: {result['gate']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    notes = {
        "setup_s": (f"median of {len(setup_times)} fresh processes, half before and half after the timed phase, "
                    "each scaled by the interpreter reference timed after it"),
        "setup_wall_s": "the same set-ups by the wall clock; not gated",
        "first_item_s": "not gated",
        "item_p50_s": f"n={len(result['latencies'])} items after the first; not gated",
        "items_per_s": "per second of item time; not gated",
        "item_time_ref": (f"mean item time over the mean of {result['ref_runs']} reference runs "
                          f"of {result['ref_s'] / max(result['ref_runs'], 1):.4f} s"),
        "peak_rss_mb": (f"analytic live float32 buffers {result['peak_live_mb']:.1f} MB"
                        if result["peak_live_mb"] else "no forward pass"),
        "failed_frac": f"{result['failed']} of {result['attempted']} items",
    }
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>14.6g} {units[name]}{note}")


def run(spec, args) -> int:
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    worker = Worker(TIME_LIMIT_S)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        worker("inputs", workload=args.workload, seed=args.seed, dir=workdir)

        def probe_setup():
            return [worker("setup", workload=args.workload, dir=workdir) for _ in range(SETUP_PROBES)]

        worker("setup", workload=args.workload, dir=workdir)
        setup_times = probe_setup()
        machine = worker("machine") if args.trace else None
        result = worker("run", workload=args.workload, seed=args.seed, dir=workdir,
                        seconds=args.seconds, trace=args.trace)
        setup_times += probe_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec_metrics}
    if args.trace:
        values = dict(result["per_layer"])
        values["machine.stream_triad_gbps"] = machine["stream_triad_gbps"]
        values["machine.dgemm_gmacs"] = machine["dgemm_gmacs"]
        values = {name: values[name] for name in units if name in values}
    else:
        values = end_to_end(setup_times, result)
        units.update(REPORTED_ONLY)
    if sorted(values) != sorted(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    report(args, units, values, result, setup_times, machine)
    problems = result.get("accounting", [])
    for problem in problems:
        print(f"  TRACE ACCOUNTING FAILED: {problem}")
    if problems:
        raise BenchError("the traced execute spans do not add up")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }))
    return 0


def _dump(golden: dict) -> str:
    """JSON with one line per scene list and per cost item, for readable diffs."""
    parts = []
    for key, value in golden.items():
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            parts.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def regenerate(spec) -> int:
    """Rewrite golden.json: digests of every scene on the default and held-out
    seeds, and the totals of every cost_sweep item."""
    commit = git("rev-parse", "HEAD")
    if commit is None:
        raise BenchError("--regenerate records the commit it ran on, so it must run in a git checkout")
    golden = {"commit": commit, "src_modified": bool(git("status", "--porcelain", "--", "src")),
              "source_sha256": source_sha256(), "seeds": [DEFAULT_SEED, HELD_OUT_SEED]}
    worker = Worker(3000.0)
    WORK.mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"] if w["name"] != "cost_sweep"):
        golden[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK)
            try:
                worker("inputs", workload=workload, seed=seed, dir=workdir)
                golden[workload][str(seed)] = worker("golden", workload=workload, seed=seed, dir=workdir)["scenes"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    golden["cost_sweep"] = worker("golden", workload="cost_sweep")["totals"]
    GOLDEN.write_text(_dump(golden))
    print(f"wrote {GOLDEN.relative_to(ROOT)} at commit {commit}")
    return 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    if not args.regenerate and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "mosaicseg" / "__init__.py").is_file():
        print(f"error: no mosaicseg source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        return regenerate(spec) if args.regenerate else run(spec, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
