"""One benchmark job in a fresh process; prints one JSON object on stdout.

    python3 perfbench/worker.py inputs  --workload W --seed N --dir D
    python3 perfbench/worker.py setup   --workload W --dir D
    python3 perfbench/worker.py machine
    python3 perfbench/worker.py run     --workload W --seed N --dir D --seconds S --trace 0|1
    python3 perfbench/worker.py golden  --workload W --seed N --dir D

run.py starts every job with PYTHONPATH set to the checkout's ``src`` and the BLAS
thread count pinned. Only the standard library is imported at module level, so
the ``setup`` job's clock starts before numpy and mosaicseg are imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_EVERY_S = 0.25
REF_SHARE = 0.25


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def cmd_setup(args):
    """Time the set-up in this fresh process, then the interpreter reference
    (median of three runs), which gauges the host's speed at that moment.
    ``setup_s`` is scaled to a host on which the reference takes REF_NOMINAL_S."""
    start = time.perf_counter()
    import mosaicseg  # noqa: F401 -- the import is all of cost_sweep's set-up

    from workloads import FORWARD, REF_NOMINAL_S, config_for, interpreter_work, program, set_up

    if args.workload in FORWARD:
        ms = program()
        set_up(ms, config_for(ms, args.workload), Path(args.dir))
    wall_s = time.perf_counter() - start
    ref_s = statistics.median([_time(interpreter_work) for _ in range(3)])
    return {"setup_s": wall_s / ref_s * REF_NOMINAL_S, "setup_wall_s": wall_s}


def cmd_inputs(args):
    from workloads import make_inputs

    make_inputs(args.workload, args.seed, Path(args.dir))
    return {}


def _llc_bytes() -> int:
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            continue
        if out.isdigit() and int(out) > 0:
            return int(out)
    return 32 << 20


def _best_of(repeats, fn) -> float:
    return min(_time(fn) for _ in range(repeats))


def cmd_machine(args):
    """STREAM-style triad a = b + 3c over float64 arrays that together span 4x
    the last-level cache, and a float64 GEMM rate."""
    import numpy as np

    llc = _llc_bytes()
    n = -(-4 * llc // 24)
    b, c, a = np.full(n, 1.0), np.full(n, 2.0), np.empty(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    # numpy's two passes move five arrays: read c, write a, read a and b, write a
    triad_gbps = 5 * 8 * n / _best_of(4, triad) / 1e9
    del a, b, c
    m = 2048
    rng = np.random.default_rng(0)
    x, y = rng.random((m, m)), rng.random((m, m))
    dgemm_gmacs = m ** 3 / _best_of(3, lambda: x @ y) / 1e9
    return {"stream_triad_gbps": triad_gbps, "dgemm_gmacs": dgemm_gmacs,
            "llc_bytes": llc, "triad_array_bytes": 8 * n}


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


class Gate:
    """Output check: golden values where they exist, else agreement of each
    repeated scene with its first run."""

    def __init__(self, workload, seed, golden):
        self.cost = workload == "cost_sweep"
        self.golden = golden["cost_sweep"] if self.cost else golden[workload].get(str(seed))
        self.seed = seed
        self.commit = golden["commit"]
        self.seen = {}
        self.compared = 0

    def check(self, key, out):
        from workloads import check_cost_item, check_forward_item, cost_key, forward_digest

        if self.cost:
            expected = self.golden.get(cost_key(key))
            return check_cost_item(out, expected) if expected else f"no golden totals for {cost_key(key)}"
        digest = forward_digest(out)
        if self.golden is not None:
            expected = self.golden[key]
        else:
            expected = self.seen.get(key, {})
            self.compared += bool(expected)
        self.seen.setdefault(key, digest)
        return check_forward_item(out, digest, expected)

    def describe(self):
        if self.cost:
            return f"golden totals for every item, recorded at {self.commit} (cost totals do not depend on the seed)"
        if self.golden is not None:
            return f"golden digests for seed {self.seed}, recorded at {self.commit}"
        return (f"determinism only: seed {self.seed} has no golden values; "
                f"{self.compared} repeated scene(s) compared with their first run")


def conv_madds(ms, model) -> dict[str, int]:
    """Madds per forward of each conv kernel kind, from cost.count_model."""
    from tracing import conv_layer

    out = {"conv2d_1x1": 0, "conv2d_kxk": 0, "depthwise_conv2d": 0}
    if model is None:
        return out
    for node in ms["cost"].count_model(model).per_node:
        spec = model.graph.nodes[node.name]
        if spec.kind == "DepthwiseConv":
            out["depthwise_conv2d"] += node.madds
        elif spec.kind == "Conv":
            out[conv_layer(spec.params["conv"])] += node.madds
    return out


def layer_metrics(tracer, n_traced, execute_clock, madds, peak_live, overhead):
    """The traced run's per-layer metrics of BENCHMARK.json, for one set-up plus
    one average traced item, and the accounting problems. The machine.* metrics
    come from the machine job."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    scoped = tracer.scoped(tracer.self_times())
    problems = tracer.check_accounting(scoped, set(names), execute_clock)
    agg = tracer.per_name(scoped, n_traced)

    def val(span, key):
        if span not in tracer.span_names:
            raise SystemExit(f"BENCHMARK.json names {span}, which the tracer does not wrap")
        return agg.get(span, {}).get(key, 0.0)

    def per_s(amount, seconds):
        return amount / seconds / 1e9 if seconds > 0 else 0.0

    execute_s = sum(execute_clock.values()) / len(execute_clock) if execute_clock else 0.0
    out = {"graph.peak_live_mb": peak_live, "trace.overhead_frac": overhead,
           "graph.execute.gmacs_per_s": per_s(sum(madds.values()), execute_s)}
    for name in names:
        span, key = name.rsplit(".", 1)
        if name in out or span.startswith("machine"):
            continue
        if key == "gbytes_per_s":
            out[name] = per_s(val(span, "bytes"), val(span, "self_s"))
        elif key == "madds":
            out[name] = madds[span.split(".", 1)[1]]
        elif key == "gmacs_per_s":
            out[name] = per_s(madds[span.split(".", 1)[1]], val(span, "self_s"))
        else:
            out[name] = val(span, key)
    return out, problems


def cmd_run(args):
    import mosaicseg
    from mosaicseg.errors import MosaicError

    from tracing import Tracer
    from workloads import FORWARD, config_for, peak_live_mb, program, reference_work, session, set_up

    if not Path(mosaicseg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"mosaicseg was imported from {mosaicseg.__file__}, not from {ROOT / 'src'}")
    ms = program()
    gate = Gate(args.workload, args.seed, json.loads((HERE / "golden.json").read_text()))
    tracer = Tracer(ms) if args.trace else None

    if tracer:
        tracer.install()
    workdir = Path(args.dir)
    built = set_up(ms, config_for(ms, args.workload), workdir) if args.workload in FORWARD else None
    if tracer:
        tracer.uninstall()
    model, keys, item = session(ms, args.workload, workdir, args.seed, built)

    failures = []
    execute_clock = {}  # traced item -> seconds of its execute call, by the pipeline's clock

    def attempt(traced):
        """Run and check the next item; returns (latency, passed)."""
        key = next(keys)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            out = item(key)
        except (MosaicError, ValueError) as exc:
            out, reason = None, f"{type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        if out is not None:
            reason = gate.check(key, out)
            if traced and "execute_s" in out:
                execute_clock[tracer.item] = out["execute_s"]
        if reason is not None:
            failures.append(f"item {key}: {reason}")
        return latency, reason is None

    # untraced runs gauge the host's speed: before the timed phase and after every
    # REF_EVERY_S of item time the reference runs for at least REF_SHARE of the item
    # time before it, so reference runs bracket every timed item
    reference = reference_work(args.workload) if tracer is None else None
    item_s = pending_s = ref_s = 0.0
    ref_runs = 0

    def gauge(budget):
        nonlocal ref_runs
        spent = 0.0
        while spent < budget:
            spent += _time(reference)
            ref_runs += 1
        return spent

    first_item_s, _ = attempt(False)
    if reference is not None:
        ref_s += gauge(REF_SHARE * first_item_s)
    latencies, traced_latencies = [], []
    attempted, n_traced, timed_start = 1, 0, time.perf_counter()
    while True:
        traced = tracer is not None and (attempted - 1) % 2 == 0
        if tracer:
            tracer.item = attempted
        latency, passed = attempt(traced)
        attempted += 1
        n_traced += traced
        item_s += latency
        pending_s += latency
        if passed:
            (traced_latencies if traced else latencies).append(latency)
        done = time.perf_counter() - timed_start >= args.seconds and (tracer is None or attempted >= 3)
        if reference is not None and (pending_s >= REF_EVERY_S or done):
            ref_s += gauge(REF_SHARE * pending_s)
            pending_s = 0.0
        if done:
            break

    peak_live = peak_live_mb(ms, model) if model else 0.0
    result = {
        "facts": machine_facts(),
        "gate": gate.describe(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "first_item_s": first_item_s,
        "latencies": latencies,
        "item_s": item_s,
        "timed_items": attempted - 1,
        "ref_s": ref_s,
        "ref_runs": ref_runs,
        "completed": len(latencies) + len(traced_latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "peak_live_mb": peak_live,
    }
    if tracer:
        overhead = (statistics.median(traced_latencies) / statistics.median(latencies) - 1
                    if traced_latencies and latencies else 0.0)
        result["per_layer"], result["accounting"] = layer_metrics(
            tracer, n_traced, execute_clock, conv_madds(ms, model), peak_live, overhead)
    return result


def cmd_golden(args):
    """The values the output gate compares, computed once per scene or item."""
    from workloads import (FORWARD, ForwardContext, check_cost_item, config_for, cost_items, cost_key,
                           cost_totals, forward_digest, program, run_cost_item, run_forward_item, set_up)

    ms = program()
    if args.workload not in FORWARD:
        totals = {}
        for key in cost_items(ms):
            out = run_cost_item(ms, key)
            problem = check_cost_item(out, cost_totals(out))
            if problem:
                raise SystemExit(f"{cost_key(key)}: {problem}")
            totals[cost_key(key)] = cost_totals(out)
        return {"totals": totals}
    workdir = Path(args.dir)
    ctx = ForwardContext(ms, args.workload, workdir, *set_up(ms, config_for(ms, args.workload), workdir))
    return {"scenes": [forward_digest(run_forward_item(ms, ctx, i)) for i in range(ctx.n_scenes)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("job", choices=("inputs", "setup", "machine", "run", "golden"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs = {"inputs": cmd_inputs, "setup": cmd_setup, "machine": cmd_machine, "run": cmd_run, "golden": cmd_golden}
    print(json.dumps(jobs[args.job](args)))


if __name__ == "__main__":
    sys.exit(main())
