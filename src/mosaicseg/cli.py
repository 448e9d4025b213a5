"""Command-line surface: describe, cost, ablate, run, selftest.

Exit codes: 0 success, 1 runtime/numeric/file error, 2 usage or config error.
"""

import argparse
import sys
import time

import numpy as np

from . import selftest as selftest_mod
from .arch import build_model, load_config
from .cost import (
    ABLATION_AXES, DEFAULT_POLICY, INCLUSIVE_POLICY, STAGES, ablation_report, count_model,
    render_ablation_csv, render_ablation_text, render_report_csv, render_report_text,
)
from .errors import ConfigError, MosaicError
from .graph import describe_lines, execute
from .images import read_image_ppm, write_labelmap_pgm
from .kernels import argmax_channels
from .weights import init_weights, load_weights, require_drawable, seeded_rng

USAGE_EXIT = 2
RUNTIME_EXIT = 1

POLICIES = {p.name: p for p in (DEFAULT_POLICY, INCLUSIVE_POLICY)}


def cmd_describe(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    for line in describe_lines(model.graph, model.shapes):
        print(line)
    print("--")
    for tap, node in model.graph.taps.items():
        print(f"tap {tap}: {node} {model.shapes[node]}")
    report = count_model(model)
    for stage in STAGES:
        n_nodes = sum(1 for c in report.per_node if c.name.startswith(stage + "/"))
        print(f"stage {stage}: {n_nodes} nodes, {report.stage_params[stage]} params")
    print(f"{len(model.graph.nodes)} nodes total, logits at {model.logits}")
    return 0


def cmd_cost(args) -> int:
    cfg = load_config(args.config)
    report = count_model(build_model(cfg), policy=POLICIES[args.policy])
    print(render_report_csv(report) if args.csv else render_report_text(report))
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    rows = ablation_report(cfg, args.axis, args.variants, policy=POLICIES[args.policy])
    print(render_ablation_csv(rows) if args.csv else render_ablation_text(rows))
    return 0


def cmd_run(args) -> int:
    if args.weights is None and args.seed is None:
        raise ConfigError("run needs --weights or --seed")
    rng = seeded_rng(args.seed or 0)  # rejects a bad --seed before any work
    timings = []

    start = time.perf_counter()
    cfg = load_config(args.config)
    require_drawable(cfg.input_h * cfg.input_w * 3, "the input_h*input_w*3 input values")
    if cfg.num_classes > 256:
        raise ConfigError(
            f"num_classes={cfg.num_classes}: a PGM label map stores at most 256 classes"
        )
    model = build_model(cfg)
    timings.append(("build", time.perf_counter() - start))

    start = time.perf_counter()
    if args.weights is not None:
        store = load_weights(args.weights)
    else:
        store = init_weights(model, args.seed)
    timings.append(("weights", time.perf_counter() - start))

    start = time.perf_counter()
    if args.input is not None:
        image = read_image_ppm(args.input)
        if image.shape[:2] != (cfg.input_h, cfg.input_w):
            raise ConfigError(
                f"input image is {image.shape[0]}x{image.shape[1]}, "
                f"config expects {cfg.input_h}x{cfg.input_w}"
            )
    else:
        image = rng.uniform(-1.0, 1.0, size=(cfg.input_h, cfg.input_w, 3)).astype(np.float32)
    timings.append(("input", time.perf_counter() - start))

    start = time.perf_counter()
    logits = execute(model.graph, store, image, fetch=[model.logits])[model.logits]
    timings.append(("forward", time.perf_counter() - start))

    start = time.perf_counter()
    labels = argmax_channels(logits)
    write_labelmap_pgm(labels, args.output)
    timings.append(("write", time.perf_counter() - start))

    for stage, seconds in timings:
        print(f"stage {stage}: {seconds:.3f} s")
    print(f"total: {sum(s for _, s in timings):.3f} s, labels {labels.shape[0]}x{labels.shape[1]} -> {args.output}")
    return 0


def cmd_selftest(args) -> int:
    return selftest_mod.run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosaic",
        description="Build, inspect, cost-model and run the MOSAIC segmentation architecture.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("describe", help="print every node with its inferred shape")
    p.add_argument("config")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("cost", help="multiply-add and parameter report")
    p.add_argument("config")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    p.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY.name)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("ablate", help="cost totals across configuration variants")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p.add_argument("--variants", nargs="+", required=True, metavar="TOKEN")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY.name)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("run", help="forward pass producing a PGM label map")
    p.add_argument("config")
    p.add_argument("--weights", help="MOSW weight file")
    p.add_argument("--seed", type=int, help="deterministic weight/input seed")
    p.add_argument("--input", help="PPM image matching the config resolution")
    p.add_argument("--output", required=True, help="PGM label map destination")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("selftest", help="kernel, shape, cost and ordering checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        return RUNTIME_EXIT
    except (MosaicError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
