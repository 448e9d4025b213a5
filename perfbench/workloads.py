"""The three workloads: seeded inputs, the item each one repeats, and its output check.

Everything here runs inside a worker process that imports ``mosaicseg`` from the
checkout's ``src``. Program functions are always looked up on their module at call
time (``arch.build_model``, ``graph.execute``, ...), so the tracer can replace them.
"""

import hashlib
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

FORWARD = {
    # workload: (config function in mosaicseg.arch, scenes per seed, scores the labels)
    "city_forward": ("cityscapes_config", 2, False),
    "ade_stream": ("ade20k_config", 4, True),
}

COST_BASES = ("cityscapes_config", "ade20k_config")
# divisible by 16 and at least 256, so the 16x16 pyramid grid fits the os16 map
COST_RESOLUTIONS = ((256, 512), (512, 512), (512, 1024), (1024, 2048))
# the first cost item: the unchanged Cityscapes headline config, what `mosaic cost` prints
COST_FIRST = ("cityscapes_config", 1024, 2048, "skips", "8-C,4-S")

SCENE_REGIONS = 24
SCENE_CELL = 8

# the reference computation that item and set-up times are divided by (see reference_work)
REF_PY_STEPS = 500_000
# set-up times are reported in seconds of a host on which interpreter_work takes this long,
# about its time on the 2-core host of the first trajectory point
REF_NOMINAL_S = 0.04
REF_ARRAY = 1 << 22  # float64 elements, 32 MiB per array: above glibc's largest mmap threshold, so
# each one is mapped, faulted in and unmapped, like the kernels' float64 temporaries


def program():
    """The mosaicseg modules the benchmark calls into, by name."""
    from mosaicseg import arch, cost, graph, images, kernels, metrics, reference, weights

    return {"arch": arch, "cost": cost, "graph": graph, "images": images,
            "kernels": kernels, "metrics": metrics, "reference": reference, "weights": weights}


def config_for(ms, workload):
    return getattr(ms["arch"], FORWARD[workload][0])()


# --- reference computation --------------------------------------------------

def interpreter_work() -> int:
    total = 0
    for i in range(REF_PY_STEPS):
        total += i * i % 7
    return total


def _array_work() -> None:
    b = np.full(REF_ARRAY, 1.0)
    for _ in range(3):
        np.sqrt(b * 3.0 + b)


def reference_work(workload: str):
    """A fixed computation that calls nothing in mosaicseg and does the kind of
    work the workload's items do: interpreter code for cost_sweep; for the
    forward workloads, float64 arithmetic that allocates a fresh large temporary
    per operation, as the kernels do. Timed between items, on the same host at
    the same moment, it gauges the host's speed, which a shared host changes by
    30-45% for minutes at a time. Its arrays are freed before it returns, so they
    add nothing to a forward item's peak memory."""
    return _array_work if workload in FORWARD else interpreter_work


# --- inputs -----------------------------------------------------------------

def _write_ppm(pixels: np.ndarray, path: Path) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def make_scene(rng: np.random.Generator, h: int, w: int, k: int):
    """A synthetic street-like scene: Voronoi regions of random classes, each
    painted with its class colour plus pixel noise. Returns (pixels, labels)."""
    ch, cw = h // SCENE_CELL, w // SCENE_CELL
    centres = rng.integers(0, (ch, cw), size=(SCENE_REGIONS, 2))
    classes = rng.integers(0, k, size=SCENE_REGIONS)
    yy, xx = np.mgrid[0:ch, 0:cw]
    dist = (yy[..., None] - centres[:, 0]) ** 2 + (xx[..., None] - centres[:, 1]) ** 2
    coarse = classes[np.argmin(dist, axis=2)]
    labels = np.repeat(np.repeat(coarse, SCENE_CELL, axis=0), SCENE_CELL, axis=1)
    palette = rng.integers(0, 256, size=(k, 3))
    noisy = palette[labels] + rng.normal(0.0, 12.0, size=(h, w, 3))
    pixels = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.int32)


def scene_path(workdir: Path, i: int) -> Path:
    return workdir / f"scene{i}.ppm"


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the seeded MOSW weights and PPM scenes a forward workload reads.
    cost_sweep reads no files: its items are drawn in the worker from the seed."""
    if workload not in FORWARD:
        return
    ms = program()
    cfg = config_for(ms, workload)
    model = ms["arch"].build_model(cfg)
    ms["weights"].save_weights(ms["weights"].init_weights(model, seed), workdir / "weights.mosw")
    for i in range(FORWARD[workload][1]):
        rng = np.random.default_rng([seed, i])
        pixels, labels = make_scene(rng, cfg.input_h, cfg.input_w, cfg.num_classes)
        _write_ppm(pixels, scene_path(workdir, i))
        if FORWARD[workload][2]:
            np.save(workdir / f"truth{i}.npy", labels)


# --- cost_sweep items -------------------------------------------------------

def cost_items(ms) -> list[tuple]:
    """Every (base config, h, w, axis, token) the sweep draws from: the
    reference.py skip and pyramid tokens and the filter widths of its table."""
    ref = ms["reference"]
    enc = sorted({e for e, _ in ref.FILTER_VARIANTS_B})
    dec = sorted({d for _, d in ref.FILTER_VARIANTS_B})
    axes = [("skips", list(ref.SKIP_VARIANTS_B)), ("pyramid", list(ref.PYRAMID_VARIANTS_B)),
            ("encoder_filters", [str(v) for v in enc]), ("decoder_filters", [str(v) for v in dec])]
    return [(base, h, w, axis, token)
            for base in COST_BASES for h, w in COST_RESOLUTIONS
            for axis, tokens in axes for token in tokens]


def cost_key(item) -> str:
    base, h, w, axis, token = item
    return f"{base}@{h}x{w}/{axis}={token}"


def cost_order(ms, seed: int):
    """COST_FIRST, then seeded permutations of all items, one after another."""
    items = cost_items(ms)
    rng = np.random.default_rng([seed, 1])
    yield COST_FIRST
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def run_cost_item(ms, item):
    """dump_config -> parse_config -> build_model -> count_model (both policies)
    -> render_report_csv, for one ablation variant."""
    arch, cost = ms["arch"], ms["cost"]
    base_name, h, w, axis, token = item
    base = replace(getattr(arch, base_name)(), input_h=h, input_w=w)
    cfg = cost.apply_variant(base, axis, token)
    parsed = arch.parse_config(arch.dump_config(cfg))
    model = arch.build_model(parsed)
    report = cost.count_model(model)
    inclusive = cost.count_model(model, policy=cost.INCLUSIVE_POLICY)
    table = cost.render_report_csv(report)
    return {"round_trip": parsed == cfg, "report": report, "inclusive": inclusive, "csv": table}


def cost_totals(out) -> list[int]:
    return [out["report"].total_madds, out["inclusive"].total_madds, out["report"].total_params]


def check_cost_item(out, expected) -> str | None:
    """None when the item's outputs are right, else the reason."""
    report = out["report"]
    if not out["round_trip"]:
        return "parse_config(dump_config(cfg)) != cfg"
    if sum(report.stage_madds.values()) != report.total_madds:
        return "stage madds do not sum to the total"
    last = out["csv"].strip().splitlines()[-1].split(",")
    if last[0] != "total" or [int(last[1]), int(last[3])] != [report.total_madds, report.total_params]:
        return f"csv total row {last} disagrees with the report"
    got = cost_totals(out)
    if got != expected:
        return f"totals [madds, inclusive madds, params] {got} != golden {expected}"
    return None


# --- forward items ----------------------------------------------------------

def set_up(ms, cfg, workdir: Path):
    """The set-up a forward workload pays once: build_model, load_weights of
    its MOSW file, check_weights. Returns (model, store)."""
    model = ms["arch"].build_model(cfg)
    store = ms["weights"].load_weights(workdir / "weights.mosw")
    ms["graph"].check_weights(model.graph, store)
    return model, store


class ForwardContext:
    """What a forward item needs: the set-up model and weights, and the scene files."""

    def __init__(self, ms, workload: str, workdir: Path, model, store):
        self.cfg = config_for(ms, workload)
        self.model, self.store = model, store
        self.n_scenes, self.scores = FORWARD[workload][1:]
        self.scenes = [scene_path(workdir, i) for i in range(self.n_scenes)]
        self.truth = [np.load(workdir / f"truth{i}.npy") for i in range(self.n_scenes)] if self.scores else []
        self.pred_path = workdir / "pred.pgm"


def run_forward_item(ms, ctx: ForwardContext, i: int):
    """city_forward: read_image_ppm -> execute -> argmax_channels.
    ade_stream adds write_labelmap_pgm -> read_labelmap_pgm -> compute_miou.
    ``execute_s`` is the execute call by the pipeline's own clock."""
    images = ms["images"]
    x = images.read_image_ppm(ctx.scenes[i])
    start = time.perf_counter()
    logits = ms["graph"].execute(ctx.model.graph, ctx.store, x, fetch=[ctx.model.logits])[ctx.model.logits]
    execute_s = time.perf_counter() - start
    labels = ms["kernels"].argmax_channels(logits)
    out = {"logits": logits, "labels": labels, "execute_s": execute_s}
    if ctx.scores:
        images.write_labelmap_pgm(labels, ctx.pred_path)
        out["read_back"] = images.read_labelmap_pgm(ctx.pred_path)
        out["miou"] = ms["metrics"].compute_miou(out["read_back"], ctx.truth[i], ctx.cfg.num_classes)
    return out


def session(ms, workload: str, workdir: Path, seed: int, built):
    """Items of a workload whose set-up is done (``built`` is set_up's result,
    None for cost_sweep). Returns (model or None, item keys in order, item function)."""
    if workload in FORWARD:
        ctx = ForwardContext(ms, workload, workdir, *built)
        keys = (n % ctx.n_scenes for n in itertools.count())
        return ctx.model, keys, lambda key: run_forward_item(ms, ctx, key)
    return None, cost_order(ms, seed), lambda key: run_cost_item(ms, key)


def sha256(a: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).data).hexdigest()


def forward_digest(out) -> dict:
    """The values the output gate compares: logits and label-map digests, mIoU."""
    digest = {"logits_sha256": sha256(out["logits"], "<f4"), "labels_sha256": sha256(out["labels"], "<i4")}
    if "miou" in out:
        digest["miou"] = out["miou"]
    return digest


def check_forward_item(out, digest, expected) -> str | None:
    if out["logits"].dtype != np.float32:
        return f"logits dtype {out['logits'].dtype}, expected float32"
    if "read_back" in out and not np.array_equal(out["read_back"], out["labels"]):
        return "label map read back from PGM differs from the one written"
    for key, want in expected.items():
        if digest[key] != want:
            return f"{key} {digest[key]!r} != expected {want!r}"
    return None


def peak_live_mb(ms, model) -> float:
    """Peak bytes of live float32 node buffers under execute's rule: a buffer is
    dropped once its last consumer ran, unless it is fetched (the logits)."""
    g = model.graph
    remaining = g.consumers()
    live = peak = 0
    sizes = {}
    for name in ms["graph"].topo_order(g):
        sizes[name] = 4 * model.shapes[name].count
        live += sizes[name]
        peak = max(peak, live)
        for ref in g.inputs[name]:
            remaining[ref] -= 1
            if remaining[ref] == 0 and ref != model.logits:
                live -= sizes[ref]
    return peak / 1e6
