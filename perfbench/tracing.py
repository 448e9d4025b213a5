"""Spans around the calls into each mosaicseg module, recorded from outside.

While installed, the tracer replaces module attributes with wrappers that record a
span (name, start, end, parent span, item) per call. Callers inside the package
that look a function up on its module at call time go through the wrapper too:
``graph`` calls ``kernels.<fn>``; ``kernels`` calls its own ``as_feature_map`` and
``require_finite``; ``graph``, ``arch`` and ``cost`` each hold ``infer_shapes``.
A span's self time is its duration minus the durations of its child spans.

``kernels.*`` and ``tensor.*`` figures cover the calls ``graph.execute`` makes. A
kernel the pipeline calls outside ``execute`` (``argmax_channels`` on the logits)
is reported as ``pipeline.<fn>`` over its whole span, finiteness scans included.
"""

import functools
import os
import time

KERNELS = ("conv2d", "depthwise_conv2d", "avg_pool_grid", "global_avg_pool", "bilinear_resize",
           "concat_channels", "add_elementwise", "relu", "affine_channels", "argmax_channels")
# conv2d is reported by its ConvParams: pointwise or kxk
KERNEL_LAYERS = ("conv2d_1x1", "conv2d_kxk") + KERNELS[1:]
# the layers whose self times must add up to each graph.execute span
EXECUTE_LAYERS = ("kernels", "tensor", "graph")
# relative and absolute tolerance between those self times and the pipeline's
# own clock around execute, which also holds the execute wrapper's overhead
ACCOUNTING_RTOL, ACCOUNTING_ATOL = 1e-3, 1e-4

NAME, START, END, PARENT, ITEM, NBYTES = range(6)


def conv_layer(params) -> str:
    return "conv2d_1x1" if params.kernel_h == params.kernel_w == 1 else "conv2d_kxk"


def _conv_name(args, kwargs):
    return "kernels." + conv_layer(kwargs["params"] if "params" in kwargs else args[3])


def _array_bytes(args, kwargs, result):
    """Bytes of every array passed in or returned, from their sizes."""
    total = 0
    for value in (*args, *kwargs.values(), result):
        for a in (value if isinstance(value, (list, tuple)) else (value,)):
            total += getattr(a, "nbytes", 0)
    return total


def _file_bytes(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


def _targets(ms):
    """(module, attribute, span name or namer, bytes function) for every wrapped call."""
    k = ms["kernels"]
    out = [(k, "conv2d", _conv_name, _array_bytes)]
    out += [(k, fn, f"kernels.{fn}", _array_bytes) for fn in KERNELS[1:]]
    out += [(k, "as_feature_map", "tensor.as_feature_map", None),
            (k, "require_finite", "tensor.require_finite", None)]
    out += [(ms[m], "infer_shapes", "graph.infer_shapes", None) for m in ("graph", "arch", "cost")]
    out += [(ms["graph"], fn, f"graph.{fn}", None) for fn in ("execute", "check_weights", "topo_order")]
    out += [(ms["arch"], fn, f"arch.{fn}", None) for fn in ("parse_config", "build_model")]
    out += [(ms["cost"], fn, f"cost.{fn}", None)
            for fn in ("apply_variant", "count_model", "render_report_csv")]
    out += [(ms["weights"], "load_weights", "weights.load_weights", _file_bytes(0)),
            (ms["images"], "read_image_ppm", "images.read_image_ppm", _file_bytes(0)),
            (ms["images"], "write_labelmap_pgm", "images.write_labelmap_pgm", _file_bytes(1)),
            (ms["images"], "read_labelmap_pgm", "images.read_labelmap_pgm", None),
            (ms["metrics"], "compute_miou", "metrics.compute_miou", None)]
    return out


class Tracer:
    """Records spans in memory while installed; ``item`` tags new spans
    (-1 for set-up)."""

    def __init__(self, ms):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        targets = _targets(ms)
        self._patches = [(module, attr, getattr(module, attr), self._wrap(getattr(module, attr), name, nbytes))
                         for module, attr, name, nbytes in targets]
        self.span_names = {name for _, _, name, _ in targets if isinstance(name, str)}
        self.span_names.update(f"kernels.{layer}" for layer in KERNEL_LAYERS)
        self.span_names.update(f"pipeline.{fn}" for fn in KERNELS)

    def _wrap(self, fn, name, nbytes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.item, 0]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if nbytes is not None:
                span[NBYTES] = nbytes(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        self_s = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                self_s[s[PARENT]] -= s[END] - s[START]
        return self_s

    def scoped(self, self_s) -> list[tuple[str, float, int, int, bool]]:
        """(reported name, own seconds, item, bytes, in execute) per span. Outside execute a
        kernels span becomes pipeline.<fn> with its whole duration, and the
        tensor spans nested in it are folded into it."""
        spans = self.spans
        under = [False] * len(spans)
        out = []
        for i, s in enumerate(spans):
            parent = s[PARENT]
            under[i] = parent >= 0 and (under[parent] or spans[parent][NAME] == "graph.execute")
            in_execute = under[i] or s[NAME] == "graph.execute"
            layer, fn = s[NAME].split(".", 1)
            if under[i] or layer not in ("kernels", "tensor"):
                out.append((s[NAME], self_s[i], s[ITEM], s[NBYTES], in_execute))
            elif layer == "kernels":
                out.append((f"pipeline.{fn}", s[END] - s[START], s[ITEM], s[NBYTES], False))
            # a tensor span outside execute is nested in a pipeline kernel and counted there
        return out

    def check_accounting(self, scoped, published, execute_clock) -> list[str]:
        """Checks the reported figures of each traced item against the pipeline's
        own clock around its execute call (``execute_clock``: item -> seconds):
        the kernels, tensor and graph self times the item adds to the published
        metrics must sum to it. Every span must lie inside its parent, and every
        name the item's execute reaches must be a published metric. Returns the
        violations."""
        for s in self.spans:
            parent = self.spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is not None and not parent[START] <= s[START] <= s[END] <= parent[END]:
                return [f"span {s[NAME]} lies outside its parent {parent[NAME]}"]
        totals: dict[int, float] = {}
        for name, own, item, _, in_execute in scoped:
            if item < 0 or not in_execute:
                continue
            if name.split(".", 1)[0] not in EXECUTE_LAYERS:
                return [f"{name} runs in execute but is not in the {', '.join(EXECUTE_LAYERS)} layers"]
            if f"{name}.self_s" not in published:
                return [f"{name} runs in execute but {name}.self_s is not a per-layer metric"]
            totals[item] = totals.get(item, 0.0) + own
        problems = []
        if sorted(totals) != sorted(execute_clock):
            problems.append(f"traced items {sorted(totals)} != items with an execute clock {sorted(execute_clock)}")
        for item, clock in sorted(execute_clock.items()):
            total = totals.get(item, 0.0)
            if abs(total - clock) > ACCOUNTING_RTOL * clock + ACCOUNTING_ATOL:
                problems.append(f"item {item}: execute took {clock:.6f} s by the pipeline's clock, "
                                f"its kernels+tensor+graph self times sum to {total:.6f} s")
        return problems

    @staticmethod
    def per_name(scoped, n_items: int) -> dict[str, dict[str, float]]:
        """calls, self_s, bytes and span duration per reported name, for one
        set-up plus one average traced item: set-up spans count once, item
        spans are divided by the number of traced items."""
        out: dict[str, dict[str, float]] = {}
        for name, own, item, nbytes, _ in scoped:
            weight = 1.0 if item < 0 else 1.0 / n_items
            acc = out.setdefault(name, {"calls": 0.0, "self_s": 0.0, "bytes": 0.0})
            acc["calls"] += weight
            acc["self_s"] += weight * own
            acc["bytes"] += weight * nbytes
        return out
