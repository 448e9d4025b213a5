import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mosaicseg import graph, kernels, reference
from mosaicseg.arch import ade20k_config, build_bneck, build_model, cityscapes_config
from mosaicseg.cost import apply_variant
from mosaicseg.errors import ConfigError, NumericError, ShapeError
from mosaicseg.graph import (
    NODE_KINDS, Graph, NodeSpec, describe_lines, execute, infer_shapes, plan, topo_order,
    weight_shapes,
)
from mosaicseg.tensor import ConvParams, TensorShape
from mosaicseg.weights import init_weights

from conftest import can_split

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of the float32 logits of ade20k_config() at 256x256 with
# init_weights(model, 1) and a Philox(1) input, recorded with the whole-array
# kernels of commit d19ce8d. Refactors of the executor or the kernels must keep
# it; a different BLAS build may round its GEMMs differently.
ADE20K_256_LOGITS_SHA256 = "01b17bfab2998e8db977e18e005b3694c3a4b4a9dd233ab213628802803548b0"
# the same recipe with pyramid bins 1,4,8,16, which pins a 1x1 pooling level
ADE20K_256_PYRAMID_1_4_8_16_LOGITS_SHA256 = "b28ec50f7b5732155bb8b446d9920ef4d0792b1648387f8067db2fb35a4bd702"
# the first recipe with the affines of ``drawn_affines``, not identities,
# recorded at commit 86b55dc, where every step of it ran serially
ADE20K_256_DRAWN_AFFINE_LOGITS_SHA256 = "f4cdf862a6e7f06c3a9516a94a5b1ebfe0daebe8965ce42b424d85cefbaf69aa"


def pool_spec(name):
    """A 1x1 pooling grid: a weightless node that takes any input."""
    return NodeSpec(name, "AvgPoolGrid", {"grid_h": 1, "grid_w": 1})


def conv_spec(name, in_c, out_c, k=3, stride=1, dilation=1, bias=False, affine=False, relu=False):
    return NodeSpec(name, "Conv", {
        "conv": ConvParams(k, k, stride, dilation, 1, in_c, out_c),
        "bias": bias, "affine": affine, "relu": relu,
    })


def test_unknown_node_kind_rejected():
    with pytest.raises(ConfigError, match="unknown node kind 'Argmax'"):
        NodeSpec("n", "Argmax")


def test_every_node_kind_has_a_builder():
    # Slice comes from group convs
    base = cityscapes_config()
    cfgs = [base, ade20k_config()]
    cfgs += [apply_variant(base, "pyramid", token) for token in reference.PYRAMID_VARIANTS_B]
    built = {spec.kind for cfg in cfgs for spec in build_model(cfg).graph.nodes.values()}
    assert built == set(NODE_KINDS)


def test_weight_shapes_in_store_order():
    assert list(weight_shapes(conv_spec("c", 4, 6, k=1, bias=True)).items()) == [
        ("kernel", (1, 1, 4, 6)), ("bias", (6,)),
    ]
    assert weight_shapes(conv_spec("c", 4, 6, relu=True)) == {"kernel": (3, 3, 4, 6)}
    # the affine's entries follow the conv's, which keeps the entry order of
    # existing MOSW files
    assert list(weight_shapes(conv_spec("c", 4, 6, bias=True, affine=True)).items()) == [
        ("kernel", (3, 3, 4, 6)), ("bias", (6,)), ("bn/scale", (6,)), ("bn/bias", (6,)),
    ]
    dw = NodeSpec("d", "DepthwiseConv", {"conv": ConvParams(5, 5, 1, 1, 4, 4, 4), "affine": True})
    assert list(weight_shapes(dw).items()) == [("kernel", (5, 5, 1, 4)), ("bn/scale", (4,)), ("bn/bias", (4,))]
    assert weight_shapes(pool_spec("p")) == {}


@pytest.mark.parametrize("flag", ["bias", "affine", "relu"])
@pytest.mark.parametrize("value", [1, 0, "true", None, np.bool_(True)])
def test_conv_flags_must_be_bools(flag, value):
    for kind, conv in (("Conv", ConvParams(1, 1, 1, 1, 1, 4, 4)), ("DepthwiseConv", ConvParams(3, 3, 1, 1, 4, 4, 4))):
        with pytest.raises(ConfigError, match=f"node n: {kind} flag '{flag}' must be a bool"):
            NodeSpec("n", kind, {"conv": conv, flag: value})


def test_depthwise_conv_rejects_bias():
    conv = ConvParams(3, 3, 1, 1, 4, 4, 4)
    with pytest.raises(ConfigError, match="node d: DepthwiseConv takes no bias"):
        NodeSpec("d", "DepthwiseConv", {"conv": conv, "bias": True})
    assert weight_shapes(NodeSpec("d", "DepthwiseConv", {"conv": conv, "bias": False})) == {"kernel": (3, 3, 1, 4)}


def test_add_node_after_source():
    g = Graph()
    g.add_node(conv_spec("c0", 3, 8), (g.source,))
    assert len(g.nodes) == 2
    assert g.inputs["c0"] == (g.source,)


def test_self_reference_is_cycle_error():
    g = Graph()
    with pytest.raises(ConfigError, match="cycle"):
        g.add_node(pool_spec("loop"), ("loop",))


def test_duplicate_name_rejected():
    g = Graph()
    g.add_node(pool_spec("r"), (g.source,))
    with pytest.raises(ConfigError, match="duplicate"):
        g.add_node(pool_spec("r"), (g.source,))


def test_dangling_reference_rejected():
    g = Graph()
    with pytest.raises(ConfigError, match="unknown input"):
        g.add_node(pool_spec("r"), ("ghost",))


def test_arity_checks():
    g = Graph()
    with pytest.raises(ConfigError, match="needs 2 inputs"):
        g.add_node(NodeSpec("a", "Add"), (g.source,))
    with pytest.raises(ConfigError, match=">= 1"):
        g.add_node(NodeSpec("c", "ConcatChannels"), ())


def test_topo_linear_chain_is_insertion_order():
    g = Graph()
    prev = g.source
    for i in range(5):
        prev = g.add_node(pool_spec(f"r{i}"), (prev,))
    assert topo_order(g) == [g.source] + [f"r{i}" for i in range(5)]


def test_topo_diamond():
    g = Graph()
    a = g.add_node(pool_spec("a"), (g.source,))
    b = g.add_node(pool_spec("b"), (g.source,))
    cat = g.add_node(NodeSpec("cat", "ConcatChannels"), (a, b))
    order = topo_order(g)
    assert order[0] == g.source
    assert order[-1] == cat


def test_topo_detects_cycle():
    g = Graph()
    g.add_node(pool_spec("a"), (g.source,))
    g.add_node(pool_spec("b"), ("a",))
    g.inputs["a"] = ("b",)  # force a cycle behind the API
    with pytest.raises(ConfigError, match="cycle"):
        topo_order(g)


def test_topo_random_dags_respect_predecessors(rng):
    for trial in range(20):
        g = Graph()
        names = [g.source]
        for i in range(int(rng.integers(3, 12))):
            kind = rng.choice(["AvgPoolGrid", "Add", "ConcatChannels"])
            if kind == "AvgPoolGrid":
                inputs = (str(rng.choice(names)),)
            elif kind == "Add":
                pick = str(rng.choice(names))
                inputs = (pick, pick)
            else:
                k = int(rng.integers(1, min(3, len(names)) + 1))
                inputs = tuple(str(rng.choice(names)) for _ in range(k))
            spec = pool_spec(f"n{i}") if kind == "AvgPoolGrid" else NodeSpec(f"n{i}", kind)
            names.append(g.add_node(spec, inputs))
        order = topo_order(g)
        seen = set()
        for name in order:
            assert all(ref in seen for ref in g.inputs[name])
            seen.add(name)
        assert order == topo_order(g)  # stable


def test_infer_shapes_source_only():
    g = Graph()
    table = infer_shapes(g, TensorShape(5, 6, 7))
    assert table == {g.source: TensorShape(5, 6, 7)}


def test_infer_shapes_pipeline():
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 16, stride=2), (g.source,))
    p = g.add_node(NodeSpec("p", "AvgPoolGrid", {"grid_h": 4, "grid_w": 4}), (c,))
    r = g.add_node(NodeSpec("r", "BilinearResize", {"out_h": 50, "out_w": 30}), (p,))
    table = infer_shapes(g, TensorShape(99, 60, 3))
    assert table[c] == TensorShape(50, 30, 16)
    assert table[p] == TensorShape(4, 4, 16)
    assert table[r] == TensorShape(50, 30, 16)


def test_infer_shapes_names_failing_node():
    g = Graph()
    g.add_node(conv_spec("bad_conv", 8, 4), (g.source,))
    with pytest.raises(ShapeError, match="bad_conv"):
        infer_shapes(g, TensorShape(6, 6, 3))


def test_execute_single_relu(rng):
    # a conv whose only epilogue is a ReLU, as no builder makes it
    g = Graph()
    r = g.add_node(conv_spec("r", 2, 3, relu=True), (g.source,))
    store = {"r/kernel": rng.standard_normal((3, 3, 2, 3)).astype(np.float32)}
    x = rng.standard_normal((4, 4, 2)).astype(np.float32)
    out = execute(g, store, x, fetch=[r])
    want = kernels.relu(kernels.conv2d(x, store["r/kernel"], None, g.nodes[r].params["conv"]))
    assert np.array_equal(out[r].view(np.uint32), want.view(np.uint32))


def test_execute_returns_freed_heap_pages_once(rng, monkeypatch):
    # glibc's malloc_trim, with no pad, so that the free heap top goes back
    # too; on glibc the lookup finds it
    if platform.libc_ver()[0] == "glibc":
        assert graph._malloc_trim() is not None
    pads = []
    monkeypatch.setattr(graph, "_malloc_trim", lambda: pads.append)
    g = Graph()
    r = g.add_node(conv_spec("r", 2, 3, relu=True), (g.source,))
    store = {"r/kernel": rng.standard_normal((3, 3, 2, 3)).astype(np.float32)}
    execute(g, store, rng.standard_normal((4, 4, 2)).astype(np.float32), fetch=[r])
    assert pads == [0]


def test_execute_matches_hand_composition(rng):
    # a conv node with affine and ReLU vs composing kernels by hand
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 5, stride=2, affine=True, relu=True), (g.source,))
    params = g.nodes[c].params["conv"]
    store = {
        "c/kernel": rng.standard_normal(params.kernel_shape()).astype(np.float32),
        "c/bn/scale": rng.standard_normal(5).astype(np.float32),
        "c/bn/bias": rng.standard_normal(5).astype(np.float32),
    }
    x = rng.standard_normal((9, 11, 3)).astype(np.float32)
    got = execute(g, store, x, fetch=[c])[c]
    want = kernels.relu(
        kernels.affine_channels(
            kernels.conv2d(x, store["c/kernel"], None, params), store["c/bn/scale"], store["c/bn/bias"]
        )
    )
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_execute_shape_agreement_random_graphs(rng):
    # executed shapes equal inferred shapes on randomized small graphs
    kinds = ["AvgPoolGrid", "Add", "ConcatChannels", "BilinearResize", "Slice"]
    for trial in range(50):
        g = Graph()
        refs = [g.source]
        channels = {g.source: 4}
        for i in range(int(rng.integers(2, 8))):
            kind = str(rng.choice(kinds))
            src = str(rng.choice(refs))
            name = f"n{i}"
            if kind == "AvgPoolGrid":
                ref = g.add_node(pool_spec(name), (src,))
                channels[name] = channels[src]
            elif kind == "Add":
                ref = g.add_node(NodeSpec(name, kind), (src, src))
                channels[name] = channels[src]
            elif kind == "ConcatChannels":
                ref = g.add_node(NodeSpec(name, kind), (src, src))
                channels[name] = 2 * channels[src]
            elif kind == "BilinearResize":
                oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                ref = g.add_node(NodeSpec(name, kind, {"out_h": oh, "out_w": ow}), (src,))
                channels[name] = channels[src]
            else:
                c = channels[src]
                if c < 2:
                    continue
                ref = g.add_node(NodeSpec(name, kind, {"start": 0, "stop": c // 2}), (src,))
                channels[name] = c // 2
            refs.append(ref)
        shape = TensorShape(int(rng.integers(2, 7)), int(rng.integers(2, 7)), 4)
        table = infer_shapes(g, shape)
        x = rng.standard_normal((shape.h, shape.w, shape.c)).astype(np.float32)
        out = execute(g, {}, x, fetch=list(g.nodes))
        for name, value in out.items():
            assert value.shape == (table[name].h, table[name].w, table[name].c), name


def test_execute_missing_weight_names_node(rng):
    g = Graph()
    c = g.add_node(conv_spec("needs_weights", 3, 4), (g.source,))
    with pytest.raises(ShapeError, match="needs_weights"):
        execute(g, {}, rng.standard_normal((4, 4, 3)).astype(np.float32), fetch=[c])


def test_execute_weight_shape_mismatch(rng):
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 4), (g.source,))
    store = {"c/kernel": np.zeros((3, 3, 3, 5), dtype=np.float32)}  # out_c wrong
    with pytest.raises(ShapeError, match="c/kernel"):
        execute(g, store, rng.standard_normal((4, 4, 3)).astype(np.float32), fetch=[c])


def test_execute_rejects_orphan_weights(rng):
    g = Graph()
    r = g.add_node(pool_spec("r"), (g.source,))
    store = {"stray/kernel": np.zeros((1, 1, 1, 1), dtype=np.float32)}
    with pytest.raises(ShapeError, match="orphan"):
        execute(g, store, rng.standard_normal((2, 2, 1)).astype(np.float32), fetch=[r])


def philox1_input_256():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
    return rng.uniform(-1.0, 1.0, size=(256, 256, 3)).astype(np.float32)


def drawn_affines(store):
    """``store`` with every batch-norm scale drawn from U(0.5, 1.5) and every
    batch-norm bias from N(0, 0.1), in store order, by a seed-1 generator."""
    rng = np.random.default_rng(1)
    for key, value in store.items():
        if key.endswith("/bn/scale"):
            store[key] = rng.uniform(0.5, 1.5, size=value.shape).astype(np.float32)
        elif key.endswith("/bn/bias"):
            store[key] = rng.normal(0.0, 0.1, size=value.shape).astype(np.float32)
    return store


def ade20k_256_logits_sha256(cfg, drawn=False):
    model = build_model(cfg)
    store = init_weights(model, 1)
    if drawn:
        store = drawn_affines(store)
    logits = execute(model.graph, store, philox1_input_256(), fetch=[model.logits])[model.logits]
    assert logits.shape == (256, 256, 32) and logits.dtype == np.float32
    return hashlib.sha256(logits.tobytes()).hexdigest()


def test_ade20k_logits_golden_digest(split_halves):
    # every step of 2 rows or more runs as two row halves where steps can split
    cfg = replace(ade20k_config(), input_h=256, input_w=256)
    assert ade20k_256_logits_sha256(cfg) == ADE20K_256_LOGITS_SHA256
    assert bool(split_halves) == can_split()


def test_ade20k_pyramid_1_4_8_16_logits_golden_digest(split_halves):
    cfg = apply_variant(replace(ade20k_config(), input_h=256, input_w=256), "pyramid", "1,4,8,16")
    assert ade20k_256_logits_sha256(cfg) == ADE20K_256_PYRAMID_1_4_8_16_LOGITS_SHA256
    assert bool(split_halves) == can_split()


def test_ade20k_drawn_affine_logits_golden_digest(split_halves):
    cfg = replace(ade20k_config(), input_h=256, input_w=256)
    assert ade20k_256_logits_sha256(cfg, drawn=True) == ADE20K_256_DRAWN_AFFINE_LOGITS_SHA256
    assert bool(split_halves) == can_split()


def test_golden_digests_hold_serially(serial):
    cfg = replace(ade20k_config(), input_h=256, input_w=256)
    assert ade20k_256_logits_sha256(cfg) == ADE20K_256_LOGITS_SHA256
    assert ade20k_256_logits_sha256(cfg, drawn=True) == ADE20K_256_DRAWN_AFFINE_LOGITS_SHA256
    cfg = apply_variant(cfg, "pyramid", "1,4,8,16")
    assert ade20k_256_logits_sha256(cfg) == ADE20K_256_PYRAMID_1_4_8_16_LOGITS_SHA256
    assert not serial


CORENAME_GETTERS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def test_golden_digest_holds_on_a_generic_blas_kernel():
    # a child whose OpenBLAS runs its generic Prescott kernel, not the one
    # picked for this CPU, which rounds a float64 GEMM differently; every
    # conv sums in float64 and rounds to float32, so the logits keep their bits
    core = blas_call(ctypes.c_char_p, CORENAME_GETTERS)
    code = ("import ctypes, test_graph as t\n"
            "print(t.blas_call(ctypes.c_char_p, t.CORENAME_GETTERS).decode())\n"
            "print(t.ade20k_256_logits_sha256(t.replace(t.ade20k_config(), input_h=256, input_w=256)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    child_core, digest = child.stdout.split()
    assert child_core != core.decode()
    assert digest == ADE20K_256_LOGITS_SHA256


@pytest.mark.parametrize("axis,token", [
    ("pyramid", "1,4"), ("pyramid", "4,8,16:nogc"),
    ("skips", "0"), ("skips", "8-C,4-C"), ("skips", "8-C,4-S,2-S"),
])
def test_streaming_leaves_the_logits_of_ablation_variants_alone(axis, token):
    # fetching every node materializes each one, so no conv streams
    model = build_model(apply_variant(replace(ade20k_config(), input_h=256, input_w=256), axis, token))
    graph, every = model.graph, list(model.graph.nodes)
    assert any(len(step.nodes) > 1 for step in plan(graph, model.shapes, [model.logits]))
    assert all(len(step.nodes) == 1 for step in plan(graph, model.shapes, every))
    store, x = init_weights(model, 1), philox1_input_256()
    streamed = execute(graph, store, x, fetch=[model.logits])[model.logits]
    alone = execute(graph, store, x, fetch=every)[model.logits]
    assert np.array_equal(streamed.view(np.uint32), alone.view(np.uint32))


ABLATION_TOKENS = (
    [("skips", t) for t in reference.SKIP_VARIANTS_B]
    + [("pyramid", t) for t in reference.PYRAMID_VARIANTS_B]
    + [("encoder_filters", str(enc)) for enc in sorted({enc for enc, _ in reference.FILTER_VARIANTS_B})]
    + [("decoder_filters", str(dec)) for dec in sorted({dec for _, dec in reference.FILTER_VARIANTS_B})]
)


def assert_streaming_leaves_a_random_config_alone(case):
    # a seeded draw of resolution, endpoint width, one ablation token and the
    # logits plus up to 5 more nodes; each fetched value must match, bit for
    # bit, the same node of a run that fetches every node, where nothing streams
    rng = np.random.default_rng((20261019, case))
    axis, token = ABLATION_TOKENS[rng.integers(len(ABLATION_TOKENS))]
    cfg = replace(ade20k_config(), input_h=int(rng.choice([256, 288])),
                  input_w=int(rng.choice([256, 320])), m=int(rng.choice([32, 64, 96])))
    model = build_model(apply_variant(cfg, axis, token))
    graph, every = model.graph, list(model.graph.nodes)
    fetch = [model.logits, *map(str, rng.choice(every, size=rng.integers(6), replace=False))]
    assert any(len(step.nodes) > 1 for step in plan(graph, model.shapes, fetch))
    store = init_weights(model, case)
    x = rng.uniform(-1.0, 1.0, size=(cfg.input_h, cfg.input_w, 3)).astype(np.float32)
    got = execute(graph, store, x, fetch=fetch)
    alone = execute(graph, store, x, fetch=every)
    for name in fetch:
        assert np.array_equal(got[name].view(np.uint32), alone[name].view(np.uint32)), name


@pytest.mark.parametrize("case", range(5))
def test_streaming_leaves_random_configs_and_fetch_sets_alone(case, split_halves):
    assert_streaming_leaves_a_random_config_alone(case)
    assert bool(split_halves) == can_split()


@pytest.mark.parametrize("case", range(5))
def test_streaming_leaves_random_configs_and_fetch_sets_alone_serially(case, serial):
    assert_streaming_leaves_a_random_config_alone(case)
    assert not serial


def benchmark_tracer():
    """A perfbench ``Tracer`` over the package modules, not installed."""
    from mosaicseg import arch, cost, graph, images, metrics, weights

    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer({"arch": arch, "cost": cost, "graph": graph, "images": images,
                           "kernels": kernels, "metrics": metrics, "weights": weights})


def test_benchmark_tracer_finds_every_hook():
    # perfbench/tracing.py wraps package functions by module attribute name and
    # looks each one up when built, so a renamed or deleted hook fails here
    tracer = benchmark_tracer()
    assert {"graph.topo_order", "graph.infer_shapes", "tensor.as_feature_map"} <= tracer.span_names


def test_benchmark_trace_accounts_for_every_execute_second(split_halves):
    # the check `perfbench/run.py --trace 1` makes: the kernels, tensor and
    # graph self times of a traced execute sum to its time by an outside clock,
    # every span lies in its parent, and every name it reaches is a per-layer
    # metric of BENCHMARK.json. Where steps split, the worker checks its rows
    # untraced, and the calling thread's spans still sum to the clock
    from mosaicseg import graph

    model = build_model(replace(ade20k_config(), input_h=256, input_w=256))
    store = init_weights(model, 1)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(256, 256, 3)).astype(np.float32)
    tracer = benchmark_tracer()
    tracer.item = 0
    tracer.install()
    try:
        start = time.perf_counter()
        graph.execute(model.graph, store, x, fetch=[model.logits])
        clock = time.perf_counter() - start
    finally:
        tracer.uninstall()
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    scoped = tracer.scoped(tracer.self_times())
    assert {name for name, *_ in scoped} >= {"kernels.conv2d_1x1", "tensor.require_finite"}
    assert tracer.check_accounting(scoped, names, {0: clock}) == []
    assert bool(split_halves) == can_split()


def conv_affine_graph(rng, relu=False):
    """input -> conv c (3x3, 3->4) with an affine, with finite weights."""
    g = Graph()
    g.add_node(conv_spec("c", 3, 4, affine=True, relu=relu), (g.source,))
    store = {
        "c/kernel": rng.standard_normal((3, 3, 3, 4)).astype(np.float32),
        "c/bn/scale": np.ones(4, dtype=np.float32),
        "c/bn/bias": np.zeros(4, dtype=np.float32),
    }
    return g, store


def test_execute_nan_input_names_input_node(rng):
    g, store = conv_affine_graph(rng)
    x = rng.standard_normal((5, 5, 3)).astype(np.float32)
    x[2, 3, 1] = np.nan
    with pytest.raises(NumericError, match=r"^node input \(Input\): "):
        execute(g, store, x, fetch=["c"])


def test_execute_inf_weight_names_conv_node(rng):
    # a conv checks its band once, after the affine, under its own kernel's
    # name, with an affine or without
    g, store = conv_affine_graph(rng)
    store["c/kernel"][1, 1, 0, 2] = np.inf
    x = rng.standard_normal((5, 5, 3)).astype(np.float32)
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite"):
        execute(g, store, x, fetch=["c"])
    plain = Graph()
    plain.add_node(conv_spec("c", 3, 4), (plain.source,))
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite"):
        execute(plain, {"c/kernel": store["c/kernel"]}, x, fetch=["c"])


def test_execute_float32_overflow_in_the_affine_names_the_conv_node(rng):
    # finite in float64, beyond float32 range once rounded
    g, store = conv_affine_graph(rng)
    store["c/bn/scale"] = np.full(4, 3e38, dtype=np.float32)
    x = np.full((5, 5, 3), 10.0, dtype=np.float32)
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite"):
        execute(g, store, x, fetch=["c"])


def test_execute_affine_overflow_that_relu_would_clamp_names_the_conv_node():
    # a positive conv output times -3e38 is -inf in float32, which the ReLU
    # would turn into 0: the affine's result is checked before the ReLU
    g, store = conv_affine_graph(np.random.default_rng(0), relu=True)
    store["c/kernel"] = np.ones((3, 3, 3, 4), dtype=np.float32)
    store["c/bn/scale"] = np.full(4, -3e38, dtype=np.float32)
    x = np.full((5, 5, 3), 10.0, dtype=np.float32)
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite values$"):
        execute(g, store, x, fetch=["c"])


def test_execute_conv_overflow_in_a_later_band_outranks_an_earlier_affine_overflow():
    # c streams into d, so d's first band, whose affine overflows, runs before
    # c's last band, whose conv overflows; the group is rerun node by node,
    # and c, the first node to make a non-finite value, is named
    g = Graph()
    c = g.add_node(conv_spec("c", 64, 64, k=1), (g.source,))
    d = g.add_node(conv_spec("d", 64, 64, k=1, affine=True), (c,))
    store = {
        "c/kernel": (2 * np.eye(64, dtype=np.float32)).reshape(1, 1, 64, 64),
        "d/kernel": np.eye(64, dtype=np.float32).reshape(1, 1, 64, 64),
        "d/bn/scale": np.full(64, 3e38, dtype=np.float32),
        "d/bn/bias": np.zeros(64, dtype=np.float32),
    }
    x = np.ones((40, 128, 64), dtype=np.float32)
    x[-1] = 3e38  # 6e38 after c
    assert 40 > 2 * kernels._band_rows(40, 128 * 64)
    assert [step.nodes for step in plan(g, infer_shapes(g, TensorShape(40, 128, 64)), [d])][-1] == (c, d)
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite"):
        execute(g, store, x, fetch=[d])


@pytest.mark.parametrize("shape", [(5, 5), (1, 5, 5, 3)])
def test_execute_rejects_input_of_wrong_rank(rng, shape):
    g, store = conv_affine_graph(rng)
    with pytest.raises(ShapeError, match=f"got rank {len(shape)}"):
        execute(g, store, np.zeros(shape, dtype=np.float32), fetch=["c"])


def assert_execute_scans_each_value_once(rng, monkeypatch):
    # the input once, then the output of each kernel that can create a
    # non-finite value; no kernel re-scans its inputs. A conv with an affine
    # scans its one array once, after the affine. Kernels scan band by band,
    # so the scanned elements are counted, not the calls.
    checked = ("Conv", "DepthwiseConv", "AvgPoolGrid", "BilinearResize", "Add")
    model = build_model(replace(ade20k_config(), input_h=256, input_w=256))
    store = init_weights(model, 1)
    x = rng.uniform(-1.0, 1.0, size=(256, 256, 3)).astype(np.float32)
    isfinite, calls = np.isfinite, []

    def counting_isfinite(a):
        calls.append(a.shape)
        return isfinite(a)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    execute(model.graph, store, x, fetch=[model.logits])
    graph, shapes = model.graph, model.shapes
    # a resize to the input's own size returns a copy and checks nothing
    producers = [
        n for n, spec in graph.nodes.items() if spec.kind in checked
        and not (spec.kind == "BilinearResize" and shapes[n] == shapes[graph.inputs[n][0]])
    ]
    assert sum(int(np.prod(shape)) for shape in calls) == x.size + sum(shapes[n].count for n in producers)


def test_execute_scans_each_value_for_finiteness_once(rng, monkeypatch, serial):
    assert_execute_scans_each_value_once(rng, monkeypatch)
    assert not serial


def test_split_steps_scan_each_value_for_finiteness_once(rng, monkeypatch, split_every_step):
    # rows that both halves compute are checked by the top half only
    assert_execute_scans_each_value_once(rng, monkeypatch)
    assert split_every_step


def test_describe_lines_cover_every_node():
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 4, bias=True, relu=True), (g.source,))
    g.add_node(NodeSpec("s", "Slice", {"start": 1, "stop": 3}), (c,))
    lines = describe_lines(g, infer_shapes(g, TensorShape(8, 8, 3)))
    assert len(lines) == len(g.nodes)
    assert any("3->4 bias relu  <-" in line for line in lines)
    assert any("[1:3]" in line for line in lines)


@pytest.mark.parametrize("config,peak", [(cityscapes_config, 169_345_024), (ade20k_config, 35_651_584)])
def test_plan_live_peak_of_the_pinned_configs(config, peak):
    # the full-resolution logits and the map they are resized from; every
    # bottleneck's expanded and depthwise maps stream through row rings
    model = build_model(config())
    steps = plan(model.graph, model.shapes, [model.logits])
    top = max(steps, key=lambda step: step.live_bytes)
    assert (top.live_bytes, top.output) == (peak, "head/upsample")
    streamed = [step.nodes for step in steps if len(step.nodes) > 1]
    assert (len(steps), len(streamed)) == (58, 22)
    assert ("backbone/bneck03/expand", "backbone/bneck03/dw", "backbone/bneck03/project") in streamed
    ran = [name for step in steps for name in step.nodes]
    assert sorted(ran) == sorted(model.graph.nodes)


def bneck_graph(rng, h=40, w=24, stride=2):
    """input -> conv "stem" (1x1, 3->8) -> bottleneck "b" (8 -> 48 -> 8),
    with every affine a near identity; returns (graph, store, input)."""
    g = Graph()
    stem = g.add_node(conv_spec("stem", 3, 8, k=1), (g.source,))
    build_bneck(g, stem, "b", 8, 48, 8, 3, stride)
    store = {}
    for name, spec in g.nodes.items():
        for role, shape in weight_shapes(spec).items():
            draw = rng.standard_normal(shape) / np.sqrt(np.prod(shape[:-1]))
            store[f"{name}/{role}"] = (1.0 + 0.1 * draw if role == "bn/scale" else draw).astype(np.float32)
    return g, store, rng.uniform(-1.0, 1.0, size=(h, w, 3)).astype(np.float32)


BNECK = ("b/expand", "b/dw", "b/project")


def test_plan_streams_a_bottleneck_and_a_kept_member_ends_its_group(rng):
    # the stem streams into the bottleneck too; every fetched node is
    # materialized, so fetching all of them runs each node on its own
    g, store, x = bneck_graph(rng)
    shapes = infer_shapes(g, TensorShape(40, 24, 3))
    assert [step.nodes for step in plan(g, shapes, ["b/project"])] == [("input",), ("stem",) + BNECK]
    assert all(len(step.nodes) == 1 for step in plan(g, shapes, list(g.nodes)))
    want = execute(g, store, x, fetch=["b/project"])["b/project"]
    alone = execute(g, store, x, fetch=list(g.nodes))
    assert np.array_equal(alone["b/project"].view(np.uint32), want.view(np.uint32))
    fetch = ["b/dw", "b/project"]
    assert [step.nodes for step in plan(g, shapes, fetch)][-2:] == [("stem",) + BNECK[:2], BNECK[2:]]
    got = execute(g, store, x, fetch=fetch)
    assert np.array_equal(got["b/project"].view(np.uint32), want.view(np.uint32))
    assert np.array_equal(got["b/dw"].view(np.uint32), alone["b/dw"].view(np.uint32))


BNECK_FAULTS = [
    ("b/expand", "Conv", "bn/scale"),
    ("b/dw", "DepthwiseConv", "kernel"),
    ("b/project", "Conv", "bn/scale"),
]


def assert_overflow_in_a_bottleneck_names_its_node(rng, node, kind, fault):
    # the overflow is in the last rows only, so the group has streamed its
    # first bands before it fails; the message is that of a run in which each
    # node is its own step
    g, store, x = bneck_graph(rng)
    x[-2:] = 1e4
    store[f"{node}/{fault}"] = store[f"{node}/{fault}"] * np.float32(1e36)
    assert plan(g, infer_shapes(g, TensorShape(40, 24, 3)), ["b/project"])[-1].nodes == ("stem",) + BNECK
    with pytest.raises(NumericError) as alone:
        execute(g, store, x, fetch=list(g.nodes))
    assert str(alone.value).startswith(f"node {node} ({kind}): ")
    with pytest.raises(NumericError) as streamed:
        execute(g, store, x, fetch=["b/project"])
    assert str(streamed.value) == str(alone.value)


@pytest.mark.parametrize("node,kind,fault", BNECK_FAULTS)
def test_execute_overflow_in_a_streamed_bottleneck_names_its_node(rng, serial, node, kind, fault):
    assert_overflow_in_a_bottleneck_names_its_node(rng, node, kind, fault)
    assert not serial


@pytest.mark.parametrize("node,kind,fault", BNECK_FAULTS)
def test_execute_overflow_in_a_split_bottleneck_names_its_node(rng, split_every_step, node, kind, fault):
    # the overflowing rows are in the bottom half, which the worker runs
    assert_overflow_in_a_bottleneck_names_its_node(rng, node, kind, fault)
    assert split_every_step


def test_a_planted_inf_names_its_conv(split_halves):
    # following tests/test_fuzz.py: seeded draws of one conv of a small ADE20K
    # model and one of its weights, set to inf; execute must name that conv.
    # The first draw is a depthwise conv of at least 2 output rows inside a
    # streamed group, which runs as two row halves where steps can split
    rng = np.random.default_rng(20261020)
    model = build_model(replace(ade20k_config(), input_h=64, input_w=64, m=32, pyramid_bins=(1, 2)))
    graph, store = model.graph, init_weights(model, 1)
    streamed = {n for step in plan(graph, model.shapes, [model.logits]) if len(step.nodes) > 1 for n in step.nodes}
    convs = [n for n, spec in graph.nodes.items() if spec.kind in ("Conv", "DepthwiseConv")]
    split_dw = [n for n in streamed if graph.nodes[n].kind == "DepthwiseConv" and model.shapes[n].h >= 2]
    x = rng.uniform(-1.0, 1.0, size=(64, 64, 3)).astype(np.float32)
    for case in range(6):
        pool = convs if case else sorted(split_dw)
        node = str(rng.choice(pool))
        kernel = store[f"{node}/kernel"].copy()
        kernel.flat[rng.integers(kernel.size)] = np.inf
        with pytest.raises(NumericError) as err:
            execute(graph, {**store, f"{node}/kernel": kernel}, x, fetch=[model.logits])
        assert str(err.value).startswith(f"node {node} ({graph.nodes[node].kind}): "), case
    assert bool(split_halves) == can_split()


def blas_call(restype, names):
    """The result of the first function of ``names`` that numpy's bundled
    OpenBLAS exports, called without arguments; skips where it exports none."""
    lib = kernels._openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    for name in names:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], restype
            return getter()
    pytest.skip(f"the bundled OpenBLAS exports none of {names}")


def blas_thread_count():
    return blas_call(ctypes.c_int, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                                    "openblas_get_num_threads"))


@pytest.mark.parametrize("rows", [slice(0, 2), slice(-2, None)], ids=["top-half-raises", "bottom-half-raises"])
def test_split_steps_restore_the_blas_thread_count(rng, split_every_step, rows):
    g, store, x = bneck_graph(rng)
    set_threads = kernels._openblas().openblas_set_num_threads_local
    before = set_threads(2)
    try:
        execute(g, store, x, fetch=["b/project"])
        assert blas_thread_count() == 2
        x[rows] = 1e4
        store["b/project/bn/scale"] = store["b/project/bn/scale"] * np.float32(1e36)
        with pytest.raises(NumericError, match=r"^node b/project \(Conv\)"):
            execute(g, store, x, fetch=["b/project"])
        assert blas_thread_count() == 2
    finally:
        set_threads(before)
    assert split_every_step
