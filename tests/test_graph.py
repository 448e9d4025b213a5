import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mosaicseg import kernels
from mosaicseg.arch import ade20k_config, build_model
from mosaicseg.errors import ConfigError, NumericError, ShapeError
from mosaicseg.graph import (
    Graph, NodeSpec, describe_lines, execute, infer_shapes, topo_order,
)
from mosaicseg.tensor import ConvParams, TensorShape
from mosaicseg.weights import WeightStore, init_weights

# SHA-256 of the float32 logits of ade20k_config() at 256x256 with
# init_weights(model, 1) and a Philox(1) input, recorded with the whole-array
# kernels of commit d19ce8d. Refactors of the executor or the kernels must keep
# it; a different BLAS build may round its GEMMs differently.
ADE20K_256_LOGITS_SHA256 = "01b17bfab2998e8db977e18e005b3694c3a4b4a9dd233ab213628802803548b0"


def conv_spec(name, in_c, out_c, k=3, stride=1, dilation=1, groups=1, bias=False):
    return NodeSpec(name, "Conv", {
        "conv": ConvParams(k, k, stride, dilation, groups, in_c, out_c), "bias": bias,
    })


def test_add_node_after_source():
    g = Graph()
    g.add_node(conv_spec("c0", 3, 8), (g.source,))
    assert len(g.nodes) == 2
    assert g.inputs["c0"] == (g.source,)


def test_self_reference_is_cycle_error():
    g = Graph()
    with pytest.raises(ConfigError, match="cycle"):
        g.add_node(NodeSpec("loop", "Relu"), ("loop",))


def test_duplicate_name_rejected():
    g = Graph()
    g.add_node(NodeSpec("r", "Relu"), (g.source,))
    with pytest.raises(ConfigError, match="duplicate"):
        g.add_node(NodeSpec("r", "Relu"), (g.source,))


def test_dangling_reference_rejected():
    g = Graph()
    with pytest.raises(ConfigError, match="unknown input"):
        g.add_node(NodeSpec("r", "Relu"), ("ghost",))


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
        prev = g.add_node(NodeSpec(f"r{i}", "Relu"), (prev,))
    assert topo_order(g) == g.order


def test_topo_diamond():
    g = Graph()
    a = g.add_node(NodeSpec("a", "Relu"), (g.source,))
    b = g.add_node(NodeSpec("b", "Relu"), (g.source,))
    cat = g.add_node(NodeSpec("cat", "ConcatChannels"), (a, b))
    order = topo_order(g)
    assert order[0] == g.source
    assert order[-1] == cat


def test_topo_detects_cycle():
    g = Graph()
    g.add_node(NodeSpec("a", "Relu"), (g.source,))
    g.add_node(NodeSpec("b", "Relu"), ("a",))
    g.inputs["a"] = ("b",)  # force a cycle behind the API
    with pytest.raises(ConfigError, match="cycle"):
        topo_order(g)


def test_topo_random_dags_respect_predecessors(rng):
    for trial in range(20):
        g = Graph()
        names = [g.source]
        for i in range(int(rng.integers(3, 12))):
            kind = rng.choice(["Relu", "Add", "ConcatChannels"])
            if kind == "Relu":
                inputs = (str(rng.choice(names)),)
            elif kind == "Add":
                pick = str(rng.choice(names))
                inputs = (pick, pick)
            else:
                k = int(rng.integers(1, min(3, len(names)) + 1))
                inputs = tuple(str(rng.choice(names)) for _ in range(k))
            names.append(g.add_node(NodeSpec(f"n{i}", kind), inputs))
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
    g = Graph()
    r = g.add_node(NodeSpec("r", "Relu"), (g.source,))
    g.outputs = [r]
    x = rng.standard_normal((4, 4, 2)).astype(np.float32)
    out = execute(g, WeightStore(), x)
    assert np.array_equal(out[r], kernels.relu(x))


def test_execute_matches_hand_composition(rng):
    # conv -> affine -> relu pipeline vs composing kernels by hand
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 5, stride=2), (g.source,))
    a = g.add_node(NodeSpec("a", "Affine", {"channels": 5}), (c,))
    r = g.add_node(NodeSpec("r", "Relu"), (a,))
    g.outputs = [r]
    params = g.nodes[c].params["conv"]
    store = WeightStore()
    store["c/kernel"] = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    store["a/scale"] = rng.standard_normal(5).astype(np.float32)
    store["a/bias"] = rng.standard_normal(5).astype(np.float32)
    x = rng.standard_normal((9, 11, 3)).astype(np.float32)
    got = execute(g, store, x)[r]
    want = kernels.relu(
        kernels.affine_channels(
            kernels.conv2d(x, store["c/kernel"], None, params), store["a/scale"], store["a/bias"]
        )
    )
    assert np.allclose(got, want, rtol=1e-6, atol=1e-7)


def test_execute_shape_agreement_random_graphs(rng):
    # executed shapes equal inferred shapes on randomized small graphs
    kinds = ["Relu", "GlobalPool", "Add", "ConcatChannels", "BilinearResize", "Slice"]
    for trial in range(50):
        g = Graph()
        refs = [g.source]
        channels = {g.source: 4}
        for i in range(int(rng.integers(2, 8))):
            kind = str(rng.choice(kinds))
            src = str(rng.choice(refs))
            name = f"n{i}"
            if kind == "Relu" or kind == "GlobalPool":
                ref = g.add_node(NodeSpec(name, kind), (src,))
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
        g.outputs = [refs[-1]]
        shape = TensorShape(int(rng.integers(2, 7)), int(rng.integers(2, 7)), 4)
        table = infer_shapes(g, shape)
        x = rng.standard_normal((shape.h, shape.w, shape.c)).astype(np.float32)
        out = execute(g, WeightStore(), x, fetch=list(g.nodes))
        for name, value in out.items():
            assert value.shape == (table[name].h, table[name].w, table[name].c), name


def test_execute_missing_weight_names_node(rng):
    g = Graph()
    c = g.add_node(conv_spec("needs_weights", 3, 4), (g.source,))
    g.outputs = [c]
    with pytest.raises(ConfigError, match="needs_weights"):
        execute(g, WeightStore(), rng.standard_normal((4, 4, 3)).astype(np.float32))


def test_execute_weight_shape_mismatch(rng):
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 4), (g.source,))
    g.outputs = [c]
    store = WeightStore()
    store["c/kernel"] = np.zeros((3, 3, 3, 5), dtype=np.float32)  # out_c wrong
    with pytest.raises(ShapeError, match="c/kernel"):
        execute(g, store, rng.standard_normal((4, 4, 3)).astype(np.float32))


def test_execute_rejects_orphan_weights(rng):
    g = Graph()
    r = g.add_node(NodeSpec("r", "Relu"), (g.source,))
    g.outputs = [r]
    store = WeightStore()
    store["stray/kernel"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(ConfigError, match="orphan"):
        execute(g, store, rng.standard_normal((2, 2, 1)).astype(np.float32))


def test_execute_argmax_node(rng):
    g = Graph()
    a = g.add_node(NodeSpec("labels", "Argmax"), (g.source,))
    g.outputs = [a]
    x = rng.standard_normal((5, 4, 6)).astype(np.float32)
    out = execute(g, WeightStore(), x)[a]
    assert out.dtype == np.int32
    assert np.array_equal(out, kernels.argmax_channels(x))


def test_execute_default_fetch_returns_outputs_and_taps(rng):
    g = Graph()
    a = g.add_node(NodeSpec("a", "Relu"), (g.source,))
    b = g.add_node(NodeSpec("b", "GlobalPool"), (a,))
    g.outputs = [b]
    g.add_tap("mid", a)
    x = rng.standard_normal((4, 4, 2)).astype(np.float32)
    out = execute(g, WeightStore(), x)
    assert set(out) == {"a", "b"}
    table = infer_shapes(g, TensorShape(4, 4, 2))
    for name, value in out.items():
        assert value.shape == (table[name].h, table[name].w, table[name].c)


def test_ade20k_logits_golden_digest():
    model = build_model(replace(ade20k_config(), input_h=256, input_w=256))
    store = init_weights(model, 1)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
    x = rng.uniform(-1.0, 1.0, size=(256, 256, 3)).astype(np.float32)
    logits = execute(model.graph, store, x, fetch=[model.logits])[model.logits]
    assert logits.shape == (256, 256, 32) and logits.dtype == np.float32
    assert hashlib.sha256(logits.tobytes()).hexdigest() == ADE20K_256_LOGITS_SHA256


def test_benchmark_tracer_finds_every_hook():
    # perfbench/tracing.py wraps package functions by module attribute name and
    # looks each one up when built, so a renamed or deleted hook fails here
    from mosaicseg import arch, cost, graph, images, metrics, weights

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ms = {"arch": arch, "cost": cost, "graph": graph, "images": images,
          "kernels": kernels, "metrics": metrics, "weights": weights}
    tracer = tracing.Tracer(ms)
    assert {"graph.topo_order", "graph.infer_shapes", "tensor.as_feature_map"} <= tracer.span_names


def conv_affine_graph(rng):
    """input -> conv c (3x3, 3->4) -> affine a, with finite weights."""
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 4), (g.source,))
    a = g.add_node(NodeSpec("a", "Affine", {"channels": 4}), (c,))
    g.outputs = [a]
    store = WeightStore()
    store["c/kernel"] = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    store["a/scale"] = np.ones(4, dtype=np.float32)
    store["a/bias"] = np.zeros(4, dtype=np.float32)
    return g, store


def test_execute_nan_input_names_input_node(rng):
    g, store = conv_affine_graph(rng)
    x = rng.standard_normal((5, 5, 3)).astype(np.float32)
    x[2, 3, 1] = np.nan
    with pytest.raises(NumericError, match=r"^node input \(Input\): "):
        execute(g, store, x)


def test_execute_inf_weight_names_conv_node(rng):
    g, store = conv_affine_graph(rng)
    store["c/kernel"][1, 1, 0, 2] = np.inf
    with pytest.raises(NumericError, match=r"^node c \(Conv\): conv2d produced non-finite"):
        execute(g, store, rng.standard_normal((5, 5, 3)).astype(np.float32))


def test_execute_float32_overflow_names_affine_node(rng):
    # finite in float64, beyond float32 range once rounded
    g, store = conv_affine_graph(rng)
    store["a/scale"] = np.full(4, 3e38, dtype=np.float32)
    x = np.full((5, 5, 3), 10.0, dtype=np.float32)
    with pytest.raises(NumericError, match=r"^node a \(Affine\): affine_channels produced non-finite"):
        execute(g, store, x)


def test_execute_scans_each_value_for_finiteness_once(rng, monkeypatch):
    # the input once, then the output of each kernel that can create a
    # non-finite value; no kernel re-scans its inputs
    checked = ("Conv", "DepthwiseConv", "AvgPoolGrid", "GlobalPool", "BilinearResize", "Add", "Affine")
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
    assert len(calls) == 1 + len(producers)


def test_describe_lines_cover_every_node():
    g = Graph()
    c = g.add_node(conv_spec("c", 3, 4, bias=True), (g.source,))
    g.add_node(NodeSpec("s", "Slice", {"start": 1, "stop": 3}), (c,))
    lines = describe_lines(g, infer_shapes(g, TensorShape(8, 8, 3)))
    assert len(lines) == len(g.order)
    assert any("bias" in line for line in lines)
    assert any("[1:3]" in line for line in lines)
