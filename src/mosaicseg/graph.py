"""Typed computation graph with shape inference and a topological executor.

Nodes are appended via :func:`add_node` and may only reference nodes that
already exist, so the insertion order is topological; ``topo_order`` returns
it and still rejects a graph whose inputs were edited into a cycle behind the
API. Every node kind runs one kernel of :mod:`mosaicseg.kernels`, except the
``Input`` kind for the designated source and a ``Slice`` kind that copies a
channel range (zero madds; it lowers grouped multi-kernel convolutions).
``argmax_channels`` is a kernel but no kind: callers apply it to the fetched
logits.

A Conv node is dense or depthwise, as its ``conv`` ConvParams say, and
carries its epilogue as boolean params: ``bias`` (dense only), ``affine`` (a
folded inference-time batch norm) and ``relu``, which the conv kernel applies
band by band. Its value is the one after the epilogue. Conv nodes read their
weights from a mapping with role-suffixed keys, as :func:`weight_shapes` lists
them: ``<name>/kernel``, then ``<name>/bias`` with ``bias``, then
``<name>/bn/scale`` and ``<name>/bn/bias`` with ``affine``.
"""

import ctypes
import functools
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError, ShapeError
from .tensor import ConvParams, TensorShape, as_feature_map, require_finite, shape_of

# each kind with its arity: exact int, or (min, None) for variadic
_ARITY = {
    "Input": 0,
    "Conv": 1,
    "AvgPoolGrid": 1,
    "BilinearResize": 1,
    "ConcatChannels": (1, None),
    "Add": 2,
    "Slice": 1,
}
NODE_KINDS = tuple(_ARITY)
# a conv's epilogue, each flag False when absent
_CONV_FLAGS = ("bias", "affine", "relu")


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ConfigError(f"unknown node kind {self.kind!r}")
        _validate_params(self.kind, self.params, self.name)


def _validate_params(kind, params, name):
    if kind == "Conv":
        conv = params.get("conv")
        if not isinstance(conv, ConvParams):
            raise ConfigError(f"node {name}: Conv requires a 'conv' ConvParams entry")
        for flag in _CONV_FLAGS:
            if not isinstance(params.get(flag, False), bool):
                raise ConfigError(f"node {name}: Conv flag {flag!r} must be a bool")
        if conv.is_depthwise and params.get("bias", False):
            raise ConfigError(f"node {name}: a depthwise conv takes no bias")
    elif kind == "AvgPoolGrid":
        gh, gw = params.get("grid_h", 0), params.get("grid_w", 0)
        if gh < 1 or gw < 1:
            raise ConfigError(f"node {name}: pool grid must be positive, got {gh}x{gw}")
    elif kind == "BilinearResize":
        oh, ow = params.get("out_h", 0), params.get("out_w", 0)
        if oh < 1 or ow < 1:
            raise ConfigError(f"node {name}: resize target must be positive, got {oh}x{ow}")
    elif kind == "Slice":
        start, stop = params.get("start", -1), params.get("stop", -1)
        if start < 0 or stop <= start:
            raise ConfigError(f"node {name}: bad channel slice [{start}, {stop})")


class Graph:
    """DAG of NodeSpecs. Created with a single Input source node."""

    source = "input"

    def __init__(self):
        self.nodes: dict[str, NodeSpec] = {self.source: NodeSpec(self.source, "Input")}
        self.inputs: dict[str, tuple[str, ...]] = {self.source: ()}
        self.taps: dict[str, str] = {}

    def add_node(self, spec: NodeSpec, inputs=()) -> str:
        """Append a node wired to existing nodes; returns its name."""
        if spec.name in self.nodes:
            raise ConfigError(f"duplicate node name {spec.name!r}")
        inputs = tuple(inputs)
        for ref in inputs:
            if ref == spec.name:
                raise ConfigError(f"node {spec.name!r} cannot reference itself (cycle)")
            if ref not in self.nodes:
                raise ConfigError(f"node {spec.name!r} references unknown input {ref!r}")
        arity = _ARITY[spec.kind]
        if isinstance(arity, tuple):
            if len(inputs) < arity[0]:
                raise ConfigError(
                    f"node {spec.name!r} ({spec.kind}) needs >= {arity[0]} inputs, got {len(inputs)}"
                )
        elif len(inputs) != arity:
            raise ConfigError(
                f"node {spec.name!r} ({spec.kind}) needs {arity} inputs, got {len(inputs)}"
            )
        self.nodes[spec.name] = spec
        self.inputs[spec.name] = inputs
        return spec.name

    def add_tap(self, tap: str, node: str):
        if node not in self.nodes:
            raise ConfigError(f"tap {tap!r} references unknown node {node!r}")
        self.taps[tap] = node

    def consumers(self) -> dict[str, int]:
        counts = {name: 0 for name in self.nodes}
        for refs in self.inputs.values():
            for ref in refs:
                counts[ref] += 1
        return counts


def topo_order(graph: Graph) -> list[str]:
    """The insertion order, which is topological; raises if a node reads one
    that is not earlier in it (a cycle in a graph edited behind add_node)."""
    seen = set()
    for name in graph.nodes:
        for ref in graph.inputs[name]:
            if ref not in seen:
                raise ConfigError(f"graph contains a cycle: node {name!r} reads later node {ref!r}")
        seen.add(name)
    return list(graph.nodes)


def _infer_node(spec: NodeSpec, in_shapes: list[TensorShape]) -> TensorShape:
    kind, p = spec.kind, spec.params
    if kind == "Conv":
        conv: ConvParams = p["conv"]
        s = in_shapes[0]
        if s.c != conv.in_c:
            raise ShapeError(
                f"node {spec.name}: input has {s.c} channels, conv expects {conv.in_c}"
            )
        oh, _, _ = kernels.same_pad(s.h, conv.kernel_h, conv.stride, conv.dilation)
        ow, _, _ = kernels.same_pad(s.w, conv.kernel_w, conv.stride, conv.dilation)
        return TensorShape(oh, ow, conv.out_c)
    if kind == "AvgPoolGrid":
        s = in_shapes[0]
        if p["grid_h"] > s.h or p["grid_w"] > s.w:
            raise ConfigError(
                f"node {spec.name}: pool grid {p['grid_h']}x{p['grid_w']} exceeds input {s.h}x{s.w}"
            )
        return TensorShape(p["grid_h"], p["grid_w"], s.c)
    if kind == "BilinearResize":
        return TensorShape(p["out_h"], p["out_w"], in_shapes[0].c)
    if kind == "ConcatChannels":
        hw = (in_shapes[0].h, in_shapes[0].w)
        for s in in_shapes[1:]:
            if (s.h, s.w) != hw:
                raise ShapeError(f"node {spec.name}: concat spatial mismatch {(s.h, s.w)} vs {hw}")
        return TensorShape(hw[0], hw[1], sum(s.c for s in in_shapes))
    if kind == "Add":
        if in_shapes[0] != in_shapes[1]:
            raise ShapeError(
                f"node {spec.name}: add shape mismatch {in_shapes[0]} vs {in_shapes[1]}"
            )
        return in_shapes[0]
    if kind == "Slice":
        s = in_shapes[0]
        if p["stop"] > s.c:
            raise ShapeError(
                f"node {spec.name}: slice [{p['start']}, {p['stop']}) exceeds {s.c} channels"
            )
        return TensorShape(s.h, s.w, p["stop"] - p["start"])
    raise ConfigError(f"node {spec.name}: cannot infer shape for kind {kind}")


def infer_shapes(graph: Graph, input_shape: TensorShape) -> dict[str, TensorShape]:
    """Assign a shape to every node; fails atomically naming the bad node."""
    shapes: dict[str, TensorShape] = {}
    for name in topo_order(graph):
        spec = graph.nodes[name]
        if spec.kind == "Input":
            shapes[name] = input_shape
        else:
            shapes[name] = _infer_node(spec, [shapes[r] for r in graph.inputs[name]])
    return shapes


def weight_shapes(spec: NodeSpec) -> dict[str, tuple[int, ...]]:
    """The node's weight entries as {role: shape}, in store order."""
    if spec.kind != "Conv":
        return {}
    p, conv = spec.params, spec.params["conv"]
    shapes = {"kernel": conv.kernel_shape()}
    if p.get("bias", False):
        shapes["bias"] = (conv.out_c,)
    if p.get("affine", False):
        shapes["bn/scale"] = shapes["bn/bias"] = (conv.out_c,)
    return shapes


def _conv_stage(spec: NodeSpec, weights) -> tuple:
    """A conv node's ``kernels.streamed_convs`` stage, ``(kernels, bias,
    params, affine, relu)``."""
    p, name = spec.params, spec.name
    bias = weights[f"{name}/bias"] if p.get("bias", False) else None
    affine = (weights[f"{name}/bn/scale"], weights[f"{name}/bn/bias"]) if p.get("affine", False) else None
    return weights[f"{name}/kernel"], bias, p["conv"], affine, p.get("relu", False)


def _run_node(spec: NodeSpec, ins: list[np.ndarray], weights) -> np.ndarray:
    kind, p = spec.kind, spec.params
    if kind == "Input":
        return require_finite(ins[0], "input")
    if kind == "Conv":
        return kernels.conv2d(ins[0], *_conv_stage(spec, weights))
    if kind == "AvgPoolGrid":
        return kernels.avg_pool_grid(ins[0], p["grid_h"], p["grid_w"])
    if kind == "BilinearResize":
        return kernels.bilinear_resize(ins[0], p["out_h"], p["out_w"])
    if kind == "ConcatChannels":
        return kernels.concat_channels(ins)
    if kind == "Add":
        return kernels.add_elementwise(ins[0], ins[1])
    if kind == "Slice":
        return ins[0][:, :, p["start"]:p["stop"]].copy()
    raise ConfigError(f"cannot execute node kind {kind}")


def check_weights(graph: Graph, weights) -> None:
    """Every parameterized node has exactly its role entries, correctly shaped,
    and the store holds nothing else; a store that does not fit raises
    ``ShapeError``."""
    wanted = {f"{name}/{role}": shape for name, spec in graph.nodes.items()
              for role, shape in weight_shapes(spec).items()}
    missing = [k for k in wanted if k not in weights]
    if missing:
        raise ShapeError(f"missing weight entries: {missing[:4]} (of {len(missing)})")
    orphans = [k for k in weights.keys() if k not in wanted]
    if orphans:
        raise ShapeError(f"orphan weight entries not used by any node: {orphans[:4]}")
    for key, shape in wanted.items():
        got = tuple(np.asarray(weights[key]).shape)
        if got != shape:
            raise ShapeError(f"weight {key}: shape {got} does not match node spec {shape}")


@dataclass(frozen=True)
class Step:
    """One call of :func:`execute`: a streamed group of convs, or one node.
    ``frees`` are the values dropped after it; ``live_bytes`` are the float32
    bytes of materialized node outputs once its output exists, before those
    are dropped."""
    nodes: tuple[str, ...]
    frees: tuple[str, ...]
    live_bytes: int

    @property
    def output(self) -> str:
        return self.nodes[-1]


def plan(graph: Graph, shapes: dict[str, TensorShape], fetch) -> list[Step]:
    """The steps :func:`execute` runs, in order. A conv that is not fetched and
    whose one consumer is a conv streams into it, so only a group's last value
    is materialized. A value is dropped after the step that reads it last,
    unless it is fetched; a step's own output is dropped at once when nothing
    reads it."""
    keep = set(fetch)
    counts = graph.consumers()
    user = {ref: name for name in graph.nodes for ref in graph.inputs[name]}
    convs = {name for name, spec in graph.nodes.items() if spec.kind == "Conv"}

    def streams(name):
        return name in convs and name not in keep and counts[name] == 1 and user[name] in convs

    steps, planned, remaining, live = [], set(), dict(counts), 0
    for name in graph.nodes:
        if name in planned:
            continue
        group = [name]
        while streams(group[-1]):
            group.append(user[group[-1]])
        planned.update(group)
        out = group[-1]
        live += 4 * shapes[out].count
        frees = []
        for ref in graph.inputs[name]:
            remaining[ref] -= 1
            if remaining[ref] == 0 and ref not in keep:
                frees.append(ref)
        if remaining[out] == 0 and out not in keep:
            frees.append(out)
        steps.append(Step(tuple(group), tuple(frees), live))
        live -= sum(4 * shapes[ref].count for ref in frees)
    return steps


def _run_step(graph: Graph, weights, nodes: tuple[str, ...], ins: list[np.ndarray]) -> np.ndarray:
    """The value of a step's last node, from the values ``ins`` its first node
    reads. A streamed group that raises ``NumericError`` is rerun node by node,
    so the error names the first node that made a non-finite value."""
    try:
        if len(nodes) > 1:
            return kernels.streamed_convs(ins[0], [_conv_stage(graph.nodes[n], weights) for n in nodes])
        return _run_node(graph.nodes[nodes[0]], ins, weights)
    except NumericError as exc:
        if len(nodes) == 1:
            raise NumericError(f"node {nodes[0]} ({graph.nodes[nodes[0]].kind}): {exc}") from exc
    # rerun outside the handler, whose traceback holds the failed call's buffers
    for name in nodes:
        ins = [_run_step(graph, weights, (name,), ins)]
    return ins[0]


def execute(graph: Graph, weights, x: np.ndarray, fetch) -> dict[str, np.ndarray]:
    """Run the graph on the input ``x`` with the weight mapping ``weights``;
    returns {name: value} for the node names in ``fetch``.

    Runs the steps of :func:`plan`: each streamed group or node is one kernel
    call, and its values are dropped after their last reader ran; at the
    end, pages freed inside the C heap go back to the OS. A
    ``NumericError`` names the node that produced the non-finite value (see
    ``_run_step``).
    """
    x = as_feature_map(x)
    shapes = infer_shapes(graph, shape_of(x))
    check_weights(graph, weights)
    for name in fetch:
        if name not in graph.nodes:
            raise ConfigError(f"fetch references unknown node {name!r}")

    values: dict[str, np.ndarray] = {}
    # every overflow or invalid value surfaces as a NumericError naming the node
    with np.errstate(over="ignore", invalid="ignore"):
        for step in plan(graph, shapes, fetch):
            head = step.nodes[0]
            ins = [values[ref] for ref in graph.inputs[head]] if head != graph.source else [x]
            out = _run_step(graph, weights, step.nodes, ins)
            name = step.output
            got = shape_of(out)
            if got != shapes[name]:
                raise ShapeError(f"node {name}: executed shape {got} != inferred {shapes[name]}")
            values[name] = out
            for ref in step.frees:
                del values[ref]
    # Freed pages inside the heap stay resident, and how many there are
    # depends on where the two threads of the split steps placed their
    # temporaries, which varies from run to run. So does the heap's extent,
    # and with it the free top, which goes back too.
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    return {name: values[name] for name in fetch}


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None for a C library without it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def describe_lines(graph: Graph, shapes: dict[str, TensorShape]) -> list[str]:
    """Line-oriented listing: name, kind, params, inputs, inferred shape."""
    lines = []
    for name, spec in graph.nodes.items():
        lines.append(
            f"{name}  {spec.kind}  {_param_summary(spec)}  "
            f"<- {','.join(graph.inputs[name]) or '-'}  {shapes[name]}"
        )
    return lines


def _param_summary(spec: NodeSpec) -> str:
    p = spec.params
    if spec.kind == "Conv":
        conv: ConvParams = p["conv"]
        parts = (
            f"k={conv.kernel_h}x{conv.kernel_w} s={conv.stride} d={conv.dilation} "
            f"g={conv.groups} {conv.in_c}->{conv.out_c}"
        )
        return parts + "".join(f" {flag}" for flag in _CONV_FLAGS if p.get(flag, False))
    if spec.kind == "AvgPoolGrid":
        return f"grid={p['grid_h']}x{p['grid_w']}"
    if spec.kind == "BilinearResize":
        return f"to={p['out_h']}x{p['out_w']}"
    if spec.kind == "Slice":
        return f"[{p['start']}:{p['stop']}]"
    return "-"
