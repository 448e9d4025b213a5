"""Analytical multiply-add and parameter counting over a shaped graph.

Default policy counts one madd per multiply-accumulate in conv/depthwise
kernels and nothing else; pooling, resizing, additions and a conv's affine
epilogue cost zero. The "include-everything" policy adds one op per produced
(or reduced) element for those, for sensitivity analysis only; a ReLU is free
under both.

Conv and DepthwiseConv, with taps = kernel_h*kernel_w*in_c/groups (in_c/groups
is 1 for a depthwise conv):
    madds = out_h*out_w*out_c*taps, params = taps*out_c
    (+ out_c with a bias, + 2*out_c with an affine)
"""

import csv
import io
from dataclasses import dataclass, replace

from .arch import Model, ModelConfig, build_model, parse_int, parse_list, parse_skip
from .errors import ConfigError, ShapeError
# unused here, but perfbench's tracer wraps cost.infer_shapes by name
from .graph import infer_shapes  # noqa: F401
from .tensor import TensorShape

STAGES = ("backbone", "encoder", "decoder", "head")


@dataclass(frozen=True)
class CostPolicy:
    count_non_mac: bool = False
    name: str = "default"


DEFAULT_POLICY = CostPolicy()
INCLUSIVE_POLICY = CostPolicy(count_non_mac=True, name="include-everything")


@dataclass(frozen=True)
class NodeCost:
    name: str
    kind: str
    madds: int
    params: int


@dataclass(frozen=True)
class CostReport:
    per_node: tuple[NodeCost, ...]
    stage_madds: dict[str, int]
    stage_params: dict[str, int]
    total_madds: int
    total_params: int
    input_resolution: tuple[int, int]
    policy: str = "default"


def count_node(spec, in_shapes, out_shape: TensorShape, policy: CostPolicy = DEFAULT_POLICY):
    """Return (madds, params) for one node given its input/output shapes."""
    kind, p = spec.kind, spec.params
    if kind in ("Conv", "DepthwiseConv"):
        conv = p["conv"]
        if in_shapes[0].c != conv.in_c:
            raise ShapeError(f"node {spec.name}: shape {in_shapes[0]} inconsistent with {conv}")
        taps = conv.kernel_h * conv.kernel_w * conv.in_c // conv.groups
        madds, params = out_shape.count * taps, taps * conv.out_c
        if p.get("bias", False):
            params += conv.out_c
        if p.get("affine", False):
            params += 2 * conv.out_c
            if policy.count_non_mac:
                madds += out_shape.count
        return madds, params
    if policy.count_non_mac:
        if kind == "AvgPoolGrid":
            return in_shapes[0].count, 0  # one accumulate per pooled element
        if kind == "BilinearResize":
            return 4 * out_shape.count, 0  # four-tap blend per output element
        if kind == "Add":
            return out_shape.count, 0
    return 0, 0


def _stage_of(name: str) -> str:
    head = name.split("/", 1)[0]
    return head if head in STAGES else "other"


def count_model(model: Model, policy: CostPolicy = DEFAULT_POLICY) -> CostReport:
    """Per-node counts summed into stage subtotals and totals."""
    cfg, graph, shapes = model.cfg, model.graph, model.shapes

    per_node = []
    stage_madds = {s: 0 for s in STAGES}
    stage_madds["other"] = 0
    stage_params = dict(stage_madds)
    for name, spec in graph.nodes.items():
        if spec.kind == "Input":
            continue
        in_shapes = [shapes[r] for r in graph.inputs[name]]
        madds, params = count_node(spec, in_shapes, shapes[name], policy)
        per_node.append(NodeCost(name, spec.kind, madds, params))
        stage = _stage_of(name)
        stage_madds[stage] += madds
        stage_params[stage] += params
    return CostReport(
        per_node=tuple(per_node),
        stage_madds=stage_madds,
        stage_params=stage_params,
        total_madds=sum(c.madds for c in per_node),
        total_params=sum(c.params for c in per_node),
        input_resolution=(cfg.input_h, cfg.input_w),
        policy=policy.name,
    )


def count_config(cfg: ModelConfig, policy: CostPolicy = DEFAULT_POLICY) -> CostReport:
    return count_model(build_model(cfg), policy=policy)


ABLATION_AXES = ("encoder_filters", "decoder_filters", "pyramid", "skips")


def apply_variant(base: ModelConfig, axis: str, token: str) -> ModelConfig:
    """Build the variant config named by an ablation token.

    encoder_filters / decoder_filters: an integer. pyramid: comma bin list
    with optional ':nogc' / ':gc' suffix (e.g. "1,4", "4,8,16:nogc").
    skips: "0" for no skips, otherwise comma skip tokens ("8-C,4-S"). Lists
    follow ``arch.parse_list``, as in a config file: blank is no items, and an
    empty item raises.
    """
    token = token.strip()
    if axis == "encoder_filters":
        return replace(base, enc_filters=parse_int(axis, token))
    if axis == "decoder_filters":
        return replace(base, dec_filters=parse_int(axis, token))
    if axis == "pyramid":
        gc = base.use_group_conv
        bins_part = token
        if ":" in token:
            bins_part, flag = token.split(":", 1)
            if flag not in ("gc", "nogc"):
                raise ConfigError(f"pyramid variant {token!r}: suffix must be ':gc' or ':nogc'")
            gc = flag == "gc"
        bins = parse_list(bins_part, lambda v: parse_int(axis, v))
        return replace(base, pyramid_bins=bins, use_group_conv=gc)
    if axis == "skips":
        return replace(base, skips=() if token == "0" else parse_list(token, parse_skip))
    raise ConfigError(f"unknown ablation axis {axis!r}, expected one of {ABLATION_AXES}")


@dataclass(frozen=True)
class AblationRow:
    label: str
    madds: int
    params: int


def ablation_report(base_cfg: ModelConfig, axis: str, variants,
                    policy: CostPolicy = DEFAULT_POLICY) -> list[AblationRow]:
    """One total per variant, emitted in input order; labels echo the tokens,
    so a blank token, which would label its row with nothing, is rejected."""
    if not variants:
        raise ConfigError("ablation needs at least one variant")
    rows = []
    for token in variants:
        if not str(token).strip():
            raise ConfigError(f"variant {token!r}: blank ablation token")
        try:
            cfg = apply_variant(base_cfg, axis, token)
            report = count_config(cfg, policy)
        except (ConfigError, ShapeError, ValueError) as exc:
            raise ConfigError(f"variant {token!r}: {exc}") from exc
        rows.append(AblationRow(str(token), report.total_madds, report.total_params))
    return rows


def billions(madds: int) -> str:
    return f"{madds / 1e9:.2f}"


def render_report_text(report: CostReport) -> str:
    width = max(len(c.name) for c in report.per_node)
    lines = [f"{'node'.ljust(width)}  {'kind':<14} {'madds':>14} {'params':>10}"]
    for c in report.per_node:
        lines.append(f"{c.name.ljust(width)}  {c.kind:<14} {c.madds:>14} {c.params:>10}")
    lines.append("-" * (width + 42))
    for stage in STAGES:
        lines.append(
            f"{('stage ' + stage).ljust(width)}  {'':<14} "
            f"{report.stage_madds[stage]:>14} {report.stage_params[stage]:>10}"
        )
    lines.append(
        f"{'TOTAL'.ljust(width)}  {'':<14} {report.total_madds:>14} {report.total_params:>10}"
    )
    lines.append(
        f"total {report.total_madds} madds ({billions(report.total_madds)} B), "
        f"{report.total_params} params, input "
        f"{report.input_resolution[0]}x{report.input_resolution[1]}, policy {report.policy}"
    )
    return "\n".join(lines)


def _render_csv(rows) -> str:
    """The label,madds,madds_B,params table of (label, madds, params) rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "madds", "madds_B", "params"])
    writer.writerows([label, madds, billions(madds), params] for label, madds, params in rows)
    return buf.getvalue()


def render_report_csv(report: CostReport) -> str:
    rows = [(c.name, c.madds, c.params) for c in report.per_node]
    rows += [("stage:" + s, report.stage_madds[s], report.stage_params[s]) for s in STAGES]
    rows.append(("total", report.total_madds, report.total_params))
    return _render_csv(rows)


def render_ablation_text(rows: list[AblationRow]) -> str:
    width = max(len(r.label) for r in rows)
    lines = [f"{'variant'.ljust(width)} {'madds':>14} {'madds_B':>8} {'params':>10}"]
    for r in rows:
        lines.append(f"{r.label.ljust(width)} {r.madds:>14} {billions(r.madds):>8} {r.params:>10}")
    return "\n".join(lines)


def render_ablation_csv(rows: list[AblationRow]) -> str:
    return _render_csv((r.label, r.madds, r.params) for r in rows)


__all__ = [
    "CostPolicy", "DEFAULT_POLICY", "INCLUSIVE_POLICY", "NodeCost", "CostReport",
    "count_node", "count_model", "count_config", "ablation_report", "apply_variant",
    "AblationRow", "render_report_text", "render_report_csv",
    "render_ablation_text", "render_ablation_csv", "billions", "ABLATION_AXES",
]
