"""Builders translating a ModelConfig into a computation graph.

A ModelConfig is flat: one field per key of the ``key=value`` config file, in
dump order, so a variant is one ``dataclasses.replace``.

The network has four stages, reflected in node-name prefixes used by the cost
report: ``backbone/`` (tailored MobileNet-Multi-Hardware trunk, output stride
16), ``encoder/`` (spatial-pyramid context encoder with multi-kernel group
convolutions), ``decoder/`` (hybrid concat/sum merge blocks over lateral
skips), and ``head/`` (linear classifier + final upsample).

Every convolution is one node that carries a folded affine (inference-time
batch norm) and a ReLU unless built linear: bottleneck projections and
sum-merge skip projections carry the affine only, the classifier a bias only.
"""

import re
from dataclasses import dataclass

from .errors import ConfigError
from .graph import Graph, NodeSpec, infer_shapes
from .tensor import ConvParams, TensorShape

AGGREGATION_MODES = ("EncoderWidth", "DecoderWidth")
MERGE_STYLES = {"C": "concat", "S": "sum"}


@dataclass(frozen=True)
class BackboneRow:
    operator: str            # "conv" or "bneck"
    kernel: int
    exp_size: int | None
    out_c: int | None        # None = endpoint width m
    stride: int
    tap: str | None = None   # output-stride tap registered at this row's output


# Tailored MobileNet-Multi-Hardware trunk, 18 rows, strides multiply to 16.
# Row indices are 1-based everywhere they are exposed (dilation_rows config).
BACKBONE_ROWS: tuple[BackboneRow, ...] = (
    BackboneRow("conv", 3, None, 32, 2, "os2"),
    BackboneRow("bneck", 3, 96, 32, 2),
    BackboneRow("bneck", 3, 64, 32, 1, "os4"),
    BackboneRow("bneck", 5, 160, 64, 2),
    BackboneRow("bneck", 3, 192, 64, 1),
    BackboneRow("bneck", 3, 128, 64, 1),
    BackboneRow("bneck", 3, 192, 64, 1, "os8"),
    BackboneRow("bneck", 5, 384, 128, 2),
    BackboneRow("bneck", 3, 384, 128, 1),
    BackboneRow("bneck", 3, 384, 128, 1),
    BackboneRow("bneck", 3, 384, 128, 1),
    BackboneRow("bneck", 3, 768, 160, 1),
    BackboneRow("bneck", 3, 640, 160, 1),
    BackboneRow("bneck", 3, 960, 192, 1),
    BackboneRow("bneck", 5, 384, 96, 1),
    BackboneRow("bneck", 5, 384, 96, 1),
    BackboneRow("bneck", 5, 384, 96, 1),
    BackboneRow("conv", 1, None, None, 1, "os16"),
)

DEFAULT_DILATION_ROWS = (15, 16, 17)


@dataclass(frozen=True)
class SkipSpec:
    output_stride: int
    merge: str  # "concat" | "sum"

    def validate(self):
        if self.output_stride not in (2, 4, 8):
            raise ConfigError(f"skip output_stride must be 2, 4 or 8, got {self.output_stride}")
        if self.merge not in ("concat", "sum"):
            raise ConfigError(f"skip merge must be 'concat' or 'sum', got {self.merge!r}")

    def token(self) -> str:
        return f"{self.output_stride}-{'C' if self.merge == 'concat' else 'S'}"


def parse_skip(token: str) -> SkipSpec:
    parts = token.strip().split("-")
    if len(parts) != 2 or parts[1] not in MERGE_STYLES:
        raise ConfigError(f"bad skip token {token!r}, expected e.g. '8-C' or '4-S'")
    spec = SkipSpec(parse_int(f"bad skip token {token!r}", parts[0]), MERGE_STYLES[parts[1]])
    spec.validate()
    return spec


@dataclass(frozen=True)
class ModelConfig:
    m: int = 480
    num_classes: int = 19
    input_h: int = 1024
    input_w: int = 2048
    enc_filters: int = 32
    dec_filters: int = 64
    pyramid_bins: tuple[int, ...] = (4, 8, 16)
    use_group_conv: bool = True
    group_kernels: tuple[int, ...] = (3, 5)
    skips: tuple[SkipSpec, ...] = (SkipSpec(8, "concat"), SkipSpec(4, "sum"))
    aggregation_width_mode: str = "EncoderWidth"
    dilation_rows: tuple[int, ...] = DEFAULT_DILATION_ROWS

    def validate(self):
        if self.m <= 0:
            raise ConfigError(f"m must be positive, got {self.m}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        for key in ("input_h", "input_w"):
            if getattr(self, key) < 16:
                raise ConfigError(f"{key} must be at least 16, got {getattr(self, key)}")
        if self.input_h % 16 != 0 or self.input_w % 16 != 0:
            raise ConfigError(
                f"input_h/input_w must be divisible by 16, got {self.input_h}x{self.input_w}"
            )
        if self.aggregation_width_mode not in AGGREGATION_MODES:
            raise ConfigError(
                f"aggregation_width_mode must be one of {AGGREGATION_MODES}, "
                f"got {self.aggregation_width_mode!r}"
            )
        for row in self.dilation_rows:
            if not 1 <= row <= len(BACKBONE_ROWS):
                raise ConfigError(f"dilation_rows entry {row} outside 1..{len(BACKBONE_ROWS)}")
            if BACKBONE_ROWS[row - 1].operator != "bneck":
                raise ConfigError(f"dilation_rows entry {row} is not a bottleneck row")
        if not self.pyramid_bins:
            raise ConfigError("pyramid_bins must be nonempty")
        if any(g < 1 for g in self.pyramid_bins):
            raise ConfigError(f"pyramid_bins entries must be >= 1, got {self.pyramid_bins}")
        if list(self.pyramid_bins) != sorted(set(self.pyramid_bins)):
            raise ConfigError(f"pyramid_bins must be strictly increasing, got {self.pyramid_bins}")
        if not self.group_kernels:
            raise ConfigError("group_kernels must be nonempty")
        if self.enc_filters < 1:
            raise ConfigError("enc_filters must be positive")
        if self.enc_filters % len(self.group_kernels) != 0:
            raise ConfigError(
                f"enc_filters={self.enc_filters} must be divisible by the "
                f"{len(self.group_kernels)} kernel branches"
            )
        for s in self.skips:
            s.validate()
        strides = [s.output_stride for s in self.skips]
        if any(a <= b for a, b in zip(strides, strides[1:])):
            raise ConfigError(f"skip output strides must be strictly decreasing, got {strides}")
        if self.dec_filters < 1:
            raise ConfigError("dec_filters must be positive")

    @property
    def aggregation_width(self) -> int:
        if self.aggregation_width_mode == "EncoderWidth":
            return self.enc_filters
        return self.dec_filters


@dataclass
class Model:
    cfg: ModelConfig
    graph: Graph
    logits: str
    shapes: dict[str, TensorShape]


def _conv_unit(graph, inp, name, conv: ConvParams, *, relu=True, affine=True, bias=False):
    """One Conv node with its optional bias, folded affine and ReLU."""
    params = {"conv": conv, "bias": bias, "affine": affine, "relu": relu}
    return graph.add_node(NodeSpec(name, "Conv", params), (inp,))


def _depthwise_unit(graph, inp, name, channels, kernel, stride, dilation):
    """One DepthwiseConv node with its folded affine and ReLU."""
    conv = ConvParams(kernel, kernel, stride, dilation, channels, channels, channels)
    params = {"conv": conv, "affine": True, "relu": True}
    return graph.add_node(NodeSpec(name, "DepthwiseConv", params), (inp,))


def build_bneck(graph, inp, name, in_c, exp_size, out_c, kernel, stride, dilation=1):
    """Inverted bottleneck: expand 1x1 -> depthwise kxk -> linear project 1x1,
    residual add when stride is 1 and channel counts match."""
    if stride not in (1, 2):
        raise ConfigError(f"{name}: bottleneck stride must be 1 or 2, got {stride}")
    if kernel not in (3, 5):
        raise ConfigError(f"{name}: bottleneck kernel must be 3 or 5, got {kernel}")
    ref = _conv_unit(graph, inp, f"{name}/expand", ConvParams(1, 1, 1, 1, 1, in_c, exp_size))
    ref = _depthwise_unit(graph, ref, f"{name}/dw", exp_size, kernel, stride, dilation)
    ref = _conv_unit(
        graph, ref, f"{name}/project", ConvParams(1, 1, 1, 1, 1, exp_size, out_c), relu=False
    )
    if stride == 1 and in_c == out_c:
        ref = graph.add_node(NodeSpec(f"{name}/add", "Add"), (inp, ref))
    return ref


def build_backbone(graph, m, dilation_rows=DEFAULT_DILATION_ROWS):
    """Instantiate all backbone rows; registers os2/os4/os8/os16 taps and
    returns their channel widths as {tap: width}."""
    if m <= 0:
        raise ConfigError(f"endpoint width m must be positive, got {m}")
    ref = graph.source
    in_c = 3
    widths = {}
    for row_idx, row in enumerate(BACKBONE_ROWS, start=1):
        out_c = row.out_c if row.out_c is not None else m
        dilation = 2 if row_idx in dilation_rows else 1
        if row.operator == "conv":
            name = "backbone/stem" if row_idx == 1 else "backbone/feature"
            conv = ConvParams(row.kernel, row.kernel, row.stride, 1, 1, in_c, out_c)
            ref = _conv_unit(graph, ref, name, conv)
        else:
            ref = build_bneck(
                graph, ref, f"backbone/bneck{row_idx:02d}",
                in_c, row.exp_size, out_c, row.kernel, row.stride, dilation,
            )
        if row.tap:
            graph.add_tap(row.tap, ref)
            widths[row.tap] = out_c
        in_c = out_c
    return widths


def build_multi_kernel_group_conv(graph, inp, name, in_c, cfg: ModelConfig):
    """Parallel separable-conv branches with per-branch kernel sizes.

    Grouped: channels split equally, one group per kernel size. Ungrouped:
    each kernel size runs over all channels. Either way every branch emits
    enc_filters/len(kernels) channels and the branches are concatenated.
    """
    n = len(cfg.group_kernels)
    branch_c = cfg.enc_filters // n
    outs = []
    for i, kernel in enumerate(cfg.group_kernels):
        branch = f"{name}/group{i}"
        if cfg.use_group_conv:
            if in_c % n != 0:
                raise ConfigError(
                    f"{name}: {in_c} channels cannot split into {n} equal groups"
                )
            gc = in_c // n
            ref = graph.add_node(
                NodeSpec(f"{branch}/slice", "Slice", {"start": i * gc, "stop": (i + 1) * gc}),
                (inp,),
            )
            width = gc
        else:
            ref = inp
            width = in_c
        ref = _depthwise_unit(graph, ref, f"{branch}/dw", width, kernel, 1, 1)
        ref = _conv_unit(graph, ref, f"{branch}/pw", ConvParams(1, 1, 1, 1, 1, width, branch_c))
        outs.append(ref)
    if len(outs) == 1:
        return outs[0]
    return graph.add_node(NodeSpec(f"{name}/concat", "ConcatChannels"), tuple(outs))


def build_context_encoder(graph, os16, cfg: ModelConfig):
    """Pyramid levels (pool -> multi-kernel conv -> resize back) over the
    m-wide os16 feature, concatenated with it, then a 1x1 aggregation conv to
    the aggregation width. A grid larger than the feature fails in
    ``infer_shapes``, which names its pool node."""
    h16, w16 = cfg.input_h // 16, cfg.input_w // 16
    levels = [os16]
    for g in cfg.pyramid_bins:
        level = f"encoder/level{g:02d}"
        ref = graph.add_node(
            NodeSpec(f"{level}/pool", "AvgPoolGrid", {"grid_h": g, "grid_w": g}), (os16,)
        )
        ref = build_multi_kernel_group_conv(graph, ref, level, cfg.m, cfg)
        ref = graph.add_node(
            NodeSpec(f"{level}/resize", "BilinearResize", {"out_h": h16, "out_w": w16}), (ref,)
        )
        levels.append(ref)
    cat = graph.add_node(NodeSpec("encoder/concat", "ConcatChannels"), tuple(levels))
    cat_width = cfg.m + len(cfg.pyramid_bins) * cfg.enc_filters
    return _conv_unit(
        graph, cat, "encoder/aggregate", ConvParams(1, 1, 1, 1, 1, cat_width, cfg.aggregation_width)
    )


def build_concat_merge(graph, semantic, skip, name, sem_c, skip_c, dec_filters):
    """concat -> 1x1 conv -> 3x3 depthwise -> 1x1 conv, all to dec_filters."""
    ref = graph.add_node(NodeSpec(f"{name}/concat", "ConcatChannels"), (semantic, skip))
    ref = _conv_unit(
        graph, ref, f"{name}/conv_in", ConvParams(1, 1, 1, 1, 1, sem_c + skip_c, dec_filters)
    )
    ref = _depthwise_unit(graph, ref, f"{name}/dw", dec_filters, 3, 1, 1)
    ref = _conv_unit(
        graph, ref, f"{name}/conv_out", ConvParams(1, 1, 1, 1, 1, dec_filters, dec_filters)
    )
    return ref


def build_sum_merge(graph, semantic, skip, name, width, skip_c):
    """semantic + linear 1x1 projection of the skip to the semantic width."""
    proj = _conv_unit(
        graph, skip, f"{name}/skip_proj", ConvParams(1, 1, 1, 1, 1, skip_c, width), relu=False
    )
    return graph.add_node(NodeSpec(f"{name}/add", "Add"), (semantic, proj))


def build_decoder(graph, encoded, cfg: ModelConfig, tap_widths):
    """Walk the skip list coarse-to-fine over the graph's taps, then classify
    and upsample."""
    taps = graph.taps
    width = cfg.aggregation_width
    ref = encoded
    for skip in cfg.skips:
        tap = f"os{skip.output_stride}"
        sh = cfg.input_h // skip.output_stride
        sw = cfg.input_w // skip.output_stride
        ref = graph.add_node(
            NodeSpec(f"decoder/to_{tap}", "BilinearResize", {"out_h": sh, "out_w": sw}), (ref,)
        )
        merge = f"decoder/merge_{tap}"
        if skip.merge == "concat":
            ref = build_concat_merge(
                graph, ref, taps[tap], merge, width, tap_widths[tap], cfg.dec_filters
            )
            width = cfg.dec_filters
        else:
            ref = build_sum_merge(graph, ref, taps[tap], merge, width, tap_widths[tap])
    ref = _conv_unit(graph, ref, "head/classifier", ConvParams(1, 1, 1, 1, 1, width, cfg.num_classes),
                     relu=False, affine=False, bias=True)
    return graph.add_node(
        NodeSpec("head/upsample", "BilinearResize", {"out_h": cfg.input_h, "out_w": cfg.input_w}),
        (ref,),
    )


def build_model(cfg: ModelConfig) -> Model:
    """source -> backbone -> context encoder -> decoder -> logits,
    shape-checked at the configured resolution."""
    cfg.validate()
    graph = Graph()
    tap_widths = build_backbone(graph, cfg.m, cfg.dilation_rows)
    encoded = build_context_encoder(graph, graph.taps["os16"], cfg)
    logits = build_decoder(graph, encoded, cfg, tap_widths)
    shapes = infer_shapes(graph, TensorShape(cfg.input_h, cfg.input_w, 3))
    return Model(cfg, graph, logits, shapes)


# --- flat key=value config files -------------------------------------------
# each parser takes (what, value); ``what`` names the value in its errors

def parse_int(what, value):
    """An optional '-' then ASCII digits, surrounding whitespace aside."""
    value = value.strip()
    if re.fullmatch(r"-?[0-9]+", value) is None:
        raise ConfigError(f"{what}: expected integer, got {value!r}")
    return int(value)


def parse_list(value, parse_item):
    """Comma-separated items: a blank value is (); otherwise every item, an
    empty one included, goes through ``parse_item``, which rejects ''."""
    if not value.strip():
        return ()
    return tuple(parse_item(v) for v in value.split(","))


def _parse_int_list(what, value):
    return parse_list(value, lambda v: parse_int(what, v))


def _parse_bool(what, value):
    lowered = value.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"{what}: expected true/false, got {value!r}")


def _parse_skips(what, value):
    return parse_list(value, parse_skip)


def _join(values):
    return ",".join(str(v) for v in values)


_INT = (parse_int, str)
_INTS = (_parse_int_list, _join)

# key: (parse(what, text), format(value)), in dump order; each key names a
# ModelConfig field
_CONFIG_FIELDS = {
    "m": _INT,
    "num_classes": _INT,
    "input_h": _INT,
    "input_w": _INT,
    "enc_filters": _INT,
    "dec_filters": _INT,
    "pyramid_bins": _INTS,
    "use_group_conv": (_parse_bool, lambda v: "true" if v else "false"),
    "group_kernels": _INTS,
    "skips": (_parse_skips, lambda skips: _join(s.token() for s in skips)),
    "aggregation_width_mode": (lambda what, value: value, str),
    "dilation_rows": _INTS,
}


def parse_config(text: str) -> ModelConfig:
    """Parse flat key=value lines; omitted keys take the default configuration,
    unknown keys are rejected. '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    cfg = ModelConfig(**{
        key: _CONFIG_FIELDS[key][0](f"config key {key}", value) for key, value in raw.items()
    })
    cfg.validate()
    return cfg


def load_config(path) -> ModelConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8 at byte {exc.start}") from None
    return parse_config(text)


def dump_config(cfg: ModelConfig) -> str:
    return "".join(f"{key}={fmt(getattr(cfg, key))}\n" for key, (_, fmt) in _CONFIG_FIELDS.items())


def cityscapes_config() -> ModelConfig:
    """Default configuration: 19 classes at 1024x2048, filters (32, 64)."""
    return ModelConfig()


def ade20k_config() -> ModelConfig:
    """32 classes at 512x512 with m=448 and filters (64, 64)."""
    return ModelConfig(m=448, num_classes=32, input_h=512, input_w=512, enc_filters=64, dec_filters=64)
