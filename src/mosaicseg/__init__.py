"""MOSAIC mobile semantic-segmentation architecture as a library.

Reference kernels over (h, w, c) float32 maps, a typed computation graph with
shape inference and execution, builders for the tailored backbone +
pyramid context encoder + hybrid decoder, an analytical multiply-add cost
model, deterministic weight initialization with a binary store format, and
the mean-IoU metric.
"""

from .arch import (
    BACKBONE_ROWS,
    BackboneRow,
    Model,
    ModelConfig,
    SkipSpec,
    ade20k_config,
    build_model,
    cityscapes_config,
    dump_config,
    load_config,
    parse_config,
    parse_skip,
)
from .cost import (
    DEFAULT_POLICY,
    INCLUSIVE_POLICY,
    CostPolicy,
    CostReport,
    ablation_report,
    count_config,
    count_model,
    count_node,
)
from .errors import ConfigError, FormatError, MosaicError, NumericError, ShapeError
from .graph import Graph, NodeSpec, check_weights, execute, infer_shapes, topo_order
from .images import read_image_ppm, read_labelmap_pgm, write_image_ppm, write_labelmap_pgm
from .metrics import compute_miou
from .tensor import ConvParams, TensorShape
from .weights import init_weights, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "BACKBONE_ROWS", "BackboneRow", "Model", "ModelConfig", "SkipSpec", "ade20k_config",
    "build_model", "cityscapes_config", "dump_config", "load_config", "parse_config", "parse_skip",
    "DEFAULT_POLICY", "INCLUSIVE_POLICY", "CostPolicy", "CostReport",
    "ablation_report", "count_config", "count_model", "count_node",
    "ConfigError", "FormatError", "MosaicError", "NumericError", "ShapeError",
    "Graph", "NodeSpec", "check_weights", "execute", "infer_shapes", "topo_order",
    "read_image_ppm", "read_labelmap_pgm", "write_image_ppm", "write_labelmap_pgm",
    "compute_miou", "ConvParams", "TensorShape",
    "init_weights", "load_weights", "save_weights",
    "__version__",
]
