"""Core value types: feature-map shapes and convolution parameter records.

Feature maps are dense rank-3 numpy arrays of float32 laid out (row, column,
channel). Label maps are rank-2 int32 arrays. Helpers here validate those
conventions at module boundaries; the kernels assume validated inputs.
Finiteness is checked once per value, by ``require_finite`` where the value
is made, never again by its consumers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ConfigError, ShapeError


@dataclass(frozen=True)
class TensorShape:
    h: int
    w: int
    c: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1 or self.c < 1:
            raise ShapeError(f"all dimensions must be >= 1, got {self}")

    @property
    def count(self) -> int:
        return self.h * self.w * self.c

    def __str__(self):
        return f"{self.h}x{self.w}x{self.c}"


@dataclass(frozen=True)
class ConvParams:
    kernel_h: int
    kernel_w: int
    stride: int
    dilation: int
    groups: int
    in_c: int
    out_c: int

    def __post_init__(self):
        for field in ("kernel_h", "kernel_w", "stride", "dilation", "groups", "in_c", "out_c"):
            if getattr(self, field) < 1:
                raise ConfigError(f"ConvParams.{field} must be positive, got {getattr(self, field)}")
        if self.in_c % self.groups != 0 or self.out_c % self.groups != 0:
            raise ConfigError(
                f"groups={self.groups} must divide in_c={self.in_c} and out_c={self.out_c}"
            )

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_c == self.out_c

    def kernel_shape(self) -> tuple[int, int, int, int]:
        """Weight layout (kernel_h, kernel_w, in_c/groups, out_c)."""
        return (self.kernel_h, self.kernel_w, self.in_c // self.groups, self.out_c)


def as_feature_map(x, name: str = "input") -> np.ndarray:
    """Validate the rank and return a (h, w, c) float32 array."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"{name} must be rank-3 (h, w, c), got rank {x.ndim}")
    if x.dtype != np.float32:
        x = x.astype(np.float32)
    return x


def shape_of(x: np.ndarray) -> TensorShape:
    return TensorShape(x.shape[0], x.shape[1], x.shape[2])


def require_finite(x: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{name} produced non-finite values")
    return x
