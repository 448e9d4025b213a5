"""Reference numerical kernels over (h, w, c) float32 feature maps.

Conventions, fixed for every kernel here and relied on by the graph executor
and the cost model:

* SAME zero padding: out = ceil(in / stride) per spatial dim, pad split
  floor-left / ceil-right.
* Values are stored float32; reductions (conv, depthwise, pooling, bilinear
  blending) accumulate in float64 and cast once at the end.
* Convolution (depthwise, pointwise and kxk), bilinear resize and affine work
  over row bands of their output: each band's float64 buffers hold about
  ``_BAND_BYTES``, are reused from band to band, and are rounded straight into
  the preallocated float32 output. Every output element goes through the same
  IEEE operations, in the same order, as whole-array evaluation, so the
  results are bit-identical to it.
* Bilinear resize defaults to corner-aligned sampling
  (src = dst * (in-1)/(out-1), a single output maps to coordinate 0);
  ``mode="half"`` selects half-pixel centers.
* Average-pool grids use floor-based bin edges floor(i*size/grid), which tile
  the input exactly for any size/grid combination.
* argmax breaks ties toward the lowest channel index.
* Kernels assume finite inputs. A kernel that can turn finite inputs into a
  non-finite value (conv, depthwise, pooling, resize, add, affine) checks its
  output with ``require_finite``; ReLU, concat and argmax check nothing.

All kernels are pure functions of their arguments and never mutate inputs.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import ConvParams, as_feature_map, require_finite

VALID_RESIZE_MODES = ("corner", "half")

# float64 bytes per band buffer: small enough to stay in cache
_BAND_BYTES = 1 << 20


def _band_rows(n_rows: int, row_elems: int) -> int:
    """Rows per band for buffers of ``row_elems`` float64 values per row."""
    return max(1, min(n_rows, _BAND_BYTES // (8 * row_elems)))


def same_pad(size: int, kernel: int, stride: int, dilation: int) -> tuple[int, int, int]:
    """Return (out_size, pad_before, pad_after) for SAME padding."""
    out = -(-size // stride)
    effective = (kernel - 1) * dilation + 1
    total = max((out - 1) * stride + effective - size, 0)
    before = total // 2
    return out, before, total - before


def _pad_input(x: np.ndarray, params: ConvParams) -> tuple[np.ndarray, int, int]:
    h, w, _ = x.shape
    out_h, pad_t, pad_b = same_pad(h, params.kernel_h, params.stride, params.dilation)
    out_w, pad_l, pad_r = same_pad(w, params.kernel_w, params.stride, params.dilation)
    if pad_t == pad_b == pad_l == pad_r == 0:
        return x, out_h, out_w
    padded = np.pad(x, ((pad_t, pad_b), (pad_l, pad_r), (0, 0)))
    return padded, out_h, out_w


def _tap(padded: np.ndarray, top: int, n: int, out_w: int, kj: int, params: ConvParams) -> np.ndarray:
    """The (n, out_w, c) samples that kernel column kj reads for n output rows,
    the first of which reads padded row ``top``."""
    s, d = params.stride, params.dilation
    return padded[top: top + (n - 1) * s + 1: s, kj * d: kj * d + (out_w - 1) * s + 1: s]


def _conv_args(fn: str, x, kernels, bias, params: ConvParams):
    """The checked float32 input, kernels and bias (or None) of a convolution."""
    x = as_feature_map(x)
    if x.shape[2] != params.in_c:
        raise ShapeError(f"{fn}: input has {x.shape[2]} channels, params expect {params.in_c}")
    kernels = np.asarray(kernels, dtype=np.float32)
    if kernels.shape != params.kernel_shape():
        raise ShapeError(
            f"{fn}: kernel shape {kernels.shape} does not match expected {params.kernel_shape()}"
        )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (params.out_c,):
            raise ShapeError(f"{fn}: bias length {bias.shape} != out_c {params.out_c}")
    return x, kernels, bias


def conv2d(x, kernels, bias, params: ConvParams) -> np.ndarray:
    """Grouped 2-D convolution with SAME zero padding.

    ``kernels`` has layout (kernel_h, kernel_w, in_c/groups, out_c); group g
    reads input channels [g*ig, (g+1)*ig) and writes output channels
    [g*og, (g+1)*og). ``bias`` is a per-output-channel vector or None.
    """
    x, kernels, bias = _conv_args("conv2d", x, kernels, bias, params)
    if params.is_depthwise:
        out = _depthwise(x, kernels[:, :, 0, :], bias, params)
    else:
        out = _conv_gemm(x, kernels, bias, params)
    return require_finite(out, "conv2d")


def _conv_gemm(x, kernels, bias, params: ConvParams) -> np.ndarray:
    """Per band: the im2col rows as (n, out_w, kernel_h, kernel_w, in_c)
    float64, then one GEMM per group into the accumulator."""
    kh, kw, s, d = params.kernel_h, params.kernel_w, params.stride, params.dilation
    padded, out_h, out_w = _pad_input(x, params)
    ig = params.in_c // params.groups
    og = params.out_c // params.groups
    taps = kh * kw * ig
    w64 = [
        kernels[:, :, :, g * og:(g + 1) * og].astype(np.float64).reshape(taps, og)
        for g in range(params.groups)
    ]
    b64 = None if bias is None else bias.astype(np.float64)
    out = np.empty((out_h, out_w, params.out_c), dtype=np.float32)
    step = _band_rows(out_h, out_w * max(kh * kw * params.in_c, params.out_c))
    win_buf = np.empty((step, out_w, kh, kw, params.in_c))
    acc_buf = np.empty((step * out_w, params.out_c))
    for r0 in range(0, out_h, step):
        n = min(step, out_h - r0)
        win, acc = win_buf[:n], acc_buf[:n * out_w]
        for ki in range(kh):
            for kj in range(kw):
                win[:, :, ki, kj] = _tap(padded, r0 * s + ki * d, n, out_w, kj, params)
        for g in range(params.groups):
            block = win[:, :, :, :, g * ig:(g + 1) * ig].reshape(n * out_w, taps)
            np.matmul(block, w64[g], out=acc[:, g * og:(g + 1) * og])
        if b64 is not None:
            acc += b64
        out[r0:r0 + n] = acc.reshape(n, out_w, params.out_c)
    return out


def _depthwise(x, kernels, bias, params: ConvParams) -> np.ndarray:
    """Per band: a zero-padded float64 copy of the input rows the band reads,
    then every tap in (ki, kj) order added onto a zero accumulator."""
    h, w, c = x.shape
    kh, kw, s, d = params.kernel_h, params.kernel_w, params.stride, params.dilation
    out_h, pad_t, _ = same_pad(h, kh, s, d)
    out_w, pad_l, pad_r = same_pad(w, kw, s, d)
    k64 = kernels.astype(np.float64)
    b64 = None if bias is None else bias.astype(np.float64)
    out = np.empty((out_h, out_w, c), dtype=np.float32)
    step = _band_rows(out_h, out_w * c)
    span = (kh - 1) * d + 1
    rows = np.zeros(((step - 1) * s + span, pad_l + w + pad_r, c))  # pad columns stay 0
    acc_buf = np.empty((step, out_w, c))
    tmp_buf = np.empty((step, out_w, c))
    for r0 in range(0, out_h, step):
        n = min(step, out_h - r0)
        acc, tmp = acc_buf[:n], tmp_buf[:n]
        first = r0 * s - pad_t  # input row of the band's first padded row
        band = rows[:(n - 1) * s + span]
        lo, hi = max(first, 0), min(first + len(band), h)
        band[:lo - first] = 0.0
        band[lo - first:hi - first, pad_l:pad_l + w] = x[lo:hi]
        band[hi - first:] = 0.0
        acc.fill(0.0)
        for ki in range(kh):
            for kj in range(kw):
                np.multiply(_tap(band, ki * d, n, out_w, kj, params), k64[ki, kj], out=tmp)
                acc += tmp
        if b64 is not None:
            acc += b64
        out[r0:r0 + n] = acc
    return out


def depthwise_conv2d(x, kernels, params: ConvParams) -> np.ndarray:
    """Per-channel convolution with (kernel_h, kernel_w, c) or (kernel_h,
    kernel_w, 1, c) kernels; output channel i depends only on input channel i."""
    if not params.is_depthwise:
        raise ConfigError("depthwise_conv2d requires groups == in_c == out_c")
    kernels = np.asarray(kernels, dtype=np.float32)
    if kernels.ndim == 3:
        kernels = kernels[:, :, None, :]
    x, kernels, _ = _conv_args("depthwise_conv2d", x, kernels, None, params)
    return require_finite(_depthwise(x, kernels[:, :, 0, :], None, params), "depthwise_conv2d")


def avg_pool_grid(x, grid_h: int, grid_w: int) -> np.ndarray:
    """Average-pool into a fixed grid; bin (i, j) covers rows
    floor(i*h/grid_h) .. floor((i+1)*h/grid_h)-1 and likewise for columns."""
    x = as_feature_map(x)
    h, w, c = x.shape
    if grid_h < 1 or grid_w < 1:
        raise ConfigError(f"pool grid must be positive, got {grid_h}x{grid_w}")
    if grid_h > h or grid_w > w:
        raise ConfigError(f"pool grid {grid_h}x{grid_w} exceeds input size {h}x{w}")
    x64 = x.astype(np.float64)
    out = np.empty((grid_h, grid_w, c), dtype=np.float64)
    row_edges = [i * h // grid_h for i in range(grid_h + 1)]
    col_edges = [j * w // grid_w for j in range(grid_w + 1)]
    for i in range(grid_h):
        for j in range(grid_w):
            cell = x64[row_edges[i]:row_edges[i + 1], col_edges[j]:col_edges[j + 1], :]
            out[i, j, :] = cell.mean(axis=(0, 1))
    return require_finite(out.astype(np.float32), "avg_pool_grid")


def global_avg_pool(x) -> np.ndarray:
    x = as_feature_map(x)
    out = x.astype(np.float64).mean(axis=(0, 1), keepdims=True)
    return require_finite(out.astype(np.float32), "global_avg_pool")


def _source_coords(n_out: int, n_in: int, mode: str) -> np.ndarray:
    if mode == "corner":
        if n_out == 1:
            return np.zeros(1, dtype=np.float64)
        return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)
    coords = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
    return np.clip(coords, 0.0, n_in - 1)


def bilinear_resize(x, out_h: int, out_w: int, mode: str = "corner") -> np.ndarray:
    """Bilinear interpolation of the four nearest source samples."""
    x = as_feature_map(x)
    h, w, c = x.shape
    if mode not in VALID_RESIZE_MODES:
        raise ConfigError(f"resize mode must be one of {VALID_RESIZE_MODES}, got {mode!r}")
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"resize target must be positive, got {out_h}x{out_w}")
    if out_h == h and out_w == w:
        return x.copy()
    src_r = _source_coords(out_h, h, mode)
    src_c = _source_coords(out_w, w, mode)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (src_r - r0)[:, None, None]
    fc = (src_c - c0)[:, None]
    fr0, fc0 = 1.0 - fr, 1.0 - fc
    # column pass once over the source rows, then a row blend per output band
    cols = np.empty((h, out_w, c))
    step = _band_rows(h, out_w * c)
    tmp_buf = np.empty((step, out_w, c))
    for a in range(0, h, step):
        band, tmp = cols[a:a + step], tmp_buf[:min(step, h - a)]
        np.multiply(x[a:a + step, c0], fc0, out=band)
        np.multiply(x[a:a + step, c1], fc, out=tmp)
        band += tmp
    out = np.empty((out_h, out_w, c), dtype=np.float32)
    step = _band_rows(out_h, out_w * c)
    top_buf = np.empty((step, out_w, c))
    bot_buf = np.empty((step, out_w, c))
    for a in range(0, out_h, step):
        b = min(a + step, out_h)
        top, bot = top_buf[:b - a], bot_buf[:b - a]
        np.take(cols, r0[a:b], axis=0, out=top, mode="clip")
        top *= fr0[a:b]
        np.take(cols, r1[a:b], axis=0, out=bot, mode="clip")
        bot *= fr[a:b]
        top += bot
        out[a:b] = top
    return require_finite(out, "bilinear_resize")


def concat_channels(xs) -> np.ndarray:
    if not xs:
        raise ShapeError("concat_channels needs at least one input")
    xs = [as_feature_map(x, f"concat input {i}") for i, x in enumerate(xs)]
    hw = xs[0].shape[:2]
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[:2] != hw:
            raise ShapeError(
                f"concat_channels: input {i} spatial size {x.shape[:2]} != {hw}"
            )
    return np.concatenate(xs, axis=2)


def add_elementwise(a, b) -> np.ndarray:
    a = as_feature_map(a, "add lhs")
    b = as_feature_map(b, "add rhs")
    if a.shape != b.shape:
        raise ShapeError(f"add_elementwise: shape mismatch {a.shape} vs {b.shape}")
    return require_finite(a + b, "add_elementwise")


def relu(x) -> np.ndarray:
    x = as_feature_map(x)
    return np.maximum(x, np.float32(0.0))


def affine_channels(x, scale, bias) -> np.ndarray:
    """out[r, q, i] = scale[i] * x[r, q, i] + bias[i] (folded batch norm)."""
    x = as_feature_map(x)
    scale = np.asarray(scale, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    c = x.shape[2]
    if scale.shape != (c,) or bias.shape != (c,):
        raise ShapeError(
            f"affine_channels: scale/bias shapes {scale.shape}/{bias.shape} != ({c},)"
        )
    s64, b64 = scale.astype(np.float64), bias.astype(np.float64)
    h, w, _ = x.shape
    out = np.empty(x.shape, dtype=np.float32)
    step = _band_rows(h, w * c)
    tmp_buf = np.empty((step, w, c))
    for r0 in range(0, h, step):
        tmp = tmp_buf[:min(step, h - r0)]
        np.multiply(x[r0:r0 + step], s64, out=tmp)
        tmp += b64
        out[r0:r0 + step] = tmp
    return require_finite(out, "affine_channels")


def argmax_channels(x) -> np.ndarray:
    """Per-pixel channel argmax; ties go to the lowest channel index."""
    x = as_feature_map(x)
    return np.argmax(x, axis=2).astype(np.int32)
