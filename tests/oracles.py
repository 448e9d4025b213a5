"""Whole-array and brute-force oracles that only the test suite uses.

The ``*_whole`` oracles are whole-array float64 evaluations whose per-element
IEEE operations, and their order, are the numeric contract of the banded
kernels, so those must match them bit for bit. The loop oracles that
``mosaic selftest`` also runs (conv, depthwise, pool, resize and the random
conv spec) live in :mod:`mosaicseg.selftest`.
"""

import numpy as np

from mosaicseg.selftest import same_pad
from mosaicseg.tensor import ConvParams


def _pad_whole(x, params: ConvParams):
    h, w, _ = x.shape
    out_h, pt, pb = same_pad(h, params.kernel_h, params.stride, params.dilation)
    out_w, pl, pr = same_pad(w, params.kernel_w, params.stride, params.dilation)
    return np.pad(x, ((pt, pb), (pl, pr), (0, 0))), out_h, out_w


def conv_whole(x, kern, bias, params: ConvParams):
    """Grouped conv (not depthwise): one float64 GEMM per group over the
    whole map, plus bias, rounded once to float32."""
    x = np.asarray(x, dtype=np.float32)
    kern = np.asarray(kern, dtype=np.float32)
    ig = params.in_c // params.groups
    og = params.out_c // params.groups
    if params.kernel_h == params.kernel_w == 1:
        sub = x[:: params.stride, :: params.stride, :].astype(np.float64)
        out_h, out_w, _ = sub.shape
        flat = sub.reshape(out_h * out_w, params.in_c)
        out = np.empty((out_h * out_w, params.out_c), dtype=np.float64)
        for g in range(params.groups):
            w = kern[0, 0, :, g * og:(g + 1) * og].astype(np.float64)
            out[:, g * og:(g + 1) * og] = flat[:, g * ig:(g + 1) * ig] @ w
    else:
        padded, out_h, out_w = _pad_whole(x, params)
        s, d = params.stride, params.dilation
        rows = np.arange(out_h)[:, None] * s + np.arange(params.kernel_h)[None, :] * d
        cols = np.arange(out_w)[:, None] * s + np.arange(params.kernel_w)[None, :] * d
        win = padded.astype(np.float64)[rows][:, :, cols].transpose(0, 2, 1, 3, 4)
        taps = params.kernel_h * params.kernel_w * ig
        out = np.empty((out_h * out_w, params.out_c), dtype=np.float64)
        for g in range(params.groups):
            block = win[:, :, :, :, g * ig:(g + 1) * ig].reshape(out_h * out_w, taps)
            w = kern[:, :, :, g * og:(g + 1) * og].astype(np.float64).reshape(taps, og)
            out[:, g * og:(g + 1) * og] = block @ w
    out = out.reshape(out_h, out_w, params.out_c)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float32).astype(np.float64)
    return out.astype(np.float32)


def depthwise_whole(x, kern, bias, params: ConvParams):
    """Depthwise conv: every tap in (ki, kj) order added onto a float64 zero
    map, plus bias, rounded once to float32."""
    kern = np.asarray(kern, dtype=np.float32)
    kern = kern.reshape(params.kernel_h, params.kernel_w, params.out_c)
    padded, out_h, out_w = _pad_whole(np.asarray(x, dtype=np.float32), params)
    padded = padded.astype(np.float64)
    s, d = params.stride, params.dilation
    out = np.zeros((out_h, out_w, params.out_c), dtype=np.float64)
    k64 = kern.astype(np.float64)
    for ki in range(params.kernel_h):
        for kj in range(params.kernel_w):
            patch = padded[
                ki * d: ki * d + (out_h - 1) * s + 1: s,
                kj * d: kj * d + (out_w - 1) * s + 1: s,
                :,
            ]
            out += patch * k64[ki, kj, :]
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float32).astype(np.float64)
    return out.astype(np.float32)


def resize_whole(x, oh, ow):
    """Bilinear resize: gather the four corners of every output sample from a
    float64 copy of the map, blend columns then rows, round to float32."""
    h, w, _ = x.shape
    if oh == h and ow == w:
        return np.array(x, dtype=np.float32)

    def coords(n_out, n_in):
        if n_out == 1:
            return np.zeros(1)
        return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)

    src_r, src_c = coords(oh, h), coords(ow, w)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (src_r - r0)[:, None, None]
    fc = (src_c - c0)[None, :, None]
    x64 = np.asarray(x, dtype=np.float32).astype(np.float64)
    top = x64[r0][:, c0] * (1.0 - fc) + x64[r0][:, c1] * fc
    bot = x64[r1][:, c0] * (1.0 - fc) + x64[r1][:, c1] * fc
    return (top * (1.0 - fr) + bot * fr).astype(np.float32)


def affine_whole(x, scale, bias):
    """Per-channel x * scale + bias in float64, rounded to float32."""
    x64 = np.asarray(x, dtype=np.float32).astype(np.float64)
    s64 = np.asarray(scale, dtype=np.float32).astype(np.float64)
    b64 = np.asarray(bias, dtype=np.float32).astype(np.float64)
    return (x64 * s64 + b64).astype(np.float32)


def argmax_loops(x):
    h, w, c = x.shape
    out = np.zeros((h, w), dtype=np.int32)
    for r in range(h):
        for q in range(w):
            best, best_i = x[r, q, 0], 0
            for i in range(1, c):
                if x[r, q, i] > best:  # strict: first maximum wins ties
                    best, best_i = x[r, q, i], i
            out[r, q] = best_i
    return out


def miou_confusion(pred, gt, k, ignore_label=None):
    confusion = np.zeros((k, k), dtype=np.int64)
    for p, g in zip(np.asarray(pred).ravel(), np.asarray(gt).ravel()):
        if ignore_label is not None and g == ignore_label:
            continue
        confusion[g, p] += 1
    ious = []
    for c in range(k):
        inter = confusion[c, c]
        union = confusion[c, :].sum() + confusion[:, c].sum() - inter
        if union > 0:
            ious.append(inter / union)
    return float(np.mean(ious))
