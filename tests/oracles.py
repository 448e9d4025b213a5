"""Brute-force oracle implementations used by the test suite.

Everything here is written as plain loops over output positions, independent
of the vectorized kernels under test. The conv oracle can also count the
scalar multiplications it performs (including multiplies against padding
zeros, which is the convention the analytical cost model uses).

The ``*_whole`` oracles are the other kind: whole-array float64 evaluations
whose per-element IEEE operations, and their order, are the numeric contract
of the banded kernels, so those must match them bit for bit.
"""

import numpy as np

from mosaicseg.tensor import ConvParams


def ceil_div(a, b):
    return -(-a // b)


def same_pad(size, kernel, stride, dilation):
    out = ceil_div(size, stride)
    eff = (kernel - 1) * dilation + 1
    total = max((out - 1) * stride + eff - size, 0)
    return out, total // 2, total - total // 2


def conv2d_loops(x, kern, bias, params: ConvParams, count_mults=False):
    h, w, _ = x.shape
    out_h, pt, pb = same_pad(h, params.kernel_h, params.stride, params.dilation)
    out_w, pl, pr = same_pad(w, params.kernel_w, params.stride, params.dilation)
    padded = np.pad(np.asarray(x, dtype=np.float64), ((pt, pb), (pl, pr), (0, 0)))
    k64 = np.asarray(kern, dtype=np.float64)
    ig = params.in_c // params.groups
    og = params.out_c // params.groups
    out = np.zeros((out_h, out_w, params.out_c), dtype=np.float64)
    mults = 0
    for oy in range(out_h):
        for ox in range(out_w):
            for oc in range(params.out_c):
                g = oc // og
                acc = 0.0
                for ky in range(params.kernel_h):
                    for kx in range(params.kernel_w):
                        iy = oy * params.stride + ky * params.dilation
                        ix = ox * params.stride + kx * params.dilation
                        acc += float(
                            padded[iy, ix, g * ig:(g + 1) * ig] @ k64[ky, kx, :, oc]
                        )
                        mults += ig
                if bias is not None:
                    acc += float(bias[oc])
                out[oy, ox, oc] = acc
    out32 = out.astype(np.float32)
    return (out32, mults) if count_mults else out32


def depthwise_loops(x, kern, params: ConvParams, count_mults=False):
    kern = np.asarray(kern, dtype=np.float64)
    if kern.ndim == 4:
        kern = kern.reshape(kern.shape[0], kern.shape[1], kern.shape[3])
    return conv2d_loops(x, kern[:, :, None, :], None, params, count_mults)


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


def resize_whole(x, oh, ow, mode="corner"):
    """Bilinear resize: gather the four corners of every output sample from a
    float64 copy of the map, blend columns then rows, round to float32."""
    h, w, _ = x.shape
    if oh == h and ow == w:
        return np.array(x, dtype=np.float32)

    def coords(n_out, n_in):
        if mode == "corner":
            if n_out == 1:
                return np.zeros(1)
            return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)
        c = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
        return np.clip(c, 0.0, n_in - 1)

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


def avg_pool_loops(x, gh, gw):
    h, w, c = x.shape
    out = np.zeros((gh, gw, c), dtype=np.float64)
    for i in range(gh):
        for j in range(gw):
            r0, r1 = i * h // gh, (i + 1) * h // gh
            q0, q1 = j * w // gw, (j + 1) * w // gw
            acc = np.zeros(c, dtype=np.float64)
            n = 0
            for r in range(r0, r1):
                for q in range(q0, q1):
                    acc += x[r, q, :].astype(np.float64)
                    n += 1
            out[i, j, :] = acc / n
    return out.astype(np.float32)


def resize_loops(x, oh, ow, mode="corner"):
    h, w, c = x.shape
    x64 = np.asarray(x, dtype=np.float64)
    out = np.zeros((oh, ow, c), dtype=np.float64)
    for r in range(oh):
        for q in range(ow):
            if mode == "corner":
                sr = 0.0 if oh == 1 else r * (h - 1) / (oh - 1)
                sc = 0.0 if ow == 1 else q * (w - 1) / (ow - 1)
            else:
                sr = min(max((r + 0.5) * h / oh - 0.5, 0.0), h - 1)
                sc = min(max((q + 0.5) * w / ow - 0.5, 0.0), w - 1)
            r0, c0 = int(np.floor(sr)), int(np.floor(sc))
            r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
            fr, fc = sr - r0, sc - c0
            top = x64[r0, c0] * (1 - fc) + x64[r0, c1] * fc
            bot = x64[r1, c0] * (1 - fc) + x64[r1, c1] * fc
            out[r, q, :] = top * (1 - fr) + bot * fr
    return out.astype(np.float32)


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


def random_conv_spec(rng, max_side=13, channel_pool=(2, 4, 6, 8)):
    kernel = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    dilation = int(rng.choice([1, 2]))
    in_c = int(rng.choice(channel_pool))
    grouping = rng.choice(["one", "two", "depthwise"])
    if grouping == "depthwise":
        groups, out_c = in_c, in_c
    elif grouping == "two" and in_c % 2 == 0:
        groups = 2
        out_c = int(rng.choice([2, 4, 6]))
    else:
        groups = 1
        out_c = int(rng.choice([1, 3, 5, 8]))
    h = int(rng.integers(3, max_side))
    w = int(rng.integers(3, max_side))
    return h, w, ConvParams(kernel, kernel, stride, dilation, groups, in_c, out_c)
