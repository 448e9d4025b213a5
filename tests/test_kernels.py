import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from mosaicseg import kernels
from mosaicseg.errors import ConfigError, NumericError, ShapeError
from mosaicseg.selftest import (
    avg_pool_loops, conv2d_loops, random_conv_spec, resize_loops,
)
from mosaicseg.tensor import ConvParams

import oracles
from conftest import can_split


def rand_map(rng, h, w, c):
    return rng.standard_normal((h, w, c)).astype(np.float32)


# --- conv2d -----------------------------------------------------------------

def test_conv_first_row_shape():
    # 224x224x3, 3x3 kernel, stride 2, 32 out channels -> 112x112x32
    rng = np.random.default_rng(0)
    params = ConvParams(3, 3, 2, 1, 1, 3, 32)
    out = kernels.conv2d(rand_map(rng, 224, 224, 3), rng.standard_normal(params.kernel_shape()).astype(np.float32), None, params)
    assert out.shape == (112, 112, 32)


def test_conv_identity_1x1():
    rng = np.random.default_rng(1)
    x = rand_map(rng, 9, 7, 5)
    kern = np.eye(5, dtype=np.float32).reshape(1, 1, 5, 5)
    out = kernels.conv2d(x, kern, np.zeros(5, dtype=np.float32), ConvParams(1, 1, 1, 1, 1, 5, 5))
    assert np.array_equal(out, x)


def test_conv_matches_loop_oracle_random_specs(rng):
    for _ in range(25):
        h, w, params = random_conv_spec(rng)
        x = rand_map(rng, h, w, params.in_c)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        bias = rng.standard_normal(params.out_c).astype(np.float32)
        got = kernels.conv2d(x, kern, bias, params)
        want = conv2d_loops(x, kern, bias, params)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6), params


def test_conv_channel_mismatch():
    x = np.zeros((4, 4, 3), dtype=np.float32)
    params = ConvParams(1, 1, 1, 1, 1, 5, 2)
    with pytest.raises(ShapeError):
        kernels.conv2d(x, np.zeros(params.kernel_shape(), dtype=np.float32), None, params)


def test_conv_is_dense_or_depthwise():
    # neither a grouped conv nor a depthwise conv with a depth multiplier
    for args in [(3, 3, 1, 1, 2, 8, 8), (3, 3, 1, 1, 4, 4, 8)]:
        with pytest.raises(ConfigError, match=r"must be 1 \(dense\) or equal in_c"):
            ConvParams(*args)


def test_conv2d_on_depthwise_params_is_named_depthwise_conv2d():
    params = ConvParams(3, 3, 1, 1, 4, 4, 4)
    kern = np.ones(params.kernel_shape(), dtype=np.float32)
    kern[1, 1, 0, 2] = np.inf
    with pytest.raises(NumericError, match="^depthwise_conv2d produced non-finite values$"):
        kernels.conv2d(np.ones((5, 5, 4), dtype=np.float32), kern, None, params)


def test_conv_rejects_non_finite():
    x = np.full((2, 2, 1), np.nan, dtype=np.float32)
    params = ConvParams(1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(NumericError):
        kernels.conv2d(x, np.ones(params.kernel_shape(), dtype=np.float32), None, params)


@pytest.mark.parametrize("params", [
    ConvParams(1, 1, 1, 1, 1, 4, 4), ConvParams(3, 3, 2, 1, 1, 4, 4), ConvParams(3, 3, 1, 1, 4, 4, 4),
], ids=["pointwise", "kxk", "depthwise"])
def test_conv_affine_overflow_raises_before_relu(params):
    # the positive conv output times -3e38 is -inf in float32, which the ReLU
    # would turn into 0
    x = np.full((6, 6, 4), 10.0, dtype=np.float32)
    kern = np.ones(params.kernel_shape(), dtype=np.float32)
    affine = (np.full(4, -3e38, dtype=np.float32), np.zeros(4, dtype=np.float32))
    fn = "depthwise_conv2d" if params.is_depthwise else "conv2d"
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"^{fn} produced non-finite values$"):
        if params.is_depthwise:
            kernels.depthwise_conv2d(x, kern, params, affine=affine, relu=True)
        else:
            kernels.conv2d(x, kern, None, params, affine=affine, relu=True)


@pytest.mark.parametrize("params", [
    ConvParams(1, 1, 1, 1, 1, 4, 4), ConvParams(3, 3, 2, 1, 1, 4, 4), ConvParams(3, 3, 1, 1, 4, 4, 4),
], ids=["pointwise", "kxk", "depthwise"])
@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_conv_overflow_with_affine_is_reported_by_the_conv(params, scale):
    # a conv checks only its last value before the ReLU: its inf stays inf,
    # or becomes NaN at a zero scale, through the affine
    x = np.ones((6, 6, 4), dtype=np.float32)
    kern = np.ones(params.kernel_shape(), dtype=np.float32)
    kern[0, 0, 0, 1] = np.inf
    affine = (np.full(4, scale, dtype=np.float32), np.zeros(4, dtype=np.float32))
    fn = "depthwise_conv2d" if params.is_depthwise else "conv2d"
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=f"^{fn} produced non-finite values$"):
        if params.is_depthwise:
            kernels.depthwise_conv2d(x, kern, params, affine=affine, relu=True)
        else:
            kernels.conv2d(x, kern, None, params, affine=affine, relu=True)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_same_shape_law(rng, stride, dilation, kernel):
    for h, w in [(5, 9), (8, 8), (13, 4)]:
        params = ConvParams(kernel, kernel, stride, dilation, 1, 2, 3)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        out = kernels.conv2d(rand_map(rng, h, w, 2), kern, None, params)
        assert out.shape == (-(-h // stride), -(-w // stride), 3)


def test_separable_stack_is_linear(rng):
    # bias-free depthwise + pointwise: f(a*x) == a*f(x)
    x = rand_map(rng, 6, 6, 4)
    dw_params = ConvParams(3, 3, 1, 1, 4, 4, 4)
    pw_params = ConvParams(1, 1, 1, 1, 1, 4, 6)
    dw = rng.standard_normal((3, 3, 1, 4)).astype(np.float32)
    pw = rng.standard_normal(pw_params.kernel_shape()).astype(np.float32)

    def f(v):
        return kernels.conv2d(kernels.depthwise_conv2d(v, dw, dw_params), pw, None, pw_params)

    alpha = np.float32(3.5)
    assert np.allclose(f(alpha * x), alpha * f(x), rtol=1e-5, atol=1e-5)


# --- depthwise ---------------------------------------------------------------

def test_depthwise_zero_kernels():
    x = np.ones((8, 8, 4), dtype=np.float32)
    params = ConvParams(3, 3, 1, 1, 4, 4, 4)
    out = kernels.depthwise_conv2d(x, np.zeros((3, 3, 1, 4), dtype=np.float32), params)
    assert np.array_equal(out, np.zeros_like(x))


def test_depthwise_delta_kernels_identity(rng):
    x = rand_map(rng, 8, 8, 4)
    kern = np.zeros((3, 3, 1, 4), dtype=np.float32)
    kern[1, 1] = 1.0
    out = kernels.depthwise_conv2d(x, kern, ConvParams(3, 3, 1, 1, 4, 4, 4))
    assert np.array_equal(out, x)


def test_depthwise_dilated_matches_loops(rng):
    x = rand_map(rng, 6, 6, 2)
    params = ConvParams(3, 3, 1, 2, 2, 2, 2)
    kern = rng.standard_normal((3, 3, 1, 2)).astype(np.float32)
    got = kernels.depthwise_conv2d(x, kern, params)
    want = conv2d_loops(x, kern, None, params)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def test_depthwise_channel_independence(rng):
    # perturbing channel j must not change channel i != j
    x = rand_map(rng, 5, 5, 3)
    params = ConvParams(3, 3, 1, 1, 3, 3, 3)
    kern = rng.standard_normal((3, 3, 1, 3)).astype(np.float32)
    base = kernels.depthwise_conv2d(x, kern, params)
    x2 = x.copy()
    x2[:, :, 2] += 1.0
    out2 = kernels.depthwise_conv2d(x2, kern, params)
    assert np.array_equal(base[:, :, :2], out2[:, :, :2])
    assert not np.array_equal(base[:, :, 2], out2[:, :, 2])


def test_depthwise_wrong_kernel_count():
    x = np.zeros((4, 4, 3), dtype=np.float32)
    with pytest.raises(ShapeError):
        kernels.depthwise_conv2d(x, np.zeros((3, 3, 1, 2), dtype=np.float32), ConvParams(3, 3, 1, 1, 3, 3, 3))


def test_depthwise_rejects_dense_params():
    params = ConvParams(3, 3, 1, 1, 1, 3, 3)
    with pytest.raises(ConfigError, match="^depthwise_conv2d requires groups == in_c == out_c$"):
        kernels.depthwise_conv2d(np.zeros((4, 4, 3), dtype=np.float32), np.zeros(params.kernel_shape(), np.float32), params)


def test_depthwise_takes_only_the_store_layout():
    x = np.zeros((4, 4, 3), dtype=np.float32)
    with pytest.raises(ShapeError, match=r"kernel shape \(3, 3, 3\)"):
        kernels.depthwise_conv2d(x, np.zeros((3, 3, 3), dtype=np.float32), ConvParams(3, 3, 1, 1, 3, 3, 3))


# --- pooling ------------------------------------------------------------------

def test_avg_pool_grid_64x128_to_16x16(rng):
    x = rand_map(rng, 64, 128, 3)
    out = kernels.avg_pool_grid(x, 16, 16)
    assert out.shape == (16, 16, 3)
    # bin (i, j) averages a 4x8 region
    want = x.reshape(16, 4, 16, 8, 3).astype(np.float64).mean(axis=(1, 3)).astype(np.float32)
    assert np.allclose(out, want, rtol=1e-6, atol=1e-7)


def test_avg_pool_constant_input():
    x = np.full((10, 7, 2), 3.25, dtype=np.float32)
    out = kernels.avg_pool_grid(x, 3, 5)
    assert np.allclose(out, 3.25, rtol=0, atol=1e-6)


def test_avg_pool_singleton_bins(rng):
    x = rand_map(rng, 6, 9, 2)
    assert np.array_equal(kernels.avg_pool_grid(x, 6, 9), x)


def test_avg_pool_matches_loops_nondivisible(rng):
    x = rand_map(rng, 11, 13, 3)
    got = kernels.avg_pool_grid(x, 4, 6)
    want = avg_pool_loops(x, 4, 6)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-7)


def test_avg_pool_partition_is_exact():
    # bin extents tile the input: disjoint and exhaustive
    for h, g in [(64, 16), (11, 4), (7, 7), (5, 2)]:
        edges = [i * h // g for i in range(g + 1)]
        sizes = [edges[i + 1] - edges[i] for i in range(g)]
        assert sum(sizes) == h
        assert all(s >= 1 for s in sizes)


def test_avg_pool_grid_too_large():
    with pytest.raises(ConfigError):
        kernels.avg_pool_grid(np.zeros((4, 4, 1), dtype=np.float32), 5, 2)


def test_global_avg_pool_mean():
    x = np.arange(1, 17, dtype=np.float32).reshape(4, 4, 1)
    out = kernels.global_avg_pool(x)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(8.5)


def test_global_pool_equals_grid_1x1(rng):
    x = rand_map(rng, 9, 5, 4)
    assert np.allclose(kernels.global_avg_pool(x), kernels.avg_pool_grid(x, 1, 1), rtol=0, atol=0)


def test_global_pool_on_1x1_identity(rng):
    x = rand_map(rng, 1, 1, 6)
    assert np.array_equal(kernels.global_avg_pool(x), x)


# --- bilinear resize -----------------------------------------------------------

def test_resize_same_size_bitwise(rng):
    x = rand_map(rng, 7, 9, 3)
    out = kernels.bilinear_resize(x, 7, 9)
    assert np.array_equal(out.view(np.int32), x.view(np.int32))


def test_resize_2x2_to_3x3_corner():
    x = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32).reshape(2, 2, 1)
    out = kernels.bilinear_resize(x, 3, 3)
    want = np.array([[0, 0.5, 1], [1, 1.5, 2], [2, 2.5, 3]], dtype=np.float32).reshape(3, 3, 1)
    assert np.allclose(out, want, rtol=0, atol=1e-7)


def test_resize_reproduces_linear_ramp(rng):
    a, b, d = 0.75, -1.25, 2.0
    r = np.arange(5, dtype=np.float64)[:, None]
    q = np.arange(7, dtype=np.float64)[None, :]
    x = (a * r + b * q + d)[:, :, None].astype(np.float32)
    out = kernels.bilinear_resize(x, 17, 25)
    sr = np.arange(17, dtype=np.float64) * 4 / 16
    sc = np.arange(25, dtype=np.float64) * 6 / 24
    want = (a * sr[:, None] + b * sc[None, :] + d)[:, :, None].astype(np.float32)
    assert np.allclose(out, want, rtol=1e-5, atol=1e-5)


def test_resize_matches_loops(rng):
    for _ in range(16):
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        oh, ow = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        x = rand_map(rng, h, w, 2)
        got = kernels.bilinear_resize(x, oh, ow)
        assert np.allclose(got, resize_loops(x, oh, ow), rtol=1e-5, atol=1e-6), (h, w, oh, ow)


def test_resize_range_preserved(rng):
    x = rand_map(rng, 5, 6, 3)
    out = kernels.bilinear_resize(x, 31, 17)
    for c in range(3):
        assert out[:, :, c].min() >= x[:, :, c].min() - 1e-6
        assert out[:, :, c].max() <= x[:, :, c].max() + 1e-6


def test_resize_from_1x1_broadcasts(rng):
    x = rand_map(rng, 1, 1, 4)
    out = kernels.bilinear_resize(x, 6, 9)
    assert np.allclose(out, np.broadcast_to(x, (6, 9, 4)), rtol=0, atol=0)


# --- concat / add / relu / affine / argmax --------------------------------------

def test_concat_two_maps(rng):
    a, b = rand_map(rng, 4, 4, 3), rand_map(rng, 4, 4, 3)
    out = kernels.concat_channels([a, b])
    assert out.shape == (4, 4, 6)
    assert np.array_equal(out[:, :, :3], a)
    assert np.array_equal(out[:, :, 3:], b)


def test_concat_single_input_identity(rng):
    a = rand_map(rng, 3, 5, 2)
    assert np.array_equal(kernels.concat_channels([a]), a)


def test_concat_slice_readback(rng):
    parts = [rand_map(rng, 5, 5, c) for c in (2, 3, 4)]
    out = kernels.concat_channels(parts)
    start = 0
    for p in parts:
        assert np.array_equal(out[:, :, start:start + p.shape[2]], p)
        start += p.shape[2]


def test_concat_spatial_mismatch(rng):
    with pytest.raises(ShapeError):
        kernels.concat_channels([rand_map(rng, 4, 4, 1), rand_map(rng, 4, 5, 1)])


def test_add_identities(rng):
    a = rand_map(rng, 4, 6, 2)
    assert np.array_equal(kernels.add_elementwise(a, np.zeros_like(a)), a)
    assert np.array_equal(kernels.add_elementwise(a, -a), np.zeros_like(a))


def test_add_matches_loop(rng):
    a, b = rand_map(rng, 3, 4, 2), rand_map(rng, 3, 4, 2)
    want = np.array([[[a[r, q, c] + b[r, q, c] for c in range(2)] for q in range(4)] for r in range(3)], dtype=np.float32)
    assert np.array_equal(kernels.add_elementwise(a, b), want)


def test_add_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        kernels.add_elementwise(rand_map(rng, 2, 2, 1), rand_map(rng, 2, 2, 2))


def test_relu_cases(rng):
    neg = -np.abs(rand_map(rng, 3, 3, 2)) - 0.1
    assert np.array_equal(kernels.relu(neg), np.zeros_like(neg))
    pos = np.abs(rand_map(rng, 3, 3, 2))
    assert np.array_equal(kernels.relu(pos), pos)
    mixed = rand_map(rng, 4, 4, 3)
    assert np.array_equal(kernels.relu(mixed), np.where(mixed > 0, mixed, 0).astype(np.float32))


def test_affine_identity_and_constant(rng):
    x = rand_map(rng, 4, 4, 3)
    ones, zeros = np.ones(3, dtype=np.float32), np.zeros(3, dtype=np.float32)
    assert np.array_equal(kernels.affine_channels(x, ones, zeros), x)
    beta = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    out = kernels.affine_channels(x, zeros, beta)
    assert np.allclose(out, np.broadcast_to(beta, x.shape), rtol=0, atol=0)


def test_affine_matches_loop(rng):
    x = rand_map(rng, 3, 5, 2)
    scale = rng.standard_normal(2).astype(np.float32)
    bias = rng.standard_normal(2).astype(np.float32)
    got = kernels.affine_channels(x, scale, bias)
    for r in range(3):
        for q in range(5):
            for c in range(2):
                want = np.float32(np.float64(scale[c]) * np.float64(x[r, q, c]) + np.float64(bias[c]))
                assert got[r, q, c] == pytest.approx(want, rel=1e-6)


def test_affine_overflow_raises(rng):
    x = np.full((3, 4, 2), 10.0, dtype=np.float32)
    scale = np.full(2, 3e38, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^affine_channels produced non-finite values$"):
        kernels.affine_channels(x, scale, np.zeros(2, np.float32))


def test_affine_length_mismatch(rng):
    with pytest.raises(ShapeError):
        kernels.affine_channels(rand_map(rng, 2, 2, 3), np.ones(2, np.float32), np.zeros(2, np.float32))


def test_argmax_single_class():
    x = np.zeros((3, 4, 1), dtype=np.float32)
    assert np.array_equal(kernels.argmax_channels(x), np.zeros((3, 4), dtype=np.int32))


def test_argmax_one_hot(rng):
    labels = rng.integers(0, 5, size=(6, 6))
    x = np.zeros((6, 6, 5), dtype=np.float32)
    for r in range(6):
        for q in range(6):
            x[r, q, labels[r, q]] = 1.0
    assert np.array_equal(kernels.argmax_channels(x), labels.astype(np.int32))


def test_argmax_tie_break_lowest_index(rng):
    x = rng.standard_normal((8, 8, 4)).astype(np.float32)
    # inject exact ties on a few pixels
    x[0, 0, :] = 1.0
    x[3, 5, 1] = x[3, 5, 3] = x[3, 5].max() + 1.0
    got = kernels.argmax_channels(x)
    assert got[0, 0] == 0
    assert got[3, 5] == 1
    assert np.array_equal(got, oracles.argmax_loops(x))


# --- range preservation / determinism ----------------------------------------

def test_pool_outputs_stay_in_channel_envelope(rng):
    x = rand_map(rng, 9, 14, 3)
    for out in (kernels.avg_pool_grid(x, 3, 5), kernels.global_avg_pool(x)):
        for c in range(3):
            assert out[:, :, c].min() >= x[:, :, c].min() - 1e-6
            assert out[:, :, c].max() <= x[:, :, c].max() + 1e-6


def test_kernels_safe_across_threads(rng, split_halves):
    # pure functions over immutable inputs: concurrent calls agree with
    # whole-array evaluation. Where steps can split, each of the 4 callers' 8
    # conv calls runs its bottom half on the one shared worker, and so do its
    # resizes, Adds and argmaxes
    from concurrent.futures import ThreadPoolExecutor
    x = rand_map(rng, 16, 64, 8)
    y = signed_zero_map(rng, 16, 64, 8)
    params = ConvParams(3, 3, 1, 1, 1, 8, 128)
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    want = (oracles.conv_whole(x, kern, None, params), oracles.resize_whole(x, 37, 29), x + y,
            oracles.argmax_loops(x))

    def call(_):
        return (kernels.conv2d(x, kern, None, params), kernels.bilinear_resize(x, 37, 29),
                kernels.add_elementwise(x, y), kernels.argmax_channels(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside each split
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(call, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(same_bits(*pair) for pair in zip(got, want))
    assert sum(half.conv for half in split_halves) == 8 * can_split()
    assert len(split_halves) == 32 * can_split() and len({half.thread for half in split_halves}) <= 1


def test_kernels_deterministic(rng):
    x = rand_map(rng, 12, 10, 6)
    params = ConvParams(3, 3, 2, 1, 1, 6, 4)
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    a = kernels.conv2d(x, kern, None, params)
    b = kernels.conv2d(x, kern, None, params)
    assert np.array_equal(a.view(np.int32), b.view(np.int32))
    r1 = kernels.bilinear_resize(x, 23, 5)
    r2 = kernels.bilinear_resize(x, 23, 5)
    assert np.array_equal(r1.view(np.int32), r2.view(np.int32))


# --- banded kernels: bit-identical to whole-array evaluation -------------------
#
# Each map spans at least three row bands, with a partial last one where bands
# hold several rows, and holds signed zeros, so a change of operation order (or
# of the +0.0 start of the depthwise sum) shows up as a differing bit. At
# stride 2, an even and an odd width between them give the 3x3, 5x5 and
# dilated kernels both parities of left pad, so the strided windows of a band
# start on the first and on the second input column.

def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint32), want.view(np.uint32)))


def assert_spans_bands(n_rows, row_elems=None):
    """``row_elems`` float64 values per band row; None for a depthwise conv,
    whose bands are one output row each."""
    if row_elems is None:
        assert n_rows > 2, n_rows
        return
    step = kernels._band_rows(n_rows, row_elems)
    assert n_rows > 2 * step and n_rows % step, (n_rows, step)


def corner_cases(cases):
    """(h, w, oh, ow) resize cases as params whose ids end in the sampling
    rule they check, corner-aligned."""
    return [pytest.param(*case, id="-".join(map(str, case)) + "-corner") for case in cases]


def signed_zero_map(rng, h, w, c):
    x = rand_map(rng, h, w, c)
    pick = rng.random(x.shape)
    x[pick < 0.1] = 0.0
    x[pick > 0.9] = -0.0
    return x


@pytest.mark.parametrize("kernel,stride,dilation,odd_width", [
    pytest.param(k, s, d, odd, id=f"{k}-{s}-{d}" + "-odd" * odd)
    for k, s, d in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 1, 4), (5, 2, 1), (3, 2, 2), (5, 2, 2)]
    for odd in (False, True)
])
@pytest.mark.parametrize("with_bias", [False, True])
def test_depthwise_bands_match_whole_array(rng, kernel, stride, dilation, odd_width, with_bias):
    c = 96
    x = signed_zero_map(rng, 100, 64 * stride + odd_width, c)
    params = ConvParams(kernel, kernel, stride, dilation, c, c, c)
    kern = rng.standard_normal((kernel, kernel, 1, c)).astype(np.float32)
    kern[rng.random(kern.shape) < 0.2] = -0.0
    bias = rng.standard_normal(c).astype(np.float32) if with_bias else None
    assert_spans_bands(-(-100 // stride))
    before = x.copy()
    if with_bias:
        got = kernels.conv2d(x, kern, bias, params)
    else:
        got = kernels.depthwise_conv2d(x, kern, params)
    assert same_bits(got, oracles.depthwise_whole(x, kern, bias, params))
    assert same_bits(x, before)


@pytest.mark.parametrize("kernel,stride,dilation", [(1, 2, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2)])
def test_depthwise_short_maps_match_whole_array(rng, kernel, stride, dilation):
    # maps shorter than the kernel's span, and 1x1 kernels at stride 2, which
    # skip input rows: the padded rows hold pad rows at both ends
    params = ConvParams(kernel, kernel, stride, dilation, 8, 8, 8)
    kern = rng.standard_normal((kernel, kernel, 1, 8)).astype(np.float32)
    for h in range(1, 8):
        x = signed_zero_map(rng, h, 7, 8)
        got = kernels.depthwise_conv2d(x, kern, params)
        assert same_bits(got, oracles.depthwise_whole(x, kern, None, params)), h


def test_depthwise_sum_of_negative_zeros_is_positive_zero(rng):
    # every product, pad taps included, is -0.0; the reference sum starts at +0.0
    params = ConvParams(3, 3, 2, 1, 8, 8, 8)
    x = np.abs(rand_map(rng, 9, 11, 8))
    kern = np.full((3, 3, 1, 8), -0.0, dtype=np.float32)
    got = kernels.depthwise_conv2d(x, kern, params)
    assert same_bits(got, oracles.depthwise_whole(x, kern, None, params))
    assert not got.view(np.uint32).any()


@pytest.mark.parametrize("path", ["split_every_step", "serial"])
@pytest.mark.parametrize("c", [1, 2, 3, 8])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("stride,dilation", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_depthwise_adds_taps_in_kernel_order(request, rng, path, c, kernel, stride, dilation):
    # values of +-2^60 cancel each other, so a sum of the taps in any other
    # order than (ki, kj) from +0.0 rounds away the small values it keeps
    halves = request.getfixturevalue(path)
    params = ConvParams(kernel, kernel, stride, dilation, c, c, c)
    x = rng.choice(np.float32([2.0 ** 60, -2.0 ** 60, 1.0, -1.0, 0.5]), size=(9, 11, c))
    kern = rng.choice(np.float32([1.0, -1.0]), size=(kernel, kernel, 1, c))
    got = kernels.depthwise_conv2d(x, kern, params)
    assert same_bits(got, oracles.depthwise_whole(x, kern, None, params))
    assert len(halves) == (path != "serial")


# In the pointwise and kxk cases the first parameter, ``slices``, divides the
# conv's input channels (48 pointwise, 16 kxk), as a multi-kernel group conv
# divides its input among its branches.

@pytest.mark.parametrize("slices,stride,with_bias", [(1, 1, True), (2, 2, True), (4, 1, False), (4, 2, True)])
def test_pointwise_bands_match_whole_array(rng, slices, stride, with_bias):
    x = signed_zero_map(rng, 100 * stride, 64 * stride, 48 // slices)
    params = ConvParams(1, 1, stride, 1, 1, 48 // slices, 96)
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    bias = rng.standard_normal(96).astype(np.float32) if with_bias else None
    assert_spans_bands(100, 64 * 96)
    before = x.copy()
    got = kernels.conv2d(x, kern, bias, params)
    assert same_bits(got, oracles.conv_whole(x, kern, bias, params))
    assert same_bits(x, before)


@pytest.mark.parametrize("slices,stride,kernel,dilation,odd_width", [
    pytest.param(n, s, k, d, odd, id=f"{n}-{s}" + f"-k{k}" * (k != 3) + f"-d{d}" * (d != 1) + "-odd" * odd)
    for n, s, k, d in [(1, 2, 3, 1), (2, 1, 3, 1), (1, 2, 5, 1), (1, 2, 3, 2), (2, 2, 5, 2)]
    for odd in (False, True)
])
def test_kxk_conv_bands_match_whole_array(rng, slices, stride, kernel, dilation, odd_width):
    in_c = 16 // slices
    x = signed_zero_map(rng, 101 * stride, 64 * stride + odd_width, in_c)
    params = ConvParams(kernel, kernel, stride, dilation, 1, in_c, 16)
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    bias = rng.standard_normal(16).astype(np.float32)
    assert_spans_bands(101, (64 + odd_width) * kernel * kernel * in_c)
    before = x.copy()
    got = kernels.conv2d(x, kern, bias, params)
    assert same_bits(got, oracles.conv_whole(x, kern, bias, params))
    assert same_bits(x, before)


@pytest.mark.parametrize("h,w,oh,ow", corner_cases([(61, 40, 150, 100), (250, 200, 101, 50)]))
def test_resize_bands_match_whole_array(rng, h, w, oh, ow):
    x = signed_zero_map(rng, h, w, 64)
    assert_spans_bands(h, ow * 64)  # the column pass runs over source rows
    assert_spans_bands(oh, ow * 64)
    before = x.copy()
    got = kernels.bilinear_resize(x, oh, ow)
    assert same_bits(got, oracles.resize_whole(x, oh, ow))
    assert same_bits(x, before)


def test_affine_bands_match_whole_array(rng):
    x = signed_zero_map(rng, 100, 64, 96)
    scale = rng.standard_normal(96).astype(np.float32)
    scale[::7] = -0.0
    bias = rng.standard_normal(96).astype(np.float32)
    bias[::5] = 0.0
    assert_spans_bands(100, 64 * 96)
    before = x.copy()
    got = kernels.affine_channels(x, scale, bias)
    assert same_bits(got, oracles.affine_whole(x, scale, bias))
    assert same_bits(x, before)


# (input shape, params) per conv path; every output spans at least three bands
EPILOGUE_CASES = {
    "pointwise": ((100, 64, 48), ConvParams(1, 1, 1, 1, 1, 48, 96)),
    "kxk": ((200, 128, 8), ConvParams(3, 3, 2, 1, 1, 8, 16)),
    "depthwise_s1": ((100, 64, 96), ConvParams(3, 3, 1, 1, 96, 96, 96)),
    "depthwise_s2": ((200, 128, 96), ConvParams(3, 3, 2, 1, 96, 96, 96)),
}


@pytest.mark.parametrize("case", EPILOGUE_CASES)
@pytest.mark.parametrize("with_relu", [False, True])
def test_conv_epilogue_bands_match_unfused_kernels(rng, case, with_relu):
    shape, params = EPILOGUE_CASES[case]
    x = signed_zero_map(rng, *shape)
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    scale = rng.standard_normal(params.out_c).astype(np.float32)
    scale[::7] = -0.0
    bias = rng.standard_normal(params.out_c).astype(np.float32)
    bias[::5] = 0.0
    taps = params.kernel_h * params.kernel_w * params.in_c
    assert_spans_bands(100, None if params.is_depthwise else 64 * max(taps, params.out_c))
    before = x.copy()
    if params.is_depthwise:
        got = kernels.depthwise_conv2d(x, kern, params, affine=(scale, bias), relu=with_relu)
        conv = oracles.depthwise_whole(x, kern, None, params)
    else:
        conv_bias = rng.standard_normal(params.out_c).astype(np.float32)
        got = kernels.conv2d(x, kern, conv_bias, params, affine=(scale, bias), relu=with_relu)
        conv = oracles.conv_whole(x, kern, conv_bias, params)
    want = oracles.affine_whole(conv, scale, bias)
    if with_relu:
        want = kernels.relu(want)
    assert same_bits(got, want)
    assert same_bits(x, before)


# A streamed group against the unfused kernels run one after another. Each
# producer spans several bands with a partial last one, so its ring of rows
# wraps, and readers ask for rows across the wrap.

def stage(rng, params, relu=True, bias=False):
    """A ``streamed_convs`` stage with random weights and signed zeros."""
    kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
    kern[rng.random(kern.shape) < 0.2] = -0.0
    conv_bias = None
    if bias and not params.is_depthwise:
        conv_bias = rng.standard_normal(params.out_c).astype(np.float32)
    scale = rng.standard_normal(params.out_c).astype(np.float32)
    scale[::7] = -0.0
    shift = rng.standard_normal(params.out_c).astype(np.float32)
    shift[::5] = 0.0
    return (kern, conv_bias, params, (scale, shift), relu)


def unfused(x, stages):
    for kern, bias, params, affine, relu in stages:
        if params.is_depthwise:
            x = kernels.depthwise_conv2d(x, kern, params)
        else:
            x = kernels.conv2d(x, kern, bias, params)
        x = kernels.affine_channels(x, *affine)
        if relu:
            x = kernels.relu(x)
    return x


def pw(in_c, out_c, stride=1):
    return ConvParams(1, 1, stride, 1, 1, in_c, out_c)


def dw(c, kernel=3, stride=1, dilation=1):
    return ConvParams(kernel, kernel, stride, dilation, c, c, c)


# (input shape, params of each stage)
STREAM_CASES = {
    "pointwise-depthwise_s1": ((100, 64, 24), [pw(24, 96), dw(96)]),
    "pointwise-depthwise_s2": ((101, 65, 24), [pw(24, 96), dw(96, stride=2)]),
    "depthwise_5x5_d2-pointwise": ((100, 64, 96), [dw(96, 5, 1, 2), pw(96, 48)]),
    "kxk-pointwise": ((200, 129, 8), [ConvParams(3, 3, 2, 1, 1, 8, 16), pw(16, 64)]),
    "pointwise-kxk": ((100, 64, 8), [pw(8, 96), ConvParams(3, 3, 2, 1, 1, 96, 16)]),
    "bottleneck": ((101, 128, 24), [pw(24, 96), dw(96, stride=2), pw(96, 40)]),
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_convs_match_unfused_kernels(rng, case):
    shape, params = STREAM_CASES[case]
    x = signed_zero_map(rng, *shape)
    stages = [stage(rng, p, relu=i < len(params) - 1, bias=i == 0) for i, p in enumerate(params)]
    h, w = shape[:2]
    for p in params:  # every banded stage's output spans several bands, the last partial
        h, w = -(-h // p.stride), -(-w // p.stride)
        if not p.is_depthwise:
            assert_spans_bands(h, w * max(p.kernel_h * p.kernel_w * p.in_c, p.out_c))
    before = x.copy()
    got = kernels.streamed_convs(x, stages)
    assert same_bits(got, unfused(x, stages))
    assert same_bits(x, before)


@pytest.mark.parametrize("depthwise", [dw(8, 5, 1, 2), dw(8, 5, 2, 2), dw(8, 3, 2)])
def test_streamed_convs_on_maps_shorter_than_the_span(rng, depthwise):
    params = [pw(4, 8), depthwise, pw(8, 6)]
    for h in range(1, 8):
        x = signed_zero_map(rng, h, 7, 4)
        stages = [stage(rng, p, relu=i < 2) for i, p in enumerate(params)]
        assert same_bits(kernels.streamed_convs(x, stages), unfused(x, stages)), h


def test_streamed_convs_check_rows_no_reader_reads(rng):
    # a 1x1 stride-2 reader of an 8-row map never reads row 7; the producer,
    # one row per band, still computes and checks it, as it does alone
    x = rand_map(rng, 8, 256, 4)
    x[7] = 3e38
    assert kernels._band_rows(8, 256 * 512) == 1
    scale = np.full(512, 1e10, dtype=np.float32)
    stages = [(np.ones((1, 1, 4, 512), np.float32), None, pw(4, 512), (scale, scale), False),
              stage(rng, pw(512, 4, stride=2), relu=False)]
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^conv2d produced non-finite"):
        kernels.streamed_convs(x, stages)


@pytest.mark.parametrize("case", ["kxk-pointwise", "bottleneck"])
def test_split_streamed_convs_match_serial(rng, monkeypatch, split_every_step, case):
    # stride-2 stages whose outputs end in a partial band, so the bottom half
    # starts each producer mid-map at a band boundary; without the bundled
    # OpenBLAS, or with one usable core, the step runs serially
    shape, params = STREAM_CASES[case]
    x = signed_zero_map(rng, *shape)
    stages = [stage(rng, p, relu=i < len(params) - 1, bias=i == 0) for i, p in enumerate(params)]
    got = kernels.streamed_convs(x, stages)
    assert len(split_every_step) == 1
    with monkeypatch.context() as one_core:
        one_core.setattr(kernels.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert same_bits(kernels.streamed_convs(x, stages), got)
    monkeypatch.setattr(kernels, "_openblas", lambda: None)
    assert same_bits(kernels.streamed_convs(x, stages), got)
    assert same_bits(unfused(x, stages), got)
    assert len(split_every_step) == 1


def test_split_bottom_half_buffers_are_freed_on_the_calling_thread(rng, monkeypatch, split_every_step):
    # the worker leaves every band generator of its half at its last band, so
    # none of the buffers that the calling thread allocated for the half is
    # freed on the worker; the call frees them all before it returns
    shape, params = STREAM_CASES["bottleneck"]
    x = signed_zero_map(rng, *shape)
    stages = [stage(rng, p, relu=i < len(params) - 1) for i, p in enumerate(params)]
    on_worker, suspended, refs = kernels._on_worker, [], []

    def watching(run, rings, err):
        on_worker(run, rings, err)
        suspended.extend(ring.bands.gi_frame is not None for ring in rings)
        refs.extend(weakref.ref(ring.bands) for ring in rings)
        refs.extend(weakref.ref(ring.buf) for ring in rings[1:])  # rings[0] writes the output

    monkeypatch.setattr(kernels, "_on_worker", watching)
    kernels.streamed_convs(x, stages)
    assert len(split_every_step) == 1
    assert suspended == [True] * len(params)
    assert len(refs) == 2 * len(params) - 1 and all(ref() is None for ref in refs)


def test_split_overflow_in_the_bottom_half_alone_raises_numeric_error(rng, split_every_step):
    # the worker runs under the caller's numpy error state: its float32
    # overflow is a NumericError, not a RuntimeWarning
    x = rand_map(rng, 40, 24, 8)
    x[-2:] = 3e38
    stages = [(np.ones((1, 1, 8, 48), np.float32), None, pw(8, 48), None, True),
              stage(rng, dw(48, stride=2), relu=False)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="^conv2d produced"):
        kernels.streamed_convs(x, stages)
    assert len(split_every_step) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        kernels.streamed_convs(x[:30], stages)  # the same stages, without the rows that overflow


def test_split_streamed_convs_check_rows_neither_half_reads(rng, split_every_step):
    # the top half of the 1x1 stride-2 reader reads rows 0 and 2, the bottom
    # half rows 4 and 6; the top half still computes and checks row 3
    x = rand_map(rng, 8, 256, 4)
    x[3] = 3e38
    assert kernels._band_rows(8, 256 * 512) == 1
    scale = np.full(512, 1e10, dtype=np.float32)
    stages = [(np.ones((1, 1, 4, 512), np.float32), None, pw(4, 512), (scale, scale), False),
              stage(rng, pw(512, 4, stride=2), relu=False)]
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^conv2d produced non-finite"):
        kernels.streamed_convs(x, stages)
    assert len(split_every_step) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_steps_run_in_a_forked_child(rng, split_every_step):
    # the child has no copy of the parent's worker thread, so it starts its own
    x = rand_map(rng, 8, 8, 4)
    kern = rng.standard_normal((1, 1, 4, 8)).astype(np.float32)
    want = kernels.conv2d(x, kern, None, pw(4, 8))
    assert len(split_every_step) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a process with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if same_bits(kernels.conv2d(x, kern, None, pw(4, 8)), want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split step never finished")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("h,w,oh,ow", corner_cases([
    (9, 7, 40, 23), (40, 23, 9, 7), (13, 5, 1, 9), (1, 6, 11, 4), (1, 5, 1, 9), (7, 1, 3, 1),
]))
def test_resize_ring_matches_whole_array(rng, h, w, oh, ow):
    x = signed_zero_map(rng, h, w, 19)
    assert same_bits(kernels.bilinear_resize(x, oh, ow), oracles.resize_whole(x, oh, ow))


@pytest.mark.parametrize("oh", [3, 40], ids=["corner-3", "corner-40"])
def test_resize_inf_in_last_source_row_raises(rng, oh):
    # every output row count here reads the last source row
    x = rand_map(rng, 12, 8, 5)
    x[-1, 4, 2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="bilinear_resize produced non-finite values"):
        kernels.bilinear_resize(x, oh, 10)


# Resize, Add and argmax as two row halves, on the split and the serial path:
# 1 output row, which never splits, halves of 1 and of 1 and 2 rows, and 13
# rows of 1,200 columns, whose halves of 6 and 7 rows each span two bands

@pytest.mark.parametrize("path", ["split_every_step", "serial"])
@pytest.mark.parametrize("h,w,oh,ow", [
    pytest.param(5, 7, 1, 9, id="1-row"), pytest.param(5, 7, 2, 9, id="2-rows"),
    pytest.param(5, 7, 3, 9, id="3-rows"), pytest.param(6, 300, 13, 1200, id="13-rows-2-bands-a-half"),
    pytest.param(40, 23, 9, 7, id="downsampling"), pytest.param(9, 7, 9, 7, id="same-size-copy"),
])
def test_resize_halves_match_whole_array(request, rng, path, h, w, oh, ow):
    halves = request.getfixturevalue(path)
    x = signed_zero_map(rng, h, w, 19)
    if oh == 13:
        assert kernels._band_rows(6, ow * 19) < 6
    got = kernels.bilinear_resize(x, oh, ow)
    assert same_bits(got, x if (oh, ow) == (h, w) else oracles.resize_whole(x, oh, ow))
    # a same-size resize is a copy, which never splits
    assert len(halves) == (path != "serial" and oh >= 2 and (oh, ow) != (h, w))


@pytest.mark.parametrize("path", ["split_every_step", "serial"])
@pytest.mark.parametrize("h", [1, 2, 3, 13])
def test_add_halves_match_whole_array(request, rng, path, h):
    halves = request.getfixturevalue(path)
    a, b = signed_zero_map(rng, h, 9, 19), signed_zero_map(rng, h, 9, 19)
    assert same_bits(kernels.add_elementwise(a, b), a + b)
    assert len(halves) == (path != "serial" and h >= 2)


@pytest.mark.parametrize("path", ["split_every_step", "serial"])
@pytest.mark.parametrize("h", [1, 2, 3, 13])
def test_argmax_halves_match_whole_array(request, rng, path, h):
    # few distinct values, +0.0 and -0.0 among them, so most pixels tie
    halves = request.getfixturevalue(path)
    x = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), size=(h, 9, 5))
    got = kernels.argmax_channels(x)
    assert got.dtype == np.int32 and np.array_equal(got, oracles.argmax_loops(x))
    assert np.array_equal(got, np.argmax(x, axis=2))
    assert len(halves) == (path != "serial" and h >= 2)


def test_split_resize_runs_on_buffers_of_the_calling_thread(rng, monkeypatch, split_every_step):
    # the calling thread allocates the bottom half's ring, widened row, gather
    # row and bands before the worker starts, and frees them before the call
    # returns; the worker allocates no buffer of its own
    x = signed_zero_map(rng, 40, 23, 19)
    on_worker, empty, zeros, refs, allocs = kernels._on_worker, np.empty, np.zeros, [], []

    def watching(run, half, err):
        refs.extend(weakref.ref(a) for a in half if isinstance(a, np.ndarray))
        on_worker(run, half, err)

    def allocating(alloc):
        def recorded(*args, **kwargs):
            allocs.append(threading.get_ident())
            return alloc(*args, **kwargs)
        return recorded

    monkeypatch.setattr(kernels, "_on_worker", watching)
    with monkeypatch.context() as numpy_allocs:
        numpy_allocs.setattr(np, "empty", allocating(empty))
        numpy_allocs.setattr(np, "zeros", allocating(zeros))
        got = kernels.bilinear_resize(x, 81, 45)
    assert same_bits(got, oracles.resize_whole(x, 81, 45))
    assert len(split_every_step) == 1
    assert allocs and set(allocs) == {threading.get_ident()}
    assert len(refs) == 5 and all(ref() is None for ref in refs)
