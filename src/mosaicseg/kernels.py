"""Reference numerical kernels over (h, w, c) float32 feature maps.

Conventions, fixed for every kernel here and relied on by the graph executor
and the cost model:

* SAME zero padding: out = ceil(in / stride) per spatial dim, pad split
  floor-left / ceil-right.
* Values are stored float32; reductions (conv, depthwise, pooling, bilinear
  blending) accumulate in float64 and cast once at the end.
* A convolution is dense (``groups`` 1) or depthwise (``groups == in_c ==
  out_c``), as its ``ConvParams`` say; it is named ``conv2d`` or
  ``depthwise_conv2d`` by that kind, whichever function runs it.
* Convolution (depthwise, pointwise and kxk), bilinear resize and affine work
  over row bands of their output: each band's float64 buffers hold about
  ``_BAND_BYTES``, are reused from band to band, and are rounded straight into
  the preallocated float32 output. ``streamed_convs`` runs a sequence of
  convolutions, each reading the one before, with every output but the last
  held only as a ring of the rows its reader still needs. A depthwise band is
  one output row, whose taps, accumulator and padded input rows stay nearer
  the cache than a 1 MiB band of a wide map would; its padded rows are a
  ring, so each input row is copied into it once. Every output element goes
  through the same IEEE operations, in the same order, as whole-array
  evaluation, so the results are bit-identical to it. Every conv kind runs
  through one band loop, which pads per band: it copies the input rows a band
  reads into a zero-padded float64 buffer, never padding the whole input.
  That buffer is stored by column phase, (rows, stride, ceil(width / stride),
  c), with padded column j at [:, j % stride, j // stride], so every kernel
  tap, and every im2col copy, reads one contiguous run per row even at
  stride 2. At stride 1 there is one phase, the plain padded rows.
* ``streamed_convs`` runs a wide step, one in which every conv writes rows of
  at least ``_SPLIT_ROW_ELEMS`` float32 values and whose output has at least
  2 rows, as two halves of the last conv's output rows: the calling thread
  runs the top half and one persistent worker thread the bottom half, one
  split at a time. While a split runs, the process's OpenBLAS runs one
  thread: ``openblas_set_num_threads_local`` of the OpenBLAS in numpy's wheel
  sets the count for the whole process, and the previous count is restored
  after the worker is done. Each half computes the rows of every earlier
  stage that its rows read, so a few rows per stage are computed twice, by the
  same operations, and checked by the top half only. The bottom half's
  buffers are allocated on the calling thread before the worker starts. The
  worker runs under the caller's numpy error state and checks its rows with
  ``tensor.require_finite``: perfbench's tracer wraps
  ``kernels.require_finite`` and ``kernels.as_feature_map`` with one span
  stack. The call waits for the worker, and an exception of the calling
  thread's half takes precedence over one of the worker's. Below the floor,
  without that OpenBLAS symbol, or with fewer than 2 usable cores, a step
  runs serially, through the same code over the full range.
* ``conv2d`` and ``depthwise_conv2d`` take an optional epilogue, a per-channel
  ``affine=(scale, bias)`` and a ``relu`` flag, applied to each band while it
  is in cache: the band is rounded to float32, widened again for the affine,
  rounded and checked, then clamped at zero. These are the steps of
  ``relu(affine_channels(conv2d(...)))``, so the result has its bits. A
  non-finite conv value stays non-finite through the affine, so the one
  check, before the ReLU, names the conv kernel whichever step made it.
* Bilinear resize samples corner-aligned: src = dst * (in-1)/(out-1), and a
  single output maps to coordinate 0. Columns are blended first, one source
  row at a time into a ring of two rows, then rows.
* Average-pool grids use floor-based bin edges floor(i*size/grid), which tile
  the input exactly for any size/grid combination; a global pool is the 1x1
  grid.
* argmax breaks ties toward the lowest channel index.
* Kernels assume finite inputs. A kernel that can turn finite inputs into a
  non-finite value (conv, depthwise, pooling, resize, add, affine) checks its
  output once, conv and affine band by band, a conv after its epilogue's
  affine; ReLU, concat and argmax check nothing.

All kernels are pure functions of their arguments and never mutate inputs.
"""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import tensor
from .errors import ConfigError, ShapeError
from .tensor import ConvParams, as_feature_map, require_finite

# float64 bytes per band buffer: small enough to stay in cache
_BAND_BYTES = 1 << 20
# A streamed step runs as two row halves only if every conv in it writes rows
# of at least this many float32 values (out_w * c). Measured on 2 cores: the
# ADE20K groups, whose rows hold at most 5,120 values, ran 10-40% slower split
# (0.56 s serial against 0.68 s, summed over steps), as their numpy calls take
# about 10 us and GIL hand-offs dominate; the Cityscapes backbone groups, with
# rows of at least 12,288 values, ran 30-50% faster (bneck02: 1105 -> 655 ms).
_SPLIT_ROW_ELEMS = 8192


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


def _tap(padded: np.ndarray, top: int, n: int, out_w: int, kj: int, params: ConvParams) -> np.ndarray:
    """The (n, out_w, c) samples that kernel column kj reads for n output rows,
    the first of which reads padded row ``top``. ``padded`` is laid out by
    column phase, (rows, stride, ceil(width / stride), c): padded column j sits
    at [:, j % stride, j // stride], so each row of a tap is one contiguous run."""
    s = params.stride
    q, p = divmod(kj * params.dilation, s)
    return padded[top: top + (n - 1) * s + 1: s, p, q: q + out_w]


def conv2d(x, kernels, bias, params: ConvParams, affine=None, relu=False) -> np.ndarray:
    """2-D convolution with SAME zero padding and (kernel_h, kernel_w,
    in_c/groups, out_c) kernels, dense or, as in ``depthwise_conv2d``,
    depthwise, as ``params`` say. ``bias`` is a per-output-channel vector or
    None. ``affine`` and ``relu`` are the optional epilogue (module docstring).
    """
    return streamed_convs(x, [(kernels, bias, params, affine, relu)])


def depthwise_conv2d(x, kernels, params: ConvParams, affine=None, relu=False) -> np.ndarray:
    """Per-channel convolution with (kernel_h, kernel_w, 1, c) kernels; output
    channel i depends only on input channel i. ``affine`` and ``relu`` are the
    optional epilogue (module docstring)."""
    if not params.is_depthwise:
        raise ConfigError("depthwise_conv2d requires groups == in_c == out_c")
    return streamed_convs(x, [(kernels, None, params, affine, relu)])


def streamed_convs(x, stages) -> np.ndarray:
    """The output of a sequence of convolutions, each reading the one before.
    A stage is ``(kernels, bias, params, affine, relu)``, the arguments of
    ``conv2d``. Every stage but the last writes its bands into a ``_Ring``
    that the next stage reads, so only the last stage's output is allocated
    whole; each stage computes the bands it computes alone, and the result
    has the bits of calling the stages one after another. Once the last stage is done, the stages before it finish
    their remaining bands, last first, so every value is checked. A wide step
    runs as two row halves on two threads (module docstring)."""
    x = as_feature_map(x)
    convs, shape = [], x.shape
    for stage in stages:
        convs.append(_Conv(shape, *stage))
        shape = convs[-1].out_shape
    out = np.empty(shape, dtype=np.float32)
    blas = _split_blas(convs)
    if blas is None:
        _exhaust(_runs(x, convs, out, [(0, conv.out_shape[0], 0) for conv in convs], require_finite))
        return out
    top, bottom = _halves(convs)
    top = _runs(x, convs, out, top, require_finite)
    # perfbench wraps kernels.require_finite with a single-thread span stack
    bottom = _runs(x, convs, out, bottom, tensor.require_finite)
    set_threads = blas.openblas_set_num_threads_local
    worker, one_split = _worker()
    with one_split:
        prev = set_threads(1)  # for the whole process, the worker too
        try:
            job = worker.submit(_exhaust_on_worker, bottom, np.geterr())
            try:
                _exhaust(top)
            finally:
                job.exception()  # waits for the worker, raising nothing
                bottom.clear()  # so its buffers are freed here, not when the worker drops the job
            job.result()
        finally:
            set_threads(prev)
    return out


@functools.cache
def _worker():
    """The one persistent thread that runs the bottom half of every split
    step, started by its first job, and the lock that admits one split at a
    time, as a split sets the process's BLAS thread count. Made again in a
    forked child, which has no copy of the thread. The executor's module is
    imported with this one: imported here, mid-forward, it raised the
    Cityscapes peak RSS from 266 to 307 MB on a 2-core host."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="mosaicseg-rows"), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.cache_clear)


@functools.cache
def _openblas():
    """The OpenBLAS bundled in numpy's wheel, if it exports
    ``openblas_set_num_threads_local`` (which returns the previous count);
    None for any other BLAS."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return lib
    return None


def _split_blas(convs):
    """The OpenBLAS whose thread count a split sets, if the step of ``convs``
    splits: every conv writes rows of at least ``_SPLIT_ROW_ELEMS`` values,
    the output has at least 2 rows, and ``_host_split_blas`` finds one. Else
    None."""
    if convs[-1].out_shape[0] < 2 or any(c.out_shape[1] * c.out_shape[2] < _SPLIT_ROW_ELEMS for c in convs):
        return None
    return _host_split_blas()


def _host_split_blas():
    """The OpenBLAS of ``_openblas`` if 2 cores are usable, so that wide
    steps split on this host; else None."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return _openblas() if cores >= 2 else None


def _halves(convs):
    """The (lo, hi, checked) rows of each stage that the top and the bottom
    half of a split compute. The top half computes the first half of the last
    conv's output rows, the bottom half the rest, and each half the rows of
    every earlier stage that these read, found working backwards. The bottom
    half starts each earlier stage at a band boundary, so that no band wraps
    its ring, and the top half computes each stage up to where the bottom
    half starts, so that every row is computed. Rows that both compute are
    checked by the top half only."""
    out_h = convs[-1].out_shape[0]
    top, bottom = [(0, out_h // 2, 0)], [(out_h // 2, out_h, out_h // 2)]
    for conv, reader in zip(convs[-2::-1], convs[:0:-1]):
        s = reader.params.stride
        lo = max(bottom[0][0] * s - reader.pad_t, 0) // conv.step * conv.step
        hi = max(min((top[0][1] - 1) * s - reader.pad_t + reader.span, reader.h), lo)
        top.insert(0, (0, hi, 0))
        bottom.insert(0, (lo, conv.out_shape[0], hi))
    return top, bottom


def _runs(x, convs, out, ranges, check):
    """The band generators that compute rows ``ranges[i]``, (lo, hi,
    checked), of each ``convs[i]`` from the input ``x`` into ``out``, in the
    order ``_exhaust`` runs them: the last stage's, then each ring's remaining
    bands, last first. Every buffer is allocated here, on the calling
    thread."""
    def src(lo, hi):  # the rows of the materialized input
        return ((lo, x[lo:hi]),)

    rings = []
    for conv, reader, rows in zip(convs, convs[1:], ranges):
        rings.append(_Ring(conv, src, reader.reads, rows, check))
        src = rings[-1].rows
    last = convs[-1].bands(src, lambda r0, n: out[r0:r0 + n], ranges[-1], check)
    return [last] + [ring.bands for ring in reversed(rings)]


def _exhaust(runs):
    for run in runs:
        for _ in run:
            pass


def _exhaust_on_worker(runs, err):
    """``_exhaust`` on the worker thread, under the caller's numpy error
    state ``err``."""
    with np.errstate(**err):
        _exhaust(runs)


class _Ring:
    """The output rows lo .. hi - 1 of ``conv``, ``rows`` being (lo, hi,
    checked), computed band by band as a reader asks for them and held in a
    ring of float32 rows, row j at j % len(buf): one reader's widest read of
    ``reads`` rows plus one band, rounded up to whole bands so that no band
    that starts at a multiple of the band height wraps. The reader asks for
    rows in increasing order, never below its previous first row."""

    def __init__(self, conv, src, reads: int, rows, check):
        lo, hi, _ = rows
        n = conv.step
        size = min(-(-(reads + n - 1) // n), -(-(hi - lo) // n)) * n
        buf = self.buf = np.empty((size, *conv.out_shape[1:]), dtype=np.float32)

        def dest(r0: int, n: int) -> np.ndarray:
            return buf[r0 % size:r0 % size + n]

        self.done = lo  # output rows computed so far end here
        # dest holds the buffer and not the ring, so no reference cycle keeps
        # a finished step's buffers for the garbage collector to free at a
        # time that varies with the threads' interleaving
        self.bands = conv.bands(src, dest, rows, check)

    def rows(self, lo: int, hi: int):
        """Rows lo .. hi - 1 as (first row, float32 rows) runs of the ring."""
        while self.done < hi:
            self.done = next(self.bands)
        size = len(self.buf)
        while lo < hi:
            j = lo % size
            n = min(hi - lo, size - j)
            yield lo, self.buf[j:j + n]
            lo += n


class _Conv:
    """A dense or depthwise convolution with its epilogue, set up for one
    input shape after checking its arguments; ``bands`` is the one band loop.
    Per band: a zero-padded float64 copy of the input rows the band reads, in
    the column phases of ``_tap``, the kind's accumulation into a float64
    accumulator, the bias, then ``_finish_band``. A depthwise band is one
    output row: its first tap's product is written to the accumulator, the
    other taps are added in (ki, kj) order, then +0.0, so that a sum of only
    -0.0 products is +0.0 as it is from a zero start. A dense band multiplies
    its im2col rows, laid out (n, out_w, kernel_h, kernel_w, in_c), by the
    kernels as one (taps, out_c) matrix."""

    def __init__(self, in_shape, kernels, bias, params: ConvParams, affine, relu):
        h, w, in_c = in_shape
        fn = self.fn = "depthwise_conv2d" if params.is_depthwise else "conv2d"
        if in_c != params.in_c:
            raise ShapeError(f"{fn}: input has {in_c} channels, params expect {params.in_c}")
        kernels = np.asarray(kernels, dtype=np.float32)
        if kernels.shape != params.kernel_shape():
            raise ShapeError(
                f"{fn}: kernel shape {kernels.shape} does not match expected {params.kernel_shape()}"
            )
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape != (params.out_c,):
                raise ShapeError(f"{fn}: bias length {bias.shape} != out_c {params.out_c}")
        kh, kw, s, d = params.kernel_h, params.kernel_w, params.stride, params.dilation
        out_h, self.pad_t, _ = same_pad(h, kh, s, d)
        out_w, pad_l, pad_r = same_pad(w, kw, s, d)
        c = params.out_c
        self.params, self.h, self.relu = params, h, relu
        self.out_shape = (out_h, out_w, c)
        self.affine = None if affine is None else _affine_args(c, *affine)
        if params.is_depthwise:
            self.k64 = kernels[:, :, 0, :].astype(np.float64)
            self.step = 1
        else:
            self.k64 = kernels.astype(np.float64).reshape(-1, c)
            self.step = _band_rows(out_h, out_w * max(kh * kw * in_c, c))
        self.b64 = None if bias is None else bias.astype(np.float64)
        self.span = (kh - 1) * d + 1
        # input rows a band asks its source for at once; a depthwise band
        # copies its new rows into its ring one at a time
        self.reads = 1 if params.is_depthwise else (self.step - 1) * s + self.span
        # input columns x0, x0 + s, ... fill phase p from column q0 on
        self.phases = []
        for p in range(s):
            x0 = (p - pad_l) % s
            q0 = (pad_l + x0) // s
            self.phases.append((p, x0, slice(q0, q0 + len(range(x0, w, s)))))
        self.row_shape = (s, -(-(pad_l + w + pad_r) // s), in_c)

    def bands(self, src, dest, rows, check):
        """The generator that computes output rows lo .. hi - 1, ``rows``
        being (lo, hi, checked), band by band in order: it reads input rows
        a .. b - 1 as the (first row, rows) runs of ``src(a, b)``, writes
        output rows r0 .. r0 + n - 1 into ``dest(r0, n)``, checks those from
        row ``checked`` on with ``check``, and yields r0 + n after each band.
        Its buffers are allocated here, on the calling thread."""
        p = self.params
        kh, kw, s, d = p.kernel_h, p.kernel_w, p.stride, p.dilation
        out_w, c = self.out_shape[1:]
        h, step, span, phases = self.h, self.step, self.span, self.phases
        kernel_taps = [(ki, kj) for ki in range(kh) for kj in range(kw)]
        # a 1x1 stride-1 band is its own im2col block
        im2col = not (p.is_depthwise or kh == kw == s == 1)
        win_buf = np.empty((step, out_w, kh, kw, self.row_shape[2])) if im2col else None
        # pad columns stay 0; so do top pad rows, which only the first band
        # reads. A depthwise conv keeps its span rows as a ring, padded row j
        # at j % span, so that each input row is copied once and not span / s
        # times.
        padded = np.zeros(((step - 1) * s + span, *self.row_shape))
        acc_buf = np.empty((step, out_w, c))
        tmp_buf = np.empty((step, out_w, c)) if p.is_depthwise else None
        k64, b64 = self.k64, self.b64
        lo, hi, checked = rows

        def run():
            copied = -self.pad_t  # the first padded row not yet in the ring
            for r0 in range(lo, hi, step):
                n = min(step, hi - r0)
                acc = acc_buf[:n]
                first = r0 * s - self.pad_t  # input row of the band's first padded row
                if p.is_depthwise:
                    for j in range(max(first, copied), first + span):
                        _fill_rows(padded[j % span:j % span + 1], src, j, h, phases, s)
                    copied = first + span
                    np.multiply(_tap(padded, first % span, 1, out_w, 0, p), k64[0, 0], out=acc)
                    for ki, kj in kernel_taps[1:]:
                        tap = _tap(padded, (first + ki * d) % span, 1, out_w, kj, p)
                        np.multiply(tap, k64[ki, kj], out=tmp_buf)
                        acc += tmp_buf
                    acc += 0.0
                else:
                    band = padded[:(n - 1) * s + span]
                    _fill_rows(band, src, first, h, phases, s)
                    win = band
                    if win_buf is not None:
                        win = win_buf[:n]
                        for ki, kj in kernel_taps:
                            win[:, :, ki, kj] = _tap(band, ki * d, n, out_w, kj, p)
                    np.matmul(win.reshape(n * out_w, -1), k64, out=acc.reshape(n * out_w, c))
                if b64 is not None:
                    acc += b64
                _finish_band(acc, dest(r0, n), self.fn, self.affine, self.relu, check, max(checked - r0, 0))
                yield r0 + n

        return run()


def _fill_rows(dst, src, first: int, h: int, phases, s: int):
    """Copy input rows first, first + 1, ... of an ``h``-row map, read through
    ``src``, into the padded rows ``dst`` by column phase, and zero the rows
    past the input's last; rows before its first are left as they are, zero."""
    lo = max(first, 0)
    hi = max(min(first + len(dst), h), lo)
    if hi > lo:
        for j, part in src(lo, hi):
            for p, x0, q in phases:
                dst[j - first:j - first + len(part), p, q] = part[:, x0::s]
    dst[hi - first:] = 0.0


def _finish_band(acc, band, fn: str, affine, relu: bool, check, unchecked: int):
    """Round the float64 accumulator ``acc`` into the float32 output ``band``,
    then apply the epilogue to the band in place, using ``acc`` as the affine's
    float64 scratch. Only the last value before the ReLU, which would turn
    -inf into 0, is checked, with ``check`` under ``fn``'s name, from row
    ``unchecked`` of the band on: the affine's result is non-finite wherever
    ``fn``'s is (inf times a scale is inf or NaN)."""
    band[...] = acc
    if affine is not None:
        _affine_band(band, band, *affine, acc)
    if unchecked < len(band):
        check(band[unchecked:], fn)
    if relu:
        np.maximum(band, np.float32(0.0), out=band)


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
    return avg_pool_grid(x, 1, 1)


def _source_coords(n_out: int, n_in: int) -> np.ndarray:
    if n_out == 1:
        return np.zeros(1, dtype=np.float64)
    return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)


def bilinear_resize(x, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation of the four nearest source samples."""
    x = as_feature_map(x)
    h, w, c = x.shape
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"resize target must be positive, got {out_h}x{out_w}")
    if out_h == h and out_w == w:
        return x.copy()
    src_r = _source_coords(out_h, h)
    src_c = _source_coords(out_w, w)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = src_r - r0
    fr0 = 1.0 - fr
    # per-column weights, broadcast once to a source row's (out_w, c) shape
    fc = np.repeat((src_c - c0)[:, None], c, axis=1)
    fc0 = 1.0 - fc
    # column-blended source rows, row r in slot r % 2: output rows read rows
    # r0[i] and r1[i] <= r0[i] + 1, and r0 never decreases, so each row is
    # blended once
    ring = np.empty((2, out_w, c))
    held = [-1, -1]
    row64 = np.empty((w, c))
    tmp = np.empty((out_w, c))

    def blended(r):
        col = ring[r % 2]
        if held[r % 2] != r:
            row64[...] = x[r]  # widened once, then gathered
            np.take(row64, c0, axis=0, out=col)
            np.take(row64, c1, axis=0, out=tmp)
            col *= fc0
            np.multiply(tmp, fc, out=tmp)
            col += tmp
            held[r % 2] = r
        return col

    # a row blend per output band, one output row at a time with scalar row
    # weights; each band is rounded and checked while it is in cache
    out = np.empty((out_h, out_w, c), dtype=np.float32)
    step = _band_rows(out_h, out_w * c)
    top_buf = np.empty((step, out_w, c))
    bot_buf = np.empty((step, out_w, c))
    for a in range(0, out_h, step):
        b = min(a + step, out_h)
        top, bot = top_buf[:b - a], bot_buf[:b - a]
        for i in range(a, b):
            np.multiply(blended(r0[i]), fr0[i], out=top[i - a])
            np.multiply(blended(r1[i]), fr[i], out=bot[i - a])
        top += bot
        out[a:b] = top
        require_finite(out[a:b], "bilinear_resize")
    return out


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


def _affine_args(c: int, scale, bias):
    """The float64 scale and bias of a per-channel affine over ``c`` channels."""
    scale = np.asarray(scale, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    if scale.shape != (c,) or bias.shape != (c,):
        raise ShapeError(
            f"affine_channels: scale/bias shapes {scale.shape}/{bias.shape} != ({c},)"
        )
    return scale.astype(np.float64), bias.astype(np.float64)


def _affine_band(src, dst, s64, b64, tmp):
    """dst = float32(float64(src) * s64 + b64) through the float64 ``tmp``;
    ``dst`` may be ``src``."""
    tmp[...] = src  # widening first is exact, and faster than a mixed-dtype multiply
    tmp *= s64
    tmp += b64
    dst[...] = tmp


def affine_channels(x, scale, bias) -> np.ndarray:
    """out[r, q, i] = scale[i] * x[r, q, i] + bias[i] (folded batch norm)."""
    x = as_feature_map(x)
    h, w, c = x.shape
    s64, b64 = _affine_args(c, scale, bias)
    out = np.empty(x.shape, dtype=np.float32)
    step = _band_rows(h, w * c)
    tmp_buf = np.empty((step, w, c))
    for r0 in range(0, h, step):
        tmp = tmp_buf[:min(step, h - r0)]
        _affine_band(x[r0:r0 + step], out[r0:r0 + step], s64, b64, tmp)
        require_finite(out[r0:r0 + step], "affine_channels")
    return out


def argmax_channels(x) -> np.ndarray:
    """Per-pixel channel argmax; ties go to the lowest channel index."""
    x = as_feature_map(x)
    return np.argmax(x, axis=2).astype(np.int32)
