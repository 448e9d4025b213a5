"""Self-contained verification battery behind the ``mosaic selftest`` command.

Runs kernel-vs-oracle comparisons, the SAME shape law, exact cost-counter
checks against instrumented naive kernels, and the published-ordering checks.
The oracles here are deliberately naive loop implementations, independent of
the vectorized kernels they verify; the test suite compares against them too.

The ordering check against the published filter-ablation column is known to
fail: the computed totals do not reproduce three cross-block pairs of that
column, and the source of the gap is unknown (see README "Acceptance status").
It is reported rather than hidden, so a clean build currently exits nonzero.
The skip-ordering check leaves out the published row with an output-stride-2
skip, whose os2 merge differs from the one this decoder defines.
"""

from dataclasses import replace

import numpy as np

from . import kernels, reference
from .arch import cityscapes_config, parse_skip
from .cost import DEFAULT_POLICY, INCLUSIVE_POLICY, ablation_report, count_config, count_node
from .graph import NodeSpec
from .tensor import ConvParams, TensorShape

KNOWN_GAPS = ("published ordering: filters",)


def same_pad(size, kernel, stride, dilation):
    """The oracles' own SAME padding, written apart from ``kernels.same_pad`` so
    a fault in the kernels' pad split cannot hide in both sides of a check."""
    out = -(-size // stride)
    eff = (kernel - 1) * dilation + 1
    total = max((out - 1) * stride + eff - size, 0)
    return out, total // 2, total - total // 2


def conv2d_loops(x, kern, bias, params: ConvParams, count_mults=False):
    """Direct SAME-padded convolution; optionally returns the multiply count.

    Every tap of the padded window is multiplied (zeros included), so the
    count equals out_h*out_w*out_c*kernel_h*kernel_w*in_c/groups exactly.
    """
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
                        row = padded[iy, ix, g * ig:(g + 1) * ig]
                        acc += float(row @ k64[ky, kx, :, oc])
                        mults += ig
                if bias is not None:
                    acc += float(bias[oc])
                out[oy, ox, oc] = acc
    out32 = out.astype(np.float32)
    return (out32, mults) if count_mults else out32


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


def resize_loops(x, oh, ow):
    h, w, c = x.shape
    x64 = np.asarray(x, dtype=np.float64)
    out = np.zeros((oh, ow, c), dtype=np.float64)
    for r in range(oh):
        for q in range(ow):
            sr = 0.0 if oh == 1 else r * (h - 1) / (oh - 1)
            sc = 0.0 if ow == 1 else q * (w - 1) / (ow - 1)
            r0, c0 = int(np.floor(sr)), int(np.floor(sc))
            r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
            fr, fc = sr - r0, sc - c0
            top = x64[r0, c0] * (1 - fc) + x64[r0, c1] * fc
            bot = x64[r1, c0] * (1 - fc) + x64[r1, c1] * fc
            out[r, q, :] = top * (1 - fr) + bot * fr
    return out.astype(np.float32)


def random_conv_spec(rng, max_side=13, channel_pool=(2, 4, 6, 8)):
    """(h, w, ConvParams) for a random depthwise or dense conv."""
    kernel = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    dilation = int(rng.choice([1, 2]))
    in_c = int(rng.choice(channel_pool))
    if rng.choice(["dense", "depthwise"]) == "depthwise":
        groups, out_c = in_c, in_c
    else:
        groups, out_c = 1, int(rng.choice([1, 3, 5, 8]))
    h = int(rng.integers(3, max_side))
    w = int(rng.integers(3, max_side))
    return h, w, ConvParams(kernel, kernel, stride, dilation, groups, in_c, out_c)


def _close(a, b, rtol=1e-5, atol=1e-6):
    return np.allclose(a, b, rtol=rtol, atol=atol)


def _check_conv_oracle(n_cases=10, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        h, w, params = random_conv_spec(rng)
        x = rng.standard_normal((h, w, params.in_c)).astype(np.float32)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        bias = rng.standard_normal(params.out_c).astype(np.float32)
        got = kernels.conv2d(x, kern, bias, params)
        want = conv2d_loops(x, kern, bias, params)
        if not _close(got, want):
            return False, f"conv2d mismatch for {params}"
    return True, f"{n_cases} random cases within 1e-5"


def _check_depthwise_oracle(n_cases=8, seed=12):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        h, w = int(rng.integers(4, 11)), int(rng.integers(4, 11))
        c = int(rng.choice([1, 3, 4]))
        k = int(rng.choice([3, 5]))
        params = ConvParams(k, k, int(rng.choice([1, 2])), int(rng.choice([1, 2])), c, c, c)
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        kern = rng.standard_normal((k, k, 1, c)).astype(np.float32)
        got = kernels.depthwise_conv2d(x, kern, params)
        want = conv2d_loops(x, kern, None, params)
        if not _close(got, want):
            return False, f"depthwise mismatch for {params}"
    # values of +-2^60 cancel, so only a sum of the taps in (ky, kx) order from
    # 0.0, as the oracle's, has its bits; the kernel's order is numpy einsum's
    params = ConvParams(5, 5, 1, 1, 1, 1, 1)
    x = rng.choice(np.float32([2.0 ** 60, -2.0 ** 60, 1.0, -1.0, 0.5]), size=(9, 9, 1))
    kern = rng.choice(np.float32([1.0, -1.0]), size=(5, 5, 1, 1))
    got = kernels.depthwise_conv2d(x, kern, params)
    if not np.array_equal(got.view(np.uint32), conv2d_loops(x, kern, None, params).view(np.uint32)):
        return False, f"depthwise taps summed out of (ky, kx) order for {params}"
    return True, f"{n_cases} random cases within 1e-5, 1 cancelling case bit-exact"


def _check_pool_oracle(n_cases=6, seed=13):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        h, w = int(rng.integers(5, 20)), int(rng.integers(5, 20))
        c = int(rng.integers(1, 5))
        gh, gw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        if not _close(kernels.avg_pool_grid(x, gh, gw), avg_pool_loops(x, gh, gw)):
            return False, f"avg_pool_grid mismatch for {h}x{w} grid {gh}x{gw}"
    return True, f"{n_cases} random cases within 1e-5"


def _check_resize_oracle(n_cases=12, seed=14):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        oh, ow = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        if not _close(kernels.bilinear_resize(x, oh, ow), resize_loops(x, oh, ow)):
            return False, f"bilinear mismatch {h}x{w}->{oh}x{ow}"
    return True, f"{n_cases} random cases within 1e-5"


def _check_shape_law():
    rng = np.random.default_rng(16)
    for stride in (1, 2):
        for dilation in (1, 2):
            for kernel in (1, 3, 5):
                h, w = int(rng.integers(3, 12)), int(rng.integers(3, 12))
                params = ConvParams(kernel, kernel, stride, dilation, 1, 2, 3)
                x = rng.standard_normal((h, w, 2)).astype(np.float32)
                kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
                out = kernels.conv2d(x, kern, None, params)
                want = (-(-h // stride), -(-w // stride))
                if out.shape[:2] != want:
                    return False, f"out {out.shape[:2]} != ceil rule {want} for {params}"
    return True, "out = ceil(in/stride) over strides x dilations x kernels"


def _check_cost_oracle(n_cases=30, seed=17):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        h, w, params = random_conv_spec(rng)
        x = rng.standard_normal((h, w, params.in_c)).astype(np.float32)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        _, mults = conv2d_loops(x, kern, None, params, count_mults=True)
        spec = NodeSpec("probe", "Conv", {"conv": params})
        oh, _, _ = kernels.same_pad(h, params.kernel_h, params.stride, params.dilation)
        ow, _, _ = kernels.same_pad(w, params.kernel_w, params.stride, params.dilation)
        madds, _ = count_node(
            spec, [TensorShape(h, w, params.in_c)], TensorShape(oh, ow, params.out_c)
        )
        if madds != mults:
            return False, f"count_node {madds} != instrumented {mults} for {params}"
    return True, f"{n_cases} random specs, exact integer match"


def ordering(rows):
    """The labels of (label, value) rows in ascending value order."""
    return [label for label, _ in sorted(rows, key=lambda kv: kv[1])]


def has_os2_skip(token):
    """Whether a skip-ablation token merges an output-stride-2 tap."""
    return token != "0" and any(parse_skip(t).output_stride == 2 for t in token.split(","))


def _check_skip_ordering():
    # The published os2 row's increment matches a class-width projection of
    # the os2 tap, not the semantic-width sum merge this decoder defines, so
    # only the rows without an output-stride-2 skip are ordered.
    base = cityscapes_config()
    tokens = reference.sorted_by_reference(reference.SKIP_VARIANTS_B)
    madds = {r.label: r.madds for r in ablation_report(base, "skips", tokens)}
    os2 = [t for t in tokens if has_os2_skip(t)]
    want = reference.sorted_by_reference(
        {t: v for t, v in reference.SKIP_VARIANTS_B.items() if t not in os2}
    )
    got = ordering([(t, madds[t]) for t in tokens if t not in os2])
    if got == want:
        return True, (
            f"skip-variant totals follow the published order over the {len(want)} "
            "rows without an output-stride-2 skip"
        )
    return False, (
        f"computed ordering {got} != published {want} over the rows without an "
        "output-stride-2 skip"
    )


def _check_filter_ordering():
    base = cityscapes_config()
    totals = {}
    for enc, dec in reference.FILTER_VARIANTS_B:
        cfg = replace(base, enc_filters=enc, dec_filters=dec)
        totals[(enc, dec)] = count_config(cfg).total_madds
    want = reference.sorted_by_reference(reference.FILTER_VARIANTS_B)
    got = ordering(totals.items())
    if got == want:
        return True, "filter-variant totals follow the published order"
    return False, (
        f"computed order {got} != published {want}; the published column "
        "implies encoder-filter scaling several times stronger than this "
        "architecture's, for a reason not yet known (see README \"Acceptance status\")"
    )


def _check_pyramid_ordering():
    base = cityscapes_config()
    tokens = reference.sorted_by_reference(reference.PYRAMID_VARIANTS_B)
    rows = ablation_report(base, "pyramid", tokens)
    got = ordering([(r.label, r.madds) for r in rows])
    if got == tokens:
        return True, "pyramid-variant totals follow the published order"
    return False, f"computed order {got} != published {tokens}"


def _check_policy_invariance():
    base = cityscapes_config()
    tokens = list(reference.SKIP_VARIANTS_B)
    plain = ordering([(r.label, r.madds) for r in ablation_report(base, "skips", tokens)])
    full = ordering(
        [(r.label, r.madds) for r in ablation_report(base, "skips", tokens, INCLUSIVE_POLICY)]
    )
    if plain == full:
        return True, "include-everything policy changes totals but not the ordering"
    return False, f"policy changed the variant ordering: {plain} vs {full}"


def _check_headline_total():
    report = count_config(cityscapes_config(), DEFAULT_POLICY)
    gap = report.total_madds / (reference.CITYSCAPES_TOTAL_B * 1e9) - 1.0
    if abs(gap) <= 0.06:
        return True, f"total {report.total_madds} within 6% of published ({gap:+.2%})"
    return False, f"total {report.total_madds} off published by {gap:+.2%}"


CHECKS = (
    ("conv vs naive oracle", _check_conv_oracle),
    ("depthwise vs naive oracle", _check_depthwise_oracle),
    ("avg-pool vs naive oracle", _check_pool_oracle),
    ("bilinear vs naive oracle", _check_resize_oracle),
    ("SAME shape law", _check_shape_law),
    ("cost counter vs instrumented kernels", _check_cost_oracle),
    ("published ordering: pyramid", _check_pyramid_ordering),
    ("published ordering: filters", _check_filter_ordering),
    ("published ordering: skips", _check_skip_ordering),
    ("policy ordering invariance", _check_policy_invariance),
    ("headline total reconciliation", _check_headline_total),
)


def run_selftest(write=print) -> int:
    """Run every check, print one PASS/FAIL line each; returns the exit code."""
    failures = 0
    for name, fn in CHECKS:
        ok, detail = fn()
        status = "PASS" if ok else "FAIL"
        note = "" if ok or name not in KNOWN_GAPS else " [known gap]"
        write(f"{status}{note} {name}: {detail}")
        if not ok:
            failures += 1
    write(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
