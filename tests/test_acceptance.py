"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Two checks are known-red and intentionally left failing rather than loosened
(full analysis in README "Acceptance status"). The source of both gaps is
unknown; settling them needs the paper's per-layer encoder/decoder widths and
its ADE20K configuration, which this repository does not hold.

* criterion 2: the computed ADE20K-configuration total is 12.3% below the
  published 2.98 B, outside the +/-6% window. The gap is not a constant head
  term: at equal filters (64,64), where the aggregation mode has no effect,
  published minus computed is +0.77 B at 1024x2048 but +0.37 B at 512x512,
  and across the Cityscapes filter column it ranges from +0.19 B to +2.07 B.
* criterion 3: the filter-ablation column ordering fails on three cross-block
  pairs. The other sub-checks pass and are asserted separately: the
  pyramid-table ordering, the 4-S delta bound, and the skip-table ordering
  over the seven rows without an output-stride-2 skip (the published os2 row
  measures a different os2 merge from the documented one; see
  ``test_c3_skip_table_ordering``).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mosaicseg import kernels, reference
from mosaicseg.arch import ade20k_config, build_backbone, cityscapes_config, dump_config
from mosaicseg.cli import main as cli_main
from mosaicseg.cost import DEFAULT_POLICY, ablation_report, count_config, count_node
from mosaicseg.graph import Graph, NodeSpec, infer_shapes
from mosaicseg.images import read_labelmap_pgm
from mosaicseg.metrics import compute_miou
from mosaicseg.selftest import (
    avg_pool_loops, conv2d_loops, has_os2_skip, ordering, random_conv_spec, resize_loops,
)
from mosaicseg.tensor import ConvParams, TensorShape

import oracles


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: Cityscapes headline reconciliation ---------------------------

def test_c1_cityscapes_headline_madds():
    target = reference.CITYSCAPES_TOTAL_B * 1e9
    start = time.perf_counter()
    base = cityscapes_config()
    totals = {
        mode: count_config(replace(base, aggregation_width_mode=mode)).total_madds
        for mode in ("EncoderWidth", "DecoderWidth")
    }
    elapsed = time.perf_counter() - start
    gaps = {mode: total / target - 1.0 for mode, total in totals.items()}
    best = min(gaps, key=lambda mode: abs(gaps[mode]))
    other = next(mode for mode in gaps if mode != best)
    detail = (
        f"best mode {best}: {totals[best]} madds ({gaps[best]:+.2%} of 20.86e9); "
        f"{other} {gaps[other]:+.2%}; {elapsed:.3f} s"
    )
    ok = abs(gaps[best]) <= 0.06 and elapsed < 1.0
    report("1 cityscapes-madds", ok, detail)
    assert elapsed < 1.0
    assert abs(gaps[best]) <= 0.06, detail
    # documented outcome: both modes reconcile; DecoderWidth lands closest
    assert best == "DecoderWidth"
    assert abs(gaps["EncoderWidth"]) <= 0.06


# -- criterion 2: ADE20K reconciliation (known red) -----------------------------

def test_c2_ade20k_madds():
    target = reference.ADE20K_TOTAL_B * 1e9
    total = count_config(ade20k_config()).total_madds
    gap = total / target - 1.0
    ok = abs(gap) <= 0.06
    report("2 ade20k-madds", ok, f"{total} madds ({gap:+.2%} of 2.98e9)")
    assert abs(gap) <= 0.06, (
        f"computed {total} madds is {gap:+.2%} from the published 2.98e9, outside +/-6%. "
        "Published minus computed is not a constant term (+0.77e9 at 1024x2048 "
        "but +0.37e9 at 512x512 with filters (64,64); +0.19e9 to +2.07e9 across the "
        "Cityscapes filter column), so its source is unknown; settling it needs the "
        "paper's per-layer widths and ADE20K configuration. Left red; see README."
    )


# -- criterion 3: published-ordering reproduction -------------------------------

def test_c3_filter_table_ordering():
    base = cityscapes_config()
    totals = []
    for enc, dec in reference.FILTER_VARIANTS_B:
        cfg = replace(base, enc_filters=enc, dec_filters=dec)
        totals.append(((enc, dec), count_config(cfg).total_madds))
    want = reference.sorted_by_reference(reference.FILTER_VARIANTS_B)
    got = ordering(totals)
    ok = got == want
    report("3a filter-ordering", ok, f"computed {got}")
    assert got == want, (
        f"computed ordering {got} != published {want}. The three cross-block pairs "
        "(16,64)<(32,32), (32,64)<(64,16), (64,128)<(128,64) need encoder-filter "
        "scaling ~3x stronger than this architecture has anywhere, and the published "
        "decoder 16->32 step shrinks from +0.29 B under enc=32 to +0.18 B under enc=64 "
        "where the computed one grows. Within-block orderings do hold. The source of "
        "the gap is unknown until the paper's layer tables are in the repository. "
        "Left red; see README."
    )


def test_c3_pyramid_table_ordering():
    base = cityscapes_config()
    tokens = reference.sorted_by_reference(reference.PYRAMID_VARIANTS_B)
    rows = ablation_report(base, "pyramid", tokens)
    got = ordering([(r.label, r.madds) for r in rows])
    ok = got == tokens
    report("3b pyramid-ordering", ok, f"computed {got}")
    assert got == tokens


def test_c3_skip_table_ordering():
    """Published skip-ablation order over the rows without an output-stride-2 skip.

    All eight published rows are counted, but the ordering is asserted only over
    the seven whose merges the documented decoder and the published table define
    alike. The os2 row is left out: the documented os2 sum merge projects the
    32-wide os2 tap to the 64-wide semantic branch and moves the classifier to
    512x1024 (pinned by ``test_arch.test_decoder_three_skips_reach_os2``), which
    costs 1.552e9 madds over '8-C,4-S'. The published increment for that row is
    0.326e9, what a 19-channel projection of the tap costs (0.319e9), so the
    published row measures a different os2 merge and cannot be ordered with
    this decoder's totals.
    """
    base = cityscapes_config()
    tokens = reference.sorted_by_reference(reference.SKIP_VARIANTS_B)
    madds = {r.label: r.madds for r in ablation_report(base, "skips", tokens)}
    os2 = [t for t in tokens if has_os2_skip(t)]
    want = reference.sorted_by_reference(
        {t: v for t, v in reference.SKIP_VARIANTS_B.items() if t not in os2}
    )
    got = ordering([(t, madds[t]) for t in tokens if t not in os2])
    ok = got == want
    os2_detail = "; ".join(
        f"{t!r} computed {madds[t] / 1e9:.3f} B vs published "
        f"{reference.SKIP_VARIANTS_B[t]:.3f} B (excluded)"
        for t in os2
    )
    report("3c skip-ordering", ok, f"computed {got}; {os2_detail}")
    assert got == want, (
        f"computed ordering {got} != published {want} over the rows without an "
        "output-stride-2 skip"
    )


def test_c3_single_skip_delta_bound():
    base = cityscapes_config()
    rows = {r.label: r.madds for r in ablation_report(base, "skips", ["0", "4-S"])}
    delta = rows["4-S"] - rows["0"]
    target = reference.SKIP_4S_DELTA_B * 1e9
    rel = delta / target - 1.0
    ok = abs(rel) <= 0.30
    report("3d 4S-delta", ok, f"delta {delta} madds vs published 0.162e9 ({rel:+.2%})")
    assert abs(rel) <= 0.30, f"4-S delta {delta} off published by {rel:+.2%}"


# -- criterion 4: cost-oracle exactness ------------------------------------------

def test_c4_cost_counter_exact_on_200_specs():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for i in range(200):
        kernel = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        dilation = int(rng.choice([1, 2]))
        in_c = int(rng.choice([2, 4, 8, 16]))
        if rng.choice(["dense", "depthwise"]) == "depthwise":
            groups, out_c = in_c, in_c
        else:
            groups, out_c = 1, int(rng.integers(1, 17))
        params = ConvParams(kernel, kernel, stride, dilation, groups, in_c, out_c)
        h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        x = rng.standard_normal((h, w, in_c)).astype(np.float32)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        _, mults = conv2d_loops(x, kern, None, params, count_mults=True)
        oh, _, _ = kernels.same_pad(h, kernel, stride, dilation)
        ow, _, _ = kernels.same_pad(w, kernel, stride, dilation)
        madds, _ = count_node(
            NodeSpec("probe", "Conv", {"conv": params}),
            [TensorShape(h, w, in_c)], TensorShape(oh, ow, out_c), DEFAULT_POLICY,
        )
        assert madds == mults, f"spec {i}: count {madds} != instrumented {mults} for {params}"
    elapsed = time.perf_counter() - start
    report("4 cost-oracle", elapsed < 30.0, f"200 specs exact in {elapsed:.1f} s")
    assert elapsed < 30.0


# -- criterion 5: kernel-oracle equivalence ---------------------------------------

def _rel_close(a, b):
    return np.allclose(a, b, rtol=1e-5, atol=1e-6)


def test_c5_kernel_oracles_100_cases_each():
    rng = np.random.default_rng(505)
    for _ in range(100):
        h, w, params = random_conv_spec(rng, max_side=11, channel_pool=(2, 3, 4, 6))
        x = rng.standard_normal((h, w, params.in_c)).astype(np.float32)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        bias = rng.standard_normal(params.out_c).astype(np.float32)
        assert _rel_close(kernels.conv2d(x, kern, bias, params),
                          conv2d_loops(x, kern, bias, params)), params

    for _ in range(100):
        c = int(rng.choice([1, 2, 4]))
        k = int(rng.choice([3, 5]))
        params = ConvParams(k, k, int(rng.choice([1, 2])), int(rng.choice([1, 2])), c, c, c)
        h, w = int(rng.integers(3, 11)), int(rng.integers(3, 11))
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        kern = rng.standard_normal((k, k, 1, c)).astype(np.float32)
        assert _rel_close(kernels.depthwise_conv2d(x, kern, params),
                          conv2d_loops(x, kern, None, params)), params

    for _ in range(100):
        h, w = int(rng.integers(2, 21)), int(rng.integers(2, 21))
        c = int(rng.integers(1, 5))
        gh, gw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        assert _rel_close(kernels.avg_pool_grid(x, gh, gw),
                          avg_pool_loops(x, gh, gw)), (h, w, gh, gw)

    for _ in range(100):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        oh, ow = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        assert _rel_close(kernels.bilinear_resize(x, oh, ow),
                          resize_loops(x, oh, ow)), (h, w, oh, ow)
    report("5 kernel-oracles", True, "conv/depthwise/pool/resize x100")


# -- criterion 6: backbone shape golden --------------------------------------------

def test_c6_backbone_input_column_golden():
    g = Graph()
    build_backbone(g, m=480)
    shapes = infer_shapes(g, TensorShape(224, 224, 3))
    # the shape entering rows 2..18 of the trunk table at a 224x224x3 input
    golden = [
        (2, 112, 32), (3, 56, 32), (4, 56, 32), (5, 28, 64), (6, 28, 64),
        (7, 28, 64), (8, 28, 64), (9, 14, 128), (10, 14, 128), (11, 14, 128),
        (12, 14, 128), (13, 14, 160), (14, 14, 160), (15, 14, 192),
        (16, 14, 96), (17, 14, 96), (18, 14, 96),
    ]
    for row, side, width in golden:
        first = f"backbone/bneck{row:02d}/expand" if row < 18 else "backbone/feature"
        src = g.inputs[first][0]
        assert shapes[src] == TensorShape(side, side, width), f"row {row}"
    assert shapes[g.taps["os16"]] == TensorShape(14, 14, 480)
    report("6 shape-golden", True, "all 17 entering shapes + endpoint match at 224x224x3")


# -- criterion 7: end-to-end forward pass -------------------------------------------

def test_c7_end_to_end_run(tmp_path, capsys):
    conf = tmp_path / "ade.conf"
    conf.write_text(dump_config(ade20k_config()))
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    start = time.perf_counter()
    assert cli_main(["run", str(conf), "--seed", "7", "--output", str(out1)]) == 0
    first = time.perf_counter() - start
    assert cli_main(["run", str(conf), "--seed", "7", "--output", str(out2)]) == 0
    capsys.readouterr()
    labels = read_labelmap_pgm(out1)
    ok = (
        first < 120.0
        and labels.shape == (512, 512)
        and labels.min() >= 0
        and labels.max() < 32
        and out1.read_bytes() == out2.read_bytes()
    )
    report("7 end-to-end", ok, f"512x512 forward in {first:.1f} s, byte-identical rerun")
    assert first < 120.0
    assert labels.shape == (512, 512)
    assert labels.min() >= 0 and labels.max() < 32
    assert out1.read_bytes() == out2.read_bytes()


# -- criterion 8: mIOU oracle ---------------------------------------------------------

def test_c8_miou_matches_confusion_oracle():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        pred = rng.integers(0, k, size=(h, w))
        gt = rng.integers(0, k, size=(h, w))
        got = compute_miou(pred, gt, k)
        want = oracles.miou_confusion(pred, gt, k)
        assert abs(got - want) <= 1e-12, (k, h, w)
    report("8 miou-oracle", True, "1000 random map pairs within 1e-12")


# -- criterion 9: desk-scale limits (informational) -------------------------------------

def test_c9_out_of_scope_statement():
    report(
        "9 out-of-scope", True,
        "accuracy (mIOU) and on-device latency figures require training and "
        "physical devices; they are replaced by criteria 1-8 by design",
    )
