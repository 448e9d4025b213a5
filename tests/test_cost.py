import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from mosaicseg.arch import (
    DecoderConfig, EncoderConfig, ModelConfig, SkipSpec, ade20k_config, cityscapes_config,
    with_skips,
)
from mosaicseg.cost import (
    DEFAULT_POLICY, INCLUSIVE_POLICY, ablation_report, apply_variant, count_config,
    count_model, count_node, render_ablation_csv, render_report_csv, render_report_text,
)
from mosaicseg.errors import ConfigError
from mosaicseg.graph import NodeSpec
from mosaicseg.kernels import same_pad
from mosaicseg.arch import build_model
from mosaicseg.selftest import conv2d_loops, random_conv_spec
from mosaicseg.tensor import ConvParams, TensorShape
from mosaicseg.weights import init_weights


def out_shape_for(h, w, params):
    oh, _, _ = same_pad(h, params.kernel_h, params.stride, params.dilation)
    ow, _, _ = same_pad(w, params.kernel_w, params.stride, params.dilation)
    return TensorShape(oh, ow, params.out_c)


def node_madds(params, h, w, bias=False):
    kind = "DepthwiseConv" if params.is_depthwise else "Conv"
    spec = NodeSpec("n", kind, {"conv": params, "bias": bias})
    return count_node(spec, [TensorShape(h, w, params.in_c)], out_shape_for(h, w, params))


def test_first_backbone_conv_count():
    madds, params = node_madds(ConvParams(3, 3, 2, 1, 1, 3, 32), 224, 224)
    assert madds == 112 * 112 * 32 * 3 * 3 * 3 == 10838016
    assert params == 3 * 3 * 3 * 32


def test_endpoint_conv_count():
    madds, _ = node_madds(ConvParams(1, 1, 1, 1, 1, 96, 480), 14, 14)
    assert madds == 14 * 14 * 96 * 480 == 9031680


def test_relu_and_structural_nodes_are_free():
    shape = TensorShape(10, 10, 8)
    for kind, params in [
        ("ConcatChannels", {}), ("Add", {}),
        ("AvgPoolGrid", {"grid_h": 1, "grid_w": 1}), ("Slice", {"start": 0, "stop": 4}),
    ]:
        madds, params_n = count_node(NodeSpec("n", kind, params), [shape], shape)
        assert (madds, params_n) == (0, 0)
    conv = ConvParams(3, 3, 1, 1, 8, 8, 8)
    for policy in (DEFAULT_POLICY, INCLUSIVE_POLICY):
        plain = count_node(NodeSpec("n", "DepthwiseConv", {"conv": conv}), [shape], shape, policy)
        with_relu = count_node(NodeSpec("n", "DepthwiseConv", {"conv": conv, "relu": True}), [shape], shape, policy)
        assert with_relu == plain


@pytest.mark.parametrize("config", [cityscapes_config, ade20k_config])
def test_cost_params_match_the_weight_store(config):
    model = build_model(config())
    store = init_weights(model, 0)
    assert count_model(model).total_params == sum(v.size for _, v in store.items())


@pytest.mark.parametrize("config,totals", [
    (cityscapes_config, [20_513_895_936, 21_045_958_144, 1_720_339]),
    (ade20k_config, [2_612_890_624, 2_693_999_616, 1_761_024]),
])
def test_cost_totals_of_the_pinned_configs(config, totals):
    # [madds, include-everything madds, params], recorded at commit c6758e5,
    # whose graphs held each batch norm and ReLU as a node of its own
    model = build_model(config())
    report, inclusive = count_model(model), count_model(model, INCLUSIVE_POLICY)
    assert [report.total_madds, inclusive.total_madds, report.total_params] == totals


def test_affine_params_counted_madds_free():
    # 2c params; one op per output element only under include-everything
    p = ConvParams(1, 1, 1, 1, 1, 16, 32)
    plain = NodeSpec("n", "Conv", {"conv": p})
    affine = NodeSpec("n", "Conv", {"conv": p, "affine": True, "relu": True})
    shapes = [TensorShape(6, 6, 16)], TensorShape(6, 6, 32)
    madds, params = count_node(plain, *shapes)
    assert count_node(affine, *shapes) == (madds, params + 64)
    assert count_node(affine, *shapes, INCLUSIVE_POLICY) == (madds + 6 * 6 * 32, params + 64)


def test_classifier_bias_adds_params():
    p = ConvParams(1, 1, 1, 1, 1, 64, 19)
    _, without = node_madds(p, 8, 8, bias=False)
    _, with_bias = node_madds(p, 8, 8, bias=True)
    assert with_bias - without == 19


def test_count_matches_instrumented_kernel(rng):
    for _ in range(40):
        h, w, params = random_conv_spec(rng, max_side=10)
        x = rng.standard_normal((h, w, params.in_c)).astype(np.float32)
        kern = rng.standard_normal(params.kernel_shape()).astype(np.float32)
        _, mults = conv2d_loops(x, kern, None, params, count_mults=True)
        madds, _ = node_madds(params, h, w)
        assert madds == mults, params


def test_total_is_sum_of_per_node():
    report = count_config(cityscapes_config())
    assert report.total_madds == sum(c.madds for c in report.per_node)
    assert report.total_params == sum(c.params for c in report.per_node)
    assert report.total_madds == sum(report.stage_madds.values())


def test_removing_subgraph_decreases_by_its_subtotal():
    base = cityscapes_config()
    three = count_config(base)
    two = count_config(replace(base, encoder=replace(base.encoder, pyramid_bins=(4, 8))))
    level16 = sum(
        c.madds for c in three.per_node if c.name.startswith("encoder/level16/")
    )
    # the aggregate conv narrows too: its input loses one level's channels
    agg_three = next(c.madds for c in three.per_node if c.name == "encoder/aggregate")
    agg_two = next(c.madds for c in two.per_node if c.name == "encoder/aggregate")
    assert three.total_madds - two.total_madds == level16 + (agg_three - agg_two)


def test_resolution_scaling_times_four_except_pooled_levels():
    base = replace(cityscapes_config(), input_h=256, input_w=256)
    small = count_config(base)
    big = count_config(replace(base, input_h=512, input_w=512))
    assert big.input_resolution == (512, 512)
    small_by_name = {c.name: c.madds for c in small.per_node}
    for c in big.per_node:
        before = small_by_name[c.name]
        if "/group" in c.name and c.name.startswith("encoder/level"):
            assert c.madds == before, f"{c.name} should be resolution-independent"
        else:
            assert c.madds == 4 * before, c.name


def test_skip_variants_strictly_increase_cost_nodes_params():
    base = cityscapes_config()
    reports = {}
    for skips in [(), (SkipSpec(4, "sum"),), (SkipSpec(8, "concat"), SkipSpec(4, "sum")),
                  (SkipSpec(8, "concat"), SkipSpec(4, "sum"), SkipSpec(2, "sum"))]:
        model = build_model(with_skips(base, skips))
        reports[len(skips)] = (len(model.graph.order), count_model(model))
    for fewer, more in zip(range(0, 3), range(1, 4)):
        n0, r0 = reports[fewer]
        n1, r1 = reports[more]
        assert n1 > n0
        assert r1.total_params > r0.total_params
        assert r1.total_madds > r0.total_madds


def test_zero_skip_variant_below_all_skip_bearing():
    base = cityscapes_config()
    rows = ablation_report(base, "skips", ["0", "4-S", "4-C", "8-C", "8-S,4-S", "8-C,4-S"])
    zero = next(r.madds for r in rows if r.label == "0")
    assert all(r.madds > zero for r in rows if r.label != "0")


def test_filters_monotonic_in_each_axis():
    base = cityscapes_config()
    enc_rows = ablation_report(base, "encoder_filters", ["16", "32", "64", "128"])
    assert [r.madds for r in enc_rows] == sorted(r.madds for r in enc_rows)
    dec_rows = ablation_report(base, "decoder_filters", ["16", "32", "64", "128"])
    assert [r.madds for r in dec_rows] == sorted(r.madds for r in dec_rows)
    assert len({r.madds for r in enc_rows}) == 4  # strict
    assert len({r.madds for r in dec_rows}) == 4


def test_ablation_single_variant_equals_count_model():
    base = cityscapes_config()
    rows = ablation_report(base, "skips", ["8-C,4-S"])
    assert len(rows) == 1
    assert rows[0].madds == count_config(base).total_madds


def test_ablation_pyramid_variant_grammar():
    base = cityscapes_config()
    cfg = apply_variant(base, "pyramid", "1,4,8,16")
    assert cfg.encoder.pyramid_bins == (1, 4, 8, 16)
    cfg = apply_variant(base, "pyramid", "4,8,16:nogc")
    assert cfg.encoder.use_group_conv is False
    with pytest.raises(ConfigError):
        apply_variant(base, "pyramid", "4,8:maybe")


def test_ablation_gc_flag_changes_cost_slightly():
    base = cityscapes_config()
    rows = ablation_report(base, "pyramid", ["4,8,16", "4,8,16:nogc"])
    on, off = rows[0].madds, rows[1].madds
    assert off > on
    assert (off - on) / on < 0.001  # grouping saves under 0.1% of the total


def test_ablation_errors_name_variant():
    with pytest.raises(ConfigError, match="8-Q"):
        ablation_report(cityscapes_config(), "skips", ["8-Q"])
    with pytest.raises(ConfigError, match="variant"):
        ablation_report(cityscapes_config(), "encoder_filters", ["33"])
    with pytest.raises(ConfigError):
        ablation_report(cityscapes_config(), "skips", [])
    with pytest.raises(ConfigError, match="axis"):
        ablation_report(cityscapes_config(), "resolution", ["512"])


@pytest.mark.parametrize("axis,token", [
    ("encoder_filters", "1_6"), ("decoder_filters", "+64"), ("encoder_filters", "\u0663\u0662"),
    ("pyramid", "4,1_6"), ("pyramid", "4,+8:nogc"), ("skips", "8-C,0_4-S"),
])
def test_ablation_tokens_take_ascii_decimal_integers(axis, token):
    with pytest.raises(ConfigError, match="expected integer"):
        apply_variant(cityscapes_config(), axis, token)


def test_inclusive_policy_adds_cost_but_keeps_order():
    base = cityscapes_config()
    tokens = ["0", "4-S", "8-C", "8-C,4-S"]
    plain = ablation_report(base, "skips", tokens, DEFAULT_POLICY)
    full = ablation_report(base, "skips", tokens, INCLUSIVE_POLICY)
    for a, b in zip(plain, full):
        assert b.madds > a.madds
    assert [r.label for r in sorted(plain, key=lambda r: r.madds)] == \
           [r.label for r in sorted(full, key=lambda r: r.madds)]


def test_report_csv_rows_parse_back():
    report = count_config(
        ModelConfig(m=64, num_classes=5, input_h=64, input_w=64,
                    encoder=EncoderConfig(pyramid_bins=(2,), enc_filters=8),
                    decoder=DecoderConfig(dec_filters=8))
    )
    rows = list(csv.DictReader(io.StringIO(render_report_csv(report))))
    assert rows[-1]["label"] == "total"
    assert int(rows[-1]["madds"]) == report.total_madds
    assert rows[-1]["madds_B"] == f"{report.total_madds / 1e9:.2f}"
    per_node = [r for r in rows if not r["label"].startswith(("stage:", "total"))]
    assert sum(int(r["madds"]) for r in per_node) == report.total_madds


def test_ablation_csv_round_trip():
    rows = ablation_report(cityscapes_config(), "skips", ["0", "8-C,4-S"])
    parsed = list(csv.DictReader(io.StringIO(render_ablation_csv(rows))))
    assert [r["label"] for r in parsed] == ["0", "8-C,4-S"]
    assert int(parsed[1]["madds"]) == rows[1].madds


def test_report_text_has_stages_and_total():
    text = render_report_text(count_config(cityscapes_config()))
    for token in ("stage backbone", "stage encoder", "stage decoder", "stage head", "TOTAL"):
        assert token in text
    assert "20.51 B" in text
