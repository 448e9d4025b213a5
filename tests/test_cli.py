import csv
import io
import re
import struct

import numpy as np
import pytest

from mosaicseg import selftest
from mosaicseg.cli import main
from mosaicseg.images import read_labelmap_pgm, write_image_ppm
from mosaicseg.weights import save_weights, init_weights
from mosaicseg.arch import build_model, parse_config

TINY = """\
m=32
num_classes=5
input_h=64
input_w=64
enc_filters=8
dec_filters=8
pyramid_bins=2,4
"""


@pytest.fixture
def tiny_conf(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY)
    return str(path)


@pytest.fixture
def headline_conf(tmp_path):
    path = tmp_path / "city.conf"
    path.write_text("")  # defaults are the headline configuration
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_headline_tap_shapes(capsys, headline_conf):
    code, out, _ = run_cli(capsys, "describe", headline_conf)
    assert code == 0
    assert "tap os2: " in out and "512x1024x32" in out
    assert "tap os4: " in out and "256x512x32" in out
    assert "tap os8: " in out and "128x256x64" in out
    assert "tap os16: " in out and "64x128x480" in out
    assert "stage backbone" in out


def test_describe_single_concat_skip(capsys, tmp_path):
    path = tmp_path / "one.conf"
    path.write_text(TINY + "skips=8-C\n")
    code, out, _ = run_cli(capsys, "describe", str(path))
    assert code == 0
    assert "decoder/merge_os8/concat" in out
    assert "merge_os4" not in out


def test_describe_malformed_config_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("pyramid_bins=0\n")
    code, _, err = run_cli(capsys, "describe", str(path))
    assert code == 2
    assert "pyramid_bins" in err


def test_describe_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "describe", "/nonexistent/x.conf")
    assert code == 1
    assert "error" in err


def test_cost_csv_round_trips(capsys, tiny_conf):
    code, out, _ = run_cli(capsys, "cost", tiny_conf, "--csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    total = next(r for r in rows if r["label"] == "total")
    per_node = [r for r in rows if not r["label"].startswith(("stage:", "total"))]
    assert sum(int(r["madds"]) for r in per_node) == int(total["madds"])
    assert total["madds_B"] == f"{int(total['madds']) / 1e9:.2f}"


def test_cost_text_report(capsys, tiny_conf):
    code, out, _ = run_cli(capsys, "cost", tiny_conf)
    assert code == 0
    assert "TOTAL" in out and "policy default" in out


def test_cost_policy_flag(capsys, tiny_conf):
    _, plain, _ = run_cli(capsys, "cost", tiny_conf, "--csv")
    _, full, _ = run_cli(capsys, "cost", tiny_conf, "--csv", "--policy", "include-everything")
    get_total = lambda text: int(next(
        r for r in csv.DictReader(io.StringIO(text)) if r["label"] == "total"
    )["madds"])
    assert get_total(full) > get_total(plain)


def test_ablate_emits_rows_in_input_order(capsys, tiny_conf):
    code, out, _ = run_cli(
        capsys, "ablate", tiny_conf, "--axis", "skips",
        "--variants", "0", "8-C,4-S", "4-S", "--csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["label"] for r in rows] == ["0", "8-C,4-S", "4-S"]
    assert int(rows[1]["madds"]) > int(rows[0]["madds"])


def test_ablate_pyramid_axis_seven_variants(capsys, headline_conf):
    variants = ["1,4", "4,8", "4,16", "8,16", "4,8,16", "4,8,16:nogc", "1,4,8,16"]
    code, out, _ = run_cli(
        capsys, "ablate", headline_conf, "--axis", "pyramid", "--variants", *variants, "--csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["label"] for r in rows] == variants
    assert [int(r["madds"]) for r in rows] == sorted(int(r["madds"]) for r in rows)


def test_ablate_requires_variants(capsys, tiny_conf):
    with pytest.raises(SystemExit) as excinfo:
        main(["ablate", tiny_conf, "--axis", "skips"])
    assert excinfo.value.code == 2


def test_ablate_bad_variant_exit_2(capsys, tiny_conf):
    code, _, err = run_cli(capsys, "ablate", tiny_conf, "--axis", "skips", "--variants", "9-C")
    assert code == 2
    assert "9-C" in err


@pytest.mark.parametrize("axis,token,message", [
    ("pyramid", "4,,8", "pyramid: expected integer, got ''"), ("skips", "8-C,,4-S", "bad skip token ''"),
])
def test_ablate_empty_list_item_exit_2(capsys, tiny_conf, axis, token, message):
    code, out, err = run_cli(capsys, "ablate", tiny_conf, "--axis", axis, "--variants", token)
    assert (code, out) == (2, "")
    assert f"variant {token!r}: {message}" in err


@pytest.mark.parametrize("axis", ["skips", "pyramid", "encoder_filters", "decoder_filters"])
@pytest.mark.parametrize("token", ["", " "])
def test_ablate_blank_token_exit_2(capsys, tiny_conf, axis, token):
    valid = "0" if axis == "skips" else "4"
    code, out, err = run_cli(capsys, "ablate", tiny_conf, "--axis", axis, "--variants", valid, token)
    assert (code, out) == (2, "")
    assert f"variant {token!r}: blank ablation token" in err


def test_describe_empty_list_item_config_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("skips=8-C,,4-S\n")
    code, out, err = run_cli(capsys, "describe", str(path))
    assert (code, out) == (2, "")
    assert "bad skip token ''" in err


@pytest.mark.parametrize("axis,token", [("encoder_filters", "1_6"), ("pyramid", "4,1_6")])
def test_ablate_non_decimal_integer_exit_2(capsys, tiny_conf, axis, token):
    code, out, err = run_cli(capsys, "ablate", tiny_conf, "--axis", axis, "--variants", token)
    assert (code, out) == (2, "")
    assert f"variant {token!r}: {axis}: expected integer, got '1_6'" in err


def test_describe_non_decimal_integer_config_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("m=4_80\n")
    code, out, err = run_cli(capsys, "describe", str(path))
    assert (code, out) == (2, "")
    assert "config key m: expected integer, got '4_80'" in err


def test_unknown_flag_rejected(tiny_conf):
    with pytest.raises(SystemExit) as excinfo:
        main(["cost", tiny_conf, "--fast"])
    assert excinfo.value.code == 2


def test_run_seeded_deterministic(capsys, tiny_conf, tmp_path):
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    code, out, _ = run_cli(capsys, "run", tiny_conf, "--seed", "7", "--output", str(out1))
    assert code == 0
    assert "stage forward" in out
    code, _, _ = run_cli(capsys, "run", tiny_conf, "--seed", "7", "--output", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    labels = read_labelmap_pgm(out1)
    assert labels.shape == (64, 64)
    assert labels.min() >= 0 and labels.max() < 5


def test_run_needs_weights_or_seed(capsys, tiny_conf, tmp_path):
    code, _, err = run_cli(capsys, "run", tiny_conf, "--output", str(tmp_path / "x.pgm"))
    assert code == 2
    assert "--weights or --seed" in err


def test_run_with_weight_file_and_image(capsys, tiny_conf, tmp_path, rng):
    model = build_model(parse_config(TINY))
    weights_path = tmp_path / "w.mosw"
    save_weights(init_weights(model, 3), weights_path)
    image_path = tmp_path / "in.ppm"
    write_image_ppm(rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8), image_path)
    out_path = tmp_path / "out.pgm"
    code, _, _ = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path),
        "--input", str(image_path), "--output", str(out_path),
    )
    assert code == 0
    assert read_labelmap_pgm(out_path).shape == (64, 64)


def test_run_resolution_mismatch(capsys, tiny_conf, tmp_path, rng):
    image_path = tmp_path / "in.ppm"
    write_image_ppm(rng.integers(0, 256, size=(65, 64, 3)).astype(np.uint8), image_path)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--seed", "1",
        "--input", str(image_path), "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 2
    assert "65x64" in err


def test_run_rejects_wrong_weight_shapes(capsys, tiny_conf, tmp_path):
    other = parse_config(TINY.replace("m=32", "m=64"))
    weights_path = tmp_path / "w.mosw"
    save_weights(init_weights(build_model(other), 3), weights_path)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path),
        "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert "shape" in err or "weight" in err


def test_run_store_missing_entries_exit_1(capsys, tiny_conf, tmp_path):
    # a store built without the decoder's skips lacks its merge convs
    other = parse_config(TINY + "skips=\n")
    weights_path = tmp_path / "w.mosw"
    save_weights(init_weights(build_model(other), 3), weights_path)
    out_path = tmp_path / "out.pgm"
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path), "--output", str(out_path),
    )
    assert code == 1
    assert "missing weight entries" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_run_non_utf8_weight_name_exit_1(capsys, tiny_conf, tmp_path):
    weights_path = tmp_path / "w.mosw"
    name = b"stem\xff"
    entry = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1) + bytes(4)
    weights_path.write_bytes(b"MOSW" + struct.pack("<II", 1, 1) + entry)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path),
        "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert "entry 0 name is not valid UTF-8 at byte 20" in err
    assert "Traceback" not in err


def test_run_classifier_store_for_other_config_exit_1(capsys, tiny_conf, tmp_path):
    other = parse_config(TINY.replace("num_classes=5", "num_classes=7"))
    weights_path = tmp_path / "w.mosw"
    save_weights(init_weights(build_model(other), 3), weights_path)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path), "--seed", "1",
        "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert "does not match node spec" in err
    assert "Traceback" not in err


def test_run_resolution_beyond_memory_exit_1(capsys, tmp_path):
    # the random input alone would need 96 PiB, beyond any address space
    path = tmp_path / "big.conf"
    path.write_text(TINY.replace("input_h=64\ninput_w=64", "input_h=67108864\ninput_w=67108864"))
    code, _, err = run_cli(
        capsys, "run", str(path), "--seed", "1", "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_run_unaddressable_resolution_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.conf"
    path.write_text(TINY.replace("input_h=64", "input_h=" + "1" + "0" * 30))
    code, _, err = run_cli(
        capsys, "run", str(path), "--seed", "1", "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 2
    assert err.startswith("error: ") and "addressable" in err
    assert "Traceback" not in err
    for verb in ("describe", "cost"):
        assert run_cli(capsys, verb, str(path))[0] == 0


def test_run_input_draw_beyond_addressable_bytes_exit_2(capsys, tmp_path):
    # 2**30 x 2**29 x 3 float32 values fit in the address space, the float64
    # values they are drawn as do not
    path = tmp_path / "huge.conf"
    path.write_text(TINY.replace("input_h=64\ninput_w=64", "input_h=1073741824\ninput_w=536870912"))
    code, _, err = run_cli(
        capsys, "run", str(path), "--seed", "1", "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 2
    assert err.startswith("error: ") and "addressable" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["m", "enc_filters", "dec_filters"])
def test_run_weight_entry_beyond_addressable_bytes_exit_2(capsys, tmp_path, key):
    path = tmp_path / "huge.conf"
    path.write_text(re.sub(rf"^{key}=\d+", f"{key}={10**20}", TINY, flags=re.M))
    assert run_cli(capsys, "cost", str(path))[0] == 0
    code, _, err = run_cli(
        capsys, "run", str(path), "--seed", "1", "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 2
    assert err.startswith("error: ") and "weight entry" in err and "addressable" in err
    assert "Traceback" not in err


def test_run_more_classes_than_pgm_stores_exit_2(capsys, tmp_path):
    path = tmp_path / "classes.conf"
    path.write_text(TINY.replace("num_classes=5", "num_classes=300"))
    out = tmp_path / "out.pgm"
    code, _, err = run_cli(capsys, "run", str(path), "--seed", "1", "--output", str(out))
    assert code == 2
    assert err.startswith("error: num_classes=300")
    assert not out.exists()
    for verb in ("describe", "cost"):
        assert run_cli(capsys, verb, str(path))[0] == 0


def test_run_duplicate_weight_entry_exit_1(capsys, tiny_conf, tmp_path):
    entry = struct.pack("<I", 2) + b"ab" + struct.pack("<II", 1, 1) + bytes(4)
    path = tmp_path / "dup.mosw"
    path.write_bytes(b"MOSW" + struct.pack("<II", 1, 2) + entry + entry)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(path), "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert err == "error: duplicate weight entry 'ab' at byte 36\n"


@pytest.mark.parametrize("flag", ["--weights", "--input"])
def test_run_header_size_too_large_to_format_exit_1(capsys, tiny_conf, tmp_path, flag):
    # a MOSW entry or PPM header whose declared byte count has over 4300 digits
    path = tmp_path / "huge"
    if flag == "--weights":
        path.write_bytes(b"MOSW" + struct.pack("<IIIsI500I", 1, 1, 1, b"a", 500, *[0xFFFFFFFF] * 500))
    else:
        path.write_bytes(b"P6\n" + b"9" * 4001 + b" " + b"9" * 4001 + b"\n255\n" + bytes(12))
    code, _, err = run_cli(
        capsys, "run", tiny_conf, flag, str(path), "--seed", "1", "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("role,value", [("kernel", np.inf), ("scale", 3e38)])
def test_run_non_finite_names_node_exit_1(capsys, tiny_conf, tmp_path, role, value):
    # an inf conv weight, or a BN scale that overflows float32, in the first
    # conv; the conv node carries its BN
    store = init_weights(build_model(parse_config(TINY)), 3)
    key = next(k for k in store.keys() if k.endswith("/" + role))
    store[key] = np.full(store[key].shape, value, dtype=np.float32)
    weights_path = tmp_path / "w.mosw"
    save_weights(store, weights_path)
    code, _, err = run_cli(
        capsys, "run", tiny_conf, "--weights", str(weights_path), "--seed", "1",
        "--output", str(tmp_path / "out.pgm"),
    )
    assert code == 1
    node = key.removesuffix("/kernel").removesuffix("/bn/scale")
    assert f"error: node {node} (Conv): " in err and "non-finite" in err
    assert "Traceback" not in err


def test_non_utf8_config_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"m=4\xff80\n")
    code, _, err = run_cli(capsys, "describe", str(path))
    assert code == 2
    assert "not valid UTF-8 at byte 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("with_weights", [False, True])
def test_run_negative_seed_exit_2(capsys, tiny_conf, tmp_path, with_weights):
    argv = ["run", tiny_conf, "--seed", "-1", "--output", str(tmp_path / "out.pgm")]
    if with_weights:
        weights_path = tmp_path / "w.mosw"
        save_weights(init_weights(build_model(parse_config(TINY)), 3), weights_path)
        argv += ["--weights", str(weights_path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "seed" in err
    assert "Traceback" not in err


def test_selftest_reports_known_gaps(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    # the known published-ordering gaps fail; everything else passes
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == len(selftest.KNOWN_GAPS)
    assert all("[known gap]" in l for l in fails)
    assert sum(1 for l in lines if l.startswith("PASS")) == len(lines) - len(fails)
