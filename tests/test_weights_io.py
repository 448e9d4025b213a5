import hashlib
import struct

import numpy as np
import pytest

from mosaicseg.arch import ModelConfig, ade20k_config, build_model, cityscapes_config
from mosaicseg.errors import ConfigError, FormatError, ShapeError
from mosaicseg.graph import check_weights
from mosaicseg.images import (
    read_image_ppm, read_labelmap_pgm, write_image_ppm, write_labelmap_pgm,
)
from mosaicseg.weights import init_weights, load_weights, save_weights


def same_store(a, b) -> bool:
    """Whether two stores hold the same keys, in the same order, and the same
    float32 bits under each; every value must be a C-contiguous float32 array."""
    for value in (*a.values(), *b.values()):
        assert value.dtype == np.float32 and value.flags.c_contiguous
    return list(a) == list(b) and all(np.array_equal(a[k].view(np.uint32), b[k].view(np.uint32)) for k in a)


def small_model():
    return build_model(ModelConfig(
        m=32, num_classes=4, input_h=64, input_w=64,
        enc_filters=8, dec_filters=8, pyramid_bins=(2, 4),
    ))


def test_init_same_seed_identical():
    model = small_model()
    assert same_store(init_weights(model, 42), init_weights(model, 42))


def test_init_different_seeds_differ():
    model = small_model()
    a, b = init_weights(model, 1), init_weights(model, 2)
    assert not same_store(a, b)
    assert any(not np.array_equal(a[k], b[k]) for k in a.keys())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_init_rejects_seed_outside_uint64(seed):
    with pytest.raises(ConfigError, match="seed"):
        init_weights(small_model(), seed)


def test_init_covers_model_exactly():
    model = small_model()
    check_weights(model.graph, init_weights(model, 9))


def test_init_kernel_variance_tracks_fan_in():
    model = build_model(ModelConfig())  # full-size model has big kernel entries
    store = init_weights(model, 123)
    checked = 0
    for name, spec in model.graph.nodes.items():
        if spec.kind != "Conv":
            continue
        conv = spec.params["conv"]
        entry = store[f"{name}/kernel"]
        if entry.size < 10_000:
            continue
        fan_in = conv.kernel_h * conv.kernel_w * conv.in_c // conv.groups
        var = float(np.var(entry.astype(np.float64)))
        assert abs(var - 1.0 / fan_in) <= 0.2 / fan_in, name
        assert abs(float(entry.mean())) < 0.05 / np.sqrt(fan_in) * 5
        checked += 1
    assert checked >= 10


def test_init_affine_identity():
    model = small_model()
    store = init_weights(model, 3)
    scales = [k for k in store.keys() if k.endswith("/scale")]
    assert scales
    for key in scales:
        assert np.array_equal(store[key], np.ones_like(store[key]))
        bias_key = key.replace("/scale", "/bias")
        assert np.array_equal(store[bias_key], np.zeros_like(store[bias_key]))


@pytest.mark.parametrize("config,sha256", [
    (cityscapes_config, "b649b8190b4c06475d5527f333f6ff7b1067d9b89a7dd2eee57f85067605edad"),
    (ade20k_config, "dec2e7f2fbb7a013815651566d5329ca24a7d977574e55074a1bc1271fa267f3"),
])
def test_mosw_bytes_of_the_pinned_configs(tmp_path, config, sha256):
    # entry names, store order, Philox draws and layout, recorded at commit
    # c6758e5, whose graphs held each batch norm as a node of its own
    path = tmp_path / "w.mosw"
    save_weights(init_weights(build_model(config()), 1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_save_load_round_trip(tmp_path):
    model = small_model()
    store = init_weights(model, 77)
    path = tmp_path / "model.mosw"
    save_weights(store, path)
    assert same_store(load_weights(path), store)


def test_save_writes_float64_values_as_float32(tmp_path, rng):
    value = rng.standard_normal((3, 2))
    save_weights({"a/kernel": value}, tmp_path / "f64.mosw")
    save_weights({"a/kernel": value.astype(np.float32)}, tmp_path / "f32.mosw")
    assert (tmp_path / "f64.mosw").read_bytes() == (tmp_path / "f32.mosw").read_bytes()


def test_round_trip_random_stores(tmp_path, rng):
    for trial in range(100):
        store = {}
        for i in range(int(rng.integers(1, 6))):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            store[f"entry{trial}/{i}"] = rng.standard_normal(dims).astype(np.float32)
        path = tmp_path / f"s{trial}.mosw"
        save_weights(store, path)
        assert same_store(load_weights(path), store)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mosw"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_weights(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.mosw"
    path.write_bytes(b"MOSW" + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(FormatError, match="version"):
        load_weights(path)


def test_load_truncated_reports_offset(tmp_path):
    model = small_model()
    path = tmp_path / "model.mosw"
    save_weights(init_weights(model, 5), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError, match="byte"):
        load_weights(path)


@pytest.mark.parametrize("rank,dim,match", [
    (500, 0xFFFFFFFF, "rank 500 exceeds 32"),  # its payload size has over 4300 digits
    (65, 1, "rank 65 exceeds 32"),  # beyond the dimensions numpy supports
    (32, 0xFFFFFFFF, "truncated weight file: entry 0 payload"),
])
def test_load_rejects_huge_declared_entry(tmp_path, rank, dim, match):
    path = tmp_path / "huge.mosw"
    path.write_bytes(b"MOSW" + struct.pack(f"<IIIsI{rank}I", 1, 1, 1, b"a", rank, *[dim] * rank)
                     + bytes(4))
    with pytest.raises(FormatError, match=match):
        load_weights(path)


def test_load_duplicate_entries_rejected(tmp_path):
    import struct
    path = tmp_path / "dup.mosw"
    entry = b""
    name = b"twin"
    payload = np.ones(2, dtype="<f4").tobytes()
    entry += struct.pack("<I", len(name)) + name
    entry += struct.pack("<I", 1) + struct.pack("<I", 2) + payload
    path.write_bytes(b"MOSW" + struct.pack("<II", 1, 2) + entry + entry)
    with pytest.raises(FormatError, match="duplicate"):
        load_weights(path)


def test_load_rejects_non_utf8_name(tmp_path):
    import struct
    path = tmp_path / "latin1.mosw"
    payload = np.ones(2, dtype="<f4").tobytes()
    entries = b""
    for name in (b"ok", b"bad\xff"):
        entries += struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2) + payload
    path.write_bytes(b"MOSW" + struct.pack("<II", 1, 2) + entries)
    # header 12 bytes, entry 0 is 22 bytes, entry 1's name starts at 38
    with pytest.raises(FormatError, match="entry 1 name is not valid UTF-8 at byte 41"):
        load_weights(path)


def test_validate_flags_missing_and_orphans():
    model = small_model()
    store = init_weights(model, 1)
    key = next(iter(store.keys()))
    del store[key]
    with pytest.raises(ShapeError, match="missing"):
        check_weights(model.graph, store)
    store = init_weights(model, 1)
    store["nobody/kernel"] = np.zeros((1, 1, 1, 1), np.float32)
    with pytest.raises(ShapeError, match="orphan"):
        check_weights(model.graph, store)


def test_validate_flags_shape_mismatch():
    model = small_model()
    store = init_weights(model, 1)
    key = next(k for k in store.keys() if k.endswith("/kernel"))
    store[key] = np.zeros((1, 1, 1, 1), np.float32)
    with pytest.raises(ShapeError, match=key):
        check_weights(model.graph, store)


# --- PPM / PGM ------------------------------------------------------------------


def test_ppm_black_and_white(tmp_path):
    path = tmp_path / "img.ppm"
    write_image_ppm(np.zeros((2, 2, 3), dtype=np.uint8), path)
    assert np.array_equal(read_image_ppm(path), np.full((2, 2, 3), -1.0, dtype=np.float32))
    write_image_ppm(np.full((2, 2, 3), 255, dtype=np.uint8), path)
    assert np.array_equal(read_image_ppm(path), np.full((2, 2, 3), 1.0, dtype=np.float32))


def test_ppm_scaling_invertible_on_byte_lattice(tmp_path, rng):
    path = tmp_path / "img.ppm"
    pixels = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    write_image_ppm(pixels, path)
    scaled = read_image_ppm(path)
    recovered = np.rint((scaled.astype(np.float64) + 1.0) * 127.5).astype(np.int64)
    assert np.array_equal(recovered, pixels.astype(np.int64))


def test_ppm_scaling_bits_match_float64_formula(tmp_path):
    path = tmp_path / "img.ppm"
    pixels = np.arange(256 * 3, dtype=np.uint16).astype(np.uint8).reshape(16, 16, 3)
    write_image_ppm(pixels, path)
    want = (pixels.astype(np.float64) / 127.5 - 1.0).astype(np.float32)
    got = read_image_ppm(path)
    assert got.dtype == np.float32 and np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_ppm_with_comment_header(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6 # magic\n# a comment line\n2 1\n255\n" + bytes(6))
    assert read_image_ppm(path).shape == (1, 2, 3)


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="P6"):
        read_image_ppm(path)


def test_ppm_rejects_16bit(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError, match="maxval"):
        read_image_ppm(path)


def test_ppm_rejects_truncation(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError, match="truncated"):
        read_image_ppm(path)


def test_pgm_label_round_trip(tmp_path, rng):
    path = tmp_path / "labels.pgm"
    labels = rng.integers(0, 256, size=(9, 13)).astype(np.int32)
    write_labelmap_pgm(labels, path)
    assert np.array_equal(read_labelmap_pgm(path), labels)


def test_pgm_rejects_labels_over_255(tmp_path):
    with pytest.raises(FormatError, match="255"):
        write_labelmap_pgm(np.array([[0, 256]]), tmp_path / "labels.pgm")


@pytest.mark.parametrize("dims", [b"0 5", b"-1 0"])
def test_pgm_rejects_bad_dimensions(tmp_path, dims):
    path = tmp_path / "labels.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n")
    with pytest.raises(FormatError, match="bad PGM dimensions"):
        read_labelmap_pgm(path)


@pytest.mark.parametrize("magic,read", [(b"P6", read_image_ppm), (b"P5", read_labelmap_pgm)])
def test_netpbm_rejects_dimensions_too_large_to_format(tmp_path, magic, read):
    # their product has over 4300 digits
    path = tmp_path / "huge.pnm"
    digits = b"9" * 4001
    path.write_bytes(magic + b"\n" + digits + b" " + digits + b"\n255\n" + bytes(12))
    with pytest.raises(FormatError, match="truncated"):
        read(path)


@pytest.mark.parametrize("magic,read", [(b"P6", read_image_ppm), (b"P5", read_labelmap_pgm)])
@pytest.mark.parametrize("header,extra", [
    (b"2 1\n255", 7), (b"1_0 1\n255", 0), (b"+2 1\n255", 0), (b"2 1\n2_55", 0),
])
def test_netpbm_rejects_trailing_bytes_and_non_decimal_fields(tmp_path, magic, read, header, extra):
    # the payload holds exactly the declared 2x1 pixels, or 10x1 for "1_0"
    channels = 3 if magic == b"P6" else 1
    width = 10 if header.startswith(b"1_0") else 2
    path = tmp_path / "image.pnm"
    head = magic + b"\n" + header + b"\n"
    path.write_bytes(head + bytes(range(1, 1 + width * channels + extra)))
    end = len(head) + width * channels
    with pytest.raises(FormatError, match=f"trailing garbage at byte {end}$" if extra else "non-numeric"):
        read(path)
