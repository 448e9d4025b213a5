"""Seeded byte-mutation fuzz of the files the CLI reads: MOSW weights, PPM
images, PGM label maps and configs.

Each mutation sets, deletes or inserts one to three bytes. Whatever the
readers make of the result, a failure must be a ``MosaicError`` or an
``OSError``, which the CLI maps to exit 1 or 2, never another exception.
"""

import numpy as np
import pytest

from mosaicseg.cli import main
from mosaicseg.errors import MosaicError
from mosaicseg.images import (
    read_image_ppm, read_labelmap_pgm, write_image_ppm, write_labelmap_pgm,
)
from mosaicseg.weights import load_weights, save_weights

TINY = "m=32\nnum_classes=5\ninput_h=64\ninput_w=64\nenc_filters=8\ndec_filters=8\npyramid_bins=2,4\n"


def mutate(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        op = rng.integers(3)
        if op == 0:
            out[rng.integers(len(out))] = rng.integers(256)
        elif op == 1:
            del out[rng.integers(len(out))]
        else:
            out.insert(rng.integers(len(out) + 1), rng.integers(256))
    return bytes(out)


def mosw_file(path, rng):
    # many small entries before one large one, all of nonzero values, so a
    # shifted rank or dim field reads on through thousands of nonzero dims
    entries = {f"n{i}/scale": rng.standard_normal(4).astype(np.float32) for i in range(16)}
    entries["c/kernel"] = rng.standard_normal((3, 3, 8, 16)).astype(np.float32)
    save_weights(entries, path)


def ppm_file(path, rng):
    write_image_ppm(rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8), path)


def pgm_file(path, rng):
    write_labelmap_pgm(rng.integers(0, 256, size=(4, 7)), path)


@pytest.mark.parametrize("make,read,n", [
    (mosw_file, load_weights, 1000),
    (ppm_file, read_image_ppm, 300),
    (pgm_file, read_labelmap_pgm, 300),
])
def test_mutated_file_fails_only_with_mosaic_or_os_error(tmp_path, make, read, n):
    rng = np.random.default_rng(0)
    path = tmp_path / "file"
    make(path, rng)
    data = path.read_bytes()
    for _ in range(n):
        path.write_bytes(mutate(data, rng))
        try:
            read(path)
        except (MosaicError, OSError):
            pass


def test_mutated_config_exits_0_1_or_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "tiny.conf"
    data = TINY.encode()
    for _ in range(150):
        path.write_bytes(mutate(data, rng))
        assert main(["cost", str(path)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
