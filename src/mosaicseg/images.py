"""Binary PPM (P6) input images and PGM (P5) label maps.

Input pixels are scaled to [-1, 1] via x/127.5 - 1, the MobileNet-family
convention. Label maps are stored as raw bytes, one per pixel, so at most
256 classes round-trip.
"""

import numpy as np

from .errors import FormatError, ShapeError


def _read_header_tokens(data: bytes, n_tokens: int):
    """Return (tokens, offset past the single whitespace after the last one)."""
    tokens = []
    pos = 0
    while len(tokens) < n_tokens:
        if pos >= len(data):
            raise FormatError(f"truncated header at byte {pos}")
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
                pos += 1
            tokens.append(data[start:pos])
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise FormatError(f"missing whitespace after header at byte {pos}")
    return tokens, pos + 1


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """The (h, w, channels) uint8 pixels of an 8-bit binary PPM or PGM file."""
    kind = "PPM" if channels == 3 else "PGM"
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != magic:
        raise FormatError(f"unsupported magic {tokens[0]!r}, expected {magic.decode()}")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"non-numeric {kind} header fields") from None
    if w < 1 or h < 1:
        raise FormatError(f"bad {kind} dimensions {w}x{h}")
    if maxval != 255:
        raise FormatError(f"unsupported bit depth: maxval {maxval}, expected 255")
    need = h * w * channels
    payload = data[offset:offset + need]
    if len(payload) != need:
        raise FormatError(f"truncated {kind} payload: got {len(payload)} of {need} bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)


def read_image_ppm(path) -> np.ndarray:
    """Read an 8-bit binary PPM into a (h, w, 3) float32 map in [-1, 1]."""
    pixels = _read_netpbm(path, b"P6", 3)
    return (pixels.astype(np.float64) / 127.5 - 1.0).astype(np.float32)


def write_image_ppm(pixels: np.ndarray, path) -> None:
    """Write a (h, w, 3) uint8 array as binary PPM."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ShapeError("write_image_ppm expects a (h, w, 3) uint8 array")
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_labelmap_pgm(labels: np.ndarray, path) -> None:
    """Write a (h, w) integer label map as binary PGM; labels must be < 256."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"label map must be rank-2, got rank {labels.ndim}")
    if labels.min() < 0 or labels.max() > 255:
        raise FormatError(
            f"labels outside [0, 255] cannot be stored in PGM "
            f"(got range {labels.min()}..{labels.max()})"
        )
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(labels.astype(np.uint8).tobytes())


def read_labelmap_pgm(path) -> np.ndarray:
    """Read a binary PGM back into a (h, w) int32 label map."""
    return _read_netpbm(path, b"P5", 1)[:, :, 0].astype(np.int32)
