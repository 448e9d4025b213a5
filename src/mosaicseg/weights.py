"""Named parameter bundles: deterministic initialization and the MOSW file format.

MOSW layout (all integers little-endian u32, payloads little-endian float32):

    magic "MOSW" | version | entry count
    per entry: name length | name bytes (utf-8) | rank (<= 32) | dims... | payload

Initialization draws conv kernels from a zero-mean normal with standard
deviation 1/sqrt(fan_in) using NumPy's counter-based Philox4x32-10 generator
keyed by the seed, walking parameterized nodes in graph order; affine scale
is 1, all biases are 0. The generator choice is part of the format contract:
the same seed reproduces the same store bit-for-bit.
"""

import math
import struct

import numpy as np

from .errors import ConfigError, FormatError
from .graph import Graph, weight_shapes

MAGIC = b"MOSW"
VERSION = 1
MAX_RANK = 32  # numpy 1 arrays have at most 32 dimensions, numpy 2 arrays 64


class WeightStore:
    """Mapping from '<node>/<role>' to a float32 array."""

    def __init__(self, entries=None):
        self.entries: dict[str, np.ndarray] = {}
        if entries:
            for name, value in entries.items():
                self[name] = value

    def __setitem__(self, name: str, value):
        self.entries[name] = np.ascontiguousarray(value, dtype=np.float32)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.entries[name]

    def __contains__(self, name) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        if not isinstance(other, WeightStore):
            return NotImplemented
        if self.entries.keys() != other.entries.keys():
            return False
        return all(np.array_equal(v, other.entries[k]) for k, v in self.entries.items())


def seeded_rng(seed: int) -> "np.random.Generator":  # numpy.random loads on first use
    """The Philox4x32-10 generator keyed by ``seed``, an integer in 0..2**64-1."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in 0..2**64-1, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def require_drawable(n_values: int, what: str) -> None:
    """Raise ConfigError when ``n_values`` float64 draws, which are rounded to
    float32 afterwards, exceed the addressable bytes."""
    if n_values * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} exceed the addressable bytes")


def init_weights(model_or_graph, seed: int) -> WeightStore:
    """Seeded Philox initialization for every parameterized node."""
    graph: Graph = getattr(model_or_graph, "graph", model_or_graph)
    rng = seeded_rng(seed)
    store = WeightStore()
    for name in graph.order:
        for role, shape in weight_shapes(graph.nodes[name]).items():
            require_drawable(math.prod(shape), f"the values of weight entry '{name}/{role}'")
            if role == "kernel":  # fan-in: every dimension but the output channels
                std = 1.0 / np.sqrt(math.prod(shape[:-1]))
                store[f"{name}/{role}"] = rng.normal(0.0, std, size=shape).astype(np.float32)
            elif role == "bn/scale":
                store[f"{name}/{role}"] = np.ones(shape, dtype=np.float32)
            else:  # bias
                store[f"{name}/{role}"] = np.zeros(shape, dtype=np.float32)
    return store


def save_weights(store: WeightStore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(store)))
        for name, value in store.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(value.astype("<f4").tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        # n is a declared size and may be too large to format
        if n > len(self.data) - self.pos:
            raise FormatError(
                f"truncated weight file: {what} at byte {self.pos} runs past the "
                f"{len(self.data) - self.pos} bytes left"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_weights(path) -> WeightStore:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise FormatError("bad magic at byte 0: not a MOSW weight file")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported MOSW version {version} at byte 4")
    count = r.u32("entry count")
    store = WeightStore()
    for i in range(count):
        name_len = r.u32(f"entry {i} name length")
        raw = r.take(name_len, f"entry {i} name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"entry {i} name is not valid UTF-8 at byte {r.pos - name_len + exc.start}"
            ) from None
        if name in store:
            raise FormatError(f"duplicate weight entry {name!r} at byte {r.pos}")
        rank = r.u32(f"entry {i} rank")
        if rank > MAX_RANK:
            raise FormatError(f"entry {name!r}: rank {rank} exceeds {MAX_RANK} at byte {r.pos - 4}")
        dims = tuple(r.u32(f"entry {i} dim") for _ in range(rank))
        n_values = 1
        for d in dims:
            if d < 1:
                raise FormatError(f"entry {name!r}: zero dimension at byte {r.pos}")
            n_values *= d
        payload = r.take(4 * n_values, f"entry {i} payload")
        store.entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if r.pos != len(data):
        raise FormatError(f"trailing garbage at byte {r.pos}")
    return store
