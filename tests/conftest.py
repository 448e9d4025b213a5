import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mosaicseg import kernels

sys.path.insert(0, str(Path(__file__).parent))  # make tests/oracles.py importable


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def can_split() -> bool:
    """Whether a streamed step of 2 output rows or more runs as two row
    halves here, by the kernels' own rule."""
    return kernels._host_split_blas() is not None


class Half(NamedTuple):
    """A bottom half: the function that ran it and the name of its thread."""
    run: object
    thread: str

    @property
    def conv(self) -> bool:
        """Whether it is the bottom half of a conv step."""
        return self.run is kernels._exhaust


@pytest.fixture
def split_halves(monkeypatch):
    """Records a ``Half`` for each bottom half that a kernel runs on the
    worker, whatever the kernel: one entry per split call."""
    halves, on_worker = [], kernels._on_worker

    def recording(run, half, err):
        halves.append(Half(run, threading.current_thread().name))
        return on_worker(run, half, err)

    monkeypatch.setattr(kernels, "_on_worker", recording)
    return halves


@pytest.fixture
def split_every_step(split_halves):
    """Returns ``split_halves``; skips where steps run serially."""
    if not can_split():
        pytest.skip("steps run serially without numpy's bundled OpenBLAS and a second core")
    return split_halves


@pytest.fixture
def serial(monkeypatch, split_halves):
    """Runs every step serially, as on a host where no step can split, and
    returns ``split_halves``, which stays empty."""
    monkeypatch.setattr(kernels, "_host_split_blas", lambda: None)
    return split_halves
