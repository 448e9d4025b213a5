import sys
import threading
from pathlib import Path

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


@pytest.fixture
def split_halves(monkeypatch):
    """Records the name of the thread that runs each bottom half; one entry
    per split step."""
    halves, on_worker = [], kernels._exhaust_on_worker

    def recording(*args):
        halves.append(threading.current_thread().name)
        return on_worker(*args)

    monkeypatch.setattr(kernels, "_exhaust_on_worker", recording)
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
