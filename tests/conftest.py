import os
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
    """Whether a wide streamed step runs as two row halves here: numpy's
    bundled OpenBLAS and a second usable core are needed."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return kernels._openblas() is not None and cores >= 2


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
def split_every_step(monkeypatch, split_halves):
    """Splits every streamed step of at least 2 output rows, however narrow,
    and returns ``split_halves``; skips where no step can split."""
    if not can_split():
        pytest.skip("steps run serially without numpy's bundled OpenBLAS and a second core")
    monkeypatch.setattr(kernels, "_SPLIT_ROW_ELEMS", 0)
    return split_halves
