import numpy as np
import pytest

from bvode import backend


@pytest.fixture(scope="session", autouse=True)
def warm_backend():
    # compile the serial kernels once when numba is installed
    backend.warmup()


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
