import sys
from pathlib import Path

# medlm pins BLAS to one thread when imported; that only takes effect before
# numpy's first import, and this is the first module of the test session to
# import either.
import medlm  # noqa: F401
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # found through the path entry above
from medlm import model as M


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_config():
    return M.ModelConfig(vocab_size=13, d_model=16, n_layers=2, n_heads=2,
                         max_seq_len=24)


@pytest.fixture
def tiny_params(tiny_config):
    return M.init_params(tiny_config, np.random.default_rng(42))


@pytest.fixture
def tiny_params64(tiny_params):
    """tiny_params in float64, for tests with float64 tolerances."""
    return oracles.float64_table(tiny_params)
