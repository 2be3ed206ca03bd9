import numpy as np
import pytest
from hypothesis import settings

from omnisim import build_layout, load_prototype

# Reproducible property tests: the same examples on every run, and no
# per-example deadline (timings on a shared 2-core machine are noisy).
settings.register_profile("omnisim", derandomize=True, deadline=None)
settings.load_profile("omnisim")


@pytest.fixture(scope="session")
def prototype():
    return load_prototype()


@pytest.fixture(scope="session")
def prototype_layout(prototype):
    return build_layout(prototype.panel)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
