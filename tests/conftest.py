import numpy as np
import pytest
from hypothesis import settings

from omnisim import beamforming, build_layout, load_prototype

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


@pytest.fixture
def zf_rows(monkeypatch):
    """The row count of every ``_zero_forcing`` call the optimizers make."""
    rows = []
    zero_forcing = beamforming._zero_forcing

    def counted(H, *powers):
        rows.append(len(H))
        return zero_forcing(H, *powers)

    monkeypatch.setattr(beamforming, "_zero_forcing", counted)
    return rows
