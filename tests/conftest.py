import numpy as np
import pytest

from bsratio.ntheory import build_field


@pytest.fixture(scope="session")
def field():
    """Memoized PrimeField construction shared across the suite."""
    cache = {}

    def get(q: int):
        if q not in cache:
            cache[q] = build_field(q)
        return cache[q]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20240831)
