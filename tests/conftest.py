"""Shared fixtures for the test suite."""

import random

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/golden.json from the current code "
        "instead of comparing against it",
    )


@pytest.fixture
def rng():
    """Deterministic RNG for tests that sample."""
    return random.Random(12345)


@pytest.fixture
def small_config():
    """A small LZW configuration that exercises every bound quickly."""
    return LZWConfig(char_bits=3, dict_size=32, entry_bits=12)


@pytest.fixture
def paper_config():
    """The paper's headline configuration."""
    return LZWConfig(char_bits=7, dict_size=1024, entry_bits=63)


@pytest.fixture
def sparse_stream(rng):
    """A 2000-bit stream at 90% X, the regime the paper targets."""
    return TernaryVector.random(2000, x_density=0.9, rng=rng)


@pytest.fixture
def dense_stream(rng):
    """A fully specified 600-bit stream."""
    return TernaryVector.random(600, x_density=0.0, rng=rng)


@pytest.fixture
def pools_built(monkeypatch):
    """The ``max_workers`` of every pool the batch supervisor builds."""
    from repro.parallel import supervisor

    built = []

    class CountingPool(supervisor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(supervisor, "ProcessPoolExecutor", CountingPool)
    return built
