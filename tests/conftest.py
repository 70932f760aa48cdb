import time
from collections import Counter

import pytest

import lgmirror.milnor as milnor


def pytest_configure(config):
    config._suite_start = time.perf_counter()


@pytest.fixture
def block_ring_calls(monkeypatch):
    """Counts the calls of `milnor._block_ring`, one Buchberger run per
    connected block, by (variables, block)."""
    original = milnor._block_ring
    calls = Counter()

    def counting(poly, block, weights, order):
        calls[poly.variables, block] += 1
        return original(poly, block, weights, order)

    monkeypatch.setattr(milnor, "_block_ring", counting)
    return calls
