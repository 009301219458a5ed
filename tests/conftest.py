"""Fixtures that count and fault the pieces pvlab hands to its worker thread."""

import pytest

from pvlab import _blas, spectral

from placing import on_the_worker


@pytest.fixture
def worker_calls(monkeypatch):
    """The number of pieces handed to the worker while the test runs."""
    calls = []
    real = _blas._worker_pool

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(_blas, "_worker_pool", counted)
    return calls


@pytest.fixture
def worker_fault(monkeypatch):
    """A list that, while it holds a function `fault`, makes the statistic's
    row weights w fault(w) in the blocks that the worker sums."""
    fault, real = [], spectral._row_weights

    def weights(rows, N):
        w = real(rows, N)
        return fault[0](w) if fault and on_the_worker() else w

    monkeypatch.setattr(spectral, "_row_weights", weights)
    return fault
