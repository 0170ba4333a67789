"""Fixtures that spy on the real transforms behind the product engine."""

import collections

import numpy as np
import pytest
import scipy.fft


@pytest.fixture
def product_sizes(monkeypatch):
    """Record the grid size of every forward product transform."""
    sizes = []
    rfft2 = scipy.fft.rfft2

    def spy(x, *args, **kwargs):
        sizes.append(np.shape(x)[0])
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft2", spy)
    return sizes


@pytest.fixture
def transforms(monkeypatch):
    """Count the inverse ("irfft2") and forward ("rfft2") real transforms."""
    counts = collections.Counter()

    def counted(name):
        fn = getattr(scipy.fft, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return spy

    for name in ("irfft2", "rfft2"):
        monkeypatch.setattr(scipy.fft, name, counted(name))
    return counts
