"""Fixtures that spy on the real transforms behind the product engine.

A transform call may take a stack of arrays; both fixtures count each 2-D
transform in it, the product of the array's leading dimensions.
"""

import collections
import math

import numpy as np
import pytest
import scipy.fft


def _stack_depth(x) -> int:
    """Number of 2-D transforms in one call on x."""
    return math.prod(np.shape(x)[:-2])


@pytest.fixture
def product_sizes(monkeypatch):
    """Record the grid size of every forward product transform."""
    sizes = []
    rfft2 = scipy.fft.rfft2

    def spy(x, *args, **kwargs):
        sizes.extend([np.shape(x)[-2]] * _stack_depth(x))
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft2", spy)
    return sizes


class TransformCounts(collections.Counter):
    """2-D inverse ("irfft2") and forward ("rfft2") transforms; `calls`
    counts the calls that made them."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def clear(self):
        super().clear()
        self.calls.clear()


@pytest.fixture
def transforms(monkeypatch):
    """Count the inverse ("irfft2") and forward ("rfft2") real transforms."""
    counts = TransformCounts()

    def counted(name):
        fn = getattr(scipy.fft, name)

        def spy(x, *args, **kwargs):
            counts[name] += _stack_depth(x)
            counts.calls[name] += 1
            return fn(x, *args, **kwargs)

        return spy

    for name in ("irfft2", "rfft2"):
        monkeypatch.setattr(scipy.fft, name, counted(name))
    return counts
