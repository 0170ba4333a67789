"""Fixtures that spy on the transform engine behind the product engine.

The spies wrap `spectral._samples` (inverse, "irfft2") and
`spectral._lattice_half` (forward, "rfft2"), each of which makes the 2-D
real transforms of one array or of a stack of them in one call; both
fixtures count each 2-D transform in it, the product of the array's leading
dimensions.
"""

import collections
import math

import numpy as np
import pytest

from gsqglab import spectral


def _stack_depth(x) -> int:
    """Number of 2-D transforms in one call on x."""
    return math.prod(np.shape(x)[:-2])


@pytest.fixture
def product_sizes(monkeypatch):
    """Record the grid size of every forward product transform."""
    sizes = []
    lattice_half = spectral._lattice_half

    def spy(phys, *args, **kwargs):
        sizes.extend([np.shape(phys)[-2]] * _stack_depth(phys))
        return lattice_half(phys, *args, **kwargs)

    monkeypatch.setattr(spectral, "_lattice_half", spy)
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

    def counted(name, fn):
        def spy(x, *args, **kwargs):
            counts[name] += _stack_depth(x)
            counts.calls[name] += 1
            return fn(x, *args, **kwargs)

        return spy

    for name, attr in (("irfft2", "_samples"), ("rfft2", "_lattice_half")):
        monkeypatch.setattr(spectral, attr, counted(name, getattr(spectral, attr)))
    return counts
