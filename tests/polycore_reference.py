"""Reference for ``igusa.polycore.product_chunks``: the same points, order and
chunk lengths from ``np.unravel_index``.

This is the chunk generator the tiled one replaced, kept unchanged apart
from this docstring and from reading ``polycore.GRID_CHUNK`` at call time,
so that tests can patch the chunk length and require equal chunks.
"""

from __future__ import annotations

import math

import numpy as np

from igusa import polycore


def product_chunks(axes):
    """Yield coordinate arrays covering the product of ``axes`` (one array of
    values per coordinate), GRID_CHUNK points at a time, coordinate 0
    fastest."""
    axes = [np.asarray(axis, dtype=np.int64) for axis in axes]
    shape = tuple(len(axis) for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, polycore.GRID_CHUNK):
        idx = np.arange(start, min(start + polycore.GRID_CHUNK, total))
        yield [axis[d] for axis, d in zip(axes, np.unravel_index(idx, shape, order="F"))]
