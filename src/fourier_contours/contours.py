"""Contour records, and the block cutter the batch kernels share.

A Contour is a closed polygon and a ResampledContour its equidistant samples,
both in image pixel coordinates (x rightward, y downward; see geometry).
_cuts splits a batch of items into blocks of about _BATCH_ELEMENTS elements,
so the batch kernels of geometry, fourier and losses, and decode's NMS bound,
hold working memory that does not grow with the batch.

This module holds only what the Fourier transforms need besides numpy, so
`fctool reconstruct` and `fctool loss` load neither the polygon kernels nor
the IoU lattice: geometry binds every name here that it exports.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidPolygon
from .records import _Frozen


class Point2(NamedTuple):
    x: float
    y: float


def _vertex_array(vertices) -> np.ndarray:
    arr = np.array(vertices, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidPolygon(f"expected an (n, 2) vertex array, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise InvalidPolygon(f"need at least 3 vertices, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidPolygon("coordinates must be finite")
    arr.setflags(write=False)
    return arr


class Contour(_Frozen):
    """Closed polygon; the edge from the last vertex back to the first is implicit.

    Vertex count (>= 3) and finiteness are checked at construction.
    Zero-perimeter contours are representable, because a constant-term
    reconstruction legitimately collapses to one repeated point; operations
    that need arc length raise ZeroPerimeter instead of forbidding them here.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: np.ndarray) -> None:
        super().__init__(_vertex_array(vertices))

    def flat(self) -> list[float]:
        return self.vertices.ravel().tolist()

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y)."""
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


class ResampledContour(_Frozen):
    """Equidistant samples of a contour, visually clockwise, starting at the
    canonical start point.  points[j] is the sample at parameter t = j / n."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray) -> None:
        super().__init__(_vertex_array(points))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


# Elements the temporaries of one block of a batch routine hold.
# geometry._resample_many and geometry._shrink_many take whole polygons in
# blocks, a block ending where the running size crosses a multiple of this,
# so their working memory does not grow with the number of polygons;
# fourier._coefficient_rows takes harmonics, and fourier.evaluate_series,
# fourier._build_basis and losses.regression_loss take rows of their series
# or basis, the same way.
# Only this module binds it: _cuts reads it here on every call.
_BATCH_ELEMENTS = 1 << 16


def _cuts(sizes, budget: int | None = None) -> list[tuple[int, int]]:
    """(first, stop) of consecutive blocks of items, a new block starting
    where the running total of sizes crosses a multiple of budget
    (_BATCH_ELEMENTS by default), so a block holds at most budget plus its
    last item's size."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if not sizes.size:
        return []
    budget = _BATCH_ELEMENTS if budget is None else budget
    if sizes.sum() - sizes[-1] < budget:  # one block, found without the running sums
        return [(0, sizes.size)]
    block = (np.cumsum(sizes) - sizes) // budget
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [sizes.size])).tolist()
    return list(zip(cuts[:-1], cuts[1:]))
