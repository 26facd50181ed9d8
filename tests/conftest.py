"""Shared fixtures and test helpers.

The scalar and one-shot references here are oracles that only tests call:
the library answers the same questions for whole batches at once, in
blocks."""

import numpy as np
import pytest

from fourier_contours import Contour, DegenerateContour, contours, geometry
from fourier_contours.synth import (
    compactness_corpus,
    ellipse_polygon,
    rect14,
    regular_polygon,
    ribbon,
    roundtrip_corpus,
    subset_instances,
)


def star_shaped(rng, m=None, center=(200.0, 200.0), rmin=20.0, rmax=120.0):
    """Random simple polygon: sorted angles around a center, random radii."""
    if m is None:
        m = int(rng.integers(3, 24))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
    # coincident angles would make duplicate or crossing edges
    while np.any(np.diff(angles) < 1e-3):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
    radii = rng.uniform(rmin, rmax, size=m)
    return Contour(
        np.stack(
            [center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)],
            axis=1,
        )
    )


def point_in_polygon(p, c) -> bool:
    """Even-odd membership of point p in contour c, one edge at a time;
    boundary points resolve by the half-open edge rule (a crossing counts
    only when it lies strictly to the right of the point)."""
    px, py = float(p[0]), float(p[1])
    v = c.vertices
    inside = False
    for (ax, ay), (bx, by) in zip(v, np.roll(v, -1, axis=0)):
        if (ay <= py) != (by <= py):
            t = (py - ay) / (by - ay)
            if ax + t * (bx - ax) > px:
                inside = not inside
    return inside


def vertex_removal_delta(c, i: int) -> float:
    """Relative area change |A_before - A_after| / A_before from deleting
    vertex i of contour c, by its definition: the polygon without vertex i."""
    v = c.vertices
    m = v.shape[0]
    if m < 4:
        raise ValueError(f"need at least 4 vertices to remove one, got {m}")
    if not 0 <= i < m:
        raise ValueError(f"vertex index {i} out of range for {m} vertices")
    before = abs(geometry._signed_area(v))
    if before == 0.0:
        raise DegenerateContour("zero-area contour has no usable removal delta")
    return abs(before - abs(geometry._signed_area(np.delete(v, i, axis=0)))) / before


def is_simple(v) -> bool:
    """True when no two non-adjacent edges of the closed polygon v meet:
    geometry._simple_many with a batch of one."""
    return bool(geometry._simple_many(*geometry._ragged([v]))[0])


def dedupe(v):
    """The vertices of v that differ from the one before them, as the batch
    kernels drop repeated vertices."""
    _, sizes, start, nxt = geometry._ragged([v])
    return v[geometry._distinct(v, sizes, start, geometry._previous(nxt))]


def inline_basis(n, degree, sign):
    """The DFT basis as one array expression, no row or harmonic blocks: the
    forward (2K + 1, n) array for sign -1, the inverse (n, 2K + 1) array for
    sign +1, and all n residues for degree None."""
    t = np.arange(n) / n
    if degree is None:
        return np.exp(-2j * np.pi * np.outer(np.arange(n), t))
    ks = np.arange(-degree, degree + 1)
    if sign < 0:
        return np.exp(-2j * np.pi * np.outer(ks, t))
    return np.exp(2j * np.pi * np.outer(t, ks))


def uncached_series(coeffs, n_points):
    """evaluate_series as one (..., n_points, 2K + 1) product, no row blocks."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    return (arr[..., None, :] * inline_basis(n_points, (arr.shape[-1] - 1) // 2, 1)).sum(axis=-1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


def rows_to_block_end(row_size, blocks=3):
    """The row count that exactly fills the first `blocks` blocks contours._cuts
    makes of equal rows of row_size elements: one row more starts a new block."""
    return -(-blocks * contours._BATCH_ELEMENTS // row_size)


def _edge_array(c) -> np.ndarray:
    v = np.asarray(getattr(c, "vertices", c), dtype=np.float64)
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)  # (m, start / end, x / y)


def _intervals(edges, ys) -> np.ndarray:
    """(len(ys), k, 2) x intervals inside the edges' even-odd fill along each
    height in ys, none of them a vertex height; NaN pads the shorter rows."""
    (x0, y0), (x1, y1) = edges[:, 0].T, edges[:, 1].T
    on = (np.minimum(y0, y1) < ys[:, None]) & (ys[:, None] < np.maximum(y0, y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(on, x0 + (ys[:, None] - y0) * (x1 - x0) / (y1 - y0), np.nan)
    x = np.sort(np.pad(x, ((0, 0), (0, len(edges) % 2)), constant_values=np.nan), axis=1)
    return x.reshape(len(ys), -1, 2)


def exact_intersection_area(a, b) -> float:
    """Area of the even-odd intersection of two polygons, exact up to
    rounding.  Horizontal slabs cut at every vertex y and every y where two
    edges of either polygon cross hold no vertex and no crossing, so inside
    one the intersection's width is linear in y: a slab's area is its height
    times the width at mid-slab."""
    ea, eb = _edge_array(a), _edge_array(b)
    both = np.concatenate([ea, eb])
    p, d = both[:, 0], both[:, 1] - both[:, 0]

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    den, w = cross(d[:, None], d[None]), p[None] - p[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t, u = cross(w, d[None]) / den, cross(w, d[:, None]) / den
        at = p[:, None, 1] + t * d[:, None, 1]
    hit = (den != 0) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    ys = np.unique(np.concatenate([p[:, 1], at[hit]]))
    mid = (ys[:-1] + ys[1:]) / 2
    ia, ib = _intervals(ea, mid)[:, :, None], _intervals(eb, mid)[:, None]
    width = np.fmax(np.minimum(ia[..., 1], ib[..., 1]) - np.maximum(ia[..., 0], ib[..., 0]), 0.0).sum(axis=(1, 2))
    return float((np.diff(ys) * width).sum())


# polygon_iou at supersample s lies within LATTICE_IOU_SLACK * (P_a + P_b) /
# (s * |A u B|) of exact_iou, for perimeters P and the exact union area: the
# samples that can flip lie along the two outlines
LATTICE_IOU_SLACK = 0.5


def lattice_iou_bound(a, b, supersample: int) -> float:
    union = exact_intersection_area(a, a) + exact_intersection_area(b, b) - exact_intersection_area(a, b)
    return LATTICE_IOU_SLACK * (geometry.perimeter(a) + geometry.perimeter(b)) / (supersample * union)


def exact_iou(a, b) -> float:
    """Exact even-odd polygon IoU, the measure MMOCR's NMS and the
    CTW1500 / Total-Text protocols use; 0.0 for an empty union."""
    inter = exact_intersection_area(a, b)
    union = exact_intersection_area(a, a) + exact_intersection_area(b, b) - inter
    return inter / union if union > 0 else 0.0


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654)


@pytest.fixture(scope="session")
def compactness_images():
    return compactness_corpus()


@pytest.fixture(scope="session")
def roundtrip_images():
    return roundtrip_corpus()


@pytest.fixture(scope="session")
def subset_parts():
    return subset_instances()


__all__ = [
    "dedupe",
    "ellipse_polygon",
    "exact_intersection_area",
    "exact_iou",
    "lattice_iou_bound",
    "inline_basis",
    "is_simple",
    "point_in_polygon",
    "rect14",
    "regular_polygon",
    "ribbon",
    "rows_to_block_end",
    "same_bits",
    "star_shaped",
    "uncached_series",
    "vertex_removal_delta",
]
