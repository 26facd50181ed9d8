"""Planar polygon primitives in image pixel coordinates.

The frame follows image conventions: x grows rightward, y grows downward.
"Clockwise" always means visually clockwise on screen, which in this frame
is a positive shoelace sum over the raw coordinates.

Order-independent accumulations (fsum) are used for the perimeter, the
centroid, and the shoelace sum so that cyclically rotating or reversing the
vertex list of a contour cannot move any downstream decision by even one ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateContour, InvalidPolygon, ZeroPerimeter

__all__ = [
    "Point2",
    "Contour",
    "ResampledContour",
    "signed_area",
    "perimeter",
    "contour_center",
    "canonical_start",
    "resample_equidistant",
    "shrink_polygon",
    "point_in_polygon",
    "rasterize_grid",
    "polygon_iou",
    "ContourSpans",
    "contour_spans",
    "contour_spans_many",
    "spans_iou",
    "vertex_removal_delta",
    "DEFAULT_SUPERSAMPLE",
    "MAX_SUPERSAMPLE",
]

DEFAULT_SUPERSAMPLE = 4
# Largest supersample accepted: a span record holds s rows per pixel of height.
MAX_SUPERSAMPLE = 16


class Point2(NamedTuple):
    x: float
    y: float


def _vertex_array(vertices, minimum: int = 3) -> np.ndarray:
    arr = np.array(vertices, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidPolygon(f"expected an (n, 2) vertex array, got shape {arr.shape}")
    if arr.shape[0] < minimum:
        raise InvalidPolygon(f"need at least {minimum} vertices, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidPolygon("coordinates must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Contour:
    """Closed polygon; the edge from the last vertex back to the first is implicit.

    Vertex count (>= 3) and finiteness are checked at construction.
    Zero-perimeter contours are representable, because a constant-term
    reconstruction legitimately collapses to one repeated point; operations
    that need arc length raise ZeroPerimeter instead of forbidding them here.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _vertex_array(self.vertices))

    @classmethod
    def from_flat(cls, coords: Iterable[float]) -> "Contour":
        flat = np.asarray(list(coords), dtype=np.float64)
        if flat.size % 2:
            raise InvalidPolygon("flat coordinate list must have an even length")
        return cls(flat.reshape(-1, 2))

    def flat(self) -> list[float]:
        return [float(v) for v in self.vertices.ravel()]

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


@dataclass(frozen=True)
class ResampledContour:
    """Equidistant samples of a contour, visually clockwise, starting at the
    canonical start point.  points[j] is the sample at parameter t = j / n."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _vertex_array(self.points))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


# ---------------------------------------------------------------------------
# scalar measures


def _edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return v, np.roll(v, -1, axis=0)


def _cross_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shoelace terms a x b of the segments from each row of a to b."""
    return a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]


def _signed_area(v: np.ndarray) -> float:
    # fsum: exactly rounded, so the value is identical for any cyclic rotation
    # or reversal of the vertex list.
    return 0.5 * math.fsum(_cross_terms(*_edges(v)))


def signed_area(c: Contour) -> float:
    """Shoelace sum; positive when the contour is visually clockwise (y-down)."""
    return _signed_area(c.vertices)


def _edge_lengths(v: np.ndarray) -> np.ndarray:
    a, b = _edges(v)
    return np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])


def perimeter(c: Contour) -> float:
    return math.fsum(_edge_lengths(c.vertices))


def _center(v: np.ndarray) -> Point2:
    a, b = _edges(v)
    lengths = _edge_lengths(v)
    total = math.fsum(lengths)
    if total <= 0.0:
        raise ZeroPerimeter("contour has zero perimeter")
    mx = 0.5 * (a[:, 0] + b[:, 0])
    my = 0.5 * (a[:, 1] + b[:, 1])
    return Point2(math.fsum(mx * lengths) / total, math.fsum(my * lengths) / total)


def contour_center(c: Contour) -> Point2:
    """Arc-length weighted centroid of the boundary polyline.

    Weighting by edge length makes the center independent of how densely
    each stretch of the outline happens to be annotated.
    """
    return _center(c.vertices)


# ---------------------------------------------------------------------------
# canonical start and resampling


def _canonical_start(v: np.ndarray) -> tuple[int, float]:
    edge, _, t, x = _crossings(*_edges(v), np.array([_center(v).y]))
    if edge.size == 0:
        raise DegenerateContour("no horizontal crossing through the center")
    best = int(np.argmax(x))  # rightmost; argmax keeps the first on exact ties
    return int(edge[best]), float(t[best])


def canonical_start(c: Contour) -> tuple[int, float]:
    """Start point for sampling: the rightmost intersection of the horizontal
    line through the center with the contour, as (edge index, edge parameter)."""
    return _canonical_start(c.vertices)


def resample_equidistant(c: Contour, n: int) -> ResampledContour:
    """Resample to n points at equal arc spacing.

    The traversal is forced visually clockwise (vertex order reversed when the
    shoelace sum is negative) and starts at the canonical start point, which
    is emitted as points[0].  Sample j sits at arc position j * perimeter / n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 samples, got {n}")
    v = np.asarray(c.vertices)
    if _signed_area(v) < 0.0:
        v = v[::-1]
    e, t = _canonical_start(v)
    a, b = _edges(v)
    p0 = a[e] + t * (b[e] - a[e])
    m = v.shape[0]
    # Rebuild the cycle starting from the start point; every later computation
    # sees the same point sequence no matter how the input list was phased.
    cycle = np.empty((m + 2, 2), dtype=np.float64)
    cycle[0] = p0
    order = (np.arange(1, m + 1) + e) % m
    cycle[1:-1] = v[order]
    cycle[-1] = p0
    seg = np.hypot(np.diff(cycle[:, 0]), np.diff(cycle[:, 1]))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if total <= 0.0:
        raise ZeroPerimeter("contour has zero perimeter")
    step = total / n
    targets = np.arange(n) * step
    seat = np.searchsorted(cum, targets, side="right") - 1
    seat = np.clip(seat, 0, seg.size - 1)
    denom = np.where(seg[seat] > 0.0, seg[seat], 1.0)
    frac = (targets - cum[seat]) / denom
    pts = cycle[seat] + frac[:, None] * (cycle[seat + 1] - cycle[seat])
    return ResampledContour(pts)


# ---------------------------------------------------------------------------
# inward offset


def _dedupe(v: np.ndarray) -> np.ndarray:
    keep = np.any(v != np.roll(v, 1, axis=0), axis=1)
    return v[keep] if keep.any() else v[:1]


# edge pairs tested per block by _is_simple; bounds its working memory
_SIMPLE_BLOCK_PAIRS = 1 << 14


def _is_simple(v: np.ndarray) -> bool:
    """True when no two non-adjacent edges of the closed polygon v meet.

    Two edges meet when they cross properly, or when an endpoint of one has
    zero orientation against the other and lies in its bounding box, so
    touching vertices and collinear overlaps count.  Edge i is tested against
    edges i + 2 .. m - 1 (edge 0 not against its wrapped neighbour m - 1) in
    blocks of consecutive rows i of about _SIMPLE_BLOCK_PAIRS pairs; the first
    block with a meeting pair ends the test.  Each orientation is the float64
    expression (b - a) x (c - a) evaluated elementwise, so its sign and zero
    tests match a scalar evaluation bit for bit.
    """
    m = v.shape[0]
    a, b = _edges(v)
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    ex, ey = bx - ax, by - ay
    lox, loy = np.minimum(ax, bx), np.minimum(ay, by)
    hix, hiy = np.maximum(ax, bx), np.maximum(ay, by)

    def orient(e, x, y):
        return ex[e] * (y - ay[e]) - ey[e] * (x - ax[e])

    def in_box(e, x, y):
        return (lox[e] <= x) & (x <= hix[e]) & (loy[e] <= y) & (y <= hiy[e])

    step = max(1, _SIMPLE_BLOCK_PAIRS // m)
    for r0 in range(0, m - 2, step):
        p = (slice(r0, min(r0 + step, m - 2)), None)  # rows: edges i
        q = slice(r0 + 2, m)  # columns: edges j
        d1, d2 = orient(q, ax[p], ay[p]), orient(q, bx[p], by[p])
        d3, d4 = orient(p, ax[q], ay[q]), orient(p, bx[q], by[q])
        hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != d2) & (d3 != d4)
        hit |= (d1 == 0) & in_box(q, ax[p], ay[p])
        hit |= (d2 == 0) & in_box(q, bx[p], by[p])
        hit |= (d3 == 0) & in_box(p, ax[q], ay[q])
        hit |= (d4 == 0) & in_box(p, bx[q], by[q])
        # drop the pairs left of the diagonal and edge 0 against edge m - 1
        i, j = np.arange(m)[p], np.arange(m)[q]
        hit &= (j >= i + 2) & ((i > 0) | (j < m - 1))
        if hit.any():
            return False
    return True


def shrink_polygon(c: Contour, factor: float) -> Contour:
    """Offset every edge inward by d = factor * |area| / perimeter.

    Vertices are rebuilt from the intersections of adjacent offset lines.
    If that rebuild self-intersects, flips orientation, grows, or escapes the
    original outline, fall back to scaling the vertices toward the contour
    center by (1 - factor).  The result always has strictly smaller area.
    The self-intersection test is one pass over all non-adjacent edge pairs,
    evaluated as arrays in fixed-size blocks.
    """
    if not 0.0 < factor < 1.0:
        raise ValueError(f"shrink factor must lie in (0, 1), got {factor}")
    area = _signed_area(c.vertices)
    if area == 0.0:
        raise DegenerateContour("zero-area contour cannot be shrunk")
    flip = area < 0.0
    v = c.vertices[::-1] if flip else np.asarray(c.vertices)
    v = _dedupe(v)
    if v.shape[0] < 3:
        raise DegenerateContour("fewer than 3 distinct vertices")

    d = factor * abs(area) / math.fsum(_edge_lengths(v))
    a, b = _edges(v)
    ev = b - a
    ln = np.hypot(ev[:, 0], ev[:, 1])
    dirs = ev / ln[:, None]
    # interior lies to the left of travel for a positive shoelace sum
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    anchors = a + normals * d

    # vertex i joins the offset lines of edges i - 1 (p) and i, each float64
    # operation the one a per-vertex evaluation makes
    dp, ap = np.roll(dirs, 1, axis=0), np.roll(anchors, 1, axis=0)
    cross = dp[:, 0] * dirs[:, 1] - dp[:, 1] * dirs[:, 0]
    w = anchors - ap
    # rows with parallel neighbours divide by ~0; np.where drops them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (w[:, 0] * dirs[:, 1] - w[:, 1] * dirs[:, 0]) / cross
        joined = ap + s[:, None] * dp
    # collinear neighbours share the line
    out = np.where((np.abs(cross) < 1e-12)[:, None], v + normals * d, joined)

    new_area = _signed_area(out)
    # NaN vertices fail the area test, so they never reach the containment test
    ok = 0.0 < new_area < abs(area) and _is_simple(out)
    if ok:
        # every rebuilt vertex inside: the grid of their distinct xs and ys
        ux, col = np.unique(out[:, 0], return_inverse=True)
        uy, row = np.unique(out[:, 1], return_inverse=True)
        ok = rasterize_grid(Contour(v), ux, uy)[row, col].all()
    if not ok:
        ctr = _center(v)
        out = np.array([ctr.x, ctr.y]) + (1.0 - factor) * (v - np.array([ctr.x, ctr.y]))
    if flip:
        out = out[::-1]
    return Contour(out)


# ---------------------------------------------------------------------------
# point membership and rasterization


def _point_in(v: np.ndarray, px: float, py: float) -> bool:
    inside = False
    m = v.shape[0]
    for i in range(m):
        ax, ay = v[i]
        bx, by = v[(i + 1) % m]
        if (ay <= py) != (by <= py):
            t = (py - ay) / (by - ay)
            if ax + t * (bx - ax) > px:
                inside = not inside
    return inside


def point_in_polygon(p, c: Contour) -> bool:
    """Even-odd membership; boundary points resolve by the half-open edge rule
    (a crossing counts only when it lies strictly to the right of the point)."""
    return _point_in(c.vertices, float(p[0]), float(p[1]))


def rasterize_grid(c: Contour, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean even-odd membership mask of shape (len(ys), len(xs)) for the
    cartesian grid of sample points xs x ys.  Matches point_in_polygon.
    xs must be strictly ascending; ys may come in any order and repeat.  The
    rows are _grid_cells of one contour on the distinct ys: the row spans of
    _row_intervals are the one even-odd rule behind every sample grid."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size > 1 and not np.all(xs[1:] > xs[:-1]):
        raise ValueError("sample columns must be strictly ascending")
    uy, row = np.unique(np.asarray(ys, dtype=np.float64), return_inverse=True)
    inside = np.zeros(uy.size * xs.size, dtype=bool)
    inside[_grid_cells([c], xs, uy)[1]] = True
    return inside.reshape(uy.size, xs.size)[row]


def _crossings(
    a: np.ndarray, b: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of the edges from a[i] to b[i] with the rows y = ys[r] (ys
    ascending), as arrays (edge, row, t, x), edge by edge, then row by row:
    edge i meets row `row` at parameter t and abscissa x.  _edges(v) gives
    the edges of one closed polygon; any set of closed polygons' edges may
    be concatenated.
    Half-open rule: edge (a, b) crosses row y iff min(a.y, b.y) <= y <
    max(a.y, b.y), so a vertex on a row counts once and a horizontal edge
    never."""
    # the rows an edge crosses are one contiguous run of the ascending ys
    first = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]), side="left")
    stop = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1]), side="left")
    runs = stop - first
    e_idx = np.repeat(np.arange(runs.size), runs)
    r_idx = np.arange(e_idx.size) - np.repeat(np.cumsum(runs) - runs - first, runs)
    # per-edge differences, gathered per crossing: the same floats as
    # differences of the gathered endpoints, in fewer passes
    ax, ay = a[:, 0], a[:, 1]
    t = (ys[r_idx] - ay[e_idx]) / (b[:, 1] - ay)[e_idx]
    x = ax[e_idx] + t * (b[:, 0] - ax)[e_idx]
    return e_idx, r_idx, t, x


def _row_intervals(
    a: np.ndarray,
    b: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    shift: np.ndarray,
    pad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-open sample-index intervals of the inside samples, row by row, as
    (lo, hi, crossings per row).

    Crossings along each row pair up ascending into [enter, exit) spans; a
    sample is inside exactly when the count of crossings strictly to its
    right is odd, which is equivalent to landing in such a span.  Rows always
    carry an even crossing count because the polygons are closed.
    xs and ys must be ascending.  This is the library's one even-odd rule
    for sample grids; it matches _point_in point for point.

    The rows of many polygons share one table: edge i's crossing with row r
    goes to output row r + shift[i].  Every output row is given as many spans
    as the busiest row needs; the extra spans of output row q are empty and
    sit at pad[q].
    """
    edge, row, _, x = _crossings(a, b, ys)
    row = row + shift[edge]
    # the sample index of a crossing is monotone in x, so sorting the indices
    # within each row orders the crossings
    width = xs.size + 1
    key = row * width + np.searchsorted(xs, x, side="left")
    key.sort()
    rows, cols = np.divmod(key, width)
    per_row = np.bincount(rows, minlength=pad.size)
    starts = np.cumsum(per_row) - per_row
    out = np.empty((pad.size, int(per_row.max(initial=0))), dtype=np.int64)
    out[:] = pad[:, None]
    out[rows, np.arange(key.size) - starts[rows]] = cols
    return out[:, 0::2], out[:, 1::2], per_row


def _polygon_spans(verts, xs, ys, row0, rows, pad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_row_intervals of the closed polygons verts[i] on one ascending grid.
    Polygon i may cross only grid rows row0[i] .. row0[i] + rows[i] - 1: they
    become its table rows, after the previous polygon's; its padding is pad[i]."""
    sizes = np.array([v.shape[0] for v in verts], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    a = np.concatenate(verts)
    nxt = np.arange(1, a.shape[0] + 1)
    nxt[start + sizes - 1] = start  # each polygon closes
    shift = np.repeat(np.cumsum(rows) - rows - row0, sizes)
    return _row_intervals(a, a[nxt], xs, ys, shift, np.repeat(pad, rows))


def _grid_cells(contours, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(contour index, flat cell index row * len(xs) + column) of every point
    of the ascending grid xs x ys inside each contour, contour by contour,
    cells ascending: one _polygon_spans pass.  Matches point_in_polygon."""
    verts = [np.asarray(c.vertices) for c in contours]
    if not verts:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    y_range = np.array([(v[:, 1].min(), v[:, 1].max()) for v in verts])
    row0, stop = np.searchsorted(ys, y_range.T, side="left")
    rows = stop - row0
    lo, hi, _ = _polygon_spans(verts, xs, ys, row0, rows, np.full(len(verts), xs.size))
    # each table row's grid row; each span's cells run on from its first one
    grid_row = np.arange(lo.shape[0]) + np.repeat(row0 - (np.cumsum(rows) - rows), rows)
    first = (grid_row[:, None] * xs.size + lo).ravel()
    runs = (hi - lo).ravel()
    cells = np.arange(runs.sum()) + np.repeat(first - (np.cumsum(runs) - runs), runs)
    which = np.repeat(np.repeat(np.arange(len(verts)), rows), (hi - lo).sum(axis=1))
    return which, cells


@dataclass(frozen=True)
class ContourSpans:
    """Inside samples of one contour on the global supersample lattice.

    Lattice sample (gx, gy) sits at ((gx + 0.5) / s, (gy + 0.5) / s) whatever
    the contour, so two records compare sample for sample.  Record row r is
    lattice row row0 + r; its inside samples are the lattice columns in
    [lo[r, j], hi[r, j]) for every j.  count is the number of inside samples.
    """

    bbox: tuple[float, float, float, float]
    supersample: int
    row0: int
    lo: np.ndarray
    hi: np.ndarray
    count: int


# Record rows rasterized together by contour_spans_many.  Contours are taken
# in blocks of whole contours, a new block starting where the running row
# total crosses a multiple of this; a block's crossings and span table are
# freed before the next block starts.  At the default supersample 4 this is
# 1024 pixel rows: a few small contours or one large one.
_SPANS_BLOCK_ROWS = 4096


def _lattice(g0: np.ndarray, size: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (g + 0.5) / s, ascending, of the lattice samples g lying in
    any of the ranges [g0[i], g0[i] + size[i]), and the index of each g0[i]
    among them.  The samples of one range are consecutive, so a value inside
    range i has the same searchsorted index, less that of g0[i], as it has in
    range i's own samples; the coordinates are those of the global lattice.
    Gaps between the ranges hold no samples, so however far apart a block's
    contours lie, its lattice is no longer than their boxes together."""
    order = np.argsort(g0, kind="stable")
    start = g0[order]
    reach = np.maximum.accumulate(start + size[order])
    # a run of overlapping or touching ranges starts where no earlier range reaches
    first = np.flatnonzero(np.concatenate(([True], start[1:] > reach[:-1])))
    run0 = start[first]
    runs = reach[np.append(first[1:] - 1, reach.size - 1)] - run0
    g = np.arange(runs.sum()) + np.repeat(run0 - (np.cumsum(runs) - runs), runs)
    return (g + 0.5) / s, np.searchsorted(g, g0)


def contour_spans_many(contours, supersample: int = DEFAULT_SUPERSAMPLE) -> list[ContourSpans]:
    """contour_spans of every contour, in order, from one vectorized pass per
    block of about _SPANS_BLOCK_ROWS record rows.

    A block's contours go through one _polygon_spans pass on the lattice
    rows and columns covering their boxes; one sort orders every crossing by
    (record row, column), where a contour's record rows follow the previous
    contour's.  Each record's lo and hi are its rows of
    the block's span table, trimmed to its own busiest row and copied out, so
    a record does not keep the block-wide table alive.  The records equal,
    field for field, what rasterizing each contour alone gives.  Contours may
    have any vertex counts.
    """
    s = int(supersample)
    if s < 1:
        raise ValueError(f"supersample must be >= 1, got {supersample}")
    verts = [np.asarray(c.vertices) for c in contours]
    if not verts:
        return []
    sizes = np.array([v.shape[0] for v in verts])
    vstart = np.cumsum(sizes) - sizes
    a = np.concatenate(verts)
    low = np.minimum.reduceat(a, vstart, axis=0)
    high = np.maximum.reduceat(a, vstart, axis=0)
    if max(-low.min(), high.max()) * s >= 2.0**62:  # lattice indices are int64
        raise ValueError("contour coordinates too large for the sample lattice")
    bboxes = np.concatenate([low, high], axis=1).tolist()
    # each integer-aligned box on the lattice: (x, y) first sample g0, extent n
    g0 = np.floor(low).astype(np.int64)
    n = np.maximum(np.ceil(high).astype(np.int64) - g0, 1) * s
    g0 *= s
    h = n[:, 1]
    block = (np.cumsum(h) - h) // _SPANS_BLOCK_ROWS
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [h.size]))
    records = []
    for i, j in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        xs, xpos = _lattice(g0[i:j, 0], n[i:j, 0], s)
        ys, ypos = _lattice(g0[i:j, 1], h[i:j], s)
        lo, hi, per_row = _polygon_spans(verts[i:j], xs, ys, ypos, h[i:j], xpos + n[i:j, 0])
        row_off = np.cumsum(h[i:j]) - h[i:j]
        counts = np.add.reduceat((hi - lo).sum(axis=1), row_off)
        n_spans = np.maximum.reduceat(per_row, row_off) // 2
        # adding dx turns indices into the block's lattice samples into
        # lattice columns, and copies the record's rows out of the table
        for bbox, gy0, r0, rows, k, dx, count in zip(
            bboxes[i:j],
            g0[i:j, 1].tolist(),
            row_off.tolist(),
            h[i:j].tolist(),
            n_spans.tolist(),
            (g0[i:j, 0] - xpos).tolist(),
            counts.tolist(),
        ):
            rs = slice(r0, r0 + rows)
            records.append(ContourSpans(tuple(bbox), s, gy0, lo[rs, :k] + dx, hi[rs, :k] + dx, count))
    return records


def contour_spans(c: Contour, supersample: int = DEFAULT_SUPERSAMPLE) -> ContourSpans:
    """Even-odd inside samples of c on the lattice with `supersample` samples
    per pixel side, as row spans over the contour's integer-aligned box.

    This is contour_spans_many with a batch of one.  To rasterize many
    contours, pass them all to contour_spans_many: it handles them in blocks
    of about _SPANS_BLOCK_ROWS (4096) lattice rows with a few array
    operations per block, not per contour, and gives the same records.
    """
    return contour_spans_many([c], supersample)[0]


def spans_iou(a: ContourSpans, b: ContourSpans) -> float:
    """IoU of two span records in lattice samples.  Disjoint bounding boxes
    short-circuit to 0.0; an empty union gives 0.0."""
    if a.supersample != b.supersample:
        raise ValueError(
            f"span records on different lattices: {a.supersample} vs {b.supersample}"
        )
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, bx1, by1 = b.bbox
    if ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0:
        return 0.0
    r0 = max(a.row0, b.row0)
    r1 = min(a.row0 + a.lo.shape[0], b.row0 + b.lo.shape[0])
    inter = 0
    if r0 < r1:
        ra = slice(r0 - a.row0, r1 - a.row0)
        rb = slice(r0 - b.row0, r1 - b.row0)
        lo = np.maximum(a.lo[ra, :, None], b.lo[rb, None, :])
        hi = np.minimum(a.hi[ra, :, None], b.hi[rb, None, :])
        inter = int(np.maximum(hi - lo, 0).sum())
    union = a.count + b.count - inter
    if union == 0:
        return 0.0
    return inter / union


def _sym_diff_bound(k: np.ndarray, c: np.ndarray, s: int) -> np.ndarray:
    """D[i] >= the lattice-s samples inside exactly one of the vertex arrays
    k (n, 2) and c[i] (c is (M, n, 2)), as contour_spans records count them.

    (1 - u) k + u c[i], u in [0, 1], moves each k_j straight to c_j, so edge
    j sweeps P_j = hull(k_j, k_j+1, c_j, c_j+1).  The even-odd membership of
    a point off the polygon is its winding number mod 2, which changes only
    when an edge passes over the point, so the samples inside exactly one
    polygon lie in the P_j.  A convex P holds at most s^2 area(P) + s (w_x +
    w_y) + 1 samples, as their disjoint 1/s cells lie in P plus a cell.  The
    four triangles on P_j's corners cover it twice, so their summed |cross|
    is 4 area(P_j).

    Margin, with eps = 2^-53 and M the largest coordinate magnitude plus 1:
    a lattice coordinate (s not a power of two) is rounded by at most eps M,
    for both records alike, and a crossing ax + t (bx - ax) is computed
    within 11 eps M, so a sample whose computed side differs from its exact
    side lies that close to an edge of k or c[i].  Widening P_j by r = 2^-40
    M covers both, adding 4 r to w_x + w_y and 2 r (w_x + w_y + 4 r) to the
    area; that term also covers the area's rounding, within 40 eps M (w_x +
    w_y).  The factor 1 + 2^-20 covers the rounding of the sum and of a
    caller's (1 - iou) * count, a relative (n + 4) eps.
    """
    r = 2.0**-40 * (np.maximum(np.abs(k).max(), np.abs(c).max(axis=(1, 2))) + 1.0)[:, None]
    kn, cn = np.roll(k, -1, axis=0), np.roll(c, -1, axis=1)
    u, v, w = kn - k, c - k, cn - k  # corners k_j+1, c_j, c_j+1 less k_j
    uv = u[:, 0] * v[..., 1] - u[:, 1] * v[..., 0]
    uw = u[:, 0] * w[..., 1] - u[:, 1] * w[..., 0]
    vw = v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]
    area = (np.abs(uv) + np.abs(uw) + np.abs(vw) + np.abs(vw + uv - uw)) / 4
    hi = np.maximum(np.maximum(k, kn), np.maximum(c, cn))
    width = (hi - np.minimum(np.minimum(k, kn), np.minimum(c, cn))).sum(axis=2) + 4 * r
    return (s * s * (area + 2 * r * width) + s * width + 1).sum(axis=1) * (1 + 2.0**-20)


def _greedy_nms(points: np.ndarray, iou_thresh: float, supersample: int) -> list[int]:
    """Indices, in the given order, of the candidates greedy NMS keeps, from
    their vertex arrays points (M, n, 2): each is kept iff its spans_iou with
    every kept one is below iou_thresh.

    A newly kept k bounds, in one _sym_diff_bound call, every later live
    candidate c whose box meets its own, and suppresses c unrasterized where
    D <= (1 - iou_thresh) |k|: with d1 samples of k outside c and d2 of c
    outside k, d1 + d2 <= D, the IoU (|k| - d1) / (|k| + d2) is at least
    1 - D / |k|.  A candidate still live at its turn gets its contour_spans
    record and the exact test against the kept contours whose boxes meet its
    own.
    """
    boxes = np.concatenate([points.min(axis=1), points.max(axis=1)], axis=1)

    def meets(idx, i):
        b, (x0, y0, x1, y1) = boxes[idx], boxes[i]
        return (b[:, 2] > x0) & (x1 > b[:, 0]) & (b[:, 3] > y0) & (y1 > b[:, 1])

    live = np.ones(len(points), dtype=bool)
    kept: dict[int, ContourSpans] = {}  # kept index -> its record
    for i in range(len(points)):
        if not live[i]:
            continue
        idx = np.fromiter(kept, dtype=np.intp, count=len(kept))
        rec = contour_spans(Contour(points[i]), supersample)
        if any(spans_iou(rec, kept[j]) >= iou_thresh for j in idx[meets(idx, i)].tolist()):
            continue
        kept[i] = rec
        later = slice(i + 1, None)
        pos = i + 1 + np.flatnonzero(live[later] & meets(later, i))
        bound = _sym_diff_bound(points[i], points[pos], rec.supersample)
        live[pos[bound <= (1 - iou_thresh) * rec.count]] = False
    return list(kept)


def polygon_iou(a: Contour, b: Contour, supersample: int = DEFAULT_SUPERSAMPLE) -> float:
    """Area IoU by counting inside samples on the global supersample lattice.

    Every integer pixel is subdivided `supersample` times per axis: lattice
    sample g of an axis sits at (g + 0.5) / supersample, whatever the two
    contours, and membership is even-odd fill at those points.  Disjoint
    bounding boxes give 0.0, and so does an empty union.  For a power-of-two
    supersample (the default 4) the sample coordinates are exact; for other
    values they are rounded, so a sample lying on an edge can land on either
    side of it.

    To compare one contour with many, build its contour_spans record once
    and call spans_iou for each pair.
    """
    return spans_iou(contour_spans(a, supersample), contour_spans(b, supersample))


# ---------------------------------------------------------------------------
# curvature proxy


def vertex_removal_delta(c: Contour, i: int) -> float:
    """Relative area change |A_before - A_after| / A_before from deleting
    vertex i.  Collinear vertices give exactly 0; sharp bends give large values."""
    v = c.vertices
    m = v.shape[0]
    if m < 4:
        raise ValueError(f"need at least 4 vertices to remove one, got {m}")
    if not 0 <= i < m:
        raise ValueError(f"vertex index {i} out of range for {m} vertices")
    return _removal_deltas(v, [i])[0]


def _removal_deltas(v: np.ndarray, indices) -> list[float]:
    """vertex_removal_delta for each vertex index in `indices` (each in
    0 .. m - 1, m >= 4), from one set of shoelace terms.

    Deleting vertex i replaces the terms of edges i - 1 and i by one bridge
    term v[i - 1] x v[i + 1], computed as _signed_area computes its terms.
    fsum is exactly rounded, so each value equals _signed_area of the polygon
    with vertex i deleted, bit for bit.
    """
    a, b = _edges(v)
    terms = _cross_terms(a, b)
    before = abs(0.5 * math.fsum(terms))
    if before == 0.0:
        raise DegenerateContour("zero-area contour has no usable removal delta")
    bridge = _cross_terms(np.roll(v, 1, axis=0), b).tolist()
    terms = terms.tolist()
    out = []
    for i in indices:
        # terms i - 1 and i go; for i = 0 those are the last and the first
        kept = terms[1:-1] if i == 0 else terms[: i - 1] + terms[i + 1 :]
        kept.append(bridge[i])
        after = abs(0.5 * math.fsum(kept))
        out.append(abs(before - after) / before)
    return out
