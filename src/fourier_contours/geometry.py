"""Planar polygon primitives in image pixel coordinates.

The frame follows image conventions: x grows rightward, y grows downward.
"Clockwise" always means visually clockwise on screen, which in this frame
is a positive shoelace sum over the raw coordinates.

Order-independent accumulations (fsum) are used for the perimeter, the
centroid, and the shoelace sum so that cyclically rotating or reversing the
vertex list of a contour cannot move any downstream decision by even one ulp.

The records Point2, Contour and ResampledContour, and the block cutter _cuts,
live in contours, which the Fourier transforms load without this module;
they are bound and exported here too.  The batch budget _BATCH_ELEMENTS is
read and patched in contours only.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_SUPERSAMPLE
from .contours import Contour, Point2, ResampledContour, _cuts
from .errors import DegenerateContour, ZeroPerimeter
from .records import _Frozen

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
    "rasterize_grid",
    "polygon_iou",
    "ContourSpans",
    "contour_spans",
    "contour_spans_many",
    "spans_iou",
]


# ---------------------------------------------------------------------------
# scalar measures


def _edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return v, np.concatenate((v[1:], v[:1]))


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
    a, sizes, start, nxt = _ragged([v])
    x, y, total = _centers(a, a[nxt], sizes, start)
    if total[0] <= 0.0:
        raise ZeroPerimeter("contour has zero perimeter")
    return Point2(float(x[0]), float(y[0]))


def contour_center(c: Contour) -> Point2:
    """Arc-length weighted centroid of the boundary polyline.

    Weighting by edge length makes the center independent of how densely
    each stretch of the outline happens to be annotated.
    """
    return _center(c.vertices)


# ---------------------------------------------------------------------------
# polygon batches: many closed polygons stored one after another


def _closing(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, nxt) of closed polygons of the given vertex counts stored one
    after another: each polygon's first row, and the row that follows each
    row along its own polygon (its first after its last)."""
    start = np.cumsum(sizes) - sizes
    nxt = np.arange(1, int(sizes.sum()) + 1)
    nxt[start + sizes - 1] = start
    return start, nxt


def _ragged(verts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, sizes, start, nxt): the (m_i, 2) vertex arrays verts concatenated,
    their vertex counts and _closing."""
    sizes = np.array([len(v) for v in verts], dtype=np.int64)
    return (np.concatenate(verts), sizes, *_closing(sizes))


def _previous(nxt: np.ndarray) -> np.ndarray:
    """The row before each row along its own polygon."""
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(nxt.size)
    return prv


def _flipped(flip: np.ndarray, sizes: np.ndarray, start: np.ndarray):
    """Row order (an index) reading polygon i backwards where flip[i], as
    stored elsewhere; every row as stored when none flips."""
    if not flip.any():
        return slice(None)
    poly = np.repeat(np.arange(sizes.size), sizes)
    row = np.arange(poly.size)
    return np.where(flip[poly], 2 * start[poly] + sizes[poly] - 1 - row, row)


def _fsums(values: np.ndarray, sizes: np.ndarray, start: np.ndarray) -> np.ndarray:
    """math.fsum of each polygon's rows of values: exactly rounded, so each
    equals the one-polygon measure bit for bit."""
    vals = values.tolist()
    return np.array([math.fsum(vals[s : s + m]) for s, m in zip(start.tolist(), sizes.tolist())])


def _group_keys(group, y) -> np.ndarray:
    """Complex keys group + y i.  numpy orders complex numbers by real part,
    then imaginary part, so the keys ascend wherever the groups ascend and y
    ascends within each group, and one searchsorted searches every group on
    its own."""
    key = np.empty(len(y), dtype=np.complex128)
    key.real = group
    key.imag = y
    return key


def _centers(a, b, sizes, start) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, perimeter) of each closed polygon whose edges a[i] -> b[i] are
    stored from start: contour_center, or 0 where the perimeter is 0."""
    lengths = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    total = _fsums(lengths, sizes, start)

    def mean(mid):
        return np.divide(_fsums(mid * lengths, sizes, start), total, out=np.zeros_like(total), where=total > 0.0)

    return mean(0.5 * (a[:, 0] + b[:, 0])), mean(0.5 * (a[:, 1] + b[:, 1])), total


# ---------------------------------------------------------------------------
# canonical start and resampling


def _canonical_starts(a, b, sizes, start) -> tuple[np.ndarray, np.ndarray, list]:
    """(edge row, edge parameter, error) of each closed polygon's canonical
    start, its edges a[i] -> b[i] stored from start: the rightmost crossing
    of the row through its center, the first in edge order on exact ties.
    error is the GeometryError the polygon raises, or None."""
    n_poly = sizes.size
    _, cy, total = _centers(a, b, sizes, start)
    poly = np.repeat(np.arange(n_poly), sizes)
    edge, _, t, x = _crossings(a, b, cy, poly, np.arange(n_poly))
    order = np.lexsort((-x, poly[edge]))  # stable: edge order among equal x
    first = order[np.flatnonzero(np.diff(poly[edge[order]], prepend=-1))]
    best, best_t = np.full(n_poly, -1), np.zeros(n_poly)
    best[poly[edge[first]]] = edge[first]
    best_t[poly[edge[first]]] = t[first]
    errors = [
        ZeroPerimeter("contour has zero perimeter") if p <= 0.0
        else DegenerateContour("no horizontal crossing through the center") if e < 0
        else None
        for e, p in zip(best.tolist(), total.tolist())
    ]
    return best, best_t, errors


def canonical_start(c: Contour) -> tuple[int, float]:
    """Start point for sampling: the rightmost intersection of the horizontal
    line through the center with the contour, as (edge index, edge parameter)."""
    a, sizes, start, nxt = _ragged([c.vertices])
    edge, t, errors = _canonical_starts(a, a[nxt], sizes, start)
    if errors[0]:
        raise errors[0]
    return int(edge[0]), float(t[0])


def resample_equidistant(c: Contour, n: int) -> ResampledContour:
    """Resample to n points at equal arc spacing.

    The traversal is forced visually clockwise (vertex order reversed when the
    shoelace sum is negative) and starts at the canonical start point, which
    is emitted as points[0].  Sample j sits at arc position j * perimeter / n.
    This is _resample_many with a batch of one, which pays the batch's fixed
    costs (padded cycle rows, grouped search keys); pass many contours to
    one _resample_many call, as the commands do per image.
    """
    points, errors = _resample_many([c.vertices], n)
    if errors[0]:
        raise errors[0]
    return ResampledContour(points[0])


def _resample_many(verts, n: int) -> tuple[np.ndarray, list]:
    """resample_equidistant of each (m_i, 2) vertex array, as (points, errors):
    points (N, n, 2), and errors[i] the GeometryError polygon i raises, or
    None; a failed polygon's points are zeros.  Polygons are taken in blocks
    of about contours._BATCH_ELEMENTS vertices and samples; each value equals
    the one-polygon computation's bit for bit."""
    if n < 3:
        raise ValueError(f"need n >= 3 samples, got {n}")
    points = np.zeros((len(verts), n, 2))
    errors: list = []
    for i, j in _cuts([len(v) + n for v in verts]):
        errors += _resample_block(verts[i:j], n, points[i:j])
    return points, errors


def _resample_block(verts, n: int, points: np.ndarray) -> list:
    """_resample_many of one block, written into points; returns the errors.

    Each polygon is one row of a (polygons, max m + 2) cycle array: the start
    point, the vertices after the start edge, the start point again, then the
    start point as padding, whose zero-length segments leave the per-row
    cumulative arc length at the perimeter."""
    a, sizes, start, nxt = _ragged(verts)
    n_poly = sizes.size
    flip = 0.5 * _fsums(_cross_terms(a, a[nxt]), sizes, start) < 0.0
    v = a[_flipped(flip, sizes, start)]
    b = v[nxt]
    edge, t, errors = _canonical_starts(v, b, sizes, start)
    edge = np.where(edge < 0, start, edge)  # any edge for a failed polygon
    p0 = v[edge] + t[:, None] * (b[edge] - v[edge])
    col = np.arange(int(sizes.max()) + 2)
    cycle = v[start[:, None] + (col + (edge - start)[:, None]) % sizes[:, None]]
    ends = (col == 0) | (col > sizes[:, None])
    cycle = np.where(ends[..., None], p0[:, None, :], cycle)
    seg = np.hypot(np.diff(cycle[..., 0], axis=1), np.diff(cycle[..., 1], axis=1))
    cum = np.zeros((n_poly, col.size))
    np.cumsum(seg, axis=1, out=cum[:, 1:])
    total = cum[:, -1]
    targets = np.arange(n) * (total / n)[:, None]
    # each target's segment, searched in its own row
    row = np.arange(n_poly)
    seat = np.searchsorted(
        _group_keys(np.repeat(row, col.size), cum.ravel()),
        _group_keys(np.repeat(row, n), targets.ravel()),
        side="right",
    ).reshape(n_poly, n) - (row * col.size + 1)[:, None]
    seat = np.clip(seat, 0, sizes[:, None])
    length = seg.ravel()[seat + (row * seg.shape[1])[:, None]]
    at = seat + (row * col.size)[:, None]  # flat index into cum and cycle
    frac = (targets - cum.ravel()[at]) / np.where(length > 0.0, length, 1.0)
    c0, c1 = cycle.reshape(-1, 2)[at], cycle.reshape(-1, 2)[at + 1]
    errors = [
        err or (ZeroPerimeter("contour has zero perimeter") if p <= 0.0 else None)
        for err, p in zip(errors, total.tolist())
    ]
    good = np.array([err is None for err in errors])
    points[good] = (c0 + frac[..., None] * (c1 - c0))[good]
    return errors


# ---------------------------------------------------------------------------
# inward offset


def _distinct(v: np.ndarray, sizes: np.ndarray, start: np.ndarray, prv: np.ndarray) -> np.ndarray:
    """The rows of v that differ from the row before them in their polygon;
    a polygon whose rows are all equal keeps its first."""
    keep = np.any(v != v[prv], axis=1)
    poly = np.repeat(np.arange(sizes.size), sizes)
    keep[start[np.bincount(poly[keep], minlength=sizes.size) == 0]] = True
    return keep


# edge pairs tested per block by _simple_many; bounds its working memory
_SIMPLE_BLOCK_PAIRS = 1 << 14


def _simple_many(a, sizes, start, nxt) -> np.ndarray:
    """Per closed polygon (sizes[i] rows of a from start[i], successor rows
    nxt): True when no two of its non-adjacent edges meet.

    Two edges meet when their closed bounding boxes meet and they cross
    properly, or when an endpoint of one has zero orientation against the
    other and lies in its box, so touching vertices and collinear overlaps
    count.  Edge i is not tested against i - 1 and i + 1 (cyclically), so a
    triangle is simple.  Each orientation is the float64 expression
    (b - a) x (c - a) evaluated elementwise, so its sign and zero tests match
    a scalar evaluation bit for bit.

    Only pairs whose boxes meet are tested.  That is exact with a margin of
    zero: the box test is part of the predicate and compares stored
    coordinates, which rounds nothing.  No margin could stand in for it:
    orientations of edges collinear to within about 2^-52 round to either
    sign, and segments rounded onto common lines of slope up to 3 gave
    float "proper crossings" 1.7% of the time, up to 84 units apart in a
    100-unit square, while an exact crossing always has meeting boxes.

    A polygon's edges are sorted by left end; each is paired with the later
    edges of its polygon whose left end lies at or before its right end
    (boxes that meet in x), and those pairs go through the y test and the
    predicate in blocks that double from _SIMPLE_BLOCK_PAIRS / 16 to
    _SIMPLE_BLOCK_PAIRS pairs.  A polygon's first meeting pair decides it,
    and its later pairs are skipped, so a polygon that crosses itself near
    its left end is decided after a few small blocks.
    """
    b = a[nxt]
    poly = np.repeat(np.arange(sizes.size), sizes)
    last = (sizes - 1)[poly]  # the highest edge index of each edge's polygon
    # one row per edge: endpoints, direction and closed box
    table = np.concatenate([a, b, b - a, np.minimum(a, b), np.maximum(a, b)], axis=1)
    lox, loy, hix, hiy = table[:, 6:].T.copy()
    order = np.lexsort((lox, poly))
    keys = _group_keys(poly[order], lox[order])
    runs = np.searchsorted(keys, _group_keys(poly[order], hix[order]), side="right") - np.arange(1, poly.size + 1)

    def orient(e, x, y):  # e: table rows, transposed
        return e[4] * (y - e[1]) - e[5] * (x - e[0])

    def in_box(e, x, y):
        return (e[6] <= x) & (x <= e[8]) & (e[7] <= y) & (y <= e[9])

    simple = np.ones(sizes.size, dtype=bool)
    ends = np.cumsum(runs)
    i, budget = 0, max(_SIMPLE_BLOCK_PAIRS >> 4, 1)
    while i < runs.size and simple.any():
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - runs[i] + budget, side="right")))
        budget = min(2 * budget, _SIMPLE_BLOCK_PAIRS)
        r = np.where(simple[poly[order[i:j]]], runs[i:j], 0)
        s = np.repeat(np.arange(i, j), r)
        p, q = order[s], order[s + 1 + np.arange(s.size) - np.repeat(np.cumsum(r) - r, r)]
        # rows of one polygon: |p - q| is the index distance, m - 1 for edges 0 and m - 1
        gap = np.abs(p - q)
        keep = (loy[p] <= hiy[q]) & (loy[q] <= hiy[p]) & (gap >= 2) & (gap < last[p])
        p = p[keep]
        P, Q = table[p].T, table[q[keep]].T
        d1, d2 = orient(Q, P[0], P[1]), orient(Q, P[2], P[3])
        d3, d4 = orient(P, Q[0], Q[1]), orient(P, Q[2], Q[3])
        hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != d2) & (d3 != d4)
        hit |= (d1 == 0) & in_box(Q, P[0], P[1])
        hit |= (d2 == 0) & in_box(Q, P[2], P[3])
        hit |= (d3 == 0) & in_box(P, Q[0], Q[1])
        hit |= (d4 == 0) & in_box(P, Q[2], Q[3])
        simple[poly[p[hit]]] = False
        i = j
    return simple


def _inside_own(a, b, edge_poly, q, q_poly) -> np.ndarray:
    """Whether each point q[i] lies inside polygon q_poly[i], whose edges are
    the a[j] -> b[j] with edge_poly[j] == q_poly[i]: the even-odd rule of
    _row_intervals, from one _crossings pass over the rows through the points
    (a crossing strictly right of a point toggles it)."""
    order = np.lexsort((q[:, 1], q_poly))
    q = q[order]
    _, row, _, x = _crossings(a, b, q[:, 1], edge_poly, q_poly[order])
    odd = np.bincount(row[x > q[row, 0]], minlength=len(q)) % 2 == 1
    inside = np.empty_like(odd)
    inside[order] = odd
    return inside


def shrink_polygon(c: Contour, factor: float) -> Contour:
    """Offset every edge inward by d = factor * |area| / perimeter.

    Vertices are rebuilt from the intersections of adjacent offset lines.
    If that rebuild self-intersects, flips orientation, grows, or escapes the
    original outline, fall back to scaling the vertices toward the contour
    center by (1 - factor).  The result always has strictly smaller area.
    The self-intersection test pairs only edges whose boxes meet
    (_simple_many); the escape test runs the rebuilt vertices through one
    even-odd crossing pass against the outline's edges.  This is
    _shrink_many with a batch of one.
    """
    shrunk, errors = _shrink_many([c.vertices], factor)
    if errors[0]:
        raise errors[0]
    return shrunk[0]


def _shrink_many(verts, factor: float) -> tuple[list, list]:
    """shrink_polygon of each (m_i, 2) vertex array, as (shrunk, errors):
    shrunk[i] is polygon i's shrunk Contour, or None where errors[i] holds
    the GeometryError it raises.  Polygons are taken in blocks of about
    contours._BATCH_ELEMENTS vertices; each vertex equals the one-polygon
    computation's bit for bit."""
    if verts and not 0.0 < factor < 1.0:
        raise ValueError(f"shrink factor must lie in (0, 1), got {factor}")
    shrunk: list = []
    errors: list = []
    for i, j in _cuts([len(v) for v in verts]):
        block = _shrink_block(verts[i:j], factor)
        shrunk += block[0]
        errors += block[1]
    return shrunk, errors


def _shrink_block(verts, factor: float) -> tuple[list, list]:
    a, sizes, start, nxt = _ragged(verts)
    area = 0.5 * _fsums(_cross_terms(a, a[nxt]), sizes, start)
    flip = area < 0.0
    v = a[_flipped(flip, sizes, start)]
    keep = _distinct(v, sizes, start, _previous(nxt))
    count = np.bincount(np.repeat(np.arange(sizes.size), sizes)[keep], minlength=sizes.size)
    errors = [
        DegenerateContour("zero-area contour cannot be shrunk") if ar == 0.0
        else DegenerateContour("fewer than 3 distinct vertices") if k < 3
        else None
        for ar, k in zip(area.tolist(), count.tolist())
    ]
    # the distinct vertices of the polygons left, stored one after another
    live = np.array([err is None for err in errors])
    v = v[keep & np.repeat(live, sizes)]
    area, flip, sizes = area[live], flip[live], count[live]
    start, nxt = _closing(sizes)
    poly = np.repeat(np.arange(sizes.size), sizes)

    b = v[nxt]
    ev = b - v
    ln = np.hypot(ev[:, 0], ev[:, 1])
    d = (factor * np.abs(area) / _fsums(ln, sizes, start))[poly][:, None]
    dirs = ev / ln[:, None]
    # interior lies to the left of travel for a positive shoelace sum
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    anchors = v + normals * d

    # vertex i joins the offset lines of edges i - 1 (p) and i, each float64
    # operation the one a per-vertex evaluation makes
    prv = _previous(nxt)
    dp, ap = dirs[prv], anchors[prv]
    cross = dp[:, 0] * dirs[:, 1] - dp[:, 1] * dirs[:, 0]
    w = anchors - ap
    # rows with parallel neighbours divide by ~0; np.where drops them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (w[:, 0] * dirs[:, 1] - w[:, 1] * dirs[:, 0]) / cross
        joined = ap + s[:, None] * dp
    # collinear neighbours share the line
    out = np.where((np.abs(cross) < 1e-12)[:, None], v + normals * d, joined)

    new_area = 0.5 * _fsums(_cross_terms(out, out[nxt]), sizes, start)
    # NaN vertices fail the area test, so they never reach the later tests
    ok = (0.0 < new_area) & (new_area < np.abs(area))
    if ok.any():
        rows = ok[poly]
        ok[ok] = _simple_many(out[rows], sizes[ok], *_closing(sizes[ok]))
    if ok.any():
        rows = ok[poly]
        inside = _inside_own(v[rows], b[rows], poly[rows], out[rows], poly[rows])
        ok &= np.bincount(poly[rows][~inside], minlength=sizes.size) == 0
    if not ok.all():  # the rest scale toward their centers
        rows = ~ok[poly]
        cx, cy, _ = _centers(v[rows], b[rows], sizes[~ok], _closing(sizes[~ok])[0])
        ctr = np.repeat(np.stack([cx, cy], axis=1), sizes[~ok], axis=0)
        out[rows] = ctr + (1.0 - factor) * (v[rows] - ctr)

    out = out[_flipped(flip, sizes, start)]
    pieces = iter(np.split(out, start[1:]))
    return [None if err else Contour(next(pieces)) for err in errors], errors


# ---------------------------------------------------------------------------
# rasterization


def rasterize_grid(c: Contour, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean even-odd membership mask of shape (len(ys), len(xs)) for the
    cartesian grid of sample points xs x ys.
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
    a: np.ndarray, b: np.ndarray, ys: np.ndarray, edge_group=None, row_group=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of the edges from a[i] to b[i] with the rows y = ys[r] (ys
    ascending), as arrays (edge, row, t, x), edge by edge, then row by row:
    edge i meets row `row` at parameter t and abscissa x.  _edges(v) gives
    the edges of one closed polygon; any set of closed polygons' edges may
    be concatenated.  With groups, edge i meets only the rows r with
    row_group[r] == edge_group[i]; the row groups ascend, and ys ascends
    within each of them.
    Half-open rule: edge (a, b) crosses row y iff min(a.y, b.y) <= y <
    max(a.y, b.y), so a vertex on a row counts once and a horizontal edge
    never."""
    # the rows an edge crosses are one contiguous run of the ascending ys
    keys, lo, hi = ys, np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    if edge_group is not None:
        keys, lo, hi = (_group_keys(g, y) for g, y in ((row_group, ys), (edge_group, lo), (edge_group, hi)))
    first = np.searchsorted(keys, lo, side="left")
    stop = np.searchsorted(keys, hi, side="left")
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
    for sample grids.

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
    a, sizes, _, nxt = _ragged(verts)
    shift = np.repeat(np.cumsum(rows) - rows - row0, sizes)
    return _row_intervals(a, a[nxt], xs, ys, shift, np.repeat(pad, rows))


def _grid_cells(contours, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(contour index, flat cell index row * len(xs) + column) of every point
    of the ascending grid xs x ys inside each contour, contour by contour,
    cells ascending: one _polygon_spans pass."""
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


class ContourSpans(_Frozen):
    """Inside samples of one contour on the global supersample lattice.

    Lattice sample (gx, gy) sits at ((gx + 0.5) / s, (gy + 0.5) / s) whatever
    the contour, so two records compare sample for sample.  Record row r is
    lattice row row0 + r; its inside samples are the lattice columns in
    [lo[r, j], hi[r, j]) for every j.  count is the number of inside samples.
    """

    __slots__ = ("bbox", "supersample", "row0", "lo", "hi", "count")

    def __init__(self, bbox: tuple[float, float, float, float], supersample: int, row0: int, lo: np.ndarray,
                 hi: np.ndarray, count: int) -> None:
        super().__init__(bbox, supersample, row0, lo, hi, count)


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


def _check_extent(low: np.ndarray, high: np.ndarray, s: int) -> None:
    """Raise ValueError unless the lattice indices of coordinates from low to
    high fit int64."""
    if max(-low.min(), high.max()) * s >= 2.0**62:
        raise ValueError("contour coordinates too large for the sample lattice")


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
    _check_extent(low, high, s)
    bboxes = np.concatenate([low, high], axis=1).tolist()
    # each integer-aligned box on the lattice: (x, y) first sample g0, extent n
    g0 = np.floor(low).astype(np.int64)
    n = np.maximum(np.ceil(high).astype(np.int64) - g0, 1) * s
    g0 *= s
    h = n[:, 1]
    records = []
    for i, j in _cuts(h, _SPANS_BLOCK_ROWS):
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


def _removal_deltas(v: np.ndarray, indices) -> list[float]:
    """The relative area change |A_before - A_after| / A_before from deleting
    vertex i, for each vertex index i in `indices` (each in 0 .. m - 1,
    m >= 4), from one set of shoelace terms.  Collinear vertices give
    exactly 0; sharp bends give large values.

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
    bridge = _cross_terms(np.concatenate((v[-1:], v[:-1])), b).tolist()
    terms = terms.tolist()
    out = []
    for i in indices:
        # terms i - 1 and i go; for i = 0 those are the last and the first
        kept = terms[1:-1] if i == 0 else terms[: i - 1] + terms[i + 1 :]
        kept.append(bridge[i])
        after = abs(0.5 * math.fsum(kept))
        out.append(abs(before - after) / before)
    return out
