"""Turning dense prediction maps back into text contours.

Per level: the detection score of a cell is the product of its text-region
and text-center-region probabilities.  Cells at or above the score threshold
contribute a candidate contour, reconstructed from the cell's regression
vector after adding the cell center (config.cell_centers, where the targets
were painted) back onto c_0.  Candidates from all levels are pooled and
reduced by greedy polygon non-maximum suppression.

Everything is ordered: cells are visited row-major, levels in their declared
order, and all score ties break toward the earlier level, then the earlier
cell, so output is the same byte-for-byte on every run.  Candidates stay one
(M, n, 2) array from the series evaluation through NMS, which reads it in
score order in place; only the kept ones become Detection objects, which
evaluation defines and reads back, with the candidate margin.  The maps
arrive as mapdir's records, PredictionMaps of LevelPredictions, which
mapdir.read_prediction_maps reads level by level as decode_all reaches them.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_NMS_IOU, DEFAULT_RECON_POINTS, DEFAULT_SCORE_THRESH, DEFAULT_SUPERSAMPLE, cell_centers
from .contours import Contour, _cuts
from .errors import InvalidPolygon, ShapeMismatch
from .evaluation import _CANDIDATE_MARGIN, Detection, _beyond_margin
from .fourier import evaluate_series, flat_to_coeffs
from .geometry import ContourSpans, _check_extent, contour_spans, contour_spans_many, spans_iou
from .mapdir import LevelPrediction, PredictionMaps

__all__ = ["score_map", "decode_level", "poly_nms", "decode_all"]


def score_map(tr_prob: np.ndarray, tcr_prob: np.ndarray) -> np.ndarray:
    """Cell detection scores: elementwise product of the two probabilities."""
    tr = np.asarray(tr_prob, dtype=np.float64)
    tcr = np.asarray(tcr_prob, dtype=np.float64)
    if tr.shape != tcr.shape:
        raise ShapeMismatch(f"shape mismatch: {tr.shape} vs {tcr.shape}")
    return tr * tcr


def _candidates(pred: LevelPrediction, score_thresh: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (iy, ix) cells of one level whose score reaches score_thresh, in
    row-major order, and their scores."""
    if not 0.0 < score_thresh < 1.0:
        raise ValueError(f"score threshold must lie in (0, 1), got {score_thresh}")
    scores = score_map(pred.tr_prob, pred.tcr_prob)
    iy, ix = np.nonzero(scores >= score_thresh)  # np.nonzero is row-major
    return iy, ix, scores[iy, ix]


def decode_level(
    pred: LevelPrediction,
    score_thresh: float = DEFAULT_SCORE_THRESH,
    n_points: int = DEFAULT_RECON_POINTS,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate contours of one level as (points, scores): points is
    (M, n_points, 2) and scores (M,), both in row-major cell order.  points
    is a float64 view of the complex series, or `out` when given: a
    C-contiguous float64 (M, n_points, 2) array the series is written into.

    The level's map covers an image of (W * stride) x (H * stride) px.  A
    candidate whose bounding box reaches past it by more than _CANDIDATE_MARGIN
    image sides on either axis raises ValueError naming the level and cell.
    """
    return _decode_cells(pred, *_candidates(pred, score_thresh), n_points, out)


def _decode_cells(
    pred: LevelPrediction, iy: np.ndarray, ix: np.ndarray, scores: np.ndarray, n_points: int, out: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """decode_level's (points, scores) of the candidate cells (iy, ix) of
    scores `scores`, as _candidates finds them."""
    flat = pred.regression[:, iy, ix].T  # (M, C)
    coeffs = flat_to_coeffs(flat)
    height, width = pred.tr_prob.shape
    xs, ys = cell_centers(width, pred.stride), cell_centers(height, pred.stride)
    coeffs[:, pred.degree] += xs[ix] + 1j * ys[iy]
    # the points' (x, y) pairs are the series' (real, imag) pairs in memory
    pts = evaluate_series(coeffs, n_points, None if out is None else out.view(np.complex128)[..., 0])
    out_of_bounds = _beyond_margin(pts.real, width * pred.stride) | _beyond_margin(
        pts.imag, height * pred.stride
    )
    if out_of_bounds.any():
        row = int(np.argmax(out_of_bounds))
        raise ValueError(
            f"{pred.name}: the candidate of cell (row {iy[row]}, column {ix[row]}) reaches "
            f"more than {_CANDIDATE_MARGIN:g} image side past the "
            f"{width * pred.stride} x {height * pred.stride} px image"
        )
    if out is None:
        out = pts.view(np.float64).reshape(pts.shape + (2,))
    return out, scores


def _sym_diff_bound(k: np.ndarray, c: np.ndarray, s: int) -> np.ndarray:
    """D[i] >= the lattice-s samples inside exactly one of the vertex arrays
    k and c[i] (c is (P, n, 2)), as contour_spans records count them.  k is
    one (n, 2) array bounded against every c[i], or (P, n, 2) pairs k[i] with
    c[i]; the float operations of a pair are the same either way.

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
    r = 2.0**-40 * (np.maximum(np.abs(k).max(axis=(-2, -1)), np.abs(c).max(axis=(1, 2))) + 1.0)[:, None]
    kn, cn = (np.concatenate((a[..., 1:, :], a[..., :1, :]), axis=-2) for a in (k, c))
    d = np.maximum(np.maximum(k, kn), np.maximum(c, cn))
    d -= np.minimum(np.minimum(k, kn), np.minimum(c, cn))
    width = d[..., 0] + d[..., 1] + 4 * r  # not .sum(axis=2): a reduction over 2 is slow
    del d  # each (pairs, n, 2) buffer is freed once used, as blocks are large
    u, v, w = kn - k, c - k, cn - k  # corners k_j+1, c_j, c_j+1 less k_j
    del kn, cn
    uv = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    uw = u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
    vw = v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]
    del u, v, w
    area = (np.abs(uv) + np.abs(uw) + np.abs(vw) + np.abs(vw + uv - uw)) / 4
    return (s * s * (area + 2 * r * width) + s * width + 1).sum(axis=1) * (1 + 2.0**-20)


def _greedy_nms(points: np.ndarray, order: np.ndarray, iou_thresh: float, supersample: int) -> list[int]:
    """poly_nms's kept indices into points (M, n, 2), visiting the
    candidates in the order `order`, a permutation of range(M), and testing
    IoU by spans_iou.  points is read in place, a few rows at a time; only
    the boxes are kept in visit order.

    A live candidate whose box meets no kept box is kept unrasterized, and
    its record waits.  When a live candidate's box meets a waiting box, every
    waiting contour gets its record from one contour_spans_many call.  A kept
    k with a record bounds every later live candidate c whose box meets its
    own, a batch's pairs in blocks of _sym_diff_bound calls, and suppresses c
    unrasterized where D <= (1 - iou_thresh) |k|: with d1 samples of k
    outside c and d2 of c outside k, d1 + d2 <= D, the IoU (|k| - d1) / (|k|
    + d2) is at least 1 - D / |k|.  A candidate still live after that gets
    its contour_spans record and the exact test against the kept contours
    whose boxes meet its own.

    Deferring a waiting contour's bound changes no decision: the bound
    suppresses the same candidates whenever it is applied, and every live
    candidate between a waiting contour and the one that builds its record
    has a box that misses its box.  A waiting contour whose box no later
    live candidate's box meets is never rasterized.
    """
    s = int(supersample)
    # per coordinate: a reduction over axis 1 of the (M, n, 2) pool is slow
    x, y = points[..., 0], points[..., 1]
    boxes = np.stack([x.min(axis=1), y.min(axis=1), x.max(axis=1), y.max(axis=1)], axis=1)[order]
    if len(points):  # checked here, as a candidate may be kept unrasterized
        _check_extent(boxes[:, :2], boxes[:, 2:], s)
        if not np.isfinite(boxes).all():  # a row's min or max is nan or inf iff one of its points is
            raise InvalidPolygon("coordinates must be finite")

    def meets(a, b):
        return (a[..., 2] > b[..., 0]) & (b[..., 2] > a[..., 0]) & (a[..., 3] > b[..., 1]) & (b[..., 3] > a[..., 1])

    live = np.ones(len(points), dtype=bool)

    def suppress(ks, counts, t):
        """Bound each kept ks[j], of counts[j] inside samples, against the
        live candidates from t on whose boxes meet its own."""
        ks, limit = np.array(ks), (1 - iou_thresh) * np.array(counts)
        later = t + np.flatnonzero(live[t:])
        for a, b in _cuts(np.full(ks.size, later.size)):
            pk, pc = np.nonzero(meets(boxes[ks[a:b], None], boxes[later]))
            for i, j in _cuts(np.full(pk.size, points[0].size)):
                k, c = a + pk[i:j], later[pc[i:j]]
                live[c[_sym_diff_bound(points[order[ks[k]]], points[order[c]], s) <= limit[k]]] = False

    kept: dict[int, ContourSpans | None] = {}  # kept visit position -> its record, None while it waits
    waiting: list[int] = []
    for i in range(len(points)):
        if not live[i]:
            continue
        idx = np.fromiter(kept, dtype=np.intp, count=len(kept))
        near = idx[meets(boxes[idx], boxes[i])].tolist()
        if not near:
            kept[i] = None
            waiting.append(i)
            continue
        if any(kept[j] is None for j in near):
            recs = contour_spans_many([Contour(points[order[j]]) for j in waiting], s)
            kept.update(zip(waiting, recs))
            suppress(waiting, [rec.count for rec in recs], i)
            waiting = []
            if not live[i]:
                continue
        rec = contour_spans(Contour(points[order[i]]), s)
        if any(spans_iou(rec, kept[j]) >= iou_thresh for j in near):
            continue
        kept[i] = rec
        suppress([i], [rec.count], i + 1)
    return order[np.fromiter(kept, dtype=np.intp, count=len(kept))].tolist()


def poly_nms(
    points,
    scores,
    iou_thresh: float = DEFAULT_NMS_IOU,
    supersample: int = DEFAULT_SUPERSAMPLE,
) -> list[int]:
    """Greedy polygon NMS over candidates points (M, n, 2) with scores (M,):
    the indices of the kept candidates, in visit order.

    Candidates are visited by descending score, ties broken by the earlier
    index; one is kept iff its polygon_iou with every already-kept contour
    is strictly below the threshold, so a pair whose bounding boxes are
    disjoint, of IoU 0, never suppresses.  _greedy_nms decides, without
    rasterizing most candidates.
    """
    if not 0.0 < iou_thresh < 1.0:
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {iou_thresh}")
    if int(supersample) < 1:
        raise ValueError(f"supersample must be >= 1, got {supersample}")
    points = np.asarray(points, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if points.ndim != 3 or points.shape[1] < 3 or points.shape[2] != 2:
        raise ValueError(f"candidate points must be an (M, n >= 3, 2) array, got shape {points.shape}")
    if scores.shape != points.shape[:1]:
        raise ValueError(f"scores must be an ({points.shape[0]},) array, got shape {scores.shape}")
    return _greedy_nms(points, np.argsort(-scores, kind="stable"), iou_thresh, supersample)


def decode_all(
    maps: PredictionMaps,
    score_thresh: float = DEFAULT_SCORE_THRESH,
    nms_iou: float = DEFAULT_NMS_IOU,
    n_points: int = DEFAULT_RECON_POINTS,
    supersample: int = DEFAULT_SUPERSAMPLE,
) -> list[Detection]:
    """Decode every level, then suppress across the pooled candidates, so the
    same instance seen at two strides yields a single detection.  The pool
    runs level by level in declared order, each level row-major, so equal
    scores go to the earlier level, then the earlier cell.

    The pool is one (M, n_points, 2) array, sized from the candidate cells
    that _candidates finds on each level and filled by _decode_cells level by
    level, which applies the candidate bound.  maps.levels is iterated once,
    and each level dropped once its candidates are in the pool: the maps of
    mapdir.read_prediction_maps, read as iteration reaches them, are then
    freed before NMS.
    """
    levels = list(maps.levels)
    if not levels:
        return []
    names = [lp.name for lp in levels]
    cells = [_candidates(lp, score_thresh) for lp in levels]
    counts = [len(level_scores) for _, _, level_scores in cells]
    stops = np.cumsum(counts).tolist()
    points = np.empty((stops[-1], n_points, 2))
    scores = np.empty(stops[-1])
    for i, (count, stop) in enumerate(zip(counts, stops)):
        rows = slice(stop - count, stop)
        _, scores[rows] = _decode_cells(levels[i], *cells[i], n_points, points[rows])
        levels[i] = cells[i] = None
    rank = np.repeat(np.arange(len(names)), counts)
    return [
        Detection(Contour(points[i]), float(scores[i]), names[rank[i]])
        for i in poly_nms(points, scores, nms_iou, supersample)
    ]
