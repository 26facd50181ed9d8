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
arrive as mapdir's records, PredictionMaps of LevelPredictions.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_NMS_IOU, DEFAULT_RECON_POINTS, DEFAULT_SCORE_THRESH, DEFAULT_SUPERSAMPLE, cell_centers
from .errors import ShapeMismatch
# parse_detections is not used here; it stays importable from decode as well
from .evaluation import _CANDIDATE_MARGIN, Detection, _beyond_margin, parse_detections
from .fourier import evaluate_series, flat_to_coeffs
from .geometry import Contour, _greedy_nms
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
    *,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate contours of one level as (points, scores): points is
    (M, n_points, 2) and scores (M,), both in row-major cell order.  points
    is a float64 view of the complex series, or `out` when given: a
    C-contiguous float64 (M, n_points, 2) array the series is written into.
    `cells` is the level's candidate cells and scores, as _candidates(pred,
    score_thresh) gives them, when the caller has them already.

    The level's map covers an image of (W * stride) x (H * stride) px.  A
    candidate whose bounding box reaches past it by more than _CANDIDATE_MARGIN
    image sides on either axis raises ValueError naming the level and cell.
    """
    iy, ix, scores = _candidates(pred, score_thresh) if cells is None else cells
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
    is strictly below the threshold.  Pairs with disjoint bounding boxes
    have IoU 0 and are skipped.  geometry._greedy_nms decides which are
    kept, reading points in visit order in place, and proves most
    suppressions from the candidates' matching vertices.  A kept candidate
    is rasterized only once a later live candidate's box meets its own,
    together with every other kept one then waiting; the others' spans are
    found one candidate at a time, for the exact test.
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

    The pool is one (M, n_points, 2) array, sized from the levels' candidate
    cells and filled by decode_level level by level.  Each level is looked up
    in maps.levels once, and dropped once its candidates are in the pool:
    the maps of mapdir.read_prediction_maps, read at lookup, are then freed
    before NMS.
    """
    names = list(maps.levels)
    if not names:
        return []
    levels = [maps.levels[name] for name in names]
    cells = [_candidates(lp, score_thresh) for lp in levels]
    counts = [len(sc) for _, _, sc in cells]
    stops = np.cumsum(counts).tolist()
    points = np.empty((stops[-1], n_points, 2))
    scores = np.empty(stops[-1])
    for i, (count, stop) in enumerate(zip(counts, stops)):
        rows = slice(stop - count, stop)
        _, scores[rows] = decode_level(levels[i], score_thresh, n_points, out=points[rows], cells=cells[i])
        levels[i] = cells[i] = None
    rank = np.repeat(np.arange(len(names)), counts)
    return [
        Detection(Contour(points[i]), float(scores[i]), names[rank[i]])
        for i in poly_nms(points, scores, nms_iou, supersample)
    ]
