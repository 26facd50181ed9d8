"""Turning dense prediction maps back into text contours.

Per level: the detection score of a cell is the product of its text-region
and text-center-region probabilities.  Cells at or above the score threshold
contribute a candidate contour, reconstructed from the cell's regression
vector after adding the cell center (targets.cell_centers, where the targets
were painted) back onto c_0.  Candidates from all levels are pooled and
reduced by greedy polygon non-maximum suppression.

Everything is ordered: cells are visited row-major, levels in their declared
order, and all score ties break toward the earlier level, then the earlier
cell, so output is the same byte-for-byte on every run.  Candidates stay one
(M, n, 2) array from the series evaluation through NMS; only the kept ones
become Detection objects.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .annotations import _number_list
from .errors import ChannelCountMismatch, ShapeMismatch
from .fourier import DEFAULT_RECON_POINTS, evaluate_series, flat_to_coeffs
from .geometry import DEFAULT_SUPERSAMPLE, Contour, _Frozen, _Record, _greedy_nms
from .serialize import _json_records
from .targets import cell_centers, cell_count

__all__ = [
    "LevelPrediction",
    "PredictionMaps",
    "Detection",
    "parse_detections",
    "score_map",
    "decode_level",
    "poly_nms",
    "decode_all",
]

DEFAULT_SCORE_THRESH = 0.3
DEFAULT_NMS_IOU = 0.1

# How far, in image sides, a candidate's bounding box may reach past the
# image before decode_level rejects it.  Rasterizing a contour costs memory
# linear in its box, so a regression map with huge finite values must fail
# here rather than in NMS.  parse_detections bounds detections by the same rule.
_CANDIDATE_MARGIN = 1.0


class LevelPrediction(_Frozen):
    """Predicted maps of one pyramid level: tr_prob and tcr_prob (H, W) in
    [0, 1], regression (2 * (2K + 1), H, W)."""

    __slots__ = ("name", "stride", "tr_prob", "tcr_prob", "regression")

    def __init__(self, name: str, stride: int, tr_prob: np.ndarray, tcr_prob: np.ndarray,
                 regression: np.ndarray) -> None:
        tr = np.asarray(tr_prob, dtype=np.float64)
        tcr = np.asarray(tcr_prob, dtype=np.float64)
        reg = np.asarray(regression, dtype=np.float64)
        if tr.ndim != 2 or tr.shape != tcr.shape:
            raise ShapeMismatch(
                f"tr {tr.shape} and tcr {tcr.shape} must be equal 2-d shapes"
            )
        if reg.ndim != 3 or reg.shape[1:] != tr.shape:
            raise ShapeMismatch(
                f"regression {reg.shape} must be (C, {tr.shape[0]}, {tr.shape[1]})"
            )
        c = reg.shape[0]
        if c % 2 or (c // 2) % 2 == 0:
            raise ChannelCountMismatch(
                f"regression needs 2 * (2K + 1) channels, got {c}"
            )
        for label, arr in (("tr", tr), ("tcr", tcr)):
            if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{label} probabilities must lie in [0, 1]")
        if not np.isfinite(reg).all():
            raise ValueError("regression channels must be finite")
        super().__init__(name, stride, tr, tcr, reg)

    @property
    def degree(self) -> int:
        return (self.regression.shape[0] // 2 - 1) // 2


class PredictionMaps(_Record):
    __slots__ = ("image_id", "width", "height", "levels")

    def __init__(self, image_id: str, width: int, height: int,
                 levels: dict[str, LevelPrediction] | None = None) -> None:
        super().__init__(image_id, width, height, {} if levels is None else levels)


class Detection(NamedTuple):
    contour: Contour
    score: float
    level: str = ""


def parse_detections(lines, images=(), strides=()) -> dict[str, list[Detection]]:
    """Detections by image id, from the JSON lines `fctool decode` writes; a
    bad line raises ParseError naming it.  A detection of one of `images`
    that reaches more than _CANDIDATE_MARGIN image sides past the largest
    area a map at one of `strides` covers (each side rounded up to the
    stride) is a bad record: evaluation rasterizes it on a lattice linear in
    its box."""

    def covered(side: int) -> int:
        return max(cell_count(side, stride) * stride for stride in strides)

    sizes = {img.image_id: (covered(img.width), covered(img.height)) for img in images}

    def parse(obj) -> tuple[str, Detection]:
        image_id, score, level = obj["image_id"], obj["score"], obj.get("level", "")
        if not isinstance(image_id, str):
            raise TypeError("image_id must be a string")
        # bool is an int subclass, and json reads NaN and Infinity as floats
        if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
            raise TypeError("score must be a finite number")
        if not isinstance(level, str):
            raise TypeError("level must be a string")
        contour = Contour.from_flat(_number_list(obj["points"], "points"))
        if image_id in sizes:
            width, height = sizes[image_id]
            v = contour.vertices.T
            if (_beyond_margin(v[0], width) | _beyond_margin(v[1], height)).any():
                raise ValueError(
                    f"image {image_id!r}: the detection reaches more than "
                    f"{_CANDIDATE_MARGIN:g} image side past the {width} x {height} px image"
                )
        return image_id, Detection(contour, float(score), level)

    grouped: dict[str, list[Detection]] = {}
    for image_id, det in _json_records(lines, "detection", parse):
        grouped.setdefault(image_id, []).append(det)
    return grouped


def score_map(tr_prob: np.ndarray, tcr_prob: np.ndarray) -> np.ndarray:
    """Cell detection scores: elementwise product of the two probabilities."""
    tr = np.asarray(tr_prob, dtype=np.float64)
    tcr = np.asarray(tcr_prob, dtype=np.float64)
    if tr.shape != tcr.shape:
        raise ShapeMismatch(f"shape mismatch: {tr.shape} vs {tcr.shape}")
    return tr * tcr


def _beyond_margin(coords: np.ndarray, side: float) -> np.ndarray:
    """Per row of coords, whether it reaches more than _CANDIDATE_MARGIN
    image sides past [0, side]."""
    margin = _CANDIDATE_MARGIN * side
    return (coords.min(axis=-1) < -margin) | (coords.max(axis=-1) > side + margin)


def decode_level(
    pred: LevelPrediction,
    score_thresh: float = DEFAULT_SCORE_THRESH,
    n_points: int = DEFAULT_RECON_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate contours of one level as (points, scores): points is
    (M, n_points, 2) and scores (M,), both in row-major cell order.

    The level's map covers an image of (W * stride) x (H * stride) px.  A
    candidate whose bounding box reaches past it by more than _CANDIDATE_MARGIN
    image sides on either axis raises ValueError naming the level and cell.
    """
    if not 0.0 < score_thresh < 1.0:
        raise ValueError(f"score threshold must lie in (0, 1), got {score_thresh}")
    scores = score_map(pred.tr_prob, pred.tcr_prob)
    iy, ix = np.nonzero(scores >= score_thresh)  # np.nonzero is row-major
    flat = pred.regression[:, iy, ix].T  # (M, C)
    coeffs = flat_to_coeffs(flat)
    height, width = pred.tr_prob.shape
    xs, ys = cell_centers(width, pred.stride), cell_centers(height, pred.stride)
    coeffs[:, pred.degree] += xs[ix] + 1j * ys[iy]
    pts = evaluate_series(coeffs, n_points)  # (M, n_points) complex
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
    return np.stack([pts.real, pts.imag], axis=-1), scores[iy, ix]


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
    kept, proving most suppressions from the candidates' matching vertices.
    A kept candidate is rasterized only once a later live candidate's box
    meets its own, together with every other kept one then waiting; the
    others' spans are found one candidate at a time, for the exact test.
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
    order = np.argsort(-scores, kind="stable")
    return order[_greedy_nms(points[order], iou_thresh, supersample)].tolist()


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
    scores go to the earlier level, then the earlier cell."""
    found = [decode_level(pred, score_thresh, n_points) for pred in maps.levels.values()]
    if not found:
        return []
    points, scores = (np.concatenate(arrays) for arrays in zip(*found))
    names = list(maps.levels)
    rank = np.repeat(np.arange(len(names)), [len(sc) for _, sc in found])
    return [
        Detection(Contour(points[i]), float(scores[i]), names[rank[i]])
        for i in poly_nms(points, scores, nms_iou, supersample)
    ]
