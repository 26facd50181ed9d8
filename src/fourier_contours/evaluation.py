"""Detection quality scoring with greedy IoU matching.

Detections are visited by descending score (ties by input index) and each is
matched to the unmatched, non-ignored ground-truth polygon with the highest
IoU at or above the threshold.  A detection that fails to match but overlaps
an ignored ground truth best is discarded entirely (neither tp nor fp); this
is how do-not-care regions stay out of the score.  Matching is one-to-one:
a second detection on an already matched ground truth is a false positive.

The detection line that `fctool decode` writes and `fctool eval` reads is
this module's: detection_lines writes an image's detections, their points
rounded as one block by serialize._record_lines, and parse_detections reads
them, each detection's points through serialize._point_array, the reader of
annotation points, so a detection too has at most config.MAX_VERTICES points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_EVAL_IOU, DEFAULT_SUPERSAMPLE, cell_count
from .geometry import Contour, contour_spans_many, spans_iou
from .serialize import _json_records, _number_list, _point_array, _record_lines

__all__ = ["Detection", "parse_detections", "MatchRecord", "EvalReport", "evaluate", "fmeasure"]

# How far, in image sides, a candidate's bounding box may reach past the
# image before decode._decode_cells, under decode_all and decode_level,
# rejects it.  Rasterizing a contour costs memory linear in its box, so a
# regression map with huge finite values must fail in decode, not in NMS;
# parse_detections bounds detections the same way.
_CANDIDATE_MARGIN = 1.0


class Detection(NamedTuple):
    contour: Contour
    score: float
    level: str = ""


def _beyond_margin(coords: np.ndarray, side: float) -> np.ndarray:
    """Per row of coords, whether it reaches more than _CANDIDATE_MARGIN
    image sides past [0, side]."""
    margin = _CANDIDATE_MARGIN * side
    return (coords.min(axis=-1) < -margin) | (coords.max(axis=-1) > side + margin)


def detection_lines(image_id: str, detections) -> list[str]:
    """The JSON lines, as parse_detections reads them, of image_id's detections."""
    heads = [{"image_id": image_id, "level": det.level, "score": det.score} for det in detections]
    return _record_lines(heads, "points", [det.contour.vertices for det in detections])


def parse_detections(lines, images=(), strides=()) -> dict[str, list[Detection]]:
    """Detections by image id, from detection_lines' JSON lines; a bad line
    raises ParseError naming it, as a detection of more than MAX_VERTICES
    points does.  A detection of one of `images` that reaches
    more than _CANDIDATE_MARGIN image sides past the largest area a map at
    one of `strides` covers (each side rounded up to the stride) is a bad
    record: evaluate rasterizes it on a lattice linear in its box."""

    def covered(side: int) -> int:
        return max(cell_count(side, stride) * stride for stride in strides)

    sizes = {img.image_id: (covered(img.width), covered(img.height)) for img in images}

    def parse(obj: dict, lineno: int) -> tuple[str, Detection]:
        image_id, score, level = obj["image_id"], obj["score"], obj.get("level", "")
        if not isinstance(image_id, str):
            raise TypeError("image_id must be a string")
        # bool is an int subclass, and json reads NaN and Infinity as floats
        if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
            raise TypeError("score must be a finite number")
        if not isinstance(level, str):
            raise TypeError("level must be a string")
        contour = Contour(_point_array(_number_list(obj["points"], "points")))
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


class MatchRecord(NamedTuple):
    det_index: int
    gt_id: str
    iou: float


class EvalReport(NamedTuple):
    precision: float
    recall: float
    hmean: float
    tp: int
    fp: int
    fn: int
    matches: tuple[MatchRecord, ...] = ()


def fmeasure(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, hmean) with vacuous-truth conventions: an empty
    detection set has precision 1, an empty ground truth set has recall 1."""
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    hmean = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, hmean


def evaluate(
    detections, ground_truths, iou_thresh: float = DEFAULT_EVAL_IOU, supersample: int = DEFAULT_SUPERSAMPLE
) -> EvalReport:
    """Score one image's detections against its annotated instances.

    `detections` is a sequence of objects with .contour and .score;
    `ground_truths` a sequence with .polygon, .ignore, and .id.  The ground
    truths and the detections are rasterized once each, by one
    contour_spans_many call per set (blocks of about 4096 lattice rows,
    geometry._SPANS_BLOCK_ROWS), and every IoU is a spans_iou of two records.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must lie in (0, 1], got {iou_thresh}")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    gt_spans = contour_spans_many([gt.polygon for gt in ground_truths], supersample)
    det_spans = contour_spans_many([d.contour for d in detections], supersample)
    matched: set[int] = set()
    matches: list[MatchRecord] = []
    fp = 0
    for det_index in order:
        ious = [spans_iou(det_spans[det_index], g) for g in gt_spans]
        best_gt = -1
        best_iou = 0.0
        for gi, gt in enumerate(ground_truths):
            if gt.ignore or gi in matched or ious[gi] < iou_thresh:
                continue
            if ious[gi] > best_iou:
                best_iou = ious[gi]
                best_gt = gi
        if best_gt >= 0:
            matched.add(best_gt)
            matches.append(MatchRecord(det_index, ground_truths[best_gt].id, best_iou))
            continue
        # no usable match: discard silently when the best overlap at or above
        # the threshold is with a do-not-care region
        top = max(ious, default=0.0)
        ignored_hit = any(
            gt.ignore and ious[gi] >= iou_thresh and ious[gi] == top
            for gi, gt in enumerate(ground_truths)
        )
        if not ignored_hit:
            fp += 1
    tp = len(matches)
    fn = sum(1 for gt in ground_truths if not gt.ignore) - tp
    precision, recall, hmean = fmeasure(tp, fp, fn)
    return EvalReport(
        precision=precision,
        recall=recall,
        hmean=hmean,
        tp=tp,
        fp=fp,
        fn=fn,
        matches=tuple(matches),
    )
