"""Detection quality scoring with greedy IoU matching.

Detections are visited by descending score (ties by input index) and each is
matched to the unmatched, non-ignored ground-truth polygon with the highest
IoU at or above the threshold.  A detection that fails to match but overlaps
an ignored ground truth best is discarded entirely (neither tp nor fp); this
is how do-not-care regions stay out of the score.  Matching is one-to-one:
a second detection on an already matched ground truth is a false positive.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import DEFAULT_EVAL_IOU, DEFAULT_SUPERSAMPLE
from .geometry import contour_spans_many, spans_iou

__all__ = ["MatchRecord", "EvalReport", "evaluate", "fmeasure"]


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
