import numpy as np
import pytest

from fourier_contours import (
    Contour,
    Detection,
    TextInstance,
    evaluate,
    fmeasure,
    polygon_iou,
)


def square(cx, cy, half):
    return Contour(
        [(cx - half, cy - half), (cx + half, cy - half), (cx + half, cy + half), (cx - half, cy + half)]
    )


def det(cx, cy, half, score):
    return Detection(contour=square(cx, cy, half), score=score)


def gt(cx, cy, half, ignore=False, id=""):
    return TextInstance(polygon=square(cx, cy, half), ignore=ignore, id=id)


class TestFmeasure:
    def test_perfect(self):
        assert fmeasure(10, 0, 0) == (1.0, 1.0, 1.0)

    def test_balanced(self):
        p, r, h = fmeasure(6, 2, 2)
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.75)
        assert h == pytest.approx(0.75)

    def test_no_detections_vacuous_precision(self):
        p, r, h = fmeasure(0, 0, 5)
        assert (p, r, h) == (1.0, 0.0, 0.0)

    def test_no_ground_truth_vacuous_recall(self):
        p, r, h = fmeasure(0, 3, 0)
        assert (p, r, h) == (0.0, 1.0, 0.0)

    def test_empty_everything(self):
        assert fmeasure(0, 0, 0) == (1.0, 1.0, 1.0)


class TestEvaluate:
    def test_single_match(self):
        report = evaluate([det(50, 50, 20, 0.9)], [gt(50, 50, 20, id="g0")])
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.hmean == 1.0
        assert report.matches[0].gt_id == "g0"
        assert report.matches[0].iou == pytest.approx(1.0)

    def test_low_iou_is_fp_and_fn(self):
        report = evaluate([det(50, 50, 10, 0.9)], [gt(100, 100, 10, id="g0")])
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_one_to_one_matching(self):
        # two detections on one GT: second becomes a false positive
        dets = [det(50, 50, 20, 0.9), det(51, 50, 20, 0.8)]
        report = evaluate(dets, [gt(50, 50, 20, id="g0")])
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)
        assert report.matches[0].det_index == 0

    def test_score_order_priority(self):
        # lower-scored detection fits better but the higher one claims first
        dets = [det(54, 50, 20, 0.95), det(50, 50, 20, 0.60)]
        report = evaluate(dets, [gt(50, 50, 20, id="g0")], iou_thresh=0.5)
        assert report.matches[0].det_index == 0
        assert (report.tp, report.fp) == (1, 1)

    def test_detection_matches_highest_iou_gt(self):
        gts = [gt(50, 50, 20, id="left"), gt(58, 50, 20, id="right")]
        report = evaluate([det(57, 50, 20, 0.9)], gts, iou_thresh=0.3)
        assert report.matches[0].gt_id == "right"
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)

    def test_ignored_gt_not_counted_and_absorbs_detection(self):
        report = evaluate(
            [det(50, 50, 20, 0.9)], [gt(50, 50, 20, ignore=True, id="dc")]
        )
        # detection discarded, ignored GT not a target
        assert (report.tp, report.fp, report.fn) == (0, 0, 0)
        assert report.hmean == 1.0

    def test_detection_on_real_gt_wins_over_ignored(self):
        # overlaps an ignored region slightly and a real GT strongly
        gts = [gt(50, 50, 20, id="real"), gt(80, 50, 20, ignore=True, id="dc")]
        report = evaluate([det(52, 50, 20, 0.9)], gts, iou_thresh=0.5)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)

    def test_discard_only_when_ignored_is_best_overlap(self):
        # detection overlaps the ignored GT more than the real one, and the
        # real-GT overlap is below threshold: discarded, not a false positive
        gts = [gt(30, 50, 10, id="real"), gt(80, 50, 20, ignore=True, id="dc")]
        d = det(75, 50, 18, 0.9)
        iou_real = polygon_iou(d.contour, gts[0].polygon, 4)
        iou_dc = polygon_iou(d.contour, gts[1].polygon, 4)
        assert iou_real < 0.5 < iou_dc
        report = evaluate([d], gts, iou_thresh=0.5)
        assert (report.tp, report.fp, report.fn) == (0, 0, 1)

    def test_unmatched_detection_below_ignored_thresh_is_fp(self):
        gts = [gt(80, 50, 20, ignore=True, id="dc")]
        d = det(120, 50, 18, 0.9)  # grazes the ignored region
        assert polygon_iou(d.contour, gts[0].polygon, 4) < 0.5
        report = evaluate([d], gts, iou_thresh=0.5)
        assert (report.tp, report.fp, report.fn) == (0, 1, 0)

    def test_tp_plus_fn_is_real_gt_count(self, rng):
        for _ in range(20):
            n_gt = int(rng.integers(0, 5))
            n_det = int(rng.integers(0, 5))
            gts = []
            for i in range(n_gt):
                gts.append(
                    gt(
                        float(rng.integers(20, 200)),
                        float(rng.integers(20, 200)),
                        float(rng.integers(5, 25)),
                        ignore=bool(rng.random() < 0.3),
                        id=f"g{i}",
                    )
                )
            dets = [
                det(
                    float(rng.integers(20, 200)),
                    float(rng.integers(20, 200)),
                    float(rng.integers(5, 25)),
                    float(rng.random()),
                )
                for i in range(n_det)
            ]
            report = evaluate(dets, gts)
            real = sum(1 for g in gts if not g.ignore)
            assert report.tp + report.fn == real
            assert report.tp + report.fp <= n_det

    def test_empty_detections(self):
        report = evaluate([], [gt(50, 50, 20, id="g0")])
        assert (report.precision, report.recall, report.hmean) == (1.0, 0.0, 0.0)

    def test_empty_ground_truth(self):
        report = evaluate([det(50, 50, 20, 0.9)], [])
        assert (report.precision, report.recall) == (0.0, 1.0)

    def test_iou_threshold_strictness(self):
        # detection with IoU just below/above the threshold
        a = det(50, 50, 20, 0.9)
        g = gt(60, 50, 20, id="g0")
        iou = polygon_iou(a.contour, g.polygon, 4)
        below = evaluate([a], [g], iou_thresh=iou + 1e-9)
        at = evaluate([a], [g], iou_thresh=iou)
        assert below.tp == 0
        assert at.tp == 1  # >= comparison
