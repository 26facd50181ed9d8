from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import (
    ChannelCountMismatch,
    Contour,
    Detection,
    LevelPrediction,
    PredictionMaps,
    ShapeMismatch,
    decode_all,
    decode_level,
    embed,
    poly_nms,
    polygon_iou,
    reconstruct,
    recenter,
    score_map,
)
from fourier_contours import geometry
from fourier_contours.synth import ribbon
from conftest import star_shaped


def level_for(poly, name="P3", stride=8, grid=(16, 16), hot=(4, 4), k=5):
    """Prediction level with one hot cell carrying the recentered signature."""
    h, w = grid
    tr = np.zeros((h, w))
    tcr = np.zeros((h, w))
    reg = np.zeros((2 * (2 * k + 1), h, w))
    iy, ix = hot
    tr[iy, ix] = 1.0
    tcr[iy, ix] = 1.0
    center = ((ix + 0.5) * stride, (iy + 0.5) * stride)
    reg[:, iy, ix] = recenter(embed(poly, k), center).flat
    return LevelPrediction(name=name, stride=stride, tr_prob=tr, tcr_prob=tcr, regression=reg)


def square(cx, cy, half):
    return Contour(
        [(cx - half, cy - half), (cx + half, cy - half), (cx + half, cy + half), (cx - half, cy + half)]
    )


class TestScoreMap:
    def test_product_of_probabilities(self):
        tr = np.array([[0.5, 1.0], [0.0, 0.8]])
        tcr = np.array([[0.5, 0.25], [1.0, 0.5]])
        assert np.allclose(score_map(tr, tcr), [[0.25, 0.25], [0.0, 0.4]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            score_map(np.zeros((2, 2)), np.zeros((2, 3)))


class TestLevelPrediction:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LevelPrediction("P3", 8, np.full((2, 2), 1.5), np.zeros((2, 2)), np.zeros((22, 2, 2)))

    def test_channel_count_validated(self):
        with pytest.raises(ChannelCountMismatch):
            LevelPrediction("P3", 8, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((21, 2, 2)))

    def test_degree_derived_from_channels(self):
        lp = LevelPrediction("P3", 8, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((22, 2, 2)))
        assert lp.degree == 5


class TestDecodeLevel:
    def test_recovers_instance_from_hot_cell(self):
        poly = square(64, 72, 30)
        lp = level_for(poly, hot=(9, 8))
        dets = decode_level(lp)
        assert len(dets) == 1
        det = dets[0]
        assert det.score == 1.0
        assert det.level == "P3"
        assert polygon_iou(poly, det.contour, 8) > 0.95
        assert len(det.contour) == 50

    def test_threshold_is_inclusive(self):
        poly = square(64, 64, 20)
        lp = level_for(poly)
        weak = LevelPrediction(
            "P3", 8, lp.tr_prob * 0.6, lp.tcr_prob * 0.5, lp.regression
        )
        assert len(decode_level(weak, score_thresh=0.3)) == 1  # 0.30 == 0.30
        assert len(decode_level(weak, score_thresh=0.31)) == 0

    def test_candidates_in_row_major_order(self):
        poly = square(64, 64, 20)
        k = 5
        tr = np.zeros((16, 16))
        tcr = np.zeros((16, 16))
        reg = np.zeros((22, 16, 16))
        cells = [(2, 9), (5, 1), (5, 12), (11, 3)]
        for iy, ix in cells:
            tr[iy, ix] = 1.0
            tcr[iy, ix] = 1.0
            reg[:, iy, ix] = recenter(embed(poly, k), ((ix + 0.5) * 8, (iy + 0.5) * 8)).flat
        lp = LevelPrediction("P3", 8, tr, tcr, reg)
        dets = decode_level(lp, level_rank=2)
        assert [d.origin for d in dets] == [(2, iy * 16 + ix) for iy, ix in cells]

    def test_score_thresh_range_validated(self):
        lp = level_for(square(64, 64, 20))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                decode_level(lp, score_thresh=bad)

    def test_reconstruction_count_parameter(self):
        lp = level_for(square(64, 64, 20))
        dets = decode_level(lp, n_points=17)
        assert len(dets[0].contour) == 17


def brute_nms(dets, thresh, supersample):
    """Direct transcription of the rule: visit by descending score (origin
    breaks ties), keep when IoU with every kept polygon is below threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].origin))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if polygon_iou(dets[i].contour, dets[j].contour, supersample) >= thresh:
                ok = False
                break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


class TestPolyNms:
    def test_keeps_highest_scored_of_cluster(self):
        a = Detection(contour=square(50, 50, 20), score=0.9, origin=(0, 0))
        b = Detection(contour=square(52, 50, 20), score=0.8, origin=(0, 1))
        c = Detection(contour=square(150, 150, 20), score=0.7, origin=(0, 2))
        kept = poly_nms([a, b, c], 0.1)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_tie_broken_by_origin(self):
        a = Detection(contour=square(50, 50, 20), score=0.8, origin=(1, 7))
        b = Detection(contour=square(51, 50, 20), score=0.8, origin=(0, 3))
        kept = poly_nms([a, b], 0.1)
        assert len(kept) == 1
        assert kept[0].origin == (0, 3)

    def test_exhaustive_small_cases_match_brute_force(self, rng):
        for trial in range(120):
            n = int(rng.integers(1, 7))
            dets = []
            for i in range(n):
                cx = float(rng.integers(30, 90))
                cy = float(rng.integers(30, 90))
                half = float(rng.integers(8, 25))
                score = float(rng.choice([0.4, 0.6, 0.6, 0.8, 0.9]))
                dets.append(
                    Detection(contour=square(cx, cy, half), score=score, origin=(0, i))
                )
            got = poly_nms(dets, 0.1, supersample=2)
            want = brute_nms(dets, 0.1, supersample=2)
            assert [d.origin for d in got] == [d.origin for d in want], trial

    def test_empty_input(self):
        assert poly_nms([], 0.1) == []

    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.sampled_from(["star", "ribbon"]),
                st.sampled_from([3.0, 12.0, 40.0]),     # size in px
                st.sampled_from([0.0, 1.0, 2.0]),       # snap: none, integers, halves
                st.sampled_from([0.4, 0.6, 0.6, 0.9]),  # repeated scores force ties
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=8,
        ),
        supersample=st.sampled_from([1, 2, 3, 4, 5, 8]),
        thresh=st.sampled_from([0.05, 0.1, 0.5]),
    )
    def test_span_cache_matches_brute_force(self, shapes, supersample, thresh):
        dets = []
        for i, (kind, size, snap, score, seed) in enumerate(shapes):
            rng = np.random.default_rng(seed)
            cx, cy = rng.uniform(30.0, 60.0, size=2)
            if kind == "star":
                pts = star_shaped(rng, center=(cx, cy), rmin=size / 4, rmax=size).vertices
            else:
                pts = ribbon(cx, cy, 2 * size, size / 3, size * rng.uniform(0.0, 0.3),
                             phase=rng.uniform(0.0, 6.3), points_per_edge=9).vertices
            if snap:
                pts = np.round(pts * snap) / snap
            dets.append(Detection(contour=Contour(pts), score=score, origin=(0, i)))
        got = poly_nms(dets, thresh, supersample=supersample)
        want = brute_nms(dets, thresh, supersample)
        assert [d.origin for d in got] == [d.origin for d in want]


def jittered_candidates(rng, instances, copies, jitter):
    """`copies` candidates per instance, as a noisy regressor gives them:
    each instance a star or a ribbon, each candidate its vertices plus
    N(0, jitter * size) noise, with repeated scores."""
    dets = []
    for n in range(instances):
        size = float(rng.choice([4.0, 12.0, 30.0]))
        cx, cy = rng.uniform(20.0, 90.0, size=2)
        if rng.random() < 0.5:
            base = star_shaped(rng, center=(cx, cy), rmin=size / 2, rmax=size).vertices
        else:
            base = ribbon(cx, cy, 2 * size, size / 2, size * 0.2, phase=rng.uniform(0, 6),
                          points_per_edge=8).vertices
        for c in range(copies):
            pts = base + rng.normal(0.0, jitter * size, base.shape)
            score = float(rng.choice([0.5, 0.7, 0.7, 0.9]))
            dets.append(Detection(contour=Contour(pts), score=score, origin=(n, c)))
    return dets


class TestFilterAndRefine:
    """poly_nms proves suppressions from matching vertices and rasterizes
    only the candidates the bound does not suppress."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        instances=st.integers(1, 4),
        copies=st.integers(1, 12),
        jitter=st.sampled_from([0.01, 0.05, 0.2]),
        supersample=st.sampled_from([1, 2, 3, 4]),
        thresh=st.sampled_from([0.05, 0.1, 0.15, 0.19, 0.2, 0.5, 0.7, 0.9]),
    )
    def test_matches_brute_force_on_dense_candidates(
        self, seed, instances, copies, jitter, supersample, thresh
    ):
        dets = jittered_candidates(np.random.default_rng(seed), instances, copies, jitter)
        got = poly_nms(dets, thresh, supersample=supersample)
        want = brute_nms(dets, thresh, supersample)
        assert [d.origin for d in got] == [d.origin for d in want]

    def test_only_kept_candidates_are_rasterized_in_full(self):
        rng = np.random.default_rng(5)
        dets = []
        for n, center in enumerate([(30.0, 30.0), (90.0, 30.0), (60.0, 90.0)]):
            base = square(*center, 20.0).vertices
            dets += [
                Detection(Contour(base + rng.normal(0.0, 0.3, base.shape)), 0.9 - 0.01 * c, origin=(n, c))
                for c in range(20)
            ]
        with mock.patch.object(geometry, "contour_spans", wraps=geometry.contour_spans) as full:
            kept = poly_nms(dets, 0.1)
        assert [d.origin for d in kept] == [(0, 0), (1, 0), (2, 0)]
        assert full.call_count == 3

    @pytest.mark.parametrize("thresh", [0.1, 0.5, 0.7])
    def test_rasterizes_the_candidates_the_bound_leaves(self, thresh):
        """contour_spans runs once for each candidate that no earlier kept
        contour's vertex bound suppresses, in visit order, and for no other."""
        dets = jittered_candidates(np.random.default_rng(11), 4, 10, 0.05)
        dets.append(Detection(square(60.0, 60.0, 25.0), 0.5, origin=(9, 0)))  # 4 vertices
        with mock.patch.object(geometry, "contour_spans", wraps=geometry.contour_spans) as full:
            kept = poly_nms(dets, thresh)
        assert [d.origin for d in kept] == [d.origin for d in brute_nms(dets, thresh, 4)]
        ordered = sorted(dets, key=lambda d: (-d.score, d.origin))
        rank = {d.origin: i for i, d in enumerate(ordered)}
        left = [
            i
            for i, d in enumerate(ordered)
            if not any(
                rank[k.origin] < i
                and len(k.contour) == len(d.contour)
                and geometry._sym_diff_bound(k.contour.vertices, d.contour.vertices[None], 4)[0]
                <= (1 - thresh) * geometry.contour_spans(k.contour, 4).count
                for k in kept
            )
        ]
        assert [id(call.args[0]) for call in full.call_args_list] == [id(ordered[i].contour) for i in left]
        assert 0 < len(left) < len(dets)


class TestDecodeAll:
    def test_cross_level_duplicates_suppressed(self):
        poly = square(64, 64, 26)  # scale straddles two ranges in a 128 image
        p3 = level_for(poly, name="P3", stride=8, grid=(16, 16), hot=(8, 8))
        p4 = level_for(poly, name="P4", stride=16, grid=(8, 8), hot=(4, 4))
        maps = PredictionMaps("img", 128, 128)
        maps.levels["P3"] = p3
        maps.levels["P4"] = p4
        dets = decode_all(maps)
        assert len(dets) == 1
        # equal scores: the earlier-declared level wins via origin rank
        assert dets[0].level == "P3"

    def test_separate_instances_survive(self):
        a = square(40, 40, 18)
        b = square(100, 100, 18)
        p3a = level_for(a, hot=(5, 5))
        p3b = level_for(b, hot=(12, 12))
        tr = np.maximum(p3a.tr_prob, p3b.tr_prob)
        tcr = np.maximum(p3a.tcr_prob, p3b.tcr_prob)
        reg = p3a.regression + p3b.regression
        maps = PredictionMaps("img", 128, 128)
        maps.levels["P3"] = LevelPrediction("P3", 8, tr, tcr, reg)
        dets = decode_all(maps)
        assert len(dets) == 2
        ious = sorted(
            max(polygon_iou(d.contour, gt, 4) for d in dets) for gt in (a, b)
        )
        assert ious[0] > 0.9

    def test_decoded_contour_round_trip_iou(self):
        # an ellipse is exactly a degree-1 series, so decode is near-lossless
        ang = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = np.stack([64 + 30 * np.cos(ang), 64 + 18 * np.sin(ang)], axis=1)
        poly = Contour(pts)
        lp = level_for(poly, hot=(8, 8))
        det = decode_all_single(lp)
        assert polygon_iou(poly, det.contour, 8) >= 0.99


def decode_all_single(lp):
    maps = PredictionMaps("img", 128, 128)
    maps.levels[lp.name] = lp
    dets = decode_all(maps)
    assert len(dets) == 1
    return dets[0]
