from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import (
    AnnotatedImage,
    ChannelCountMismatch,
    Contour,
    Detection,
    LevelPrediction,
    ParseError,
    PredictionMaps,
    ShapeMismatch,
    decode_all,
    decode_level,
    embed,
    parse_detections,
    poly_nms,
    polygon_iou,
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
        points, scores = decode_level(lp)
        assert points.shape == (1, 50, 2)
        assert scores.tolist() == [1.0]
        assert polygon_iou(poly, Contour(points[0]), 8) > 0.95

    def test_threshold_is_inclusive(self):
        poly = square(64, 64, 20)
        lp = level_for(poly)
        weak = LevelPrediction(
            "P3", 8, lp.tr_prob * 0.6, lp.tcr_prob * 0.5, lp.regression
        )
        assert len(decode_level(weak, score_thresh=0.3)[1]) == 1  # 0.30 == 0.30
        assert len(decode_level(weak, score_thresh=0.31)[1]) == 0

    def test_candidates_in_row_major_order(self):
        # each cell regresses the same square about its own center, with its
        # own score, so both arrays show which cell each candidate came from
        poly = square(0, 0, 20)
        k = 5
        tr = np.zeros((16, 16))
        tcr = np.ones((16, 16))
        reg = np.zeros((22, 16, 16))
        cells = [(2, 9), (5, 1), (5, 12), (11, 3)]
        for score, (iy, ix) in zip([0.6, 0.9, 0.7, 0.8], cells):
            tr[iy, ix] = score
            reg[:, iy, ix] = embed(poly, k).flat
        lp = LevelPrediction("P3", 8, tr, tcr, reg)
        points, scores = decode_level(lp)
        assert scores.tolist() == [0.6, 0.9, 0.7, 0.8]
        centers = [((ix + 0.5) * 8, (iy + 0.5) * 8) for iy, ix in cells]
        assert np.allclose(points.mean(axis=1), centers)

    def test_no_candidates(self):
        lp = level_for(square(64, 64, 20))
        cold = LevelPrediction("P3", 8, lp.tr_prob * 0.1, lp.tcr_prob, lp.regression)
        points, scores = decode_level(cold, n_points=17)
        assert points.shape == (0, 17, 2) and scores.shape == (0,)

    def test_score_thresh_range_validated(self):
        lp = level_for(square(64, 64, 20))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                decode_level(lp, score_thresh=bad)

    def test_reconstruction_count_parameter(self):
        lp = level_for(square(64, 64, 20))
        points, _ = decode_level(lp, n_points=17)
        assert points.shape == (1, 17, 2)


def candidates(contours, scores):
    """poly_nms's input: the contours' vertex arrays stacked, and the scores."""
    return np.stack([c.vertices for c in contours]), np.array(scores, dtype=np.float64)


def brute_nms(points, scores, thresh, supersample):
    """Direct transcription of the rule: visit by descending score (the
    earlier index breaks ties), keep when IoU with every kept polygon is
    below threshold."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if polygon_iou(Contour(points[i]), Contour(points[j]), supersample) >= thresh:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


class TestPolyNms:
    def test_keeps_highest_scored_of_cluster(self):
        points, scores = candidates(
            [square(50, 50, 20), square(52, 50, 20), square(150, 150, 20)], [0.9, 0.8, 0.7]
        )
        assert poly_nms(points, scores, 0.1) == [0, 2]

    def test_kept_in_visit_order(self):
        points, scores = candidates([square(50, 50, 20), square(150, 150, 20)], [0.5, 0.9])
        assert poly_nms(points, scores, 0.1) == [1, 0]

    def test_tie_broken_by_pooled_order(self):
        a, b = square(50, 50, 20), square(51, 50, 20)
        assert poly_nms(*candidates([a, b], [0.8, 0.8]), 0.1) == [0]
        assert poly_nms(*candidates([b, a], [0.8, 0.8]), 0.1) == [0]

    def test_exhaustive_small_cases_match_brute_force(self, rng):
        for trial in range(120):
            n = int(rng.integers(1, 7))
            contours, scores = [], []
            for _ in range(n):
                cx = float(rng.integers(30, 90))
                cy = float(rng.integers(30, 90))
                half = float(rng.integers(8, 25))
                contours.append(square(cx, cy, half))
                scores.append(float(rng.choice([0.4, 0.6, 0.6, 0.8, 0.9])))
            points, scores = candidates(contours, scores)
            got = poly_nms(points, scores, 0.1, supersample=2)
            assert got == brute_nms(points, scores, 0.1, supersample=2), trial

    def test_empty_input(self):
        assert poly_nms(np.empty((0, 4, 2)), np.empty(0), 0.1) == []

    @pytest.mark.parametrize(
        "points_shape, scores_shape",
        [((4, 2), (4,)), ((2, 2, 2), (2,)), ((2, 4, 3), (2,)), ((2, 4, 2), (3,)), ((2, 4, 2), (2, 1))],
    )
    def test_rejects_malformed_arrays(self, points_shape, scores_shape):
        with pytest.raises(ValueError):
            poly_nms(np.zeros(points_shape), np.full(scores_shape, 0.5), 0.1)

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
        contours, scores = [], []
        for kind, size, snap, score, seed in shapes:
            rng = np.random.default_rng(seed)
            cx, cy = rng.uniform(30.0, 60.0, size=2)
            # 18 vertices each, as decoded candidates all have n_prime
            if kind == "star":
                pts = star_shaped(rng, m=18, center=(cx, cy), rmin=size / 4, rmax=size).vertices
            else:
                pts = ribbon(cx, cy, 2 * size, size / 3, size * rng.uniform(0.0, 0.3),
                             phase=rng.uniform(0.0, 6.3), points_per_edge=9).vertices
            if snap:
                pts = np.round(pts * snap) / snap
            contours.append(Contour(pts))
            scores.append(score)
        points, scores = candidates(contours, scores)
        got = poly_nms(points, scores, thresh, supersample=supersample)
        assert got == brute_nms(points, scores, thresh, supersample)


def jittered_candidates(rng, instances, copies, jitter):
    """(points, scores) of `copies` candidates per instance, as a noisy
    regressor gives them: each instance a 16-vertex star or ribbon, each
    candidate its vertices plus N(0, jitter * size) noise, with repeated
    scores."""
    points, scores = [], []
    for _ in range(instances):
        size = float(rng.choice([4.0, 12.0, 30.0]))
        cx, cy = rng.uniform(20.0, 90.0, size=2)
        if rng.random() < 0.5:
            base = star_shaped(rng, m=16, center=(cx, cy), rmin=size / 2, rmax=size).vertices
        else:
            base = ribbon(cx, cy, 2 * size, size / 2, size * 0.2, phase=rng.uniform(0, 6),
                          points_per_edge=8).vertices
        for _ in range(copies):
            points.append(base + rng.normal(0.0, jitter * size, base.shape))
            scores.append(float(rng.choice([0.5, 0.7, 0.7, 0.9])))
    return np.array(points), np.array(scores)


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
        points, scores = jittered_candidates(np.random.default_rng(seed), instances, copies, jitter)
        got = poly_nms(points, scores, thresh, supersample=supersample)
        assert got == brute_nms(points, scores, thresh, supersample)

    def test_only_kept_candidates_are_rasterized_in_full(self):
        rng = np.random.default_rng(5)
        points, scores = [], []
        for center in [(30.0, 30.0), (90.0, 30.0), (60.0, 90.0)]:
            base = square(*center, 20.0).vertices
            points += [base + rng.normal(0.0, 0.3, base.shape) for _ in range(20)]
            scores += [0.9 - 0.01 * c for c in range(20)]
        kept, rasterized = rasterizing(poly_nms, np.array(points), np.array(scores), 0.1)
        assert kept == [0, 20, 40]
        assert [rasterized_index(points, v) for v in rasterized] == [0, 20, 40]

    @pytest.mark.parametrize("thresh", [0.1, 0.5, 0.7])
    def test_rasterizes_the_candidates_the_bound_leaves(self, thresh):
        """A candidate is rasterized at most once, and only where no earlier
        kept contour's vertex bound suppresses it, also where a small budget
        cuts the bound's pairs into many blocks."""
        points, scores = jittered_candidates(np.random.default_rng(11), 4, 10, 0.05)
        order = np.argsort(-scores, kind="stable").tolist()
        rank = {i: r for r, i in enumerate(order)}
        for budget in (geometry._BATCH_ELEMENTS, 40):
            with mock.patch.object(geometry, "_BATCH_ELEMENTS", budget):
                kept, rasterized = rasterizing(poly_nms, points, scores, thresh)
            assert kept == brute_nms(points, scores, thresh, 4)
            index = [rasterized_index(points, v) for v in rasterized]
            assert len(set(index)) == len(index)
            for i in index:
                assert not any(
                    rank[k] < rank[i]
                    and geometry._sym_diff_bound(points[k], points[i][None], 4)[0]
                    <= (1 - thresh) * geometry.contour_spans(Contour(points[k]), 4).count
                    for k in kept
                ), (budget, i)
            assert 0 < len(index) < len(scores)

    def test_waiting_records_are_built_in_one_batch(self):
        """Kept contours whose boxes meet no kept box wait for their records;
        the first candidate whose box meets one of theirs has them built in
        one contour_spans_many call.  A row of disjoint squares waits whole,
        and a duplicate of the last one builds all their records."""
        squares = [square(20.0 + 30.0 * i, 20.0, 10.0).vertices for i in range(5)]
        points = np.array(squares + [squares[-1] + 0.5])
        with mock.patch.object(geometry, "contour_spans_many", wraps=geometry.contour_spans_many) as spans:
            assert poly_nms(points, np.linspace(0.9, 0.4, 6), 0.5) == [0, 1, 2, 3, 4]
        assert [len(call.args[0]) for call in spans.call_args_list] == [5]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clusters=st.integers(2, 5),
        copies=st.integers(1, 5),
        spacing=st.sampled_from([0.4, 0.7, 1.0]),
        jitter=st.sampled_from([0.0, 0.1, 0.5]),
        supersample=st.sampled_from([3, 4]),
        thresh=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        budget=st.sampled_from([geometry._BATCH_ELEMENTS, 40]),
    )
    def test_chained_boxes_match_brute_force(
        self, seed, clusters, copies, spacing, jitter, supersample, thresh, budget
    ):
        """Thin slanted bars in a row, each box reaching into its neighbours'
        boxes while the bars stay apart, so waiting records are built in
        batches again and again.  A small budget cuts a batch's pairs into
        many blocks."""
        rng = np.random.default_rng(seed)
        points, scores = [], []
        for i in range(clusters):
            x0 = 10.0 + 20.0 * spacing * i
            slant = 20.0 if i % 2 else -20.0  # "/" and "\" bars
            corners = np.array([[x0, 40.0], [x0 + 4.0, 40.0], [x0 + 4.0 + slant, 20.0], [x0 + slant, 20.0]])
            base = np.concatenate([a + np.linspace(0.0, 1.0, 4, endpoint=False)[:, None] * (b - a)
                                   for a, b in zip(corners, np.roll(corners, -1, axis=0))])
            for _ in range(copies):
                points.append(base + rng.normal(0.0, jitter, base.shape))
                scores.append(float(rng.choice([0.5, 0.7, 0.7, 0.9])))
        points, scores = np.array(points), np.array(scores)
        with mock.patch.object(geometry, "_BATCH_ELEMENTS", budget):
            got = poly_nms(points, scores, thresh, supersample)
        assert got == brute_nms(points, scores, thresh, supersample)


def rasterizing(call, *args):
    """call(*args), and the vertex arrays of every contour it rasterized, in
    order.  contour_spans is contour_spans_many with a batch of one, so the
    spy on contour_spans_many sees both entry points."""
    with mock.patch.object(geometry, "contour_spans_many", wraps=geometry.contour_spans_many) as spans:
        result = call(*args)
    return result, [c.vertices for call in spans.call_args_list for c in call.args[0]]


def rasterized_index(points, vertices) -> int:
    """The index of the candidate whose vertex array vertices is."""
    (index,) = [i for i, p in enumerate(points) if np.array_equal(p, vertices)]
    return index


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
        # equal scores: the earlier-declared level comes first in the pool
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

    def test_kept_candidates_become_detections(self):
        det = decode_all_single(level_for(square(64, 72, 30), name="P4", hot=(9, 8)))
        assert (det.score, det.level, len(det.contour)) == (1.0, "P4", 50)

    def test_no_levels(self):
        assert decode_all(PredictionMaps("img", 128, 128)) == []


def decode_all_single(lp):
    maps = PredictionMaps("img", 128, 128)
    maps.levels[lp.name] = lp
    dets = decode_all(maps)
    assert len(dets) == 1
    return dets[0]


class TestParseDetections:
    LINES = [
        '{"image_id": "a", "level": "P3", "score": 0.9, "points": [10, 10, 70, 10, 70, 40]}',
        "",
        '{"image_id": "b", "score": 1, "points": [8, 8, 56, 8, 56, 32, 8, 32]}',
        '{"image_id": "a", "level": "P4", "score": 0.5, "points": [0, 0, 4, 0, 4, 4]}',
    ]

    def test_groups_by_image_in_line_order(self):
        grouped = parse_detections(self.LINES)
        assert list(grouped) == ["a", "b"]
        assert [(d.level, d.score) for d in grouped["a"]] == [("P3", 0.9), ("P4", 0.5)]
        det = grouped["b"][0]
        assert isinstance(det, Detection) and det.level == "" and det.score == 1.0
        assert np.array_equal(det.contour.vertices, [[8, 8], [56, 8], [56, 32], [8, 32]])

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"image_id": 3, "score": 0.5, "points": [0, 0, 4, 0, 4, 4]}', "image_id must be a string"),
            ('{"image_id": "a", "score": true, "points": [0, 0, 4, 0, 4, 4]}', "score must be a finite number"),
            ('{"image_id": "a", "score": NaN, "points": [0, 0, 4, 0, 4, 4]}', "score must be a finite number"),
            ('{"image_id": "a", "score": 0.5, "level": 3, "points": [0, 0, 4, 0, 4, 4]}', "level must be a string"),
            ('{"image_id": "a", "score": 0.5, "points": [0, 0, 4, 0, 4]}', "bad detection record"),
            ('{"image_id": "a", "score": 0.5}', "'points'"),
        ],
    )
    def test_a_bad_record_names_its_line(self, record, message):
        with pytest.raises(ParseError) as info:
            parse_detections(self.LINES[:1] + [record])
        assert str(info.value).startswith("line 2: bad detection record: ") and message in str(info.value)

    def test_margin_is_one_side_past_what_the_maps_cover(self):
        # 100 x 60 px: stride 16 covers 112 x 64, stride 12 covers 108 x 60
        images = [AnnotatedImage("a", 100, 60)]
        inside = '{"image_id": "a", "score": 0.5, "points": [-112, -64, 224, -64, 224, 128]}'
        assert len(parse_detections([inside], images, [12, 16])["a"]) == 1
        for far in ('{"image_id": "a", "score": 0.5, "points": [-113, 0, 4, 0, 4, 4]}',
                    '{"image_id": "a", "score": 0.5, "points": [0, 0, 4, 0, 4, 129]}'):
            with pytest.raises(ParseError, match="past the 112 x 64 px image"):
                parse_detections([far], images, [12, 16])
            assert len(parse_detections([far])["a"]) == 1  # no images: no bound
        far_other = '{"image_id": "b", "score": 0.5, "points": [0, 0, 1e9, 0, 4, 4]}'
        assert list(parse_detections([far_other], images, [12, 16])) == ["b"]
