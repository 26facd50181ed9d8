import json

import numpy as np
import pytest

from fourier_contours import (
    AnnotatedImage,
    Contour,
    ParseError,
    TextInstance,
    curved_subset_select,
    parse_jsonl,
    write_jsonl,
)
from fourier_contours.config import MAX_VERTICES
from fourier_contours.serialize import round9
from fourier_contours.synth import rect14, ribbon


def one_image(points=(0, 0, 10, 0, 10, 5, 0, 5), **extra):
    inst = {"points": list(points)}
    inst.update(extra)
    return json.dumps(
        {"image_id": "a", "width": 100, "height": 80, "instances": [inst]}
    )


class TestParseJsonl:
    def test_minimal_image(self):
        images, clamped = parse_jsonl([one_image()])
        assert clamped == 0
        assert len(images) == 1
        img = images[0]
        assert (img.image_id, img.width, img.height) == ("a", 100, 80)
        inst = img.instances[0]
        assert not inst.ignore
        assert inst.id == "i0"
        assert inst.polygon.flat() == [0, 0, 10, 0, 10, 5, 0, 5]

    def test_ignore_and_id_fields(self):
        images, _ = parse_jsonl([one_image(ignore=True, id="word7")])
        inst = images[0].instances[0]
        assert inst.ignore and inst.id == "word7"

    def test_blank_lines_skipped(self):
        images, _ = parse_jsonl(["", one_image(), "   "])
        assert len(images) == 1

    def test_clamps_out_of_bounds_and_counts(self):
        images, clamped = parse_jsonl([one_image(points=[-5, 0, 10, 0, 10, 90, -5, 90])])
        assert clamped == 3  # (-5,0), (10,90), (-5,90) move; (10,0) stays
        flat = images[0].instances[0].polygon.flat()
        assert flat == [0, 0, 10, 0, 10, 80, 0, 80]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_jsonl([one_image(), "{not json"])
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"width": 1, "height": 1, "instances": []}',  # missing image_id
            '{"image_id": "a", "width": 0, "height": 5, "instances": []}',
            '{"image_id": "a", "width": 5, "height": 5, "instances": [{"points": [1, 2, 3]}]}',
            '{"image_id": "a", "width": 5, "height": 5, "instances": [{"points": [0, 0, 1, 0]}]}',
            '{"image_id": "a", "width": 5, "height": 5, "instances": [{"points": "zz"}]}',
            '{"image_id": "a", "width": 5, "height": 5, "instances": [{"points": [0, 0, 1, 0, 1, null]}]}',
        ],
    )
    def test_malformed_records_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_jsonl([bad])

    def test_duplicate_instance_ids_rejected(self):
        line = json.dumps(
            {
                "image_id": "a",
                "width": 50,
                "height": 50,
                "instances": [
                    {"id": "x", "points": [0, 0, 5, 0, 5, 5]},
                    {"id": "x", "points": [10, 10, 20, 10, 20, 20]},
                ],
            }
        )
        with pytest.raises(ParseError):
            parse_jsonl([line])

    def test_duplicate_image_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_jsonl([one_image(), one_image()])

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"ignore": "false"}, "ignore must be true or false"),
            ({"ignore": 0}, "ignore must be true or false"),
            ({"ignore": None}, "ignore must be true or false"),
            ({"id": None}, "id must be a string"),
            ({"id": 7}, "id must be a string"),
            ({"points": [True, True, 10, 0, 10, 5, 0, 5]}, "points must be a flat list of numbers"),
        ],
    )
    def test_instance_field_types_are_checked_not_coerced(self, extra, message):
        with pytest.raises(ParseError, match=f"line 2: .*{message}"):
            parse_jsonl([one_image(), one_image(**extra).replace('"a"', '"b"', 1)])

    def test_vertex_count_is_capped(self):
        ang = np.linspace(0.0, 2.0 * np.pi, MAX_VERTICES, endpoint=False)
        ring = np.stack([50 + 30 * np.cos(ang), 40 + 30 * np.sin(ang)], axis=1)
        images, _ = parse_jsonl([one_image(points=ring.ravel().tolist())])
        assert len(images[0].instances[0].polygon) == MAX_VERTICES
        ang = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        ring = np.stack([50 + 30 * np.cos(ang), 40 + 30 * np.sin(ang)], axis=1)
        with pytest.raises(ParseError, match=f"line 2: need 3 to {MAX_VERTICES} points, got 2000"):
            parse_jsonl(["", one_image(points=ring.ravel().tolist())])


class TestWriteJsonl:
    def test_round_trip(self):
        src = AnnotatedImage(
            image_id="img1",
            width=64,
            height=32,
            instances=(
                TextInstance(polygon=Contour([(1, 2), (10, 2), (10, 9), (1, 9)]), id="t0"),
                TextInstance(
                    polygon=Contour([(20, 4), (30, 4), (30, 8)]), ignore=True, id="t1"
                ),
            ),
        )
        lines = write_jsonl([src], fmt=round9)
        images, clamped = parse_jsonl(lines)
        assert clamped == 0
        got = images[0]
        assert got.image_id == "img1"
        assert [i.id for i in got.instances] == ["t0", "t1"]
        assert [i.ignore for i in got.instances] == [False, True]
        assert got.instances[0].polygon.flat() == src.instances[0].polygon.flat()

    def test_deterministic_output(self):
        src = AnnotatedImage(
            image_id="x",
            width=10,
            height=10,
            instances=(
                TextInstance(polygon=Contour([(0, 0), (3, 0), (3, 3)]), id="a"),
            ),
        )
        assert write_jsonl([src], fmt=round9) == write_jsonl([src], fmt=round9)


class TestCurvedSubset:
    def test_rectangle_with_collinear_padding_not_selected(self):
        inst = TextInstance(polygon=rect14(0, 0, 50, 20), id="r")
        assert curved_subset_select([inst], 0.07) == []

    def test_sharp_ribbon_selected(self):
        poly = ribbon(100, 100, 120, 5, 55, 1.0, 0.0, points_per_edge=7)
        inst = TextInstance(polygon=poly, id="c")
        assert [i.id for i in curved_subset_select([inst], 0.07)] == ["c"]

    def test_max_over_removable_vertices(self):
        # one sharp interior vertex is enough, via the max aggregation
        poly = Contour([(0, 0), (30, 0), (30, 10), (15, 35), (0, 10)])
        inst = TextInstance(polygon=poly, id="spike")
        deltas = []
        pts = poly.vertices
        area = abs(
            0.5
            * sum(
                pts[i][0] * pts[(i + 1) % 5][1] - pts[(i + 1) % 5][0] * pts[i][1]
                for i in range(5)
            )
        )
        for i in range(1, 4):
            cut = np.delete(pts, i, axis=0)
            cut_area = abs(
                0.5
                * sum(
                    cut[j][0] * cut[(j + 1) % 4][1] - cut[(j + 1) % 4][0] * cut[j][1]
                    for j in range(4)
                )
            )
            deltas.append(abs(area - cut_area) / area)
        expect_selected = max(deltas) >= 0.07
        got = curved_subset_select([inst], 0.07)
        assert bool(got) == expect_selected

    def test_head_tail_vertices_excluded(self):
        # area change concentrated at the endpoints must not select
        poly = Contour([(0, 30), (20, 0), (40, 1), (41, 2), (42, 1), (60, 0), (80, 30)])
        first_last_only = TextInstance(polygon=poly, id="ht")
        kept = curved_subset_select([first_last_only], 0.07)
        deltas = []
        pts = poly.vertices
        m = len(pts)

        def area_of(q):
            k = len(q)
            return abs(
                0.5
                * sum(
                    q[i][0] * q[(i + 1) % k][1] - q[(i + 1) % k][0] * q[i][1]
                    for i in range(k)
                )
            )

        full = area_of(pts)
        for i in range(1, m - 1):
            deltas.append(abs(full - area_of(np.delete(pts, i, axis=0))) / full)
        assert bool(kept) == (max(deltas) >= 0.07)

    def test_triangles_skipped(self):
        inst = TextInstance(polygon=Contour([(0, 0), (10, 0), (5, 30)]), id="tri")
        assert curved_subset_select([inst], 0.07) == []

    def test_threshold_boundary_inclusive(self):
        # build a polygon whose max delta is exactly computable, then test
        # selection flips around the threshold
        poly = Contour([(0, 0), (30, 0), (30, 10), (15, 35), (0, 10)])
        inst = TextInstance(polygon=poly, id="s")
        from conftest import vertex_removal_delta

        best = max(vertex_removal_delta(poly, i) for i in range(1, 4))
        assert curved_subset_select([inst], best) == [inst]
        assert curved_subset_select([inst], best + 1e-12) == []
