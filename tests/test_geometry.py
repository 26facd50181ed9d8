import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_contours import (
    Contour,
    DegenerateContour,
    ZeroPerimeter,
    canonical_start,
    contour_center,
    contour_spans,
    contour_spans_many,
    perimeter,
    polygon_iou,
    rasterize_grid,
    resample_equidistant,
    shrink_polygon,
    signed_area,
    spans_iou,
)
from fourier_contours import geometry
from fourier_contours.geometry import (
    ContourSpans,
    _edges,
    _removal_deltas,
    _row_intervals,
    _signed_area,
)
from fourier_contours.decode import _sym_diff_bound
from fourier_contours.synth import ellipse_polygon, regular_polygon, ribbon
from conftest import (
    LATTICE_IOU_SLACK,
    dedupe,
    exact_intersection_area,
    exact_iou,
    is_simple,
    lattice_iou_bound,
    point_in_polygon,
    star_shaped,
    vertex_removal_delta,
)


def shoelace(pts):
    """Scalar reference: positive for visually clockwise with y down."""
    total = 0.0
    m = len(pts)
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        total += ax * by - bx * ay
    return 0.5 * total


def seg_lengths(pts):
    m = len(pts)
    return [
        math.dist(pts[i], pts[(i + 1) % m]) for i in range(m)
    ]


UNIT_SQUARE = Contour([(0, 0), (1, 0), (1, 1), (0, 1)])


@st.composite
def shapes(draw):
    """Vertices in a 24 x 24 box: a star, a wavy ribbon, or a random,
    usually self-intersecting, polygon."""
    kind = draw(st.sampled_from(["star", "ribbon", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = draw(st.integers(3, 30))
    if kind == "star":
        return star_shaped(rng, m=m, rmin=1, rmax=12, center=(12, 12)).vertices
    if kind == "ribbon":
        length, thickness = rng.uniform(8, 22), rng.uniform(1, 6)
        amplitude = rng.uniform(0, 12 - thickness)
        cycles, phase = rng.uniform(0.5, 2), rng.uniform(0, 6)
        rib = ribbon(12, 12, length, thickness, amplitude, cycles, phase, max(m // 2, 2))
        return rib.vertices
    return rng.uniform(0, 24, size=(m, 2))


class TestContour:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Contour([(0, 0), (1, 1)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Contour([(0, 0), (1, float("nan")), (1, 1)])

    def test_vertices_read_only(self):
        c = UNIT_SQUARE
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0

    def test_flat_round_trip(self):
        c = Contour([(0, 0), (2, 0), (2, 3)])
        assert c.flat() == [0.0, 0.0, 2.0, 0.0, 2.0, 3.0]
        assert len(c) == 3

    def test_bounds(self):
        assert Contour([(1, 2), (5, 2), (3, 7)]).bounds() == (1.0, 2.0, 5.0, 7.0)


class TestAreaPerimeterCenter:
    def test_square_known_values(self):
        assert signed_area(UNIT_SQUARE) == 1.0
        assert perimeter(UNIT_SQUARE) == 4.0
        assert contour_center(UNIT_SQUARE) == (0.5, 0.5)

    def test_reversed_square_negative(self):
        c = Contour([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert signed_area(c) == -1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_scalar_shoelace(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        pts = [tuple(p) for p in c.vertices]
        assert signed_area(c) == pytest.approx(shoelace(pts), rel=1e-12)
        assert perimeter(c) == pytest.approx(sum(seg_lengths(pts)), rel=1e-12)

    def test_center_weighs_by_arc_length(self):
        # skewed vertex spacing must not bias the center of a square outline
        c = Contour([(0, 0), (0.1, 0), (0.2, 0), (1, 0), (1, 1), (0, 1)])
        ctr = contour_center(c)
        assert ctr.x == pytest.approx(0.5, abs=1e-12)
        assert ctr.y == pytest.approx(0.5, abs=1e-12)

    def test_zero_perimeter_center_raises(self):
        c = Contour([(1, 1), (1, 1), (1, 1)])
        with pytest.raises(ZeroPerimeter):
            contour_center(c)


def scan_start(pts):
    """Scalar reference for canonical_start on a vertex list: the rightmost
    crossing of the center row by the half-open edge rule, the first edge on
    ties, as (edge, t); None when no edge crosses."""
    cy = contour_center(Contour(pts)).y
    best = None
    m = len(pts)
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        if (ay <= cy) != (by <= cy):
            t = (cy - ay) / (by - ay)
            x = ax + t * (bx - ax)
            if best is None or x > best[0]:
                best = (x, i, t)
    return None if best is None else (best[1], best[2])


class TestCanonicalStart:
    def test_square_starts_mid_right_edge(self):
        edge, t = canonical_start(UNIT_SQUARE)
        assert edge == 1  # edge from (1,0) to (1,1)
        assert t == pytest.approx(0.5)

    def test_rightmost_crossing_wins(self):
        # comb with two right-side lobes; the farther lobe must win
        c = Contour([(0, 0), (10, 0), (10, 4), (6, 4), (6, 2), (14, 2), (14, 6), (0, 6)])
        edge, t = canonical_start(c)
        a = c.vertices[edge]
        b = c.vertices[(edge + 1) % len(c)]
        x = a[0] + t * (b[0] - a[0])
        assert x == pytest.approx(14.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_start_lies_on_center_row(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        ctr = contour_center(c)
        edge, t = canonical_start(c)
        a = c.vertices[edge]
        b = c.vertices[(edge + 1) % len(c)]
        y = a[1] + t * (b[1] - a[1])
        x = a[0] + t * (b[0] - a[0])
        assert y == pytest.approx(ctr.y, abs=1e-9)
        # no other crossing lies strictly to the right
        m = len(c)
        for i in range(m):
            p, q = c.vertices[i], c.vertices[(i + 1) % m]
            if (p[1] <= ctr.y) != (q[1] <= ctr.y):
                u = (ctr.y - p[1]) / (q[1] - p[1])
                assert p[0] + u * (q[0] - p[0]) <= x + 1e-9

    def test_vertex_on_center_row_counts_once(self):
        # symmetric about y = 0, so the center row passes through (2, 0)
        c = Contour([(-2, 0), (0, -1), (2, 0), (0, 1)])
        assert contour_center(c).y == 0.0
        assert canonical_start(c) == (2, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["float", "int", "half", "mirror"]))
    def test_matches_scalar_oracle(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "mirror":
            # a chain at y >= 0 and its mirror image: the center row is
            # exactly y = 0, which every vertex with y = 0 lies on
            k = int(rng.integers(2, 8))
            upper = np.stack([np.sort(rng.integers(-20, 20, k)), rng.integers(0, 4, k)], axis=1)
            pts = np.concatenate([upper, upper[::-1] * [1, -1]]).astype(np.float64)
        else:
            pts = star_shaped(rng, center=(20.0, 20.0), rmin=2.0, rmax=12.0).vertices
            pts = {"float": pts, "int": np.round(pts), "half": np.round(2.0 * pts) / 2.0}[kind]
        c = Contour(pts)
        try:
            want = scan_start(pts.tolist())
        except ZeroPerimeter:
            with pytest.raises(ZeroPerimeter):
                canonical_start(c)
            return
        if kind == "mirror":
            assert contour_center(c).y == 0.0
        if want is None:
            with pytest.raises(DegenerateContour):
                canonical_start(c)
        else:
            assert canonical_start(c) == want


class TestResample:
    def test_unit_square_four_points(self):
        rs = resample_equidistant(UNIT_SQUARE, 4)
        expected = np.array([[1.0, 0.5], [0.5, 1.0], [0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(rs.points, expected, atol=1e-12)

    def test_point_count_and_closure(self):
        rs = resample_equidistant(UNIT_SQUARE, 100)
        assert rs.points.shape == (100, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(8, 300))
    def test_uniform_spacing(self, seed, n):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        rs = resample_equidistant(c, n)
        closed = np.vstack([rs.points, rs.points[:1]])
        gaps = np.hypot(*(np.diff(closed, axis=0).T))
        # equal arc steps measured along the polygon, not as chords; chord
        # lengths may differ at corners, so compare against the arc step
        # by walking the polygon: total length / n bounds every chord
        step = perimeter(c) / n
        assert np.all(gaps <= step + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_direction_clockwise_and_start_canonical(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        for cc in (c, Contour(c.vertices[::-1])):
            rs = resample_equidistant(cc, 64)
            assert shoelace([tuple(p) for p in rs.points]) > 0
            edge, t = canonical_start(cc)
            a = cc.vertices[edge]
            b = cc.vertices[(edge + 1) % len(cc)]
            start = a + t * (b - a)
            assert np.allclose(rs.points[0], start, atol=1e-9)

    def test_points_lie_on_polygon(self, rng):
        c = star_shaped(rng, m=12)
        rs = resample_equidistant(c, 200)
        v = c.vertices
        m = len(v)
        for p in rs.points:
            dists = []
            for i in range(m):
                a, b = v[i], v[(i + 1) % m]
                ab = b - a
                tt = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0, 1)
                dists.append(np.linalg.norm(a + tt * ab - p))
            assert min(dists) < 1e-8

    def test_zero_perimeter_raises(self):
        c = Contour([(2, 2), (2, 2), (2, 2)])
        with pytest.raises(ZeroPerimeter):
            resample_equidistant(c, 8)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            resample_equidistant(UNIT_SQUARE, 0)


class TestShrink:
    def test_square_offsets_uniformly(self):
        c = Contour([(0, 0), (10, 0), (10, 10), (0, 10)])
        sh = shrink_polygon(c, 0.3)
        # d = 0.3 * 100 / 40
        assert np.allclose(sh.vertices, [[0.75, 0.75], [9.25, 0.75], [9.25, 9.25], [0.75, 9.25]])

    def test_orientation_preserved(self):
        c = Contour([(0, 0), (0, 10), (10, 10), (10, 0)])  # negative shoelace
        sh = shrink_polygon(c, 0.3)
        assert signed_area(sh) < 0
        assert np.allclose(sh.vertices[0], [0.75, 0.75])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_strictly_smaller_and_contained(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        sh = shrink_polygon(c, 0.3)
        assert 0 < abs(signed_area(sh)) < abs(signed_area(c))

    def test_concave_arm_kept_inside(self):
        # an L shape: naive vertex scaling would leave the reflex corner out
        c = Contour([(0, 0), (10, 0), (10, 4), (4, 4), (4, 10), (0, 10)])
        sh = shrink_polygon(c, 0.3)
        for p in sh.vertices:
            assert point_in_polygon(p, c)

    def test_factor_range_enforced(self):
        with pytest.raises(ValueError):
            shrink_polygon(UNIT_SQUARE, 0.0)
        with pytest.raises(ValueError):
            shrink_polygon(UNIT_SQUARE, 1.0)

    def test_degenerate_raises(self):
        c = Contour([(0, 0), (5, 0), (10, 0)])
        with pytest.raises(DegenerateContour):
            shrink_polygon(c, 0.3)

    def test_convex_keeps_offset_rebuild(self):
        # every edge moves inward by d = 0.3 * 1700 / perimeter; recorded
        # before the simplicity test was vectorized
        c = Contour([(0, 0), (40, 0), (50, 30), (20, 50), (-10, 30)])
        sh = shrink_polygon(c, 0.3)
        assert np.array_equal(sh.vertices, [
            [2.5894569338025626, 3.592679582511508],
            [37.410543066197434, 3.592679582511506],
            [45.72393258156224, 28.532848128605913],
            [20.0, 45.682136516314074],
            [-5.723932581562234, 28.532848128605913],
        ])

    def test_tight_bend_falls_back_to_scaling(self):
        # a chevron ribbon with a 2 px tip: the offset pushes the tip's two
        # rebuilt vertices past each other, so the rebuild self-intersects
        # and the vertices are scaled by 0.7 toward the center instead;
        # recorded before the simplicity test was vectorized
        v = np.array([(0, 0), (50, 100), (100, 0), (100, 60), (51, 160), (49, 160), (0, 60)])
        sh = shrink_polygon(Contour(v), 0.3)
        assert np.array_equal(sh.vertices, [
            [15.0, 20.903213829333055],
            [50.0, 90.90321382933305],
            [85.0, 20.903213829333055],
            [85.0, 62.903213829333055],
            [50.7, 132.90321382933305],
            [49.3, 132.90321382933305],
            [15.0, 62.903213829333055],
        ])
        ctr = contour_center(Contour(v))
        assert np.allclose(sh.vertices, np.array(ctr) + 0.7 * (v - np.array(ctr)))

    @settings(max_examples=300, deadline=None)
    @given(
        shapes(),
        st.sampled_from(["free", "grid", "coarse", "nudged"]),
        st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    )
    def test_matches_scalar(self, units, snap, factor):
        # snapping makes collinear neighbours, repeated vertices and zero areas;
        # nudging the snapped vertices by ~1e-12 puts neighbour crosses on both
        # sides of the 1e-12 collinearity cut
        grid = np.round(units / 4)
        v = {"free": units, "grid": grid, "coarse": np.round(units / 8), "nudged": grid + 1e-12 * units}[snap]
        try:
            want = scalar_shrink(Contour(v), factor)
        except Exception as exc:  # the same exception, or the same vertices
            with pytest.raises(type(exc)):
                shrink_polygon(Contour(v), factor)
        else:
            assert np.array_equal(shrink_polygon(Contour(v), factor).vertices, want, equal_nan=True)


def scalar_shrink(c, factor):
    """Scalar reference for shrink_polygon: the offset rebuild one vertex at
    a time, the rest as shrink_polygon does it."""
    area = _signed_area(c.vertices)
    if area == 0.0:
        raise DegenerateContour("zero-area contour cannot be shrunk")
    flip = area < 0.0
    v = dedupe(c.vertices[::-1] if flip else np.asarray(c.vertices))
    if v.shape[0] < 3:
        raise DegenerateContour("fewer than 3 distinct vertices")
    d = factor * abs(area) / math.fsum(geometry._edge_lengths(v))
    a, b = _edges(v)
    ev = b - a
    ln = np.hypot(ev[:, 0], ev[:, 1])
    dirs = ev / ln[:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    anchors = a + normals * d
    m = v.shape[0]
    out = np.empty_like(v)
    for i in range(m):
        j = (i - 1) % m
        dp, dc = dirs[j], dirs[i]
        cross = dp[0] * dc[1] - dp[1] * dc[0]
        if abs(cross) < 1e-12:
            out[i] = v[i] + normals[i] * d
        else:
            w = anchors[i] - anchors[j]
            s = (w[0] * dc[1] - w[1] * dc[0]) / cross
            out[i] = anchors[j] + s * dp
    new_area = _signed_area(out)
    if not (0.0 < new_area < abs(area) and is_simple(out)
            and all(point_in_polygon(p, Contour(v)) for p in out)):
        ctr = geometry._center(v)
        out = np.array([ctr.x, ctr.y]) + (1.0 - factor) * (v - np.array([ctr.x, ctr.y]))
    return out[::-1] if flip else out


def scalar_crossings(v):
    """Scalar reference for _simple_many: every pair i < j of non-adjacent
    edges that cross or touch, in row-major order.  A proper crossing also
    needs meeting closed boxes, as an exact one always has: rounded
    orientations of nearly collinear edges take either sign however far
    apart the edges lie."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    def boxes_meet(p0, p1, q0, q1):
        return all(
            min(p0[k], p1[k]) <= max(q0[k], q1[k]) and min(q0[k], q1[k]) <= max(p0[k], p1[k])
            for k in (0, 1)
        )

    m = v.shape[0]
    for i in range(m):
        p0, p1 = v[i], v[(i + 1) % m]
        for j in range(i + 1, m):
            if (j + 1) % m == i or (i + 1) % m == j:
                continue
            q0, q1 = v[j], v[(j + 1) % m]
            d1, d2 = orient(q0, q1, p0), orient(q0, q1, p1)
            d3, d4 = orient(p0, p1, q0), orient(p0, p1, q1)
            if (
                ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))
                and d1 != d2 and d3 != d4 and boxes_meet(p0, p1, q0, q1)
            ) or (
                (d1 == 0 and on_seg(q0, q1, p0))
                or (d2 == 0 and on_seg(q0, q1, p1))
                or (d3 == 0 and on_seg(p0, p1, q0))
                or (d4 == 0 and on_seg(p0, p1, q1))
            ):
                yield i, j


def scalar_is_simple(v):
    return next(scalar_crossings(v), None) is None


class TestIsSimple:
    @settings(max_examples=300, deadline=None)
    @given(
        shapes(),
        st.sampled_from(["free", "grid", "coarse"]),
        st.sampled_from([1, 5, 37, geometry._SIMPLE_BLOCK_PAIRS]),
    )
    def test_matches_scalar(self, units, snap, block):
        # snapping to a 6 x 6 or 3 x 3 grid makes collinear overlaps,
        # T-junctions and repeated vertices; small blocks split the pairs
        # into many blocks
        v = {"free": units, "grid": np.round(units / 4), "coarse": np.round(units / 8)}[snap]
        with mock.patch.object(geometry, "_SIMPLE_BLOCK_PAIRS", block):
            assert is_simple(v) == scalar_is_simple(v)

    @pytest.mark.parametrize("block", [7, 900, geometry._SIMPLE_BLOCK_PAIRS])
    def test_only_crossing_in_last_block(self, block):
        # a convex 300-gon with its last two vertices swapped: edges 297 and
        # 299 cross, and no other pair meets
        m = 300
        ang = 2 * np.pi * np.arange(m) / m
        v = np.stack([100 * np.cos(ang), 100 * np.sin(ang)], axis=1)
        assert is_simple(v) and scalar_is_simple(v)
        v[[298, 299]] = v[[299, 298]]
        assert list(scalar_crossings(v)) == [(297, 299)]
        # edges 297-299 reach furthest right, so sorting by left end puts
        # edge 297 at position 295 of 300: the pair comes in one of the last
        # blocks at 7 pairs (an edge or two per block), at 900 and at the default
        with mock.patch.object(geometry, "_SIMPLE_BLOCK_PAIRS", block):
            assert not is_simple(v)

    @pytest.mark.parametrize(
        "v, simple",
        [
            ([(0, 0), (4, 0), (4, 4), (0, 4)], True),
            ([(0, 0), (4, 4), (4, 0), (0, 4)], False),  # bow tie
            ([(0, 0), (4, 0), (2, 0), (2, 3)], False),  # edge folds back on itself
            ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], False),  # vertex on an edge
            ([(0, 0), (2, 0), (2, 2), (0, 0), (-2, 2), (-2, 0)], False),  # repeated vertex
            ([(0, 0), (1, 0), (0, 1)], True),  # a triangle has no non-adjacent pair
        ],
    )
    def test_touching_cases(self, v, simple):
        v = np.array(v, dtype=np.float64)
        assert scalar_is_simple(v) == simple
        assert is_simple(v) == simple


class TestMembershipAndRaster:
    def test_square_membership(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)
        assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)
        assert not point_in_polygon((-0.5, 0.5), UNIT_SQUARE)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_star_membership_by_radius(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 14))
        angles = np.linspace(0, 2 * np.pi, m, endpoint=False)
        radii = rng.uniform(30, 100, size=m)
        pts = np.stack([200 + radii * np.cos(angles), 200 + radii * np.sin(angles)], axis=1)
        c = Contour(pts)
        assert point_in_polygon((200, 200), c)
        assert not point_in_polygon((200 + 150, 200), c)

    @settings(max_examples=150, deadline=None)
    @given(
        shapes(),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
        st.sampled_from([0.0, 0.5, 0.3]),
        st.booleans(),
        st.integers(0, 10_000),
    )
    def test_raster_matches_scalar_membership(self, units, step, offset, snap, seed):
        # the grid samples sit at (g + offset) * step; snapped vertices land on them
        if snap:
            units = np.round(units)
        c = Contour((units + offset) * step)
        rng = np.random.default_rng(seed)
        xs = (np.arange(-2, 27) + offset) * step
        rows = np.arange(-2, 27)
        rows = rng.permutation(np.concatenate([rows, rng.choice(rows, size=8)]))
        ys = (rows + offset) * step
        grid = rasterize_grid(c, xs, ys)
        want = [[point_in_polygon((x, y), c) for x in xs] for y in ys]
        assert np.array_equal(grid, np.array(want))

    def test_raster_requires_ascending_columns(self):
        with pytest.raises(ValueError):
            rasterize_grid(UNIT_SQUARE, np.array([1.0, 0.5]), np.array([0.5]))

    @settings(max_examples=150, deadline=None)
    @given(shapes(), st.booleans(), st.integers(0, 10_000))
    def test_vertex_membership_matches_scalar(self, units, snap, seed):
        # shrink_polygon's containment test: own vertices, points on edges
        # (midpoints included) and random points, on and off the vertex grid
        v = np.round(units) if snap else units
        rng = np.random.default_rng(seed)
        t = np.concatenate([np.full(len(v), 0.5), rng.uniform(0, 1, len(v))])[:, None]
        a, b = np.tile(v, (2, 1)), np.tile(np.roll(v, -1, axis=0), (2, 1))
        free = rng.uniform(-2, 26, size=(40, 2))
        pts = np.concatenate([v, a + t * (b - a), free, np.round(free)])
        c = Contour(v)
        want = [point_in_polygon(p, c) for p in pts]
        # the grid of the points' distinct xs and ys, each point read back from it
        ux, col = np.unique(pts[:, 0], return_inverse=True)
        uy, row = np.unique(pts[:, 1], return_inverse=True)
        assert np.array_equal(rasterize_grid(c, ux, uy)[row, col], want)


class TestPolygonIoU:
    def test_identical_is_one(self):
        c = Contour([(10, 10), (40, 10), (40, 30), (10, 30)])
        assert polygon_iou(c, c) == 1.0

    def test_disjoint_bboxes_zero(self):
        a = Contour([(0, 0), (5, 0), (5, 5), (0, 5)])
        b = Contour([(10, 10), (15, 10), (15, 15), (10, 15)])
        assert polygon_iou(a, b) == 0.0

    def test_half_overlap_squares(self):
        a = Contour([(0, 0), (10, 0), (10, 10), (0, 10)])
        b = Contour([(5, 0), (15, 0), (15, 10), (5, 10)])
        # inter 50, union 150
        assert polygon_iou(a, b, 4) == pytest.approx(1 / 3, abs=2e-3)

    def test_matches_brute_force_membership(self, rng):
        for _ in range(25):
            a = star_shaped(rng, m=int(rng.integers(3, 9)), rmin=4, rmax=16, center=(20, 20))
            b = star_shaped(rng, m=int(rng.integers(3, 9)), rmin=4, rmax=16, center=(26, 22))
            s = int(rng.integers(1, 6))
            got = polygon_iou(a, b, s)
            ax0, ay0, ax1, ay1 = a.bounds()
            bx0, by0, bx1, by1 = b.bounds()
            if ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0:
                assert got == 0.0
                continue
            x0 = math.floor(min(ax0, bx0))
            y0 = math.floor(min(ay0, by0))
            x1 = math.ceil(max(ax1, bx1))
            y1 = math.ceil(max(ay1, by1))
            # global lattice: sample g of an axis sits at (g + 0.5) / s
            xs = (np.arange(x0 * s, x1 * s) + 0.5) / s
            ys = (np.arange(y0 * s, y1 * s) + 0.5) / s
            inter = union = 0
            for y in ys:
                for x in xs:
                    ia = point_in_polygon((x, y), a)
                    ib = point_in_polygon((x, y), b)
                    inter += ia and ib
                    union += ia or ib
            want = inter / union if union else 0.0
            assert got == want

    def test_supersample_validated(self):
        with pytest.raises(ValueError):
            polygon_iou(UNIT_SQUARE, UNIT_SQUARE, 0)

    def test_resolution_tracks_exact_area(self):
        # thin sliver: coarse grids miss it, fine grids measure it
        a = Contour([(0, 0), (20, 0), (20, 20), (0, 20)])
        b = Contour([(0, 0), (20, 0), (20, 0.5), (0, 0.5)])
        exact = 10.0 / 400.0
        fine = polygon_iou(a, b, 8)
        assert fine == pytest.approx(exact, rel=0.1)


@st.composite
def iou_pairs(draw):
    """A synth shape 3 to 200 px across, and a copy of it with its vertices
    jittered and the whole shifted, each by a share of its size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ellipse", "ribbon", "regular", "star"]))
    size = draw(st.sampled_from([3.0, 6.0, 12.0, 30.0, 80.0, 200.0]))
    cx, cy = rng.uniform(20.0, 300.0, size=2)
    if kind == "ellipse":
        base = ellipse_polygon(cx, cy, size, size * rng.uniform(0.2, 1.0), rot=rng.uniform(0.0, 3.0))
    elif kind == "ribbon":
        base = ribbon(cx, cy, 2 * size, size / 2, size * 0.2, phase=rng.uniform(0.0, 6.0), points_per_edge=8)
    elif kind == "regular":
        base = regular_polygon(cx, cy, size, int(rng.integers(3, 12)), rng.uniform(0.0, 1.0))
    else:
        base = star_shaped(rng, m=16, center=(cx, cy), rmin=size / 2, rmax=size)
    jitter, shift = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2])), draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    v = base.vertices
    return base, Contour(v + rng.normal(0.0, jitter * size, v.shape) + rng.normal(0.0, shift * size, 2))


class TestExactIoU:
    """The test oracle exact_iou, and the lattice IoU's distance from it."""

    @settings(max_examples=40, deadline=None)
    @given(shapes())
    def test_a_polygon_meets_itself_in_its_shoelace_area(self, v):
        assume(is_simple(v))
        assert exact_intersection_area(v, v) == pytest.approx(abs(shoelace(v)), rel=1e-9)
        assert exact_intersection_area(v, v + [25.0, 0.0]) == 0.0
        assert exact_iou(v, v) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, want",
        [
            # half-overlapping squares: 50 / 150
            ([(0, 0), (10, 0), (10, 10), (0, 10)], [(5, 0), (15, 0), (15, 10), (5, 10)], 1 / 3),
            # a square and its copy turned by 45 degrees meet in a regular
            # octagon of area 8 (sqrt 2 - 1), so the IoU is 1 / sqrt 2
            ([(-1, -1), (1, -1), (1, 1), (-1, 1)], [(0, -2**0.5), (2**0.5, 0), (0, 2**0.5), (-2**0.5, 0)], 0.5**0.5),
            # a triangle of area 2 inside a 4 x 4 square
            ([(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 1), (3, 1), (1, 3)], 2 / 16),
            # an L of area 12 and a 2 x 6 bar crossing its notch: 4 / (12 + 12 - 4)
            ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)], [(1, 1), (7, 1), (7, 3), (1, 3)], 4 / 20),
            # touching along an edge only
            ([(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 0), (2, 0), (2, 1), (1, 1)], 0.0),
        ],
    )
    def test_hand_worked_cases(self, a, b, want):
        a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        assert exact_iou(a, b) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert exact_iou(b[::-1], a) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(iou_pairs(), st.sampled_from([1, 2, 3, 4, 8]))
    def test_the_lattice_iou_lies_within_the_stated_bound(self, pair, supersample):
        # the largest measured |lattice - exact| over 3000 such pairs was
        # 0.145 (P_a + P_b) / (s |A u B|) at s = 1 and 0.069 at s = 4
        a, b = pair
        assert LATTICE_IOU_SLACK == 0.5
        assert abs(polygon_iou(a, b, supersample) - exact_iou(a, b)) <= lattice_iou_bound(a, b, supersample)


class TestContourSpans:
    def test_zero_width_span_before_a_live_one(self):
        # a U whose left prong lies between two sample columns: rows through
        # the prongs carry an empty span ahead of the live one
        c = Contour([(1.6, 0), (1.8, 0), (1.8, 5), (3, 5), (3, 0), (10, 0), (10, 8), (1.6, 8)])
        rec = contour_spans(c, 1)
        assert rec.row0 == 0 and rec.lo.shape == (8, 2)
        assert list(rec.lo[0]) == [2, 3] and list(rec.hi[0]) == [2, 10]
        inside = [
            point_in_polygon((x + 0.5, y + 0.5), c) for y in range(8) for x in range(1, 11)
        ]
        assert rec.count == sum(inside) == 5 * 7 + 3 * 8

    def test_integer_shift_moves_the_record_along_the_lattice(self, rng):
        for s in (1, 2, 4, 8):
            c = star_shaped(rng, center=(20.3, 17.9), rmin=3, rmax=9)
            a = contour_spans(c, s)
            b = contour_spans(Contour(c.vertices + [7.0, -3.0]), s)
            assert b.row0 == a.row0 - 3 * s and b.count == a.count
            assert np.array_equal(b.lo, a.lo + 7 * s) and np.array_equal(b.hi, a.hi + 7 * s)

    def test_records_compare_only_on_one_lattice(self):
        with pytest.raises(ValueError):
            spans_iou(contour_spans(UNIT_SQUARE, 2), contour_spans(UNIT_SQUARE, 4))


def reference_contour_spans(c, supersample):
    """contour_spans before the batch: one contour on the lattice samples of
    its own integer-aligned box, its extra spans padded at len(xs)."""
    s = int(supersample)
    bbox = c.bounds()
    x0, y0 = math.floor(bbox[0]), math.floor(bbox[1])
    gx0, gy0 = x0 * s, y0 * s
    w = max(math.ceil(bbox[2]) - x0, 1) * s
    h = max(math.ceil(bbox[3]) - y0, 1) * s
    xs = (np.arange(gx0, gx0 + w) + 0.5) / s
    ys = (np.arange(gy0, gy0 + h) + 0.5) / s
    a, b = _edges(np.asarray(c.vertices))
    lo, hi, _ = _row_intervals(a, b, xs, ys, shift=np.zeros(len(a), dtype=np.int64), pad=np.full(h, w))
    return ContourSpans(bbox, s, gy0, lo + gx0, hi + gx0, int((hi - lo).sum()))


def assert_same_spans(got, want):
    assert got.bbox == want.bbox and got.supersample == want.supersample
    assert type(got.row0) is int and got.row0 == want.row0
    assert type(got.count) is int and got.count == want.count
    assert got.lo.shape == want.lo.shape and got.hi.shape == want.hi.shape
    assert got.lo.dtype == want.lo.dtype and got.hi.dtype == want.hi.dtype
    assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)


@st.composite
def span_contours(draw, s):
    """One contour for a contour_spans_many batch on lattice s: a simple or
    tangled (self-intersecting) star, a random polygon, one repeated point,
    or a polygon on the lattice: every vertex exactly on a lattice row and
    column, many edges horizontal.  Centres range over negative and positive
    coordinates."""
    kind = draw(st.sampled_from(["star", "tangled", "random", "point", "lattice"]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = draw(st.integers(3, 40))
    cx, cy = (draw(st.floats(-80.0, 80.0)) for _ in range(2))
    if kind in ("star", "tangled"):
        v = star_shaped(rng, m=m, rmin=0.5, rmax=draw(st.floats(1.0, 30.0)), center=(cx, cy)).vertices
        return Contour(v[rng.permutation(m)] if kind == "tangled" else v)
    if kind == "random":
        return Contour(rng.uniform(-20, 20, size=(m, 2)) + [cx, cy])
    if kind == "point":
        return Contour(np.full((m, 2), [cx, cy]))
    g = rng.integers(-12, 12, size=(m, 2)) + np.floor(np.array([cx, cy]) * s).astype(np.int64)
    return Contour((g + 0.5) / s)


class TestContourSpansMany:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([1, 3, 4]).flatmap(
            lambda s: st.tuples(st.just(s), st.lists(span_contours(s), max_size=12))
        ),
        st.sampled_from([1, 7, 64, geometry._SPANS_BLOCK_ROWS]),
    )
    def test_batch_equals_one_contour_at_a_time(self, batch, block):
        """Every record of a mixed batch, split into blocks of `block` rows,
        equals the reference record of its contour alone, field for field."""
        s, contours = batch
        with mock.patch.object(geometry, "_SPANS_BLOCK_ROWS", block):
            got = contour_spans_many(contours, s)
        assert len(got) == len(contours)
        for rec, c in zip(got, contours):
            assert_same_spans(rec, reference_contour_spans(c, s))

    def test_batch_larger_than_one_block(self):
        rng = np.random.default_rng(7)
        contours = [
            star_shaped(rng, m=int(rng.integers(3, 60)), center=(c * 37.0, -c * 11.0), rmin=40, rmax=90)
            for c in range(16)
        ]
        rows = [reference_contour_spans(c, 4).lo.shape[0] for c in contours]
        assert sum(rows) > 2 * geometry._SPANS_BLOCK_ROWS
        for rec, c in zip(contour_spans_many(contours, 4), contours):
            assert_same_spans(rec, reference_contour_spans(c, 4))

    def test_empty_batch(self):
        assert contour_spans_many([], 4) == []

    def test_coordinates_beyond_the_lattice_are_rejected(self):
        far = Contour([(0.0, 0.0), (1e300, 0.0), (1e300, 1.0)])
        with pytest.raises(ValueError, match="too large"):
            contour_spans_many([UNIT_SQUARE, far], 4)

    def test_records_own_their_spans(self, rng):
        # a record's arrays are its own rows, not views of the block's table
        contours = [star_shaped(rng, m=40, center=(c * 9.0, 0.0), rmin=2, rmax=12) for c in range(5)]
        for rec in contour_spans_many(contours, 4):
            assert rec.lo.base is None and rec.hi.base is None


@st.composite
def grid_batches(draw):
    """(xs, ys, contours) for _grid_cells: the cell centres (g + 0.5) * pitch
    of a grid whose pitch need not be a power of two, and 0-12 contours:
    simple or tangled stars, one repeated point, polygons with every vertex
    exactly on a grid row and column and most edges horizontal, and polygons
    between two grid rows or beyond the first or last, whose y range meets
    no grid row."""
    pitch = draw(st.sampled_from([0.3, 0.7, 1.0, 3.0, 5.0, 12.0, 20.0]))
    w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    xs, ys = (np.arange(w) + 0.5) * pitch, (np.arange(h) + 0.5) * pitch
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contours = []
    for kind in draw(st.lists(st.sampled_from(["star", "tangled", "point", "grid", "between"]), max_size=12)):
        m = int(rng.integers(3, 16))
        cx, cy = rng.uniform(-1.0, [w + 1.0, h + 1.0]) * pitch
        if kind in ("star", "tangled"):
            v = star_shaped(rng, m=m, center=(cx, cy), rmin=0.2 * pitch, rmax=rng.uniform(0.5, 6.0) * pitch).vertices
            v = v[rng.permutation(m)] if kind == "tangled" else v
        elif kind == "point":
            v = np.full((m, 2), [cx, cy])
        elif kind == "grid":
            # three rows at most, so consecutive vertices often share one
            row = rng.integers(-2, h + 2) + rng.integers(0, 3, size=m)
            v = (np.stack([rng.integers(-2, w + 2, size=m), row], axis=1) + 0.5) * pitch
        else:
            row = rng.integers(-1, h)
            v = np.stack([rng.uniform(-1.0, w + 1.0, m), row + 0.5 + rng.uniform(0.01, 0.99, m)], axis=1) * pitch
        contours.append(Contour(v))
    return xs, ys, contours


class TestGridCells:
    @settings(max_examples=150, deadline=None)
    @given(grid_batches())
    def test_cells_match_scalar_membership(self, batch):
        """Every contour's cells, in order, are the grid points
        point_in_polygon puts inside it, row by row."""
        xs, ys, contours = batch
        which, cells = geometry._grid_cells(contours, xs, ys)
        want = [
            (i, r * xs.size + col)
            for i, c in enumerate(contours)
            for r, y in enumerate(ys)
            for col, x in enumerate(xs)
            if point_in_polygon((x, y), c)
        ]
        assert list(zip(which.tolist(), cells.tolist())) == want


def inside_samples(rec):
    """The (lattice row, lattice column) of every inside sample of a record."""
    return {
        (rec.row0 + r, g)
        for r in range(rec.lo.shape[0])
        for lo, hi in zip(rec.lo[r].tolist(), rec.hi[r].tolist())
        for g in range(lo, hi)
    }


@st.composite
def matched_pairs(draw):
    """(s, k, c): a lattice s, a contour k, and a candidate c with as many
    vertices: k with every vertex jittered and the whole shifted.  k is a
    star, a thin wavy ribbon or a tangled (self-intersecting) star.  The
    vertices are free or snapped to the half-lattice points, the multiples
    of 1 / (2 s), where the samples and the cell corners lie."""
    s = draw(st.sampled_from([1, 2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["star", "ribbon", "tangled"]))
    size = draw(st.sampled_from([0.6, 3.0, 12.0, 30.0]))
    cx, cy = rng.uniform(-20.0, 60.0, size=2)
    if kind == "ribbon":
        k = ribbon(cx, cy, 2 * size, size / 10, size * rng.uniform(0.0, 0.3),
                   phase=rng.uniform(0.0, 6.3), points_per_edge=int(rng.integers(2, 12))).vertices
    else:
        m = int(rng.integers(3, 40))
        k = star_shaped(rng, m=m, rmin=size / 4, rmax=size, center=(cx, cy)).vertices
        if kind == "tangled":
            k = k[rng.permutation(m)]
    jitter = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])) * size
    c = k + rng.normal(0.0, jitter, k.shape) + rng.normal(0.0, jitter, 2)
    if draw(st.booleans()):
        k, c = (np.round(v * 2 * s) / (2 * s) for v in (k, c))
    return s, Contour(k), Contour(c)


class TestVertexBound:
    """The bound on the symmetric difference of two contours with matching
    vertices, from which poly_nms proves suppressions."""

    @settings(max_examples=300, deadline=None)
    @given(matched_pairs())
    def test_bound_covers_the_symmetric_difference(self, pair):
        s, k, c = pair
        a, b = contour_spans_many([k, c], s)
        (bound,) = _sym_diff_bound(k.vertices, c.vertices[None], s)
        assert bound >= len(inside_samples(a) ^ inside_samples(b))
        if a.count:
            assert 1.0 - bound / a.count <= spans_iou(a, b)

    def test_near_duplicates_are_proven(self):
        rng = np.random.default_rng(3)
        a = star_shaped(rng, m=16, center=(50.0, 40.0), rmin=15, rmax=20)
        b = Contour(a.vertices + [0.4, -0.3])
        (bound,) = _sym_diff_bound(a.vertices, b.vertices[None], 4)
        exact = polygon_iou(a, b, 4)
        assert 0.8 <= 1.0 - bound / contour_spans(a, 4).count <= exact

    def test_each_edge_pays_for_a_sample_it_may_sweep(self):
        # a 0.1 px triangle moved off the one sample it holds: its hulls have
        # almost no area or extent, and the + 1 per edge counts the sample
        k = np.array([[0.45, 0.45], [0.55, 0.45], [0.5, 0.55]])
        c = k + [0.1, 0.0]
        a, b = contour_spans_many([Contour(k), Contour(c)], 1)
        assert a.count == 1 and b.count == 0
        assert _sym_diff_bound(k, c[None], 1)[0] >= 1

    def test_one_array_operation_bounds_many_candidates(self, rng):
        k = star_shaped(rng, m=12, center=(30.0, 30.0), rmin=8, rmax=12).vertices
        cands = k + rng.normal(0.0, 0.5, (5, 12, 2))
        got = _sym_diff_bound(k, cands, 3)
        assert got.shape == (5,)
        assert got.tolist() == [_sym_diff_bound(k, c[None], 3)[0] for c in cands]

    @pytest.mark.parametrize("s", [1, 3, 4])
    def test_pairs_equal_one_call_per_kept_contour(self, rng, s):
        # kept contours of very different sizes and places, so the margin r
        # differs from pair to pair; each pair's bound must be bit for bit
        # the bound of its kept contour's own call
        kept = np.array([
            star_shaped(rng, m=18, center=rng.uniform(-1e3, 1e4, 2), rmin=size / 3, rmax=size).vertices
            for size in (0.5, 4.0, 30.0, 700.0)
        ])
        which = rng.integers(0, len(kept), 40)
        cands = kept[which] + rng.normal(0.0, 0.2, (40, 18, 2)) * rng.choice([0.1, 1.0, 10.0], (40, 1, 1))
        got = _sym_diff_bound(kept[which], cands, s)
        for j, k in enumerate(kept):
            mine = which == j
            assert got[mine].view(np.uint64).tolist() == _sym_diff_bound(k, cands[mine], s).view(np.uint64).tolist()


class TestVertexRemovalDelta:
    def test_collinear_vertex_is_free(self):
        c = Contour([(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])
        assert vertex_removal_delta(c, 1) == 0.0

    def test_square_corner_costs_quarter(self):
        c = Contour([(0, 0), (10, 0), (10, 10), (0, 10)])
        # removing one corner cuts the square to a triangle of half area...
        assert vertex_removal_delta(c, 1) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_shoelace_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng, m=int(rng.integers(5, 15)))
        pts = [tuple(p) for p in c.vertices]
        i = int(rng.integers(0, len(pts)))
        before = abs(shoelace(pts))
        after = abs(shoelace(pts[:i] + pts[i + 1 :]))
        want = abs(before - after) / before
        assert vertex_removal_delta(c, i) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        shapes(),
        st.integers(0, 29),
        st.booleans(),
        st.integers(0, 29),
        st.sampled_from(["free", "integer", "half"]),
    )
    def test_shared_terms_match_delete_reference(self, v, shift, flip, edge, snap):
        """Every removal delta equals _signed_area of the np.delete'd polygon
        bit for bit, and is the same for any rotation or reversal of the
        vertex list.  A vertex inserted at an edge's midpoint of an integer
        or half-integer polygon is collinear with exactly representable
        shoelace terms, so its delta is exactly 0."""
        if snap == "integer":
            v = np.round(v)
        elif snap == "half":
            v = np.round(v * 2) / 2
        if snap != "free":
            e = edge % len(v)
            v = np.insert(v, e + 1, (v[e] + v[(e + 1) % len(v)]) / 2, axis=0)
        m = len(v)
        if m < 4:
            return
        # vertex j of the rotated, maybe reversed, list is vertex order[j] of v
        order = np.roll(np.arange(m), shift % m)
        if flip:
            order = order[::-1]
        w = v[order]
        before = abs(_signed_area(w))
        if before == 0.0:
            with pytest.raises(DegenerateContour):
                _removal_deltas(w, range(m))
            return
        got = np.array(_removal_deltas(w, range(m)))
        want = np.array(
            [abs(before - abs(_signed_area(np.delete(w, i, axis=0)))) / before for i in range(m)]
        )
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.tolist() == [vertex_removal_delta(Contour(w), i) for i in range(m)]
        unrotated = np.array(_removal_deltas(v, range(m)))
        assert np.array_equal(got.view(np.int64), unrotated[order].view(np.int64))
        if snap != "free":
            assert unrotated[e + 1] == 0.0

    def test_needs_four_vertices(self):
        with pytest.raises(ValueError):
            vertex_removal_delta(Contour([(0, 0), (1, 0), (0, 1)]), 0)

    def test_index_validated(self):
        c = Contour([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError):
            vertex_removal_delta(c, 4)
