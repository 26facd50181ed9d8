import numpy as np
import pytest
from conftest import point_in_polygon, star_shaped
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fourier_contours import (
    AnnotatedImage,
    Contour,
    GeometryError,
    LevelPrediction,
    LevelSpec,
    PredictionMaps,
    TextInstance,
    assign_levels,
    contour_center,
    decode_all,
    embed,
    evaluate,
    evaluate_series,
    flat_to_coeffs,
    generate_targets,
    instance_scale,
    rasterize_grid,
    shrink_polygon,
    signed_area,
)
from fourier_contours.fourier import fit_by_degree
from fourier_contours.synth import ellipse_polygon, rect14, ribbon
from fourier_contours.targets import DEFAULT_LEVELS, LevelTargets, TargetMaps, _grid


def image_with(instances, width=256, height=256):
    return AnnotatedImage(
        image_id="t", width=width, height=height, instances=tuple(instances)
    )


def rect(x0, y0, x1, y1):
    return Contour([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


class TestScaleAssignment:
    def test_scale_is_longest_side_ratio(self):
        img = image_with([], width=200, height=100)
        inst = TextInstance(polygon=rect(0, 0, 50, 10), id="a")
        assert instance_scale(inst.polygon, img.width, img.height) == 0.25

    def test_ranges_inclusive_both_ends(self):
        specs = DEFAULT_LEVELS
        assert [s.name for s in assign_levels(0.0, specs)] == ["P3"]
        assert [s.name for s in assign_levels(0.4, specs)] == ["P3", "P4"]
        assert [s.name for s in assign_levels(0.3, specs)] == ["P3", "P4"]
        assert [s.name for s in assign_levels(0.5, specs)] == ["P4"]
        assert [s.name for s in assign_levels(0.6, specs)] == ["P4", "P5"]
        assert [s.name for s in assign_levels(0.7, specs)] == ["P4", "P5"]
        assert [s.name for s in assign_levels(0.85, specs)] == ["P5"]
        assert [s.name for s in assign_levels(1.0, specs)] == ["P5"]

    def test_level_spec_validation(self):
        with pytest.raises(ValueError):
            LevelSpec("bad", 0, 0.0, 0.4)
        with pytest.raises(ValueError):
            LevelSpec("bad", 8, 0.5, 0.4)
        with pytest.raises(ValueError):
            LevelSpec("bad", 8, -0.1, 0.4)


class TestMapShapes:
    def test_ceil_of_dim_over_stride(self):
        img = image_with(
            [TextInstance(polygon=rect(0, 0, 30, 30), id="a")], width=100, height=65
        )
        maps = generate_targets(img, DEFAULT_LEVELS)
        assert maps.levels["P3"].shape == (9, 13)  # ceil(65/8), ceil(100/8)
        assert maps.levels["P4"].shape == (5, 7)
        assert maps.levels["P5"].shape == (3, 4)

    def test_all_levels_always_present(self):
        img = image_with([TextInstance(polygon=rect(0, 0, 20, 20), id="a")])
        maps = generate_targets(img, DEFAULT_LEVELS)
        assert set(maps.levels) == {"P3", "P4", "P5"}
        # P5 exists but stays empty for this small instance
        assert maps.levels["P5"].tr.sum() == 0


class TestMasks:
    def test_tr_cells_match_membership_oracle(self):
        poly = rect(24, 16, 96, 72)
        img = image_with([TextInstance(polygon=poly, id="a")])
        maps = generate_targets(img, DEFAULT_LEVELS)
        lt = maps.levels["P3"]
        h, w = lt.shape
        for iy in range(h):
            for ix in range(w):
                cx, cy = (ix + 0.5) * 8, (iy + 0.5) * 8
                assert bool(lt.tr[iy, ix]) == point_in_polygon((cx, cy), poly)

    def test_tcr_is_shrunk_intersect_tr(self):
        poly = rect(16, 16, 112, 80)
        img = image_with([TextInstance(polygon=poly, id="a")])
        maps = generate_targets(img, DEFAULT_LEVELS)
        lt = maps.levels["P3"]
        shrunk = shrink_polygon(poly, 0.3)
        h, w = lt.shape
        for iy in range(h):
            for ix in range(w):
                cx, cy = (ix + 0.5) * 8, (iy + 0.5) * 8
                want = point_in_polygon((cx, cy), shrunk) and point_in_polygon(
                    (cx, cy), poly
                )
                assert bool(lt.tcr[iy, ix]) == want
        assert np.all(lt.tcr <= lt.tr)

    def test_weights(self):
        poly = rect(16, 16, 112, 80)
        img = image_with([TextInstance(polygon=poly, id="a")])
        lt = generate_targets(img, DEFAULT_LEVELS).levels["P3"]
        assert set(np.unique(lt.weight)) <= {0.0, 0.5, 1.0}
        assert np.all(lt.weight[lt.tcr == 1] == 1.0)
        assert np.all(lt.weight[(lt.tr == 1) & (lt.tcr == 0)] == 0.5)
        assert np.all(lt.weight[lt.tr == 0] == 0.0)


class TestRegressionChannels:
    def test_recentered_constant_term(self):
        poly = rect(16, 16, 112, 80)
        img = image_with([TextInstance(polygon=poly, id="a")])
        lt = generate_targets(img, DEFAULT_LEVELS, k=5).levels["P3"]
        sig = embed(poly, 5)
        ys, xs = np.nonzero(lt.tr)
        assert len(xs) > 0
        for iy, ix in zip(ys, xs):
            flat = lt.regression[:, iy, ix]
            coeffs = flat_to_coeffs(flat)
            cx, cy = (ix + 0.5) * 8, (iy + 0.5) * 8
            # constant term carries the shift; every other channel is shared
            assert coeffs[5] == pytest.approx(sig.c0 - complex(cx, cy), abs=1e-9)
            rest_got = np.delete(coeffs, 5)
            rest_want = np.delete(sig.coeffs, 5)
            assert np.allclose(rest_got, rest_want, atol=1e-12)

    def test_reconstruction_lands_on_instance(self):
        poly = rect(16, 16, 112, 80)
        img = image_with([TextInstance(polygon=poly, id="a")])
        lt = generate_targets(img, DEFAULT_LEVELS, k=5).levels["P3"]
        ys, xs = np.nonzero(lt.tcr)
        iy, ix = ys[0], xs[0]
        coeffs = flat_to_coeffs(lt.regression[:, iy, ix])
        coeffs = coeffs.copy()
        coeffs[5] += complex((ix + 0.5) * 8, (iy + 0.5) * 8)
        pts = evaluate_series(coeffs, 50)
        rec = Contour(np.stack([pts.real, pts.imag], axis=-1))
        x0, y0, x1, y1 = rec.bounds()
        assert x0 > 10 and y0 > 10 and x1 < 118 and y1 < 86  # near rect(16,16,112,80)

    def test_zero_outside_tr(self):
        poly = rect(16, 16, 112, 80)
        img = image_with([TextInstance(polygon=poly, id="a")])
        lt = generate_targets(img, DEFAULT_LEVELS).levels["P3"]
        outside = lt.tr == 0
        assert np.all(lt.regression[:, outside] == 0.0)


class TestOverlapsAndIgnores:
    def test_smaller_area_wins_overlap(self):
        big = rect(8, 8, 108, 88)
        small = rect(40, 32, 72, 56)
        img = image_with(
            [
                TextInstance(polygon=big, id="big"),
                TextInstance(polygon=small, id="small"),
            ]
        )
        lt = generate_targets(img, DEFAULT_LEVELS, k=5).levels["P3"]
        sig_small = embed(small, 5)
        # a cell in the middle of the small instance belongs to the small one
        iy, ix = 5, 7  # center (60, 44)
        assert point_in_polygon(((ix + 0.5) * 8, (iy + 0.5) * 8), small)
        coeffs = flat_to_coeffs(lt.regression[:, iy, ix])
        cx, cy = (ix + 0.5) * 8, (iy + 0.5) * 8
        assert coeffs[5] == pytest.approx(sig_small.c0 - complex(cx, cy), abs=1e-9)

    def test_instance_order_does_not_matter(self):
        big = rect(8, 8, 108, 88)
        small = rect(40, 32, 72, 56)
        img_a = image_with(
            [TextInstance(polygon=big, id="x"), TextInstance(polygon=small, id="y")]
        )
        img_b = image_with(
            [TextInstance(polygon=small, id="y"), TextInstance(polygon=big, id="x")]
        )
        a = generate_targets(img_a, DEFAULT_LEVELS)
        b = generate_targets(img_b, DEFAULT_LEVELS)
        for name in a.levels:
            assert np.array_equal(a.levels[name].regression, b.levels[name].regression)
            assert np.array_equal(a.levels[name].tr, b.levels[name].tr)

    def test_ignored_instance_zeroes_weight_and_care(self):
        poly = rect(24, 24, 104, 72)
        img = image_with([TextInstance(polygon=poly, ignore=True, id="dc")])
        lt = generate_targets(img, DEFAULT_LEVELS).levels["P3"]
        assert lt.tr.sum() == 0
        assert lt.weight.sum() == 0.0
        inside = lt.care == 0
        assert inside.sum() > 0
        for iy, ix in zip(*np.nonzero(inside)):
            assert point_in_polygon(((ix + 0.5) * 8, (iy + 0.5) * 8), poly)

    def test_real_instance_overrides_ignore_cells(self):
        # a text instance drawn over a do-not-care region keeps its positives
        real = rect(32, 32, 96, 64)
        dc = rect(24, 24, 104, 72)
        img = image_with(
            [
                TextInstance(polygon=real, id="a"),
                TextInstance(polygon=dc, ignore=True, id="dc"),
            ]
        )
        lt = generate_targets(img, DEFAULT_LEVELS).levels["P3"]
        ys, xs = np.nonzero(lt.tr)
        assert len(ys) > 0
        assert np.all(lt.care[ys, xs] == 1)

    def test_degenerate_instance_skipped_with_reason(self):
        flatline = Contour([(10, 10), (40, 10), (70, 10)])
        img = image_with(
            [
                TextInstance(polygon=flatline, id="bad"),
                TextInstance(polygon=rect(16, 16, 112, 80), id="good"),
            ]
        )
        maps = generate_targets(img, DEFAULT_LEVELS)
        assert [s[0] for s in maps.skipped] == ["bad"]
        assert maps.levels["P3"].tr.sum() > 0


class TestCare:
    def test_care_defaults_to_one(self):
        img = image_with([TextInstance(polygon=rect(16, 16, 64, 48), id="a")])
        for lt in generate_targets(img, DEFAULT_LEVELS).levels.values():
            positives = lt.tr == 1
            assert np.all(lt.care[positives] == 1)
            # cells outside any ignore region stay trainable negatives
            assert np.all(lt.care == 1)


def reference_targets(img, specs, k, n, shrink_factor):
    """Oracle for generate_targets: every instance painted into full-size
    maps in turn, do-not-care instances first, then the cared ones biggest
    first, each overwriting the cells it shares with those before it.  Then
    each instance that owns cells on a level but no tcr cell gets tcr on its
    cell nearest its shrunk centre, and one that owns no cell is skipped."""
    channels = 2 * (2 * k + 1)
    levels, grids, ignore_masks, owners = {}, {}, {}, {}
    for spec in specs:
        xs, ys = _grid(spec, img.width, img.height)
        shape = (ys.size, xs.size)
        levels[spec.name] = LevelTargets(
            spec=spec,
            tr=np.zeros(shape, dtype=np.uint8),
            tcr=np.zeros(shape, dtype=np.uint8),
            regression=np.zeros((channels,) + shape, dtype=np.float64),
            weight=np.zeros(shape, dtype=np.float64),
            care=np.ones(shape, dtype=np.uint8),
        )
        grids[spec.name] = (xs, ys)
        ignore_masks[spec.name] = np.zeros(shape, dtype=bool)
        owners[spec.name] = np.full(shape, -1)
    out = TargetMaps(img.image_id, img.width, img.height, k, n, shrink_factor, levels)
    for inst in img.instances:
        if inst.ignore:
            scale = instance_scale(inst.polygon, img.width, img.height)
            for spec in assign_levels(scale, specs):
                xs, ys = grids[spec.name]
                ignore_masks[spec.name] |= rasterize_grid(inst.polygon, xs, ys)
    valid = [inst for inst in img.instances if not inst.ignore]
    painted = []  # (instance, shrunk polygon)
    for inst in sorted(valid, key=lambda inst: -abs(signed_area(inst.polygon))):
        try:
            signature = embed(inst.polygon, k=k, n=n)
            shrunk = shrink_polygon(inst.polygon, shrink_factor)
        except GeometryError as exc:
            out.skipped.append((inst.id, str(exc)))
            continue
        painted.append((inst, shrunk))
        scale = instance_scale(inst.polygon, img.width, img.height)
        for spec in assign_levels(scale, specs):
            xs, ys = grids[spec.name]
            lt = levels[spec.name]
            inside = rasterize_grid(inst.polygon, xs, ys)
            if not inside.any():
                continue
            center = rasterize_grid(shrunk, xs, ys) & inside
            lt.tr[inside] = 1
            lt.tcr[inside] = center[inside].astype(np.uint8)
            owners[spec.name][inside] = len(painted) - 1
            lt.regression[:, inside] = signature.flat[:, None]
            iy, ix = np.nonzero(inside)
            lt.regression[2 * k, iy, ix] -= xs[ix]
            lt.regression[2 * k + 1, iy, ix] -= ys[iy]
    for i, (inst, shrunk) in enumerate(painted):
        owns = False
        for spec in specs:
            xs, ys = grids[spec.name]
            tcr = levels[spec.name].tcr
            iy, ix = np.nonzero(owners[spec.name] == i)  # row-major
            owns = owns or iy.size > 0
            if iy.size and not tcr[iy, ix].any():
                cx, cy = contour_center(shrunk)
                j = np.argmin((xs[ix] - cx) ** 2 + (ys[iy] - cy) ** 2)  # the first of equal distances
                tcr[iy[j], ix[j]] = 1
        if not owns:
            out.skipped.append((inst.id, "owns no cell on any of its levels"))
    for spec in specs:
        lt = levels[spec.name]
        lt.care = (~(ignore_masks[spec.name] & (lt.tr == 0))).astype(np.uint8)
        lt.weight = np.where(lt.tr == 1, np.where(lt.tcr == 1, 1.0, 0.5), 0.0)
    return out


@st.composite
def level_specs(draw):
    """One to three levels at strides that need not be powers of two, their
    closed scale ranges overlapping so that together they cover [0, 1]."""
    strides = sorted(draw(st.lists(st.integers(3, 24), min_size=1, max_size=3, unique=True)))
    m = len(strides)
    return tuple(
        LevelSpec(f"L{i}", stride, max(0.0, i / m - 0.1), min(1.0, (i + 1) / m + 0.1))
        for i, stride in enumerate(strides)
    )


@st.composite
def target_images(draw):
    """Rectangles and stars, some nested in, shifted across or duplicating an
    earlier one (an equal area, so the tie order shows), do-not-care regions,
    and degenerate outlines: collinear vertices and a repeated point."""
    width, height = draw(st.integers(16, 160)), draw(st.integers(16, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["rect", "star", "nested", "shifted", "duplicate", "flat", "point"]
    polygons, instances = [], []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds), max_size=8))):
        if kind in ("nested", "shifted", "duplicate") and polygons:
            v = polygons[int(rng.integers(len(polygons)))].vertices
            x0, y0, x1, y1 = v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max()
            ctr = np.array([(x0 + x1) / 2, (y0 + y1) / 2])
            if kind == "nested":
                v = ctr + rng.uniform(0.5, 0.95) * (v - ctr)
            elif kind == "shifted":
                v = v + rng.uniform(-0.5, 0.5, 2) * [x1 - x0, y1 - y0]
            polygon = Contour(v)
        elif kind == "flat":
            x, y = rng.uniform(0, [width, height])
            polygon = Contour([(x, y), (x + 10, y + 5), (x + 20, y + 10)])
        elif kind == "point":
            polygon = Contour(np.tile(rng.uniform(0, [width, height]), (3, 1)))
        else:
            ctr = rng.uniform(-4, [width + 4, height + 4])
            size = rng.uniform(2, max(width, height) / 2)
            if kind == "star":
                polygon = star_shaped(rng, center=ctr, rmin=size / 4, rmax=size)
            else:
                x0, y0 = ctr - size / 2
                polygon = rect(x0, y0, x0 + size * rng.uniform(0.2, 1.0), y0 + size)
        polygons.append(polygon)
        instances.append(TextInstance(polygon=polygon, ignore=draw(st.booleans()), id=f"i{i}"))
    return image_with(instances, width=width, height=height)


class TestReferencePainter:
    @settings(max_examples=150, deadline=None)
    @given(target_images(), level_specs(), st.sampled_from([0.3, 0.6]))
    def test_matches_reference(self, img, specs, shrink_factor):
        got = generate_targets(img, specs, k=3, n=64, shrink_factor=shrink_factor)
        want = reference_targets(img, specs, k=3, n=64, shrink_factor=shrink_factor)
        assert got.skipped == want.skipped
        assert list(got.levels) == list(want.levels)
        for name, lt in want.levels.items():
            for key in ("tr", "tcr", "regression", "weight", "care"):
                a, b = getattr(got.levels[name], key), getattr(lt, key)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, key)


WIDTH, HEIGHT = 400, 300


@st.composite
def lone_shapes(draw):
    """A rectangle, lying or standing, or a turned ellipse, of aspect up to 12,
    anywhere inside a WIDTH x HEIGHT image."""
    long = draw(st.floats(16.0, 380.0))
    short = min(long / draw(st.floats(1.0, 12.0)), HEIGHT - 16.0)
    if draw(st.booleans()):
        w, h = (short, long) if long < HEIGHT and draw(st.booleans()) else (long, short)
        x0, y0 = draw(st.floats(0.0, WIDTH - w)), draw(st.floats(0.0, HEIGHT - h))
        return rect(x0, y0, x0 + w, y0 + h)
    rot = draw(st.floats(0.0, np.pi))
    cos, sin = np.cos(rot), np.sin(rot)
    half = np.hypot([long * cos, long * sin], [short * sin, short * cos]) / 2  # of its bounding box
    fit = min(1.0, (WIDTH / 2 - 1) / half[0], (HEIGHT / 2 - 1) / half[1])
    cx, cy = (draw(st.floats(fit * r, side - fit * r)) for r, side in zip(half, (WIDTH, HEIGHT)))
    return ellipse_polygon(cx, cy, fit * long / 2, fit * short / 2, n=64, rot=rot)


def ideal_round_trip(polygons, width=WIDTH, height=HEIGHT):
    """(report, targets) of the instances t0, t1, ... in a width x height
    image: their targets decoded as perfect predictions and scored against
    them, at the defaults."""
    img = image_with([TextInstance(polygon=p, id=f"t{i}") for i, p in enumerate(polygons)], width=width, height=height)
    targets = generate_targets(img)
    levels = [LevelPrediction(name, lt.spec.stride, lt.tr, lt.tcr, lt.regression)
              for name, lt in targets.levels.items()]
    detections = decode_all(PredictionMaps(img.image_id, width, height, levels))
    return evaluate(detections, img.instances), targets


# a 300 x 40 bar goes to P5 only, whose cell-centre rows lie at 176 and 208:
# at y 172..212 its shrunk region, y 177.3..206.7, holds none of them; a
# 2 x 2 px square at (1, 1) holds no cell centre of any level
BAR_BETWEEN_ROWS, BAR_ON_A_ROW, SPECK = rect(50, 172, 350, 212), rect(50, 100, 350, 140), rect(1, 1, 3, 3)


class TestLoneInstanceRoundTrip:
    """With perfect predictions a lone cared-for instance is detected, or is
    listed in skipped."""

    @settings(max_examples=80, deadline=None)
    @given(lone_shapes())
    @example(BAR_BETWEEN_ROWS)
    @example(BAR_ON_A_ROW)
    @example(SPECK)
    def test_detected_or_skipped(self, polygon):
        report, targets = ideal_round_trip([polygon])
        assert report.fp == 0
        assert (report.tp, [s[0] for s in targets.skipped]) in ((1, []), (0, ["t0"]))

    def test_a_bar_between_cell_rows_is_found_and_a_speck_skipped(self):
        report, targets = ideal_round_trip([BAR_BETWEEN_ROWS, SPECK])
        assert (report.tp, report.fn) == (1, 1)
        assert targets.skipped == [("t1", "owns no cell on any of its levels")]
        # the bar's one tcr cell: the P5 cell nearest its centre (200, 192), in
        # the upper of the two rows, as they are equally near
        assert [(name, np.argwhere(lt.tcr).tolist()) for name, lt in targets.levels.items() if lt.tcr.any()] == [
            ("P5", [[5, 6]])]


SIDE = 384


@st.composite
def crowded_layouts(draw):
    """2 to 8 synth rectangles, ellipses and ribbons, lying or standing,
    packed left to right in shelves from near the top left corner of a SIDE x
    SIDE image, their bounding boxes pairwise at least 1 px apart.  Their
    scales range over and between the level bands; each is at least 1.5
    strides of its finest level thick, so it holds cell centres."""
    x0 = y0 = draw(st.floats(0.0, 4.0))
    x, y, shelf = x0, y0, 0.0
    polygons = []
    for _ in range(draw(st.integers(2, 8))):
        length = draw(st.floats(0.06, 0.95)) * SIDE
        stride = min(spec.stride for spec in assign_levels(length / SIDE))
        thick = max(length / draw(st.floats(2.0, 8.0)), 1.5 * stride + 2.0)
        w, h = (thick, length) if draw(st.booleans()) else (length, thick)
        gap = draw(st.sampled_from([1.0, 1.0, 2.0, 5.0, 16.0]))
        if x + w > SIDE:
            x, y, shelf = x0, y + shelf + gap, 0.0
        if x + w > SIDE or y + h > SIDE:
            break
        cx, cy = x + w / 2, y + h / 2
        kind = draw(st.sampled_from(["rect", "ellipse", "ribbon"]))
        if kind == "rect":
            polygon = rect14(x, y, w, h)
        elif kind == "ellipse":
            polygon = ellipse_polygon(cx, cy, w / 2, h / 2)
        else:
            swing = draw(st.floats(0.0, (thick - 1.5 * stride - 2.0) / 2))
            polygon = ribbon(0.0, 0.0, length, thick - 2 * swing, swing, draw(st.floats(0.5, 1.0)))
            if w < h:  # standing: the lying ribbon turned a quarter
                polygon = Contour(polygon.vertices[:, ::-1])
            polygon = Contour(polygon.vertices + [cx, cy])
        polygons.append(polygon)
        x, shelf = x + w + gap, max(shelf, h)
    assume(len(polygons) >= 2)
    assume(all(fit.iou >= 0.8 for (fit,) in fit_by_degree(polygons, [5])))
    return polygons


class TestCrowdedRoundTrip:
    """Perfect predictions of instances packed close together decode to one
    detection each and nothing else."""

    @settings(max_examples=60, deadline=None)
    @given(crowded_layouts())
    # two P4 bars 1 px apart
    @example([rect14(20.0, 100.0, 192.0, 48.0), rect14(20.0, 149.0, 192.0, 48.0)])
    # an ellipse on P3 and P4 beside a ribbon on P4 and P5, 1 px apart
    @example([ellipse_polygon(70.0, 100.0, 67.0, 30.0), ribbon(258.0, 120.0, 240.0, 60.0, 10.0)])
    def test_every_instance_is_detected_once(self, polygons):
        report, targets = ideal_round_trip(polygons, SIDE, SIDE)
        assert (report.tp, report.fp, report.fn, targets.skipped) == (len(polygons), 0, 0, [])
