"""The batch kernels equal their one-contour oracles bit for bit.

_resample_many, fourier._coefficient_rows and _embed_many, _shrink_many and
_simple_many prepare all of an image's instances in one array pass.  Each is
checked here against a scalar or one-contour reference, on lists that mix
good polygons with degenerate ones, with every numpy warning an error and at
block budgets small enough to split the lists."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import (
    AnnotatedImage,
    Contour,
    DegenerateContour,
    DegreeTooLarge,
    TextInstance,
    ZeroPerimeter,
    contours,
    fourier,
    generate_targets,
    geometry,
)
from fourier_contours.geometry import _edges, _signed_area
from conftest import inline_basis, point_in_polygon
from test_geometry import scalar_is_simple, scalar_shrink, shapes


def scalar_resample(v, n):
    """Reference for _resample_many: one polygon, its start crossing found
    by a loop over the edges."""
    v = np.asarray(v)
    if _signed_area(v) < 0.0:
        v = v[::-1]
    a, b = _edges(v)
    lengths = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    total = math.fsum(lengths)
    if total <= 0.0:
        raise ZeroPerimeter("contour has zero perimeter")
    cy = math.fsum(0.5 * (a[:, 1] + b[:, 1]) * lengths) / total
    best = None  # (edge, t, x) of the rightmost crossing, the first on ties
    for i, ((ax, ay), (bx, by)) in enumerate(zip(a, b)):
        if min(ay, by) <= cy < max(ay, by):
            t = (cy - ay) / (by - ay)
            x = ax + t * (bx - ax)
            if best is None or x > best[2]:
                best = (i, t, x)
    if best is None:
        raise DegenerateContour("no horizontal crossing through the center")
    e, t, _ = best
    p0 = a[e] + t * (b[e] - a[e])
    m = v.shape[0]
    cycle = np.concatenate([[p0], v[(np.arange(1, m + 1) + e) % m], [p0]])
    seg = np.hypot(np.diff(cycle[:, 0]), np.diff(cycle[:, 1]))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    if cum[-1] <= 0.0:
        raise ZeroPerimeter("contour has zero perimeter")
    targets = np.arange(n) * (cum[-1] / n)
    seat = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, seg.size - 1)
    frac = (targets - cum[seat]) / np.where(seg[seat] > 0.0, seg[seat], 1.0)
    return cycle[seat] + frac[:, None] * (cycle[seat + 1] - cycle[seat])


def scalar_coefficients(points, k):
    """Reference for _coefficient_rows: one sample block's direct sum."""
    n = points.shape[0]
    z = points[:, 0] + 1j * points[:, 1]
    return (inline_basis(n, k, -1) * z).sum(axis=1) / n


def outcome(fn, *args):
    """fn's result, or the type and message of the GeometryError it raises."""
    try:
        return fn(*args)
    except (DegenerateContour, ZeroPerimeter) as exc:
        return type(exc), str(exc)


def same(got, want):
    if isinstance(got, tuple) or isinstance(want, tuple):
        return isinstance(got, tuple) and isinstance(want, tuple) and got == want
    return np.array_equal(got, want, equal_nan=True)


def batch_outcomes(results, errors):
    return [(type(err), str(err)) if err else res for res, err in zip(results, errors)]


@st.composite
def polygon_lists(draw):
    """0-12 vertex arrays: shapes() free or snapped to a grid, and the
    degenerate and awkward cases the batches must keep apart:

    * flat: collinear, zero area; a horizontal one has no center crossing
    * point: one repeated vertex, zero area and zero perimeter
    * chevron: a 2 px tip whose offset rebuild self-intersects
    * escape: a hexagon whose offset rebuild is simple but leaves it
    * midpoints: a rectangle with vertices inside its edges, whose exactly
      parallel neighbours divide 0 by 0 in the rebuild
    * spike: an edge that folds back on the previous one
    * collinear: two non-adjacent edges rounded onto one line, their boxes
      disjoint in x or only in y, which the pair pruning skips
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["shape", "grid", "flat", "point", "chevron", "escape", "midpoints", "spike", "collinear"]
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        x, y = rng.uniform(0, 40, 2)
        s = rng.uniform(0.2, 3.0)
        if kind in ("shape", "grid"):
            v = draw(shapes())
            v = np.round(v / 4) if kind == "grid" else v
        elif kind == "flat":
            dy = 0.0 if rng.uniform() < 0.5 else 5.0
            v = [(x, y), (x + 10, y + dy), (x + 20, y + 2 * dy)]
        elif kind == "point":
            v = np.tile([x, y], (int(rng.integers(3, 6)), 1))
        elif kind == "chevron":
            v = np.array([(0, 0), (50, 100), (100, 0), (100, 60), (51, 160), (49, 160), (0, 60)]) * s / 10 + [x, y]
        elif kind == "escape":
            v = np.array([(18.8, 7.1), (18.5, 12.6), (3.6, 23.2), (9.6, 7.1), (20.3, 3.0), (17.6, 4.5)]) * s + [x, y]
        elif kind == "midpoints":
            v = np.array([(0, 0), (5, 0), (10, 0), (10, 4), (10, 8), (5, 8), (0, 8), (0, 4)]) * s + [x, y]
        elif kind == "spike":
            v = np.array([(0, 0), (10, 0), (6, 0), (6, 5), (0, 5)]) * s + [x, y]
        else:
            slope = rng.uniform(-3, 3)
            t = np.sort(rng.uniform(0, 30, 4))
            on = np.stack([x + t, y + slope * (x + t) * 0.1], axis=1)
            up = np.array([0.0, rng.uniform(1, 5)])
            v = np.array([on[0], on[1], on[1] + up, on[2] + up, on[2], on[3], on[3] - up, on[0] - up])
            # steep: the edges' x ranges overlap and only their y ranges are disjoint
            v = v[:, ::-1] if rng.uniform() < 0.5 else v
        v = np.asarray(v, dtype=np.float64)
        out.append(v[::-1] if rng.uniform() < 0.3 else v)
    return out


# budgets small enough to split the lists and the pair scans into many blocks
BUDGETS = st.sampled_from([None, (1, 1), (7, 3), (300, 40)])


@contextlib.contextmanager
def budgets(pair):
    if pair is None:
        yield
        return
    elements, pairs = pair
    with mock.patch.object(contours, "_BATCH_ELEMENTS", elements), mock.patch.object(
        geometry, "_SIMPLE_BLOCK_PAIRS", pairs
    ):
        yield


class TestBatchesMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(polygon_lists(), st.sampled_from([0.3, 0.6, 0.9]), BUDGETS)
    def test_shrink(self, verts, factor, budget):
        want = [outcome(scalar_shrink, Contour(v), factor) for v in verts]
        with warnings.catch_warnings(), budgets(budget):
            warnings.simplefilter("error")
            shrunk, errors = geometry._shrink_many(verts, factor)
        got = batch_outcomes([None if c is None else c.vertices for c in shrunk], errors)
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want))

    @settings(max_examples=150, deadline=None)
    @given(polygon_lists(), BUDGETS)
    def test_simple(self, verts, budget):
        if not verts:
            return
        with warnings.catch_warnings(), budgets(budget):
            warnings.simplefilter("error")
            got = geometry._simple_many(*geometry._ragged(verts))
        assert got.tolist() == [scalar_is_simple(v) for v in verts]

    @settings(max_examples=150, deadline=None)
    @given(polygon_lists(), st.sampled_from([3, 16, 64]), st.integers(0, 5), BUDGETS)
    def test_resample_and_embed(self, verts, n, k, budget):
        k = min(k, (n - 1) // 2)
        want = [outcome(scalar_resample, v, n) for v in verts]
        with warnings.catch_warnings(), budgets(budget):
            warnings.simplefilter("error")
            points, errors = geometry._resample_many(verts, n)
            coeffs, embed_errors = fourier._embed_many(verts, k, n)
        assert all(same(g, w) for g, w in zip(batch_outcomes(points, errors), want))
        want = [w if isinstance(w, tuple) else scalar_coefficients(w, k) for w in want]
        assert all(same(g, w) for g, w in zip(batch_outcomes(coeffs, embed_errors), want))
        assert len(points) == len(coeffs) == len(want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(shapes(), st.booleans()), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_inside_own(self, polys, seed):
        # shrink's containment test: each polygon's own vertices, points on its
        # edges (midpoints included) and free points, on and off its vertex grid
        rng = np.random.default_rng(seed)
        verts, points, owner = [], [], []
        for i, (v, snap) in enumerate(polys):
            v = np.round(v) if snap else v
            a, b = _edges(v)
            t = np.concatenate([np.full(len(v), 0.5), rng.uniform(0, 1, len(v))])[:, None]
            free = rng.uniform(-2, 26, size=(12, 2))
            pts = np.concatenate([v, np.tile(a, (2, 1)) + t * np.tile(b - a, (2, 1)), free, np.round(free)])
            verts.append(v)
            points.append(pts)
            owner += [i] * len(pts)
        a, sizes, _, nxt = geometry._ragged(verts)
        edge_poly = np.repeat(np.arange(len(verts)), sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometry._inside_own(a, a[nxt], edge_poly, np.concatenate(points), np.array(owner))
        want = [point_in_polygon(p, Contour(verts[i])) for i, p in zip(owner, np.concatenate(points))]
        assert got.tolist() == want


class TestBatchBudget:
    def test_one_polygon_larger_than_the_budget(self):
        v = np.stack([np.cos(np.arange(40) / 40 * 2 * np.pi), np.sin(np.arange(40) / 40 * 2 * np.pi)], axis=1)
        with budgets((8, 2)):
            shrunk, _ = geometry._shrink_many([v, v + 3], 0.3)
            points, _ = geometry._resample_many([v, v + 3], 50)
        assert np.array_equal(shrunk[1].vertices, geometry.shrink_polygon(Contour(v + 3), 0.3).vertices)
        assert np.array_equal(points[0], scalar_resample(v, 50))

    def test_blocks_hold_at_most_the_budget_plus_one_item(self):
        sizes = [5, 1, 9, 3, 3, 20, 2]
        cuts = contours._cuts(sizes, 8)
        assert cuts[0][0] == 0 and cuts[-1][1] == len(sizes)
        assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
        assert all(sum(sizes[i : j - 1]) < 8 for i, j in cuts)
        assert contours._cuts([], 8) == []

    def test_errors_stay_with_their_polygon(self):
        flat = np.array([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        square = np.array([(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)])
        coeffs, errors = fourier._embed_many([square, flat, square + 1], 2, 16)
        assert [type(e) for e in errors] == [type(None), DegenerateContour, type(None)]
        assert not coeffs[1].any() and coeffs[0].any()
        shrunk, errors = geometry._shrink_many([flat, square], 0.3)
        assert shrunk[0] is None and str(errors[0]) == "zero-area contour cannot be shrunk"
        assert errors[1] is None

    def test_bad_parameters_raise_for_the_whole_batch(self):
        square = np.array([(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)])
        with pytest.raises(ValueError):
            geometry._shrink_many([square], 1.0)
        with pytest.raises(ValueError):
            geometry._resample_many([square], 2)
        with pytest.raises(DegreeTooLarge):
            fourier._embed_many([square], 8, 16)
        # nothing to shrink: no instance reaches the factor check
        assert geometry._shrink_many([], 1.0) == ([], [])

    @settings(max_examples=20, deadline=None)
    @given(polygon_lists(), BUDGETS)
    def test_targets_do_not_depend_on_the_budget(self, verts, budget):
        # ids follow the list; every fourth instance is do-not-care
        instances = [TextInstance(Contour(v), ignore=i % 4 == 3, id=f"i{i}") for i, v in enumerate(verts)]
        img = AnnotatedImage("img", 64, 48, tuple(instances))
        want = generate_targets(img, k=2, n=16)
        with warnings.catch_warnings(), budgets(budget):
            warnings.simplefilter("error")
            got = generate_targets(img, k=2, n=16)
        assert got.skipped == want.skipped
        for name, lt in want.levels.items():
            for key in ("tr", "tcr", "regression", "weight", "care"):
                assert np.array_equal(getattr(got.levels[name], key), getattr(lt, key))
