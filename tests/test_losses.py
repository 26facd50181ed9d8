import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import (
    AlignmentMismatch,
    LevelPrediction,
    LossBreakdown,
    LossSums,
    NonFinite,
    ShapeMismatch,
    cross_entropy,
    generate_targets,
    image_loss,
    ohem_select,
    regression_loss,
    regression_loss_grad,
    smooth_l1,
    total_loss,
)
from fourier_contours.fourier import evaluate_series, flat_to_coeffs
from fourier_contours.synth import roundtrip_corpus


class TestSmoothL1:
    def test_quadratic_region(self):
        assert smooth_l1(np.array([0.5])) == pytest.approx(0.125)
        assert smooth_l1(np.array([-0.5])) == pytest.approx(0.125)

    def test_linear_region(self):
        assert smooth_l1(np.array([3.0])) == pytest.approx(2.5)
        assert smooth_l1(np.array([-3.0])) == pytest.approx(2.5)

    def test_continuous_at_kink(self):
        eps = 1e-9
        below = smooth_l1(np.array([1.0 - eps]))[0]
        above = smooth_l1(np.array([1.0 + eps]))[0]
        assert abs(below - above) < 1e-8
        assert smooth_l1(np.array([1.0]))[0] == pytest.approx(0.5)

    def test_beta_scales_kink(self):
        assert smooth_l1(np.array([0.5]), beta=0.25) == pytest.approx(0.5 - 0.125)
        assert smooth_l1(np.array([0.1]), beta=0.25) == pytest.approx(0.01 / 0.5)


class TestCrossEntropy:
    def test_known_values(self):
        got = cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.allclose(got, [math.log(2.0), math.log(2.0)])

    def test_clamp_boundary(self):
        got = cross_entropy(np.array([0.0]), np.array([1.0]))
        assert got[0] == pytest.approx(-math.log(1e-7), rel=1e-6)
        got = cross_entropy(np.array([1.0]), np.array([1.0]))
        assert got[0] == pytest.approx(1e-7, rel=1e-3)

    def test_never_nan(self):
        probs = np.array([0.0, 1.0, 0.5])
        for label in (0.0, 1.0):
            out = cross_entropy(probs, np.full(3, label))
            assert np.isfinite(out).all()


def regression_oracle(gt_rows, pred_rows, member, n_points, beta=1.0):
    """Pure-python transcription: sample both series at j/N', smooth-L1 the
    coordinate differences, weight rows, divide by N' only."""

    def sample(flat, t):
        half = (len(flat) // 2 - 1) // 2
        acc = 0j
        for idx in range(len(flat) // 2):
            freq = idx - half
            c = complex(flat[2 * idx], flat[2 * idx + 1])
            acc += c * cmath.exp(2j * cmath.pi * freq * t)
        return acc

    def sl1(x):
        ax = abs(x)
        return 0.5 * x * x / beta if ax < beta else ax - 0.5 * beta

    total = 0.0
    for row_gt, row_pred, m in zip(gt_rows, pred_rows, member):
        w = 1.0 if m else 0.5
        row_sum = 0.0
        for j in range(n_points):
            g = sample(row_gt, j / n_points)
            p = sample(row_pred, j / n_points)
            row_sum += sl1(g.real - p.real) + sl1(g.imag - p.imag)
        total += w * row_sum
    return total / n_points


class TestRegressionLoss:
    def test_zero_when_equal(self, rng):
        rows = rng.normal(size=(4, 22))
        assert regression_loss(rows, rows, np.ones(4, bool)) == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 5))
            k = int(rng.choice([1, 2, 5]))
            width = 2 * (2 * k + 1)
            gt = rng.normal(scale=20.0, size=(m, width))
            pred = gt + rng.normal(scale=1.0, size=(m, width))
            member = rng.integers(0, 2, size=m).astype(bool)
            n_points = int(rng.choice([5, 16, 50]))
            got = regression_loss(gt, pred, member, n_points=n_points)
            want = regression_oracle(gt, pred, member, n_points)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_empty_input_is_zero(self):
        assert regression_loss(np.zeros((0, 22)), np.zeros((0, 22)), np.zeros(0, bool)) == 0.0

    def test_alignment_checked(self):
        with pytest.raises(AlignmentMismatch):
            regression_loss(np.zeros((2, 22)), np.zeros((3, 22)), np.zeros(2, bool))
        with pytest.raises(AlignmentMismatch):
            regression_loss(np.zeros((2, 22)), np.zeros((2, 22)), np.zeros(3, bool))

    def test_center_weight_double(self, rng):
        gt = rng.normal(size=(1, 22))
        pred = gt + 0.01
        inside = regression_loss(gt, pred, np.array([True]))
        outside = regression_loss(gt, pred, np.array([False]))
        assert inside == pytest.approx(2.0 * outside, rel=1e-12)

    def test_normalized_by_sample_count_only(self, rng):
        # duplicating rows must double the loss: no averaging over rows
        gt = rng.normal(size=(1, 22))
        pred = gt + 0.02
        one = regression_loss(gt, pred, np.array([True]))
        two = regression_loss(
            np.vstack([gt, gt]), np.vstack([pred, pred]), np.array([True, True])
        )
        assert two == pytest.approx(2.0 * one, rel=1e-12)


def cos_sin_grad(gt, pred, member, n_points, beta=1.0):
    """Reference gradient of regression_loss from the real cos/sin basis:
    point (x, y) at parameter n responds to coefficient k = u + iv as
    dx/du = cos, dx/dv = -sin, dy/du = sin, dy/dv = cos."""
    deg = (gt.shape[1] // 2 - 1) // 2
    zg = evaluate_series(flat_to_coeffs(gt), n_points)
    zp = evaluate_series(flat_to_coeffs(pred), n_points)
    dx, dy = zp.real - zg.real, zp.imag - zg.imag
    gx = np.where(np.abs(dx) < beta, dx / beta, np.sign(dx))
    gy = np.where(np.abs(dy) < beta, dy / beta, np.sign(dy))
    theta = 2.0 * np.pi * np.outer(np.arange(-deg, deg + 1), np.arange(n_points) / n_points)
    cos, sin = np.cos(theta), np.sin(theta)
    gu = (gx[:, None, :] * cos[None] + gy[:, None, :] * sin[None]).sum(axis=2)
    gv = (-gx[:, None, :] * sin[None] + gy[:, None, :] * cos[None]).sum(axis=2)
    weights = np.where(member, 1.0, 0.5)[:, None]
    out = np.empty_like(pred)
    out[:, 0::2] = gu * weights / n_points
    out[:, 1::2] = gv * weights / n_points
    return out


class TestRegressionGrad:
    @pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
    def test_matches_cos_sin_basis(self, deg, rng):
        width = 2 * (2 * deg + 1)
        for n_points in range(3, 60):
            m = int(rng.integers(1, 5))
            gt = rng.normal(scale=20.0, size=(m, width))
            # both smooth-L1 branches: offsets inside and outside beta
            pred = gt + rng.normal(scale=1.0, size=(m, width))
            member = rng.integers(0, 2, size=m).astype(bool)
            want = cos_sin_grad(gt, pred, member, n_points)
            got = regression_loss_grad(gt, pred, member, n_points=n_points)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_finite_difference_agreement(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            gt = rng.normal(scale=20.0, size=(m, 22))
            pred = gt + rng.uniform(-0.05, 0.05, size=(m, 22))
            member = rng.integers(0, 2, size=m).astype(bool)
            grad = regression_loss_grad(gt, pred, member)
            h = 1e-6
            for _ in range(12):
                r = int(rng.integers(0, m))
                c = int(rng.integers(0, 22))
                up = pred.copy()
                up[r, c] += h
                dn = pred.copy()
                dn[r, c] -= h
                fd = (
                    regression_loss(gt, up, member) - regression_loss(gt, dn, member)
                ) / (2 * h)
                scale = max(abs(fd), abs(grad[r, c]), 1e-8)
                assert abs(fd - grad[r, c]) / scale < 1e-4


def brute_ohem(losses, positive, ratio):
    """Keep positives; keep the `ratio * n_pos` largest negatives (all of them
    when fewer), settling equal losses by lower index first."""
    n_pos = int(np.sum(positive))
    budget = ratio * n_pos if n_pos else 100
    neg = [(-losses[i], i) for i in range(len(losses)) if not positive[i]]
    neg.sort()
    chosen = {i for _, i in neg[:budget]}
    return np.array(
        [bool(positive[i]) or i in chosen for i in range(len(losses))], dtype=bool
    )


class TestOhem:
    def test_ratio_three_to_one(self):
        losses = np.array([5.0, 1.0, 2.0, 3.0, 4.0, 0.5, 0.2, 6.0])
        positive = np.array([True, False, False, False, False, False, False, False])
        sel = ohem_select(losses, positive, 3)
        assert sel[0]
        assert sel.sum() == 4  # 1 positive + 3 hardest negatives
        assert list(np.nonzero(sel)[0]) == [0, 3, 4, 7]

    def test_all_negatives_kept_when_under_budget(self):
        losses = np.array([1.0, 2.0])
        positive = np.array([True, False])
        assert ohem_select(losses, positive, 3).all()

    def test_zero_positive_floor(self):
        losses = np.linspace(0, 1, 150)
        positive = np.zeros(150, bool)
        sel = ohem_select(losses, positive, 3)
        assert sel.sum() == 100
        assert sel[-100:].all()  # the 100 largest

    def test_tie_prefers_lower_index(self):
        losses = np.array([1.0, 2.0, 2.0, 2.0])
        positive = np.array([True, False, False, False])
        sel = ohem_select(losses, positive, 1)
        assert list(np.nonzero(sel)[0]) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=12),
        st.integers(0, 4095),
    )
    def test_exhaustive_small_cases(self, loss_values, mask_bits):
        losses = np.array(loss_values)
        positive = np.array(
            [(mask_bits >> i) & 1 == 1 for i in range(len(loss_values))]
        )
        got = ohem_select(losses, positive, 3)
        want = brute_ohem(losses, positive, 3)
        assert np.array_equal(got, want)


class TestImageLoss:
    @pytest.fixture(scope="class")
    def targets(self):
        (img,) = roundtrip_corpus(seed=11, count=1, side=256)
        return list(generate_targets(img).levels.values())

    @staticmethod
    def predict(lt, tr=None, regression=None):
        return LevelPrediction(
            lt.spec.name,
            lt.spec.stride,
            lt.tr if tr is None else tr,
            lt.tcr,
            lt.regression if regression is None else regression,
        )

    def test_targets_scored_against_themselves(self, targets):
        sums = image_loss((lt, self.predict(lt)) for lt in targets)
        assert sums.reg == 0.0
        ohem = domain = 0
        for lt in targets:
            care = lt.care.ravel() > 0.5
            labels = lt.tr.ravel()[care]
            ohem += int(ohem_select(cross_entropy(labels, labels), labels == 1).sum())
            domain += int(((lt.tr == 1) & (lt.care == 1)).sum())
        assert sums.tr_pixels == ohem > 0
        assert sums.domain_pixels == domain > 0
        # clamped log(1 - eps) floor per cell, never exactly zero
        assert 0.0 < sums.tr < 2e-7 * sums.tr_pixels
        assert 0.0 < sums.tcr < 2e-7 * sums.domain_pixels

    def test_sums_add_over_levels(self, targets, rng):
        pairs = [
            (lt, self.predict(lt, tr=rng.uniform(size=lt.shape),
                              regression=lt.regression + rng.normal(0.0, 0.25, lt.regression.shape)))
            for lt in targets
        ]
        whole = image_loss(pairs, n_points=30)
        parts = [image_loss([pair], n_points=30) for pair in pairs]
        assert whole.reg > 0.0
        assert whole == pytest.approx(tuple(map(sum, zip(*parts))), rel=1e-12)

    def test_shape_mismatch(self, targets):
        big, small = targets[0], targets[-1]
        assert big.shape != small.shape
        with pytest.raises(ShapeMismatch):
            image_loss([(big, self.predict(small))])


class TestTotalLoss:
    def test_weighted_sum(self):
        breakdown = total_loss(1.0, 2.0, 3.0, lam=0.5)
        assert isinstance(breakdown, LossBreakdown)
        assert breakdown.total == pytest.approx(1.0 + 2.0 + 0.5 * 3.0)

    def test_default_lambda_is_one(self):
        assert total_loss(1.0, 1.0, 1.0).total == pytest.approx(3.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            total_loss(float("nan"), 0.0, 0.0)
        with pytest.raises(NonFinite):
            total_loss(0.0, float("inf"), 0.0)

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            total_loss(-0.1, 0.0, 0.0)


class TestLossSumsBreakdown:
    def test_normalizes_by_the_cells(self):
        sums = LossSums(tr=6.0, tr_pixels=4, tcr=3.0, reg=2.5, domain_pixels=2)
        assert sums.breakdown(0.5) == total_loss(1.5, 1.5, 2.5, lam=0.5)
        assert sums.breakdown() == total_loss(1.5, 1.5, 2.5)

    def test_no_cells_is_zero(self):
        assert LossSums(0.0, 0, 0.0, 0.0, 0).breakdown(2.0) == LossBreakdown(0.0, 0.0, 0.0, 2.0, 0.0)

    def test_sums_of_images_add_field_by_field(self):
        rng = np.random.default_rng(3)
        images = roundtrip_corpus(seed=2, count=2)
        sums = []
        for img in images:
            targets = generate_targets(img, k=3, n=64).levels.values()
            sums.append(image_loss(
                (lt, LevelPrediction(lt.spec.name, lt.spec.stride, 0.8 * lt.tr + 0.1, 0.8 * lt.tcr + 0.1,
                                     lt.regression + rng.normal(0.0, 0.5, lt.regression.shape)))
                for lt in targets
            ))
        total = LossSums(*map(sum, zip(*sums)))
        assert total.tr_pixels == sums[0].tr_pixels + sums[1].tr_pixels
        assert total.breakdown().l_tr == pytest.approx((sums[0].tr + sums[1].tr) / total.tr_pixels)
