"""Training losses.

The total objective is L = L_cls + lambda * L_reg with L_cls = L_tr + L_tcr,
each term over its own cells of every pyramid level:

* L_tr: text-region cross-entropy over the cared cells (care > 0.5), under
  online hard example mining: every text cell plus the hardest non-text ones;
* L_tcr: text-center-region cross-entropy over the cared text-region cells;
* L_reg: over the same cared text-region cells,

    L_reg = (1 / N') * sum_{i in TR} sum_n w_i * [ sl1(dx_in) + sl1(dy_in) ]

where the reconstruction of the ground-truth and predicted signatures of
pixel i is compared point by point at N' parameters, per axis, with
smooth-L1; w_i is 1.0 for pixels inside the text center region and 0.5
otherwise.  Note the normalization: by N' only, not by the pixel count, so
values from differently sized regions are comparable only per pixel count.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .config import DEFAULT_LAMBDA, DEFAULT_RECON_POINTS
from .contours import _cuts
from .errors import AlignmentMismatch, NonFinite, ShapeMismatch
from .fourier import _build_basis, _series, coeffs_to_flat, flat_to_coeffs
from .mapdir import LevelPrediction, LevelTargets

__all__ = [
    "LossBreakdown",
    "LossSums",
    "smooth_l1",
    "cross_entropy",
    "regression_loss",
    "regression_loss_grad",
    "ohem_select",
    "image_loss",
    "total_loss",
]

CLAMP_EPS = 1e-7
OHEM_RATIO = 3
OHEM_ZERO_POS_FLOOR = 100


class LossBreakdown(NamedTuple):
    l_tr: float
    l_tcr: float
    l_reg: float
    lam: float
    total: float


def smooth_l1(x, beta: float = 1.0):
    """0.5 x^2 / beta for |x| < beta, else |x| - 0.5 beta.  Elementwise."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    ax = np.abs(np.asarray(x, dtype=np.float64))
    out = np.where(ax < beta, 0.5 * ax * ax / beta, ax - 0.5 * beta)
    return out if out.ndim else float(out)


def _smooth_l1_grad(x, beta: float):
    ax = np.abs(x)
    return np.where(ax < beta, x / beta, np.sign(x))


def cross_entropy(prob, label, eps: float = CLAMP_EPS):
    """Binary cross-entropy with probability clamping to [eps, 1 - eps].
    Elementwise; labels are 0/1."""
    p = np.clip(np.asarray(prob, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(label, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return out if out.ndim else float(out)


def _check_pairs(gt_flat, pred_flat, in_tcr):
    gt = np.asarray(gt_flat, dtype=np.float64)
    pr = np.asarray(pred_flat, dtype=np.float64)
    member = np.asarray(in_tcr, dtype=bool)
    if gt.ndim != 2 or pr.shape != gt.shape:
        raise AlignmentMismatch(
            f"gt {gt.shape} and pred {pr.shape} must be equal (M, C) arrays"
        )
    if member.shape != (gt.shape[0],):
        raise AlignmentMismatch(
            f"membership length {member.shape} must match pixel count {gt.shape[0]}"
        )
    return gt, pr, member


def _series_blocks(gt: np.ndarray, pr: np.ndarray, basis: np.ndarray):
    """(first, stop, zg, zp) of consecutive row blocks: the ground-truth and
    predicted series of rows first .. stop - 1 over the inverse basis
    (n_points, 2K + 1) of fourier._build_basis, a block's (rows, n_points,
    2K + 1) products holding about contours._BATCH_ELEMENTS elements, as in
    evaluate_series, whose bits they are."""
    for i, j in _cuts(np.full(len(gt), basis.size)):
        yield i, j, _series(flat_to_coeffs(gt[i:j]), basis), _series(flat_to_coeffs(pr[i:j]), basis)


def regression_loss(
    gt_flat, pred_flat, in_tcr, n_points: int = DEFAULT_RECON_POINTS, beta: float = 1.0
) -> float:
    """Signature regression loss over the text-region pixels supplied.

    Each row of gt_flat / pred_flat is one pixel's flat recentered signature.
    Returns the w-weighted smooth-L1 sum over reconstructed point differences
    on both axes, divided by n_points.  The rows are scored in blocks of
    _series_blocks, so the working memory does not grow with their number.
    """
    gt, pr, member = _check_pairs(gt_flat, pred_flat, in_tcr)
    if gt.shape[0] == 0:
        return 0.0
    per_cell = np.empty(gt.shape[0])
    basis = _build_basis(n_points, (gt.shape[1] // 2 - 1) // 2)
    for i, j, zg, zp in _series_blocks(gt, pr, basis):
        per_point = smooth_l1(zp.real - zg.real, beta) + smooth_l1(zp.imag - zg.imag, beta)
        per_cell[i:j] = per_point.sum(axis=1)
    weights = np.where(member, 1.0, 0.5)
    return float(np.sum(weights * per_cell) / n_points)


def regression_loss_grad(
    gt_flat, pred_flat, in_tcr, n_points: int = DEFAULT_RECON_POINTS, beta: float = 1.0
) -> np.ndarray:
    """Analytic gradient of regression_loss with respect to pred_flat."""
    gt, pr, member = _check_pairs(gt_flat, pred_flat, in_tcr)
    if gt.shape[0] == 0:
        return np.zeros_like(pr)
    inverse = _build_basis(n_points, (gt.shape[1] // 2 - 1) // 2)
    forward = np.ascontiguousarray(np.conj(inverse).T)  # (2K + 1, n)
    coeff_grad = np.empty((gt.shape[0], gt.shape[1] // 2), dtype=np.complex128)  # (M, 2K + 1)
    for i, j, zg, zp in _series_blocks(gt, pr, inverse):
        gx = _smooth_l1_grad(zp.real - zg.real, beta)  # (rows, n)
        gy = _smooth_l1_grad(zp.imag - zg.imag, beta)
        g = gx + 1j * gy
        # the IFT is linear in c_k = u_k + i v_k with d(x + iy)/du_k = e^{i theta}
        # and d(x + iy)/dv_k = i e^{i theta}, so (dL/du_k, dL/dv_k) is the real and
        # imaginary part of sum_n g_n e^{-i theta}: the forward transform of g
        coeff_grad[i:j] = (g[:, None, :] * forward).sum(axis=-1)
    weights = np.where(member, 1.0, 0.5)[:, None] / n_points
    return coeffs_to_flat(coeff_grad * weights)


def ohem_select(losses, positive, ratio: int = OHEM_RATIO) -> np.ndarray:
    """Hard-example selection mask over per-pixel classification losses.

    Keeps every positive pixel plus the min(ratio * positives, negatives)
    negatives with the largest loss; equal losses prefer the lower index.
    With zero positives, keeps the min(negatives, 100) hardest negatives.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    loss = np.asarray(losses, dtype=np.float64)
    pos = np.asarray(positive, dtype=bool)
    if loss.shape != pos.shape or loss.ndim != 1:
        raise AlignmentMismatch(
            f"losses {loss.shape} and positive {pos.shape} must be equal 1-d arrays"
        )
    selected = pos.copy()
    neg_idx = np.nonzero(~pos)[0]
    n_pos = int(pos.sum())
    budget = ratio * n_pos if n_pos else OHEM_ZERO_POS_FLOOR
    budget = min(budget, neg_idx.size)
    if budget > 0:
        # stable sort on negated loss: ties resolve to the lower linear index
        order = np.argsort(-loss[neg_idx], kind="stable")
        selected[neg_idx[order[:budget]]] = True
    return selected


class LossSums(NamedTuple):
    """Unnormalized loss sums of one image and the cells they cover.  Sums of
    several images add field by field."""

    tr: float
    tr_pixels: int
    tcr: float
    reg: float
    domain_pixels: int  # cared text-region cells: the tcr and reg domain

    def breakdown(self, lam: float = DEFAULT_LAMBDA) -> LossBreakdown:
        """total_loss of the sums: L_tr = tr / tr_pixels and L_tcr = tcr /
        domain_pixels, each 0 over no cells, while reg enters as it is."""
        l_tr = self.tr / self.tr_pixels if self.tr_pixels else 0.0
        l_tcr = self.tcr / self.domain_pixels if self.domain_pixels else 0.0
        return total_loss(l_tr, l_tcr, self.reg, lam)


def image_loss(
    levels: Iterable[tuple[LevelTargets, LevelPrediction]],
    n_points: int = DEFAULT_RECON_POINTS,
) -> LossSums:
    """Loss sums of one image over its (targets, prediction) level pairs.

    A target is a mapdir.LevelTargets, of which the tr, tcr, regression and
    care arrays of one (H, W) are read; a prediction is a
    mapdir.LevelPrediction of the same shape.  Levels are scored one at a
    time, in the order given.
    """
    tr_sum = tcr_sum = reg_sum = 0.0
    tr_px = domain_px = 0
    for target, pred in levels:
        if pred.regression.shape != target.regression.shape:
            raise ShapeMismatch(f"prediction {pred.regression.shape} and target {target.regression.shape} differ")
        care = target.care.ravel() > 0.5
        labels = target.tr.ravel()[care]
        ce = cross_entropy(pred.tr_prob.ravel()[care], labels)
        selected = ohem_select(ce, labels == 1.0, OHEM_RATIO)
        tr_sum += float(ce[selected].sum())
        tr_px += int(selected.sum())
        domain = (target.tr == 1.0) & (target.care > 0.5)
        if domain.any():
            tcr_sum += float(cross_entropy(pred.tcr_prob[domain], target.tcr[domain]).sum())
            reg_sum += regression_loss(target.regression[:, domain].T, pred.regression[:, domain].T,
                                       target.tcr[domain] == 1.0, n_points=n_points)
            domain_px += int(domain.sum())
    return LossSums(tr_sum, tr_px, tcr_sum, reg_sum, domain_px)


def total_loss(l_tr: float, l_tcr: float, l_reg: float, lam: float = DEFAULT_LAMBDA) -> LossBreakdown:
    parts = {"l_tr": l_tr, "l_tcr": l_tcr, "l_reg": l_reg, "lambda": lam}
    for name, value in parts.items():
        if not np.isfinite(value):
            raise NonFinite(f"{name} must be finite, got {value}")
        if name != "lambda" and value < 0.0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return LossBreakdown(
        l_tr=float(l_tr),
        l_tcr=float(l_tcr),
        l_reg=float(l_reg),
        lam=float(lam),
        total=float(l_tr + l_tcr + lam * l_reg),
    )
