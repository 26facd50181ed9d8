"""Acceptance suite: ten end-to-end guarantees the package is built around.

Each test prints one `ACCEPTANCE NN <name>: PASS|FAIL` line (run pytest with
-s or -rA to see them) and then asserts.  Tolerances and time budgets are
fixed; loosening them here is never the right fix.
"""

import hashlib
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from fourier_contours import (
    Contour,
    LevelPrediction,
    PredictionMaps,
    curved_subset_select,
    decode_all,
    evaluate,
    fmeasure,
    fourier_coefficients,
    generate_targets,
    ohem_select,
    poly_nms,
    polygon_iou,
    reconstruct,
    regression_loss,
    regression_loss_grad,
    resample_equidistant,
    truncation_l2_error,
    write_jsonl,
)
from fourier_contours.cli import main as cli_main
from fourier_contours.fourier import FourierSignature
from fourier_contours.serialize import round9
from fourier_contours.synth import regular_polygon

from conftest import star_shaped, vertex_removal_delta


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------
# 1: embedding then reconstruction at full degree reproduces the samples


def test_01_embedding_round_trip():
    rng = np.random.default_rng(101)
    n, k = 401, 200
    t0 = perf_counter()
    worst = 0.0
    for _ in range(200):
        samples = resample_equidistant(star_shaped(rng), n)
        sig = fourier_coefficients(samples, k)
        back = reconstruct(sig, n)
        worst = max(worst, float(np.abs(back.vertices - samples.points).max()))
    elapsed = perf_counter() - t0
    _verdict(
        1,
        "embedding round trip",
        worst < 1e-9 and elapsed < 5.0,
    )


# ---------------------------------------------------------------------------
# 2: coefficient energy equals sample energy; truncation error is monotone


def test_02_energy_and_truncation():
    rng = np.random.default_rng(202)
    n, k = 401, 200
    worst_rel = 0.0
    monotone = True
    for _ in range(200):
        samples = resample_equidistant(star_shaped(rng), n)
        z = samples.points[:, 0] + 1j * samples.points[:, 1]
        sig = fourier_coefficients(samples, k)
        time_energy = float(np.mean(np.abs(z) ** 2))
        freq_energy = float(np.sum(np.abs(sig.coeffs) ** 2))
        worst_rel = max(worst_rel, abs(freq_energy - time_energy) / time_energy)
        errs = [truncation_l2_error(samples, deg) for deg in range(1, 21)]
        monotone = monotone and all(b <= a for a, b in zip(errs, errs[1:]))
    _verdict(2, "energy identity and monotone truncation", worst_rel < 1e-9 and monotone)


# ---------------------------------------------------------------------------
# 3: a circle occupies exactly one harmonic


def test_03_circle_single_harmonic():
    cx, cy, r = 130.25, 97.5, 41.0
    circle = regular_polygon(cx, cy, r, n=400)
    sig = fourier_coefficients(resample_equidistant(circle, 400), 10)
    deg = sig.degree
    center_err = abs(sig.c0 - complex(cx, cy))
    first_err = abs(sig.coeffs[deg + 1] - r)
    rest = np.abs(np.delete(sig.coeffs, [deg, deg + 1]))
    _verdict(
        3,
        "circle single harmonic",
        center_err < 1e-12 and first_err < 1e-9 and float(rest.max()) < 1e-9,
    )


# ---------------------------------------------------------------------------
# 4: a handful of coefficients covers curved text shapes


def test_04_low_degree_coverage(compactness_images):
    t0 = perf_counter()
    kmax = 10
    means = {}
    for deg in (3, 5, 10):
        means[deg] = []
    for img in compactness_images:
        inst = img.instances[0]
        samples = resample_equidistant(inst.polygon, 400)
        full = fourier_coefficients(samples, kmax)
        for deg in means:
            sig = FourierSignature(full.coeffs[kmax - deg : kmax + deg + 1])
            recon = reconstruct(sig, 50)
            means[deg].append(polygon_iou(inst.polygon, recon, supersample=8))
    m3, m5, m10 = (float(np.mean(means[d])) for d in (3, 5, 10))
    elapsed = perf_counter() - t0
    print(f"  degree->mean IoU: 3={m3:.4f} 5={m5:.4f} 10={m10:.4f} ({elapsed:.1f}s)")
    _verdict(
        4,
        "low degree coverage",
        len(compactness_images) == 50 and m5 >= 0.90 and m10 > m3 and elapsed < 30.0,
    )


# ---------------------------------------------------------------------------
# 5: targets decoded as if predicted perfectly give a perfect score


def _ideal_predictions(targets) -> PredictionMaps:
    levels = [
        LevelPrediction(
            name,
            lt.spec.stride,
            lt.tr.astype(np.float64),
            lt.tcr.astype(np.float64),
            lt.regression,
        )
        for name, lt in targets.levels.items()
    ]
    return PredictionMaps(targets.image_id, targets.width, targets.height, levels)


def test_05_pipeline_round_trip(roundtrip_images):
    t0 = perf_counter()
    tp = fp = fn = 0
    for img in roundtrip_images:
        targets = generate_targets(img)
        detections = decode_all(
            _ideal_predictions(targets),
            score_thresh=0.3,
            nms_iou=0.1,
            n_points=50,
            supersample=4,
        )
        report = evaluate(detections, img.instances, iou_thresh=0.5, supersample=4)
        tp += report.tp
        fp += report.fp
        fn += report.fn
    _, _, hmean = fmeasure(tp, fp, fn)
    elapsed = perf_counter() - t0
    print(f"  tp={tp} fp={fp} fn={fn} hmean={hmean} ({elapsed:.1f}s)")
    _verdict(
        5,
        "pipeline round trip",
        len(roundtrip_images) == 20 and hmean == 1.0 and fp == 0 and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# 6: the regression loss agrees with a from-scratch evaluator and its
#    gradient with finite differences


def _regression_brute(gt_rows, pred_rows, member, n_points, beta=1.0):
    """Scalar re-derivation: sample both series, smooth-L1 per axis, weight
    member rows 1.0 and the rest 0.5, divide by the point count only."""

    def series(flat, t):
        half = len(flat) // 2
        deg = (half - 1) // 2
        val = 0j
        for idx in range(half):
            c = complex(flat[2 * idx], flat[2 * idx + 1])
            val += c * complex(math.cos(2 * math.pi * (idx - deg) * t),
                               math.sin(2 * math.pi * (idx - deg) * t))
        return val

    def sl1(x):
        ax = abs(x)
        return 0.5 * x * x / beta if ax < beta else ax - 0.5 * beta

    total = 0.0
    for row_gt, row_pr, is_member in zip(gt_rows, pred_rows, member):
        w = 1.0 if is_member else 0.5
        for j in range(n_points):
            t = j / n_points
            zg = series(row_gt, t)
            zp = series(row_pr, t)
            total += w * (sl1(zp.real - zg.real) + sl1(zp.imag - zg.imag))
    return total / n_points


def test_06_regression_loss_oracle():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        deg = int(rng.integers(1, 4))
        n_points = int(rng.integers(5, 13))
        width = 2 * (2 * deg + 1)
        gt = rng.normal(scale=3.0, size=(rows, width))
        pred = gt + rng.normal(scale=0.7, size=(rows, width))
        member = rng.random(rows) < 0.5
        got = regression_loss(gt, pred, member, n_points=n_points)
        want = _regression_brute(gt, pred, member, n_points)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            ok = False
            break

    grad_ok = True
    h = 1e-6
    for _ in range(10):
        rows = int(rng.integers(1, 5))
        deg = int(rng.integers(1, 4))
        width = 2 * (2 * deg + 1)
        gt = rng.normal(scale=2.0, size=(rows, width))
        pred = gt + rng.uniform(-0.05, 0.05, size=(rows, width))
        member = rng.random(rows) < 0.5
        grad = regression_loss_grad(gt, pred, member, n_points=11)
        for _ in range(12):
            r = int(rng.integers(rows))
            c = int(rng.integers(width))
            bumped = pred.copy()
            bumped[r, c] += h
            dipped = pred.copy()
            dipped[r, c] -= h
            fd = (
                regression_loss(gt, bumped, member, n_points=11)
                - regression_loss(gt, dipped, member, n_points=11)
            ) / (2 * h)
            denom = max(abs(fd), abs(grad[r, c]), 1e-8)
            if abs(fd - grad[r, c]) / denom > 1e-4:
                grad_ok = False
    _verdict(6, "regression loss matches an independent evaluator", ok and grad_ok)


# ---------------------------------------------------------------------------
# 7: the signature does not depend on how the polygon was written down


def test_07_signature_uniqueness():
    rng = np.random.default_rng(707)
    worst = 0.0
    translation_clean = True
    for _ in range(200):
        poly = star_shaped(rng)
        base = fourier_coefficients(resample_equidistant(poly, 400), 5)
        shift = int(rng.integers(1, len(poly.vertices)))
        rolled = Contour(np.roll(poly.vertices, shift, axis=0))
        reversed_ = Contour(poly.vertices[::-1].copy())
        for variant in (rolled, reversed_):
            sig = fourier_coefficients(resample_equidistant(variant, 400), 5)
            worst = max(worst, float(np.abs(sig.coeffs - base.coeffs).max()))
        dx, dy = rng.uniform(-40.0, 40.0, size=2)
        moved = Contour(poly.vertices + np.array([dx, dy]))
        sig_t = fourier_coefficients(resample_equidistant(moved, 400), 5)
        center_shift = sig_t.c0 - base.c0
        if abs(center_shift - complex(dx, dy)) > 1e-9:
            translation_clean = False
        others = np.delete(sig_t.coeffs - base.coeffs, 5)
        if float(np.abs(others).max()) > 1e-9:
            translation_clean = False
    _verdict(7, "signature uniqueness", worst <= 1e-9 and translation_clean)


# ---------------------------------------------------------------------------
# 8: the curved-subset rule keeps exactly the bendy shapes


def _delta_oracle(vertices: np.ndarray, drop: int) -> float:
    def area(v):
        total = 0.0
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            total += x0 * y1 - x1 * y0
        return abs(total) / 2.0

    full = area(vertices)
    return abs(full - area(np.delete(vertices, drop, axis=0))) / full


def _max_removable_delta(polygon) -> float:
    # the selection rule never deletes the annotation head or tail
    m = len(polygon.vertices)
    return max(vertex_removal_delta(polygon, j) for j in range(1, m - 1))


def test_08_curved_subset_selection(subset_parts):
    rects, curves = subset_parts
    ok = len(rects) == 10 and len(curves) == 10

    for inst in rects + curves:
        v = inst.polygon.vertices
        for j in range(1, len(v) - 1):
            got = vertex_removal_delta(inst.polygon, j)
            if abs(got - _delta_oracle(v, j)) > 1e-9:
                ok = False
    rect_deltas = [_max_removable_delta(i.polygon) for i in rects]
    curve_deltas = [_max_removable_delta(i.polygon) for i in curves]
    ok = ok and max(rect_deltas) < 0.07 and min(curve_deltas) >= 0.2

    selected = curved_subset_select(rects + curves, 0.07)
    ok = ok and [inst.id for inst in selected] == [inst.id for inst in curves]
    _verdict(8, "curved subset selection", ok)


# ---------------------------------------------------------------------------
# 9: hard-example mining and suppression match their plain-loop definitions


def _ohem_brute(losses, positive, ratio=3):
    n_pos = int(np.sum(positive))
    budget = ratio * n_pos if n_pos else 100
    order = sorted(
        (i for i in range(len(losses)) if not positive[i]),
        key=lambda i: (-losses[i], i),
    )
    chosen = set(order[:budget])
    return np.array(
        [bool(positive[i]) or i in chosen for i in range(len(losses))], dtype=bool
    )


def _nms_brute(points, scores, thresh, supersample):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(
            polygon_iou(Contour(points[i]), Contour(points[j]), supersample) < thresh
            for j in kept
        ):
            kept.append(i)
    return kept


def _square(x, y, side):
    return Contour(
        np.array([[x, y], [x + side, y], [x + side, y + side], [x, y + side]], float)
    )


def test_09_mining_and_suppression_rules():
    ok = True
    # every positive/negative split of up to 12 pixels, two loss draws each
    rng = np.random.default_rng(909)
    for n in range(1, 13):
        draws = [
            rng.permutation(n).astype(np.float64),  # all distinct
            rng.integers(0, 3, size=n).astype(np.float64),  # heavy ties
        ]
        for losses in draws:
            for mask_bits in range(2**n):
                positive = np.array(
                    [(mask_bits >> i) & 1 == 1 for i in range(n)], dtype=bool
                )
                got = ohem_select(losses, positive)
                if not np.array_equal(got, _ohem_brute(losses, positive)):
                    ok = False
        if not ok:
            break

    nms_ok = True
    rng = np.random.default_rng(910)
    scores = [0.3, 0.5, 0.5, 0.7, 0.9, 1.0]
    for n in range(1, 7):
        for _ in range(60):
            points, drawn = [], []
            for _ in range(n):
                x = float(rng.integers(0, 5)) * 4.0
                y = float(rng.integers(0, 3)) * 4.0
                side = float(rng.integers(2, 4)) * 4.0
                points.append(_square(x, y, side).vertices)
                drawn.append(scores[int(rng.integers(len(scores)))])
            points, drawn = np.array(points), np.array(drawn)
            got = poly_nms(points, drawn, iou_thresh=0.4, supersample=2)
            if got != _nms_brute(points, drawn, 0.4, 2):
                nms_ok = False
    _verdict(9, "mining and suppression rules", ok and nms_ok)


# ---------------------------------------------------------------------------
# 10: every command writes byte-identical output across runs and thread counts


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _run_cli_suite(ann: Path, root: Path, jobs: int) -> dict[str, str]:
    root.mkdir(parents=True)
    j = ["--jobs", str(jobs)]
    sigs = root / "sigs.jsonl"
    recon = root / "recon.jsonl"
    fid = root / "fidelity.csv"
    sub = root / "subset.jsonl"
    gt = root / "gt"
    dets = root / "dets.jsonl"
    loss = root / "loss.json"
    rep = root / "eval.json"
    plots = root / "plots"
    steps = [
        j + ["embed", str(ann), "-o", str(sigs)],
        j + ["reconstruct", str(sigs), "-o", str(recon)],
        j + ["fidelity", str(ann), "--degrees", "3,5", "-o", str(fid)],
        j + ["subset", str(ann), "-o", str(sub)],
        j + ["targets", str(ann), "--out-dir", str(gt)],
        j + ["decode", "--maps-dir", str(gt), "-o", str(dets)],
        j + ["loss", "--gt-dir", str(gt), "--pred-dir", str(gt), "-o", str(loss)],
        j + ["eval", "--detections", str(dets), "--annotations", str(ann), "-o", str(rep)],
        j + ["plot", str(ann), "--detections", str(dets), "--out-dir", str(plots)],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"command failed: {argv}"
    out = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in [
            ("embed", sigs),
            ("reconstruct", recon),
            ("fidelity", fid),
            ("subset", sub),
            ("decode", dets),
            ("loss", loss),
            ("eval", rep),
        ]
    }
    out["targets"] = _hash_tree(gt)
    out["plot"] = _hash_tree(plots)
    return out


def test_10_cli_determinism(roundtrip_images, tmp_path, capsys):
    ann = tmp_path / "corpus.jsonl"
    ann.write_text(
        "".join(line + "\n" for line in write_jsonl(roundtrip_images, fmt=round9)),
        encoding="utf-8",
    )
    first = _run_cli_suite(ann, tmp_path / "run-a", jobs=1)
    second = _run_cli_suite(ann, tmp_path / "run-b", jobs=1)
    threaded = _run_cli_suite(ann, tmp_path / "run-c", jobs=4)
    capsys.readouterr()  # the eval/loss runs print to stdout files only; clear captures
    repeat_ok = first == second
    thread_ok = first == threaded
    _verdict(10, "command determinism", repeat_ok and thread_ok)
