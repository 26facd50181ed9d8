"""Seeded inputs, command chains and output checks of the benchmark workloads.

Every workload pushes one generated corpus through the whole fctool pipeline,
one command after another:

    embed -> reconstruct -> fidelity -> subset -> targets -> decode -> loss -> eval

The workloads differ in the corpus, in the maps `decode` reads, in the
fidelity degree sweep and in --jobs, so that the layers are used differently:

roundtrip  `synth.roundtrip_corpus`'s layout, decoded from its own targets (a
           perfect predictor).  NMS compares few, large, overlapping
           candidates, so decode time is `polygon_iou` rasterization; the
           1..10 degree sweep makes `truncation_l2_error` do real work.
crowded    large images with ~40 small, separated instances each (~8%
           do-not-care), decoded from seeded noisy predictions at --jobs 2.
           NMS keeps one detection per instance, ~37 an image, and most IoU
           calls end at the bounding-box test; targets and tensor I/O carry
           real weight.

Nothing is stored: every input is rebuilt from the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fourier_contours import synth
from fourier_contours.annotations import AnnotatedImage, TextInstance, write_jsonl
from fourier_contours.decode import DEFAULT_SCORE_THRESH
from fourier_contours.serialize import read_tensor, round9, write_tensor

FIDELITY_MIN_IOU_AT_5 = 0.90


@dataclass(frozen=True)
class Spec:
    name: str
    images: int              # images per chain pass
    jobs: int
    degrees: str             # fidelity --degrees
    noisy_predictions: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec("roundtrip", images=4, jobs=1, degrees="1,2,3,4,5,6,7,8,9,10"),
        Spec("crowded", images=2, jobs=2, degrees="5", noisy_predictions=True),
    )
}


# ---------------------------------------------------------------------------
# corpora


KINDS = ("ellipse", "ribbon", "circle", "rect")


def _vary(rng: np.random.Generator, mid: float, spread: float) -> float:
    return mid * rng.uniform(1.0 - spread, 1.0 + spread)


def _shape(rng: np.random.Generator, kind: str, cx: float, cy: float, size: float, spread: float):
    """A `synth` outline of the given kind and longest side `size`.

    Every free proportion is drawn within +-`spread` of the middle of the
    range `synth.roundtrip_corpus` uses (an ellipse's tilt within
    +-`spread` * pi), so a small spread fixes the area, and with it the
    target and NMS work, whatever the seed.
    """
    if kind == "ellipse":
        ry = _vary(rng, 0.365, spread) * size / 2.0
        return synth.ellipse_polygon(cx, cy, size / 2.0, ry, n=72, rot=np.pi * rng.uniform(-spread, spread))
    if kind == "circle":
        return synth.regular_polygon(cx, cy, size / 2.0, n=72)
    if kind == "rect":
        h = _vary(rng, 0.325, spread) * size
        return synth.rect14(cx - size / 2.0, cy - h / 2.0, size, h)
    return synth.ribbon(
        cx,
        cy,
        length=size,
        thickness=_vary(rng, 0.25, spread) * size,
        amplitude=_vary(rng, 0.075, spread) * size,
        cycles=_vary(rng, 0.8, spread),
        phase=rng.uniform(0.0, 2.0 * np.pi),
        points_per_edge=32,
    )


def roundtrip_corpus(seed: int, count: int) -> list[AnnotatedImage]:
    """The layout of `synth.roundtrip_corpus` with its sizes pinned.

    Same 512 x 512 images, same pattern by index: a small instance over a
    larger one (the larger straddling the P4/P5 bands when i % 4 == 1), one
    instance across most of the image when i % 4 == 3, a do-not-care corner
    when i % 5 == 2, same kinds in the same order.  Sizes sit within 2% of
    the middle of synth's ranges: synth's ranges change the decode work of
    one image by up to 1.8x between seeds, which would swamp any change
    under test.
    """
    side, spread = 512, 0.02
    rng = np.random.default_rng(seed)
    images = []
    for i in range(count):
        instances = []
        if i % 4 == 3:
            size = 0.835 * side * rng.uniform(1.0 - spread, 1.0 + spread)
            poly = _shape(rng, KINDS[i % 4], side / 2.0, side / 2.0, size, spread)
            instances.append(TextInstance(polygon=poly, id="i0"))
        else:
            scales = [0.2, 0.65 if i % 4 == 1 else 0.35]
            for j, scale in enumerate(scales):
                size = scale * side * rng.uniform(1.0 - spread, 1.0 + spread)
                offset = 8.0 + size / 2.0 + rng.uniform(0.0, 10.0)
                cy = offset if j == 0 else side - offset
                cx = side / 2.0 + rng.uniform(-30.0, 30.0)
                poly = _shape(rng, KINDS[(i + j) % 4], cx, cy, size, spread)
                instances.append(TextInstance(polygon=poly, id=f"i{j}"))
        if i % 5 == 2:
            instances.append(TextInstance(polygon=synth.rect14(6.0, 6.0, 46.0, 18.0), ignore=True, id="dc"))
        images.append(AnnotatedImage(f"img{i:03d}", side, side, tuple(instances)))
    return images


def crowded_corpus(
    seed: int,
    count: int,
    width: int = 1280,
    height: int = 768,
    cols: int = 8,
    rows: int = 5,
    dont_care: float = 0.08,
) -> list[AnnotatedImage]:
    """Images with one small instance per grid cell, every kind in turn.

    Each shape stays inside its own cell, so instances never touch; their
    bounding boxes may still overlap a neighbour's.  The instances of each
    kind get the same sizes in every image, evenly spread from 0.4 to 0.7 of
    a cell, and round(`dont_care` * rows * cols) of them, each of the middle
    size of one kind in turn, are marked ignore.  The seed deals the sizes to
    the cells and places and shapes each instance, so which cells hold what
    changes with the seed but the work per image hardly does.
    """
    rng = np.random.default_rng(seed)
    cell = min(width / cols, height / rows)
    cells = rows * cols
    images = []
    for i in range(count):
        instances = []
        kinds = [KINDS[(i + j) % len(KINDS)] for j in range(cells)]
        sizes = np.empty(cells)
        ignored = set()
        for k, kind in enumerate(KINDS):
            where = [j for j in range(cells) if kinds[j] == kind]
            order = rng.permutation(len(where))
            sizes[where] = np.linspace(0.4, 0.7, len(where))[order] * cell
            if k < round(dont_care * cells):
                ignored.add(where[int(np.argmax(order == len(where) // 2))])
        for j, size in enumerate(sizes):
            r, c = divmod(j, cols)
            slack = 0.8 * (cell - size) / 2.0
            cx = (c + 0.5) * width / cols + rng.uniform(-slack, slack)
            cy = (r + 0.5) * height / rows + rng.uniform(-slack, slack)
            poly = _shape(rng, kinds[j], cx, cy, size, 0.1)
            instances.append(TextInstance(polygon=poly, ignore=j in ignored, id=f"i{j:02d}"))
        images.append(AnnotatedImage(f"crowd{i:03d}", width, height, tuple(instances)))
    return images


def corpus(spec: Spec, seed: int) -> list[AnnotatedImage]:
    if spec.name == "roundtrip":
        return roundtrip_corpus(seed, count=spec.images)
    return crowded_corpus(seed, count=spec.images)


def write_annotations(images, path: Path) -> None:
    path.write_text("".join(line + "\n" for line in write_jsonl(images, fmt=round9)), encoding="utf-8")


def describe(images) -> dict:
    """Input description recorded with every result."""
    vertices = [len(inst.polygon) for img in images for inst in img.instances]
    return {
        "images": len(images),
        "width": images[0].width,
        "height": images[0].height,
        "instances": len(vertices),
        "dont_care": sum(inst.ignore for img in images for inst in img.instances),
        "vertices": sum(vertices),
        "vertices_min": min(vertices),
        "vertices_max": max(vertices),
    }


# ---------------------------------------------------------------------------
# the command chain


@dataclass(frozen=True)
class Step:
    command: str
    args: tuple          # fctool arguments after the global options
    items: int           # instances or images the command processes
    output: str          # path it writes, relative to the work directory


ANNOTATIONS = "ann.jsonl"
PRED_DIR = "pred"


def chain(spec: Spec, images) -> list[Step]:
    n_img = len(images)
    n_inst = sum(len(img.instances) for img in images)
    n_cared = sum(not inst.ignore for img in images for inst in img.instances)
    maps = PRED_DIR if spec.noisy_predictions else "gt"
    return [
        Step("embed", ("embed", ANNOTATIONS, "-o", "sigs.jsonl"), n_inst, "sigs.jsonl"),
        Step("reconstruct", ("reconstruct", "sigs.jsonl", "-o", "recon.jsonl"), n_inst, "recon.jsonl"),
        Step(
            "fidelity",
            ("fidelity", ANNOTATIONS, "--degrees", spec.degrees, "-o", "fidelity.csv"),
            n_cared,
            "fidelity.csv",
        ),
        Step("subset", ("subset", ANNOTATIONS, "-o", "subset.jsonl"), n_img, "subset.jsonl"),
        Step("targets", ("targets", ANNOTATIONS, "--out-dir", "gt"), n_img, "gt"),
        Step("decode", ("decode", "--maps-dir", maps, "-o", "dets.jsonl"), n_img, "dets.jsonl"),
        Step("loss", ("loss", "--gt-dir", "gt", "--pred-dir", maps, "-o", "loss.json"), n_img, "loss.json"),
        Step(
            "eval",
            ("eval", "--detections", "dets.jsonl", "--annotations", ANNOTATIONS, "-o", "report.json"),
            n_img,
            "report.json",
        ),
    ]


def write_noisy_predictions(gt_root: Path, pred_root: Path, seed: int) -> None:
    """Prediction maps: the targets with seeded noise.

    Probabilities become 0.85 * target + U(0, 0.1), so exactly the center
    region cells score above the threshold; every regression channel gets
    N(0, 0.25 px) added, which moves each decoded contour by about a pixel.
    """
    for index, gt_dir in enumerate(sorted(p for p in gt_root.iterdir() if p.is_dir())):
        rng = np.random.default_rng([seed, index])
        out = pred_root / gt_dir.name
        out.mkdir(parents=True, exist_ok=True)
        meta = (gt_dir / "meta.json").read_text(encoding="utf-8")
        (out / "meta.json").write_text(meta, encoding="utf-8")
        for level in json.loads(meta)["levels"]:
            name = level["name"]
            for key in ("tr", "tcr"):
                gt = read_tensor(gt_dir / f"{name}_{key}.fct").astype(np.float64)
                write_tensor(out / f"{name}_{key}.fct", 0.85 * gt + rng.uniform(0.0, 0.1, gt.shape))
            reg = read_tensor(gt_dir / f"{name}_reg.fct").astype(np.float64)
            write_tensor(out / f"{name}_reg.fct", reg + rng.normal(0.0, 0.25, reg.shape))


def decode_candidates(maps_root: Path) -> int:
    """Cells at or above the score threshold: the candidates decode reads."""
    total = 0
    for img_dir in sorted(p for p in maps_root.iterdir() if p.is_dir()):
        meta = json.loads((img_dir / "meta.json").read_text(encoding="utf-8"))
        for level in meta["levels"]:
            tr = read_tensor(img_dir / f"{level['name']}_tr.fct").astype(np.float64)
            tcr = read_tensor(img_dir / f"{level['name']}_tcr.fct").astype(np.float64)
            total += int(np.count_nonzero(tr * tcr >= DEFAULT_SCORE_THRESH))
    return total


# ---------------------------------------------------------------------------
# output checks


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_outputs(spec: Spec, images, work: Path) -> list[str]:
    """Problems with one chain pass's outputs; empty when all hold.

    Every workload must recover every cared-for instance (hmean 1, no false
    positive), fit its text shapes well at the default degree
    (mean IoU >= 0.90 at K = 5) with a residual that never grows with K, and
    keep one signature and one reconstruction per instance.
    """
    problems = []
    n_inst = sum(len(img.instances) for img in images)
    for name in ("sigs.jsonl", "recon.jsonl"):
        count = len(_lines(work / name))
        if count != n_inst:
            problems.append(f"{name}: {count} records for {n_inst} instances")

    rows = list(csv.DictReader(_lines(work / "fidelity.csv")[1:]))
    by_k = {int(row["k"]): row for row in rows}
    if 5 not in by_k or float(by_k[5]["mean_iou"]) < FIDELITY_MIN_IOU_AT_5:
        problems.append("fidelity: mean IoU at K = 5 below 0.90")
    l2 = [float(by_k[k]["mean_l2"]) for k in sorted(by_k)]
    if any(later > earlier for earlier, later in zip(l2, l2[1:])):
        problems.append(f"fidelity: mean_l2 grows with K: {l2}")

    if len(_lines(work / "subset.jsonl")) > len(images):
        problems.append("subset: more images out than in")

    loss = json.loads((work / "loss.json").read_text(encoding="utf-8"))
    if not math.isfinite(loss["total"]):
        problems.append("loss: total is not finite")
    if not spec.noisy_predictions and loss["l_reg"] != 0.0:
        problems.append(f"loss: regression loss of targets against themselves is {loss['l_reg']}")

    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    if report["hmean"] != 1.0 or report["fp"] != 0:
        problems.append(f"eval: hmean {report['hmean']} fp {report['fp']}, want 1 and 0")
    return problems
