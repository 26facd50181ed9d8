"""Command-line interface.

Commands read annotation JSON-lines or binary tensor directories and write
JSON-lines, CSV, SVG, or tensor directories.  All outputs are deterministic:
floats are formatted with 9 significant digits, iteration orders are fixed,
and every command maps a pure per-image or per-record function through
_pmap, whose threads collect results in order, so --jobs never changes a
single output byte.  _pmap's pool is plain threading.Thread workers, which
numpy has already imported; no run loads concurrent.futures.

Exit codes: 0 success, 1 the reader of standard output closed it, 2 malformed
input, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .annotations import _number_list, curved_subset_select, parse_jsonl, write_jsonl
from .config import Config, apply_overrides, load_config
from .decode import Detection, LevelPrediction, PredictionMaps, decode_all
from .decode import _CANDIDATE_MARGIN, _beyond_margin
from .errors import ConfigError, GeometryError, ParseError
from .evaluation import evaluate, fmeasure
from .fourier import (
    FourierSignature,
    _coefficient_rows,
    _embed_many,
    coeffs_to_flat,
    evaluate_series,
    reconstruct,
    truncation_l2_errors,
)
from .geometry import Contour, _cuts, _resample_many, contour_spans_many, spans_iou
from .losses import LossSums, image_loss, total_loss
from .serialize import fmt9, json_line, read_tensor, round9, write_tensor
from .svg import render_svg
from .targets import cell_count, generate_targets

_INPUT_ERRORS = (ParseError, GeometryError, ValueError, OSError, KeyError)

# Most worker threads --jobs may ask for; the work is numpy under the GIL,
# so more threads than cores add only their own cost.
MAX_JOBS = 64


def _pmap(fn, items, jobs: int) -> list:
    """fn of each item, in order, on min(jobs, len(items)) threads.  The
    threads take item indices in order from one shared iterator, run every
    index they take, and stop taking them once an item has failed.  So every
    item before the first failing one has run, and that item's own exception
    is raised."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = [None] * len(items)
    indices = iter(range(len(items)))  # next() on it is atomic under the GIL
    stop = False

    def work() -> None:
        nonlocal stop
        # stop is read before an index is taken: a taken index always runs
        while not stop and (i := next(indices, None)) is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # kept for the caller, as a pool's future keeps it
                errors[i] = exc
                stop = True

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop = True  # an interrupted join leaves the rest of the items unstarted
    _first_error(errors)
    return results


def _first_error(errors) -> None:
    """Raise the first of a batch's per-instance errors, if any."""
    for err in errors:
        if err is not None:
            raise err


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_lines(path: str, lines) -> None:
    """Write each line followed by a newline; no lines write an empty file."""
    lines = list(lines)
    _write_text(path, "\n".join(lines) + "\n" if lines else "")


def _read_records(path: str, what: str, parse) -> list:
    """parse(obj) of each non-blank JSON line, in order.  A line that is not
    JSON or that parse rejects raises ParseError naming the line."""
    records = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {what} record: {exc}", line=lineno) from None
    return records


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _claim(used: dict, name: str, owner: str) -> str:
    """name, once no other owner has claimed it in `used`: two ids that
    sanitize to one file name are an input error, not an overwrite."""
    if used.setdefault(name, owner) != owner:
        raise ParseError(f"{used[name]} and {owner} collide after sanitizing: both give {name!r}")
    return name


def _safe_dir_names(images) -> dict[str, str]:
    used: dict[str, str] = {}
    return {img.image_id: _claim(used, _safe_name(img.image_id), f"image id {img.image_id!r}") for img in images}


def _config_header(cfg: Config) -> str:
    parts = []
    for key, value in cfg.to_dict().items():
        parts.append(f"{key}={fmt9(value) if isinstance(value, float) else value}")
    return "# config: " + " ".join(parts)


def _parse_annotations(path: str):
    images, clamped = parse_jsonl(_read_lines(path))
    if clamped:
        print(f"warning: clamped {clamped} out-of-bounds points", file=sys.stderr)
    return images


# ---------------------------------------------------------------------------
# embed / reconstruct


def cmd_embed(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)

    def one(img) -> list[str]:
        coeffs, errors = _embed_many([inst.polygon.vertices for inst in img.instances], cfg.k, cfg.n)
        _first_error(errors)
        return [
            json_line(
                {
                    "image_id": img.image_id,
                    "instance_id": inst.id,
                    "k": cfg.k,
                    "ignore": inst.ignore,
                    "coeffs": flat,
                }
            )
            for inst, flat in zip(img.instances, coeffs_to_flat(coeffs).tolist())
        ]

    blocks = _pmap(one, images, args.jobs)
    _write_lines(args.out, (line for block in blocks for line in block))
    return 0


def cmd_reconstruct(args, cfg: Config) -> int:
    records = _read_records(
        args.signatures,
        "signature",
        lambda obj: (
            obj["image_id"],
            obj["instance_id"],
            FourierSignature.from_flat(_number_list(obj["coeffs"], "coeffs")),
        ),
    )

    def one(record) -> str:
        image_id, instance_id, sig = record
        contour = reconstruct(sig, cfg.n_prime)
        return json_line(
            {
                "image_id": image_id,
                "instance_id": instance_id,
                "points": contour.flat(),
            }
        )

    _write_lines(args.out, _pmap(one, records, args.jobs))
    return 0


# ---------------------------------------------------------------------------
# fidelity


def _degree(token: str) -> int:
    """One token of fidelity's --degrees list."""
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"--degrees takes a comma list of integers; {token!r} is not one") from None


def _median(values: list) -> float:
    """statistics.median's value: the middle one of the sorted values, or the
    mean of the two middle ones.  statistics imports fractions and decimal,
    about 5 ms a process; np.median imports numpy.ma, about 14 ms."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def cmd_fidelity(args, cfg: Config) -> int:
    """Mean and median IoU and mean squared truncation error of each degree's
    reconstruction over the cared-for instances.  Per image: one resample and
    transform of the instances, series evaluations per degree in blocks, and one
    contour_spans_many call for the instances and all their reconstructions."""
    images = _parse_annotations(args.annotations)
    degrees = sorted({_degree(tok) for tok in args.degrees.split(",")}) if args.degrees else [cfg.k]
    if any(deg < 1 for deg in degrees):
        raise ConfigError(f"degrees must be >= 1, got {degrees}")
    if 2 * max(degrees) + 1 > cfg.n:
        raise ConfigError(f"degree {max(degrees)} too large for n = {cfg.n}")
    kmax = max(degrees)
    # every overlay's file name, checked before any work is done
    used: dict[str, str] = {}
    svg_names = {
        (img.image_id, inst.id, deg): _claim(
            used,
            f"{_safe_name(img.image_id)}_{_safe_name(inst.id)}_k{deg}.svg",
            f"image {img.image_id!r} instance {inst.id!r}",
        )
        for img in images
        for inst in img.instances
        if not inst.ignore
        for deg in degrees
    } if args.svg_dir else {}

    def one(img):
        insts = [inst for inst in img.instances if not inst.ignore]
        points, errors = _resample_many([inst.polygon.vertices for inst in insts], cfg.n)
        _first_error(errors)
        full = _coefficient_rows(points, kmax)
        # every instance's reconstruction at each degree, (degrees, N, n')
        z = np.empty((len(degrees), len(insts), cfg.n_prime), dtype=np.complex128)
        for d, deg in enumerate(degrees):
            for i, j in _cuts(np.full(len(insts), cfg.n_prime * (2 * deg + 1))):
                z[d, i:j] = evaluate_series(full[i:j, kmax - deg : kmax + deg + 1], cfg.n_prime)
        rows, recons = [], []
        for samples, zs in zip(points, z.transpose(1, 0, 2)):
            errs = truncation_l2_errors(samples, degrees)
            recon = [Contour(np.stack([zd.real, zd.imag], axis=1)) for zd in zs]
            rows.append(list(zip(degrees, errs, recon)))
            recons += recon
        # one record batch: the instances, then their reconstructions in order
        spans = contour_spans_many([inst.polygon for inst in insts] + recons, cfg.iou_supersample)
        recon_spans = iter(spans[len(insts):])
        return [
            (img, inst, [(deg, spans_iou(own, next(recon_spans)), err, recon) for deg, err, recon in inst_rows])
            for inst, own, inst_rows in zip(insts, spans, rows)
        ]

    results = [result for block in _pmap(one, images, args.jobs) for result in block]

    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for img, inst, rows in results:
            for deg, _iou, _err, recon in rows:
                _write_text(
                    str(svg_dir / svg_names[img.image_id, inst.id, deg]),
                    render_svg(
                        img.width,
                        img.height,
                        [inst.polygon.vertices],
                        [recon.vertices],
                    ),
                )

    lines = [_config_header(cfg), "k,mean_iou,median_iou,mean_l2"]
    for deg in degrees:
        ious = [row[1] for _, _, rows in results for row in rows if row[0] == deg]
        errs = [row[2] for _, _, rows in results for row in rows if row[0] == deg]
        if not ious:
            raise ParseError("no usable instances in the annotation file")
        lines.append(
            ",".join(
                [
                    str(deg),
                    fmt9(float(np.mean(ious))),
                    fmt9(_median(ious)),
                    fmt9(float(np.mean(errs))),
                ]
            )
        )
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# targets / decode / loss


# a target level's <level>_<key>.fct tensors; a prediction level has the first three
_TENSOR_KEYS = ("tr", "tcr", "reg", "weight", "care")


def cmd_targets(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)
    dirnames = _safe_dir_names(images)
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    def one(img):
        maps = generate_targets(
            img, cfg.levels, k=cfg.k, n=cfg.n, shrink_factor=cfg.shrink_factor
        )
        img_dir = out_root / dirnames[img.image_id]
        img_dir.mkdir(parents=True, exist_ok=True)
        level_meta = []
        for name, lt in maps.levels.items():
            for key, arr in zip(_TENSOR_KEYS, (lt.tr, lt.tcr, lt.regression, lt.weight, lt.care)):
                write_tensor(img_dir / f"{name}_{key}.fct", arr)
            level_meta.append(
                {
                    "name": name,
                    "stride": lt.spec.stride,
                    "low": lt.spec.low,
                    "high": lt.spec.high,
                    "height": int(lt.shape[0]),
                    "width": int(lt.shape[1]),
                }
            )
        meta = {
            "image_id": maps.image_id,
            "width": maps.width,
            "height": maps.height,
            "k": maps.k,
            "n": cfg.n,
            "shrink_factor": cfg.shrink_factor,
            "levels": level_meta,
            "skipped": [[inst_id, reason] for inst_id, reason in maps.skipped],
        }
        _write_lines(str(img_dir / "meta.json"), [json_line(meta)])
        return maps.skipped

    skipped = _pmap(one, images, args.jobs)
    total_skipped = sum(len(s) for s in skipped)
    if total_skipped:
        print(f"warning: skipped {total_skipped} degenerate instances", file=sys.stderr)
    return 0


def _read_meta(map_dir: Path) -> dict:
    """A map directory's meta.json, checked for every field decode and loss read."""
    path = map_dir / "meta.json"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not JSON: {exc}") from None
    # type() is int: JSON true and false are bools, which isinstance counts as int
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if not isinstance(meta.get("image_id"), str):
        raise ParseError(f"{path}: image_id must be a string")
    if type(meta.get("width")) is not int or type(meta.get("height")) is not int:
        raise ParseError(f"{path}: width and height must be integers")
    levels = meta.get("levels")
    if not isinstance(levels, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and type(e.get("stride")) is int and e["stride"] >= 1
        for e in levels
    ):
        raise ParseError(f"{path}: levels must be objects with a string name and a positive integer stride")
    return meta


def _meta_layout(meta: dict) -> tuple:
    """What a prediction's meta.json must share with its target's."""
    return meta["image_id"], [(e["name"], e["stride"]) for e in meta["levels"]]


def _read_level(map_dir: Path, meta: dict, entry: dict, keys, like: dict | None = None) -> dict:
    """One level's <name>_<key>.fct tensors of a map directory, by key: tr, tcr
    and care (H, W) and reg (C, H, W), where (H, W) is (ceil(height / stride),
    ceil(width / stride)) of the directory's meta.json, the shape targets
    writes.  With `like`, each must also have its target's shape."""
    name, stride = entry["name"], entry["stride"]
    hw = (cell_count(meta["height"], stride), cell_count(meta["width"], stride))
    level = {key: read_tensor(map_dir / f"{name}_{key}.fct") for key in keys}
    for key, arr in level.items():
        want = arr.shape[:1] + hw if key == "reg" else hw
        if arr.shape != want:
            raise ParseError(
                f"{map_dir.name}/{name}_{key}: shape {arr.shape} does not match {want}, "
                f"which meta.json's height {meta['height']}, width {meta['width']} "
                f"and stride {stride} give"
            )
        if like is not None and arr.shape != like[key].shape:
            raise ParseError(
                f"{map_dir.name}/{name}_{key}: shape {arr.shape} does not match "
                f"target shape {like[key].shape}"
            )
    return level


def _read_prediction(map_dir: Path, meta: dict, entry: dict, like: dict | None = None) -> LevelPrediction:
    """A prediction level under decode's checks, which name the level."""
    name = entry["name"]
    level = _read_level(map_dir, meta, entry, _TENSOR_KEYS[:3], like)
    try:
        return LevelPrediction(name, entry["stride"], level["tr"], level["tcr"], level["reg"])
    except ValueError as exc:
        raise ParseError(f"{map_dir.name}/{name}: {exc}") from None


def _map_dirs(root: str) -> list[Path]:
    base = Path(root)
    if not base.is_dir():
        raise ParseError(f"not a directory: {root}")
    dirs = sorted(p for p in base.iterdir() if p.is_dir() and (p / "meta.json").is_file())
    if not dirs:
        raise ParseError(f"no map directories with meta.json under {root}")
    return dirs


def cmd_decode(args, cfg: Config) -> int:
    def one(img_dir: Path) -> list[str]:
        meta = _read_meta(img_dir)
        levels = {entry["name"]: _read_prediction(img_dir, meta, entry) for entry in meta["levels"]}
        maps = PredictionMaps(meta["image_id"], meta["width"], meta["height"], levels)
        try:
            detections = decode_all(
                maps,
                score_thresh=cfg.score_thresh,
                nms_iou=cfg.nms_iou,
                n_points=cfg.n_prime,
                supersample=cfg.iou_supersample,
            )
        except ValueError as exc:  # decode_level's candidate bound names the level
            raise ParseError(f"{img_dir.name}/{exc}") from None
        return [
            json_line(
                {
                    "image_id": maps.image_id,
                    "level": det.level,
                    "score": det.score,
                    "points": det.contour.flat(),
                }
            )
            for det in detections
        ]

    blocks = _pmap(one, _map_dirs(args.maps_dir), args.jobs)
    _write_lines(args.out, (line for block in blocks for line in block))
    return 0


def cmd_loss(args, cfg: Config) -> int:
    gt_dirs = _map_dirs(args.gt_dir)
    pred_root = Path(args.pred_dir)

    def one(gt_dir: Path) -> LossSums:
        pred_dir = pred_root / gt_dir.name
        if not (pred_dir / "meta.json").is_file():
            raise ParseError(f"missing prediction directory {pred_dir}")
        gt_meta, pred_meta = _read_meta(gt_dir), _read_meta(pred_dir)
        if _meta_layout(pred_meta) != _meta_layout(gt_meta):
            raise ParseError(
                f"prediction directory {pred_dir}: image_id and levels (name, stride) "
                f"do not match the target's"
            )

        def levels():  # read one level at a time, as image_loss scores it
            for entry in gt_meta["levels"]:
                target = _read_level(gt_dir, gt_meta, entry, ("tr", "tcr", "reg", "care"))
                pred = _read_prediction(pred_dir, pred_meta, entry, like=target)
                yield SimpleNamespace(regression=target.pop("reg"), **target), pred

        return image_loss(levels(), n_points=cfg.n_prime)

    # field by field, in image order
    sums = LossSums(*map(sum, zip(*_pmap(one, gt_dirs, args.jobs))))
    l_tr = sums.tr / sums.tr_pixels if sums.tr_pixels else 0.0
    l_tcr = sums.tcr / sums.domain_pixels if sums.domain_pixels else 0.0
    breakdown = total_loss(l_tr, l_tcr, sums.reg, cfg.lam)
    report = {
        "l_tr": breakdown.l_tr,
        "l_tcr": breakdown.l_tcr,
        "l_reg": breakdown.l_reg,
        "lambda": breakdown.lam,
        "total": breakdown.total,
        "pixels": {
            "tr_selected": sums.tr_pixels,
            "tcr_domain": sums.domain_pixels,
            "regression": sums.domain_pixels,
        },
        "config": cfg.to_dict(),
    }
    _write_lines(args.out, [json_line(report)])
    return 0


# ---------------------------------------------------------------------------
# eval / subset / plot


def _detection_fields(obj) -> tuple[str, float, Contour, str]:
    image_id, score, level = obj["image_id"], obj["score"], obj.get("level", "")
    if not isinstance(image_id, str):
        raise TypeError("image_id must be a string")
    # bool is an int subclass, and json reads NaN and Infinity as floats
    if isinstance(score, bool) or not isinstance(score, (int, float)) or not math.isfinite(score):
        raise TypeError("score must be a finite number")
    if not isinstance(level, str):
        raise TypeError("level must be a string")
    return image_id, float(score), Contour.from_flat(_number_list(obj["points"], "points")), level


def _load_detections(path: str, sizes: dict | None = None) -> dict[str, list[Detection]]:
    """Detections by image id.  With `sizes` ({image_id: (width, height)}), a
    detection reaching past that area by more than decode's candidate margin
    is a bad record: evaluation rasterizes it on a lattice linear in its box."""

    def parse(obj):
        image_id, score, contour, level = fields = _detection_fields(obj)
        if sizes and image_id in sizes:
            width, height = sizes[image_id]
            v = contour.vertices.T
            if (_beyond_margin(v[0], width) | _beyond_margin(v[1], height)).any():
                raise ValueError(
                    f"image {image_id!r}: the detection reaches more than "
                    f"{_CANDIDATE_MARGIN:g} image side past the {width} x {height} px image"
                )
        return fields

    grouped: dict[str, list[Detection]] = {}
    for image_id, score, contour, level in _read_records(path, "detection", parse):
        grouped.setdefault(image_id, []).append(Detection(contour, score, level))
    return grouped


def cmd_eval(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)

    def covered(side: int) -> int:
        # decode_level's image is its map's: the side rounded up to the stride
        return max(cell_count(side, spec.stride) * spec.stride for spec in cfg.levels)

    sizes = {img.image_id: (covered(img.width), covered(img.height)) for img in images}
    grouped = _load_detections(args.detections, sizes)
    known = {img.image_id for img in images}
    unknown = sorted(set(grouped) - known)
    if unknown:
        raise ParseError(f"detections reference unknown image ids: {unknown[:5]}")

    def one(img):
        return img.image_id, evaluate(
            grouped.get(img.image_id, []),
            img.instances,
            iou_thresh=cfg.eval_iou,
            supersample=cfg.iou_supersample,
        )

    reports = _pmap(one, images, args.jobs)
    tp = sum(r.tp for _, r in reports)
    fp = sum(r.fp for _, r in reports)
    fn = sum(r.fn for _, r in reports)
    precision, recall, hmean = fmeasure(tp, fp, fn)
    report = {
        "precision": precision,
        "recall": recall,
        "hmean": hmean,
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "images": len(images),
        "iou_thresh": cfg.eval_iou,
        "per_image": [
            {
                "image_id": image_id,
                "tp": r.tp,
                "fp": r.fp,
                "fn": r.fn,
                "matches": [
                    {"det": m.det_index, "gt": m.gt_id, "iou": m.iou}
                    for m in r.matches
                ],
            }
            for image_id, r in reports
        ],
        "config": cfg.to_dict(),
    }
    _write_lines(args.out, [json_line(report)])
    if args.csv:
        csv_lines = [
            _config_header(cfg),
            "precision,recall,hmean,tp,fp,fn",
            ",".join([fmt9(precision), fmt9(recall), fmt9(hmean), str(tp), str(fp), str(fn)]),
        ]
        _write_lines(args.csv, csv_lines)
    return 0


def cmd_subset(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)

    def one(img):  # None when no instance is curved
        selected = curved_subset_select(
            [inst for inst in img.instances if not inst.ignore],
            cfg.subset_threshold,
        )
        if not selected:
            return None
        carried = tuple(selected) + tuple(
            inst for inst in img.instances if inst.ignore
        )
        return type(img)(img.image_id, img.width, img.height, carried)

    kept = [img for img in _pmap(one, images, args.jobs) if img is not None]
    _write_lines(args.out, write_jsonl(kept, fmt=round9))
    return 0


def cmd_plot(args, cfg: Config) -> int:
    if args.degree < 0:
        raise ConfigError(f"degree must be >= 0 (0 means k), got {args.degree}")
    degree = args.degree if args.degree else cfg.k
    if 2 * degree + 1 > cfg.n:
        raise ConfigError(f"degree {degree} too large for n = {cfg.n}")
    images = _parse_annotations(args.annotations)
    dirnames = _safe_dir_names(images)
    grouped = _load_detections(args.detections) if args.detections else None
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    def one(img):
        green = [inst.polygon.vertices for inst in img.instances if not inst.ignore]
        if grouped is not None:
            red = [det.contour.vertices for det in grouped.get(img.image_id, [])]
        else:
            coeffs, errors = _embed_many(green, degree, cfg.n)
            _first_error(errors)
            red = [reconstruct(FourierSignature(row), cfg.n_prime).vertices for row in coeffs]
        _write_text(
            str(out_root / f"{dirnames[img.image_id]}.svg"),
            render_svg(img.width, img.height, green, red),
        )

    _pmap(one, images, args.jobs)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fctool",
        description="Fourier contour embedding toolkit for text shapes",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help=f"worker threads for per-image or per-record work (1 to {MAX_JOBS})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="signatures of annotated contours")
    p.add_argument("annotations")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("reconstruct", help="contours from signature records")
    p.add_argument("signatures")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fidelity", help="reconstruction quality sweep over degrees")
    p.add_argument("annotations")
    p.add_argument("--degrees", default="", help="comma list, e.g. 3,5,10")
    p.add_argument("--svg-dir", default="", help="write per-instance overlays here")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("targets", help="ground-truth tensor maps per image")
    p.add_argument("annotations")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("decode", help="detections from prediction tensor maps")
    p.add_argument("--maps-dir", required=True)
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("loss", help="loss breakdown of predictions against targets")
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("eval", help="precision/recall/hmean of detections")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("-o", "--out", default="-")
    p.add_argument("--csv", default="", help="also write a CSV summary row here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("subset", help="filter annotations to curved instances")
    p.add_argument("annotations")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("plot", help="SVG overlays of annotations and fits")
    p.add_argument("annotations")
    p.add_argument("--detections", default="")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    """Run one fctool command; returns the exit code.  argv None means the
    program entry (the console script, `python -m`): the objects the imports
    made then live until exit, so gc.freeze() keeps them out of every later
    collection, the full ones at interpreter exit included.  A caller that
    passes argv keeps its collector as it was."""
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else Config()
        cfg = apply_overrides(cfg, args.overrides)
        if not 1 <= args.jobs <= MAX_JOBS:
            raise ConfigError(f"--jobs must lie in [1, {MAX_JOBS}], got {args.jobs}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        code = args.func(args, cfg)
        # flushed here, so a reader that is gone fails inside this block
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of the output closed it (`fctool ... | head`), which is
        # not bad input; as Python's signal docs advise, stdout goes to
        # devnull so the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
