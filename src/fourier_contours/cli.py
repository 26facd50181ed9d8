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
import os
import re
import sys
import threading
from itertools import groupby
from pathlib import Path

import numpy as np

from .annotations import curved_subset_select, parse_jsonl, write_jsonl
from .config import NAME_CHARS, Config, apply_overrides, load_config
from .decode import decode_all
from .errors import ConfigError, GeometryError, ParseError
from .evaluation import detection_lines, evaluate, fmeasure, parse_detections
from .fourier import FourierSignature, embed_many, fit_by_degree, parse_signatures, reconstruct_many
from .fourier import reconstruction_lines, signature_lines
from .losses import LossSums, image_loss
from .mapdir import map_dirs, read_loss_levels, read_prediction_maps, write_target_maps
from .serialize import fmt9, json_line, round9
from .svg import render_svg
from .targets import generate_targets

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
    for err in errors:
        if err is not None:
            raise err
    return results


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


def _safe_name(name: str) -> str:
    return re.sub(f"[^{NAME_CHARS}]", "_", name)


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
    pairs = (f"{key}={fmt9(value) if isinstance(value, float) else value}" for key, value in cfg.to_dict().items())
    return "# config: " + " ".join(pairs)


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
        coeffs = embed_many([inst.polygon for inst in img.instances], cfg.k, cfg.n)
        return signature_lines(img.image_id, img.instances, coeffs)

    blocks = _pmap(one, images, args.jobs)
    _write_lines(args.out, (line for block in blocks for line in block))
    return 0


def cmd_reconstruct(args, cfg: Config) -> int:
    """One reconstruct_many call per run of consecutive records of one image
    and one degree, its lines written as one block."""
    records = parse_signatures(_read_lines(args.signatures))
    runs = [list(run) for _, run in groupby(records, key=lambda record: (record[0], record[2].degree))]

    def one(run) -> list[str]:
        return reconstruction_lines(run, reconstruct_many([sig for _, _, sig in run], cfg.n_prime))

    blocks = _pmap(one, runs, args.jobs)
    _write_lines(args.out, (line for block in blocks for line in block))
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
    reconstruction over the cared-for instances, one fit_by_degree per image."""
    images = _parse_annotations(args.annotations)
    degrees = sorted({_degree(tok) for tok in args.degrees.split(",")}) if args.degrees else [cfg.k]
    if any(deg < 1 for deg in degrees):
        raise ConfigError(f"degrees must be >= 1, got {degrees}")
    cfg.check_degree(max(degrees))
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
        fits = fit_by_degree([inst.polygon for inst in insts], degrees, cfg.n, cfg.n_prime, cfg.iou_supersample)
        return [(img, inst, inst_fits) for inst, inst_fits in zip(insts, fits)]

    results = [result for block in _pmap(one, images, args.jobs) for result in block]

    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for img, inst, fits in results:
            for fit in fits:
                _write_text(
                    str(svg_dir / svg_names[img.image_id, inst.id, fit.degree]),
                    render_svg(img.width, img.height, [inst.polygon.vertices], [fit.contour.vertices]),
                )

    lines = [_config_header(cfg), "k,mean_iou,median_iou,mean_l2"]
    for d, deg in enumerate(degrees):
        ious = [fits[d].iou for _, _, fits in results]
        errs = [fits[d].l2_error for _, _, fits in results]
        if not ious:
            raise ParseError("no usable instances in the annotation file")
        lines.append(f"{deg},{fmt9(float(np.mean(ious)))},{fmt9(_median(ious))},{fmt9(float(np.mean(errs)))}")
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# targets / decode / loss


def cmd_targets(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)
    dirnames = _safe_dir_names(images)
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    def one(img) -> int:
        maps = generate_targets(img, cfg.levels, k=cfg.k, n=cfg.n, shrink_factor=cfg.shrink_factor)
        write_target_maps(out_root / dirnames[img.image_id], maps)
        return len(maps.skipped)

    total_skipped = sum(_pmap(one, images, args.jobs))
    if total_skipped:
        print(f"warning: skipped {total_skipped} degenerate instances or ones that own no cell", file=sys.stderr)
    return 0


def cmd_decode(args, cfg: Config) -> int:
    def one(img_dir: Path) -> list[str]:
        maps = read_prediction_maps(img_dir)
        try:
            detections = decode_all(maps, cfg.score_thresh, cfg.nms_iou, cfg.n_prime, cfg.iou_supersample)
        except ValueError as exc:  # the candidate bound of decode._decode_cells names the level
            raise ParseError(f"{img_dir.name}/{exc}") from None
        return detection_lines(maps.image_id, detections)

    blocks = _pmap(one, map_dirs(args.maps_dir), args.jobs)
    _write_lines(args.out, (line for block in blocks for line in block))
    return 0


def cmd_loss(args, cfg: Config) -> int:
    gt_dirs = map_dirs(args.gt_dir)
    pred_root = Path(args.pred_dir)

    def one(gt_dir: Path) -> LossSums:
        return image_loss(read_loss_levels(gt_dir, pred_root / gt_dir.name), n_points=cfg.n_prime)

    # field by field, in image order
    sums = LossSums(*map(sum, zip(*_pmap(one, gt_dirs, args.jobs))))
    breakdown = sums.breakdown(cfg.lam)
    report = {
        "l_tr": breakdown.l_tr,
        "l_tcr": breakdown.l_tcr,
        "l_reg": breakdown.l_reg,
        "lambda": breakdown.lam,
        "total": breakdown.total,
        "pixels": {"tr_selected": sums.tr_pixels, "tcr_domain": sums.domain_pixels, "regression": sums.domain_pixels},
        "config": cfg.to_dict(),
    }
    _write_lines(args.out, [json_line(report)])
    return 0


# ---------------------------------------------------------------------------
# eval / subset / plot


def cmd_eval(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)
    grouped = parse_detections(_read_lines(args.detections), images, [spec.stride for spec in cfg.levels])
    unknown = sorted(set(grouped) - {img.image_id for img in images})
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
            {"image_id": image_id, "tp": r.tp, "fp": r.fp, "fn": r.fn,
             "matches": [{"det": m.det_index, "gt": m.gt_id, "iou": m.iou} for m in r.matches]}
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
        selected = curved_subset_select([inst for inst in img.instances if not inst.ignore], cfg.subset_threshold)
        if not selected:
            return None
        carried = tuple(selected) + tuple(inst for inst in img.instances if inst.ignore)
        return type(img)(img.image_id, img.width, img.height, carried)

    kept = [img for img in _pmap(one, images, args.jobs) if img is not None]
    _write_lines(args.out, write_jsonl(kept, fmt=round9))
    return 0


def cmd_plot(args, cfg: Config) -> int:
    images = _parse_annotations(args.annotations)
    dirnames = _safe_dir_names(images)
    grouped = parse_detections(_read_lines(args.detections)) if args.detections else None
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    def one(img):
        cared = [inst.polygon for inst in img.instances if not inst.ignore]
        if grouped is not None:
            red = [det.contour.vertices for det in grouped.get(img.image_id, [])]
        else:
            coeffs = embed_many(cared, cfg.k, cfg.n)
            red = reconstruct_many([FourierSignature(row) for row in coeffs], cfg.n_prime)
        green = [polygon.vertices for polygon in cared]
        _write_text(str(out_root / f"{dirnames[img.image_id]}.svg"), render_svg(img.width, img.height, green, red))

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
