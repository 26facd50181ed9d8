"""Span tracing of fourier_contours from outside the package.

`Tracer.installed()` replaces each traced public function with a timing
wrapper at every module of the package that binds its name (cli, decode,
targets and evaluation import by name), and puts the originals back on exit.
A span records name, start, end, parent span, thread, image id (from the
first argument's `image_id`, else the parent's) and, for some functions, a
work count taken from the arguments or the result after the clock stops.
Each thread keeps its own span stack; spans stay in memory until `write`.

Run as a script it is a traced `fctool`:

    python3 perfbench/tracer.py SPANS.json -- [fctool arguments]
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

# decode_all and the cli commands are traced as the roots that hand image ids
# and parents to the spans under them; the cli spans feed no metric
TRACED = {
    "annotations": ("parse_jsonl", "curved_subset_select"),
    "geometry": ("polygon_iou", "shrink_polygon", "rasterize_grid", "resample_equidistant"),
    "fourier": ("truncation_l2_error", "fourier_coefficients", "evaluate_series"),
    "targets": ("generate_targets",),
    "decode": ("decode_all", "decode_level", "poly_nms"),
    "losses": ("regression_loss", "cross_entropy", "ohem_select"),
    "evaluation": ("evaluate",),
    "serialize": ("write_tensor", "read_tensor", "json_line"),
    "cli": (
        "cmd_embed",
        "cmd_reconstruct",
        "cmd_fidelity",
        "cmd_subset",
        "cmd_targets",
        "cmd_decode",
        "cmd_loss",
        "cmd_eval",
    ),
}


def _iou_work(args, kwargs, result):
    """[joint lattice cells, joint box's longer side in px]; [0, 0] when the
    bounding boxes are disjoint and polygon_iou returns before rasterizing."""
    a, b = args[0].vertices, args[1].vertices
    s = int(args[2] if len(args) > 2 else kwargs.get("supersample", 4))
    alo, ahi = a.min(axis=0), a.max(axis=0)
    blo, bhi = b.min(axis=0), b.max(axis=0)
    if ahi[0] <= blo[0] or bhi[0] <= alo[0] or ahi[1] <= blo[1] or bhi[1] <= alo[1]:
        return [0, 0]
    lo = np.floor(np.minimum(alo, blo))
    hi = np.ceil(np.maximum(ahi, bhi))
    w, h = max(int(hi[0] - lo[0]), 1), max(int(hi[1] - lo[1]), 1)
    return [w * s * h * s, max(w, h)]


def _tensor_bytes(arr) -> int:
    arr = np.asarray(arr)
    return 8 + 4 * arr.ndim + 4 * arr.size


WORK = {
    "geometry.polygon_iou": _iou_work,
    "geometry.rasterize_grid": lambda args, kw, res: int(np.size(args[1]) * np.size(args[2])),
    "fourier.evaluate_series": lambda args, kw, res: int(np.size(res)),
    "decode.decode_level": lambda args, kw, res: len(res),
    "decode.poly_nms": lambda args, kw, res: [len(args[0]), len(res)],
    "losses.regression_loss": lambda args, kw, res: int(np.shape(args[0])[0]),
    "serialize.write_tensor": lambda args, kw, res: _tensor_bytes(args[1]),
    "serialize.read_tensor": lambda args, kw, res: _tensor_bytes(res),
}

# span fields, in the order each span list holds them
NAME, START, END, PARENT, THREAD, IMAGE, WORK_FIELD = range(7)


class Tracer:
    """Collects spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            image = getattr(args[0], "image_id", None) if args else None
            if image is None and parent >= 0:
                image = spans[parent][IMAGE]
            span = [name, 0.0, 0.0, parent, threading.get_ident(), image, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK_FIELD] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        import fourier_contours

        modules = [fourier_contours] + [
            mod
            for key, mod in sorted(sys.modules.items())
            if key.startswith("fourier_contours.") and mod is not None
        ]
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"fourier_contours.{layer}"]
                for fn_name in names:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                    for mod in modules:
                        if getattr(mod, fn_name, None) is original:
                            self._patched.append((mod, fn_name, original))
                            setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for mod, fn_name, original in reversed(self._patched):
                setattr(mod, fn_name, original)
            self._patched.clear()

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# polygon_iou calls that rasterize, binned by the joint box's longer side (px)
IOU_BINS = (("small", 0, 100), ("mid", 100, 300), ("large", 300, float("inf")))


def summarize(spans_by_command: dict, walls: dict, jobs: int) -> dict:
    """Per-layer metrics of one traced chain pass, name -> (value, unit).

    `spans_by_command` maps each fctool command to the spans its process
    recorded; `walls` maps it to the process's wall time in seconds.
    `decode_share` is polygon_iou's self time in `decode` over the thread
    time decode had: its wall time times `jobs`.
    """
    library = [f"{layer}.{fn}" for layer, names in TRACED.items() if layer != "cli" for fn in names]
    calls = dict.fromkeys(library, 0)
    own = dict.fromkeys(library, 0.0)
    totals = dict.fromkeys(WORK, 0)
    iou = {"rejected": 0, "cells": 0, "decode_s": 0.0, "nms": 0, "eval": 0}
    bins = {label: [0, 0.0] for label, _, _ in IOU_BINS}
    nms = [0, 0]
    for command, spans in spans_by_command.items():
        for span, self_s in zip(spans, self_times(spans)):
            name = span[NAME]
            if name not in calls:
                continue
            calls[name] += 1
            own[name] += self_s
            count = span[WORK_FIELD]
            if name == "geometry.polygon_iou":
                cells, side = count
                parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
                iou["nms"] += parent == "decode.poly_nms"
                iou["eval"] += parent == "evaluation.evaluate"
                if command == "decode":
                    iou["decode_s"] += self_s
                if cells == 0:
                    iou["rejected"] += 1
                    continue
                iou["cells"] += cells
                for label, lo, hi in IOU_BINS:
                    if lo <= side < hi:
                        bins[label][0] += 1
                        bins[label][1] += self_s
            elif name == "decode.poly_nms":
                nms[0] += count[0]
                nms[1] += count[1]
            elif count is not None:
                totals[name] += count

    out = {}
    for name in library:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (own[name], "s")
    n_iou = calls["geometry.polygon_iou"]
    out["geometry.polygon_iou.bbox_reject_frac"] = (iou["rejected"] / n_iou if n_iou else 0.0, "ratio")
    out["geometry.polygon_iou.lattice_cells"] = (iou["cells"], "count")
    for label, (n, seconds) in bins.items():
        out[f"geometry.polygon_iou.ms_per_call.{label}"] = (1e3 * seconds / n if n else 0.0, "ms")
    decode_wall = walls.get("decode", 0.0)
    share = iou["decode_s"] / (decode_wall * jobs) if decode_wall else 0.0
    out["geometry.polygon_iou.decode_share"] = (share, "ratio")
    out["geometry.rasterize_grid.cells"] = (totals["geometry.rasterize_grid"], "count")
    out["fourier.evaluate_series.points"] = (totals["fourier.evaluate_series"], "count")
    out["decode.decode_level.candidates"] = (totals["decode.decode_level"], "count")
    out["decode.poly_nms.candidates"] = (nms[0], "count")
    out["decode.poly_nms.kept"] = (nms[1], "count")
    out["decode.poly_nms.keep_ratio"] = (nms[1] / nms[0] if nms[0] else 0.0, "ratio")
    out["decode.poly_nms.iou_per_candidate"] = (iou["nms"] / nms[0] if nms[0] else 0.0, "ratio")
    out["losses.regression_loss.rows"] = (totals["losses.regression_loss"], "count")
    out["evaluation.evaluate.iou_calls"] = (iou["eval"], "count")
    out["serialize.write_tensor.bytes"] = (totals["serialize.write_tensor"], "B")
    out["serialize.read_tensor.bytes"] = (totals["serialize.read_tensor"], "B")
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- [fctool arguments]", file=sys.stderr)
        return 2
    from fourier_contours import cli

    tracer = Tracer()
    try:
        with tracer.installed():
            return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
