"""Annotation records and their JSON-lines reader and writer.

Annotations are JSON-lines, one image per line:

    {"image_id": str, "width": int, "height": int,
     "instances": [{"points": [x1, y1, x2, y2, ...], "ignore": bool}, ...]}

Instances may carry an optional string "id"; absent ids become "i<index>".

Point coordinates are clamped to the image bounds; the parser reports how
many points it had to clamp.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_SUBSET_THRESHOLD, MAX_IMAGE_SIDE
from .errors import DegenerateContour, InvalidPolygon, ParseError
from .geometry import Contour, _removal_deltas
from .records import _Frozen
from .serialize import _json_records, _json_text, _number_list, _point_array

__all__ = [
    "TextInstance",
    "AnnotatedImage",
    "parse_jsonl",
    "write_jsonl",
    "curved_subset_select",
]


class TextInstance(NamedTuple):
    polygon: Contour
    ignore: bool = False
    id: str = ""


class AnnotatedImage(_Frozen):
    __slots__ = ("image_id", "width", "height", "instances")

    def __init__(self, image_id: str, width: int, height: int,
                 instances: tuple[TextInstance, ...] = ()) -> None:
        if width <= 0 or height <= 0:
            raise InvalidPolygon(
                f"image {image_id!r} needs positive dimensions, "
                f"got {width} x {height}"
            )
        super().__init__(image_id, width, height, tuple(instances))


def _instance_points(raw, lineno: int, width: int, height: int) -> tuple[Contour, int]:
    pts = _point_array(_number_list(raw, "points", lineno), lineno)
    clamped = np.clip(pts, [0.0, 0.0], [float(width), float(height)])
    moved = int(np.count_nonzero(np.any(clamped != pts, axis=1)))
    return Contour(clamped), moved


def parse_jsonl(lines) -> tuple[list[AnnotatedImage], int]:
    """Parse JSON-lines annotations.  Returns (images, clamped point count).

    Raises ParseError / InvalidPolygon with the offending 1-based line number,
    also for a width or height above MAX_IMAGE_SIDE and for an instance of
    more than MAX_VERTICES points.
    """
    seen_images: set[str] = set()
    clamped_total = 0

    def parse(obj: dict, lineno: int) -> AnnotatedImage:
        nonlocal clamped_total
        try:
            image_id = obj["image_id"]
            width = obj["width"]
            height = obj["height"]
            raw_instances = obj["instances"]
        except KeyError as exc:
            raise ParseError(f"missing field {exc.args[0]!r}", line=lineno) from None
        if not isinstance(image_id, str) or not image_id:
            raise ParseError("image_id must be a non-empty string", line=lineno)
        if image_id in seen_images:
            raise ParseError(f"duplicate image_id {image_id!r}", line=lineno)
        seen_images.add(image_id)
        # type() is int: JSON true and false are bools, which isinstance counts as int
        if type(width) is not int or type(height) is not int:
            raise ParseError("width and height must be integers", line=lineno)
        if not (0 < width <= MAX_IMAGE_SIDE and 0 < height <= MAX_IMAGE_SIDE):
            raise ParseError(
                f"width and height must lie in 1..{MAX_IMAGE_SIDE}, got {width} x {height}", line=lineno
            )
        if not isinstance(raw_instances, list):
            raise ParseError("instances must be a list", line=lineno)
        instances = []
        seen_ids = set()
        for idx, inst in enumerate(raw_instances):
            if not isinstance(inst, dict) or "points" not in inst:
                raise ParseError(f"instance {idx} needs a points field", line=lineno)
            contour, moved = _instance_points(inst["points"], lineno, width, height)
            clamped_total += moved
            inst_id, ignore = inst.get("id", f"i{idx}"), inst.get("ignore", False)
            if not isinstance(inst_id, str):
                raise ParseError(f"instance {idx}: id must be a string", line=lineno)
            if not isinstance(ignore, bool):
                raise ParseError(f"instance {idx}: ignore must be true or false", line=lineno)
            if inst_id in seen_ids:
                raise ParseError(f"duplicate instance id {inst_id!r}", line=lineno)
            seen_ids.add(inst_id)
            instances.append(TextInstance(polygon=contour, ignore=ignore, id=inst_id))
        return AnnotatedImage(image_id, width, height, tuple(instances))

    images = _json_records(lines, "annotation", parse)
    return images, clamped_total


def write_jsonl(images, fmt=lambda x: x) -> list[str]:
    """Serialize AnnotatedImages back to JSON-lines, through serialize's JSON
    text step.  `fmt` maps floats before dumping (callers pass round9, the
    9-significant-digit formatter)."""
    lines = []
    for img in images:
        obj = {
            "image_id": img.image_id,
            "width": img.width,
            "height": img.height,
            "instances": [
                {
                    "id": inst.id,
                    "ignore": inst.ignore,
                    "points": [fmt(v) for v in inst.polygon.flat()],
                }
                for inst in img.instances
            ],
        }
        lines.append(_json_text(obj))
    return lines


def curved_subset_select(
    instances, threshold: float = DEFAULT_SUBSET_THRESHOLD
) -> list[TextInstance]:
    """Keep instances whose outline is genuinely curved.

    An instance qualifies when deleting some single vertex, other than the
    first or last (annotation head and tail), changes the polygon area by at
    least `threshold` relative.  Polygons with fewer than 4 vertices or zero
    area never qualify.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    selected = []
    for inst in instances:
        m = len(inst.polygon)
        if m < 4:
            continue
        try:
            worst = max(_removal_deltas(inst.polygon.vertices, range(1, m - 1)))
        except DegenerateContour:
            continue
        if worst >= threshold:
            selected.append(inst)
    return selected
