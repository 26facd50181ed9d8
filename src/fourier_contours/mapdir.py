"""Map directories: one image's tensor maps on disk, as `fctool targets`
writes them and `decode` and `loss` read them.

A map directory holds meta.json, one JSON line, and per level the tensors
<name>_<key>.fct: tr, tcr, reg, weight and care for targets, tr, tcr and reg
for a prediction.  Each has the (ceil(height / stride), ceil(width / stride))
cells meta.json gives, reg with its channels first.  The readers check every
meta.json field and shape they use, and name directory, level and key in
their errors.
"""

from __future__ import annotations

import json
from pathlib import Path

from .decode import LevelPrediction, PredictionMaps
from .errors import ParseError
from .serialize import json_line, read_tensor, write_tensor
from .targets import LevelTargets, TargetMaps, cell_count

__all__ = ["write_target_maps", "map_dirs", "read_map_meta", "read_prediction_maps", "read_loss_levels"]

# a target level's tensors, by key; a prediction level has the first three
KEYS = ("tr", "tcr", "reg", "weight", "care")
# what each tensor's values are, for read_tensor's finiteness error
_VALUES = {"tr": "tr probabilities", "tcr": "tcr probabilities", "reg": "regression channels", "care": "care flags"}


def write_target_maps(map_dir, maps: TargetMaps, n: int, shrink_factor: float) -> None:
    """Write one image's target maps, generated at n samples and this shrink
    factor, as the map directory map_dir."""
    map_dir = Path(map_dir)
    map_dir.mkdir(parents=True, exist_ok=True)
    levels = []
    for name, lt in maps.levels.items():
        for key, arr in zip(KEYS, (lt.tr, lt.tcr, lt.regression, lt.weight, lt.care)):
            write_tensor(map_dir / f"{name}_{key}.fct", arr)
        spec = lt.spec
        levels.append({"name": name, "stride": spec.stride, "low": spec.low, "high": spec.high,
                       "height": int(lt.shape[0]), "width": int(lt.shape[1])})
    meta = {"image_id": maps.image_id, "width": maps.width, "height": maps.height, "k": maps.k, "n": n,
            "shrink_factor": shrink_factor, "levels": levels, "skipped": [list(s) for s in maps.skipped]}
    (map_dir / "meta.json").write_text(json_line(meta) + "\n", encoding="utf-8", newline="\n")


def map_dirs(root) -> list[Path]:
    """The map directories under root, those that hold a meta.json, sorted."""
    base = Path(root)
    if not base.is_dir():
        raise ParseError(f"not a directory: {root}")
    dirs = sorted(p for p in base.iterdir() if p.is_dir() and (p / "meta.json").is_file())
    if not dirs:
        raise ParseError(f"no map directories with meta.json under {root}")
    return dirs


def read_map_meta(map_dir) -> dict:
    """A map directory's meta.json, checked for every field the readers use."""
    path = Path(map_dir) / "meta.json"
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


def _read_level(map_dir: Path, meta: dict, entry: dict, keys, like: dict | None = None) -> dict:
    """One level's tensors by key, each of the shape meta.json gives; with
    `like`, each must also have its target's shape."""
    name, stride = entry["name"], entry["stride"]
    hw = (cell_count(meta["height"], stride), cell_count(meta["width"], stride))
    level = {key: read_tensor(map_dir / f"{name}_{key}.fct", _VALUES[key]) for key in keys}
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
    """A prediction level under LevelPrediction's checks, which name the level."""
    name = entry["name"]
    level = _read_level(map_dir, meta, entry, KEYS[:3], like)
    try:
        return LevelPrediction(name, entry["stride"], level["tr"], level["tcr"], level["reg"])
    except ValueError as exc:
        raise ParseError(f"{map_dir.name}/{name}: {exc}") from None


def read_prediction_maps(map_dir) -> PredictionMaps:
    """The predictions of one map directory, every level in meta.json's order."""
    map_dir = Path(map_dir)
    meta = read_map_meta(map_dir)
    levels = {entry["name"]: _read_prediction(map_dir, meta, entry) for entry in meta["levels"]}
    return PredictionMaps(meta["image_id"], meta["width"], meta["height"], levels)


def read_loss_levels(gt_dir, pred_dir):
    """(LevelTargets, LevelPrediction) of each level of a target directory and
    its prediction directory, read lazily, one level at a time, as
    losses.image_loss scores them.  The prediction's meta.json must give the
    target's image_id and level names and strides, in order, and each of its
    tensors the target's shape.  The targets carry neither spec nor weight
    (None), which no loss reads."""
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    if not (pred_dir / "meta.json").is_file():
        raise ParseError(f"missing prediction directory {pred_dir}")
    gt_meta, pred_meta = read_map_meta(gt_dir), read_map_meta(pred_dir)
    levels = [[(e["name"], e["stride"]) for e in meta["levels"]] for meta in (gt_meta, pred_meta)]
    if pred_meta["image_id"] != gt_meta["image_id"] or levels[0] != levels[1]:
        raise ParseError(
            f"prediction directory {pred_dir}: image_id and levels (name, stride) do not match the target's"
        )
    for entry in gt_meta["levels"]:
        target = _read_level(gt_dir, gt_meta, entry, ("tr", "tcr", "reg", "care"))
        pred = _read_prediction(pred_dir, pred_meta, entry, like=target)
        yield LevelTargets(None, target["tr"], target["tcr"], target["reg"], None, target["care"]), pred
