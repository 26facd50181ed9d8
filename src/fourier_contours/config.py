"""The operating point and the runtime configuration.

The one home of every stage's DEFAULT_* value (README.md tables them), the
MAX_* caps on values that size allocations, LevelSpec and its cell grid, and
the file-name-token rule; the modules that use one import it from here, and
this leaf imports only errors and records.  The configuration is one flat
key = value file plus command-line overrides, no environment variables;
unknown keys are rejected and every number must be finite.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import ConfigError
from .records import _Frozen

__all__ = ["Config", "load_config", "apply_overrides", "LevelSpec", "DEFAULT_DEGREE", "DEFAULT_SAMPLES",
           "DEFAULT_RECON_POINTS", "DEFAULT_LEVELS", "DEFAULT_SHRINK"]

DEFAULT_DEGREE = 5
DEFAULT_SAMPLES = 400
DEFAULT_RECON_POINTS = 50
DEFAULT_SHRINK = 0.3
DEFAULT_SCORE_THRESH = 0.3
DEFAULT_NMS_IOU = 0.1
DEFAULT_EVAL_IOU = 0.5
DEFAULT_SUBSET_THRESHOLD = 0.07
DEFAULT_SUPERSAMPLE = 4

# Largest n accepted: fidelity's n x n DFT basis takes 256 MiB at 4096.
MAX_SAMPLES = 4096
# Largest n' accepted: decode holds all candidates' n' points, 16 KiB each at 1024.
MAX_RECON_POINTS = 1024
# Largest supersample accepted: a span record holds s rows per pixel of height.
MAX_SUPERSAMPLE = 16
# Largest image width or height accepted, and largest level stride: the
# default levels' target maps of one image this size take about 1 GB.
MAX_IMAGE_SIDE = 16384
# Most points one instance may have; shrink_polygon's simplicity test is quadratic.
MAX_VERTICES = 1024
# The regression weight lambda: the paper's, and the largest accepted.
DEFAULT_LAMBDA = 1.0
MAX_LAMBDA = 1000.0

# The characters of a file-name token; cli replaces any other in an id.
NAME_CHARS = "A-Za-z0-9._-"


def distinct_tokens(names) -> bool:
    """Whether the names are distinct nonempty runs of NAME_CHARS."""
    return len(set(names)) == len(names) and all(re.fullmatch(f"[{NAME_CHARS}]+", n) for n in names)


class LevelSpec(_Frozen):
    """One pyramid level: name, stride in pixels, inclusive scale range."""

    __slots__ = ("name", "stride", "low", "high")

    def __init__(self, name: str, stride: int, low: float, high: float) -> None:
        if not 1 <= stride <= MAX_IMAGE_SIDE:
            raise ValueError(f"stride must lie in 1..{MAX_IMAGE_SIDE}, got {stride}")
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(
                f"scale range must satisfy 0 <= low < high <= 1, got [{low}, {high}]"
            )
        super().__init__(name, stride, low, high)


DEFAULT_LEVELS = (LevelSpec("P3", 8, 0.0, 0.4), LevelSpec("P4", 16, 0.3, 0.7), LevelSpec("P5", 32, 0.6, 1.0))


def cell_count(side: int, stride: int) -> int:
    """Cells of a level's grid along an image side: the side in whole strides,
    rounded up.  Decode's maps and eval's bound on detections cover that many."""
    return -(-side // stride)


def cell_centers(cells: int, stride: int) -> np.ndarray:
    """Image coordinates (g + 0.5) * stride of the cells g < `cells` of a side."""
    return (np.arange(cells) + 0.5) * stride


class Config(NamedTuple):
    k: int = DEFAULT_DEGREE
    n: int = DEFAULT_SAMPLES
    n_prime: int = DEFAULT_RECON_POINTS
    lam: float = DEFAULT_LAMBDA
    shrink_factor: float = DEFAULT_SHRINK
    levels: tuple[LevelSpec, ...] = DEFAULT_LEVELS
    score_thresh: float = DEFAULT_SCORE_THRESH
    nms_iou: float = DEFAULT_NMS_IOU
    eval_iou: float = DEFAULT_EVAL_IOU
    subset_threshold: float = DEFAULT_SUBSET_THRESHOLD
    iou_supersample: int = DEFAULT_SUPERSAMPLE

    def validate(self) -> "Config":
        for key, attr in _KEYS.items():
            if _TYPES[attr] is float and not math.isfinite(getattr(self, attr)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, attr)}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if 2 * self.k + 1 > self.n:
            raise ConfigError(f"n = {self.n} too small for k = {self.k} (need 2k + 1 <= n)")
        if self.n > MAX_SAMPLES:
            raise ConfigError(f"n must be <= {MAX_SAMPLES}, got {self.n}")
        if not 3 <= self.n_prime <= MAX_RECON_POINTS:
            raise ConfigError(f"n_prime must lie in [3, {MAX_RECON_POINTS}], got {self.n_prime}")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ConfigError(f"shrink_factor must lie in (0, 1), got {self.shrink_factor}")
        if not 0.0 < self.score_thresh < 1.0:
            raise ConfigError(f"score_thresh must lie in (0, 1), got {self.score_thresh}")
        if not 0.0 < self.nms_iou < 1.0:
            raise ConfigError(f"nms_iou must lie in (0, 1), got {self.nms_iou}")
        if not 0.0 < self.eval_iou <= 1.0:
            raise ConfigError(f"eval_iou must lie in (0, 1], got {self.eval_iou}")
        if self.subset_threshold < 0.0:
            raise ConfigError(f"subset_threshold must be >= 0, got {self.subset_threshold}")
        if not 0.0 <= self.lam <= MAX_LAMBDA:
            raise ConfigError(f"lambda must lie in [0, {MAX_LAMBDA:g}], got {self.lam}")
        if not 1 <= self.iou_supersample <= MAX_SUPERSAMPLE:
            raise ConfigError(f"iou_supersample must lie in [1, {MAX_SUPERSAMPLE}], got {self.iou_supersample}")
        if not self.levels:
            raise ConfigError("need at least one pyramid level")
        strides = [spec.stride for spec in self.levels]
        if sorted(strides) != strides or len(set(strides)) != len(strides):
            raise ConfigError(f"level strides must be strictly ascending, got {strides}")
        if not distinct_tokens(names := [spec.name for spec in self.levels]):
            raise ConfigError(f"level names must be distinct file-name tokens ([{NAME_CHARS}]+), got {names}")
        # instance scales lie in [0, 1]; sorted by low, closed ranges chain until a gap
        reach = 0.0
        for spec in sorted(self.levels, key=lambda spec: spec.low):
            reach = max(reach, spec.high) if spec.low <= reach else reach
        if reach < 1.0:
            end = min((spec.low for spec in self.levels if spec.low > reach), default=1.0)
            raise ConfigError(f"level scale ranges must cover [0, 1]; no level covers {reach:g} to {end:g}")
        return self

    def check_degree(self, degree: int) -> int:
        """degree, when n samples give its 2K + 1 coefficients; a ConfigError otherwise."""
        if 2 * degree + 1 > self.n:
            raise ConfigError(f"degree {degree} too large for n = {self.n}")
        return degree

    def to_dict(self) -> dict:
        """Every key, in field order, under its configuration-file name."""
        out = {key: getattr(self, attr) for key, attr in _KEYS.items()}
        out["levels"] = ",".join(f"{s.name}:{s.stride}:{s.low:g}:{s.high:g}" for s in self.levels)
        return out


# configuration key -> Config field: lambda is a Python keyword, so its field is lam
_KEYS = {("lambda" if name == "lam" else name): name for name in Config._fields}
_TYPES = get_type_hints(Config)


def parse_levels(raw: str) -> tuple[LevelSpec, ...]:
    """Parse "P3:8:0:0.4,P4:16:0.3:0.7,P5:32:0.6:1" into LevelSpecs."""
    specs = []
    for part in raw.split(","):
        fields = part.strip().split(":")
        if len(fields) != 4:
            raise ConfigError(f"bad level spec {part!r}, want name:stride:low:high")
        name, stride, low, high = fields
        try:
            specs.append(LevelSpec(name, int(stride), float(low), float(high)))
        except ValueError as exc:
            raise ConfigError(f"bad level spec {part!r}: {exc}") from None
    return tuple(specs)


def _apply(cfg: Config, key: str, raw: str) -> Config:
    key = key.strip()
    raw = raw.strip()
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    if key == "levels":
        return cfg._replace(levels=parse_levels(raw))
    kind = _TYPES[_KEYS[key]]  # int or float
    try:
        return cfg._replace(**{_KEYS[key]: kind(raw)})
    except ValueError:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {raw!r}") from None


def load_config(path) -> Config:
    cfg = Config()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg = _apply(cfg, key, raw)
    return cfg.validate()


def apply_overrides(cfg: Config, pairs) -> Config:
    """Apply key=value strings from the command line."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} must look like key=value")
        key, raw = pair.split("=", 1)
        cfg = _apply(cfg, key, raw)
    return cfg.validate()
