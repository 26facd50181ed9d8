"""Binary tensor files and deterministic text formatting.

Tensor file layout (all little-endian):

    bytes 0..3   magic "FCT1"
    bytes 4..7   rank r as uint32, 1 <= r <= 4
    next 4 * r   dimensions as uint32
    rest         float32 payload, row-major, prod(dims) values

Text outputs format every float with 9 significant digits.  Formatted values
are re-parsed before JSON serialization so json.dumps prints the shortest
round-trip form, which is stable across platforms.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ParseError

__all__ = ["write_tensor", "read_tensor"]

MAGIC = b"FCT1"
MAX_RANK = 4


def write_tensor(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ValueError(f"tensor rank must be 1..{MAX_RANK}, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_tensor(path, what: str = "values") -> np.ndarray:
    """The tensor of a .fct file.  Its float32 payload must be finite, checked
    before any cast, so no NaN bit pattern reaches numpy's casts; `what` names
    the values in that error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r}, want {MAGIC!r}")
    if len(blob) < 8:
        raise ParseError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if not 1 <= rank <= MAX_RANK:
        raise ParseError(f"{path}: rank {rank} outside 1..{MAX_RANK}")
    if len(blob) < 8 + 4 * rank:
        raise ParseError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    count = int(np.prod(dims, dtype=np.int64))
    payload = blob[8 + 4 * rank :]
    if len(payload) != 4 * count:
        raise ParseError(
            f"{path}: payload holds {len(payload) // 4} float32 values, "
            f"dims {dims} require {count}"
        )
    arr = np.frombuffer(payload, dtype="<f4", count=count).reshape(dims)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: {what} must be finite")
    return arr.astype(np.float32)


def fmt9(x: float) -> str:
    """Fixed text form: 9 significant digits."""
    return f"{float(x):.9g}"


def round9(x: float) -> float:
    """Float rounded through the 9-digit text form, so its repr (what
    json.dumps prints) never exceeds 9 significant digits."""
    return float(fmt9(x))


def _rounded(obj):
    if isinstance(obj, float):
        return round9(obj)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def json_line(obj) -> str:
    """Deterministic single-line JSON with 9-significant-digit floats."""
    return json.dumps(_rounded(obj), separators=(",", ":"), allow_nan=False)


def _json_records(lines, what: str, parse) -> list:
    """parse(obj) of each non-blank JSON line, in order.  A line that is not
    JSON or that parse rejects raises ParseError naming the line."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {what} record: {exc}", line=lineno) from None
    return records
