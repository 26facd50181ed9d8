"""Binary tensor files and deterministic text formatting.

Tensor file layout (all little-endian):

    bytes 0..3   magic "FCT1"
    bytes 4..7   rank r as uint32, 1 <= r <= 4
    next 4 * r   dimensions as uint32
    rest         float32 payload, row-major, prod(dims) values

Text outputs format every float with 9 significant digits.  Formatted values
are re-parsed before JSON serialization so json.dumps prints the shortest
round-trip form, which is stable across platforms.  A block of floats is
rounded in a few array operations instead (_round9_array), to the same
floats: _record_lines, the writer of signature, reconstruction and detection
lines, rounds one block per image or run.  _json_text is the one JSON text step.

Every JSON-lines record is read through _json_records, and every flat point
list, of an annotation or a detection, through _point_array, which caps it
at config.MAX_VERTICES points.
"""

from __future__ import annotations

import json
import os
import stat
import struct

import numpy as np

from .config import MAX_VERTICES
from .errors import InvalidPolygon, ParseError

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
    the values in that error.  The payload is read straight into the
    returned array; a regular file's size is checked against the header's
    dimensions first, so a wrong header allocates nothing.  Other files, a
    pipe say, are read to their end."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise ParseError(f"{path}: bad magic {head[:4]!r}, want {MAGIC!r}")
        if len(head) < 8:
            raise ParseError(f"{path}: truncated header")
        (rank,) = struct.unpack_from("<I", head, 4)
        if not 1 <= rank <= MAX_RANK:
            raise ParseError(f"{path}: rank {rank} outside 1..{MAX_RANK}")
        packed = fh.read(4 * rank)
        if len(packed) < 4 * rank:
            raise ParseError(f"{path}: truncated dimension list")
        dims = struct.unpack(f"<{rank}I", packed)
        count = int(np.prod(dims, dtype=np.int64))
        st = os.fstat(fh.fileno())
        size = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else 4 * count
        if size == 4 * count:
            arr = np.empty(count, dtype="<f4")
            size = fh.readinto(memoryview(arr).cast("B"))
            if size == 4 * count:  # the payload must end the file
                size += len(fh.read())
    if size != 4 * count:
        raise ParseError(
            f"{path}: payload holds {size // 4} float32 values, "
            f"dims {dims} require {count}"
        )
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: {what} must be finite")
    return arr.reshape(dims).astype(np.float32, copy=False)


def fmt9(x: float) -> str:
    """Fixed text form: 9 significant digits."""
    return f"{float(x):.9g}"


def round9(x: float) -> float:
    """Float rounded through the 9-digit text form, so its repr (what
    json.dumps prints) never exceeds 9 significant digits."""
    return float(fmt9(x))


# 10^0 .. 10^22, every one an exact float64
_POW10 = 10.0 ** np.arange(23)


def _round9_array(x: np.ndarray) -> np.ndarray:
    """round9 of each value of a float64 array, bit for bit, from a few
    array operations.  |x| of exponent e = floor(log10 |x|) in -14 .. 30 is
    scaled to s = |x| 10^(8 - e) by one correctly rounded product or
    quotient with an exact power of ten.  Rounding is monotonic, and 1e8,
    1e9 and every half-integer between are floats, so where s lies strictly
    between 1e8 and 1e9 and on no half-integer, the exact scaled value lies
    strictly on the same side of each: e is right, and rint(s) is the
    9-digit mantissa m that fmt9 prints.  m and 10^|8 - e| are exact, so
    the one correctly rounded quotient or product m 10^(e - 8) is the float
    round9 parses.  Every other value (zero, a power of ten, an exact tie,
    an exponent out of range, a non-finite value) takes round9."""
    a = np.abs(x)
    with np.errstate(all="ignore"):  # log10 of 0, inf and nan
        k = 8 - np.floor(np.log10(a))
        fast = np.abs(k) <= 22
        p = _POW10[np.where(fast, np.abs(k), 0).astype(np.intp)]
        up = k >= 0
        s = np.where(up, a * p, a / p)
        fast &= (s > 1e8) & (s < 1e9) & (s - np.floor(s) != 0.5)
        m = np.rint(s)
        out = np.copysign(np.where(up, m / p, m * p), x)
    for i in np.flatnonzero(~fast):
        out.flat[i] = round9(x.flat[i])
    return out


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
    return _json_text(_rounded(obj))


def _json_text(obj) -> str:
    """json_line's text of obj, whose floats are rounded already: by
    round9, or a block of them by _round9_array."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _record_lines(heads, key, arrays) -> list[str]:
    """json_line of each record {**heads[i], key: arrays[i] flattened}, the
    arrays rounded by one _round9_array call over their concatenation, so
    each record's values are one row of that block.  The arrays may differ
    in size; no records give no lines."""
    sizes = [np.size(a) for a in arrays]
    if not sizes:
        return []
    block = _round9_array(np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)).tolist()
    stops = np.cumsum(sizes).tolist()
    return [
        _json_text({**_rounded(head), key: block[stop - size:stop]})
        for head, size, stop in zip(heads, sizes, stops)
    ]


def _json_records(lines, what: str, parse) -> list:
    """parse(obj, lineno) of each non-blank line's JSON object, in order.  A
    line that is no JSON object, or that parse rejects, raises ParseError
    naming the line: a bad `what` record, or parse's ParseError that names it."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            records.append(parse(obj, lineno))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {what} record: invalid JSON: {exc.msg}", line=lineno) from None
        # OverflowError: an integer beyond the float range, where a float is wanted
        except (KeyError, TypeError, ValueError, OverflowError, ParseError) as exc:
            if getattr(exc, "line", None) is not None:
                raise
            raise ParseError(f"bad {what} record: {exc}", line=lineno) from None
    return records


def _number_list(raw, what: str, lineno: int | None = None) -> list:
    """raw, when it is a flat JSON list of numbers; InvalidPolygon otherwise."""
    # type(): JSON true and false are bools, which isinstance counts as ints
    if not isinstance(raw, list) or not {*map(type, raw)} <= {int, float}:
        raise InvalidPolygon(f"{what} must be a flat list of numbers", line=lineno)
    return raw


def _point_array(values: list, lineno: int | None = None) -> np.ndarray:
    """(m, 2) points of a flat coordinate list, checked: even, 3..MAX_VERTICES
    points, finite.  The InvalidPolygon names lineno when given; without it,
    _json_records words the error as a bad record of its kind."""
    if len(values) % 2:
        raise InvalidPolygon(f"odd coordinate count {len(values)}", line=lineno)
    if not 3 <= len(values) // 2 <= MAX_VERTICES:
        raise InvalidPolygon(f"need 3 to {MAX_VERTICES} points, got {len(values) // 2}", line=lineno)
    pts = np.asarray(values, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise InvalidPolygon("coordinates must be finite", line=lineno)
    return pts
