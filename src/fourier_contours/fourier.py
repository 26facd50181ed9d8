"""Fourier signatures of closed contours.

A closed contour is treated as a periodic complex function f(t) = x(t) + i y(t)
with f(t) = f(t + 1).  From n equidistant samples z_j = f(j / n) the complex
coefficient of harmonic k is

    c_k = (1 / n) * sum_j z_j * exp(-2 pi i k j / n)

computed by direct summation in a fixed order, never via an FFT, so results
are bit-identical across runs and thread counts.  Each exp(-+2 pi i k j / n)
basis depends only on its shape, so it is kept, read-only, in a cache shared
by every call and thread, one of each kind (forward, inverse, residues): a
hit takes no lock, and a miss builds under one lock and replaces its kind's
basis.  The degree-K signature keeps k in [-K, K]; c_0 is the contour
center, and the flat real layout interleaves real and imaginary parts from
k = -K upward:

    [u_-K, v_-K, ..., u_0, v_0, ..., u_K, v_K]      length 2 * (2K + 1)
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_DEGREE, DEFAULT_RECON_POINTS, DEFAULT_SAMPLES, DEFAULT_SUPERSAMPLE
from .contours import Contour, ResampledContour, _cuts
from .errors import ChannelCountMismatch, DegreeTooLarge, InvalidPolygon, NonFinite, ParseError
from .records import _Frozen
from .serialize import _json_records, _number_list, _record_lines

__all__ = [
    "FourierSignature",
    "fourier_coefficients",
    "embed",
    "embed_many",
    "parse_signatures",
    "reconstruct",
    "reconstruct_many",
    "recenter",
    "truncation_l2_error",
    "truncation_l2_errors",
    "DegreeFit",
    "fit_by_degree",
    "flat_to_coeffs",
    "coeffs_to_flat",
    "evaluate_series",
]

# A signature's |u_k| and |v_k| stay within this over 2K + 1: each of the
# 2K + 1 terms evaluate_series sums is then at most 2 max(|u_k|, |v_k|), and
# no sum comes near the largest float.
_SERIES_LIMIT = float(np.finfo(np.float64).max) / 4


class FourierSignature(_Frozen):
    """Complex coefficients c_-K .. c_K of one contour.  coeffs[j] holds the
    harmonic k = j - K; the center sits at coeffs[K]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray) -> None:
        arr = np.array(coeffs, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size % 2 == 0:
            raise ChannelCountMismatch(
                f"signature needs an odd number of coefficients, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFinite("signature coefficients must be finite")
        if np.abs(arr.view(np.float64)).max() > _SERIES_LIMIT / arr.size:
            raise NonFinite("signature coefficients too large: the series would overflow")
        arr.setflags(write=False)
        super().__init__(arr)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def c0(self) -> complex:
        return complex(self.coeffs[self.degree])

    @property
    def flat(self) -> np.ndarray:
        return coeffs_to_flat(self.coeffs)

    @classmethod
    def from_flat(cls, flat) -> "FourierSignature":
        return cls(flat_to_coeffs(flat))


def flat_to_coeffs(flat) -> np.ndarray:
    """Interleaved real layout -> complex coefficients (last axis 2K + 1)."""
    arr = np.asarray(flat, dtype=np.float64)
    m = arr.shape[-1] if arr.ndim else 0  # a scalar has no channels
    if m % 2 or (m // 2) % 2 == 0:
        raise ChannelCountMismatch(
            f"flat signature length must be 2 * (2K + 1), got {m}"
        )
    # 1j * inf is nan + inf j: a non-finite value stays non-finite, for the
    # caller's finiteness check to report, and raises no numpy warning
    with np.errstate(invalid="ignore"):
        return arr[..., 0::2] + 1j * arr[..., 1::2]


def coeffs_to_flat(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    out = np.empty(arr.shape[:-1] + (2 * arr.shape[-1],), dtype=np.float64)
    out[..., 0::2] = arr.real
    out[..., 1::2] = arr.imag
    return out


def _sample_array(points) -> np.ndarray:
    if isinstance(points, ResampledContour):
        return points.points
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) samples, got shape {arr.shape}")
    return arr


# (sign, degree is None) -> (n, degree, basis); written only under _BASIS_LOCK
_BASES: dict[tuple, tuple] = {}
_BASIS_LOCK = threading.Lock()


def _dft_basis(n: int, degree: int | None, sign: int) -> np.ndarray:
    """The read-only basis exp(sign * 2 pi i k j / n) for j = 0 .. n - 1 and k
    in -degree .. degree, or in 0 .. n - 1 (every DFT residue) when degree is
    None.  sign -1 gives the forward (len(k), n) array, sign +1 the inverse
    (n, len(k)) array, both C-contiguous.  Elements are computed one by one,
    so the centre columns K - d .. K + d of the degree-K inverse basis hold
    the degree-d basis' bits, and _series over that slice gives
    evaluate_series' bits.  _BASES keeps the last basis asked for of each
    kind (forward, inverse, residues); a hit takes no lock, and a miss builds
    under one lock and replaces it, so threads that miss the same basis at
    once build it once: the later ones wait and take the first one's array."""
    kind = (sign, degree is None)
    entry = _BASES.get(kind)
    if entry is None or entry[0] != n or entry[1] != degree:
        with _BASIS_LOCK:
            entry = _BASES.get(kind)
            if entry is None or entry[0] != n or entry[1] != degree:
                entry = _BASES[kind] = (n, degree, _build_basis(n, degree, sign))
    return entry[2]


def _build_basis(n: int, degree: int | None, sign: int) -> np.ndarray:
    """_dft_basis' array, built in row blocks of about
    contours._BATCH_ELEMENTS, so the build holds little beyond the basis
    itself."""
    t = np.arange(n) / n
    ks = np.arange(n) if degree is None else np.arange(-degree, degree + 1)
    rows, cols, w = (ks, t, -2j * np.pi) if sign < 0 else (t, ks, 2j * np.pi)
    basis = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for i, j in _cuts(np.full(len(rows), len(cols))):
        basis[i:j] = np.exp(w * np.outer(rows[i:j], cols))
    basis.setflags(write=False)
    return basis


def fourier_coefficients(points, k: int) -> FourierSignature:
    """Degree-k signature of equidistant samples by direct summation.

    Requires 2k + 1 <= n so every kept harmonic is a distinct DFT residue.
    This is _coefficient_rows with a batch of one.
    """
    return FourierSignature(_coefficient_rows(_sample_array(points)[None], k)[0])


def _coefficient_rows(points: np.ndarray, k: int) -> np.ndarray:
    """The degree-k coefficients (N, 2k + 1) of each (n, 2) sample block in
    points (N, n, 2), as fourier_coefficients sums them: (N, 2k + 1, n)
    basis products in blocks of about contours._BATCH_ELEMENTS, each row
    summed on its own, so every value equals the one-contour value bit for
    bit."""
    n = points.shape[1]
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if 2 * k + 1 > n:
        raise DegreeTooLarge(f"degree {k} needs 2k + 1 <= {n} samples")
    basis = _dft_basis(n, k, -1)
    z = points[..., 0] + 1j * points[..., 1]
    out = np.empty((len(points), 2 * k + 1), dtype=np.complex128)
    for i, j in _cuts(np.full(len(points), basis.size)):
        out[i:j] = (basis * z[i:j, None, :]).sum(axis=2) / n
    return out


def embed(c: Contour, k: int = DEFAULT_DEGREE, n: int = DEFAULT_SAMPLES) -> FourierSignature:
    """Resample the contour to n equidistant points and take its degree-k
    signature.  The resampling fixes start point, direction, and speed, so
    congruent contours with different vertex lists embed identically.  This
    is embed_many with a batch of one, which pays the batch's fixed costs;
    pass many contours to one embed_many call, as the commands do per image."""
    return FourierSignature(embed_many([c], k, n)[0])


def _raise_first(errors) -> None:
    for err in errors:
        if err is not None:
            raise err


def embed_many(contours, k: int = DEFAULT_DEGREE, n: int = DEFAULT_SAMPLES) -> np.ndarray:
    """The degree-k coefficients (N, 2k + 1) of each contour, as embed takes
    them, from one _embed_many call; raises the first contour's error."""
    coeffs, errors = _embed_many([c.vertices for c in contours], k, n)
    _raise_first(errors)
    return coeffs


def _embed_many(verts, k: int, n: int) -> tuple[np.ndarray, list]:
    """embed of each (m_i, 2) vertex array, as (coeffs, errors): coeffs
    (N, 2k + 1), and errors[i] the GeometryError polygon i raises, or None,
    where its coefficients are zeros.  One _resample_many and one
    _coefficient_rows call."""
    # geometry is imported here and in fit_by_degree, not at the top, so
    # reconstruct and loss do not compile it.  fctool's worker threads run
    # both, and before Python 3.12 a lazy module's first load races across
    # threads; every command that calls them parses annotations first, in its
    # main thread, and annotations' import of _removal_deltas loads geometry.
    from .geometry import _resample_many

    points, errors = _resample_many(verts, n)
    good = np.array([err is None for err in errors], dtype=bool)
    coeffs = np.zeros((len(verts), 2 * max(k, 0) + 1), dtype=np.complex128)
    if good.any():
        coeffs[good] = _coefficient_rows(points[good], k)
    return coeffs, errors


def signature_lines(image_id: str, instances, coeffs: np.ndarray) -> list[str]:
    """The JSON lines, as parse_signatures reads them, of the signatures
    coeffs (N, 2K + 1) of image_id's instances (each with .id and .ignore),
    in the flat layout, the degree K read from the width of coeffs."""
    k = (coeffs.shape[-1] - 1) // 2
    heads = [{"image_id": image_id, "instance_id": inst.id, "k": k, "ignore": inst.ignore} for inst in instances]
    return _record_lines(heads, "coeffs", coeffs_to_flat(coeffs))


def reconstruction_lines(records, points: np.ndarray) -> list[str]:
    """The JSON line of each reconstruction points[i] (n', 2) of
    parse_signatures' record records[i]: its ids, then its flat points."""
    heads = [{"image_id": image_id, "instance_id": instance_id} for image_id, instance_id, _ in records]
    return _record_lines(heads, "points", points)


def parse_signatures(lines) -> list[tuple]:
    """(image_id, instance_id, FourierSignature) of each signature record, the
    JSON lines signature_lines writes; a bad line raises ParseError naming it.
    Records of one length are checked as one block: one flat_to_coeffs call
    and one finiteness and magnitude check, each signature's coefficients a
    row of it.  Where a line or the block fails, or the lengths differ, every
    record is parsed on its own, so an error names the first bad line as
    that record's own check words it."""
    lines = list(lines)
    try:
        fields = _json_records(lines, "signature", _signature_fields)
    except ParseError:
        fields = []
    sigs = _signature_block([flat for _, _, flat in fields])
    if sigs is None:
        return _json_records(lines, "signature", _signature_record)
    return [(image_id, instance_id, sig) for (image_id, instance_id, _), sig in zip(fields, sigs)]


def _signature_fields(obj: dict, lineno: int) -> tuple:
    """(image_id, instance_id, flat coefficient list) of one signature record."""
    image_id, instance_id = obj["image_id"], obj["instance_id"]
    if not isinstance(image_id, str) or not isinstance(instance_id, str):
        raise TypeError("image_id and instance_id must be strings")
    return image_id, instance_id, _number_list(obj["coeffs"], "coeffs")


def _signature_record(obj: dict, lineno: int) -> tuple:
    image_id, instance_id, flat = _signature_fields(obj, lineno)
    return image_id, instance_id, FourierSignature.from_flat(flat)


def _signature_block(flats: list) -> list | None:
    """The FourierSignature of each flat coefficient list, all of one length,
    their coefficients the rows of one read-only array that passed
    FourierSignature's checks at once; None where there are no lists, the
    lengths differ or any check fails."""
    if len({len(flat) for flat in flats}) != 1:
        return None
    try:
        coeffs = flat_to_coeffs(flats)
    except (ChannelCountMismatch, OverflowError):  # OverflowError: an integer beyond the float range
        return None
    if not np.isfinite(coeffs).all() or np.abs(coeffs.view(np.float64)).max() > _SERIES_LIMIT / coeffs.shape[1]:
        return None
    coeffs.setflags(write=False)
    sigs = []
    for row in coeffs:
        sig = object.__new__(FourierSignature)  # checked above: skip __init__'s copy and checks
        _Frozen.__init__(sig, row)
        sigs.append(sig)
    return sigs


def evaluate_series(coeffs, n_points: int, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate sum_k c_k exp(2 pi i k t) at t = j / n_points, j = 0 .. n_points - 1.

    coeffs may be batched: shape (..., 2K + 1) gives output (..., n_points),
    written into `out` when given: a C-contiguous complex128 array of that
    shape.  The rows are taken in blocks whose (rows, n_points, 2K + 1)
    products hold about contours._BATCH_ELEMENTS elements, each block copied
    to C order first and each row summed on its own, so no value depends on
    where the blocks fall or on the memory layout of coeffs, and the working
    memory beyond the output does not grow with the number of rows.
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape[-1] % 2 == 0:
        raise ChannelCountMismatch(
            f"coefficient axis must have odd length, got {arr.shape[-1]}"
        )
    shape = arr.shape[:-1] + (n_points,)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}")
    rows = arr.reshape(-1, arr.shape[-1])
    # out.reshape is a view: out is C-contiguous
    _series(rows, _dft_basis(n_points, (arr.shape[-1] - 1) // 2, 1), out.reshape(len(rows), n_points))
    return out


def _series(rows: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """evaluate_series' blocked product of rows (R, 2K + 1) and basis (n', 2K + 1), into out (R, n')."""
    for i, j in _cuts(np.full(len(rows), basis.size)):
        out[i:j] = (np.ascontiguousarray(rows[i:j])[:, None, :] * basis).sum(axis=-1)
    return out


def reconstruct(s: FourierSignature, n_points: int = DEFAULT_RECON_POINTS) -> Contour:
    """Evaluate the truncated series at n_points equidistant parameters.
    This is reconstruct_many with a batch of one."""
    return Contour(reconstruct_many([s], n_points)[0])


def reconstruct_many(signatures, n_points: int = DEFAULT_RECON_POINTS) -> np.ndarray:
    """The points (N, n_points, 2) of each signature's reconstruction, from
    one evaluate_series call over their stacked coefficients, so row i holds
    reconstruct(signatures[i])'s bits.  The signatures must share one degree
    (ChannelCountMismatch otherwise); the whole block's finiteness is checked
    once."""
    if n_points < 3:
        raise ValueError(f"need n_points >= 3, got {n_points}")
    sigs = list(signatures)
    if not sigs:
        return np.empty((0, n_points, 2))
    degrees = {s.degree for s in sigs}
    if len(degrees) > 1:
        raise ChannelCountMismatch(f"signatures must share one degree, got degrees {sorted(degrees)}")
    z = evaluate_series(np.stack([s.coeffs for s in sigs]), n_points)
    # the points' (x, y) pairs are the series' (real, imag) pairs in memory
    points = z.view(np.float64).reshape(len(sigs), n_points, 2)
    if not np.isfinite(points).all():
        raise InvalidPolygon("coordinates must be finite")
    return points


def recenter(s: FourierSignature, origin) -> FourierSignature:
    """Shift the coordinate origin to `origin`: only c_0 changes, by exactly
    -(origin.x + i origin.y)."""
    shift = complex(float(origin[0]), float(origin[1]))
    coeffs = np.array(s.coeffs, copy=True)
    coeffs[s.degree] -= shift
    return FourierSignature(coeffs)


def truncation_l2_error(points, k: int) -> float:
    """Mean squared point error of the degree-k reconstruction at the sample
    parameters; see truncation_l2_errors."""
    return truncation_l2_errors(points, [k])[0]


def truncation_l2_errors(points, degrees) -> list[float]:
    """Mean squared point error of the degree-k reconstruction at the sample
    parameters, for every k in `degrees`, from one n x n DFT, its products
    taken in row blocks of the basis of about contours._BATCH_ELEMENTS, and
    the direct check's in blocks of sample columns of the same size.

    Each value is computed two ways that must agree to 1e-9 relative:
    directly, and as the Parseval tail sum of |c_j|^2 over the discarded DFT
    residues.  The tail form is returned; it is accumulated over residues
    ordered by descending |frequency|, so the value is exactly non-increasing
    in k.
    """
    pts = _sample_array(points)
    n = pts.shape[0]
    degrees = [int(k) for k in degrees]
    for k in degrees:
        if 2 * k + 1 > n:
            raise DegreeTooLarge(f"degree {k} needs 2k + 1 <= {n} samples")
    z = pts[:, 0] + 1j * pts[:, 1]
    residues = np.arange(n)
    basis = _dft_basis(n, None, -1)
    coeffs = np.empty(n, dtype=np.complex128)
    for i, j in _cuts(np.full(n, n)):
        coeffs[i:j] = (basis[i:j] * z).sum(axis=1) / n
    signed = np.where(residues <= n // 2, residues, residues - n)

    # tail over |frequency| > k, accumulated from the highest frequency down;
    # larger k only truncates this prefix sum, hence exact monotonicity
    order = np.lexsort((-signed, -np.abs(signed)))
    power = np.abs(coeffs[order]) ** 2
    running = np.cumsum(power)
    scale = float(np.mean(np.abs(z) ** 2))
    out = []
    for k in degrees:
        discarded = int(np.count_nonzero(np.abs(signed) > k))
        tail = float(running[discarded - 1]) if discarded else 0.0

        kept = np.abs(signed) <= k
        recon = np.empty(n, dtype=np.complex128)
        for i, j in _cuts(np.full(n, 2 * k + 1)):  # blocks of sample columns
            recon[i:j] = (np.conj(basis[kept, i:j]).T * coeffs[kept]).sum(axis=1)
        direct = float(np.mean(np.abs(z - recon) ** 2))

        if abs(direct - tail) > 1e-9 * max(direct, tail) + 1e-14 * max(scale, 1.0):
            raise ArithmeticError(
                f"Parseval check failed at degree {k}: direct {direct!r} vs tail {tail!r}"
            )
        out.append(tail)
    return out


class DegreeFit(NamedTuple):
    """How well one contour's degree-k reconstruction fits it."""

    degree: int
    iou: float  # spans_iou of the contour and the reconstruction
    l2_error: float  # truncation_l2_errors' mean squared point error
    contour: Contour  # the reconstruction, at n_points parameters


def fit_by_degree(
    contours,
    degrees,
    n: int = DEFAULT_SAMPLES,
    n_points: int = DEFAULT_RECON_POINTS,
    supersample: int = DEFAULT_SUPERSAMPLE,
) -> list[list[DegreeFit]]:
    """The paper's fitting figures: per contour, one DegreeFit for each entry
    of `degrees`, in order.  One resample and transform of all contours at
    the largest degree, each degree's series from the centre columns of its
    coefficients and inverse basis, and one contour_spans_many call for the
    contours and all their reconstructions; raises the first contour's error."""
    from .geometry import _resample_many, contour_spans_many, spans_iou  # see _embed_many

    degrees = list(degrees)
    kmax = max(degrees)
    points, errors = _resample_many([c.vertices for c in contours], n)
    _raise_first(errors)
    full = _coefficient_rows(points, kmax)
    wide = _dft_basis(n_points, kmax, 1)
    cols = [slice(kmax - deg, kmax + deg + 1) for deg in degrees]
    series = [_series(full[:, c], wide[:, c], np.empty((len(full), n_points), dtype=np.complex128)) for c in cols]
    recons = [[Contour(np.stack([zd.real, zd.imag], axis=1)) for zd in zs] for zs in zip(*series)]
    # one record batch: the contours, then their reconstructions in order
    spans = contour_spans_many(list(contours) + [r for rs in recons for r in rs], supersample)
    recon_spans = iter(spans[len(points):])
    return [
        [
            DegreeFit(deg, spans_iou(own, next(recon_spans)), err, recon)
            for deg, err, recon in zip(degrees, truncation_l2_errors(samples, degrees), rs)
        ]
        for own, samples, rs in zip(spans, points, recons)
    ]
