"""Fourier signatures of closed contours.

A closed contour is treated as a periodic complex function f(t) = x(t) + i y(t)
with f(t) = f(t + 1).  From n equidistant samples z_j = f(j / n) the complex
coefficient of harmonic k is

    c_k = (1 / n) * sum_j z_j * exp(-2 pi i k j / n)

computed by direct summation in a fixed order, never via an FFT, so results
are bit-identical across runs and thread counts.  Each exp(-+2 pi i k j / n)
basis depends only on its shape, so it is built once and kept, read-only, in a
bounded cache shared by every call and thread.  The degree-K signature keeps
k in [-K, K]; c_0 is the contour center, and the flat real layout interleaves
real and imaginary parts from k = -K upward:

    [u_-K, v_-K, ..., u_0, v_0, ..., u_K, v_K]      length 2 * (2K + 1)
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .annotations import _number_list
from .errors import ChannelCountMismatch, DegreeTooLarge, NonFinite
from .geometry import DEFAULT_SUPERSAMPLE, Contour, ResampledContour, _Frozen, _cuts, _resample_many
from .geometry import contour_spans_many, spans_iou
from .serialize import _json_records

__all__ = [
    "FourierSignature",
    "fourier_coefficients",
    "embed",
    "embed_many",
    "parse_signatures",
    "reconstruct",
    "recenter",
    "truncation_l2_error",
    "truncation_l2_errors",
    "DegreeFit",
    "fit_by_degree",
    "flat_to_coeffs",
    "coeffs_to_flat",
    "evaluate_series",
    "DEFAULT_DEGREE",
    "DEFAULT_SAMPLES",
    "DEFAULT_RECON_POINTS",
]

DEFAULT_DEGREE = 5
DEFAULT_SAMPLES = 400
DEFAULT_RECON_POINTS = 50

# Largest n accepted: fidelity's n x n DFT basis takes 256 MiB at 4096.
MAX_SAMPLES = 4096
# Largest n' accepted: decode holds all candidates' n' points, 16 KiB each at 1024.
MAX_RECON_POINTS = 1024

# A signature's |u_k| and |v_k| stay within this over 2K + 1: each of the
# 2K + 1 terms evaluate_series sums is then at most 2 max(|u_k|, |v_k|), and
# no sum comes near the largest float.
_SERIES_LIMIT = float(np.finfo(np.float64).max) / 4

# distinct bases kept; one run uses a few shapes, and an n x n basis is
# n * n * 16 bytes (2.5 MB at n = 400)
_BASIS_CACHE_SIZE = 16


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


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _dft_basis(n: int, degree: int | None, sign: int) -> np.ndarray:
    """The read-only basis exp(sign * 2 pi i k j / n) for j = 0 .. n - 1 and k
    in -degree .. degree, or in 0 .. n - 1 (every DFT residue) when degree is
    None.  sign -1 gives the forward (len(k), n) array, sign +1 the inverse
    (n, len(k)) array, both C-contiguous: evaluate_series' rounding depends on
    that layout, so the inverse is stored as built, not as a transposed view.
    Cached by lru_cache, at most _BASIS_CACHE_SIZE = 16 entries."""
    t = np.arange(n) / n
    ks = np.arange(n) if degree is None else np.arange(-degree, degree + 1)
    if sign < 0:
        basis = np.exp(-2j * np.pi * np.outer(ks, t))
    else:
        basis = np.exp(2j * np.pi * np.outer(t, ks))
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
    basis products in blocks of about geometry._BATCH_ELEMENTS, each row
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
    is embed_many with a batch of one, and pays the batch's fixed costs: a
    72-vertex ellipse at the default n takes about 495 µs on two shared
    cores, some 35% more than the one-contour code the batch replaced
    (370 µs).  Many contours cost less per contour in one embed_many call,
    as the commands make per image."""
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
    points, errors = _resample_many(verts, n)
    good = np.array([err is None for err in errors], dtype=bool)
    coeffs = np.zeros((len(verts), 2 * max(k, 0) + 1), dtype=np.complex128)
    if good.any():
        coeffs[good] = _coefficient_rows(points[good], k)
    return coeffs, errors


def parse_signatures(lines) -> list[tuple]:
    """(image_id, instance_id, FourierSignature) of each signature record, the
    JSON lines `fctool embed` writes; a bad line raises ParseError naming it."""

    def parse(obj) -> tuple:
        return obj["image_id"], obj["instance_id"], FourierSignature.from_flat(_number_list(obj["coeffs"], "coeffs"))

    return _json_records(lines, "signature", parse)


def evaluate_series(coeffs, n_points: int) -> np.ndarray:
    """Evaluate sum_k c_k exp(2 pi i k t) at t = j / n_points, j = 0 .. n_points - 1.

    coeffs may be batched: shape (..., 2K + 1) gives output (..., n_points).
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape[-1] % 2 == 0:
        raise ChannelCountMismatch(
            f"coefficient axis must have odd length, got {arr.shape[-1]}"
        )
    deg = (arr.shape[-1] - 1) // 2
    basis = _dft_basis(n_points, deg, 1)  # (n_points, 2K + 1)
    return (arr[..., None, :] * basis).sum(axis=-1)


def reconstruct(s: FourierSignature, n_points: int = DEFAULT_RECON_POINTS) -> Contour:
    """Evaluate the truncated series at n_points equidistant parameters."""
    if n_points < 3:
        raise ValueError(f"need n_points >= 3, got {n_points}")
    z = evaluate_series(s.coeffs, n_points)
    return Contour(np.stack([z.real, z.imag], axis=1))


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
    parameters, for every k in `degrees`, from one n x n DFT.

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
    coeffs = (basis * z).sum(axis=1) / n
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
        recon = (np.conj(basis[kept]).T * coeffs[kept]).sum(axis=1)
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
    the largest degree, series evaluations per degree in blocks, and one
    contour_spans_many call for the contours and all their reconstructions;
    raises the first contour's error."""
    degrees = list(degrees)
    kmax = max(degrees)
    points, errors = _resample_many([c.vertices for c in contours], n)
    _raise_first(errors)
    full = _coefficient_rows(points, kmax)
    z = np.empty((len(degrees), len(points), n_points), dtype=np.complex128)
    for d, deg in enumerate(degrees):
        for i, j in _cuts(np.full(len(points), n_points * (2 * deg + 1))):
            z[d, i:j] = evaluate_series(full[i:j, kmax - deg : kmax + deg + 1], n_points)
    recons = [[Contour(np.stack([zd.real, zd.imag], axis=1)) for zd in zs] for zs in z.transpose(1, 0, 2)]
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
