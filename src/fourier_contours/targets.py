"""Ground-truth map generation for multi-scale dense prediction.

Each pyramid level owns a cell grid at its stride; cell (row i, col j) looks
at the image point ((j + 0.5) * stride, (i + 0.5) * stride), the rule of
config.cell_centers, which decode reads too.  An instance is assigned to
every level whose scale range contains its relative size (longest
bounding-box side divided by the longest image side; range ends are
inclusive, so ranges overlap).

The cared-for instances of an image are prepared together: one batched
resample and Fourier transform gives their signatures, and one batched
shrink their center regions.  Each level is rasterized in one pass per
polygon list (do-not-care, cared-for, shrunk) into an owner map, the index
of the instance that owns a cell or -1; every map is built from it.  Per
assigned level an instance paints:

* tr:     text region, cells whose center lies inside the polygon
* tcr:    text center region, cells inside the inward-shrunk polygon; if
          none of the instance's cells is, its cell nearest the shrunk
          polygon's contour_center (the first in row-major order on a tie),
          so every instance that owns a cell can be decoded
* regression: the flat Fourier signature, recentered to each cell center
  (only the c_0 channels differ between cells of one instance)
* weight: 1.0 on tcr, 0.5 on tr outside tcr, 0.0 elsewhere
* care:   0 marks do-not-care cells (ignored instances) excluded from
  classification losses; the four maps above cannot encode that distinction

When instances overlap on a cell the smaller-area instance wins.  Geometry
failures (degenerate polygons) skip that instance and are recorded, and so
is an instance that owns no cell on any of its levels; an image is never
aborted.  The maps go into mapdir's records, a TargetMaps of
LevelTargets.
"""

from __future__ import annotations

import numpy as np

from .annotations import AnnotatedImage
from .config import DEFAULT_DEGREE, DEFAULT_LEVELS, DEFAULT_SAMPLES, DEFAULT_SHRINK, LevelSpec, cell_centers, cell_count
from .fourier import _embed_many, coeffs_to_flat
from .geometry import Contour, _grid_cells, _shrink_many, contour_center, signed_area
from .mapdir import LevelTargets, TargetMaps

__all__ = ["instance_scale", "assign_levels", "generate_targets"]


def instance_scale(polygon: Contour, width: int, height: int) -> float:
    """Longest bounding-box side over the longest image side."""
    x0, y0, x1, y1 = polygon.bounds()
    return max(x1 - x0, y1 - y0) / max(width, height)


def assign_levels(scale: float, specs=DEFAULT_LEVELS) -> list[LevelSpec]:
    """Levels whose inclusive scale range contains the value.  Overlapping
    ranges deliberately assign border scales to both neighbours."""
    return [spec for spec in specs if spec.low <= scale <= spec.high]


def _grid(spec: LevelSpec, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    xs = cell_centers(cell_count(width, spec.stride), spec.stride)
    ys = cell_centers(cell_count(height, spec.stride), spec.stride)
    return xs, ys


def generate_targets(
    img: AnnotatedImage,
    specs=DEFAULT_LEVELS,
    k: int = DEFAULT_DEGREE,
    n: int = DEFAULT_SAMPLES,
    shrink_factor: float = DEFAULT_SHRINK,
) -> TargetMaps:
    out = TargetMaps(img.image_id, img.width, img.height, k, n, shrink_factor, {})
    ignored, wanted = [], []  # (polygon, levels), (instance, levels)
    # big instances first, so smaller ones overwrite shared cells and win
    for inst in sorted(img.instances, key=lambda inst: -abs(signed_area(inst.polygon))):
        levels = assign_levels(instance_scale(inst.polygon, img.width, img.height), specs)
        if inst.ignore:
            ignored.append((inst.polygon, levels))
        else:
            wanted.append((inst, levels))
    verts = [inst.polygon.vertices for inst, _ in wanted]
    coeffs, errors = _embed_many(verts, k, n)
    shrunk, shrink_errors = _shrink_many(verts, shrink_factor)
    errors = [err or shrink_err for err, shrink_err in zip(errors, shrink_errors)]
    cared, rows = [], []  # (polygon, levels, shrunk), signature row
    for i, (inst, levels) in enumerate(wanted):
        if errors[i] is not None:
            out.skipped.append((inst.id, str(errors[i])))
        else:
            cared.append((inst.polygon, levels, shrunk[i]))
            rows.append(i)
    channels = 2 * (2 * k + 1)
    bases = coeffs_to_flat(coeffs[rows])
    has_cell = np.zeros(len(cared), dtype=bool)

    for spec in specs:
        xs, ys = _grid(spec, img.width, img.height)
        shape = (ys.size, xs.size)
        ignore = np.zeros(ys.size * xs.size, dtype=bool)
        ignore[_grid_cells([p for p, levels in ignored if spec in levels], xs, ys)[1]] = True
        here = np.flatnonzero([spec in levels for _, levels, _ in cared])
        # cared is largest first: the highest index on a cell owns it
        owner = np.full(ignore.size, -1, dtype=np.intp)
        which, cells = _grid_cells([cared[i][0] for i in here], xs, ys)
        np.maximum.at(owner, cells, here[which])
        tcr = np.zeros(ignore.size, dtype=np.uint8)
        which, cells = _grid_cells([cared[i][2] for i in here], xs, ys)
        tcr[cells[owner[cells] == here[which]]] = 1
        owns = np.bincount(owner[owner >= 0], minlength=len(cared)) > 0
        has_cell |= owns
        owns[owner[tcr == 1]] = False  # now: owns cells, but no tcr cell
        for i in np.flatnonzero(owns):
            mine = np.flatnonzero(owner == i)
            cx, cy = contour_center(cared[i][2])
            # argmin takes the first of equal distances, and mine is row-major
            tcr[mine[np.argmin((xs[mine % xs.size] - cx) ** 2 + (ys[mine // xs.size] - cy) ** 2)]] = 1
        ignore, owner, tcr = (arr.reshape(shape) for arr in (ignore, owner, tcr))
        tr = (owner >= 0).astype(np.uint8)
        iy, ix = np.nonzero(tr)
        regression = np.zeros((channels,) + shape, dtype=np.float64)
        regression[:, iy, ix] = bases[owner[iy, ix]].T
        regression[2 * k, iy, ix] -= xs[ix]      # u_0 channel
        regression[2 * k + 1, iy, ix] -= ys[iy]  # v_0 channel
        out.levels[spec.name] = LevelTargets(
            spec=spec,
            tr=tr,
            tcr=tcr,
            regression=regression,
            weight=np.where(tr == 1, np.where(tcr == 1, 1.0, 0.5), 0.0),
            care=(~(ignore & (tr == 0))).astype(np.uint8),
        )
    for i in np.flatnonzero(~has_cell):
        out.skipped.append((wanted[rows[i]][0].id, "owns no cell on any of its levels"))
    return out
