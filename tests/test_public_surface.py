"""The package's public names are declared once, in each module's __all__,
and the README's Library section lists exactly those names."""

import importlib
import re
from pathlib import Path

import fourier_contours

MODULES = ["annotations", "config", "decode", "errors", "evaluation", "fourier", "geometry", "losses", "mapdir",
           "serialize", "targets"]

PUBLIC = [
    "AlignmentMismatch", "AnnotatedImage", "ChannelCountMismatch", "Config", "ConfigError", "Contour", "ContourSpans",
    "DEFAULT_DEGREE", "DEFAULT_LEVELS", "DEFAULT_RECON_POINTS", "DEFAULT_SAMPLES", "DEFAULT_SHRINK",
    "DegenerateContour", "DegreeFit", "DegreeTooLarge", "Detection", "EvalReport", "FourierSignature",
    "GeometryError", "InvalidPolygon", "LevelPrediction", "LevelSpec", "LevelTargets", "LossBreakdown", "LossSums",
    "MatchRecord", "NonFinite", "ParseError", "Point2", "PredictionMaps", "ResampledContour", "ShapeMismatch",
    "TargetMaps", "TextInstance", "ZeroPerimeter", "apply_overrides", "assign_levels", "canonical_start",
    "coeffs_to_flat", "contour_center", "contour_spans", "contour_spans_many", "cross_entropy",
    "curved_subset_select", "decode_all", "decode_level", "embed", "embed_many", "evaluate", "evaluate_series",
    "fit_by_degree", "flat_to_coeffs", "fmeasure", "fourier_coefficients", "generate_targets", "image_loss",
    "instance_scale", "load_config", "map_dirs", "ohem_select", "parse_delimited", "parse_detections", "parse_jsonl",
    "parse_signatures", "perimeter", "poly_nms", "polygon_iou", "rasterize_grid", "read_loss_levels", "read_map_meta",
    "read_prediction_maps", "read_tensor", "recenter", "reconstruct", "regression_loss", "regression_loss_grad",
    "resample_equidistant", "score_map", "shrink_polygon", "signed_area", "smooth_l1", "spans_iou", "total_loss",
    "truncation_l2_error", "truncation_l2_errors", "write_jsonl", "write_target_maps", "write_tensor",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def _module_all(name):
    return importlib.import_module(f"fourier_contours.{name}").__all__


def test_package_all_is_the_module_alls_in_order():
    declared = [name for module in MODULES for name in _module_all(module)]
    assert fourier_contours.__all__ == declared
    assert len(set(declared)) == len(declared)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fourier_contours import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fourier_contours.__all__)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        home = importlib.import_module(f"fourier_contours.{module}")
        for name in home.__all__:
            assert getattr(fourier_contours, name) is getattr(home, name)


def test_surface_is_pinned():
    assert sorted(fourier_contours.__all__) == PUBLIC


def test_readme_library_section_lists_all_by_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        match[1]: re.findall(r"`(\w+)`", match[2])
        for match in re.finditer(r"^- \*\*(\w+)\*\*: (.*)$", section, re.MULTILINE)
    }
    assert listed == {module: _module_all(module) for module in MODULES}
