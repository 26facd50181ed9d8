"""The package's modules form layers: each imports only modules below it, and
config, which holds the operating point, is a leaf above errors and records.
mapdir, the map format and its records, sits right above serialize, so the
map readers load neither the annotation parser nor the target painter; and
evaluation, which reads the detection lines, loads no stage above geometry.
contours, the contour records and the block cutter, is a leaf above errors
and records, so the Fourier transforms load it without geometry.  cli reaches no private name of the modules it drives, and all JSON text comes
from serialize."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fourier_contours"

# lowest first; a module may import only the modules before it
LAYERS = ["errors", "records", "config", "serialize", "mapdir", "svg", "contours", "geometry", "annotations",
          "fourier", "evaluation", "targets", "decode", "losses", "synth", "cli"]


def package_imports(module: str) -> set[str]:
    """The package modules that `module` names in its `from .x import` lines,
    at any depth of its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_to_lower_layers(module):
    below = set(LAYERS[: LAYERS.index(module)])
    assert package_imports(module) <= below


def test_config_is_a_leaf():
    assert package_imports("config") == {"errors", "records"}


def test_contours_is_a_leaf():
    assert package_imports("contours") == {"errors", "records"}


def reachable(module: str) -> set[str]:
    """The package modules that importing `module` loads, itself excepted:
    the transitive closure of package_imports."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


@pytest.mark.parametrize("module", ["mapdir", "fourier", "decode", "losses"])
def test_loads_no_annotation_or_target_layer(module):
    assert not reachable(module) & {"targets", "annotations"}


def test_mapdir_loads_no_geometry_or_fourier():
    assert reachable("mapdir") == {"config", "errors", "records", "serialize"}


def test_eval_reads_detections_without_decode_fourier_or_map_layers():
    # evaluation holds the detection record and its reader, so `fctool eval` needs no decode
    tree = ast.parse((PACKAGE / "evaluation.py").read_text(encoding="utf-8"))
    assert {"Detection", "parse_detections"} <= {node.name for node in tree.body if hasattr(node, "name")}
    assert not reachable("evaluation") & {"decode", "fourier", "mapdir", "targets", "annotations"}


def test_cli_imports_no_private_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert names and not [name for name in names if name.startswith("_")]


def calls_json_dumps(module: str) -> bool:
    """Whether `module` names json.dumps, as an attribute of json or imported from it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "dumps" and getattr(node.value, "id", None) == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json" and "dumps" in {a.name for a in node.names})
        for node in ast.walk(tree)
    )


def test_only_serialize_writes_json_text():
    assert [module for module in LAYERS if calls_json_dumps(module)] == ["serialize"]
