"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import run as R
import tracer as T
import workloads as W
from fourier_contours.annotations import AnnotatedImage
from fourier_contours.serialize import write_tensor

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", sorted(W.SPECS))
def test_corpus_is_a_function_of_the_seed(workload):
    def jsonl(seed):
        return W.write_jsonl(W.corpus(W.SPECS[workload], seed), fmt=W.round9)

    assert jsonl(7) == jsonl(7)
    assert jsonl(7) != jsonl(8)


def test_crowded_instances_stay_in_their_cells():
    (img,) = W.crowded_corpus(3, count=1)
    boxes = [inst.polygon.bounds() for inst in img.instances]
    assert len(boxes) == 40
    assert sum(inst.ignore for inst in img.instances) == 3
    for j, (x0, y0, x1, y1) in enumerate(boxes):
        r, c = divmod(j, 8)
        assert c * 160 <= x0 and x1 <= (c + 1) * 160
        assert r * 153.6 <= y0 and y1 <= (r + 1) * 153.6


def test_noisy_predictions_are_a_function_of_the_seed(tmp_path):
    gt = tmp_path / "gt" / "img"
    gt.mkdir(parents=True)
    meta = {"image_id": "img", "levels": [{"name": "P3"}]}
    (gt / "meta.json").write_text(json.dumps(meta) + "\n")
    write_tensor(gt / "P3_tr.fct", np.eye(4))
    write_tensor(gt / "P3_tcr.fct", np.eye(4))
    write_tensor(gt / "P3_reg.fct", np.arange(22 * 16, dtype=float).reshape(22, 4, 4))
    blobs = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        W.write_noisy_predictions(tmp_path / "gt", tmp_path / name, seed)
        blobs.append([(tmp_path / name / "img" / f).read_bytes() for f in ("P3_tr.fct", "P3_reg.fct")])
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


def test_self_time_of_a_synthetic_span_tree():
    def span(name, start, end, parent):
        return [name, start, end, parent, 1, None, None]

    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
        span("c", 6.0, 8.0, 0),        # overlaps b: covered time is a union
        span("other", 20.0, 21.0, -1),
    ]
    assert T.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0, 1.0])


def _bindings():
    mods = [m for k, m in sys.modules.items() if k == "fourier_contours" or k.startswith("fourier_contours.")]
    return {(m.__name__, name): getattr(m, name) for m in mods for name in dir(m) if callable(getattr(m, name))}


def test_wrappers_are_installed_everywhere_and_removed(tmp_path):
    from fourier_contours import cli, decode, geometry

    ann = tmp_path / "ann.jsonl"
    (img,) = W.roundtrip_corpus(1, count=1)
    W.write_annotations([AnnotatedImage(img.image_id, img.width, img.height, img.instances[:1])], ann)
    original = geometry.polygon_iou
    before = _bindings()
    tracer = T.Tracer()
    with tracer.installed():
        assert cli.polygon_iou is geometry.polygon_iou is decode.polygon_iou is not original
        assert cli.main(["fidelity", str(ann), "--degrees", "3,5", "-o", str(tmp_path / "f.csv")]) == 0
    assert _bindings() == before
    names = {span[T.NAME] for span in tracer.spans}
    assert {"cli.cmd_fidelity", "geometry.polygon_iou", "fourier.truncation_l2_error"} <= names
    iou = [s for s in tracer.spans if s[T.NAME] == "geometry.polygon_iou"]
    assert len(iou) == 2 and all(tracer.spans[s[T.PARENT]][T.NAME] == "cli.cmd_fidelity" for s in iou)


def test_traced_fctool_writes_spans_with_image_ids(tmp_path):
    ann = tmp_path / "ann.jsonl"
    W.write_annotations(W.roundtrip_corpus(1, count=1), ann)
    spans_path = tmp_path / "spans.json"
    code = subprocess.run(
        [sys.executable, str(R.HERE / "tracer.py"), str(spans_path), "--",
         "targets", str(ann), "--out-dir", str(tmp_path / "gt")],
        env=R.child_env(), capture_output=True, timeout=120,
    ).returncode
    assert code == 0
    spans = json.loads(spans_path.read_text())
    assert spans[0][T.NAME] == "cli.cmd_targets" and spans[0][T.IMAGE] is None
    images = {s[T.IMAGE] for s in spans if s[T.NAME] in ("targets.generate_targets", "geometry.rasterize_grid")}
    assert images == {"img000"}


SMALL = {
    "roundtrip": lambda: W.roundtrip_corpus(5, count=1),
    "crowded": lambda: W.crowded_corpus(5, count=2, width=320, height=256, cols=2, rows=2),
}


@pytest.mark.parametrize("workload", sorted(W.SPECS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(workload, trace, tmp_path):
    bench = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    check_jobs = workload == "crowded" and not trace
    result, record = R.run(workload, 5, 0.0, trace, check_jobs, tmp_path, images=SMALL[workload]())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(NAME.match(name) for name in want)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if check_jobs:
        assert [p["jobs"] for p in record["passes"]][-1] == 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["inputs"]) >= {"images", "instances", "dont_care", "vertices", "decode_candidates"}
    assert set(record["environment"]) >= {"nproc", "cpu_model", "python", "numpy", "load_1m_before", "load_1m_after"}


def test_times_are_gauge_scaled_medians(tmp_path):
    result, record = R.run("roundtrip", 5, 0.0, False, False, tmp_path, images=SMALL["roundtrip"]())
    passes = record["passes"]
    assert all(len(p["gauges"]) == len(p["runs"]) + 2 for p in passes)

    def scaled(p, index, t):
        return t / (p["gauges"][index] * p["gauges"][index + 1]) ** 0.5 * R.GAUGE_REF_S

    setup = statistics.median(scaled(p, 0, p["setup_s"]) for p in passes)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(setup)
    decode = statistics.median(scaled(p, 1 + list(p["runs"]).index("decode"), p["runs"]["decode"]["wall_s"]) for p in passes)
    assert result["metrics"]["decode.img_per_s"]["value"] == pytest.approx(1 / decode)
    raw = statistics.median(p["runs"]["decode"]["wall_s"] for p in passes)
    assert record["unscaled"]["decode.img_per_s"] == pytest.approx(1 / raw)


def test_failed_checks_and_changed_outputs_count_as_failures(tmp_path, monkeypatch):
    calls = []

    def check(spec, images, work):
        calls.append(1)
        return ["injected"] if len(calls) == 2 else []

    digests = iter([{"a": "1"}, {"a": "2"}])
    monkeypatch.setattr(W, "check_outputs", check)
    monkeypatch.setattr(R, "digest_outputs", lambda work, steps: next(digests, {"a": "1"}))
    result, record = R.run("roundtrip", 5, 0.0, False, False, tmp_path, images=SMALL["roundtrip"]())
    assert not result["correct"]
    assert result["failed"] == 2   # the injected check failure and the changed output of pass 2
    assert record["passes"][1]["problems"] == ["injected", "outputs differ from the first pass"]
    assert result["metrics"]["ok_frac"]["value"] == (result["attempted"] - 2) / result["attempted"]


def test_benchmark_json_is_well_formed():
    bench = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(W.SPECS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(R.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(R.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
