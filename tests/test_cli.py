"""End-to-end drives of every subcommand through main(), on a tiny corpus."""

import contextlib
import io
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourier_contours import (
    FourierSignature,
    cli,
    contours,
    fourier,
    fourier_coefficients,
    geometry,
    polygon_iou,
    reconstruct,
    resample_equidistant,
    truncation_l2_errors,
)
from fourier_contours.annotations import parse_jsonl
from fourier_contours.cli import main
from fourier_contours.config import MAX_DEGREE, MAX_IMAGE_SIDE, MAX_RECON_POINTS, MAX_VERTICES, Config, load_config
from fourier_contours.errors import ParseError
from fourier_contours.geometry import Contour, contour_spans_many
from fourier_contours.serialize import fmt9, read_tensor, round9, write_tensor
from fourier_contours.synth import ellipse_polygon, rect14, regular_polygon, ribbon


def _rect_record(image_id, instances):
    return json.dumps(
        {
            "image_id": image_id,
            "width": 160,
            "height": 120,
            "instances": instances,
        }
    )


def _inst(points, iid, ignore=False):
    flat = [float(v) for xy in points for v in xy]
    return {"id": iid, "points": flat, "ignore": ignore}


RECT_A = [[10, 10], [70, 10], [70, 40], [10, 40]]
RECT_B = [[90, 60], [150, 60], [150, 100], [90, 100]]
RECT_IGN = [[20, 70], [60, 70], [60, 100], [20, 100]]


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(
        _rect_record("img-a", [_inst(RECT_A, "t0"), _inst(RECT_IGN, "dc", True)])
        + "\n"
        + _rect_record("img-b", [_inst(RECT_B, "t0")])
        + "\n",
        encoding="utf-8",
    )
    return path


def write_raw_tensor(path, values):
    """The .fct layout without write_tensor's finiteness check, as a model
    exporting NaN or inf would write it."""
    arr = np.ascontiguousarray(values, dtype="<f4")
    header = b"FCT1" + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def thread_spy(monkeypatch) -> list:
    """The threads threading.Thread makes from here on, in the order it makes them."""
    made = []
    real = threading.Thread

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(threading, "Thread", spy)
    return made


def per_instance_fidelity(images, degrees, cfg):
    """The lines of fidelity's CSV after its config header, computed one
    instance and one degree at a time through the public one-contour calls."""
    kmax = max(degrees)
    rows = []
    for inst in (inst for img in images for inst in img.instances if not inst.ignore):
        samples = resample_equidistant(inst.polygon, cfg.n)
        full = fourier_coefficients(samples, kmax).coeffs
        for deg, err in zip(degrees, truncation_l2_errors(samples, degrees)):
            recon = reconstruct(FourierSignature(full[kmax - deg : kmax + deg + 1]), cfg.n_prime)
            rows.append((deg, polygon_iou(inst.polygon, recon, cfg.iou_supersample), err))
    lines = ["k,mean_iou,median_iou,mean_l2"]
    for deg in degrees:
        ious = [iou for d, iou, _ in rows if d == deg]
        errs = [err for d, _, err in rows if d == deg]
        lines.append(f"{deg},{fmt9(float(np.mean(ious)))},{fmt9(statistics.median(ious))},{fmt9(float(np.mean(errs)))}")
    return lines


class TestEmbedReconstruct:
    def test_embed_stdout(self, corpus, capsys):
        code, out, err = run(["embed", str(corpus)], capsys)
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["image_id"], r["instance_id"]) for r in records] == [
            ("img-a", "t0"),
            ("img-a", "dc"),
            ("img-b", "t0"),
        ]
        assert all(len(r["coeffs"]) == 22 and r["k"] == 5 for r in records)
        assert records[1]["ignore"] is True and records[0]["ignore"] is False

    def test_round_trip_recovers_shape(self, corpus, tmp_path, capsys):
        sig_path = tmp_path / "sigs.jsonl"
        code, _, _ = run(["embed", str(corpus), "-o", str(sig_path)], capsys)
        assert code == 0
        code, out, _ = run(["reconstruct", str(sig_path)], capsys)
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        pts = np.array(rec["points"]).reshape(-1, 2)
        assert pts.shape == (50, 2)
        iou = polygon_iou(Contour(np.array(RECT_A, float)), Contour(pts), 4)
        assert iou > 0.85

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_interleaved_images_and_degrees_reconstruct_as_one_record_each(self, jobs, tmp_path, capsys):
        # two images and two degrees, interleaved, so runs hold 1 to 3 records
        rng = np.random.default_rng(5)
        layout = [("a", 5), ("a", 5), ("a", 3), ("b", 3), ("b", 3), ("b", 3), ("a", 5), ("b", 5), ("a", 3)]
        records = [
            {"image_id": image_id, "instance_id": f"t{i}", "k": k, "ignore": False,
             "coeffs": (rng.normal(scale=20.0, size=2 * (2 * k + 1)) + 40.0).tolist()}
            for i, (image_id, k) in enumerate(layout)
        ]
        path = tmp_path / "sigs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        # the per-record path: one reconstruct, each value rounded on its own
        want = ""
        for r in records:
            points = reconstruct(FourierSignature.from_flat(r["coeffs"])).vertices.ravel()
            line = {"image_id": r["image_id"], "instance_id": r["instance_id"], "points": [round9(v) for v in points]}
            want += json.dumps(line, separators=(",", ":")) + "\n"
        code, out, _ = run(["--jobs", jobs, "reconstruct", str(path)], capsys)
        assert code == 0 and out == want

    def test_reconstruct_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "sigs.jsonl"
        bad.write_text('{"image_id": "x"}\n', encoding="utf-8")
        code, _, err = run(["reconstruct", str(bad)], capsys)
        assert code == 2 and "line 1" in err

    def test_reconstruct_rejects_scalar_coeffs(self, tmp_path, capsys):
        bad = tmp_path / "sigs.jsonl"
        bad.write_text('{"image_id": "x", "instance_id": "t0", "coeffs": 6}\n', encoding="utf-8")
        code, _, err = run(["reconstruct", str(bad)], capsys)
        assert code == 2 and "line 1: bad signature record" in err

    def test_reconstruct_rejects_string_coeffs(self, tmp_path, capsys):
        bad = tmp_path / "sigs.jsonl"
        coeffs = ["0", "0", "1", "0", "0", "0"]
        bad.write_text(
            json.dumps({"image_id": "x", "instance_id": "t0", "coeffs": coeffs}) + "\n",
            encoding="utf-8",
        )
        code, out, err = run(["reconstruct", str(bad)], capsys)
        assert code == 2 and out == ""
        assert "line 1: bad signature record: coeffs must be a flat list of numbers" in err

    def test_reconstruct_rejects_a_series_that_overflows(self, tmp_path, capsys):
        # finite coefficients whose series sums past the largest float
        path = tmp_path / "sigs.jsonl"
        record = {"image_id": "a", "instance_id": "i", "k": 1, "ignore": False, "coeffs": [1e308] * 6}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["reconstruct", str(path)], capsys)
        assert code == 2 and out == "" and caught == []
        assert err.startswith("error: line 1: bad signature record: signature coefficients too large")

    def test_bad_record_is_reported_before_any_reconstruction(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        sig_path = tmp_path / "sigs.jsonl"
        assert run(["embed", str(corpus), "-o", str(sig_path)], capsys)[0] == 0
        good = sig_path.read_text(encoding="utf-8").splitlines()[0]
        sig_path.write_text(good + "\n\n" + '{"image_id": "x"}\n', encoding="utf-8")
        calls = []
        monkeypatch.setattr(fourier, "reconstruct_many", lambda *a: calls.append(a))
        code, out, err = run(["reconstruct", str(sig_path)], capsys)
        assert code == 2 and out == "" and calls == []
        assert "line 3: bad signature record" in err

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(["embed", str(tmp_path / "absent.jsonl")], capsys)
        assert code == 2 and err != ""


class TestFidelity:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
        )
    )
    @example(values=[0.5, 0.5, 0.5])
    @example(values=[1.0, 0.5])
    def test_median_is_statistics_median(self, values):
        # values and one element more: an odd and an even length, with a duplicate
        for sample in (values, values + values[:1]):
            assert cli._median(sample) == statistics.median(sample)

    def test_csv_shape(self, corpus, capsys):
        code, out, _ = run(["fidelity", str(corpus), "--degrees", "5,3,3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: k=5 n=400 ")
        assert lines[1] == "k,mean_iou,median_iou,mean_l2"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["3", "5"]  # sorted, deduplicated
        ious = [float(r[1]) for r in rows]
        assert 0.0 < ious[0] <= ious[1] <= 1.0
        errs = [float(r[3]) for r in rows]
        assert errs[1] <= errs[0]

    def test_default_degree_is_config_k(self, corpus, capsys):
        code, out, _ = run(["--set", "k=4", "fidelity", str(corpus)], capsys)
        assert code == 0
        assert out.splitlines()[2].split(",")[0] == "4"

    def test_svg_dir(self, corpus, tmp_path, capsys):
        svg_dir = tmp_path / "overlays"
        code, _, _ = run(
            ["fidelity", str(corpus), "--degrees", "5", "--svg-dir", str(svg_dir)],
            capsys,
        )
        assert code == 0
        names = sorted(p.name for p in svg_dir.iterdir())
        # ignored instances are excluded from the sweep
        assert names == ["img-a_t0_k5.svg", "img-b_t0_k5.svg"]
        body = (svg_dir / names[0]).read_text(encoding="utf-8")
        assert "#00a000" in body and "#d00000" in body

    def test_svg_names_that_collide_are_exit_2(self, tmp_path, capsys):
        # three overlays whose ids sanitize to one file name: nothing is written
        path = tmp_path / "ann.jsonl"
        path.write_text(
            _rect_record("x_y", [_inst(RECT_A, "z")])
            + "\n"
            + _rect_record("x", [_inst(RECT_A, "y_z"), _inst(RECT_B, "y/z")])
            + "\n",
            encoding="utf-8",
        )
        svg_dir = tmp_path / "overlays"
        code, out, err = run(["fidelity", str(path), "--degrees", "3", "--svg-dir", str(svg_dir)], capsys)
        assert code == 2 and out == "" and not svg_dir.exists()
        assert "image 'x_y' instance 'z' and image 'x' instance 'y_z' collide" in err

    def test_median_does_not_import_numpy_ma(self, corpus, tmp_path):
        # np.median's first call imports numpy.ma, some 14 ms a process
        script = (
            "import sys; from fourier_contours.cli import main; "
            f"code = main(['fidelity', {str(corpus)!r}, '-o', {str(tmp_path / 'f.csv')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_one_record_batch_per_image_gives_the_per_instance_csv(self, tmp_path, capsys, monkeypatch):
        ribbon_a = ribbon(80.0, 60.0, 90.0, 20.0, 8.0, points_per_edge=12).vertices.tolist()
        ellipse = ellipse_polygon(50.0, 40.0, 30.0, 12.0, n=40, rot=0.4).vertices.tolist()
        path = tmp_path / "ann.jsonl"
        path.write_text(
            _rect_record("a", [_inst(RECT_A, "r"), _inst(ribbon_a, "w"), _inst(RECT_IGN, "dc", True)]) + "\n"
            + _rect_record("b", [_inst(ellipse, "e"), _inst(RECT_B, "r"), _inst(RECT_A, "r2")]) + "\n"
            + _rect_record("c", [_inst(RECT_IGN, "dc", True)]) + "\n",
            encoding="utf-8",
        )
        calls = []
        monkeypatch.setattr(geometry, "contour_spans_many", lambda cs, s: calls.append(len(cs)) or contour_spans_many(cs, s))
        argv = ["--set", "n_prime=37", "fidelity", str(path), "--degrees", "1,4,2"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        # image c has no cared-for instance and no contour to rasterize
        assert calls == [2 + 2 * 3, 3 + 3 * 3, 0]
        cfg = Config()._replace(n_prime=37)
        images = parse_jsonl(path.read_text(encoding="utf-8").splitlines())[0]
        assert out.splitlines()[1:] == per_instance_fidelity(images, [1, 2, 4], cfg)
        # a budget below one instance's series evaluation: one block each
        monkeypatch.setattr(contours, "_BATCH_ELEMENTS", 10)
        assert run(argv, capsys)[:2] == (0, out)

    def test_degree_errors(self, corpus, capsys):
        code, _, _ = run(["fidelity", str(corpus), "--degrees", "0"], capsys)
        assert code == 3
        code, _, _ = run(["fidelity", str(corpus), "--degrees", "cat"], capsys)
        assert code == 3
        code, _, _ = run(["fidelity", str(corpus), "--degrees", "300"], capsys)
        assert code == 3  # 2*300+1 > n=400

    @pytest.mark.parametrize("degrees, token", [("5,x", "'x'"), ("5,,6", "''")], ids=["word", "empty"])
    def test_bad_degree_token_is_a_config_error(self, degrees, token, corpus, capsys):
        code, out, err = run(["fidelity", str(corpus), "--degrees", degrees], capsys)
        assert code == 3 and out == ""
        assert err.startswith("config error: ") and f"{token} is not one" in err


class TestTargetsDecodeLossEval:
    @pytest.fixture
    def target_dir(self, corpus, tmp_path, capsys):
        out = tmp_path / "gt"
        code, _, err = run(["targets", str(corpus), "--out-dir", str(out)], capsys)
        assert code == 0 and err == ""
        return out

    def test_targets_layout(self, target_dir):
        assert sorted(p.name for p in target_dir.iterdir()) == ["img-a", "img-b"]
        files = sorted(p.name for p in (target_dir / "img-a").iterdir())
        expected = ["meta.json"] + sorted(
            f"{lv}_{kind}.fct"
            for lv in ("P3", "P4", "P5")
            for kind in ("tr", "tcr", "reg", "weight", "care")
        )
        assert files == sorted(expected)
        meta = json.loads((target_dir / "img-a" / "meta.json").read_text())
        assert meta["image_id"] == "img-a"
        assert meta["k"] == 5 and meta["n"] == 400
        p3 = next(e for e in meta["levels"] if e["name"] == "P3")
        assert (p3["height"], p3["width"]) == (15, 20)  # ceil(120/8), ceil(160/8)
        assert meta["skipped"] == []

    def test_decode_ideal_predictions(self, corpus, target_dir, tmp_path, capsys):
        det_path = tmp_path / "dets.jsonl"
        code, _, _ = run(
            ["decode", "--maps-dir", str(target_dir), "-o", str(det_path)], capsys
        )
        assert code == 0
        dets = [json.loads(l) for l in det_path.read_text().splitlines()]
        assert {d["image_id"] for d in dets} == {"img-a", "img-b"}
        assert all(d["score"] == 1.0 for d in dets)
        by_img = {d["image_id"]: d for d in dets}
        pts = np.array(by_img["img-a"]["points"]).reshape(-1, 2)
        iou = polygon_iou(Contour(np.array(RECT_A, float)), Contour(pts), 4)
        assert iou > 0.8

        code, out, _ = run(
            [
                "eval",
                "--detections",
                str(det_path),
                "--annotations",
                str(corpus),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["hmean"] == 1.0 and report["fp"] == 0 and report["fn"] == 0
        assert report["tp"] == 2  # the ignored box never counts
        assert {pi["image_id"] for pi in report["per_image"]} == {"img-a", "img-b"}

    def test_eval_csv(self, corpus, target_dir, tmp_path, capsys):
        det_path = tmp_path / "dets.jsonl"
        run(["decode", "--maps-dir", str(target_dir), "-o", str(det_path)], capsys)
        csv_path = tmp_path / "summary.csv"
        code, _, _ = run(
            [
                "eval",
                "--detections",
                str(det_path),
                "--annotations",
                str(corpus),
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "precision,recall,hmean,tp,fp,fn"
        assert lines[2] == "1,1,1,2,0,0"

    def test_loss_of_ideal_predictions(self, target_dir, capsys):
        code, out, _ = run(
            ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(target_dir)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["l_reg"] == 0.0
        # clamped log(1 - eps) floor, never exactly zero
        assert 0.0 < report["l_tr"] < 1e-6 and 0.0 < report["l_tcr"] < 1e-6
        assert report["lambda"] == 1.0
        assert report["total"] == pytest.approx(
            report["l_tr"] + report["l_tcr"] + report["l_reg"]
        )
        assert report["pixels"]["regression"] > 0
        assert report["config"]["k"] == 5

    def test_loss_shape_mismatch(self, corpus, target_dir, tmp_path, capsys):
        other = tmp_path / "gt2"
        code, _, _ = run(
            ["--set", "k=3", "targets", str(corpus), "--out-dir", str(other)], capsys
        )
        assert code == 0
        code, _, err = run(
            ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(other)], capsys
        )
        assert code == 2 and "match" in err

    @pytest.mark.parametrize("key", ["tr", "tcr", "reg"])
    def test_loss_rejects_any_misshaped_prediction(self, key, target_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(target_dir, pred)
        bad = pred / "img-a" / f"P3_{key}.fct"
        write_tensor(bad, np.zeros(read_tensor(bad).shape[:-1] + (3,)))
        code, _, err = run(
            ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(pred)], capsys
        )
        assert code == 2
        assert f"P3_{key}" in err and "does not match" in err

    @pytest.mark.parametrize("key", ["tr", "tcr", "reg", "care"])
    def test_misshaped_target_is_named(self, key, target_dir, tmp_path, capsys):
        gt = tmp_path / "gt-bad"
        shutil.copytree(target_dir, gt)
        bad = gt / "img-a" / f"P3_{key}.fct"
        write_tensor(bad, np.zeros(read_tensor(bad).shape[:-1] + (19,)))  # P3 is (15, 20)
        argvs = [["loss", "--gt-dir", str(gt), "--pred-dir", str(target_dir)]]
        if key != "care":
            argvs.append(["decode", "--maps-dir", str(gt)])
        for argv in argvs:
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and f"img-a/P3_{key}" in err
            assert "prediction" not in err

    @pytest.mark.parametrize(
        "key, index, value, message",
        [
            ("tr", (0, 0), np.nan, "tr probabilities"),
            ("tcr", (0, 0), np.nan, "tcr probabilities"),
            ("tr", ..., -0.5, "tr probabilities"),
            ("tr", ..., 2.0, "tr probabilities"),
            ("reg", (0, 0, 0), np.inf, "regression channels"),
            ("reg", (1, 2, 3), np.nan, "regression channels"),
        ],
        ids=["tr-nan", "tcr-nan", "tr-negative", "tr-above-one", "reg-inf", "reg-nan"],
    )
    def test_loss_and_decode_reject_bad_values(
        self, key, index, value, message, target_dir, tmp_path, capsys
    ):
        pred = tmp_path / "pred"
        shutil.copytree(target_dir, pred)
        path = pred / "img-a" / f"P3_{key}.fct"
        values = read_tensor(path).copy()
        values[index] = value
        write_raw_tensor(path, values)
        for argv in (
            ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(pred)],
            ["decode", "--maps-dir", str(pred)],
        ):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and message in err
            assert "img-a" in err and "P3" in err

    @pytest.mark.parametrize(
        "command, meta",
        [
            ("decode", []),
            ("decode", {"image_id": 7, "width": 160, "height": 120, "levels": []}),
            ("decode", {"image_id": "img-a", "width": "160", "height": 120, "levels": []}),
            ("loss", {"image_id": "img-a", "width": 160, "height": 120, "levels": 3}),
            ("loss", {"image_id": "img-a", "width": 160, "height": 120, "levels": [{"name": "P3"}]}),
            ("decode", {"image_id": "img-a", "width": 160, "height": 120,
                        "levels": [{"name": "P3", "stride": 0}]}),
        ],
    )
    def test_malformed_meta_is_exit_2(self, command, meta, target_dir, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(target_dir, maps)
        (maps / "img-a" / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        argv = {
            "decode": ["decode", "--maps-dir", str(maps)],
            "loss": ["loss", "--gt-dir", str(maps), "--pred-dir", str(target_dir)],
        }[command]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "meta.json" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: "not json at all", "meta.json"),
            (lambda meta: {**meta, "levels": 3}, "meta.json"),
            (lambda meta: {**meta, "image_id": "img-b"}, "do not match"),
            (lambda meta: {**meta, "levels": meta["levels"][:-1]}, "do not match"),
            (lambda meta: {**meta, "levels": meta["levels"][::-1]}, "do not match"),
            (lambda meta: {**meta, "levels": [{**e, "stride": e["stride"] * 2}
                                              for e in meta["levels"]]}, "do not match"),
        ],
        ids=["not-json", "levels-not-list", "image-id", "level-missing",
             "level-order", "stride"],
    )
    def test_loss_checks_prediction_meta(self, edit, message, target_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(target_dir, pred)
        path = pred / "img-a" / "meta.json"
        meta = edit(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(meta if isinstance(meta, str) else json.dumps(meta), encoding="utf-8")
        code, out, err = run(
            ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(pred)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert str(pred / "img-a") in err

    @pytest.mark.parametrize(
        "value, message",
        [("nan", "lambda must be finite"), ("inf", "lambda must be finite"), ("1e308", "lambda must lie in [0, 1000]")],
        ids=["nan", "inf", "above-cap"],
    )
    def test_loss_with_a_bad_lambda_is_exit_3(self, value, message, target_dir, capsys):
        code, out, err = run(
            ["--set", f"lambda={value}", "loss", "--gt-dir", str(target_dir), "--pred-dir", str(target_dir)], capsys
        )
        assert code == 3 and out == ""
        assert err.startswith(f"config error: {message}")

    def test_decode_of_no_levels_is_empty(self, target_dir, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(target_dir, maps)
        for img_dir in maps.iterdir():
            path = img_dir / "meta.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "levels": []}), encoding="utf-8")
        code, out, err = run(["decode", "--maps-dir", str(maps)], capsys)
        assert (code, out, err) == (0, "", "")

    def test_decode_missing_dir(self, tmp_path, capsys):
        code, _, _ = run(["decode", "--maps-dir", str(tmp_path / "nope")], capsys)
        assert code == 2

    @pytest.mark.parametrize("side", ["decode", "loss-prediction", "loss-target"])
    def test_level_shapes_follow_meta(self, side, target_dir, tmp_path, capsys):
        # 8 px wider, so P3 needs ceil(168 / 8) = 21 columns, not the 20 written
        maps = tmp_path / "maps"
        shutil.copytree(target_dir, maps)
        path = maps / "img-b" / "meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**meta, "width": meta["width"] + 8}), encoding="utf-8")
        argv = {
            "decode": ["decode", "--maps-dir", str(maps)],
            "loss-prediction": ["loss", "--gt-dir", str(target_dir), "--pred-dir", str(maps)],
            "loss-target": ["loss", "--gt-dir", str(maps), "--pred-dir", str(target_dir)],
        }[side]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: img-b/P3_tr: shape (15, 20) does not match (15, 21)")
        assert "meta.json" in err

    def test_decode_rejects_candidates_far_outside_the_image(self, target_dir, tmp_path, capsys):
        # finite but huge regression values: each candidate becomes a contour
        # some 1e5 px across, whose span record alone would take over 100 MB
        pred = tmp_path / "pred"
        shutil.copytree(target_dir, pred)
        for path in sorted(pred.glob("*/*_reg.fct")):
            write_tensor(path, read_tensor(path) * 1e4)
        tracemalloc.start()
        try:
            code, out, err = run(["decode", "--maps-dir", str(pred)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: img-a/P") and "past the 160 x 120 px image" in err
        assert "Traceback" not in err
        assert peak < 16 * 2**20

    def test_loss_at_the_largest_n_prime_holds_a_few_mib(self, target_dir, tmp_path, capsys):
        # at n' = 1024 one (cells, n', 2K + 1) series product of a level
        # takes several MiB here, and grows with the cells
        argv = ["--set", "n_prime=1024", "loss", "--gt-dir", str(target_dir), "--pred-dir", str(target_dir)]
        tracemalloc.start()
        try:
            code, out, err = run(argv + ["-o", str(tmp_path / "loss.json")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "", "")
        assert peak < 4 * 2**20

    def test_decode_at_the_largest_n_prime_holds_one_pool(self, target_dir, tmp_path, capsys):
        # at n' = 1024 each candidate's contour takes 16 KiB; the pool of an
        # image is held once and its maps are freed before NMS, so what
        # remains is mostly a block of NMS vertex bounds (8.1 MiB before)
        argv = ["--set", "n_prime=1024", "decode", "--maps-dir", str(target_dir)]
        tracemalloc.start()
        try:
            code, out, err = run(argv + ["-o", str(tmp_path / "dets.jsonl")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "", "")
        assert peak < 6 * 2**20

    def test_eval_rejects_detections_far_outside_the_image(self, corpus, tmp_path, capsys):
        # one vertex at x = 1e15: its span record would take petabytes
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            '{"image_id": "img-a", "score": 0.9, "points": [10, 10, 70, 10, 70, 40]}\n'
            '{"image_id": "img-b", "score": 0.9, "points": [8, 8, 1e15, 8, 56, 32]}\n',
            encoding="utf-8",
        )
        tracemalloc.start()
        try:
            code, out, err = run(["eval", "--detections", str(dets), "--annotations", str(corpus)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: bad detection record: image 'img-b'")
        assert "past the 160 x 128 px image" in err and "Traceback" not in err
        assert peak < 16 * 2**20

    def test_eval_keeps_detections_within_the_margin(self, corpus, tmp_path, capsys):
        # one image side past the 160 x 120 image on every side is allowed
        # (and more: at stride 32 decode's maps cover 160 x 128 px)
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            '{"image_id": "img-a", "score": 0.9, "points": [-160, -120, 320, -120, 320, 240]}\n',
            encoding="utf-8",
        )
        code, out, _ = run(["eval", "--detections", str(dets), "--annotations", str(corpus)], capsys)
        assert code == 0 and json.loads(out)["fp"] == 1


    def test_eval_scores_what_decode_writes_past_an_unaligned_image(
        self, corpus, target_dir, tmp_path, capsys
    ):
        # 120 px high is 4 rows of 128 px at P5's stride 32, so P5 candidates
        # may reach y = 128 + 128 = 256, past the 240 of the annotated height
        pred = tmp_path / "pred"
        shutil.copytree(target_dir, pred)
        for path in pred.glob("*/*_tr.fct"):
            write_tensor(path, np.zeros_like(read_tensor(path)))
        hot = np.zeros((4, 5))
        hot[3, 2] = 1.0
        reg = np.zeros((22, 4, 5))
        reg[11, 3, 2] = 134.0  # c_0: from the cell center (80, 112) to (80, 246)
        reg[12, 3, 2] = 8.0  # c_1: a circle of radius 8, down to y = 254
        for key, arr in (("tr", hot), ("tcr", hot), ("reg", reg)):
            write_tensor(pred / "img-a" / f"P5_{key}.fct", arr)
        dets = tmp_path / "dets.jsonl"
        code, _, err = run(["decode", "--maps-dir", str(pred), "-o", str(dets)], capsys)
        assert code == 0 and err == ""
        ys = json.loads(dets.read_text(encoding="utf-8"))["points"][1::2]
        assert 240.0 < max(ys) <= 256.0
        argv = ["eval", "--detections", str(dets), "--annotations", str(corpus)]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["fp"] == 1

class TestSubsetPlot:
    def test_subset_drops_rectangles(self, tmp_path, capsys):
        rib = ribbon(300, 200, 360, 36, 110, points_per_edge=7)
        rect = rect14(20, 20, 120, 40)
        path = tmp_path / "ann.jsonl"
        path.write_text(
            json.dumps(
                {
                    "image_id": "mix",
                    "width": 640,
                    "height": 420,
                    "instances": [
                        {"id": "flat", "points": rect.vertices.ravel().tolist()},
                        {"id": "bent", "points": rib.vertices.ravel().tolist()},
                    ],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(["subset", str(path)], capsys)
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert len(records) == 1
        assert [i["id"] for i in records[0]["instances"]] == ["bent"]

    def test_subset_can_empty(self, tmp_path, capsys):
        # 4-point rectangles have large removal deltas; the 14-point form is
        # the removal-stable one, so an all-rect14 corpus selects nothing
        path = tmp_path / "ann.jsonl"
        flat = rect14(20, 20, 120, 40).vertices.ravel().tolist()
        path.write_text(
            json.dumps(
                {
                    "image_id": "x",
                    "width": 160,
                    "height": 120,
                    "instances": [{"id": "t0", "points": flat}],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(["subset", str(path)], capsys)
        assert code == 0 and out == ""

    def test_plot_annotations_only(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "plots"
        code, _, _ = run(
            ["plot", str(corpus), "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "img-a.svg",
            "img-b.svg",
        ]
        body = (out_dir / "img-a.svg").read_text(encoding="utf-8")
        # one green outline per visible instance, red fits for each by default
        assert body.count("#00a000") == 1
        assert body.count("#d00000") == 1

    def test_fidelity_gives_the_degree_message(self, corpus, tmp_path, capsys):
        code, out, err = run(
            ["fidelity", str(corpus), "--degrees", "3,300", "--svg-dir", str(tmp_path / "out")], capsys
        )
        assert (code, out, err) == (3, "", "config error: degree 300 too large for n = 400\n")

    @pytest.mark.parametrize(
        "degree, message",
        [
            pytest.param("-1", "k must be >= 1, got -1", id="-1"),
            pytest.param("300", "n = 400 too small for k = 300 (need 2k + 1 <= n)", id="300"),
        ],
    )
    def test_plot_checks_its_degree_before_any_work(self, tmp_path, capsys, degree, message):
        # plot draws at k, which Config.validate checks before any input is
        # read: unreadable annotations and detections, and still a config error
        out_dir = tmp_path / "plots"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, err = run(
            ["--set", f"k={degree}", "plot", str(bad), "--detections", str(bad), "--out-dir", str(out_dir)], capsys
        )
        assert (code, err) == (3, f"config error: {message}\n")
        assert not out_dir.exists()

    def test_plot_with_detections(self, corpus, tmp_path, capsys):
        gt = tmp_path / "gt"
        run(["targets", str(corpus), "--out-dir", str(gt)], capsys)
        det_path = tmp_path / "dets.jsonl"
        run(["decode", "--maps-dir", str(gt), "-o", str(det_path)], capsys)
        out_dir = tmp_path / "plots"
        code, _, _ = run(
            [
                "plot",
                str(corpus),
                "--detections",
                str(det_path),
                "--out-dir",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        body = (out_dir / "img-b.svg").read_text(encoding="utf-8")
        assert body.count("#d00000") == 1


class TestGlobalBehavior:
    def test_bad_override_is_exit_3(self, corpus, capsys):
        code, _, err = run(["--set", "k=zero", "embed", str(corpus)], capsys)
        assert code == 3 and "config error" in err
        code, _, _ = run(["--set", "mystery=1", "embed", str(corpus)], capsys)
        assert code == 3

    def targets_config_error(self, corpus, tmp_path, capsys, levels):
        out_dir = tmp_path / "gt"
        code, _, err = run(["--set", f"levels={levels}", "targets", str(corpus), "--out-dir", str(out_dir)], capsys)
        assert code == 3 and err.startswith("config error: ") and not out_dir.exists()
        return err

    def test_duplicate_level_names_are_exit_3(self, corpus, tmp_path, capsys):
        err = self.targets_config_error(corpus, tmp_path, capsys, "P3:8:0:1,P3:16:0:1")
        assert "distinct" in err

    def test_level_name_that_is_no_file_name_token_is_exit_3(self, corpus, tmp_path, capsys):
        err = self.targets_config_error(corpus, tmp_path, capsys, "P/3:8:0:1")
        assert "'P/3'" in err

    def test_level_ranges_that_leave_scales_uncovered_are_exit_3(self, corpus, tmp_path, capsys):
        err = self.targets_config_error(corpus, tmp_path, capsys, "P3:8:0:0.1,P5:32:0.9:1")
        assert "no level covers 0.1 to 0.9" in err

    def test_level_stride_above_the_side_cap_is_exit_3(self, corpus, tmp_path, capsys):
        # a 401-digit stride used to overflow in cell_centers
        err = self.targets_config_error(corpus, tmp_path, capsys, f"P3:8:0:0.4,P4:16:0.3:0.7,P5:{10**400}:0.6:1")
        assert f"stride must lie in 1..{MAX_IMAGE_SIDE}, got 1000" in err

    def test_bad_jobs_is_exit_3(self, corpus, capsys):
        code, _, _ = run(["--jobs", "0", "embed", str(corpus)], capsys)
        assert code == 3

    def test_jobs_above_the_cap_is_exit_3_before_any_pool(self, corpus, capsys, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        code, out, err = run(["--jobs", str(cli.MAX_JOBS + 1), "embed", str(corpus)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("config error: --jobs must lie in [1, 64]")

    def test_pmap_starts_no_more_threads_than_items(self, monkeypatch):
        threads = thread_spy(monkeypatch)

        def fn(item):
            time.sleep(0.002 * (5 - item))  # later items finish first
            return item * item

        assert cli._pmap(fn, range(5), cli.MAX_JOBS) == [0, 1, 4, 9, 16]
        assert cli._pmap(fn, [4], cli.MAX_JOBS) == [16]
        assert cli._pmap(fn, [], cli.MAX_JOBS) == []
        assert len(threads) == 5

    def test_import_budget(self, corpus, tmp_path, capsys):
        """A process pays for no generated record code and no pool machinery;
        every module the tracer patches is in sys.modules."""
        code, out, _ = run(["embed", str(corpus)], capsys)
        sigs = tmp_path / "sigs.jsonl"
        sigs.write_text("".join(line + "\n" for line in out.splitlines()[:2]), encoding="utf-8")
        # perfbench/tracer.py looks these up in sys.modules after importing
        # fourier_contours.cli, where the package registers them as lazy
        # modules, so this pin is the tracer's contract until the tracer
        # imports what it traces (ROADMAP.md, item 1)
        traced = ["annotations", "geometry", "fourier", "targets", "decode", "losses", "evaluation", "serialize", "cli"]
        script = (
            "import json, sys\n"
            "from fourier_contours.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in ('dataclasses', 'concurrent.futures') if m in sys.modules)\n"
            "seen = {'import': loaded(), 'traced': [m for m in %r if 'fourier_contours.' + m in sys.modules]}\n"
            "code = main(['--jobs', '1', 'reconstruct', %r, '-o', %r])\n"
            "print(json.dumps({**seen, 'code': code, 'run': loaded()}))\n"
        ) % (traced, str(sigs), str(tmp_path / "recon.jsonl"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert code == 0 and proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"import": [], "traced": traced, "code": 0, "run": []}
        assert len((tmp_path / "recon.jsonl").read_text(encoding="utf-8").splitlines()) == 2

    def test_pool_and_fidelity_import_budget(self, corpus, tmp_path):
        """A --jobs 2 run loads no pool machinery beyond threading, which numpy
        has loaded, and fidelity's median loads no statistics."""
        script = (
            "import json, sys\n"
            "from fourier_contours.cli import main\n"
            "def loaded(names):\n"
            "    return [m for m in names if m in sys.modules]\n"
            "codes = [main(['--jobs', '2', 'embed', %r, '-o', %r])]\n"
            "seen = {'pool': loaded(('concurrent.futures', 'logging', 'queue'))}\n"
            "codes.append(main(['fidelity', %r, '-o', %r]))\n"
            "seen['fidelity'] = loaded(('statistics', 'decimal', 'fractions'))\n"
            "print(json.dumps({**seen, 'codes': codes}))\n"
        ) % (str(corpus), str(tmp_path / "sigs.jsonl"), str(corpus), str(tmp_path / "fidelity.csv"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"pool": [], "fidelity": [], "codes": [0, 0]}
        # the signatures of both images' three instances
        assert len((tmp_path / "sigs.jsonl").read_text(encoding="utf-8").splitlines()) == 3

    def test_config_file_that_is_not_utf8_is_exit_3(self, corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe n=3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fourier_contours.cli", "--config", str(cfg), "embed", str(corpus)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr

    def test_load_config_closes_its_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k = 3\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_config(cfg).k == 3
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_subset_threshold_that_is_not_finite_is_exit_3(self, value, corpus, capsys):
        code, out, err = run(["--set", f"subset_threshold={value}", "subset", str(corpus)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("config error: subset_threshold must be finite")

    def test_degenerate_instances_are_skipped_and_their_images_go_on(self, tmp_path, capsys):
        """A zero-area and an all-repeated instance are skipped with their
        reasons, in the same order at --jobs 1 and 2; a chevron whose offset
        rebuild self-intersects is kept.  embed has no skip list, so the
        instance without a signature is exit 2."""
        chevron = [[64, 40], [76.5, 65], [89, 40], [89, 55], [76.75, 80], [76.25, 80], [64, 55]]
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            _rect_record("mixed", [_inst(RECT_A, "good"), _inst([[10, 50], [30, 60], [50, 70]], "flat"),
                                   _inst(chevron, "chevron")]) + "\n"
            + _rect_record("repeat", [_inst([[30, 30]] * 4, "dot"), _inst(RECT_B, "box")]) + "\n",
            encoding="utf-8",
        )
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"gt{jobs}"
            code, _, err = run(["--jobs", jobs, "targets", str(path), "--out-dir", str(out_dir)], capsys)
            assert code == 0 and "skipped 2 degenerate instances" in err
            skipped = {d: json.loads((out_dir / d / "meta.json").read_text())["skipped"] for d in ("mixed", "repeat")}
            assert skipped == {
                "mixed": [["flat", "zero-area contour cannot be shrunk"]],
                "repeat": [["dot", "contour has zero perimeter"]],
            }
            assert read_tensor(out_dir / "repeat" / "P3_tr.fct").any()
            code, out, err = run(["--jobs", jobs, "embed", str(path)], capsys)
            assert (code, out, err) == (2, "", "error: image 'repeat' instance 'dot': contour has zero perimeter\n")

    @pytest.mark.parametrize("command", ["embed", "fidelity", "plot"])
    def test_a_contour_that_cannot_be_embedded_names_its_image_and_instance(self, command, tmp_path, capsys):
        """The first failing image's first failing contour, named alike at
        --jobs 1 and 2; fidelity and plot skip the do-not-care "dc", so their
        batch position of "dot" differs from embed's."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            _rect_record("a", [_inst(RECT_A, "t0")]) + "\n"
            + _rect_record("b", [_inst(RECT_IGN, "dc", True), _inst([[30, 30]] * 3, "dot"),
                                 _inst([[10, 50], [30, 50], [50, 50]], "line")]) + "\n"
            + _rect_record("c", [_inst([[40, 40]] * 3, "far")]) + "\n",
            encoding="utf-8",
        )
        argv = {"embed": ["embed", str(path)], "fidelity": ["fidelity", str(path)],
                "plot": ["plot", str(path), "--out-dir", str(tmp_path / "plot")]}[command]
        for jobs in ("1", "2"):
            code, out, err = run(["--jobs", jobs, *argv], capsys)
            assert (code, out, err) == (2, "", "error: image 'b' instance 'dot': contour has zero perimeter\n")

    def test_config_file_plus_override(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k = 3\n")
        code, out, _ = run(
            ["--config", str(cfg), "--set", "n_prime=20", "embed", str(corpus)],
            capsys,
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["k"] == 3 and len(rec["coeffs"]) == 14

    def test_clamp_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            _rect_record("x", [_inst([[0, 0], [300, 0], [300, 50], [0, 50]], "t0")])
            + "\n",
            encoding="utf-8",
        )
        code, out, err = run(["embed", str(path)], capsys)
        assert code == 0
        assert "clamped" in err and "warning" in err
        assert out.count("\n") == 1

    def test_colliding_image_ids(self, tmp_path, capsys):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            _rect_record("a/b", [_inst(RECT_A, "t0")])
            + "\n"
            + _rect_record("a_b", [_inst(RECT_B, "t0")])
            + "\n",
            encoding="utf-8",
        )
        code, _, err = run(
            ["targets", str(path), "--out-dir", str(tmp_path / "gt")], capsys
        )
        assert code == 2 and "collide" in err

    @pytest.mark.parametrize(
        "record",
        [
            '{"image_id": "img-a", "score": 0.9, "points": [1, 2, 3]}',
            '{"image_id": ["img-a"], "score": 0.9, "points": [1, 2, 3, 4, 5, 6]}',
        ],
    )
    def test_bad_detection_record_names_its_line(self, record, corpus, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("\n" + record + "\n", encoding="utf-8")
        code, _, err = run(
            ["eval", "--detections", str(dets), "--annotations", str(corpus)], capsys
        )
        assert code == 2 and "line 2: bad detection record" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"points": "805680"}, "points must be a flat list of numbers"),
            ({"points": [[1, 2], [3, 4], [5, 6]]}, "points must be a flat list of numbers"),
            ({"score": "0.9"}, "score must be a finite number"),
            ({"score": True}, "score must be a finite number"),
            ({"score": float("nan")}, "score must be a finite number"),
            ({"level": 3}, "level must be a string"),
        ],
        ids=["points-string", "points-nested", "score-string", "score-bool", "score-nan",
             "level-number"],
    )
    def test_detection_record_field_types(self, fields, message, corpus, tmp_path, capsys):
        record = {"image_id": "img-a", "score": 0.9, "points": [10, 10, 70, 10, 70, 40], **fields}
        dets = tmp_path / "dets.jsonl"
        dets.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        code, out, err = run(
            ["eval", "--detections", str(dets), "--annotations", str(corpus)], capsys
        )
        assert code == 2 and out == ""
        assert f"line 2: bad detection record: {message}" in err

    @pytest.mark.parametrize("command", ["embed", "reconstruct", "eval"])
    def test_booleans_are_not_numbers(self, command, corpus, tmp_path, capsys):
        # JSON true and false are Python bools, which isinstance counts as ints
        records = {
            "embed": _rect_record("x", [{"points": [True, True, 56, 8, 56, 32, 8, 32]}]),
            "reconstruct": json.dumps({"image_id": "x", "instance_id": "t0", "coeffs": [0, 0, True, 0, 0, 0]}),
            "eval": json.dumps({"image_id": "img-a", "score": 0.9, "points": [True, 8, 70, 10, 70, 40]}),
        }
        path = tmp_path / "in.jsonl"
        path.write_text("\n" + records[command] + "\n", encoding="utf-8")
        argv = {
            "embed": ["embed", str(path)],
            "reconstruct": ["reconstruct", str(path)],
            "eval": ["eval", "--detections", str(path), "--annotations", str(corpus)],
        }[command]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert "line 2: " in err and "must be a flat list of numbers" in err

    @pytest.mark.parametrize("command", ["embed", "reconstruct", "eval"])
    def test_an_integer_beyond_the_float_range_is_exit_2(self, command, corpus, tmp_path, capsys):
        # json reads 10^400 as an int, which used to overflow in numpy
        huge = 10**400
        records = {
            "embed": _rect_record("x", [{"points": [8, 8, 56, 8, 56, huge, 8, 32]}]),
            "reconstruct": json.dumps({"image_id": "x", "instance_id": "t0", "coeffs": [0, 0, huge, 0, 0, 0]}),
            "eval": json.dumps({"image_id": "img-a", "score": 0.9, "points": [10, 10, 70, 10, 70, huge]}),
        }
        path = tmp_path / "in.jsonl"
        path.write_text("\n" + records[command] + "\n", encoding="utf-8")
        argv = {
            "embed": ["embed", str(path)],
            "reconstruct": ["reconstruct", str(path)],
            "eval": ["eval", "--detections", str(path), "--annotations", str(corpus)],
        }[command]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: bad ") and err.endswith(" record: int too large to convert to float\n")

    def test_instance_vertex_cap(self, tmp_path, capsys):
        ang = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        ring = np.stack([80 + 40 * np.cos(ang), 60 + 40 * np.sin(ang)], axis=1).tolist()
        path = tmp_path / "ann.jsonl"
        path.write_text(
            _rect_record("a", [_inst(RECT_A, "t0")]) + "\n" + _rect_record("b", [_inst(ring, "t0")]) + "\n",
            encoding="utf-8",
        )
        code, out, err = run(["embed", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: line 2: need 3 to {MAX_VERTICES} points, got 2000")

    @pytest.mark.parametrize("command", ["subset", "reconstruct"])
    def test_command_runs_on_the_jobs_threads(
        self, command, corpus, tmp_path, capsys, monkeypatch
    ):
        source = corpus
        if command == "reconstruct":
            source = tmp_path / "sigs.jsonl"
            assert run(["embed", str(corpus), "-o", str(source)], capsys)[0] == 0
        seen = []
        pmap = cli._pmap

        def spy(fn, items, jobs):
            seen.append(jobs)
            return pmap(fn, items, jobs)

        monkeypatch.setattr(cli, "_pmap", spy)
        code, out, _ = run(["--jobs", "2", command, str(source)], capsys)
        assert code == 0 and out != ""
        assert seen == [2]

    def test_pmap_hands_out_no_item_after_a_failure(self):
        calls = []

        def fn(item):
            calls.append(item)
            if item == 0:
                raise ValueError("item 0")
            time.sleep(0.05)  # item 0 has failed before this one returns
            return item

        with pytest.raises(ValueError, match="item 0"):
            cli._pmap(fn, range(10), 2)
        # item 0 went to one thread and at most item 1 to the other
        assert sorted(calls) in ([0], [0, 1])

    def test_pmap_runs_every_item_before_the_first_failure_under_contention(self):
        """Eight threads switched every microsecond: no item runs twice, every
        item before the first failing one runs, and that item's error is the
        one raised; with no failure every result lands at its own index."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first in range(1, 40):
                failing = {first, first + 1, first + 7}
                calls = []

                def fn(item):
                    calls.append(item)
                    sum(range(200))  # long enough to be switched out
                    if item in failing:
                        raise ValueError(item)
                    return item

                with pytest.raises(ValueError) as caught:
                    cli._pmap(fn, range(60), 8)
                assert caught.value.args == (first,)
                assert len(calls) == len(set(calls))
                assert set(range(first + 1)) <= set(calls)
            assert cli._pmap(lambda item: sum(range(200)) + item, range(60), 8) == [19900 + i for i in range(60)]
        finally:
            sys.setswitchinterval(interval)

    def test_pmap_raises_the_workers_own_exception(self):
        err = ParseError("bad record", line=3)

        def fn(item):
            if item == 1:
                raise err
            return item

        for jobs in (1, 2):
            with pytest.raises(ParseError) as caught:
                cli._pmap(fn, range(4), jobs)
            assert caught.value is err

    def test_pmap_raises_the_first_failing_items_error(self):
        def fn(item):
            if item == 2:
                time.sleep(0.05)  # a later item fails first in time
            if item in (2, 3, 7):
                raise ValueError(f"item {item}")
            return item

        for jobs in (1, 2, 3):
            with pytest.raises(ValueError, match="item 2"):
                cli._pmap(fn, range(10), jobs)

    def test_jobs_do_not_change_output(self, corpus, tmp_path, capsys):
        outs = []
        for jobs in ("1", "3"):
            code, out, _ = run(["--jobs", jobs, "embed", str(corpus)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_decode_or_eval(self, tmp_path, capsys):
        """Two crowded images decoded from noisy maps: decode and eval write
        the same bytes at --jobs 1 and 2."""
        rng = np.random.default_rng(11)
        shapes = [
            lambda cx, cy, r: ellipse_polygon(cx, cy, r, 0.6 * r, n=40, rot=rng.uniform(-0.5, 0.5)),
            lambda cx, cy, r: regular_polygon(cx, cy, r, n=36),
            lambda cx, cy, r: rect14(cx - r, cy - 0.6 * r, 2 * r, 1.2 * r),
            lambda cx, cy, r: ribbon(cx, cy, 2 * r, 0.5 * r, 0.15 * r, 0.8, rng.uniform(0, 6), 12),
        ]
        lines = []
        for i in range(2):
            instances = []
            for j in range(12):
                row, col = divmod(j, 4)
                r = rng.uniform(12.0, 20.0)
                poly = shapes[(i + j) % 4](40.0 + 80.0 * col, 32.0 + 64.0 * row, r)
                instances.append({"id": f"i{j:02d}", "points": poly.flat(), "ignore": j == 5})
            lines.append(json.dumps({"image_id": f"crowd{i}", "width": 320, "height": 192,
                                     "instances": instances}))
        ann = tmp_path / "ann.jsonl"
        ann.write_text("\n".join(lines) + "\n", encoding="utf-8")
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        assert run(["targets", str(ann), "--out-dir", str(gt)], capsys)[0] == 0
        shutil.copytree(gt, pred)
        for path in sorted(pred.glob("*/*.fct")):
            values = read_tensor(path).astype(np.float64)
            if path.stem.endswith(("_tr", "_tcr")):
                write_tensor(path, 0.85 * values + rng.uniform(0.0, 0.1, values.shape))
            elif path.stem.endswith("_reg"):
                write_tensor(path, values + rng.normal(0.0, 0.25, values.shape))
        outputs = {}
        for jobs in ("1", "2"):
            dets, report = tmp_path / f"dets_{jobs}.jsonl", tmp_path / f"report_{jobs}.json"
            argv = ["--jobs", jobs, "decode", "--maps-dir", str(pred), "-o", str(dets)]
            assert run(argv, capsys)[0] == 0
            argv = ["--jobs", jobs, "eval", "--detections", str(dets), "--annotations", str(ann),
                    "-o", str(report)]
            assert run(argv, capsys)[0] == 0
            outputs[jobs] = dets.read_bytes(), report.read_bytes()
        assert outputs["1"] == outputs["2"]
        dets = outputs["1"][0].decode().splitlines()
        assert {json.loads(line)["image_id"] for line in dets} == {"crowd0", "crowd1"}
        assert json.loads(outputs["1"][1])["tp"] >= 20

    def test_repeat_runs_byte_identical(self, corpus, tmp_path, capsys):
        a, b = (
            run(["fidelity", str(corpus), "--degrees", "3,5"], capsys)[1]
            for _ in range(2)
        )
        assert a == b

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fourier_contours.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "embed" in proc.stdout and "decode" in proc.stdout


def module_entry(argv, **kwargs):
    """fctool as the program, through `python -m fourier_contours.cli`."""
    return subprocess.run([sys.executable, "-m", "fourier_contours.cli", *argv], capture_output=True, **kwargs)


class TestProgramEntry:
    """main() with no argv is the program and freezes the collector's heap;
    main(argv) is a library call and leaves it alone.  The checks run in
    subprocesses, so this process's heap is never frozen."""

    def test_only_the_program_entry_freezes(self, corpus, tmp_path):
        script = (
            "import gc, json, sys\n"
            "from fourier_contours.cli import main\n"
            "code = main(['subset', %r, '-o', %r])\n"
            "library = [code, gc.get_freeze_count(), gc.isenabled()]\n"
            "sys.argv = ['fctool', 'subset', %r, '-o', %r]\n"
            "code = main()\n"
            "print(json.dumps({'library': library, 'program': [code, gc.get_freeze_count() > 0]}))\n"
        ) % (str(corpus), str(tmp_path / "a.jsonl"), str(corpus), str(tmp_path / "b.jsonl"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"library": [0, 0, True], "program": [0, True]}
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_every_command_gives_the_library_call_bytes(self, corpus, tmp_path, capsys):
        """The eight benchmarked commands and plot, each on the library
        call's inputs; file outputs and standard output compared byte for byte."""
        lib, prog = tmp_path / "lib", tmp_path / "prog"
        ann = str(corpus)

        def commands(out: Path) -> list:
            return [
                ["embed", ann, "-o", str(out / "sigs.jsonl")],
                ["reconstruct", str(lib / "sigs.jsonl")],
                ["fidelity", ann, "--degrees", "1,5"],
                ["subset", ann],
                ["targets", ann, "--out-dir", str(out / "gt")],
                ["--jobs", "2", "decode", "--maps-dir", str(lib / "gt"), "-o", str(out / "dets.jsonl")],
                ["loss", "--gt-dir", str(lib / "gt"), "--pred-dir", str(lib / "gt")],
                ["eval", "--detections", str(lib / "dets.jsonl"), "--annotations", ann],
                ["plot", ann, "--detections", str(lib / "dets.jsonl"), "--out-dir", str(out / "plot")],
            ]

        def files(root: Path) -> dict:
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        lib.mkdir()
        prog.mkdir()
        for lib_argv, prog_argv in zip(commands(lib), commands(prog)):
            code, out, err = run(lib_argv, capsys)
            proc = module_entry(prog_argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode()) and code == 0
        assert files(prog) == files(lib) and len(files(lib)) > 10

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["embed", "{missing}"], 2, "error: "),
            (["--set", "k=zero", "embed", "{ann}"], 3, "config error: "),
        ],
    )
    def test_error_exits_keep_their_line(self, argv, code, prefix, corpus, tmp_path):
        argv = [a.format(missing=tmp_path / "missing.jsonl", ann=corpus) for a in argv]
        proc = module_entry(argv, text=True)
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_reader_is_exit_1_without_an_error_line(self, unbuffered, corpus, tmp_path, capsys):
        """A reader that closed the pipe before the first byte: buffered, the
        small output first meets it in main's flush; unbuffered, in the write."""
        _, out, _ = run(["embed", str(corpus)], capsys)
        sigs = tmp_path / "sigs.jsonl"
        sigs.write_text(out, encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fourier_contours.cli", "reconstruct", str(sigs)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


# one valid annotation line, and strategies for what can be wrong with it
VALID_RECORD = {
    "image_id": "a",
    "width": 64,
    "height": 48,
    "instances": [{"points": [8, 8, 56, 8, 56, 32, 8, 32]}],
}
NOT_AN_INT = st.one_of(
    st.floats(), st.text(max_size=4), st.booleans(), st.none(), st.lists(st.integers(), max_size=2)
)
BAD_SIDE = st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_IMAGE_SIDE + 1), NOT_AN_INT)
BAD_POINTS = st.one_of(
    st.lists(st.integers(0, 64), min_size=1, max_size=9).filter(lambda v: len(v) % 2),
    st.lists(st.integers(0, 64), max_size=2).map(lambda v: v * 2),  # fewer than 3 points
    st.lists(
        st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.lists(st.integers(), max_size=2)),
        min_size=6,
        max_size=8,
    ),
    st.text(max_size=8),
    st.integers(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
MUTATED_RECORD = st.one_of(
    st.sampled_from(sorted(VALID_RECORD)).map(
        lambda key: {k: v for k, v in VALID_RECORD.items() if k != key}
    ),
    st.tuples(st.sampled_from(["width", "height"]), BAD_SIDE).map(lambda kv: {**VALID_RECORD, kv[0]: kv[1]}),
    st.one_of(st.just(""), st.integers(), st.none()).map(lambda v: {**VALID_RECORD, "image_id": v}),
    st.one_of(st.text(max_size=4), st.integers(), st.lists(st.integers(), min_size=1, max_size=2)).map(
        lambda v: {**VALID_RECORD, "instances": v}
    ),
    BAD_POINTS.map(lambda v: {**VALID_RECORD, "instances": [{"points": v}]}),
    st.tuples(
        st.sampled_from(["id", "ignore"]), st.one_of(st.integers(), st.none(), st.lists(st.booleans(), max_size=1))
    ).map(lambda kv: {**VALID_RECORD, "instances": [{**VALID_RECORD["instances"][0], kv[0]: kv[1]}]}),
)


def _annotation_commands(tmp: Path) -> dict:
    return {
        "embed": ["embed", str(tmp / "ann.jsonl"), "-o", str(tmp / "sigs.jsonl")],
        "targets": ["targets", str(tmp / "ann.jsonl"), "--out-dir", str(tmp / "gt")],
        "eval": ["eval", "--detections", str(tmp / "dets.jsonl"), "--annotations", str(tmp / "ann.jsonl"),
                 "-o", str(tmp / "report.json")],
    }


class TestMalformedAnnotations:
    @settings(max_examples=150, deadline=None)
    @given(record=MUTATED_RECORD)
    def test_any_bad_line_is_exit_2(self, record):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            (tmp / "ann.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
            (tmp / "dets.jsonl").write_text("", encoding="utf-8")
            for command, argv in _annotation_commands(tmp).items():
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code == 2, (command, record)
                assert err.getvalue().startswith("error: "), (command, err.getvalue())

    @pytest.mark.parametrize("command", ["targets", "eval"])
    def test_huge_image_side_allocates_nothing(self, command, tmp_path, capsys):
        # a 10^12 px side used to reach numpy as a terabyte-sized allocation
        record = {**VALID_RECORD, "width": 10**12}
        (tmp_path / "ann.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        (tmp_path / "dets.jsonl").write_text(
            '{"image_id": "a", "score": 0.9, "points": [8, 8, 1e11, 8, 56, 32]}\n', encoding="utf-8"
        )
        tracemalloc.start()
        try:
            code, out, err = run(_annotation_commands(tmp_path)[command], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith(f"error: line 1: width and height must lie in 1..{MAX_IMAGE_SIDE}")
        assert peak < 16 * 2**20


def _check_exit(argv) -> None:
    """main(argv) exits 0 with nothing on stderr, 2 with an `error: `
    message or 3 with a `config error: ` one."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    prefix = {0: "", 2: "error: ", 3: "config error: "}
    assert code in prefix, (argv[0], code, err.getvalue())
    assert err.getvalue().startswith(prefix[code]) and (code or not err.getvalue()), (argv[0], err.getvalue())


# a line that is no JSON object, or no JSON at all
NOT_AN_OBJECT = st.one_of(
    st.text(max_size=8),
    st.one_of(st.integers(), st.floats(), st.none(), st.lists(st.integers(), max_size=2)).map(json.dumps),
)
# one valid degree-1 signature line (a circle), and what can be wrong with it
VALID_SIGNATURE = {"image_id": "a", "instance_id": "t0", "k": 1, "ignore": False, "coeffs": [0, 0, 32, 20, 10, 0]}
ANY_NUMBER = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.sampled_from([10**400, 1e300, -1e308, 5e-324]))
BAD_COEFFS = st.one_of(
    st.lists(ANY_NUMBER, max_size=14),  # of every length, 2 (K = 0) to 14 (K = 3) among them
    st.lists(ANY_NUMBER, min_size=6, max_size=6),
    st.lists(
        st.one_of(ANY_NUMBER, st.text(max_size=2), st.none(), st.booleans(), st.lists(st.integers(), max_size=2)),
        min_size=1,
        max_size=6,
    ),
    st.one_of(st.text(max_size=4), st.integers(), st.none(), st.dictionaries(st.text(max_size=2), st.integers())),
)
NOT_A_STRING = st.one_of(st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=1))
MUTATED_SIGNATURE = st.one_of(
    st.sampled_from(sorted(VALID_SIGNATURE)).map(lambda key: {k: v for k, v in VALID_SIGNATURE.items() if k != key}),
    st.tuples(st.sampled_from(["image_id", "instance_id"]), st.one_of(st.text(max_size=3), NOT_A_STRING)).map(
        lambda kv: {**VALID_SIGNATURE, kv[0]: kv[1]}
    ),
    BAD_COEFFS.map(lambda v: {**VALID_SIGNATURE, "coeffs": v}),
    st.one_of(ANY_NUMBER, st.booleans(), st.none(), st.text(max_size=2)).map(lambda v: {**VALID_SIGNATURE, "k": v}),
)


class TestMalformedSignatures:
    @settings(max_examples=150, deadline=None)
    @given(line=st.one_of(MUTATED_SIGNATURE.map(json.dumps), NOT_AN_OBJECT))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [0, 0, 1e300, 0, 0, 0]}))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [0, 0, 10**400, 0, 0, 0]}))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [0, 0, float("nan"), 0, 0, 0]}))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [1e306, -1e306, 0, 0, 1e306, 0]}))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [7, -3]}))
    @example(line=json.dumps({**VALID_SIGNATURE, "coeffs": [0, 0, 0, 0, 0, float("inf")]}))  # 1j * inf is nan
    def test_any_bad_line_is_exit_0_2_or_3(self, line):
        # the bad line between two good ones, so runs of one image and degree split around it
        good = json.dumps(VALID_SIGNATURE)
        with tempfile.TemporaryDirectory() as name:
            sigs = Path(name) / "sigs.jsonl"
            sigs.write_text(f"{good}\n{line}\n{good}\n", encoding="utf-8")
            for n_prime in (3, 50):
                _check_exit([f"--set=n_prime={n_prime}", "reconstruct", str(sigs), "-o", str(Path(name) / "out")])


# one valid detection line of VALID_RECORD's image, and what can be wrong with it
VALID_DETECTION = {"image_id": "a", "level": "P3", "score": 0.9, "points": [8, 8, 56, 8, 56, 32, 8, 32]}
MUTATED_DETECTION = st.one_of(
    st.sampled_from(sorted(VALID_DETECTION)).map(lambda key: {k: v for k, v in VALID_DETECTION.items() if k != key}),
    st.one_of(st.text(max_size=3), NOT_A_STRING).map(lambda v: {**VALID_DETECTION, "image_id": v}),
    st.one_of(ANY_NUMBER, st.booleans(), st.text(max_size=3), st.none()).map(lambda v: {**VALID_DETECTION, "score": v}),
    st.one_of(NOT_A_STRING, st.booleans()).map(lambda v: {**VALID_DETECTION, "level": v}),
    st.one_of(BAD_POINTS, st.lists(ANY_NUMBER, min_size=6, max_size=8)).map(lambda v: {**VALID_DETECTION, "points": v}),
)


class TestMalformedDetections:
    @settings(max_examples=150, deadline=None)
    @given(line=st.one_of(MUTATED_DETECTION.map(json.dumps), NOT_AN_OBJECT))
    @example(line=json.dumps({**VALID_DETECTION, "score": 10**400}))
    @example(line=json.dumps({**VALID_DETECTION, "score": float("inf")}))
    @example(line=json.dumps({**VALID_DETECTION, "points": [8, 8, 1e300, 8, 56, 32]}))
    @example(line=json.dumps({**VALID_DETECTION, "points": [8, 8, 10**400, 8, 56, 32]}))
    @example(line=json.dumps({**VALID_DETECTION, "points": [8, 8, 8, 8, 8, 8]}))
    def test_any_bad_line_is_exit_0_2_or_3(self, line):
        good = json.dumps(VALID_DETECTION)
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            (tmp / "ann.jsonl").write_text(json.dumps(VALID_RECORD) + "\n", encoding="utf-8")
            (tmp / "dets.jsonl").write_text(f"{good}\n{line}\n", encoding="utf-8")
            dets = str(tmp / "dets.jsonl")
            _check_exit(["eval", "--detections", dets, "--annotations", str(tmp / "ann.jsonl"), "-o", str(tmp / "out")])
            _check_exit(["plot", str(tmp / "ann.jsonl"), "--detections", dets, "--out-dir", str(tmp / "plot")])


# strategies for what can be wrong with a map directory: a meta.json field,
# a level entry's field, a .fct header word, a truncated or overwritten payload
ANY_VALUE = st.one_of(
    st.integers(-(2**40), 2**40), st.floats(), st.text(max_size=4), st.booleans(), st.none(),
    st.lists(st.integers(-4, 64), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
MISSING = "<missing>"
TENSOR = st.tuples(st.sampled_from(["P3", "P4", "P5"]), st.sampled_from(["tr", "tcr", "reg", "care"])).map(
    lambda lk: f"{lk[0]}_{lk[1]}.fct"
)
MAP_MUTATION = st.one_of(
    st.tuples(st.just("meta"), st.sampled_from(["image_id", "width", "height", "k", "n", "levels", "skipped"]),
              st.one_of(st.just(MISSING), ANY_VALUE)),
    st.tuples(st.just("level"), st.integers(0, 2), st.sampled_from(["name", "stride", "height", "width"]),
              st.one_of(st.just(MISSING), ANY_VALUE)),
    st.tuples(st.just("header"), TENSOR, st.integers(0, 3), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("truncate"), TENSOR, st.floats(0.0, 1.0)),
    st.tuples(st.just("payload"), TENSOR, st.floats(0.0, 1.0), st.binary(min_size=4, max_size=4)),
)


def _mutate_maps(img_dir: Path, mutation) -> None:
    kind, *rest = mutation
    if kind in ("meta", "level"):
        path = img_dir / "meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        entry = meta if kind == "meta" else meta["levels"][rest.pop(0)]
        key, value = rest
        if value == MISSING:
            entry.pop(key)
        else:
            entry[key] = value
        path.write_text(json.dumps(meta), encoding="utf-8")
        return
    path = img_dir / rest[0]
    blob = bytearray(path.read_bytes())
    if kind == "header":  # word 0 is the magic, 1 the rank, then the dims
        struct.pack_into("<I", blob, 4 * rest[1], rest[2])
    elif kind == "truncate":
        del blob[int(rest[1] * len(blob)):]
    else:
        start = 8 + 4 * struct.unpack_from("<I", blob, 4)[0]
        at = start + 4 * int(rest[1] * ((len(blob) - start) // 4 - 1))
        blob[at:at + 4] = rest[2]
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def valid_maps(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "ann.jsonl").write_text(
        _rect_record("img-a", [_inst(RECT_A, "t0"), _inst(RECT_B, "t1")]) + "\n", encoding="utf-8"
    )
    assert main(["targets", str(root / "ann.jsonl"), "--out-dir", str(root / "gt")]) == 0
    return root / "gt"


# float32 bit patterns no .fct payload may hold: a signaling NaN, whose cast
# to float64 numpy reports as an invalid value, a quiet NaN with a payload,
# and both infinities
NON_FINITE_BITS = {"signaling-nan": 0x7F800001, "quiet-nan-payload": 0x7FC01234, "inf": 0x7F800000,
                   "-inf": 0xFF800000}


def _non_finite_examples(test):
    """An @example for each non-finite pattern as the first value of each tensor of P3."""
    for key in ("tr", "tcr", "reg", "care"):
        for bits in NON_FINITE_BITS.values():
            test = example(mutation=("payload", f"P3_{key}.fct", 0.0, struct.pack("<I", bits)))(test)
    return test


class TestMalformedMaps:
    @settings(max_examples=120, deadline=None)
    @given(mutation=MAP_MUTATION)
    @_non_finite_examples
    def test_any_bad_map_is_exit_0_2_or_3(self, mutation, valid_maps):
        with tempfile.TemporaryDirectory() as name:
            bad = Path(name) / "bad"
            shutil.copytree(valid_maps, bad)
            _mutate_maps(bad / "img-a", mutation)
            for argv in (
                ["decode", "--maps-dir", str(bad), "-o", str(Path(name) / "dets.jsonl")],
                ["loss", "--gt-dir", str(valid_maps), "--pred-dir", str(bad), "-o", str(Path(name) / "l.json")],
                ["loss", "--gt-dir", str(bad), "--pred-dir", str(valid_maps), "-o", str(Path(name) / "l.json")],
            ):
                err = io.StringIO()
                tracemalloc.start()
                try:
                    with contextlib.redirect_stderr(err):
                        code = main(argv)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code in (0, 2, 3), (argv[0], mutation)
                assert code == 0 or "error:" in err.getvalue(), (argv[0], mutation, err.getvalue())
                assert "Traceback" not in err.getvalue()
                assert peak < 16 * 2**20, (argv[0], mutation, peak)

    @pytest.mark.parametrize("bits", NON_FINITE_BITS.values(), ids=NON_FINITE_BITS.keys())
    @pytest.mark.parametrize("key", ["tr", "tcr", "reg", "care"])
    def test_non_finite_payload_is_exit_2_without_a_warning(self, key, bits, valid_maps, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(valid_maps, bad)
        _mutate_maps(bad / "img-a", ("payload", f"P3_{key}.fct", 0.0, struct.pack("<I", bits)))
        argvs = [["loss", "--gt-dir", str(bad), "--pred-dir", str(valid_maps)]]
        if key != "care":  # a prediction has no care tensor
            argvs += [["decode", "--maps-dir", str(bad)], ["loss", "--gt-dir", str(valid_maps), "--pred-dir", str(bad)]]
        for argv in argvs:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv + ["-o", str(tmp_path / "out")])
            assert (code, caught) == (2, []), (argv[0], err.getvalue(), [str(w.message) for w in caught])
            assert err.getvalue().startswith("error: ") and f"img-a/P3_{key}.fct: " in err.getvalue()

    def test_zero_width_meta_is_exit_2_naming_meta_json(self, valid_maps, tmp_path):
        # every tensor at 0 columns, as the width says: the shape checks pass
        bad = tmp_path / "bad"
        shutil.copytree(valid_maps, bad)
        _mutate_maps(bad / "img-a", ("meta", "width", 0))
        for path in (bad / "img-a").glob("*.fct"):
            arr = read_tensor(path)
            write_tensor(path, arr[..., :0])
        for argv in (["decode", "--maps-dir", str(bad)], ["loss", "--gt-dir", str(valid_maps), "--pred-dir", str(bad)],
                     ["loss", "--gt-dir", str(bad), "--pred-dir", str(valid_maps)]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["-o", str(tmp_path / "out")])
            assert code == 2, (argv[0], err.getvalue())
            assert err.getvalue().startswith(f"error: {bad / 'img-a' / 'meta.json'}: width and height must lie in 1..")


    def test_huge_stride_meta_is_exit_2_naming_meta_json(self, valid_maps, tmp_path):
        # a 401-digit stride, its tensors at the 1 x 1 cells it gives: cell_centers used to overflow
        bad = tmp_path / "bad"
        shutil.copytree(valid_maps, bad)
        _mutate_maps(bad / "img-a", ("level", 0, "stride", 10**400))
        for path in (bad / "img-a").glob("P3_*.fct"):
            write_tensor(path, read_tensor(path)[..., :1, :1])
        for argv in (["decode", "--maps-dir", str(bad)], ["loss", "--gt-dir", str(valid_maps), "--pred-dir", str(bad)],
                     ["loss", "--gt-dir", str(bad), "--pred-dir", str(valid_maps)]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["-o", str(tmp_path / "out")])
            assert code == 2, (argv[0], err.getvalue())
            assert err.getvalue().startswith(
                f"error: {bad / 'img-a' / 'meta.json'}: levels must be objects with a string name and a positive "
                "integer stride of at most 16384"
            )


# strategies for what can be wrong with a configuration: a --config file's
# bytes or lines, and --set pairs, with numbers that are nan, infinite, huge
# or negative, boolean words, and level specs
NUMBER_TEXT = st.one_of(
    st.integers(-8, 64).map(str),  # small enough that a valid value sizes nothing large
    st.integers(min_value=10**5).map(str),
    st.integers(max_value=-(10**5)).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "1e999", "-1e308", "5e-324", "1_0", "0x10", ""]),
)
BOOL_WORD = st.sampled_from(["true", "false", "True", "False", "yes", "no", "on", "off", "null", "None"])
LEVEL_SPEC = st.lists(
    st.tuples(st.one_of(st.sampled_from(["P3", "P4", "P5"]), st.text(max_size=3)),
              st.one_of(NUMBER_TEXT, BOOL_WORD), NUMBER_TEXT, NUMBER_TEXT).map(":".join),
    max_size=4,
).map(",".join)
CONFIG_KEY = st.sampled_from(sorted(Config().to_dict()))
CONFIG_PAIR = st.one_of(
    st.tuples(CONFIG_KEY, st.one_of(NUMBER_TEXT, BOOL_WORD)).map("=".join),
    LEVEL_SPEC.map("levels={}".format),
    st.tuples(st.one_of(CONFIG_KEY, st.text(max_size=6)), st.text(max_size=6)).map("=".join),
    st.text(max_size=8),
)
CONFIG_FILE = st.one_of(
    st.binary(max_size=48),
    st.lists(st.one_of(CONFIG_PAIR, CONFIG_PAIR.map(lambda pair: f" {pair.replace('=', ' = ', 1)}  # note")),
             max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8")),
)


@pytest.fixture(scope="module")
def config_inputs(tmp_path_factory):
    """Inputs for every command, written at the default configuration; the
    predictions are the targets of instances moved by a few pixels, so the
    loss is not zero."""
    root = tmp_path_factory.mktemp("config_fuzz")
    for name, dx in (("ann", 0), ("moved", 3)):
        (root / f"{name}.jsonl").write_text(
            _rect_record("a", [_inst(np.add(RECT_A, dx).tolist(), "t0"), _inst(RECT_IGN, "dc", True)]) + "\n"
            + _rect_record("b", [_inst(np.add(RECT_B, dx).tolist(), "t0")]) + "\n",
            encoding="utf-8",
        )
    for argv in (
        ["embed", str(root / "ann.jsonl"), "-o", str(root / "sigs.jsonl")],
        ["targets", str(root / "ann.jsonl"), "--out-dir", str(root / "gt")],
        ["targets", str(root / "moved.jsonl"), "--out-dir", str(root / "pred")],
        ["decode", "--maps-dir", str(root / "gt"), "-o", str(root / "dets.jsonl")],
    ):
        assert main(argv) == 0
    return root


def _config_commands(root: Path, out: Path) -> list:
    ann = str(root / "ann.jsonl")
    return [
        ["embed", ann, "-o", str(out / "sigs.jsonl")],
        ["reconstruct", str(root / "sigs.jsonl"), "-o", str(out / "recon.jsonl")],
        ["fidelity", ann, "-o", str(out / "fidelity.csv")],
        ["subset", ann, "-o", str(out / "subset.jsonl")],
        ["targets", ann, "--out-dir", str(out / "gt")],
        ["decode", "--maps-dir", str(root / "gt"), "-o", str(out / "dets.jsonl")],
        ["loss", "--gt-dir", str(root / "gt"), "--pred-dir", str(root / "pred"), "-o", str(out / "loss.json")],
        ["eval", "--detections", str(root / "dets.jsonl"), "--annotations", ann, "-o", str(out / "report.json")],
        ["plot", ann, "--out-dir", str(out / "plots")],
    ]


class TestMalformedConfig:
    @settings(max_examples=80, deadline=None)
    @given(config=st.one_of(st.none(), CONFIG_FILE), pairs=st.lists(CONFIG_PAIR, max_size=3))
    @example(config=b"\xff\xfe n=3\n", pairs=[])
    @example(config=b"lambda = 1e308\n", pairs=[])
    @example(config=None, pairs=["lambda=nan"])
    @example(config=None, pairs=["subset_threshold=inf", "levels=P3:8:0:1"])
    @example(config=None, pairs=[f"levels=P3:8:0:0.4,P4:16:0.3:0.7,P5:{10**400}:0.6:1"])
    def test_any_config_is_exit_0_or_3(self, config, pairs, config_inputs):
        with tempfile.TemporaryDirectory() as name:
            out = Path(name)
            options = [f"--set={pair}" for pair in pairs]
            if config is not None:
                (out / "fuzz.cfg").write_bytes(config)
                options += ["--config", str(out / "fuzz.cfg")]
            for argv in _config_commands(config_inputs, out):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(options + argv)
                assert code in (0, 3), (argv[0], config, pairs, err.getvalue())
                assert code == 0 or err.getvalue().startswith("config error: "), (argv[0], err.getvalue())
                assert "Traceback" not in err.getvalue()


def one_cell_maps(root: Path, k: int) -> Path:
    """A map root of one 8 x 8 px image on one level of stride 8, as targets
    writes it at degree k: its one cell is text, and its regression is a
    circle of radius 3 about the cell centre."""
    img = root / "a"
    img.mkdir(parents=True)
    meta = {"image_id": "a", "width": 8, "height": 8, "k": k, "n": 400, "shrink_factor": 0.3, "skipped": [],
            "levels": [{"name": "P3", "stride": 8, "low": 0, "high": 1, "height": 1, "width": 1}]}
    (img / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    one, reg = np.ones((1, 1)), np.zeros((4 * k + 2, 1, 1))
    reg[2 * k + 2] = 3.0  # u_1: c_1 = 3
    for key, arr in (("tr", one), ("tcr", one), ("reg", reg), ("weight", one), ("care", one)):
        write_tensor(img / f"P3_{key}.fct", arr)
    return root


def signature_line(degree: int, **fields) -> str:
    """A signature line of a circle of radius 3 about (4, 4), of the given degree."""
    coeffs = [0.0] * (4 * degree + 2)
    coeffs[2 * degree : 2 * degree + 3] = [4.0, 4.0, 3.0]
    return json.dumps({"image_id": "a", "instance_id": "i", "coeffs": coeffs, **fields})


def ring_detection(m: int) -> str:
    """A detection line of img-a: an m-point circle inside the 160 x 120 px image."""
    ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    points = np.stack([80 + 40 * np.cos(ang), 60 + 40 * np.sin(ang)], axis=1).ravel().tolist()
    return json.dumps({"image_id": "img-a", "score": 0.9, "points": points})


class TestInputCaps:
    """A vertex count or degree read from input is capped: a detection at
    MAX_VERTICES points, as an annotation is, and a signature's or
    regression map's degree at MAX_DEGREE, the largest a configuration
    embeds.  Past its cap, an input exits 2 naming its line or file."""

    def test_decode_writes_no_more_points_than_eval_reads(self):
        assert MAX_RECON_POINTS <= MAX_VERTICES

    def test_eval_reads_what_decode_writes_at_the_largest_n_prime(self, corpus, tmp_path, capsys):
        gt, dets = tmp_path / "gt", tmp_path / "dets.jsonl"
        assert run(["targets", str(corpus), "--out-dir", str(gt)], capsys)[0] == 0
        argv = ["--set", f"n_prime={MAX_RECON_POINTS}", "decode", "--maps-dir", str(gt), "-o", str(dets)]
        assert run(argv, capsys) == (0, "", "")
        lines = dets.read_text(encoding="utf-8").splitlines()
        assert [len(json.loads(line)["points"]) for line in lines] == [2 * MAX_RECON_POINTS] * 2
        code, out, err = run(["eval", "--detections", str(dets), "--annotations", str(corpus)], capsys)
        assert (code, err) == (0, "") and json.loads(out)["tp"] == 2

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_a_detection_of_more_than_max_vertices_points_is_exit_2(self, command, corpus, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        argv = {
            "eval": ["eval", "--detections", str(dets), "--annotations", str(corpus)],
            "plot": ["plot", str(corpus), "--detections", str(dets), "--out-dir", str(tmp_path / "plot")],
        }[command]
        dets.write_text(ring_detection(MAX_VERTICES) + "\n", encoding="utf-8")
        code, _, err = run(argv, capsys)
        assert (code, err) == (0, "")
        dets.write_text("\n" + ring_detection(MAX_VERTICES + 1) + "\n", encoding="utf-8")
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: line 2: bad detection record: need 3 to {MAX_VERTICES} points, got {MAX_VERTICES + 1}\n"

    def test_reconstruct_reads_degrees_up_to_max_degree(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.jsonl"
        sigs.write_text(signature_line(MAX_DEGREE, k=MAX_DEGREE) + "\n", encoding="utf-8")
        code, out, err = run(["reconstruct", str(sigs)], capsys)
        points = np.reshape(json.loads(out)["points"], (-1, 2))
        assert (code, err) == (0, "") and np.allclose(np.hypot(*(points - 4.0).T), 3.0)
        sigs.write_text("\n" + signature_line(MAX_DEGREE + 1) + "\n", encoding="utf-8")
        code, out, err = run(["reconstruct", str(sigs)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 2: bad signature record: 8194 coeffs exceed the 8190 of the largest degree, 2047\n"

    def test_reconstruct_rejects_a_k_that_is_not_the_degree(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.jsonl"
        sigs.write_text(signature_line(1, k=7) + "\n", encoding="utf-8")
        code, out, err = run(["reconstruct", str(sigs)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 1: bad signature record: k must be 1, the degree of the coeffs, got 7\n"

    def test_maps_of_max_degree_decode_and_score(self, tmp_path, capsys):
        maps = str(one_cell_maps(tmp_path, MAX_DEGREE))
        code, out, err = run(["decode", "--maps-dir", maps], capsys)
        points = np.reshape(json.loads(out)["points"], (-1, 2))
        assert (code, err) == (0, "") and np.allclose(np.hypot(*(points - 4.0).T), 3.0)
        code, out, err = run(["loss", "--gt-dir", maps, "--pred-dir", maps], capsys)
        assert (code, err) == (0, "") and json.loads(out)["l_reg"] == 0.0

    @pytest.mark.parametrize("side", ["decode", "loss target", "loss prediction"])
    def test_a_regression_map_above_max_degree_is_exit_2(self, side, tmp_path, capsys):
        ok, big = one_cell_maps(tmp_path / "ok", MAX_DEGREE), one_cell_maps(tmp_path / "big", MAX_DEGREE + 1)
        argv = {
            "decode": ["decode", "--maps-dir", str(big)],
            "loss target": ["loss", "--gt-dir", str(big), "--pred-dir", str(ok)],
            "loss prediction": ["loss", "--gt-dir", str(ok), "--pred-dir", str(big)],
        }[side]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        path = big / "a" / "P3_reg.fct"
        assert err == f"error: {path}: 8194 regression channels exceed the 8190 of the largest degree, 2047\n"
