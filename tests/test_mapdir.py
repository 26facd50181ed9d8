"""Map directories: what write_target_maps writes, the readers give back, and
each reader error names what is wrong."""

import json
import shutil
import struct

import numpy as np
import pytest

from fourier_contours import (
    AnnotatedImage,
    LevelTargets,
    ParseError,
    TextInstance,
    generate_targets,
    image_loss,
    map_dirs,
    read_loss_levels,
    read_map_meta,
    read_prediction_maps,
    read_tensor,
    write_target_maps,
    write_tensor,
)
from fourier_contours.decode import LevelPrediction
from fourier_contours.synth import ellipse_polygon, rect14


def image(image_id="img-a"):
    return AnnotatedImage(image_id, 160, 120, (
        TextInstance(rect14(20.0, 20.0, 50.0, 24.0), id="box"),
        TextInstance(ellipse_polygon(110.0, 80.0, 30.0, 14.0, n=40, rot=0.3), id="oval"),
        TextInstance(rect14(10.0, 90.0, 40.0, 20.0), ignore=True, id="dc"),
    ))


@pytest.fixture
def written(tmp_path):
    maps = generate_targets(image(), k=4, n=200, shrink_factor=0.3)
    write_target_maps(tmp_path / "gt" / "img-a", maps)
    return maps, tmp_path / "gt"


def as_stored(arr):
    return np.asarray(arr, dtype=np.float32)


class TestRoundTrip:
    def test_meta_and_files(self, written):
        maps, root = written
        assert map_dirs(root) == [root / "img-a"]
        files = sorted(p.name for p in (root / "img-a").iterdir())
        assert files == sorted(["meta.json"] + [f"{lv}_{key}.fct" for lv in ("P3", "P4", "P5")
                                                for key in ("tr", "tcr", "reg", "weight", "care")])
        meta = read_map_meta(root / "img-a")
        assert (maps.k, maps.n, maps.shrink_factor) == (4, 200, 0.3)
        assert (meta["image_id"], meta["width"], meta["height"], meta["k"], meta["n"]) == ("img-a", 160, 120, 4, 200)
        assert meta["shrink_factor"] == 0.3 and meta["skipped"] == []
        assert [(e["name"], e["stride"], e["height"], e["width"]) for e in meta["levels"]] == [
            (name, lt.spec.stride, *lt.shape) for name, lt in maps.levels.items()
        ]
        assert (root / "img-a" / "meta.json").read_bytes().endswith(b"]}\n")
        for name, lt in maps.levels.items():
            assert np.array_equal(read_tensor(root / "img-a" / f"{name}_weight.fct"), as_stored(lt.weight))

    def test_predictions_are_the_written_maps(self, written):
        maps, root = written
        pred = read_prediction_maps(root / "img-a")
        levels = list(pred.levels)
        assert (pred.image_id, pred.width, pred.height, len(levels)) == ("img-a", 160, 120, len(maps.levels))
        for level, (name, lt) in zip(levels, maps.levels.items()):
            assert (level.name, level.stride) == (name, lt.spec.stride)
            for got, want in ((level.tr_prob, lt.tr), (level.tcr_prob, lt.tcr), (level.regression, lt.regression)):
                assert np.array_equal(got, as_stored(want))

    def test_predictions_read_each_level_when_reached(self, written):
        _, root = written
        p3 = next(iter(read_prediction_maps(root / "img-a").levels))
        path = root / "img-a" / "P5_tr.fct"
        write_tensor(path, np.full(read_tensor(path).shape, 2.0))
        levels = iter(read_prediction_maps(root / "img-a").levels)  # meta.json alone: P5 is not read yet
        first, second = next(levels), next(levels)
        assert (first.name, second.name) == ("P3", "P4")
        assert np.array_equal(first.regression, p3.regression)
        with pytest.raises(ParseError, match="img-a/P5: tr probabilities must lie in"):
            next(levels)

    def test_loss_levels_pair_targets_with_predictions(self, written):
        maps, root = written
        pairs = list(read_loss_levels(root / "img-a", root / "img-a"))
        assert len(pairs) == len(maps.levels)
        for (target, pred), lt in zip(pairs, maps.levels.values()):
            assert isinstance(target, LevelTargets) and isinstance(pred, LevelPrediction)
            assert target.spec is None and target.weight is None
            for got, want in ((target.tr, lt.tr), (target.tcr, lt.tcr), (target.regression, lt.regression),
                              (target.care, lt.care)):
                assert np.array_equal(got, as_stored(want))
        stored = [
            (LevelTargets(lt.spec, as_stored(lt.tr), as_stored(lt.tcr), as_stored(lt.regression), lt.weight,
                          as_stored(lt.care)),
             LevelPrediction(name, lt.spec.stride, as_stored(lt.tr), as_stored(lt.tcr), as_stored(lt.regression)))
            for name, lt in maps.levels.items()
        ]
        assert image_loss(read_loss_levels(root / "img-a", root / "img-a")) == image_loss(stored)

    def test_skipped_instances_are_listed(self, tmp_path):
        flat = TextInstance(rect14(10.0, 10.0, 0.0, 30.0), id="flat")
        img = AnnotatedImage("x", 64, 48, (TextInstance(rect14(8.0, 8.0, 48.0, 24.0), id="ok"), flat))
        maps = generate_targets(img)
        write_target_maps(tmp_path / "x", maps)
        assert read_map_meta(tmp_path / "x")["skipped"] == [list(s) for s in maps.skipped]
        assert [s[0] for s in maps.skipped] == ["flat"]


class TestReaderErrors:
    def test_map_dirs_needs_a_directory_with_maps(self, tmp_path):
        with pytest.raises(ParseError, match="not a directory"):
            map_dirs(tmp_path / "absent")
        (tmp_path / "empty" / "no-meta").mkdir(parents=True)
        with pytest.raises(ParseError, match="no map directories with meta.json under"):
            map_dirs(tmp_path / "empty")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not JSON"),
            ("[]", "expected a JSON object"),
            ('{"image_id": 7, "width": 1, "height": 1, "levels": []}', "image_id must be a string"),
            ('{"image_id": "a", "width": true, "height": 1, "levels": []}', "width and height must be integers"),
            ('{"image_id": "a", "width": 0, "height": 1, "levels": []}',
             r"width and height must lie in 1\.\.16384, got 0 x 1"),
            ('{"image_id": "a", "width": 1, "height": -8, "levels": []}',
             r"width and height must lie in 1\.\.16384, got 1 x -8"),
            ('{"image_id": "a", "width": 16385, "height": 1, "levels": []}',
             r"width and height must lie in 1\.\.16384, got 16385 x 1"),
            ('{"image_id": "a", "width": 1, "height": 1, "levels": [{"name": "P3", "stride": 0}]}',
             "levels must be objects with a string name and a positive integer stride"),
            ('{"image_id": "a", "width": 1, "height": 1, "levels": [{"name": "P3", "stride": 16385}]}',
             "levels must be objects with a string name and a positive integer stride of at most 16384"),
            pytest.param('{"image_id": "a", "width": 1, "height": 1, "levels": [{"name": "P3", "stride": 1%s}]}'
                         % ("0" * 400),
                         "levels must be objects with a string name and a positive integer stride of at most 16384",
                         id="stride-1e400"),
            ('{"image_id": "a", "width": 1, "height": 1, "levels": [{"name": "../b/P3", "stride": 8}]}',
             r"level names must be distinct file-name tokens \(\[A-Za-z0-9._-\]\+\), got \['../b/P3'\]"),
            ('{"image_id": "a", "width": 1, "height": 1, "levels": [{"name": "P3", "stride": 8}, '
             '{"name": "P3", "stride": 16}]}', "level names must be distinct file-name tokens"),
        ],
    )
    def test_meta_fields(self, text, message, tmp_path):
        (tmp_path / "meta.json").write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message) as info:
            read_map_meta(tmp_path)
        assert str(tmp_path / "meta.json") in str(info.value)

    def test_shape_against_meta_and_target(self, written, tmp_path):
        _, root = written
        bad = tmp_path / "bad" / "img-a"
        shutil.copytree(root / "img-a", bad)
        write_tensor(bad / "P3_tcr.fct", np.zeros((15, 21)))
        with pytest.raises(ParseError, match=r"img-a/P3_tcr: shape \(15, 21\) does not match \(15, 20\), which"):
            next(iter(read_prediction_maps(bad).levels))
        meta = json.loads((bad / "meta.json").read_text(encoding="utf-8"))
        (bad / "meta.json").write_text(json.dumps({**meta, "width": 168}), encoding="utf-8")
        write_tensor(bad / "P3_tr.fct", np.zeros((15, 21)))
        with pytest.raises(ParseError, match=r"img-a/P3_tr: shape \(15, 21\) does not match target shape \(15, 20\)"):
            list(read_loss_levels(root / "img-a", bad))

    def test_prediction_values_name_the_level(self, written, tmp_path):
        _, root = written
        bad = tmp_path / "img-a"
        shutil.copytree(root / "img-a", bad)
        write_tensor(bad / "P5_tr.fct", np.full(read_tensor(bad / "P5_tr.fct").shape, 2.0))
        with pytest.raises(ParseError, match="img-a/P5: tr probabilities must lie in"):
            list(read_prediction_maps(bad).levels)

    @pytest.mark.parametrize("key, values", [("tr", "tr probabilities"), ("reg", "regression channels"),
                                             ("care", "care flags")])
    def test_non_finite_payload_names_the_file(self, key, values, written, tmp_path):
        _, root = written
        bad = tmp_path / "img-a"
        shutil.copytree(root / "img-a", bad)
        path = bad / f"P3_{key}.fct"
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8 + 4 * struct.unpack_from("<I", blob, 4)[0], 0x7F800001)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"P3_{key}.fct: {values} must be finite"):
            list(read_loss_levels(bad, root / "img-a"))

    def test_prediction_layout_and_presence(self, written, tmp_path):
        _, root = written
        with pytest.raises(ParseError, match="missing prediction directory"):
            list(read_loss_levels(root / "img-a", tmp_path / "absent"))
        pred = tmp_path / "img-a"
        shutil.copytree(root / "img-a", pred)
        meta = json.loads((pred / "meta.json").read_text(encoding="utf-8"))
        (pred / "meta.json").write_text(json.dumps({**meta, "levels": meta["levels"][::-1]}), encoding="utf-8")
        with pytest.raises(ParseError, match=r"image_id and levels \(name, stride\) do not match the target's"):
            list(read_loss_levels(root / "img-a", pred))
