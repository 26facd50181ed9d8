import json
import os
import struct
import threading
import tracemalloc
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import InvalidPolygon, ParseError, parse_detections, parse_jsonl, parse_signatures, read_tensor
from fourier_contours import serialize, write_tensor
from fourier_contours.annotations import TextInstance
from fourier_contours.config import MAX_IMAGE_SIDE, MAX_RECON_POINTS, MAX_SAMPLES, MAX_SUPERSAMPLE, Config
from fourier_contours.config import apply_overrides, load_config
from fourier_contours.config import parse_levels
from fourier_contours.errors import ConfigError
from fourier_contours.evaluation import Detection, detection_lines
from fourier_contours.fourier import reconstruction_lines, signature_lines
from fourier_contours.geometry import Contour
from fourier_contours.serialize import _round9_array, fmt9, json_line, round9
from fourier_contours.svg import render_svg


class TestTensorFile:
    @pytest.mark.parametrize(
        "shape", [(7,), (3, 4), (2, 3, 4), (2, 2, 2, 2)]
    )
    def test_round_trip(self, tmp_path, shape, rng):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.fct"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_float64_input_cast(self, tmp_path):
        arr = np.array([1.0, 2.5, -3.25], dtype=np.float64)
        path = tmp_path / "t.fct"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr.astype(np.float32))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.fct"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"FCT1"
        assert struct.unpack("<I", blob[4:8])[0] == 2
        assert struct.unpack("<II", blob[8:16]) == (2, 3)
        assert len(blob) == 16 + 6 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fct"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.fct"
        write_tensor(path, np.zeros(10, dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ParseError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda b: b[:3], r"bad magic b'FCT', want b'FCT1'"),
            (lambda b: b[:6], "truncated header"),
            (lambda b: b[:4] + struct.pack("<I", 5) + b[8:], "rank 5 outside 1..4"),
            (lambda b: b[:12], "truncated dimension list"),
            (lambda b: b[:-4], r"payload holds 5 float32 values, dims \(2, 3\) require 6"),
            (lambda b: b + b"\x00" * 8, r"payload holds 8 float32 values, dims \(2, 3\) require 6"),
        ],
        ids=["short-magic", "header", "rank", "dims", "short-payload", "long-payload"],
    )
    def test_malformed_file_errors_name_the_file(self, cut, message, tmp_path):
        path = tmp_path / "t.fct"
        write_tensor(path, np.zeros((2, 3)))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ParseError, match=f"{path}: {message}"):
            read_tensor(path)

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "t.fct"
        write_tensor(path, np.ones((22, 240, 320)))  # a 6.4 MiB payload
        tracemalloc.start()
        try:
            arr = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.shape == (22, 240, 320) and arr.dtype == np.float32 and arr.flags.writeable
        # the array and the finiteness check's bool array
        assert peak < 1.5 * arr.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda b: b, None),
            (lambda b: b[:-8], r"payload holds 2998 float32 values, dims \(3, 1000\) require 3000"),
            (lambda b: b + b"\x00" * 4, r"payload holds 3001 float32 values, dims \(3, 1000\) require 3000"),
        ],
        ids=["whole", "short-payload", "long-payload"],
    )
    def test_a_pipe_is_read_to_its_end(self, cut, message, tmp_path):
        """A named pipe reports no size: its payload is checked by what it
        holds, written in chunks."""
        want = np.arange(3000.0).reshape(3, 1000)
        write_tensor(tmp_path / "t.fct", want)
        blob = cut((tmp_path / "t.fct").read_bytes())
        path = tmp_path / "pipe.fct"
        os.mkfifo(path)

        def feed():
            with open(path, "wb", buffering=0) as fh:
                try:
                    for i in range(0, len(blob), 1000):
                        fh.write(blob[i:i + 1000])
                except BrokenPipeError:  # the reader stopped early, which the assertions show
                    pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if message is None:
                assert np.array_equal(read_tensor(path), want)
            else:
                with pytest.raises(ParseError, match=f"{path}: {message}"):
                    read_tensor(path)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()

    def test_rank_limits(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "t.fct", np.zeros((1, 1, 1, 1, 1), dtype=np.float32))
        # scalars are promoted to shape (1,) rather than rejected
        write_tensor(tmp_path / "t.fct", np.float32(3.0))
        assert read_tensor(tmp_path / "t.fct").shape == (1,)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "t.fct", np.array([1.0, np.nan], dtype=np.float32))

    @pytest.mark.parametrize("bits", [0x7F800001, 0xFFBFFFFF, 0x7FC01234, 0x7F800000, 0xFF800000],
                             ids=["signaling-nan", "negative-signaling-nan", "quiet-nan-payload", "inf", "-inf"])
    def test_nonfinite_payload_is_a_parse_error_before_any_cast(self, bits, tmp_path):
        path = tmp_path / "t.fct"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(blob) - 4, bits)
        path.write_bytes(bytes(blob))
        # numpy's casts warn on a signaling NaN; pytest makes a warning an error
        with np.errstate(all="raise"), pytest.raises(ParseError, match=f"{path}: values must be finite"):
            read_tensor(path)
        with pytest.raises(ParseError, match="regression channels must be finite"):
            read_tensor(path, "regression channels")


class TestNumberFormatting:
    def test_nine_significant_digits(self):
        assert fmt9(1 / 3) == "0.333333333"
        assert fmt9(123456789012.0) == "1.23456789e+11"
        assert fmt9(1.0) == "1"
        assert fmt9(-0.25) == "-0.25"

    def test_round9_is_idempotent(self, rng):
        for _ in range(200):
            x = float(rng.normal(scale=10.0 ** rng.integers(-6, 7)))
            once = round9(x)
            assert round9(once) == once

    def test_json_line_compact_and_rounded(self):
        line = json_line({"b": 1 / 3, "a": [1.0, 2.0], "s": "x"})
        assert line == '{"b":0.333333333,"a":[1.0,2.0],"s":"x"}'

    def test_json_line_rounds_list_floats_as_round9(self, rng):
        values = (rng.normal(size=200) * 10.0 ** rng.integers(-8, 9, size=200)).tolist()
        nested = {"a": values, "b": [tuple(values[:3]), np.float64(values[3]), 2, True, None, "x"]}
        head = [round9(v) for v in values[:3]]
        want = {"a": [round9(v) for v in values], "b": [head, round9(values[3]), 2, True, None, "x"]}
        assert json_line(nested) == json.dumps(want, separators=(",", ":"))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=60))
    def test_array_rounding_is_round9_bit_for_bit(self, values):
        got = _round9_array(np.array(values, dtype=np.float64))
        assert got.view(np.int64).tolist() == np.array([round9(v) for v in values]).view(np.int64).tolist()

    def test_array_rounding_at_ties_and_edges(self, rng):
        # ten-digit decimals ending in 5, whose nearest float lies on or just
        # off a 9-digit tie; then powers of ten and their neighbours, the
        # exponent limits, halves near 1e8, and the smallest and largest floats
        ties = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**8, 10**9, 4000), rng.integers(-25, 32, 4000))]
        edges = [10.0**e * f for e in range(-16, 33) for f in (1, 1 + 2**-52, 1 - 2**-53, 9.999999995, 9.99999999)]
        halves = (np.arange(-20_000, 20_000) / 8.0 + 123456789.0).tolist()
        values = np.array(ties + edges + halves + [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
        values = np.concatenate([values, -values, rng.normal(size=4000) * 10.0 ** rng.integers(-20, 35, 4000)])
        want = np.array([round9(v) for v in values.tolist()])
        assert np.array_equal(_round9_array(values).view(np.int64), want.view(np.int64))
        grid = values[:24].reshape(2, 3, 4)
        assert np.array_equal(_round9_array(grid.T).view(np.int64), _round9_array(grid).T.view(np.int64))

    def test_json_line_rejects_nan(self):
        with pytest.raises(ValueError):
            json_line({"x": float("nan")})


# floats that _round9_array hands to round9 (zeros, powers of ten, exact
# 9-digit ties, exponents out of its range), then any finite float
FALLBACK_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -10.0, 1e8, 1e9, 1e22, 1e-14, 1e-20, 1e30,
                   123456789.5, -1234567895.0, 12345678.25, 100000000.5]
FINITE = st.one_of(st.sampled_from(FALLBACK_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def finite_array(data, *shape) -> np.ndarray:
    values = data.draw(st.lists(FINITE, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


class TestRecordLines:
    """Each block writer's lines are json_line's bytes on the same records."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), count=st.integers(0, 5), data=st.data())
    def test_signature_lines_are_json_lines(self, k, count, data):
        flat = finite_array(data, count, 2 * (2 * k + 1))
        instances = [TextInstance(None, data.draw(st.booleans()), f"t{i}") for i in range(count)]
        # the interleaved layout is the memory of the complex coefficients
        lines = signature_lines("img", instances, flat.view(np.complex128))
        assert lines == [
            json_line({"image_id": "img", "instance_id": inst.id, "k": k, "ignore": inst.ignore, "coeffs": row})
            for inst, row in zip(instances, flat.tolist())
        ]

    @settings(max_examples=150, deadline=None)
    @given(n_points=st.integers(3, 6), count=st.integers(0, 5), data=st.data())
    def test_reconstruction_lines_are_json_lines(self, n_points, count, data):
        points = finite_array(data, count, n_points, 2)
        records = [(f"img{i % 2}", f"t{i}", None) for i in range(count)]
        assert reconstruction_lines(records, points) == [
            json_line({"image_id": image_id, "instance_id": instance_id, "points": row.ravel().tolist()})
            for (image_id, instance_id, _), row in zip(records, points)
        ]

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(3, 7), max_size=5), data=st.data())
    def test_ragged_detection_lines_are_json_lines(self, sizes, data):
        detections = [
            Detection(Contour(finite_array(data, m, 2)), data.draw(FINITE), data.draw(st.sampled_from(["", "P3"])))
            for m in sizes
        ]
        assert detection_lines("img", detections) == [
            json_line({"image_id": "img", "level": det.level, "score": det.score, "points": det.contour.flat()})
            for det in detections
        ]

    def test_empty_blocks_give_no_lines(self):
        assert signature_lines("img", [], np.zeros((0, 11), dtype=np.complex128)) == []
        assert reconstruction_lines([], np.zeros((0, 50, 2))) == []
        assert detection_lines("img", []) == []

    def test_each_writer_rounds_one_block(self, monkeypatch, rng):
        calls = []

        def counted(x):
            calls.append(x.size)
            return _round9_array(x)

        monkeypatch.setattr(serialize, "_round9_array", counted)
        square = Contour([[0, 0], [1, 0], [1, 1], [0, 1]])
        signature_lines("img", [TextInstance(square, False, "t0")] * 3, rng.normal(size=(3, 22)).view(np.complex128))
        reconstruction_lines([("img", "t0", None)] * 4, rng.normal(size=(4, 50, 2)))
        detection_lines("img", [Detection(square, 0.5), Detection(Contour(rng.normal(size=(7, 2))), 0.25)])
        assert calls == [3 * 22, 4 * 100, 8 + 14]


# the three JSON-lines readers, each with one good line of its kind
READERS = {
    "annotation": (parse_jsonl, '{"image_id": "a", "width": 64, "height": 48, "instances": []}'),
    "signature": (parse_signatures, '{"image_id": "a", "instance_id": "i", "coeffs": [0, 0, 1, 0, 0, 0]}'),
    "detection": (parse_detections, '{"image_id": "a", "score": 0.5, "points": [0, 0, 4, 0, 4, 4]}'),
}


class TestJsonRecords:
    @pytest.mark.parametrize("line", ["[]", "[1, 2]", "3", '"text"', "null", "true"])
    @pytest.mark.parametrize("kind", READERS)
    def test_a_line_that_is_no_object_has_one_message(self, kind, line):
        reader, good = READERS[kind]
        with pytest.raises(ParseError) as info:
            reader(["", good, line])
        assert (type(info.value), str(info.value), info.value.line) == (ParseError, "line 3: expected a JSON object", 3)

    @pytest.mark.parametrize("kind", READERS)
    def test_a_line_that_is_not_json_is_a_bad_record(self, kind):
        reader, good = READERS[kind]
        with pytest.raises(ParseError) as info:
            reader([good, "{"])
        assert str(info.value).startswith(f"line 2: bad {kind} record: invalid JSON: Expecting property name")

    @pytest.mark.parametrize("kind", READERS)
    def test_an_integer_beyond_the_float_range_is_a_bad_record(self, kind):
        reader, good = READERS[kind]
        huge = "1" + "0" * 400  # json reads it as an int, which no float holds
        line = {
            "annotation": '{"image_id": "b", "width": 64, "height": 48, "instances": [{"points": [0, 0, 4, 0, 4, %s]}]}',
            "signature": '{"image_id": "a", "instance_id": "j", "coeffs": [0, 0, 1, 0, 0, %s]}',
            "detection": '{"image_id": "a", "score": 0.5, "points": [0, 0, 4, 0, 4, %s]}',
        }[kind] % huge
        with pytest.raises(ParseError, match=f"^line 2: bad {kind} record: int too large to convert to float$"):
            reader([good, line])

    @pytest.mark.parametrize("value", ["true", "false", "null", '"1"', "[1]", "[]", '{"x": 1}'])
    @pytest.mark.parametrize("kind", READERS)
    def test_a_number_list_holds_only_ints_and_floats(self, kind, value):
        reader, good = READERS[kind]
        line = {
            "annotation": '{"image_id": "b", "width": 64, "height": 48, '
                          '"instances": [{"points": [0, 0, 4.5, 0, 4, %s]}]}',
            "signature": '{"image_id": "a", "instance_id": "j", "coeffs": [0, 0, 1.5, 0, 0, %s]}',
            "detection": '{"image_id": "a", "score": 0.5, "points": [0, 0, 4.5, 0, 4, %s]}',
        }[kind]
        what = "coeffs" if kind == "signature" else "points"
        with pytest.raises(ParseError, match=f"^line 2: (bad {kind} record: )?{what} must be a flat list of numbers$"):
            reader([good, line % value])
        reader([good, line % "4"])  # ints and floats together are read
        if kind == "annotation":
            with pytest.raises(InvalidPolygon, match="^line 2: points must be a flat list of numbers$"):
                reader([good, line.replace("[0, 0, 4.5, 0, 4, %s]", "7")])

    def test_an_annotation_error_keeps_its_one_line_prefix(self):
        reader, good = READERS["annotation"]
        with pytest.raises(InvalidPolygon, match="^line 2: odd coordinate count 5$"):
            reader([good, good.replace('"a"', '"b"').replace("[]", '[{"points": [0, 0, 4, 0, 4]}]')])


class TestConfig:
    def test_defaults_validate(self):
        Config().validate()

    def test_readme_defaults_table_matches(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme[readme.index("| key "):].splitlines()[2:]
        rows = takewhile(lambda line: line.startswith("|"), lines)
        table = {key.strip(): value.strip() for key, value, _ in (r.split("|")[1:4] for r in rows)}
        assert table == {key: str(value) for key, value in Config().to_dict().items()}

    def test_to_dict_round_trips_levels(self):
        cfg = Config()
        levels = parse_levels(cfg.to_dict()["levels"])
        assert levels == cfg.levels

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nk = 7\nlambda = 0.25\n\nscore_thresh = 0.5\n")
        cfg = load_config(path)
        assert cfg.k == 7
        assert cfg.lam == 0.25
        assert cfg.score_thresh == 0.5
        assert cfg.n == 400  # untouched default

    def test_overrides(self):
        cfg = apply_overrides(Config(), ["k=3", "nms_iou=0.2"])
        assert cfg.k == 3
        assert cfg.nms_iou == 0.2

    def test_levels_override(self):
        cfg = apply_overrides(Config(), ["levels=A:4:0:0.5,B:8:0.5:1"])
        assert [s.name for s in cfg.levels] == ["A", "B"]
        assert [s.stride for s in cfg.levels] == [4, 8]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(Config(), ["frobnicate=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(Config(), ["k=banana"])

    @pytest.mark.parametrize(
        "pair",
        [
            "k=0",
            "n=0",
            "n_prime=0",
            "shrink_factor=1.0",
            "score_thresh=0.0",
            "score_thresh=1.0",
            "nms_iou=1.5",
            "eval_iou=0.0",
            "subset_threshold=-0.1",
            "iou_supersample=0",
            "lambda=-1",
        ],
    )
    def test_out_of_range_rejected(self, pair):
        with pytest.raises(ConfigError):
            apply_overrides(Config(), [pair])

    def test_allocation_caps(self):
        # validation only: nothing is allocated at the caps
        cfg = apply_overrides(
            Config(), [f"n={MAX_SAMPLES}", f"n_prime={MAX_RECON_POINTS}", f"iou_supersample={MAX_SUPERSAMPLE}"]
        )
        assert (cfg.n, cfg.n_prime, cfg.iou_supersample) == (MAX_SAMPLES, MAX_RECON_POINTS, MAX_SUPERSAMPLE)
        for key, cap in (("n", MAX_SAMPLES), ("n_prime", MAX_RECON_POINTS), ("iou_supersample", MAX_SUPERSAMPLE)):
            with pytest.raises(ConfigError, match=f"{key} must .*{cap}"):
                apply_overrides(Config(), [f"{key}={cap + 1}"])
        with pytest.raises(ConfigError, match="n must be <= "):
            apply_overrides(Config(), ["n=1000000000"])

    def test_level_stride_is_capped(self):
        # a 401-digit stride used to overflow in cell_centers
        cfg = apply_overrides(Config(), [f"levels=P3:8:0:0.4,P4:{MAX_IMAGE_SIDE}:0.3:1"])
        assert cfg.levels[1].stride == MAX_IMAGE_SIDE
        for stride in (MAX_IMAGE_SIDE + 1, 10**400):
            with pytest.raises(ConfigError, match=f"stride must lie in 1..{MAX_IMAGE_SIDE}, got {stride}"):
                apply_overrides(Config(), [f"levels=P3:8:0:0.4,P4:16:0.3:0.7,P5:{stride}:0.6:1"])

    def test_degree_capacity_cross_check(self):
        with pytest.raises(ConfigError):
            apply_overrides(Config(), ["n=9", "k=5"])

    def test_check_degree_needs_2k_plus_1_samples(self):
        assert Config().check_degree(199) == 199
        with pytest.raises(ConfigError, match=r"^degree 200 too large for n = 400$"):
            Config().check_degree(200)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.txt")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("k 7\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestSvg:
    def test_structure_and_colors(self):
        out = render_svg(
            100,
            80,
            [np.array([[0, 0], [10, 0], [10, 10]])],
            [np.array([[20, 20], [30, 20], [30, 30]])],
        )
        assert out.startswith("<svg ")
        assert 'width="100"' in out and 'height="80"' in out
        assert out.count("<polygon") == 2
        green, red = [l for l in out.splitlines() if "<polygon" in l]
        assert "#00a000" in green and "0,0 10,0 10,10" in green
        assert "#d00000" in red
        assert out.endswith("</svg>\n")

    def test_coordinates_rounded(self):
        out = render_svg(10, 10, [np.array([[1 / 3, 2 / 3], [1, 0], [1, 1]])], [])
        assert "0.333333333,0.666666667" in out

    def test_empty_layers_allowed(self):
        out = render_svg(10, 10, [], [])
        assert out.count("<polygon") == 0
