import json
import struct
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from fourier_contours import ParseError, read_tensor, write_tensor
from fourier_contours.config import Config, apply_overrides, load_config, parse_levels
from fourier_contours.errors import ConfigError
from fourier_contours.fourier import MAX_RECON_POINTS, MAX_SAMPLES
from fourier_contours.geometry import MAX_SUPERSAMPLE
from fourier_contours.serialize import fmt9, json_line, round9
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

    def test_json_line_rejects_nan(self):
        with pytest.raises(ValueError):
            json_line({"x": float("nan")})


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

    def test_degree_capacity_cross_check(self):
        with pytest.raises(ConfigError):
            apply_overrides(Config(), ["n=9", "k=5"])

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
