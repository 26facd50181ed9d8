"""Pinned sha256 of the decode, eval and fidelity outputs on a small seeded
corpus.

The hashes were recorded before polygon IoU moved onto per-contour row spans
on the global supersample lattice.  At the default supersample every IoU is
unchanged by that, so every output byte must stay as pinned here, whatever
--jobs is.  A change that moves them must say why and re-pin.
"""

import hashlib

import pytest

from fourier_contours.annotations import write_jsonl
from fourier_contours.cli import main
from fourier_contours.serialize import round9
from fourier_contours.synth import roundtrip_corpus

PINNED = {
    "fidelity": "100f20a9dfe35a396da747ff3152a3c1c399ac2c419b22e7d558b307fe836891",
    "decode": "cacf0e1778b17b7b4730dedb322844b1438ce219beacb9803a67da9213bf8396",
    "eval": "cf5d934152d10d0b058eab5a11362cb93a07ad3b17958e33cc13d4973596c867",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_outputs_match_pinned_hashes(jobs, tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    images = roundtrip_corpus(seed=11, count=4, side=256)
    ann.write_text("".join(line + "\n" for line in write_jsonl(images, fmt=round9)), encoding="utf-8")
    outputs = {name: tmp_path / name for name in PINNED}
    steps = [
        ["fidelity", str(ann), "--degrees", "1,3,5,8", "-o", str(outputs["fidelity"])],
        ["targets", str(ann), "--out-dir", str(tmp_path / "gt")],
        ["decode", "--maps-dir", str(tmp_path / "gt"), "-o", str(outputs["decode"])],
        ["eval", "--detections", str(outputs["decode"]), "--annotations", str(ann),
         "-o", str(outputs["eval"])],
    ]
    for argv in steps:
        assert main(["--jobs", jobs] + argv) == 0, argv
    capsys.readouterr()
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}
    assert got == PINNED
