"""Pinned sha256 of the fidelity, targets, decode and eval outputs on a small
seeded corpus.

The hashes were recorded before polygon IoU moved onto per-contour row spans
on the global supersample lattice.  At the default supersample every IoU is
unchanged by that, so every output byte must stay as pinned here, whatever
--jobs is.  A change that moves them must say why and re-pin.

The targets hash covers every .fct tensor and meta.json under the output
directory: each file's relative path, then its bytes, in sorted path order.
It was recorded before rasterize_grid and shrink_polygon's containment test
moved onto the row-span primitive, which must not move a single target cell.
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
    "targets": "02d58aecd468c181c9e5c86fdefc6f16939478ddca9fdb7b88571192ba1872b7",
}


def _digest(path):
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    names = sorted(
        p.relative_to(path).as_posix()
        for p in path.rglob("*")
        if p.suffix == ".fct" or p.name == "meta.json"
    )
    for name in names:
        h.update(name.encode("utf-8"))
        h.update((path / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_outputs_match_pinned_hashes(jobs, tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    images = roundtrip_corpus(seed=11, count=4, side=256)
    ann.write_text("".join(line + "\n" for line in write_jsonl(images, fmt=round9)), encoding="utf-8")
    outputs = {name: tmp_path / name for name in PINNED}
    outputs["targets"] = tmp_path / "gt"
    steps = [
        ["fidelity", str(ann), "--degrees", "1,3,5,8", "-o", str(outputs["fidelity"])],
        ["targets", str(ann), "--out-dir", str(outputs["targets"])],
        ["decode", "--maps-dir", str(tmp_path / "gt"), "-o", str(outputs["decode"])],
        ["eval", "--detections", str(outputs["decode"]), "--annotations", str(ann),
         "-o", str(outputs["eval"])],
    ]
    for argv in steps:
        assert main(["--jobs", jobs] + argv) == 0, argv
    capsys.readouterr()
    got = {name: _digest(path) for name, path in outputs.items()}
    assert got == PINNED
