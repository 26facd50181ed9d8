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

The loss hash scores seeded noisy predictions against the targets, so every
term, the regression sum included, is nonzero.  It was recorded while the
per-image loss still lived in the command-line module, before it moved into
losses.image_loss, which must not change its summation order.

The dense decode hashes decode noisier predictions (regression noise
N(0, 2) px), so every instance yields tens of candidates whose IoUs with
the kept one spread over the whole range, at two NMS thresholds.  They
were recorded before poly_nms first tested candidates on sparse lattice
rows, which must not change which candidates it keeps.
"""

import hashlib
import json

import numpy as np
import pytest

from fourier_contours.annotations import write_jsonl
from fourier_contours.cli import main
from fourier_contours.serialize import read_tensor, round9, write_tensor
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


PINNED_LOSS = "8b89402a293516b963ec337f8b27020caa2c37bef9af8d467e85d1d720bb2798"


def _write_noisy_predictions(gt_root, pred_root, seed=7, reg_sigma=0.25):
    """Prediction maps as a model might write them: probabilities
    0.85 * target + U(0, 0.1), regression maps plus N(0, reg_sigma) noise."""
    rng = np.random.default_rng(seed)
    for gt_dir in sorted(p for p in gt_root.iterdir() if p.is_dir()):
        out = pred_root / gt_dir.name
        out.mkdir(parents=True)
        meta = (gt_dir / "meta.json").read_text(encoding="utf-8")
        (out / "meta.json").write_text(meta, encoding="utf-8")
        for level in json.loads(meta)["levels"]:
            for key in ("tr", "tcr", "reg"):
                name = f"{level['name']}_{key}.fct"
                gt = read_tensor(gt_dir / name).astype(np.float64)
                if key == "reg":
                    noisy = gt + rng.normal(0.0, reg_sigma, gt.shape)
                else:
                    noisy = 0.85 * gt + rng.uniform(0.0, 0.1, gt.shape)
                write_tensor(out / name, noisy)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_loss_of_noisy_predictions_matches_pinned_hash(jobs, tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    images = roundtrip_corpus(seed=11, count=4, side=256)
    ann.write_text("".join(line + "\n" for line in write_jsonl(images, fmt=round9)), encoding="utf-8")
    assert main(["targets", str(ann), "--out-dir", str(tmp_path / "gt")]) == 0
    _write_noisy_predictions(tmp_path / "gt", tmp_path / "pred")
    out = tmp_path / "loss.json"
    argv = ["--jobs", jobs, "loss", "--gt-dir", str(tmp_path / "gt"),
            "--pred-dir", str(tmp_path / "pred"), "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert min(report["l_tr"], report["l_tcr"], report["l_reg"]) > 0.0
    assert _digest(out) == PINNED_LOSS


PINNED_DENSE_DECODE = {
    "0.1": "3ee190194e57b1621979661b756795d242c42694ebce5f50a388e3c33cd23967",
    "0.5": "d14540e217b49ea20bb696699cc74cfaf59c5cc7a8f8eec0d347ea3179ca406d",
}


@pytest.mark.parametrize("nms_iou", sorted(PINNED_DENSE_DECODE))
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_decode_of_dense_noisy_candidates_matches_pinned_hash(jobs, nms_iou, tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    images = roundtrip_corpus(seed=11, count=4, side=256)
    ann.write_text("".join(line + "\n" for line in write_jsonl(images, fmt=round9)), encoding="utf-8")
    assert main(["targets", str(ann), "--out-dir", str(tmp_path / "gt")]) == 0
    _write_noisy_predictions(tmp_path / "gt", tmp_path / "pred", reg_sigma=2.0)
    out = tmp_path / "dets.jsonl"
    argv = ["--jobs", jobs, "--set", f"nms_iou={nms_iou}", "decode",
            "--maps-dir", str(tmp_path / "pred"), "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(out.read_text(encoding="utf-8").splitlines()) >= 8
    assert _digest(out) == PINNED_DENSE_DECODE[nms_iou]
