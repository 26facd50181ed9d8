"""Each fctool command loads only the library modules it runs.

The package registers its modules as lazy modules, which run on their first
attribute use, and each command imports its names at its top.  A fresh
interpreter runs one command at --jobs 2; a module counts as loaded once its
class is plain types.ModuleType again.  Before Python 3.12 two threads that
first touch one lazy module at once can race, so no module may be first
loaded after the first worker thread starts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fourier_contours.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# what `import fourier_contours.cli` loads; every command loads these too
BASE = {"cli", "config", "errors", "records", "serialize"}

# command -> (its arguments, with {tmp} for the input directory; the modules it loads beyond BASE)
COMMANDS = {
    "embed": ("embed {tmp}/ann.jsonl -o {tmp}/out", {"annotations", "fourier", "geometry"}),
    "reconstruct": ("reconstruct {tmp}/sigs.jsonl -o {tmp}/out", {"fourier", "geometry"}),
    "fidelity": ("fidelity {tmp}/ann.jsonl --degrees 1,3 -o {tmp}/out", {"annotations", "fourier", "geometry"}),
    "fidelity --svg-dir": (
        "fidelity {tmp}/ann.jsonl --svg-dir {tmp}/svg -o {tmp}/out",
        {"annotations", "fourier", "geometry", "svg"},
    ),
    "subset": ("subset {tmp}/ann.jsonl -o {tmp}/out", {"annotations", "geometry"}),
    "targets": ("targets {tmp}/ann.jsonl --out-dir {tmp}/maps", {"annotations", "fourier", "geometry", "mapdir",
                                                                 "targets"}),
    "decode": ("decode --maps-dir {tmp}/gt -o {tmp}/out", {"decode", "evaluation", "fourier", "geometry", "mapdir"}),
    "loss": ("loss --gt-dir {tmp}/gt --pred-dir {tmp}/gt -o {tmp}/out", {"fourier", "geometry", "losses", "mapdir"}),
    "eval": ("eval --detections {tmp}/dets.jsonl --annotations {tmp}/ann.jsonl -o {tmp}/out",
             {"annotations", "evaluation", "geometry"}),
    "plot": ("plot {tmp}/ann.jsonl --out-dir {tmp}/plot", {"annotations", "fourier", "geometry", "svg"}),
    "plot --detections": (
        "plot {tmp}/ann.jsonl --detections {tmp}/dets.jsonl --out-dir {tmp}/plot",
        {"annotations", "evaluation", "geometry", "svg"},
    ),
}

# prints the exit code of the command in its arguments, if any, the modules
# loaded when the first worker thread started, and those loaded at the end
SCRIPT = """
import json, sys, threading, types

def loaded():
    return sorted(name.split(".", 1)[1] for name, module in list(sys.modules.items())
                  if name.startswith("fourier_contours.") and type(module) is types.ModuleType)

at_first_worker = []
start = threading.Thread.start

def start_after_snapshot(self):
    if not at_first_worker:
        at_first_worker.append(loaded())
    start(self)

threading.Thread.start = start_after_snapshot
from fourier_contours.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({"code": code, "at_first_worker": at_first_worker[0] if at_first_worker else None, "end": loaded()}))
"""


def fresh(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two images, so every command maps two items and --jobs 2 starts two
    workers: annotations, their signatures, target maps and detections."""
    tmp = tmp_path_factory.mktemp("startup")
    rect = [8, 8, 56, 8, 56, 32, 8, 32]
    bent = [64, 40, 84, 60, 104, 40, 120, 40, 84, 80, 48, 40]
    (tmp / "ann.jsonl").write_text(
        json.dumps({"image_id": "a", "width": 128, "height": 96, "instances": [{"points": rect}, {"points": bent}]})
        + "\n"
        + json.dumps({"image_id": "b", "width": 96, "height": 64, "instances": [{"points": rect}]})
        + "\n",
        encoding="utf-8",
    )
    assert main(["embed", str(tmp / "ann.jsonl"), "-o", str(tmp / "sigs.jsonl")]) == 0
    assert main(["targets", str(tmp / "ann.jsonl"), "--out-dir", str(tmp / "gt")]) == 0
    assert main(["decode", "--maps-dir", str(tmp / "gt"), "-o", str(tmp / "dets.jsonl")]) == 0
    return tmp


@pytest.fixture(scope="module", params=list(COMMANDS))
def command_run(request, inputs):
    args, modules = COMMANDS[request.param]
    return fresh(["--jobs", "2", *(arg.format(tmp=inputs) for arg in args.split())]), modules


def test_plain_import_loads_only_the_base():
    assert set(fresh([])["end"]) == BASE


def test_each_command_loads_only_its_modules(command_run):
    seen, modules = command_run
    assert seen["code"] == 0
    assert set(seen["end"]) == BASE | modules


def test_no_module_is_first_loaded_in_a_worker_thread(command_run):
    seen, _ = command_run
    assert seen["at_first_worker"] is not None, "the command started no worker thread"
    assert seen["end"] == seen["at_first_worker"]
