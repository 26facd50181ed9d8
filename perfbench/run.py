"""Benchmark of the fctool command chain.

    python3 perfbench/run.py --workload {roundtrip,crowded} \
        --seed N --seconds S --trace {0,1} [--check-jobs]

Run from the root of a source checkout.  The workload's inputs are generated
from the seed (see workloads.py).  The chain then runs as separate `fctool`
processes, each started after the previous one exits (a closed loop with one
client), pass after pass for about S seconds, at least twice.  A pass whose
outputs fail the workload's check, or differ by a byte from the first pass,
counts as failed.

The speed of a shared host swings by 10-30% within seconds and drifts over
minutes, for every process alike.  So the pass also runs a gauge before the
import probe, between commands and after the last: a fresh interpreter that
imports numpy and runs a fixed loop, with no fourier_contours code.  Each
timing is divided by the geometric mean of the two gauges around it, and the
median of these ratios is multiplied by GAUGE_REF_S, the gauge's median on
the reference host: the times then read in seconds at that host's usual
speed, the host's swings largely cancel, and a change to the program moves
them one for one.
The record line keeps the raw wall times, the gauges and the same metrics
computed from the raw wall times.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over all
untraced runs of each command, and for setup_s over one import probe per
pass.  --trace 1 alternates untraced passes with passes under
perfbench/tracer.py and prints the per-layer metrics instead.  --check-jobs
adds one pass at the other --jobs value (1 <-> 2) that must reproduce the
outputs byte for byte.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records the
inputs, the environment and every command run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = "import sys; from fourier_contours.cli import main; sys.exit(main())"
SETUP_PROBE = "import time, fourier_contours.cli as m; print(time.monotonic(), m.__file__)"
GAUGE = """\
import numpy as np
pts = np.random.default_rng(0).random((64, 2)) * 100.0
acc = 0.0
for i in range(1500):
    q = pts + i * 1e-3
    acc += float(np.hypot(*(q - q.mean(axis=0)).T).sum())
    acc += sum(k * i % 13 for k in range(40))
"""
# median gauge wall time on the reference host: 2 vCPUs of a shared
# Intel Xeon, Python 3.11.7, numpy 2.4.6
GAUGE_REF_S = 0.21
COMMAND_TIMEOUT_S = 150.0
COMMANDS = ("embed", "reconstruct", "fidelity", "subset", "targets", "decode", "loss", "eval")
INSTANCE_COMMANDS = ("embed", "reconstruct", "fidelity")


@dataclass
class CommandRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int


@dataclass
class Pass:
    jobs: int
    traced: bool
    runs: dict = field(default_factory=dict)     # command -> CommandRun, for those run
    ok: bool = True                              # every command run exited 0
    setup_s: float = 0.0                         # the import probe
    gauges: list = field(default_factory=list)   # around the probe and each command
    scaled: dict = field(default_factory=dict)   # "setup" or command -> time / its gauges
    elapsed_s: float = 0.0                       # the whole pass, checks included
    problems: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)    # command -> span list

    @property
    def chain_scaled(self) -> float:
        return sum(t for name, t in self.scaled.items() if name != "setup")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # numpy's own thread pools stay at one thread: --jobs alone sets the workers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_command(argv: list, cwd: Path, env: dict, stderr_path: Path) -> CommandRun:
    """Run one process to its end; wall time from spawn to reaped exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def run_gauge(env: dict) -> float:
    """Wall time of one run of GAUGE, spawn to reaped exit."""
    run = run_command([sys.executable, "-c", GAUGE], ROOT, env, Path(os.devnull))
    if run.code != 0:
        raise RuntimeError(f"the gauge exited {run.code}")
    return run.wall_s


def digest_outputs(work: Path, steps) -> dict:
    """sha256 of every output file, keyed by its path under the work dir."""
    out = {}
    for step in steps:
        path = work / step.output
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            out[str(f.relative_to(work))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def run_pass(spec, steps, images, seed: int, work: Path, jobs: int, traced: bool) -> Pass:
    """Probe set-up, run the chain, each command between two gauges, then
    check every output."""
    env = child_env()
    result = Pass(jobs=jobs, traced=traced)
    start = time.perf_counter()
    result.gauges.append(run_gauge(env))
    result.setup_s = measure_setup()
    result.gauges.append(run_gauge(env))
    options = ["--jobs", str(jobs)]
    for step in steps:
        if traced:
            spans_path = work / f"{step.command}.spans.json"
            launcher = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        else:
            launcher = [sys.executable, "-c", LAUNCH]
        stderr_path = work / f"{step.command}.stderr"
        run = result.runs[step.command] = run_command(launcher + options + list(step.args), work, env, stderr_path)
        if run.code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
            result.problems.append(f"{step.command} exited {run.code}: {tail}")
            result.ok = False
            return result
        result.gauges.append(run_gauge(env))
        if traced:
            result.spans[step.command] = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        if step.command == "targets" and spec.noisy_predictions:
            W.write_noisy_predictions(work / "gt", work / W.PRED_DIR, seed)
    times = [("setup", result.setup_s)] + [(c, r.wall_s) for c, r in result.runs.items()]
    for (name, t), before, after in zip(times, result.gauges, result.gauges[1:]):
        result.scaled[name] = t / (before * after) ** 0.5
    result.problems += W.check_outputs(spec, images, work)
    result.digest = digest_outputs(work, steps)
    result.elapsed_s = time.perf_counter() - start
    return result


def measure_setup() -> float:
    """Fresh interpreter to `fourier_contours.cli` imported, in seconds."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fourier_contours imported from {out[1]}, not from {SRC}")
    return float(out[0]) - start


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# metrics


def _samples(passes, command: str, attr: str) -> list[float]:
    return [getattr(p.runs[command], attr) for p in passes if command in p.runs]


def end_to_end(steps, timed, attempted: int, failed: int, scaled: bool = True) -> dict:
    """Medians over every untraced run; a throughput is items over the median
    time, the chain's the images over the sum of those medians.  Times are
    gauge-scaled (see the module docstring), or raw wall times if not `scaled`."""
    items = {step.command: step.items for step in steps}

    def median_s(name: str) -> float:
        if scaled:
            return statistics.median(p.scaled[name] for p in timed) * GAUGE_REF_S
        if name == "setup":
            return statistics.median(p.setup_s for p in timed)
        return statistics.median(_samples(timed, name, "wall_s"))

    walls = {c: median_s(c) for c in COMMANDS}
    metrics = {
        "setup_s": (median_s("setup"), "s"),
        "chain.img_per_s": (items["targets"] / sum(walls.values()), "img/s"),
    }
    for command in COMMANDS:
        unit = "inst/s" if command in INSTANCE_COMMANDS else "img/s"
        metrics[f"{command}.{unit.split('/')[0]}_per_s"] = (items[command] / walls[command], unit)
    peak_kb = max(statistics.median(_samples(timed, c, "rss_kb")) for c in COMMANDS)
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    return metrics


def per_layer(timed, traced, jobs: int) -> dict:
    per_pass = [T.summarize(p.spans, {c: r.wall_s for c, r in p.runs.items()}, jobs) for p in traced]
    metrics = {
        name: (statistics.median(d[name][0] for d in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    for command in COMMANDS:
        cpu = statistics.median(_samples(timed, command, "cpu_s"))
        wall = statistics.median(_samples(timed, command, "wall_s"))
        metrics[f"cli.{command}.cpu_s"] = (cpu, "s")
        metrics[f"cli.{command}.parallel_eff"] = (cpu / (wall * jobs), "ratio")
    overhead = (
        statistics.median(p.chain_scaled for p in traced)
        / statistics.median(p.chain_scaled for p in timed)
        - 1.0
    )
    metrics["cli.trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, check_jobs: bool, work: Path, images=None):
    """Run the benchmark; returns (result object, record).  `images` replaces
    the generated corpus, so tests can run a smaller one."""
    spec = W.SPECS[workload]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record["environment"] = environment()
    record["environment"]["load_1m_before"] = os.getloadavg()[0]

    measure_setup()   # warm-up: the first import may compile bytecode
    if images is None:
        images = W.corpus(spec, seed)
    work.mkdir(parents=True, exist_ok=True)
    W.write_annotations(images, work / W.ANNOTATIONS)
    steps = W.chain(spec, images)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(spec, steps, images, seed, work, spec.jobs, traced))
        if not passes[-1].ok:
            break
        # the next pass would take about as long as an untraced one so far
        upcoming = statistics.median(p.elapsed_s for p in passes if not p.traced)
        if len(passes) >= 2 and time.perf_counter() - start + upcoming > seconds:
            break
    inputs = W.describe(images)
    maps = work / (W.PRED_DIR if spec.noisy_predictions else "gt")
    inputs["decode_candidates"] = W.decode_candidates(maps) if maps.is_dir() else 0
    if check_jobs:
        passes.append(run_pass(spec, steps, images, seed, work, 2 if spec.jobs == 1 else 1, False))

    attempted = failed = 0
    for p in passes:
        attempted += len(p.runs) + 2   # the command runs, the output check, the repeat check
        if not p.ok:
            failed += 3   # the failed run and both checks
            continue
        failed += bool(p.problems)
        if p.digest != passes[0].digest:
            p.problems.append("outputs differ from the first pass")
            failed += 1

    record["environment"]["load_1m_after"] = os.getloadavg()[0]
    record["inputs"] = inputs
    record["passes"] = [
        {
            "jobs": p.jobs,
            "traced": p.traced,
            "problems": p.problems,
            "setup_s": p.setup_s,
            "gauges": p.gauges,
            "runs": {c: {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_kb": r.rss_kb} for c, r in p.runs.items()},
        }
        for p in passes
    ]
    timed = [p for p in passes if p.ok and not p.traced and p.jobs == spec.jobs]
    if trace:
        metrics = per_layer(timed, [p for p in passes if p.ok and p.traced], spec.jobs)
    else:
        metrics = end_to_end(steps, timed, attempted, failed)
        record["unscaled"] = {name: value for name, (value, _) in end_to_end(steps, timed, attempted, failed, False).items()}
    want = declared(trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("roundtrip", "crowded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-jobs", action="store_true",
                        help="add a pass at the other --jobs value and require identical outputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if W is None:
        print(f"error: no fourier_contours sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.check_jobs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


sys.path.insert(0, str(SRC))
import tracer as T  # noqa: E402

try:
    import workloads as W  # noqa: E402  (imports fourier_contours from SRC)
except ModuleNotFoundError:  # no sources to benchmark; main() says so
    W = None

if __name__ == "__main__":
    sys.exit(main())
