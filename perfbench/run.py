#!/usr/bin/env python3
"""tmqubit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fringe_scan --seed 0 --seconds 20 --trace 0

Runs passes of the workload, each in a fresh Python process (``op.py``),
while at least half of another pass fits in ``--seconds`` (at least one
pass), and sets up at least
five times in all. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. It prints one line per metric,
``name = value unit``, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a result
file with the machine description go to ``.perfbench_out/``. See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fringe_scan", "long_rabi", "cli_pipeline")
MODULES = ("atom", "schedule", "protocols", "engine", "readout", "fitting",
           "figures", "config", "cli")
MIN_SETUP_SAMPLES = 5
# every child must end before this many seconds into the run; the whole run
# has to exit within 180 s
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), **versions}


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child in its own process group; on overrunning the deadline kill
    the group (pool workers included) and raise."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:3])}... did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with code {proc.returncode}:\n"
                         f"{err[-3000:]}")
    return err


def spans_path(args) -> Path:
    return OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"


class Runner:
    def __init__(self, args, run_dir: Path, deadline: float):
        self.args = args
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def op(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        a = self.args
        result = self.run_dir / f"op{self.count}.json"
        argv = [sys.executable, str(HERE / "op.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--size", a.size,
                "--workdir", str(self.run_dir / f"op{self.count}"),
                "--result", str(result), "--trace", str(int(trace)),
                "--spans", str(spans_path(a)),
                "--run-id", f"{a.workload}-seed{a.seed}-{os.getpid()}-op{self.count}"]
        if setup_only:
            argv.append("--setup-only")
        run_child(argv, self.deadline)
        with open(result) as fh:
            return json.load(fh)


def import_times(deadline: float) -> dict:
    """Cumulative import time of each tmqubit module, from ``-X importtime``
    in a fresh process (a module's figure includes what it imports first)."""
    err = run_child([sys.executable, "-X", "importtime", "-c",
                     "import sys; sys.path.insert(0, 'src'); "
                     "import tmqubit, tmqubit.figures, tmqubit.cli"], deadline)
    times = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+tmqubit\.(\w+)$", line)
        if m:
            times[m.group(2)] = int(m.group(1)) * 1e-6
    return {f"{module}.import_s": times.get(module, 0.0) for module in MODULES}


def measure(args, runner: Runner, started: float) -> tuple[dict, list[dict], list[float]]:
    """Run the passes and set-ups; returns (metrics, passes, set-up samples)."""
    passes, traced = [], []
    end = started + args.seconds
    while True:
        pass_start = time.monotonic()
        if args.trace:
            traced_turn = len(passes) > len(traced)
            (traced if traced_turn else passes).append(runner.op(trace=traced_turn))
            done = passes and traced
        else:
            passes.append(runner.op())
            done = True
        # start another pass only if at least half of one like the last fits:
        # a 55 s run then takes two or three fringe_scan passes of ~20 s
        now = time.monotonic()
        if done and now + 0.5 * (now - pass_start) > end:
            break
    setups = [p["setup_s"] for p in passes + traced]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.op(setup_only=True)["setup_s"])

    med = statistics.median
    if args.trace:
        layers = {name: med(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers.update(import_times(runner.deadline))
        layers["atom.model_build_s"] = med(p["model_build_s"] for p in traced)
        layers["trace.overhead_frac"] = (med(p["wall_s"] for p in traced)
                                         / med(p["wall_s"] for p in passes) - 1.0)
        metrics = layers
    else:
        metrics = {
            "wall_s": med(p["wall_s"] for p in passes),
            "setup_s": med(setups),
            "shots_per_s": med(p["shots"] / p["wall_s"] for p in passes),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        }
    return metrics, passes + traced, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size, a few seconds a pass")
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "tmqubit" / "__init__.py").is_file():
        print(f"run.py: no tmqubit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir()
    if args.trace:
        spans_path(args).unlink(missing_ok=True)
    try:
        metrics, passes, setups = measure(args, Runner(args, run_dir, started + RUN_LIMIT_S),
                                         started)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run.py: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = machine()
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)} "
          f"wall_s per pass={[round(p['wall_s'], 3) for p in passes]} "
          f"setup samples={len(setups)}")
    print(f"machine: {json.dumps(info)}")
    for p in passes:
        for line in p["problems"] + p["notes"]:
            print(f"  {line}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)")

    report = {"args": vars(args), "machine": info, "attempted": attempted,
              "failed": failed, "metrics": metrics, "passes": passes,
              "setup_samples": setups}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
