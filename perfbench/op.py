"""One pass of a benchmark workload in a fresh Python process.

Times the set-up (``import tmqubit``, ``AtomModel()``,
``default_calibration`` and writing the generated inputs), then, unless
``--setup-only``, runs the workload's operations, checks their outputs
against ``reference.json`` and, with ``--trace 1``, records spans around
tmqubit's public functions. Writes its result as JSON to ``--result``.
``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (benchmark modules; neither imports tmqubit)
import workloads  # noqa: E402

BYTES_LAYER = {"fringe_scan": "figures", "long_rabi": "figures", "cli_pipeline": "cli"}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a
    pool worker), in MB; ``ru_maxrss`` is in KiB on Linux."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _run_pass(args, workdir: Path, engine) -> dict:
    reference = workloads.load_reference()
    tracer = tracing.Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    cache_info = getattr(engine._clock_average_core, "cache_info", None)
    before = cache_info() if cache_info else None

    start = time.perf_counter()
    attempted, failed, problems, files = 0, 0, [], []
    for name, run in workloads.steps(args.workload, workdir, args.seed, args.size):
        attempted += 1
        try:
            written, quantities = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        files += written
        found = workloads.check(reference, args.workload, args.size, args.seed,
                                name, quantities)
        failed += bool(found)
        problems += [f"{name}: {p}" for p in found]
    wall_s = time.perf_counter() - start

    result = {"wall_s": wall_s, "attempted": attempted, "failed": failed,
              "problems": problems, "shots": workloads.shots(args.workload, args.size),
              "peak_rss_mb": _peak_rss_mb(), "notes": []}
    if tracer:
        tracer.write_jsonl(args.spans)
        layers = tracing.layer_metrics(tracer.summary())
        layer = BYTES_LAYER[args.workload]
        layers["figures.bytes_written"] = 0
        layers["cli.bytes_written"] = 0
        layers[f"{layer}.bytes_written"] = workloads.bytes_written(files)
        if before is None:
            result["notes"].append("engine.clock_cache.*: absent, _clock_average_core "
                                   "has no cache_info(); reported as 0")
            hits = misses = 0
        else:
            after = cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
        layers["engine.clock_cache.hits"] = hits
        layers["engine.clock_cache.misses"] = misses
        layers["engine.clock_cache.hit_ratio"] = (hits / (hits + misses)
                                                  if hits + misses else 0.0)
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import tmqubit
    import tmqubit.cli  # noqa: F401  (entry points of the workloads)
    import tmqubit.figures  # noqa: F401
    from tmqubit import engine
    t1 = time.perf_counter()
    model = tmqubit.AtomModel()
    model_build_s = time.perf_counter() - t1
    engine.default_calibration(model)
    workloads.write_inputs(args.workload, workdir, args.seed, args.size)
    setup_s = time.perf_counter() - t0

    if Path(tmqubit.__file__).resolve().parent != ROOT / "src" / "tmqubit":
        print(f"op.py: imported tmqubit from {tmqubit.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "model_build_s": model_build_s}
    if not args.setup_only:
        result.update(_run_pass(args, workdir, engine))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
