#!/usr/bin/env python3
"""Record ``reference.json``: the output quantities of every workload at the
current commit, which ``workloads.check`` then compares each pass against.

    python3 perfbench/record_reference.py [size[:workload] ...]   # default: all

For each size and workload it runs one pass per recorded seed and per band
seed. A quantity that is identical on every seed is stored under
``exact["*"]`` and must match on any seed. Otherwise it is stored per
recorded seed under ``exact["<seed>"]``, and, when at least
``BAND_MIN_SEEDS`` seeds were run in all, as a band
``[median - k*range, median + k*range]`` (k = ``BAND_WIDTH``) over the
recorded and band seeds that any seed's value must fall in. The band seeds
only widen the sample: fit outputs deep in the noise have long tails that
ten seeds do not show. Tolerances are ``atol + 1e-3*|value|``, with
``atol`` from the workload (1e-4 for populations, contrasts and phases): the
planned numerics changes (a Strang split with population error <= 5e-6, a
vectorised clock average converged to 1e-9, a shot-batch axis that keeps
every random draw) stay inside them, while a change of the physics does not.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = {
    "full": {"fringe_scan": range(10), "long_rabi": range(2), "cli_pipeline": range(10)},
    "tiny": {"fringe_scan": range(2), "long_rabi": range(2), "cli_pipeline": range(2)},
}
BAND_SEEDS = {"full": {"fringe_scan": range(100, 130), "cli_pipeline": range(100, 130)}}
BAND_MIN_SEEDS = 5
RTOL = 1e-3
BAND_WIDTH = 3.0


def run_once(workload: str, seed: int, size: str, workdir: Path) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.write_inputs(workload, workdir, seed, size)
    quantities = {}
    for _, run in workloads.steps(workload, workdir, seed, size):
        quantities.update(run()[1])
    print(f"{size} {workload} seed {seed}: {len(quantities)} quantities", file=sys.stderr)
    return quantities


def summarise(runs: dict, seeds: list) -> dict:
    """``runs`` maps every seed run, recorded and band seeds, to its
    quantities; ``seeds`` are the recorded ones."""
    every = list(runs)
    exact: dict[str, dict] = {"*": {}}
    bands = {}
    for name in sorted(runs[seeds[0]]):
        atol = runs[seeds[0]][name][1]
        values = [runs[s][name][0] for s in every]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} is not finite on some seed: {values}")

        def tol(v):
            return atol + RTOL * abs(v)

        if all(v == values[0] for v in values):
            exact["*"][name] = [values[0], tol(values[0])]
            continue
        for seed, value in zip(seeds, values):
            exact.setdefault(str(seed), {})[name] = [value, tol(value)]
        if len(every) >= BAND_MIN_SEEDS:
            mid, spread = statistics.median(values), max(values) - min(values)
            bands[name] = [mid - BAND_WIDTH * spread, mid + BAND_WIDTH * spread]
    return {"seeds": seeds, "band_seeds": [s for s in every if s not in seeds],
            "exact": exact, "bands": bands}


def main() -> int:
    scratch = HERE.parent / ".perfbench_out" / "record"
    reference = workloads.load_reference() if workloads.REFERENCE_PATH.exists() else {}
    for target in sys.argv[1:] or SEEDS:
        size, _, only = target.partition(":")
        for workload, seeds in SEEDS[size].items():
            if only and workload != only:
                continue
            band_seeds = BAND_SEEDS.get(size, {}).get(workload, ())
            runs = {seed: run_once(workload, seed, size, scratch / f"{workload}-{seed}")
                    for seed in [*seeds, *band_seeds]}
            reference.setdefault(size, {})[workload] = summarise(runs, list(seeds))
    shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
