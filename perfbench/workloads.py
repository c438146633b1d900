"""The benchmark's workloads: inputs made from a seed, one pass of work, and
the output quantities that the reference check compares.

A pass is a list of operations. An operation is one figure-runner call or
one command-line command; it fails when it raises, exits non-zero, or one of
its quantities falls outside the recorded reference (see ``check``).

Every quantity is returned as ``name -> (value, atol, sigma)``: ``atol`` is
the absolute tolerance its kind of value allows (populations, contrasts and
phases: 1e-4; fitted physical parameters and counts: 0), to which
``record_reference.py`` adds a relative 1e-3; ``sigma`` is the standard error
the program reports with a fitted value (0 when it reports none), which
widens the any-seed band of ``check``. Quantity names start with the name of
the operation that produced them.

This module imports nothing from tmqubit at import time, so that the set-up
timing in ``op.py`` starts before the first tmqubit import.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FRACTION_ATOL = 1e-4
# A fitted value may lie this many of its own reported standard errors
# outside the any-seed band: deep in the noise a fringe fit can land on a
# contrast far from the usual one, and then reports an error as large. A
# value whose error the program could not determine (inf or NaN) is only
# required to be finite there.
BAND_SIGMAS = 3.0

SIZES = {
    "full": {
        # 3 free times keep one degree of freedom in the T2* fit
        "fringe_scan": {"t_grid": (0.08, 4.0, 10.0), "shots": 16},
        "long_rabi": {"indices": None},
        "cli_pipeline": {"lifetime_points": 12, "lifetime_shots": 16,
                         "ramsey_points": 24, "ramsey_shots": 16,
                         "cp_shots": 16, "probe_points": 12, "probe_shots": 20,
                         "multistart": 4, "workers": 2},
    },
    "tiny": {
        # fewer shots leave the T2* fits undetermined (NaN) on seeds 0 and 1
        "fringe_scan": {"t_grid": (0.08, 4.0, 10.0), "shots": 4},
        # four points of the fig2e grid, one of them a 0.2 s pulse
        "long_rabi": {"indices": (0, 7, 40, 56)},
        "cli_pipeline": {"lifetime_points": 5, "lifetime_shots": 2,
                         "ramsey_points": 8, "ramsey_shots": 2,
                         "cp_shots": 2, "probe_points": 6, "probe_shots": 2,
                         "multistart": 2, "workers": 2},
    },
}

FIG4_DETUNINGS = 24


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _report_values(path) -> dict:
    """``name = value [+- err]`` lines of a fit report or calibration file."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or " = " not in line:
                continue
            key, _, rest = line.partition(" = ")
            values[key.strip()] = [float(v) for v in rest.replace("+-", " ").split()]
    return values


# ------------------------------------------------------------------ fringe_scan


def _fringe_shots(p) -> int:
    # two biases x each free time, plus the 80 ms inset fringe
    return (2 * len(p["t_grid"]) + 1) * FIG4_DETUNINGS * p["shots"]


def _fringe_steps(workdir, seed, p):
    def fig4():
        from tmqubit import figures

        files = figures.fig4(str(workdir), seed=seed, shots=p["shots"],
                             t_grid=p["t_grid"])
        q = {}
        rows = _read_rows(files[0])
        for row in rows:
            tag = f"b{float(row['bias_G']):g}"
            q[f"fig4.contrast_{tag}_T{float(row['T_s']):g}"] = (
                float(row["contrast"]), FRACTION_ATOL, float(row["contrast_err"]))
            q[f"fig4.t2_star_{tag}"] = (float(row["t2_star_fit"]), 0.0, 0.0)
        q["fig4.rows"] = (float(len(rows)), 0.0, 0.0)
        return files, q
    return [("fig4", fig4)]


# -------------------------------------------------------------------- long_rabi


def _fig2e_times():
    """The scan grid of ``figures.fig2e``: 88 pulse lengths up to ~1 s."""
    import numpy as np

    period = 2 * 2e-3
    return np.concatenate([
        np.linspace(0.0, 3 * period, 40),
        0.2 + np.linspace(0, 2 * period, 16),
        0.5 + np.linspace(0, 2 * period, 16),
        1.0 + np.linspace(0, 2 * period, 16),
    ])


def _rabi_shots(p) -> int:
    return 88 if p["indices"] is None else len(p["indices"])


def _rabi_steps(workdir, seed, p):
    def fig2e():
        if p["indices"] is None:
            from tmqubit import figures

            files = figures.fig2e(str(workdir), seed=seed)
            eta3 = {k: float(row["eta3"]) for k, row in enumerate(_read_rows(files[0]))}
        else:
            # The tiny size cannot shrink fig2e's fixed grid, so it runs a few
            # of its points through the same public calls with the same
            # settings; the values are bit-identical to those fig2e writes.
            from tmqubit import AtomModel, LossParameters, NoiseModel, run_shot
            from tmqubit.engine import default_calibration
            from tmqubit.protocols import build_protocol, record_quantity

            model = AtomModel()
            calib = default_calibration(model, camera_floor=0.0)
            ts = _fig2e_times()
            eta3, files = {}, []
            for k in p["indices"]:
                sched = build_protocol("rabi", {"t": float(ts[k]), "bias_field": 0.6})
                _, rec = run_shot(sched, model, NoiseModel.off(seed),
                                  LossParameters.from_table(0.6), 0, calibration=calib)
                eta3[k] = record_quantity(rec, "eta3")
        return files, {f"fig2e.eta3_{k:02d}": (v, FRACTION_ATOL, 0.0)
                       for k, v in eta3.items()}
    return [("fig2e", fig2e)]


# ----------------------------------------------------------------- cli_pipeline


def _cli_inputs(workdir: Path, seed: int, p) -> None:
    common = f"[run]\nseed = {seed}\natoms = 5000\n"
    (workdir / "lifetime.ini").write_text(
        f"{common}shots = {p['lifetime_shots']}\nworkers = {p['workers']}\n"
        "[noise]\nsigma_b_shot = 60e-6\ndrift = random_walk\n"
        "drift_step = 5e-5\ndrift_interval = 1\n"
        "[loss]\ntable_field = 0.1\n[readout]\ncamera_floor = 20\n"
        "[schedule]\nname = lifetime\nstate = g30\nbias_field = 0.1\n")
    (workdir / "ramsey.ini").write_text(
        f"{common}shots = {p['ramsey_shots']}\nworkers = {p['workers']}\n"
        "[noise]\nsigma_b_shot = 60e-6\n[loss]\ntable_field = 0.1\n"
        "[readout]\ncamera_floor = 20\n"
        "[schedule]\nname = ramsey\nt = 0.08\nbias_field = 0.1\n"
        f"[scan]\nparam = detuning\nstart = -6.25\nstop = 6.25\n"
        f"points = {p['ramsey_points']}\n")
    shelve = "clock pi transition=g40-m30; clock pi transition=g30-m20\n"
    (workdir / "cp.seq").write_text(
        "@name cp4\n@bias_field 100mG\n@initial_state g40\n"
        "mw pi/2 0deg\nwait 250ms\n" + "mw pi 90deg\nwait 500ms\n" * 3
        + "mw pi 90deg\nwait 250ms\nmw pi/2 0deg\n"
        + shelve + "measure N4; measure N3\n"
        + shelve + "measure N4_mf0; measure N3_mf0\n")
    (workdir / "cp.ini").write_text(
        f"{common}shots = {p['cp_shots']}\n[noise]\nsigma_b_shot = 60e-6\n"
        f"[loss]\ntable_field = 0.1\n[schedule]\nscript = {workdir / 'cp.seq'}\n")
    (workdir / "probe.ini").write_text(
        f"[run]\nseed = {seed}\natoms = 2000\nshots = {p['probe_shots']}\n"
        "[noise]\nsigma_b_shot = 0\n"
        "[loss]\ntau = inf\nbeta_g4m4 = 0\nbeta_g40 = 0\nbeta_g30 = 0\n"
        "[schedule]\nname = probe_scan\nbias_field = 0.6\n"
        f"[scan]\nparam = t\nstart = 0.05e-3\nstop = 1.2e-3\n"
        f"points = {p['probe_points']}\n")


def _cli_shots(p) -> int:
    return (p["lifetime_points"] * p["lifetime_shots"]
            + p["ramsey_points"] * p["ramsey_shots"] + p["cp_shots"]
            + p["probe_points"] * p["probe_shots"])


def _rows(name, path):
    return {f"{name}.rows": (float(len(_read_rows(path))), 0.0, 0.0)}


def _fit_quantities(name, path, fraction_params=(), mirror=()):
    """Fitted values with their errors; a profile interval's bounds take the
    error of the parameter they bracket. ``mirror`` names parameters the
    model leaves unchanged when all of their signs flip together (the
    fringe's ``t`` and ``phi0``); they are reported with the first one
    positive, as the fit lands on either sign."""
    q = {}
    report = _report_values(path)
    if mirror and report[mirror[0]][0] < 0:
        for param in mirror:
            report[param][0] = -report[param][0]
    for key, vals in report.items():
        if key in ("chi2", "dof"):
            continue
        param = key.removeprefix("profile.")
        atol = FRACTION_ATOL if param in fraction_params else 0.0
        sigma = report[param][1]
        if key.startswith("profile."):
            q[f"{name}.{key}_lo"] = (vals[0], atol, sigma)
            q[f"{name}.{key}_hi"] = (vals[1], atol, sigma)
        else:
            q[f"{name}.{key}"] = (vals[0], atol, sigma)
    return q


def _cp_quantities(path):
    rows = _read_rows(path)
    shots: dict[str, dict] = {}
    for row in rows:
        shots.setdefault(row["shot"], {})[row["measure"]] = float(row["calibrated"])
    eta4 = [s["N4_mf0"] / (s["N4_mf0"] + s["N3_mf0"]) for s in shots.values()]
    return {"simulate_cp.rows": (float(len(rows)), 0.0, 0.0),
            "simulate_cp.eta4_mean": (sum(eta4) / len(eta4), FRACTION_ATOL, 0.0)}


def _calibration_quantities(calib_path, report_path):
    calib = _report_values(calib_path)
    report = _report_values(report_path)
    return {"calibrate_readout.eps_43": (calib["eps_43"][0], FRACTION_ATOL, 0.0),
            "calibrate_readout.dep_3": (calib["dep_3"][0], FRACTION_ATOL, 0.0),
            "calibrate_readout.tau_depletion": (report["tau_depletion"][0], 0.0, 0.0)}


def _cli_steps(workdir, seed, p):
    """The README workflow, one ``tmqubit.cli.main`` call per command."""
    w = Path(workdir)
    lifetime_csv, lifetime_fit = str(w / "lifetime.csv"), str(w / "lifetime_fit.txt")
    ramsey_csv, ramsey_fit = str(w / "ramsey.csv"), str(w / "ramsey_fit.txt")
    cp_csv, probe_csv = str(w / "cp.csv"), str(w / "probe.csv")
    calib, report = str(w / "calibration.txt"), str(w / "calibration_report.txt")
    commands = [
        ("scan_lifetime",
         ["scan", "--config", str(w / "lifetime.ini"), "--param", "t",
          "--start", "0.5", "--stop", "20", "--points", str(p["lifetime_points"]),
          "--out", lifetime_csv],
         [lifetime_csv], lambda: _rows("scan_lifetime", lifetime_csv)),
        ("fit_lifetime",
         ["fit", "--model", "two_body_loss", "--data", lifetime_csv,
          "--init", "5000,16.4,1e-5", "--multistart", str(p["multistart"]),
          "--seed", str(seed), "--profile", "beta_over_v", "--out", lifetime_fit],
         [lifetime_fit], lambda: _fit_quantities("fit_lifetime", lifetime_fit)),
        ("simulate_ramsey",
         ["simulate", "--config", str(w / "ramsey.ini"), "--out", ramsey_csv],
         [ramsey_csv], lambda: _rows("simulate_ramsey", ramsey_csv)),
        ("fit_ramsey",
         ["fit", "--model", "ramsey_fringe", "--data", ramsey_csv,
          "--quantity", "eta4", "--multistart", str(p["multistart"]),
          "--seed", str(seed), "--profile", "c", "--out", ramsey_fit],
         [ramsey_fit],
         lambda: _fit_quantities("fit_ramsey", ramsey_fit, ("a", "c", "phi0"),
                                 mirror=("t", "phi0"))),
        ("simulate_cp",
         ["simulate", "--config", str(w / "cp.ini"), "--out", cp_csv],
         [cp_csv], lambda: _cp_quantities(cp_csv)),
        ("simulate_probe",
         ["simulate", "--config", str(w / "probe.ini"), "--out", probe_csv],
         [probe_csv], lambda: _rows("simulate_probe", probe_csv)),
        ("calibrate_readout",
         ["calibrate-readout", "--data", probe_csv, "--out", calib,
          "--report", report],
         [calib, report], lambda: _calibration_quantities(calib, report)),
    ]

    def step(argv, files, read):
        def run():
            from tmqubit.cli import main

            code = main(argv)
            if code != 0:
                raise RuntimeError(f"tmqubit {argv[0]} exited with code {code}")
            return files, read()
        return run

    return [(name, step(argv, files, read)) for name, argv, files, read in commands]


# ---------------------------------------------------------------------- registry

WORKLOADS = {
    "fringe_scan": {"shots": _fringe_shots, "steps": _fringe_steps, "inputs": None},
    "long_rabi": {"shots": _rabi_shots, "steps": _rabi_steps, "inputs": None},
    "cli_pipeline": {"shots": _cli_shots, "steps": _cli_steps, "inputs": _cli_inputs},
}


def write_inputs(workload: str, workdir: Path, seed: int, size: str) -> None:
    """Write the generated inputs of one pass: the parameters as JSON, plus
    the INI and sequence files of the command-line workload."""
    p = SIZES[size][workload]
    (workdir / "inputs.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "size": size, "params": p}, indent=1))
    make = WORKLOADS[workload]["inputs"]
    if make is not None:
        make(workdir, seed, p)


def shots(workload: str, size: str) -> int:
    return WORKLOADS[workload]["shots"](SIZES[size][workload])


def steps(workload: str, workdir: Path, seed: int, size: str):
    """The operations of one pass as ``[(name, run), ...]``; ``run()`` does
    the operation and returns ``(files written, quantities)``."""
    return WORKLOADS[workload]["steps"](workdir, seed, SIZES[size][workload])


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(reference: dict, workload: str, size: str, seed: int, operation: str,
          quantities: dict) -> list[str]:
    """Problems with one operation's quantities against the reference.

    ``exact`` holds ``[value, tol]`` for quantities that do not depend on the
    seed (key ``"*"``) and for the seeds recorded at the reference commit;
    ``bands`` holds ``[lo, hi]`` ranges that any seed must fall in, widened
    by ``BAND_SIGMAS`` times the standard error reported with the value.
    """
    ref = reference.get(size, {}).get(workload, {})
    exact = {**ref.get("exact", {}).get("*", {}),
             **ref.get("exact", {}).get(str(seed), {})}
    bands = ref.get("bands", {})
    prefix = operation + "."
    problems = []
    for name in sorted(set(exact) | set(bands)):
        if not name.startswith(prefix):
            continue
        if name not in quantities:
            problems.append(f"{name}: missing from the output")
            continue
        value, _, sigma = quantities[name]
        if not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not finite")
            continue
        if name in exact and abs(value - exact[name][0]) > exact[name][1]:
            problems.append(f"{name} = {value!r}, reference {exact[name][0]!r} "
                            f"+- {exact[name][1]!r}")
        if name in bands:
            lo, hi = bands[name]
            slack = BAND_SIGMAS * sigma if math.isfinite(sigma) else math.inf
            if not lo - slack <= value <= hi + slack:
                problems.append(f"{name} = {value!r} +- {sigma!r} outside {bands[name]!r}")
    for name, (value, _, _) in quantities.items():
        if name not in exact and name not in bands and not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not finite")
    return problems


def bytes_written(files) -> int:
    return sum(os.path.getsize(f) for f in files)
