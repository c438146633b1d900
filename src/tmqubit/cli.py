"""Batch front end: simulate, scan, fit, reproduce, calibrate-readout.

Every subcommand is deterministic under a fixed seed and configuration and
writes versioned CSV (``# schema=1``); the resolved configuration is
embedded in each output for provenance.  Exit codes: 0 success, 2
configuration error, 3 fit non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys
from itertools import repeat

import numpy as np

from .config import ConfigError, RunConfig, load_config, scan_grid
from .engine import run_scan
from .figures import FIGURES
from .fitting import (
    DataError,
    Dataset,
    FitError,
    FitNonConvergence,
    MODELS,
    chi2_profile,
    csv_column,
    mean_and_error,
    multistart,
    read_csv,
    write_csv,
)
from .protocols import (QUANTITIES, build_protocol, builder_config_from_params, check_params,
                        record_quantity)
from .readout import (CrosstalkCalibration, ReadoutRecord, fit_probe_scan, probe_parabola,
                      probe_scan_points)
from .schedule import ParseError, ScheduleError, parse_sequence

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4


# ----------------------------------------------------------------- simulate


def _builds(cfg: RunConfig, params: dict, model) -> bool:
    try:
        if cfg.schedule_script:
            check_params(None, params)
        else:
            build_protocol(cfg.schedule_name, params).validate(model)
    except ScheduleError:
        return False
    return True


def _blamed_key(cfg: RunConfig, params: dict, scan_value, model) -> str:
    """The config entry to name for a schedule that does not build: the scan
    point when the ``[schedule]`` values alone build, else the first
    ``[schedule]`` key without which they do."""
    fixed = cfg.schedule_params
    if scan_value is not None and _builds(cfg, fixed, model):
        return f"[scan] {cfg.scan_param} = {scan_value!r}"
    for key, value in fixed.items():
        if _builds(cfg, {k: v for k, v in fixed.items() if k != key}, model):
            return f"[schedule] {key} = {value!r}"
    return f"[schedule] name = {cfg.schedule_name}"


def _resolve_schedule(cfg: RunConfig, params: dict, scan_value, model):
    try:
        builder = builder_config_from_params(params)
    except ValueError as exc:   # load_config checked [schedule], so a scan value
        raise ConfigError(f"[scan] {cfg.scan_param} = {scan_value!r}: {exc}") from None
    if cfg.schedule_script:
        try:
            check_params(None, params)
            with open(cfg.schedule_script) as fh:
                text = fh.read()
        except ScheduleError as exc:
            raise ConfigError(f"{_blamed_key(cfg, params, scan_value, model)}: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"[schedule] script: {exc}") from None
        return parse_sequence(text, builder, model)
    if not cfg.schedule_name:
        raise ConfigError("[schedule] name (or script) is required")
    try:
        schedule = build_protocol(cfg.schedule_name, params)
        schedule.validate(model)
    except KeyError as exc:
        raise ConfigError(f"[schedule] name: {exc.args[0]}") from None
    except ScheduleError as exc:
        raise ConfigError(f"{_blamed_key(cfg, params, scan_value, model)}: {exc}") from None
    return schedule


def _simulate_rows(cfg: RunConfig):
    model = cfg.model()
    scan_values = cfg.scan_values if cfg.scan_param else (None,)
    points = []
    for k, value in enumerate(scan_values):
        params = dict(cfg.schedule_params)
        if value is not None:
            params[cfg.scan_param] = value
        points.append((_resolve_schedule(cfg, params, value, model),
                       dataclasses.replace(cfg.noise, seed=cfg.noise.seed + 104729 * k),
                       cfg.calibration(params)))
    rows = []
    for value, record in zip(scan_values,
                             run_scan(points, model, cfg.loss, cfg.shots, n_atoms=cfg.atoms)):
        point = (cfg.scan_param or "", "" if value is None else value)
        nan, low = np.full(len(record), math.nan), record.low_confidence
        # each label's cells, one per shot; the rows take them shot by shot
        columns = [zip(record.shot_index.tolist(), repeat(label), repeat(record.timings[label]),
                       column.tolist(), record.calibrated.get(label, nan).tolist(),
                       low[label].astype(int).tolist())
                   for label, column in record.raw.items()]
        rows += [point + cells for shot in zip(*columns) for cells in shot]
    return rows


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.noise = dataclasses.replace(cfg.noise, seed=args.seed)
    if args.shots is not None:
        cfg.shots = args.shots
    if getattr(args, "param", None):
        cfg.scan_param = args.param
        cfg.scan_values = scan_grid(args.start, args.stop, args.points, "--points")
    rows = _simulate_rows(cfg)
    write_csv(args.out, ("scan_param", "scan_value", "shot", "measure", "t", "raw",
                         "calibrated", "low_confidence"), rows,
              [f"config {line}" for line in cfg.describe()])
    n_scan = len(cfg.scan_values) if cfg.scan_param else 1
    print(f"simulate: {cfg.schedule_name or cfg.schedule_script}: "
          f"{n_scan} scan points x {cfg.shots} shots -> {len(rows)} rows -> {args.out}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------- fit


def _scan_records(rows) -> dict[float, ReadoutRecord]:
    """The shots of simulate output rows, one record per scan value: per
    measurement label a column over the shots of raw counts and, when no
    shot lacks them, of calibrated counts."""
    x, shot, label, raw, calibrated = (np.array(csv_column(rows, name, kind)) for name, kind in (
        ("scan_value", float), ("shot", int), ("measure", str), ("raw", float),
        ("calibrated", float)))
    scan = {}
    for value in dict.fromkeys(x.tolist()):
        at = {name: (x == value) & (label == name)
              for name in dict.fromkeys(label[x == value].tolist())}
        shots = {tuple(shot[rows_of].tolist()) for rows_of in at.values()}
        if len(shots) != 1:
            raise DataError(f"column 'shot': scan value {value!r} lists other shots "
                            "for some measure")
        scan[value] = ReadoutRecord(
            np.array(shots.pop()), {name: raw[rows_of] for name, rows_of in at.items()},
            calibrated={name: calibrated[rows_of] for name, rows_of in at.items()
                        if not np.isnan(calibrated[rows_of]).any()})
    return scan


def _dataset_from_file(path, spec, quantity=None):
    """Build a Dataset from either a plain x,y[,sigma] CSV or a schema=1
    simulate file (aggregated over shots per scan value, of ``quantity``,
    default the model's)."""
    rows = read_csv(path)
    if "scan_value" not in rows[0]:
        if quantity is not None:
            raise ConfigError(f"--quantity applies to simulate output, not the plain CSV {path}")
        return Dataset.from_rows(rows), None
    quantity = quantity or spec.quantity
    scan = _scan_records(rows)
    xs = sorted(scan)
    try:
        columns = [record_quantity(scan[x], quantity) for x in xs]
    except KeyError:
        raise ConfigError(f"--quantity {quantity}: {path} does not measure it "
                          f"(it has {', '.join(sorted(scan[xs[0]].counts))})") from None
    ys, sigmas = zip(*map(mean_and_error, columns))
    return Dataset(xs, ys, sigmas if all(s > 0 for s in sigmas) else None), quantity


def cmd_fit(args) -> int:
    if args.model not in MODELS:
        print(f"fit: unknown model {args.model!r}; choose from "
              f"{', '.join(sorted(MODELS))}", file=sys.stderr)
        return EXIT_CONFIG
    spec = MODELS[args.model]
    try:
        dataset, quantity = _dataset_from_file(args.data, spec, args.quantity)
    except OSError as exc:
        print(f"fit: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"fit: {args.data}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if len(dataset) <= len(spec.param_names):
        print(f"fit: {args.data}: {len(dataset)} points; model {args.model} needs at least "
              f"{len(spec.param_names) + 1}", file=sys.stderr)
        return EXIT_CONFIG
    if args.init:
        try:
            init = [float(v) for v in args.init.split(",")]
        except ValueError:
            init = []
        if len(init) != len(spec.param_names):
            print(f"fit: --init {args.init!r}: model {args.model} needs {len(spec.param_names)} "
                  f"initial values ({', '.join(spec.param_names)})", file=sys.stderr)
            return EXIT_CONFIG
    else:
        init = spec.guess(dataset)
    if args.profile and args.profile not in spec.param_names:
        print(f"fit: --profile {args.profile!r}: model {args.model} has no such parameter "
              f"({', '.join(spec.param_names)})", file=sys.stderr)
        return EXIT_CONFIG

    rng = np.random.default_rng(args.seed or 0)
    starts = (list(init) if attempt == 0 else [
        v * float(rng.uniform(0.5, 2.0)) + (0.0 if v != 0 else rng.normal(0, 1e-3))
        for v in init] for attempt in range(args.multistart))
    try:
        best = multistart(spec.func, dataset, starts, spec.param_names)
    except FitError as exc:
        print(f"fit: did not converge: {exc}", file=sys.stderr)
        return EXIT_FIT

    if args.profile:
        try:
            best.profile_intervals[args.profile] = chi2_profile(best, args.profile)
        except FitError as exc:
            print(f"fit: profile failed: {exc}", file=sys.stderr)

    print(best.summary())
    if best.used_unit_weights:
        print("note: no sigma column; unit weights, covariance scaled by "
              "reduced chi2")
    if args.out:
        lines = ["# tmqubit fit report v1", f"# model={args.model}",
                 f"# data={args.data}"]
        if quantity:
            lines.append(f"# quantity={quantity}")
        if best.used_unit_weights:
            lines.append("# weights=unit")
        for name, value, err in zip(best.param_names, best.values, best.errors):
            lines.append(f"{name} = {float(value)!r} +- {float(err)!r}")
        lines.append(f"chi2 = {float(best.chi2)!r}")
        lines.append(f"dof = {best.dof}")
        for name, (lo, hi) in best.profile_intervals.items():
            lines.append(f"profile.{name} = {float(lo)!r} {float(hi)!r}")
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- reproduce


def cmd_reproduce(args) -> int:
    runner = FIGURES.get(args.figure)
    if runner is None:
        print(f"reproduce: unknown figure id {args.figure!r}; "
              f"choose from {', '.join(sorted(FIGURES))}", file=sys.stderr)
        return EXIT_CONFIG
    # fig2e and fig8 (one noise-off shot per point) take no shots
    if args.shots is not None and "shots" not in inspect.signature(runner).parameters:
        print(f"reproduce: --shots does not apply to {args.figure}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    shots = {} if args.shots is None else {"shots": args.shots}
    for path in runner(args.out, seed=args.seed or 0, **shots):
        print(path)
    return EXIT_OK


# --------------------------------------------------------- calibrate-readout


def cmd_calibrate_readout(args) -> int:
    if not (math.isfinite(args.probe_reference) and args.probe_reference > 0):
        raise ConfigError(f"--probe-reference must be finite and > 0, "
                          f"got {args.probe_reference}")
    try:
        points = probe_scan_points(_scan_records(read_csv(args.data)))
    except OSError as exc:
        print(f"calibrate-readout: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"calibrate-readout: {args.data}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError as exc:
        print(f"calibrate-readout: {args.data}: column 'measure' has no {exc.args[0]} rows",
              file=sys.stderr)
        return EXIT_CONFIG
    if len(points[0]) < 4:
        print("calibrate-readout: need a probe-duration scan with >= 4 points",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        fit4, fit3 = fit_probe_scan(*points)
    except FitNonConvergence as exc:
        print(f"calibrate-readout: {exc}", file=sys.stderr)
        return EXIT_FIT
    tau_ref = args.probe_reference
    a0 = fit3.params["a"]
    eps = float(probe_parabola(tau_ref, fit4.params["c"]) / a0)
    eps_err = float(probe_parabola(tau_ref, fit4.error("c")) / a0)
    dep = float(-math.expm1(-tau_ref / fit3.params["tau"]))
    dep_err = abs(dep - (-math.expm1(-tau_ref / (fit3.params["tau"] + fit3.error("tau")))))
    calib = CrosstalkCalibration(eps_43=min(max(eps, 0.0), 1.0),
                                 dep_3=min(max(dep, 0.0), 1.0),
                                 probe_reference=tau_ref)
    calib.save(args.out)
    print(f"eps_43 = {eps!r} +- {eps_err!r}")
    print(f"dep_3 = {dep!r} +- {dep_err!r}")
    print(f"depletion time constant = {float(fit3.params['tau'])!r} s")
    print(f"calibration written to {args.out}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("# tmqubit readout calibration report v1\n")
            fh.write(f"eps_43 = {eps!r} +- {eps_err!r}\n")
            fh.write(f"dep_3 = {dep!r} +- {dep_err!r}\n")
            fh.write(f"tau_depletion = {float(fit3.params['tau'])!r} +- "
                     f"{float(fit3.error('tau'))!r}\n")
            fh.write(f"parabola_c = {float(fit4.params['c'])!r} +- "
                     f"{float(fit4.error('c'))!r}\n")
    return EXIT_OK


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmqubit",
        description="Simulate and analyze thulium hyperfine-qubit experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured protocol, write CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--shots", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="generic 1-D parameter sweep")
    scan.add_argument("--config", required=True)
    scan.add_argument("--param", required=True)
    scan.add_argument("--start", type=float, required=True)
    scan.add_argument("--stop", type=float, required=True)
    scan.add_argument("--points", type=int, required=True)
    scan.add_argument("--seed", type=int, default=None)
    scan.add_argument("--shots", type=int, default=None)
    scan.add_argument("--out", required=True)
    scan.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    fit.add_argument("--model", required=True,
                     help=f"one of: {', '.join(sorted(MODELS))}")
    fit.add_argument("--data", required=True)
    fit.add_argument("--init", default="",
                     help="comma-separated initial parameter values")
    fit.add_argument("--quantity", default=None, choices=QUANTITIES,
                     help="observable to aggregate from simulate output")
    fit.add_argument("--profile", default="",
                     help="parameter to profile for a chi2 min+1 interval")
    fit.add_argument("--multistart", type=int, default=1)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default="")
    fit.set_defaults(func=cmd_fit)

    rep = sub.add_parser("reproduce", help="regenerate a headline dataset")
    rep.add_argument("--figure", required=True,
                     help=f"one of: {', '.join(sorted(FIGURES))}")
    rep.add_argument("--out", default="figures")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--shots", type=int, default=None)
    rep.set_defaults(func=cmd_reproduce)

    cal = sub.add_parser("calibrate-readout",
                         help="fit the crosstalk pair from a probe-duration scan")
    cal.add_argument("--data", required=True)
    cal.add_argument("--out", required=True)
    cal.add_argument("--report", default="")
    cal.add_argument("--probe-reference", type=float, default=0.4e-3)
    cal.set_defaults(func=cmd_calibrate_readout)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("shots", "multistart"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"sequence error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScheduleError as exc:   # a script's own check, e.g. an unknown transition
        print(f"schedule error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitNonConvergence as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
