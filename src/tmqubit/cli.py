"""Batch front end: simulate, scan, fit, reproduce, calibrate-readout.

Every subcommand is deterministic under a fixed seed and configuration and
writes versioned CSV (``# schema=1``); the resolved configuration is
embedded in each output for provenance.  Exit codes: 0 success, 2
configuration error, 3 fit non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .engine import run_schedule
from .figures import FIGURES, reproduce_figure
from .fitting import (
    Dataset,
    FitError,
    FitNonConvergence,
    MODELS,
    chi2_profile,
    least_squares,
)
from .protocols import QUANTITIES, build_protocol, builder_config_from_params, record_quantity
from .readout import CrosstalkCalibration, fit_probe_scan, probe_parabola
from .schedule import ParseError, ScheduleError, parse_sequence

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4


# ----------------------------------------------------------------- simulate


def _builds(name: str, params: dict, model) -> bool:
    try:
        build_protocol(name, params).validate(model)
    except ScheduleError:
        return False
    return True


def _blamed_key(cfg: RunConfig, params: dict, scan_value, model) -> str:
    """The config entry to name for a protocol that does not build: the scan
    point when the ``[schedule]`` values alone build, else the first
    ``[schedule]`` key without which they do."""
    fixed = cfg.schedule_params
    if scan_value is not None and _builds(cfg.schedule_name, fixed, model):
        return f"[scan] {cfg.scan_param} = {scan_value!r}"
    for key, value in fixed.items():
        if _builds(cfg.schedule_name, {k: v for k, v in fixed.items() if k != key}, model):
            return f"[schedule] {key} = {value!r}"
    return f"[schedule] name = {cfg.schedule_name}"


def _resolve_schedule(cfg: RunConfig, params: dict, scan_value, model):
    try:
        builder = builder_config_from_params(params)
    except ValueError as exc:   # load_config checked [schedule], so a scan value
        raise ConfigError(f"[scan] {cfg.scan_param} = {scan_value!r}: {exc}") from None
    if cfg.schedule_script:
        try:
            with open(cfg.schedule_script) as fh:
                text = fh.read()
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
    rows = []
    scan_values = cfg.scan_values if cfg.scan_param else (None,)
    for k, value in enumerate(scan_values):
        params = dict(cfg.schedule_params)
        if value is not None:
            params[cfg.scan_param] = value
        schedule = _resolve_schedule(cfg, params, value, model)
        noise = dataclasses.replace(cfg.noise,
                                    seed=cfg.noise.seed + 104729 * k)
        records = run_schedule(schedule, model, noise, cfg.loss, cfg.shots,
                               n_atoms=cfg.atoms, calibration=cfg.calibration(params))
        for rec in records:
            for label in sorted(rec.raw, key=list(rec.raw).index):
                rows.append((cfg.scan_param or "", value if value is not None else "",
                             rec.shot_index, label, rec.timings[label],
                             rec.raw[label],
                             rec.calibrated.get(label, float("nan")) if rec.calibrated
                             else float("nan"),
                             int(label in rec.low_confidence)))
    return rows


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_simulate_csv(path, cfg: RunConfig, rows):
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        for line in cfg.describe():
            fh.write(f"# config {line}\n")
        fh.write("scan_param,scan_value,shot,measure,t,raw,calibrated,low_confidence\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_simulate_csv(path):
    """Rows of a schema=1 simulate file as dicts."""
    rows = []
    with open(path) as fh:
        header = None
        for raw_line in fh:
            line = raw_line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                continue
            rows.append(dict(zip(header, parts)))
    if header is None:
        raise ValueError(f"{path}: empty file")
    return rows


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.noise = dataclasses.replace(cfg.noise, seed=args.seed)
    if args.shots is not None:
        cfg.shots = args.shots
    if getattr(args, "param", None):
        cfg.scan_param = args.param
        if args.points == 1:
            cfg.scan_values = (args.start,)
        else:
            step = (args.stop - args.start) / (args.points - 1)
            cfg.scan_values = tuple(args.start + k * step for k in range(args.points))
    rows = _simulate_rows(cfg)
    write_simulate_csv(args.out, cfg, rows)
    n_scan = len(cfg.scan_values) if cfg.scan_param else 1
    print(f"simulate: {cfg.schedule_name or cfg.schedule_script}: "
          f"{n_scan} scan points x {cfg.shots} shots -> {len(rows)} rows -> {args.out}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------- fit


_DEFAULT_QUANTITY = {
    "two_body_loss": "total",
    "exponential": "total",
    "ramsey_fringe": "eta4",
    "gaussian_decay": "eta4",
    "gaussian_decay_offset": "eta3",
    "rabi_reflection": "eta4",
}


def _dataset_from_file(path, model_name, quantity=None):
    """Build a Dataset from either a plain x,y[,sigma] CSV or a schema=1
    simulate file (aggregated over shots per scan value)."""
    with open(path) as fh:
        first_data = None
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            first_data = line
            break
    if first_data is None:
        raise ValueError(f"{path}: empty file")
    header = [h.strip().lower() for h in first_data.split(",")]
    if "scan_value" in header:
        from .readout import ReadoutRecord

        rows = read_simulate_csv(path)
        quantity = quantity or _DEFAULT_QUANTITY.get(model_name, "eta4")
        grouped: dict[float, dict[int, ReadoutRecord]] = {}
        for row in rows:
            x = float(row["scan_value"])
            shot = int(row["shot"])
            rec = grouped.setdefault(x, {}).setdefault(shot, ReadoutRecord(shot_index=shot))
            rec.raw[row["measure"]] = float(row["raw"])
            calibrated = float(row["calibrated"])
            if not math.isnan(calibrated):
                rec.calibrated[row["measure"]] = calibrated
        xs, ys, sigmas = [], [], []
        for x in sorted(grouped):
            vals = [record_quantity(rec, quantity) for rec in grouped[x].values()]
            xs.append(x)
            ys.append(float(np.mean(vals)))
            err = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            sigmas.append(err)
        sigma_arr = np.array(sigmas)
        if np.all(sigma_arr > 0):
            return Dataset(np.array(xs), np.array(ys), sigma_arr), quantity
        return Dataset(np.array(xs), np.array(ys)), quantity
    return Dataset.from_csv(path), quantity


def cmd_fit(args) -> int:
    if args.model not in MODELS:
        print(f"fit: unknown model {args.model!r}; choose from "
              f"{', '.join(sorted(MODELS))}", file=sys.stderr)
        return EXIT_CONFIG
    spec = MODELS[args.model]
    try:
        dataset, quantity = _dataset_from_file(args.data, args.model, args.quantity)
    except OSError as exc:
        print(f"fit: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.init:
        init = [float(v) for v in args.init.split(",")]
        if len(init) != len(spec.param_names):
            print(f"fit: model {args.model} needs {len(spec.param_names)} initial "
                  f"values ({', '.join(spec.param_names)})", file=sys.stderr)
            return EXIT_CONFIG
    else:
        init = spec.guess(dataset)

    best = None
    rng = np.random.default_rng(args.seed or 0)
    attempts = max(1, args.multistart)
    last_error = None
    for attempt in range(attempts):
        trial = list(init) if attempt == 0 else [
            v * float(rng.uniform(0.5, 2.0)) + (0.0 if v != 0 else rng.normal(0, 1e-3))
            for v in init]
        try:
            fit = least_squares(spec.func, dataset, trial, spec.param_names)
        except FitError as exc:
            last_error = exc
            continue
        if best is None or fit.chi2 < best.chi2:
            best = fit
    if best is None:
        print(f"fit: did not converge: {last_error}", file=sys.stderr)
        return EXIT_FIT

    if args.profile:
        if args.profile not in spec.param_names:
            print(f"fit: cannot profile unknown parameter {args.profile!r}",
                  file=sys.stderr)
            return EXIT_CONFIG
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
    try:
        files = reproduce_figure(args.figure, args.out, seed=args.seed or 0,
                                 shots=args.shots)
    except KeyError as exc:
        print(f"reproduce: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    for path in files:
        print(path)
    return EXIT_OK


# --------------------------------------------------------- calibrate-readout


def cmd_calibrate_readout(args) -> int:
    try:
        rows = read_simulate_csv(args.data)
    except OSError as exc:
        print(f"calibrate-readout: {exc}", file=sys.stderr)
        return EXIT_IO
    by_tau: dict[float, dict[str, list[float]]] = {}
    for row in rows:
        tau = float(row["scan_value"])
        by_tau.setdefault(tau, {}).setdefault(row["measure"], []).append(float(row["raw"]))
    taus = np.array(sorted(by_tau))
    if len(taus) < 4:
        print("calibrate-readout: need a probe-duration scan with >= 4 points",
              file=sys.stderr)
        return EXIT_CONFIG
    n4 = np.array([float(np.mean(by_tau[t]["N4"])) for t in taus])
    n4_err = np.array([max(float(np.std(by_tau[t]["N4"]) / math.sqrt(len(by_tau[t]["N4"]))), 1e-3)
                       for t in taus])
    n3 = np.array([float(np.mean(by_tau[t]["N3"])) for t in taus])
    n3_err = np.array([max(float(np.std(by_tau[t]["N3"]) / math.sqrt(len(by_tau[t]["N3"]))), 1e-3)
                       for t in taus])

    try:
        fit4, fit3 = fit_probe_scan(taus, n4, n4_err, n3, n3_err)
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
