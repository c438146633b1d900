"""Run configuration: INI-style files resolving to model/noise/loss objects.

Sections: ``[run]`` (seed, shots, atoms), ``[constants]`` (any
physics-constant override), ``[noise]``, ``[loss]``, ``[readout]``
(calibration overrides), ``[schedule]`` (built-in name plus parameters, or a
script path) and ``[scan]`` (1-D parameter sweep).  Every default equals the
apparatus value carried by the corresponding dataclass.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

from .atom import AtomModel, PhysicsConstants
from .engine import (
    LossParameters,
    NoiseModel,
    RandomWalkDrift,
    SinusoidDrift,
    default_calibration,
)
from .protocols import builder_config_from_params
from .readout import CrosstalkCalibration

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    pass


_CONSTANT_FIELDS = {f.name for f in dataclasses.fields(PhysicsConstants)}
_CALIB_FIELDS = set(CrosstalkCalibration._FIELDS)
# [schedule] parameters that also time the readout block
_READOUT_TIMING = ("clock_pi_time", "probe_duration", "dead_time")
# drift kind -> (class, {field: default}); each field is read from "drift_<field>"
_DRIFT_KINDS = {
    "sinusoid": (SinusoidDrift, {"amplitude": "0", "period": "1"}),
    "random_walk": (RandomWalkDrift, {"step": "0", "interval": "1"}),
}


@dataclass
class RunConfig:
    """Fully resolved run description."""

    seed: int = 0
    shots: int = 20
    atoms: float = 5000.0
    constants: PhysicsConstants = field(default_factory=PhysicsConstants)
    noise: NoiseModel = field(default_factory=NoiseModel)
    loss: LossParameters = field(default_factory=LossParameters)
    calibration_overrides: dict = field(default_factory=dict)
    schedule_name: str = ""
    schedule_params: dict = field(default_factory=dict)
    schedule_script: str = ""
    scan_param: str = ""
    scan_values: tuple = ()

    def model(self) -> AtomModel:
        return AtomModel(self.constants)

    def calibration(self, params: dict | None = None) -> CrosstalkCalibration:
        """Calibration of the readout block of the schedule built from
        ``params`` (default: the ``[schedule]`` values): its pi time, probe
        duration and dead time, unless ``[readout]`` sets them."""
        params = self.schedule_params if params is None else params
        timing = {key: params[key] for key in _READOUT_TIMING if key in params}
        return default_calibration(self.model(), timing.pop("clock_pi_time", 1e-3),
                                   **{**timing, **self.calibration_overrides})

    def describe(self) -> list[str]:
        """Flat key=value lines of the resolved configuration, for embedding
        in reports."""
        lines = [f"run.seed={self.seed}", f"run.shots={self.shots}",
                 f"run.atoms={self.atoms!r}"]
        for f_ in dataclasses.fields(PhysicsConstants):
            lines.append(f"constants.{f_.name}={getattr(self.constants, f_.name)!r}")
        lines.append(f"noise.sigma_b_shot={self.noise.sigma_B_shot!r}")
        drift = self.noise.drift
        if isinstance(drift, SinusoidDrift):
            lines.append(f"noise.drift=sinusoid({drift.amplitude!r},{drift.period!r})")
        elif isinstance(drift, RandomWalkDrift):
            lines.append(f"noise.drift=random_walk({drift.step!r},{drift.interval!r})")
        else:
            lines.append("noise.drift=none")
        lines.append(f"noise.laser_phase_diffusion={self.noise.laser_phase_diffusion!r}")
        lines.append(f"noise.seed={self.noise.seed}")
        lines.append(f"loss.tau={self.loss.tau!r}")
        lines.append(f"loss.volume_cm3={self.loss.volume_cm3!r}")
        for token, beta in self.loss.beta_by_state:
            lines.append(f"loss.beta_{token}={beta!r}")
        for key in sorted(self.calibration_overrides):
            lines.append(f"readout.{key}={self.calibration_overrides[key]!r}")
        if self.schedule_script:
            lines.append(f"schedule.script={self.schedule_script}")
        else:
            lines.append(f"schedule.name={self.schedule_name}")
        for key in sorted(self.schedule_params):
            lines.append(f"schedule.{key}={self.schedule_params[key]!r}")
        if self.scan_param:
            lines.append(f"scan.param={self.scan_param}")
            lines.append(f"scan.values={','.join(repr(v) for v in self.scan_values)}")
        return lines


def _float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def load_config(path) -> RunConfig:
    """Parse an INI config file into a RunConfig; raises ConfigError naming
    the offending section/field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()

    if parser.has_section("run"):
        run = parser["run"]
        cfg.seed = int(_float("run", "seed", run.get("seed", "0")))
        cfg.shots = int(_float("run", "shots", run.get("shots", "20")))
        cfg.atoms = _float("run", "atoms", run.get("atoms", "5000"))
        if cfg.shots < 1:
            raise ConfigError("[run] shots must be >= 1")

    overrides = {}
    if parser.has_section("constants"):
        for key, raw in parser["constants"].items():
            if key not in _CONSTANT_FIELDS:
                raise ConfigError(f"[constants] unknown constant {key!r}")
            overrides[key] = _float("constants", key, raw)
    try:
        cfg.constants = PhysicsConstants(**{**dataclasses.asdict(PhysicsConstants()),
                                            **overrides})
    except ValueError as exc:
        raise ConfigError(f"[constants] {exc}") from None

    sigma = 150e-6
    drift = None
    laser = 0.0
    dead = 0.6
    if parser.has_section("noise"):
        noise = parser["noise"]
        sigma = _float("noise", "sigma_b_shot", noise.get("sigma_b_shot", "150e-6"))
        laser = _float("noise", "laser_phase_diffusion",
                       noise.get("laser_phase_diffusion", "0"))
        dead = _float("noise", "inter_shot_dead_time",
                      noise.get("inter_shot_dead_time", "0.6"))
        kind = noise.get("drift", "none").strip().lower()
        if kind in _DRIFT_KINDS:
            cls, defaults = _DRIFT_KINDS[kind]
            kwargs = {name: _float("noise", f"drift_{name}", noise.get(f"drift_{name}", default))
                      for name, default in defaults.items()}
            try:
                drift = cls(**kwargs)
            except ValueError as exc:   # the message starts with the field name
                raise ConfigError(f"[noise] drift_{exc}") from None
        elif kind != "none":
            raise ConfigError(f"[noise] unknown drift kind {kind!r}")
    try:
        cfg.noise = NoiseModel(sigma_B_shot=sigma, drift=drift, laser_phase_diffusion=laser,
                               seed=cfg.seed, inter_shot_dead_time=dead)
    except ValueError as exc:
        raise ConfigError(f"[noise] {exc}") from None

    if parser.has_section("loss"):
        loss = parser["loss"]
        if "table_field" in loss:
            base = LossParameters.from_table(_float("loss", "table_field", loss["table_field"]))
        else:
            base = LossParameters()
        betas = dict(base.beta_by_state)
        for token in list(betas):
            key = f"beta_{token}"
            if key in loss:
                betas[token] = _float("loss", key, loss[key])
        tau_raw = loss.get("tau", str(base.tau))
        tau = math.inf if tau_raw.strip().lower() in ("inf", "infinity") else _float("loss", "tau", tau_raw)
        try:
            cfg.loss = LossParameters(
                tau=tau,
                beta_by_state=tuple(betas.items()),
                volume_cm3=_float("loss", "volume_cm3", loss.get("volume_cm3", str(base.volume_cm3))))
        except ValueError as exc:
            raise ConfigError(f"[loss] {exc}") from None

    if parser.has_section("readout"):
        for key, raw in parser["readout"].items():
            if key not in _CALIB_FIELDS:
                raise ConfigError(f"[readout] unknown calibration field {key!r}")
            cfg.calibration_overrides[key] = _float("readout", key, raw)
        try:
            CrosstalkCalibration(**cfg.calibration_overrides)
        except ValueError as exc:
            raise ConfigError(f"[readout] {exc}") from None

    if parser.has_section("schedule"):
        sched = parser["schedule"]
        cfg.schedule_name = sched.get("name", "").strip()
        cfg.schedule_script = sched.get("script", "").strip()
        for key, raw in sched.items():
            if key in ("name", "script", "state", "mode"):
                continue
            cfg.schedule_params[key] = _float("schedule", key, raw)
        if "state" in sched:
            cfg.schedule_params["state"] = sched["state"].strip()
        if "mode" in sched:
            cfg.schedule_params["mode"] = sched["mode"].strip()
        try:
            builder_config_from_params(cfg.schedule_params)
        except ValueError as exc:
            raise ConfigError(f"[schedule] {exc}") from None

    if parser.has_section("scan"):
        scan = parser["scan"]
        cfg.scan_param = scan.get("param", "").strip()
        if not cfg.scan_param:
            raise ConfigError("[scan] param is required")
        if "values" in scan:
            cfg.scan_values = tuple(_float("scan", "values", v)
                                    for v in scan["values"].split(","))
        else:
            start = _float("scan", "start", scan.get("start", "0"))
            stop = _float("scan", "stop", scan.get("stop", "1"))
            points = int(_float("scan", "points", scan.get("points", "10")))
            if points < 1:
                raise ConfigError("[scan] points must be >= 1")
            if points == 1:
                cfg.scan_values = (start,)
            else:
                step = (stop - start) / (points - 1)
                cfg.scan_values = tuple(start + k * step for k in range(points))
    return cfg
