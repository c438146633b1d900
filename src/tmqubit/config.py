"""Run configuration: INI-style files resolving to model/noise/loss objects.

Sections: ``[run]`` (seed, shots, atoms), ``[constants]`` (``PhysicsConstants``
fields), ``[noise]`` (with a drift: its ``drift_*`` keys and
``inter_shot_dead_time``), ``[loss]``, ``[readout]`` (``CrosstalkCalibration``
fields), ``[schedule]`` (a protocol ``name`` or a ``script`` path, plus
parameters) and ``[scan]`` (``param`` with ``values`` or
``start``/``stop``/``points``).  Every default equals the apparatus value
carried by the corresponding dataclass.  A section or key that nothing reads
raises ConfigError naming it; ``[schedule]`` parameters are checked against
the protocol when it is built (``protocols.check_params``), and ``[run]``
keys are not checked.
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
    TWO_BODY_TABLE,
    default_calibration,
)
from .protocols import builder_config_from_params
from .readout import CrosstalkCalibration

__all__ = ["ConfigError", "RunConfig", "load_config", "scan_grid"]


class ConfigError(ValueError):
    pass


_GRID_KEYS = ("start", "stop", "points")
# section -> the keys it reads (None: not checked); [noise] also reads the
# drift_* keys of its drift kind and, with a drift (whose wall clock it sets),
# inter_shot_dead_time
_SECTION_KEYS = {
    "run": None,
    "constants": {f.name for f in dataclasses.fields(PhysicsConstants)},
    "noise": {"sigma_b_shot", "laser_phase_diffusion", "drift"},
    "loss": {"table_field", "tau", "volume_cm3",
             *(f"beta_{token}" for token, _ in LossParameters().beta_by_state)},
    "readout": {f.name for f in dataclasses.fields(CrosstalkCalibration)},
    "schedule": None,   # checked against the protocol when it is built
    "scan": {"param", "values", *_GRID_KEYS},
}
# [schedule] parameters that also time the readout block
_READOUT_TIMING = ("clock_pi_time", "probe_duration", "dead_time")
# drift kind -> class; each field is read from "drift_<field>", default the class's
_DRIFT_KINDS = {cls.kind: cls for cls in (SinusoidDrift, RandomWalkDrift)}


@dataclass
class RunConfig:
    """Fully resolved run description."""

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
        lines = [f"run.seed={self.noise.seed}", f"run.shots={self.shots}",
                 f"run.atoms={self.atoms!r}"]
        for f_ in dataclasses.fields(PhysicsConstants):
            lines.append(f"constants.{f_.name}={getattr(self.constants, f_.name)!r}")
        lines.append(f"noise.sigma_b_shot={self.noise.sigma_B_shot!r}")
        drift = self.noise.drift
        if drift is None:
            lines.append("noise.drift=none")
        else:   # the dead time sets the drift's wall clock
            values = ",".join(repr(getattr(drift, f_.name)) for f_ in dataclasses.fields(drift))
            lines.append(f"noise.drift={drift.kind}({values})")
            lines.append(f"noise.inter_shot_dead_time={self.noise.inter_shot_dead_time!r}")
        lines.append(f"noise.laser_phase_diffusion={self.noise.laser_phase_diffusion!r}")
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


def _int(section, key, raw):
    """``raw`` as an integer: an integer literal, or a number with no
    fractional part (``1e3``)."""
    try:
        return int(raw)
    except ValueError:
        value = _float(section, key, raw)
    if not value.is_integer():
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}")
    return int(value)


def _check_keys(parser, allowed: dict) -> None:
    """Raise ConfigError naming the first section or key that is not in
    ``allowed`` (section -> keys): nothing would read it."""
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"[{section}]: unknown section; choose from {', '.join(allowed)}")
        for key in parser[section] if allowed[section] is not None else ():
            if key not in allowed[section]:
                raise ConfigError(f"[{section}] {key}: not read; [{section}] reads "
                                  f"{', '.join(sorted(allowed[section]))}")


def scan_grid(start: float, stop: float, points: int, name: str) -> tuple:
    """``points`` evenly spaced values from ``start`` to ``stop``; ``name``
    is the setting to blame when ``points < 1``."""
    if points < 1:
        raise ConfigError(f"{name} must be >= 1, got {points}")
    if points == 1:
        return (start,)
    step = (stop - start) / (points - 1)
    return tuple(start + k * step for k in range(points))


def load_config(path) -> RunConfig:
    """Parse an INI config file into a RunConfig; raises ConfigError naming
    the offending section/field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    kind = parser.get("noise", "drift", fallback="none").strip().lower()
    if kind != "none" and kind not in _DRIFT_KINDS:
        raise ConfigError(f"[noise] unknown drift kind {kind!r}")
    drift_fields = dataclasses.fields(_DRIFT_KINDS[kind]) if kind != "none" else ()
    drift_keys = ({"inter_shot_dead_time", *(f"drift_{f.name}" for f in drift_fields)}
                  if drift_fields else set())
    _check_keys(parser, {**_SECTION_KEYS, "noise": _SECTION_KEYS["noise"] | drift_keys})
    cfg = RunConfig()
    fields = {}   # NoiseModel fields the file sets; the others keep its defaults

    if parser.has_section("run"):
        run = parser["run"]
        fields["seed"] = _int("run", "seed", run.get("seed", cfg.noise.seed))
        cfg.shots = _int("run", "shots", run.get("shots", cfg.shots))
        cfg.atoms = _float("run", "atoms", run.get("atoms", cfg.atoms))
        if cfg.shots < 1:
            raise ConfigError("[run] shots must be >= 1")
        if not cfg.atoms > 0:
            raise ConfigError("[run] atoms must be > 0")

    constants = parser["constants"] if parser.has_section("constants") else {}
    overrides = {key: _float("constants", key, raw) for key, raw in constants.items()}
    try:
        cfg.constants = PhysicsConstants(**overrides)
    except ValueError as exc:
        raise ConfigError(f"[constants] {exc}") from None

    if parser.has_section("noise"):
        noise = parser["noise"]
        for name in ("sigma_B_shot", "laser_phase_diffusion", "inter_shot_dead_time"):
            if name.lower() in noise:
                fields[name] = _float("noise", name.lower(), noise[name.lower()])
        if drift_fields:
            kwargs = {f.name: _float("noise", f"drift_{f.name}", noise[f"drift_{f.name}"])
                      for f in drift_fields if f"drift_{f.name}" in noise}
            try:
                fields["drift"] = _DRIFT_KINDS[kind](**kwargs)
            except ValueError as exc:   # the message starts with the field name
                raise ConfigError(f"[noise] drift_{exc}") from None
    try:
        cfg.noise = dataclasses.replace(cfg.noise, **fields)
    except ValueError as exc:
        raise ConfigError(f"[noise] {exc}") from None

    if parser.has_section("loss"):
        loss = parser["loss"]
        if "table_field" in loss:
            table_field = _float("loss", "table_field", loss["table_field"])
            if table_field not in TWO_BODY_TABLE:
                raise ConfigError(f"[loss] table_field = {loss['table_field']}: not a measured "
                                  f"field; choose from {', '.join(map(repr, TWO_BODY_TABLE))}")
            base = LossParameters.from_table(table_field)
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
        cfg.calibration_overrides = {key: _float("readout", key, raw)
                                     for key, raw in parser["readout"].items()}
        try:
            CrosstalkCalibration(**cfg.calibration_overrides)
        except ValueError as exc:
            raise ConfigError(f"[readout] {exc}") from None

    if parser.has_section("schedule"):
        sched = parser["schedule"]
        if "name" in sched and "script" in sched:
            raise ConfigError("[schedule] name and script: give one, not both")
        cfg.schedule_name = sched.get("name", "").strip()
        cfg.schedule_script = sched.get("script", "").strip()
        for key, raw in sched.items():
            if key not in ("name", "script", "state", "mode"):
                cfg.schedule_params[key] = _float("schedule", key, raw)
        cfg.schedule_params.update({key: sched[key].strip() for key in ("state", "mode")
                                    if key in sched})
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
            grid = [key for key in _GRID_KEYS if key in scan]
            if grid:
                raise ConfigError(f"[scan] values and {'/'.join(grid)}: give values "
                                  "or start/stop/points, not both")
            cfg.scan_values = tuple(_float("scan", "values", v)
                                    for v in scan["values"].split(","))
        else:
            cfg.scan_values = scan_grid(
                _float("scan", "start", scan.get("start", "0")),
                _float("scan", "stop", scan.get("stop", "1")),
                _int("scan", "points", scan.get("points", "10")), "[scan] points")
    return cfg
