"""Named experiment protocols: complete schedules ending in the readout block.

Each protocol maps a handful of scalar parameters onto a validated Schedule,
so the batch front end and the figure runners can scan any parameter by
rebuilding the schedule per scan point.
"""

from __future__ import annotations

import dataclasses
import math

from .readout import READOUT_LABELS, ReadoutRecord
from .schedule import (
    BuilderConfig,
    Measure,
    Schedule,
    ScheduleError,
    ScheduleMetadata,
    Wait,
    build_clock_coherence,
    build_cp,
    build_rabi_scan,
    build_ramsey,
    build_shelving_readout,
    build_state_prep,
)

__all__ = ["PROTOCOLS", "build_protocol", "builder_config_from_params",
           "check_params", "record_quantity", "QUANTITIES"]

_BUILDER_KEYS = tuple(f.name for f in dataclasses.fields(BuilderConfig))


def builder_config_from_params(params: dict) -> BuilderConfig:
    return BuilderConfig(**{k: params[k] for k in _BUILDER_KEYS if k in params})


def _ramsey(cfg: BuilderConfig, params: dict) -> Schedule:
    core = build_ramsey(params.get("t", 0.08), params.get("detuning", 0.0), cfg)
    return core.followed_by(build_shelving_readout(cfg))


def _cp(cfg: BuilderConfig, params: dict) -> Schedule:
    core = build_cp(int(params.get("n", 1)), params.get("t", 1.0),
                    params.get("detuning", 0.0), cfg)
    return core.followed_by(build_shelving_readout(cfg))


def _rabi(cfg: BuilderConfig, params: dict) -> Schedule:
    core = build_rabi_scan(params.get("t", 2e-3), params.get("detuning", 0.0), cfg)
    return core.followed_by(build_shelving_readout(cfg))


def _lifetime(cfg: BuilderConfig, params: dict) -> Schedule:
    state = str(params.get("state", "g30"))
    core = Schedule((Wait(params.get("t", 1.0)),),
                    ScheduleMetadata(name="lifetime", bias_field=cfg.bias_field,
                                     initial_state=state))
    return core.followed_by(build_shelving_readout(cfg))


def _prep(cfg: BuilderConfig, params: dict) -> Schedule:
    core = build_state_prep(cfg, theta=params.get("theta", math.pi))
    return core.followed_by(build_shelving_readout(cfg))


def _clock_coherence(cfg: BuilderConfig, params: dict) -> Schedule:
    return build_clock_coherence(str(params.get("mode", "double")),
                                 params.get("t", 0.05), cfg)


def _clock_rabi(cfg: BuilderConfig, params: dict) -> Schedule:
    sched = build_shelving_readout(cfg, first_pulse_duration=params.get("t", 1e-3))
    meta = dataclasses.replace(sched.metadata, name="clock_rabi", initial_state="g40")
    return Schedule(sched.events, meta)


def _probe_scan(cfg: BuilderConfig, params: dict) -> Schedule:
    # t scans the first probe length; the second probe stays at the
    # reference length so only the first pulse's back-action is measured
    tau = params.get("t", cfg.probe_duration)
    events = (
        Measure(label="N4", target_F=4, probe_duration=tau, dead_time=cfg.dead_time),
        Measure(label="N3", target_F=3, probe_duration=cfg.probe_duration,
                dead_time=cfg.dead_time),
    )
    meta = ScheduleMetadata(name="probe_scan", bias_field=cfg.bias_field,
                            initial_state="g30")
    return Schedule(events, meta)


# name -> (builder, the parameters it reads besides the BuilderConfig fields)
PROTOCOLS = {
    "ramsey": (_ramsey, ("t", "detuning")),
    "cp": (_cp, ("n", "t", "detuning")),
    "rabi": (_rabi, ("t", "detuning")),
    "lifetime": (_lifetime, ("t", "state")),
    "prep": (_prep, ("theta",)),
    "clock_coherence": (_clock_coherence, ("mode", "t")),
    "clock_rabi": (_clock_rabi, ("t",)),
    "probe_scan": (_probe_scan, ("t",)),
}


def check_params(name: str | None, params) -> None:
    """Raise ScheduleError naming the first parameter that protocol ``name``
    (None: a sequence script, which reads only the BuilderConfig fields)
    does not read."""
    reads = (PROTOCOLS[name][1] if name else ()) + _BUILDER_KEYS
    for key in params:
        if key not in reads:
            raise ScheduleError(f"{key} is not read by {name or 'a sequence script'}; "
                                f"it reads {', '.join(reads)}")


def build_protocol(name: str, params: dict | None = None) -> Schedule:
    """Build a named protocol; unknown names raise KeyError listing options,
    parameters the protocol does not read raise ScheduleError."""
    if name not in PROTOCOLS:
        raise KeyError(f"unknown schedule name {name!r}; "
                       f"choose from {', '.join(sorted(PROTOCOLS))}")
    params = dict(params or {})
    check_params(name, params)
    build, _ = PROTOCOLS[name]
    return build(builder_config_from_params(params), params)


QUANTITIES = ("eta4", "eta3", "total", "N4", "N3", "N4_mf0", "N3_mf0")


def record_quantity(record: ReadoutRecord, quantity: str):
    """An observable of a record's shots, from calibrated counts when
    available: a column over its rows, or a number for a one-row view."""
    if quantity == "eta4":
        return record.eta4()
    if quantity == "eta3":
        return record.eta3()
    counts = record.counts
    if quantity == "total":
        return sum(counts[label] for label in READOUT_LABELS if label in counts)
    if quantity in counts:
        return counts[quantity]
    raise KeyError(f"quantity {quantity!r} not available; have {sorted(counts)}")
