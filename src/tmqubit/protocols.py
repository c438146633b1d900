"""Named experiment protocols: complete schedules ending in the readout block.

Each protocol is a ``schedule`` builder, which maps a handful of scalar
parameters onto a validated Schedule: a protocol reads its builder's
parameters and takes its defaults, so the batch front end and the figure
runners can scan any parameter by rebuilding the schedule per scan point.
"""

from __future__ import annotations

import dataclasses
import inspect

from .readout import READOUT_LABELS, ReadoutRecord
from .schedule import (
    BuilderConfig,
    Schedule,
    ScheduleError,
    build_clock_coherence,
    build_clock_rabi,
    build_cp,
    build_lifetime,
    build_probe_scan,
    build_rabi_scan,
    build_ramsey,
    build_shelving_readout,
    build_state_prep,
)

__all__ = ["PROTOCOLS", "PROTOCOL_PARAMS", "build_protocol", "builder_config_from_params",
           "check_params", "record_quantity", "QUANTITIES"]

_BUILDER_KEYS = tuple(f.name for f in dataclasses.fields(BuilderConfig))


def builder_config_from_params(params: dict) -> BuilderConfig:
    return BuilderConfig(**{k: params[k] for k in _BUILDER_KEYS if k in params})


# name -> (builder, whether the shelving readout follows its schedule)
PROTOCOLS = {
    "ramsey": (build_ramsey, True),
    "cp": (build_cp, True),
    "rabi": (build_rabi_scan, True),
    "lifetime": (build_lifetime, True),
    "prep": (build_state_prep, True),
    "clock_coherence": (build_clock_coherence, False),
    "clock_rabi": (build_clock_rabi, False),
    "probe_scan": (build_probe_scan, False),
}
# name -> the parameters it reads besides the BuilderConfig fields: its
# builder's, other than ``cfg``
PROTOCOL_PARAMS = {name: tuple(p for p in inspect.signature(build).parameters if p != "cfg")
                   for name, (build, _) in PROTOCOLS.items()}


def check_params(name: str | None, params) -> None:
    """Raise ScheduleError naming the first parameter that protocol ``name``
    (None: a sequence script, which reads only the BuilderConfig fields)
    does not read."""
    reads = (PROTOCOL_PARAMS[name] if name else ()) + _BUILDER_KEYS
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
    build, readout_follows = PROTOCOLS[name]
    cfg = builder_config_from_params(params)
    schedule = build(**{k: params[k] for k in PROTOCOL_PARAMS[name] if k in params}, cfg=cfg)
    return schedule.followed_by(build_shelving_readout(cfg)) if readout_follows else schedule


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
