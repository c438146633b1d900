"""Timed pulse-sequence model: event types, protocol builders, script parser.

A schedule is a strictly sequential list of rectangular events.  Scripts use
one event per line (';' also separates events), ``kind key=value ...`` where
each key is a field of the kind's event (positional words set a pulse's area
and phase, a wait's duration and a measurement's label), and ``#`` comments::

    # prepare, then a Ramsey pair 80 ms apart
    mw pi 0deg
    wait 80ms
    mw pi/2 90deg detuning=5Hz

Durations, frequencies and angles accept unit suffixes (ms, us, kHz, MHz,
deg, rad, mG, ...); the canonical serialized form is suffix-free SI and
round-trips bit-exactly through the parser.

Every event, ``ScheduleMetadata`` and ``Schedule`` checks its own fields
when made, so a schedule that exists is valid: times, Rabi frequencies, a
clean's ``s``, a 1140 nm pulse's area (to ``MAX_CLOCK_AREA``) and the bias
field (to ``atom.MAX_FIELD``) are finite and >= 0, detunings (below
``atom.MAX_FREQUENCY``), phases and sweep frequencies are finite, ``target_F``
is 3 or 4, a pulse's transition is a catalog line of its kind, the initial
state is a sublevel token, and no measurement label repeats.  A ScheduleError
names the kind and the field; a
script's event, pragma or repeated label raises it as a ParseError on its
line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import get_args

import numpy as np

from .atom import MAX_FIELD, MAX_FREQUENCY, TRANSITIONS, TransitionKind, state_index
from .readout import READOUT_LABELS

__all__ = [
    "MwPulse",
    "RfSweep",
    "ClockPulse",
    "Probe410",
    "Clean530",
    "Wait",
    "Measure",
    "PulseEvent",
    "ScheduleMetadata",
    "Schedule",
    "BuilderConfig",
    "ScheduleError",
    "ParseError",
    "parse_sequence",
    "serialize_sequence",
    "build_state_prep",
    "build_ramsey",
    "build_cp",
    "build_rabi_scan",
    "build_shelving_readout",
    "build_clock_coherence",
    "build_lifetime",
    "build_clock_rabi",
    "build_probe_scan",
    "READOUT_LABELS",
]

QUBIT_TRANSITION = "g40-g30"
CLOCK_TRANSITION_F4 = "g40-m30"
CLOCK_TRANSITION_F3 = "g30-m20"


class ScheduleError(ValueError):
    """An event, metadata or schedule that breaks its rules; ``event`` is
    the index of the event at fault in a schedule's events, if there is one."""

    def __init__(self, message: str, event: int | None = None):
        super().__init__(message)
        self.event = event


class ParseError(ScheduleError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --------------------------------------------------------------------- events

# fields that are finite and >= 0 on every event kind that has them
_NONNEGATIVE = frozenset({"duration", "probe_duration", "dead_time", "rabi_frequency", "s"})
# fields that are finite on every event kind that has them, and below their
# bound in magnitude (past every carrier of the model, a detuning in Hz)
_FINITE = {"detuning": MAX_FREQUENCY, "phase": math.inf, "f_start": math.inf, "f_stop": math.inf}
# rad: the largest 1140 nm pulse area, up to which the engine's standing-wave
# average is tested (engine._standing_wave_scales)
MAX_CLOCK_AREA = 1e4


def _finite(value, bound: float) -> bool:
    """``value``, a number or an array of numbers (a scanned pulse's per-row
    detunings and phases, ``engine._block_schedule``), is below ``bound``."""
    if isinstance(value, np.ndarray):
        return bool((np.abs(value) < bound).all())
    return abs(value) < bound


class _Event:
    """An event kind that checks its own fields when made: a ScheduleError
    names the kind and the first field that breaks its rule."""

    def __post_init__(self):
        # the field names, without the tuple ``fields()`` builds on every
        # call: on every event made, it raised a fig4 pass's peak RSS
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name in _NONNEGATIVE and not 0 <= value < math.inf:
                problem = f"must be finite and >= 0, got {value!r}"
            elif name in _FINITE and not _finite(value, _FINITE[name]):
                problem = (f"must be below {_FINITE[name]:g} Hz in magnitude, got {value!r}"
                           if _finite(value, math.inf) else f"must be finite, got {value!r}")
            elif name == "rabi_frequency" and self.kind == "clock" and not (
                    area := value * self.duration) <= MAX_CLOCK_AREA:
                problem = f"times duration must be at most {MAX_CLOCK_AREA:g} rad, got {area!r}"
            elif name == "rabi_frequency" and self.kind == "mw" and not value * value < math.inf:
                # the off-resonant leakage onto the spectator lines squares it
                problem = f"must square to a finite number, got {value!r}"
            elif name == "target_F" and value not in (3, 4):
                problem = f"must be 3 or 4, got {value!r}"
            elif name == "transition" and value not in TRANSITIONS:
                problem = f"must be a catalog line, got unknown transition {value!r}"
            elif name == "transition" and TRANSITIONS[value].kind is not self.transition_kind:
                problem = f"must be a {self.transition_kind.value} line, got {value}"
            else:
                continue
            raise ScheduleError(f"{self.kind} {name} {problem}")


@dataclass(frozen=True)
class MwPulse(_Event):
    """Coherent microwave pulse on one hyperfine transition."""

    transition: str = QUBIT_TRANSITION
    duration: float = 2e-3
    rabi_frequency: float = math.pi / 2e-3   # rad/s
    detuning: float = 0.0                    # Hz, from the nominal-field line
    phase: float = 0.0                       # rad

    kind = "mw"
    transition_kind = TransitionKind.MW_HYPERFINE


@dataclass(frozen=True)
class ClockPulse(_Event):
    """Coherent 1140 nm pulse on one ground-metastable transition."""

    transition: str = CLOCK_TRANSITION_F4
    duration: float = 1e-3
    rabi_frequency: float = math.pi / 1e-3
    detuning: float = 0.0
    phase: float = 0.0

    kind = "clock"
    transition_kind = TransitionKind.OPTICAL_1140


@dataclass(frozen=True)
class RfSweep(_Event):
    """Linear RF sweep walking population across adjacent mF sublevels."""

    duration: float = 5e-3
    f_start: float = 800e3
    f_stop: float = 785e3

    kind = "rf_sweep"


@dataclass(frozen=True)
class Probe410(_Event):
    """Resonant 410 nm probe on one ground hyperfine manifold."""

    target_F: int = 4
    duration: float = 0.4e-3

    kind = "probe"


@dataclass(frozen=True)
class Clean530(_Event):
    """530 nm cleaning pulse removing one ground manifold."""

    target_F: int = 4
    duration: float = 3e-3
    s: float = 1.0            # I / I_sat
    detuning: float = 614e6   # Hz, detuning seen by the spectator manifold

    kind = "clean"


@dataclass(frozen=True)
class Wait(_Event):
    duration: float = 0.0

    kind = "wait"


@dataclass(frozen=True)
class Measure(_Event):
    """Destructive atom-number detection of one ground manifold."""

    label: str = "N4"
    target_F: int = 4
    probe_duration: float = 0.4e-3
    dead_time: float = 4e-3

    kind = "measure"

    @property
    def duration(self) -> float:
        return self.probe_duration + self.dead_time


PulseEvent = MwPulse | ClockPulse | RfSweep | Probe410 | Clean530 | Wait | Measure


# ------------------------------------------------------------------- schedule


@dataclass(frozen=True)
class ScheduleMetadata:
    name: str = ""
    bias_field: float = 0.6            # G
    initial_state: str | None = None   # sublevel token; None = default rule

    def __post_init__(self):
        if not 0 <= self.bias_field <= MAX_FIELD:
            rule = f"at most {MAX_FIELD:g} G" if self.bias_field > MAX_FIELD else "finite and >= 0"
            raise ScheduleError(f"bias_field must be {rule}, got {self.bias_field!r}")
        if self.initial_state is not None:
            try:
                state_index(self.initial_state)
            except ValueError as exc:
                raise ScheduleError(f"initial_state {self.initial_state!r}: {exc}") from None


@dataclass(frozen=True)
class Schedule:
    events: tuple[PulseEvent, ...] = ()
    metadata: ScheduleMetadata = field(default_factory=ScheduleMetadata)

    def __post_init__(self):
        labels: dict[str, int] = {}   # measurement label -> its event
        for i, ev in enumerate(self.events):
            if isinstance(ev, Measure) and (first := labels.setdefault(ev.label, i)) != i:
                raise ScheduleError(f"event {i}: measure label {ev.label!r} repeats event {first}",
                                    event=i)

    @property
    def duration(self) -> float:
        return sum(ev.duration for ev in self.events)

    def followed_by(self, other: "Schedule") -> "Schedule":
        return replace(self, events=self.events + other.events)


# --------------------------------------------------------------------- parser

_UNITS = {
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "rad": 1.0, "deg": math.pi / 180.0,
    "g": 1.0, "mg": 1e-3, "ug": 1e-6,
}

_NUMBER_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)([a-zA-Z]*)$")
_AREA_RE = re.compile(r"^(\d*(?:\.\d+)?)pi(?:/(\d+))?$")


def _parse_value(text: str) -> float:
    m = _NUMBER_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse value {text!r}")
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit:
        if unit not in _UNITS:
            raise ValueError(f"unknown unit {m.group(2)!r}")
        value *= _UNITS[unit]
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_whole(text: str) -> int:
    value = _parse_value(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _parse_area(text: str) -> float:
    """Pulse area in rad: 'pi', 'pi/2', '3pi/2', '0.5pi' or a number+unit."""
    m = _AREA_RE.match(text)
    if m:
        mult = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        return mult * math.pi / div
    return _parse_value(text)


# declared field type (or "area") -> the reader of a value written as text
_READERS = {"str": str, "float": _parse_value, "int": _parse_whole, "area": _parse_area}


def _read(type_name: str, text: str, word: str, line: int):
    try:
        return _READERS[type_name](text)
    except ValueError as exc:
        raise ParseError(f"{word!r}: {exc}", line) from None


@dataclass(frozen=True)
class BuilderConfig:
    """Defaults shared by the protocol builders and the script parser."""

    bias_field: float = 0.6          # G
    mw_pi_time: float = 2e-3         # s
    clock_pi_time: float = 1e-3      # s
    rf_sweep_time: float = 5e-3
    rf_f_start: float = 800e3
    rf_f_stop: float = 785e3
    clean_time: float = 3e-3
    clean_s: float = 1.0
    clean_detuning: float = 614e6
    probe_duration: float = 0.4e-3
    dead_time: float = 4e-3

    def __post_init__(self):
        for name in ("mw_pi_time", "clock_pi_time"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("rf_sweep_time", "clean_time", "probe_duration", "dead_time"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @property
    def mw_rabi(self) -> float:
        return math.pi / self.mw_pi_time

    @property
    def clock_rabi(self) -> float:
        return math.pi / self.clock_pi_time


# event type -> its fields that default to a BuilderConfig value, and that value
_CONFIG_DEFAULTS = {
    MwPulse: {"rabi_frequency": "mw_rabi"},
    ClockPulse: {"rabi_frequency": "clock_rabi"},
    RfSweep: {"duration": "rf_sweep_time", "f_start": "rf_f_start", "f_stop": "rf_f_stop"},
    Probe410: {"duration": "probe_duration"},
    Clean530: {"duration": "clean_time", "s": "clean_s", "detuning": "clean_detuning"},
    Measure: {"probe_duration": "probe_duration", "dead_time": "dead_time"},
}


def _event(cls, cfg: BuilderConfig, **values) -> PulseEvent:
    """A ``cls`` event with ``values``; each other field takes its
    ``_CONFIG_DEFAULTS`` value of ``cfg``, else the dataclass default."""
    defaults = _CONFIG_DEFAULTS.get(cls, {})
    return cls(**{**{name: getattr(cfg, key) for name, key in defaults.items()}, **values})


# script kind -> event type
_KINDS = {cls.kind: cls for cls in get_args(PulseEvent)}
# event type -> what its positional words set, in order ("area": a pulse's area)
_POSITIONAL = {MwPulse: ("area", "phase"), ClockPulse: ("area", "phase"), Wait: ("duration",),
               Measure: ("label",)}
# the script name of a field where it differs from the field's
_SERIAL_NAMES = {"rabi_frequency": "rabi", "target_F": "target_f"}
# pragma -> the type of the ScheduleMetadata field it sets
_PRAGMAS = {f.name: f.type.removesuffix(" | None") for f in fields(ScheduleMetadata)}


def _read_event(words: list[str], cfg: BuilderConfig, line: int) -> PulseEvent:
    """The event of one statement: its kind, then words that each set one
    field, positional ones in the kind's ``_POSITIONAL`` order and
    ``key=value`` ones by the field's script name, each read by the field's
    type.  A pulse's duration defaults to its area (default pi) over its Rabi
    frequency, and a measurement's target_F to 3 for an 'N3...' label."""
    kind, *words = words
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown event kind {kind!r}", line)
    types = {"area": "area", **{f.name: f.type for f in fields(cls)}}
    keywords = {_SERIAL_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
    slots = iter(_POSITIONAL.get(cls, ()))
    values, set_by = {}, {}
    for word in words:
        key, eq, text = word.partition("=")
        if not eq:
            name, text = next(slots, None), word
            if name is None:
                raise ParseError(f"{word!r}: too many positional words for {kind} (it takes "
                                 f"{', '.join(_POSITIONAL.get(cls, ())) or 'none'})", line)
        elif not key or not text:
            raise ParseError(f"malformed argument {word!r}", line)
        elif (name := keywords.get(key.lower())) is None:
            raise ParseError(f"{word!r}: unknown argument {key!r} for {kind}", line)
        if name in set_by:
            raise ParseError(f"{word!r} sets what {set_by[name]!r} already set", line)
        values[name], set_by[name] = _read(types[name], text, word, line), word
    if "area" in values and "duration" in values:
        raise ParseError(f"{set_by['duration']!r}: give either a pulse area or duration=, "
                         "not both", line)
    area = values.pop("area", math.pi)
    if not values.get("rabi_frequency", 1.0) > 0 and "duration" not in values:
        raise ParseError(f"{set_by['rabi_frequency']!r}: a pulse area needs rabi > 0", line)
    try:
        ev = _event(cls, cfg, **values)
        if isinstance(ev, (MwPulse, ClockPulse)) and "duration" not in values:
            ev = replace(ev, duration=area / ev.rabi_frequency)
        if isinstance(ev, Measure) and "target_F" not in values:
            ev = replace(ev, target_F=3 if ev.label.startswith("N3") else 4)
    except ScheduleError as exc:
        raise ParseError(str(exc), line) from None
    return ev


def parse_sequence(text: str, cfg: BuilderConfig | None = None) -> Schedule:
    """Parse a sequence script into a Schedule.

    Raises ParseError naming the line and the offending word or field: a
    word that would set nothing, or an event, pragma or measurement label
    that breaks the rules of ``ScheduleMetadata`` or ``Schedule``.
    """
    cfg = cfg or BuilderConfig()
    events: list[PulseEvent] = []
    event_lines: list[int] = []
    meta: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if line.startswith("@"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise ParseError("pragma needs a value, e.g. '@name ramsey'", lineno)
            key, value = parts[0], parts[1].strip()
            if key not in _PRAGMAS:
                raise ParseError(f"unknown pragma {key!r}", lineno)
            if key in meta:
                raise ParseError(f"{line!r}: @{key} is already set", lineno)
            meta[key] = _read(_PRAGMAS[key], value, line, lineno)
            try:
                ScheduleMetadata(**{key: meta[key]})
            except ScheduleError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        for stmt in line.split(";"):
            if stmt.strip():
                events.append(_read_event(stmt.split(), cfg, lineno))
                event_lines.append(lineno)
    metadata = ScheduleMetadata(**{"bias_field": cfg.bias_field, **meta})
    try:
        return Schedule(tuple(events), metadata)
    except ScheduleError as exc:   # a repeated label: the line of the event at fault
        raise ParseError(str(exc), event_lines[exc.event]) from None


def serialize_sequence(schedule: Schedule) -> str:
    """Canonical text form; ``parse_sequence`` restores it bit-exactly."""
    lines = []
    md = schedule.metadata
    if md.name:
        lines.append(f"@name {md.name}")
    lines.append(f"@bias_field {md.bias_field!r}")
    if md.initial_state is not None:
        lines.append(f"@initial_state {md.initial_state}")
    for ev in schedule.events:
        parts = [ev.kind]
        for f in fields(ev):
            value = getattr(ev, f.name)
            name = _SERIAL_NAMES.get(f.name, f.name)
            parts.append(f"{name}={value!r}" if not isinstance(value, str) else f"{name}={value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- builders


def build_state_prep(cfg: BuilderConfig | None = None, theta: float = math.pi) -> Schedule:
    """RF repump sweep, clock-line pi pulse, cleaning pulse, optional rotation.

    Walks population from the stretched post-cooling sublevel toward mF=0,
    shelves the central sublevel in the upper hyperfine level, removes the
    F=4 leftovers, then rotates by ``theta`` to set the target superposition
    (``theta=0`` omits the final pulse).
    """
    cfg = cfg or BuilderConfig()
    events: list[PulseEvent] = [
        _event(RfSweep, cfg),
        _event(MwPulse, cfg, duration=cfg.mw_pi_time),
        _event(Clean530, cfg, target_F=4),
    ]
    if theta != 0.0:
        events.append(_event(MwPulse, cfg, duration=theta / cfg.mw_rabi))
    meta = ScheduleMetadata(name="state_prep", bias_field=cfg.bias_field, initial_state="g4m4")
    return Schedule(tuple(events), meta)


def _pi2(cfg: BuilderConfig, detuning: float) -> MwPulse:
    return _event(MwPulse, cfg, duration=cfg.mw_pi_time / 2, detuning=detuning)


def _clock(cfg: BuilderConfig, transition: str) -> ClockPulse:
    return _event(ClockPulse, cfg, transition=transition, duration=cfg.clock_pi_time)


def build_ramsey(t: float = 0.08, detuning: float = 0.0,
                 cfg: BuilderConfig | None = None) -> Schedule:
    """Two pi/2 pulses separated by free evolution time t."""
    cfg = cfg or BuilderConfig()
    events = (_pi2(cfg, detuning), Wait(t), _pi2(cfg, detuning))
    meta = ScheduleMetadata(name="ramsey", bias_field=cfg.bias_field, initial_state="g30")
    return Schedule(events, meta)


def build_cp(n: int = 1, t: float = 1.0, detuning: float = 0.0,
             cfg: BuilderConfig | None = None) -> Schedule:
    """Carr-Purcell sequence: pi/2, n refocusing pi pulses, pi/2.

    The free-evolution time t is split uniformly: t/(2n) before the first
    and after the last pi pulse, t/n between neighbours.  n=0 reduces to
    the plain Ramsey sequence.  n may be a float with no fractional part.
    """
    if not float(n).is_integer():
        raise ScheduleError(f"pulse count must be a whole number, got {n!r}")
    n = int(n)
    if n < 0:
        raise ScheduleError("pulse count must be >= 0")
    cfg = cfg or BuilderConfig()
    events: list[PulseEvent] = [_pi2(cfg, detuning)]
    if n == 0:
        events.append(Wait(t))
    else:
        events.append(Wait(t / (2 * n)))
        for k in range(n):
            events.append(_event(MwPulse, cfg, duration=cfg.mw_pi_time, detuning=detuning))
            events.append(Wait(t / n if k < n - 1 else t / (2 * n)))
    events.append(_pi2(cfg, detuning))
    meta = ScheduleMetadata(name="cp", bias_field=cfg.bias_field, initial_state="g40")
    return Schedule(tuple(events), meta)


def build_rabi_scan(t: float = 2e-3, detuning: float = 0.0,
                    cfg: BuilderConfig | None = None) -> Schedule:
    """Single microwave pulse of duration t on the clock line."""
    cfg = cfg or BuilderConfig()
    events = (_event(MwPulse, cfg, duration=t, detuning=detuning),)
    meta = ScheduleMetadata(name="rabi", bias_field=cfg.bias_field, initial_state="g30")
    return Schedule(events, meta)


def build_lifetime(t: float = 1.0, state: str = "g30",
                   cfg: BuilderConfig | None = None) -> Schedule:
    """Free evolution for t from the sublevel ``state``: trap and two-body loss."""
    cfg = cfg or BuilderConfig()
    meta = ScheduleMetadata(name="lifetime", bias_field=cfg.bias_field, initial_state=str(state))
    return Schedule((Wait(t),), meta)


def build_shelving_readout(cfg: BuilderConfig | None = None) -> Schedule:
    """State-selective readout with metastable shelving.

    Both central sublevels are shelved with clock-line pi pulses, the
    stretched-state background is detected manifold by manifold, the shelved
    population is brought back, and detected the same way.  Each detection
    window is one probe pulse plus the dead time needed for probed atoms to
    leave the trap region.
    """
    cfg = cfg or BuilderConfig()

    events = (
        _clock(cfg, CLOCK_TRANSITION_F4),
        _clock(cfg, CLOCK_TRANSITION_F3),
        _event(Measure, cfg, label="N4", target_F=4),
        _event(Measure, cfg, label="N3", target_F=3),
        _clock(cfg, CLOCK_TRANSITION_F4),
        _clock(cfg, CLOCK_TRANSITION_F3),
        _event(Measure, cfg, label="N4_mf0", target_F=4),
        _event(Measure, cfg, label="N3_mf0", target_F=3),
    )
    meta = ScheduleMetadata(name="shelving_readout", bias_field=cfg.bias_field)
    return Schedule(events, meta)


def build_clock_rabi(t: float = 1e-3, cfg: BuilderConfig | None = None) -> Schedule:
    """The shelving readout from g40 with a first 1140 nm pulse of length t."""
    readout = build_shelving_readout(cfg)
    first = replace(readout.events[0], duration=t)
    meta = replace(readout.metadata, name="clock_rabi", initial_state="g40")
    return Schedule((first,) + readout.events[1:], meta)


def build_probe_scan(t: float | None = None, cfg: BuilderConfig | None = None) -> Schedule:
    """Two detections from g30: the first probe lasts t (default the
    reference ``probe_duration``), the second the reference length, so only
    the first pulse's back-action is measured."""
    cfg = cfg or BuilderConfig()
    first = {} if t is None else {"probe_duration": t}
    events = (_event(Measure, cfg, label="N4", target_F=4, **first),
              _event(Measure, cfg, label="N3", target_F=3))
    meta = ScheduleMetadata(name="probe_scan", bias_field=cfg.bias_field,
                            initial_state="g30")
    return Schedule(events, meta)


def build_clock_coherence(mode: str = "double", t: float = 0.05,
                          cfg: BuilderConfig | None = None) -> Schedule:
    """Microwave Ramsey pair with metastable storage inserted in the middle.

    ``mode='single'`` stores only the F=4 arm on the 1140 nm transition;
    ``mode='double'`` stores both arms (bicolor), which cancels the common
    laser phase.  The stored time t is bounded by the metastable lifetime.
    """
    if mode not in ("single", "double"):
        raise ScheduleError(f"mode must be 'single' or 'double', got {mode!r}")
    cfg = cfg or BuilderConfig()
    down: list[PulseEvent] = [_clock(cfg, CLOCK_TRANSITION_F4)]
    if mode == "double":
        down.append(_clock(cfg, CLOCK_TRANSITION_F3))
    up = list(reversed(down))
    events = [_pi2(cfg, 0.0), *down, Wait(t), *up, _pi2(cfg, 0.0)]
    meta = ScheduleMetadata(name=f"clock_coherence_{mode}", bias_field=cfg.bias_field,
                            initial_state="g30")
    core = Schedule(tuple(events), meta)
    return core.followed_by(build_shelving_readout(cfg))
