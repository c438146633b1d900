"""Timed pulse-sequence model: event types, protocol builders, script parser.

A schedule is a strictly sequential list of rectangular events.  Scripts use
one event per line (';' also separates events), ``kind key=value ...`` with
optional positional shorthands for the coherent pulses, and ``#`` comments::

    # prepare, then a Ramsey pair 80 ms apart
    mw pi 0deg
    wait 80ms
    mw pi/2 90deg detuning=5Hz

Durations, frequencies and angles accept unit suffixes (ms, us, kHz, MHz,
deg, rad, mG, ...); the canonical serialized form is suffix-free SI and
round-trips bit-exactly through the parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from .atom import AtomModel, TransitionKind, state_index
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
    pass


class ParseError(ScheduleError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# --------------------------------------------------------------------- events


@dataclass(frozen=True)
class MwPulse:
    """Coherent microwave pulse on one hyperfine transition."""

    transition: str = QUBIT_TRANSITION
    duration: float = 2e-3
    rabi_frequency: float = math.pi / 2e-3   # rad/s
    detuning: float = 0.0                    # Hz, from the nominal-field line
    phase: float = 0.0                       # rad

    kind = "mw"


@dataclass(frozen=True)
class ClockPulse:
    """Coherent 1140 nm pulse on one ground-metastable transition."""

    transition: str = CLOCK_TRANSITION_F4
    duration: float = 1e-3
    rabi_frequency: float = math.pi / 1e-3
    detuning: float = 0.0
    phase: float = 0.0

    kind = "clock"


@dataclass(frozen=True)
class RfSweep:
    """Linear RF sweep walking population across adjacent mF sublevels."""

    duration: float = 5e-3
    f_start: float = 800e3
    f_stop: float = 785e3

    kind = "rf_sweep"


@dataclass(frozen=True)
class Probe410:
    """Resonant 410 nm probe on one ground hyperfine manifold."""

    target_F: int = 4
    duration: float = 0.4e-3

    kind = "probe"


@dataclass(frozen=True)
class Clean530:
    """530 nm cleaning pulse removing one ground manifold."""

    target_F: int = 4
    duration: float = 3e-3
    s: float = 1.0            # I / I_sat
    detuning: float = 614e6   # Hz, detuning seen by the spectator manifold

    kind = "clean"


@dataclass(frozen=True)
class Wait:
    duration: float = 0.0

    kind = "wait"


@dataclass(frozen=True)
class Measure:
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


def _negative_time(ev: PulseEvent) -> str:
    """'negative <field> <value>' for the first negative time field of
    ``ev``, else ''."""
    names = ("probe_duration", "dead_time") if isinstance(ev, Measure) else ("duration",)
    return next((f"negative {name} {getattr(ev, name)}" for name in names
                 if getattr(ev, name) < 0), "")


# ------------------------------------------------------------------- schedule


@dataclass(frozen=True)
class ScheduleMetadata:
    name: str = ""
    bias_field: float = 0.6            # G
    initial_state: str | None = None   # sublevel token; None = default rule


@dataclass(frozen=True)
class Schedule:
    events: tuple[PulseEvent, ...] = ()
    metadata: ScheduleMetadata = field(default_factory=ScheduleMetadata)

    @property
    def duration(self) -> float:
        return sum(ev.duration for ev in self.events)

    def validate(self, model: AtomModel) -> None:
        """Raise ScheduleError on any violated invariant."""
        for i, ev in enumerate(self.events):
            if problem := _negative_time(ev):
                raise ScheduleError(f"event {i}: {problem}")
            if isinstance(ev, (MwPulse, ClockPulse)):
                try:
                    spec = model.find_transition(ev.transition)
                except KeyError as exc:
                    raise ScheduleError(f"event {i}: {exc.args[0]}") from None
                want = TransitionKind.MW_HYPERFINE if isinstance(ev, MwPulse) else TransitionKind.OPTICAL_1140
                if spec.kind is not want:
                    raise ScheduleError(
                        f"event {i}: transition {ev.transition} is {spec.kind.value}, not {want.value}"
                    )
            if isinstance(ev, (Probe410, Clean530, Measure)) and ev.target_F not in (3, 4):
                raise ScheduleError(f"event {i}: target_F must be 3 or 4")
        if self.metadata.bias_field < 0:
            raise ScheduleError("bias field must be >= 0")
        token = self.metadata.initial_state
        if token is not None:
            try:
                state_index(token)
            except ValueError as exc:
                raise ScheduleError(f"initial_state {token!r}: {exc}") from None

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


def _parse_value(text: str, line: int, column: int) -> float:
    m = _NUMBER_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse value {text!r}", line, column)
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit:
        if unit not in _UNITS:
            raise ParseError(f"unknown unit {m.group(2)!r}", line, column)
        value *= _UNITS[unit]
    return value


def _parse_area(text: str, line: int, column: int) -> float:
    """Pulse area in rad: 'pi', 'pi/2', '3pi/2', '0.5pi' or a number+unit."""
    m = _AREA_RE.match(text)
    if m:
        mult = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        return mult * math.pi / div
    return _parse_value(text, line, column)


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


def _coherent_event(cls, cfg: BuilderConfig, tokens, kwargs, line):
    if cls is MwPulse:
        defaults = {"transition": QUBIT_TRANSITION, "rabi": cfg.mw_rabi}
    else:
        defaults = {"transition": CLOCK_TRANSITION_F4, "rabi": cfg.clock_rabi}
    area = phase = None
    if tokens:
        area = _parse_area(tokens[0], line, 2)
    if len(tokens) > 1:
        phase = _parse_value(tokens[1], line, 3)
    if len(tokens) > 2:
        raise ParseError(f"too many positional arguments for {cls.kind}", line, 4)
    rabi = float(kwargs.pop("rabi", defaults["rabi"]))
    if "duration" in kwargs:
        duration = kwargs.pop("duration")
        if area is not None:
            raise ParseError("give either a pulse area or duration=, not both", line, 2)
    else:
        duration = (area if area is not None else math.pi) / rabi
    return cls(
        transition=str(kwargs.pop("transition", defaults["transition"])),
        duration=float(duration),
        rabi_frequency=rabi,
        detuning=float(kwargs.pop("detuning", 0.0)),
        phase=float(phase if phase is not None else kwargs.pop("phase", 0.0)),
    ), kwargs


def _parse_event(kind: str, tokens, kwargs, cfg: BuilderConfig, line: int) -> PulseEvent:
    if kind in ("mw", "clock"):
        cls = MwPulse if kind == "mw" else ClockPulse
        ev, rest = _coherent_event(cls, cfg, tokens, kwargs, line)
    elif kind == "wait":
        duration = tokens[0] if tokens else kwargs.pop("duration", "0")
        ev, rest = Wait(duration=_parse_value(str(duration), line, 2)), kwargs
    elif kind == "rf_sweep":
        ev = RfSweep(
            duration=float(kwargs.pop("duration", cfg.rf_sweep_time)),
            f_start=float(kwargs.pop("f_start", cfg.rf_f_start)),
            f_stop=float(kwargs.pop("f_stop", cfg.rf_f_stop)),
        )
        rest = kwargs
    elif kind == "probe":
        ev = Probe410(
            target_F=int(kwargs.pop("target_f", 4)),
            duration=float(kwargs.pop("duration", cfg.probe_duration)),
        )
        rest = kwargs
    elif kind == "clean":
        ev = Clean530(
            target_F=int(kwargs.pop("target_f", 4)),
            duration=float(kwargs.pop("duration", cfg.clean_time)),
            s=float(kwargs.pop("s", cfg.clean_s)),
            detuning=float(kwargs.pop("detuning", cfg.clean_detuning)),
        )
        rest = kwargs
    elif kind == "measure":
        label = str(tokens[0]) if tokens else str(kwargs.pop("label", "N4"))
        target_default = 3 if label.startswith("N3") else 4
        ev = Measure(
            label=label,
            target_F=int(kwargs.pop("target_f", target_default)),
            probe_duration=float(kwargs.pop("probe_duration", cfg.probe_duration)),
            dead_time=float(kwargs.pop("dead_time", cfg.dead_time)),
        )
        rest = kwargs
    else:
        raise ParseError(f"unknown event kind {kind!r}", line)
    if rest:
        raise ParseError(f"unknown argument {next(iter(rest))!r} for {kind}", line)
    if problem := _negative_time(ev):
        raise ParseError(problem, line)
    return ev


def parse_sequence(text: str, cfg: BuilderConfig | None = None,
                   model: AtomModel | None = None) -> Schedule:
    """Parse a sequence script into a validated Schedule.

    Raises ParseError with the offending line (and column where known) on
    malformed input; unknown transition names surface via validation when a
    model is supplied.
    """
    cfg = cfg or BuilderConfig()
    events: list[PulseEvent] = []
    meta_kwargs: dict = {"bias_field": cfg.bias_field}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise ParseError("pragma needs a value, e.g. '@name ramsey'", lineno)
            key, value = parts[0], parts[1].strip()
            if key == "name":
                meta_kwargs["name"] = value
            elif key == "bias_field":
                meta_kwargs["bias_field"] = _parse_value(value, lineno, 2)
            elif key == "initial_state":
                meta_kwargs["initial_state"] = value
            else:
                raise ParseError(f"unknown pragma {key!r}", lineno)
            continue
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            words = stmt.split()
            kind = words[0]
            tokens = [w for w in words[1:] if "=" not in w]
            kwargs = {}
            for w in words[1:]:
                if "=" in w:
                    k, _, v = w.partition("=")
                    if not k or not v:
                        raise ParseError(f"malformed argument {w!r}", lineno)
                    kwargs[k.lower()] = _parse_value(v, lineno, 2) if k.lower() != "label" and k.lower() != "transition" else v
            events.append(_parse_event(kind, tokens, kwargs, cfg, lineno))
    schedule = Schedule(tuple(events), ScheduleMetadata(**meta_kwargs))
    if model is not None:
        schedule.validate(model)
    return schedule


_SERIAL_NAMES = {"rabi_frequency": "rabi", "target_F": "target_f"}


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
        RfSweep(duration=cfg.rf_sweep_time, f_start=cfg.rf_f_start, f_stop=cfg.rf_f_stop),
        MwPulse(duration=cfg.mw_pi_time, rabi_frequency=cfg.mw_rabi),
        Clean530(target_F=4, duration=cfg.clean_time, s=cfg.clean_s, detuning=cfg.clean_detuning),
    ]
    if theta != 0.0:
        events.append(MwPulse(duration=theta / cfg.mw_rabi, rabi_frequency=cfg.mw_rabi))
    meta = ScheduleMetadata(name="state_prep", bias_field=cfg.bias_field, initial_state="g4m4")
    return Schedule(tuple(events), meta)


def _pi2(cfg: BuilderConfig, detuning: float, phase: float = 0.0) -> MwPulse:
    return MwPulse(duration=cfg.mw_pi_time / 2, rabi_frequency=cfg.mw_rabi,
                   detuning=detuning, phase=phase)


def _pi(cfg: BuilderConfig, detuning: float, phase: float = 0.0) -> MwPulse:
    return MwPulse(duration=cfg.mw_pi_time, rabi_frequency=cfg.mw_rabi,
                   detuning=detuning, phase=phase)


def _clock(cfg: BuilderConfig, transition: str) -> ClockPulse:
    return ClockPulse(transition=transition, duration=cfg.clock_pi_time,
                      rabi_frequency=cfg.clock_rabi)


def build_ramsey(t: float = 0.08, detuning: float = 0.0,
                 cfg: BuilderConfig | None = None) -> Schedule:
    """Two pi/2 pulses separated by free evolution time t."""
    if t < 0:
        raise ScheduleError("free evolution time must be >= 0")
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
    if t < 0:
        raise ScheduleError("free evolution time must be >= 0")
    cfg = cfg or BuilderConfig()
    events: list[PulseEvent] = [_pi2(cfg, detuning)]
    if n == 0:
        events.append(Wait(t))
    else:
        events.append(Wait(t / (2 * n)))
        for k in range(n):
            events.append(_pi(cfg, detuning))
            events.append(Wait(t / n if k < n - 1 else t / (2 * n)))
    events.append(_pi2(cfg, detuning))
    meta = ScheduleMetadata(name="cp", bias_field=cfg.bias_field, initial_state="g40")
    return Schedule(tuple(events), meta)


def build_rabi_scan(t: float = 2e-3, detuning: float = 0.0,
                    cfg: BuilderConfig | None = None) -> Schedule:
    """Single microwave pulse of duration t on the clock line."""
    if t < 0:
        raise ScheduleError("pulse duration must be >= 0")
    cfg = cfg or BuilderConfig()
    events = (MwPulse(duration=t, rabi_frequency=cfg.mw_rabi, detuning=detuning),)
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

    def measure(label, target):
        return Measure(label=label, target_F=target, probe_duration=cfg.probe_duration,
                       dead_time=cfg.dead_time)

    events = (
        _clock(cfg, CLOCK_TRANSITION_F4),
        _clock(cfg, CLOCK_TRANSITION_F3),
        measure("N4", 4),
        measure("N3", 3),
        _clock(cfg, CLOCK_TRANSITION_F4),
        _clock(cfg, CLOCK_TRANSITION_F3),
        measure("N4_mf0", 4),
        measure("N3_mf0", 3),
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
    events = (
        Measure(label="N4", target_F=4, dead_time=cfg.dead_time,
                probe_duration=cfg.probe_duration if t is None else t),
        Measure(label="N3", target_F=3, probe_duration=cfg.probe_duration,
                dead_time=cfg.dead_time),
    )
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
    if t < 0:
        raise ScheduleError("storage time must be >= 0")
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
