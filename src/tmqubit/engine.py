"""Closed-form time evolution of the 28-level ensemble through a schedule.

Every pulse in the experiment is rectangular and addresses one sublevel
pair, so each event maps to an exact two-level propagator embedded in the
full basis, combined with multiplicative decay/loss factors:

* coherent pulses: exact generalized-Rabi rotation, with the drive phase
  tracked in a frame rotating at the nominal (bias-field) transition
  frequencies, so detuning scans produce the correct fringe phases across
  multi-pulse sequences;
* free evolution: per-sublevel Zeeman phases from the sampled field offset
  and slow drift (integrated analytically), metastable decay with
  Clebsch-Gordan branching, single-atom trap loss, and the two-body
  collision channels (redistribution for the F=4 central sublevel, loss
  for the others) with exact closed-form survival factors;
* 1140 nm pulses: the standing-wave averaged excitation map produced by
  parasitic back-reflection, applied as a mixture of rotations;
* probe/clean pulses: calibrated rate processes.

The state is held unnormalized: trace(rho) is the surviving fraction of the
initial ensemble and the complement is the lost count.  The engine has one
leading batch axis of rows, and one run loop, ``run_scan``: it evolves the
(point x shot) rows of a scan in blocks, each block one (rows, k, k) state
with per-row field offsets, wall clocks, laser phases, noise seeds and pulse
detunings and phases.  Every event goes through one frame, ``apply_event``,
once on the whole block: its kind's action does the instantaneous part, and
the frame then applies the decay and loss over the event's duration (a pulse
decays inside its own substeps), the laser phase walk and the clock.  A state
starts at its initial sublevel and each action, before it acts, holds the
sublevels it can reach (``EnsembleState.hold``; 9 of 28 for a Ramsey shot
with readout), at rows x k^2 x 16 bytes; every other entry would stay exactly
zero.  One reach rule, ``_reach``, gives them from the action's stages of
exchanges and decay, and ``_grow`` keys its memo on the rule's inputs.  Scan
points whose schedules differ only in the ``detuning`` and ``phase`` of their
microwave and 1140 nm pulses, with equal calibrations and noise models equal
but for the seed, form a group and share blocks; any other point is a group
of one.  Blocks are sized by their state entries: the first block of a group
has ``_BATCH_SHOTS`` rows, and every later one, which reaches the same k, up
to max(``_BATCH_SHOTS``, ``_BLOCK_ENTRIES`` // k^2) rows.  ``run_schedule``
is the scan of one point.  The state has this one shape everywhere: a single
shot (``run_shot``, ``EnsembleState.pure``, a ``ShotContext`` of one index)
is a block of one row, and every per-row quantity is a 1-D array over the
rows.  Each row is seeded from its own point's seed and shot index, and every
sum runs in a fixed order, so a shot's outcome depends only on its point and
index, not on the block it ran in.  Readout counts are columns: a measurement
returns one column over the rows, ``_run_batch`` collects them by label into
the block's record and calibrates it in one call, and ``run_scan`` gives one
record per point, with a row per shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .atom import (
    AtomModel,
    BASIS,
    DIM,
    Manifold,
    STATE_INDEX,
    SublevelRef,
    TransitionKind,
    metastable_branching_table,
    state_index,
)
from .fitting import model_two_body_loss
from .readout import (
    CrosstalkCalibration,
    block_record,
    crosstalk_fraction,
    join_records,
    probe_signal_scale,
    pump_depletion,
)
from .schedule import (
    Clean530,
    ClockPulse,
    Measure,
    MwPulse,
    Probe410,
    RfSweep,
    Schedule,
    Wait,
)

__all__ = [
    "EnsembleState",
    "NoiseModel",
    "SinusoidDrift",
    "RandomWalkDrift",
    "LossParameters",
    "TWO_BODY_TABLE",
    "ShotContext",
    "apply_event",
    "coherent_prep_transfer",
    "clock_rotation_transfer",
    "run_scan",
    "run_schedule",
    "run_shot",
    "default_calibration",
]

_GROUND_F4 = np.array([STATE_INDEX[s] for s in BASIS
                       if s.manifold is Manifold.GROUND and s.F == 4])
_GROUND_F3 = np.array([STATE_INDEX[s] for s in BASIS
                       if s.manifold is Manifold.GROUND and s.F == 3])
_META = np.array([STATE_INDEX[s] for s in BASIS
                  if s.manifold is Manifold.METASTABLE_1140])
# the metastable states close the basis, so rows/columns scale through a view
_META_ROWS = slice(int(_META[0]), int(_META[-1]) + 1)
assert _META_ROWS.stop == DIM and len(_META) == DIM - _META_ROWS.start
_GROUND_BY_F = {4: _GROUND_F4, 3: _GROUND_F3}
_G4_NONZERO = np.array([i for i in _GROUND_F4 if BASIS[i].mF != 0])
_G40 = state_index("g40")


# ----------------------------------------------------------------- noise model


def _require(name: str, value: float, positive: bool = False,
             non_negative: bool = False) -> None:
    """Raise ValueError naming ``name`` unless value is finite (and > 0 or
    >= 0 when asked)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if non_negative and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class SinusoidDrift:
    """Deterministic slow field drift B(t) = amplitude*sin(2*pi*t/period)."""

    amplitude: float = 0.0   # G
    period: float = 1.0      # s

    kind = "sinusoid"

    def __post_init__(self):
        _require("amplitude", self.amplitude)
        _require("period", self.period, positive=True)


@dataclass(frozen=True)
class RandomWalkDrift:
    """Field drift stepping by N(0, step) every `interval` seconds."""

    step: float = 0.0       # G
    interval: float = 1.0   # s

    kind = "random_walk"

    def __post_init__(self):
        _require("step", self.step, non_negative=True)
        _require("interval", self.interval, positive=True)


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static field noise, optional slow drift, optional laser phase walk.

    The per-shot field offset is sampled once per shot; the drift waveform is
    tied to a wall clock that advances by the schedule duration plus the
    preparation dead time between shots, so consecutive shots sample
    consecutive stretches of the same slow process.
    """

    sigma_B_shot: float = 150e-6          # G
    drift: SinusoidDrift | RandomWalkDrift | None = None
    laser_phase_diffusion: float = 0.0    # rad^2/s on the 1140 nm light
    seed: int = 0
    inter_shot_dead_time: float = 0.6     # s

    def __post_init__(self):
        _require("sigma_B_shot", self.sigma_B_shot, non_negative=True)
        _require("laser_phase_diffusion", self.laser_phase_diffusion, non_negative=True)
        _require("inter_shot_dead_time", self.inter_shot_dead_time, non_negative=True)

    @staticmethod
    def off(seed: int = 0) -> "NoiseModel":
        return NoiseModel(sigma_B_shot=0.0, drift=None, laser_phase_diffusion=0.0, seed=seed)


def _shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """The generator of shot ``shot_index`` under noise seed ``seed``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, shot_index])))


def _walk_values(seed: int, n: int) -> np.ndarray:
    """Cumulative standard-normal walk, deterministic in (seed, index): at
    least ``n`` values, a power-of-two count of at least 1024."""
    return _walk(seed, max(1024, 1 << (n - 1).bit_length()))


@lru_cache(maxsize=32)
def _walk(seed: int, length: int) -> np.ndarray:
    """The first ``length`` values of the walk of ``seed``; every prefix
    depends on the seed only, so any length gives the same values."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B9])))
    walk = np.cumsum(rng.standard_normal(length))
    walk.setflags(write=False)
    return walk


# ------------------------------------------------------------- loss parameters

# Measured two-body loss coefficients, cm^3/s, keyed by initial state and
# bias field.  The F=4 central sublevel redistributes over mF != 0 without
# leaving the trap; the other two classes are genuine loss.
TWO_BODY_TABLE = {
    0.1: {"g4m4": 2.5e-11, "g40": 2.8e-9, "g30": 3.2e-9},
    0.6: {"g4m4": 6.6e-11, "g40": 1.1e-9, "g30": 4.3e-9},
}


@dataclass(frozen=True)
class LossParameters:
    """Single-atom lifetime and two-body channels of the trapped ensemble."""

    tau: float = 16.4                                 # s
    beta_by_state: tuple[tuple[str, float], ...] = (
        ("g4m4", 6.6e-11), ("g40", 1.1e-9), ("g30", 4.3e-9))
    volume_cm3: float = 0.16e-3                       # cm^3

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be strictly positive")
        if not self.volume_cm3 > 0:
            raise ValueError("volume must be strictly positive")
        for token, beta in self.beta_by_state:
            if beta < 0:
                raise ValueError(f"beta for {token} must be >= 0")
            state_index(token)

    @cached_property
    def class_arrays(self) -> tuple[np.ndarray, np.ndarray, int | None]:
        """The two-body classes with beta > 0, resolved once: their basis
        indices, beta/V per class, and the position of the redistributing
        g40 class (None without one)."""
        betas = {token: beta for token, beta in dict(self.beta_by_state).items() if beta > 0.0}
        tokens = list(betas)
        indices = np.array([state_index(token) for token in tokens], dtype=np.intp)
        g40 = tokens.index("g40") if "g40" in betas else None
        return indices, np.array(list(betas.values())) / self.volume_cm3, g40

    @classmethod
    def from_table(cls, B: float, tau: float = 16.4,
                   volume_cm3: float = 0.16e-3) -> "LossParameters":
        nearest = min(TWO_BODY_TABLE, key=lambda b: abs(b - B))
        return cls(tau=tau, beta_by_state=tuple(TWO_BODY_TABLE[nearest].items()),
                   volume_cm3=volume_cm3)

    @classmethod
    def off(cls) -> "LossParameters":
        return cls(tau=math.inf, beta_by_state=(("g4m4", 0.0), ("g40", 0.0), ("g30", 0.0)))

    @property
    def active(self) -> bool:
        return math.isfinite(self.tau) or any(b > 0 for _, b in self.beta_by_state)


# -------------------------------------------------------------- ensemble state


class _Basis:
    """The sublevels a state holds, in ascending basis order, with the local
    index sets of the handlers, each resolved once.

    ``states`` are basis indices; a handler maps its indices through
    ``local`` and skips any pair with a member outside the basis, whose
    entries are exactly zero (``EnsembleState.hold``).  Equal sets share
    one instance (``_basis_of``).
    """

    def __init__(self, states):
        self.states = np.array(sorted(states), dtype=np.intp)
        self.dim = len(self.states)
        self.local = {int(s): k for k, s in enumerate(self.states)}
        # the held states of each ground manifold, and the held metastable
        # states: they close the basis, so a view slices them
        self.ground = {F: self._subset(full) for F, full in _GROUND_BY_F.items()}
        self.meta = slice(int(np.searchsorted(self.states, _META_ROWS.start)), self.dim)
        self.g4_nonzero = self._subset(_G4_NONZERO)
        for shared in (self.states, self.g4_nonzero, *self.ground.values()):   # memoized
            shared.setflags(write=False)
        self._loss = self._loss_arrays = None
        self._branch_to_f4 = self._w = None
        self.grown = {}   # reach key -> the basis a handler grows this one to (_grow)

    def _subset(self, full: np.ndarray) -> np.ndarray:
        return np.array([self.local[i] for i in full.tolist() if i in self.local], dtype=np.intp)

    def loss_arrays(self, loss: LossParameters) -> tuple[np.ndarray, np.ndarray, int | None]:
        """``loss.class_arrays`` over the held classes, in local indices.
        Kept for the last ``loss`` seen."""
        if loss is not self._loss:
            indices, beta_over_v, g40 = loss.class_arrays
            keep = [k for k, i in enumerate(indices.tolist()) if i in self.local]
            local = np.array([self.local[int(indices[k])] for k in keep], dtype=np.intp)
            g40 = keep.index(g40) if g40 in keep else None
            self._loss, self._loss_arrays = loss, (local, beta_over_v[keep], g40)
        return self._loss_arrays

    def branching(self, branch_to_f4: float) -> np.ndarray:
        """``_branching_matrix`` over the held states and held metastable
        states.  Kept for the last ``branch_to_f4`` seen."""
        if branch_to_f4 != self._branch_to_f4:
            w = _branching_matrix(branch_to_f4)
            cols = self.states[self.meta] - _META_ROWS.start
            self._branch_to_f4, self._w = branch_to_f4, w[np.ix_(self.states, cols)]
        return self._w


@lru_cache(maxsize=256)
def _basis_of(states: frozenset[int]) -> _Basis:
    """The one ``_Basis`` of the basis indices ``states``."""
    return _Basis(states)


_FULL = _basis_of(frozenset(range(DIM)))


class EnsembleState:
    """Density matrices of a block of rows over a basis of sublevels, plus
    atom-number bookkeeping.

    ``rho`` is (rows, k, k) over the k sublevels of ``basis``: all 28 by
    default, and from ``pure`` on those its events have reached (``hold``).
    It is unnormalized: a row's trace is the fraction of the initial ``n0``
    atoms still trapped, so ``atom_number + lost == n0`` holds through
    every event.  ``rho`` is held C-contiguous, so the handlers can update
    its diagonal through a view.  The accessors below read a one-row state
    (a single shot) and raise on more rows; a sublevel outside the basis
    reads 0.
    """

    __slots__ = ("_rho", "n0", "basis")

    def __init__(self, rho: np.ndarray, n0: float, basis: _Basis = _FULL):
        self.basis = basis
        self.rho = rho
        self.n0 = float(n0)

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @rho.setter
    def rho(self, rho: np.ndarray) -> None:
        rho = np.ascontiguousarray(rho)
        k = self.basis.dim
        if rho.ndim != 3 or rho.shape[1:] != (k, k):
            raise ValueError(f"rho must be (rows, {k}, {k}) over the basis, got {rho.shape}")
        self._rho = rho

    @classmethod
    def pure(cls, token: str, n0: float = 5000.0) -> "EnsembleState":
        """One row, every atom in sublevel ``token``, the one held sublevel."""
        idx = state_index(token)
        rho = np.zeros((1, 1, 1), dtype=complex)
        rho[0, 0, 0] = 1.0
        return cls(rho, n0, _basis_of(frozenset((idx,))))

    def hold(self, indices) -> None:
        """Hold the basis indices ``indices`` too: each new one enters as a
        zero row and column, and every held entry keeps its value."""
        new = set(indices).difference(self.basis.local)
        if new:
            self._embed(_basis_of(frozenset(self.basis.local).union(new)))

    def _embed(self, basis: _Basis) -> None:
        """Move rho into ``basis``, which holds every held sublevel."""
        rho = np.zeros((len(self._rho), basis.dim, basis.dim), dtype=self._rho.dtype)
        at = basis.states.searchsorted(self.basis.states)
        rho[:, at[:, None], at] = self._rho
        self.basis, self._rho = basis, rho

    def _row(self) -> np.ndarray:
        if len(self.rho) != 1:
            raise ValueError(f"the accessors read a one-row state, not {len(self.rho)} rows")
        return self.rho[0]

    def _local(self, token: str) -> int | None:
        return self.basis.local.get(state_index(token))

    @property
    def trace(self) -> float:
        # added in basis order, so a compact basis reads as the full one
        return float(sum(self._row().diagonal().real.tolist()))

    @property
    def atom_number(self) -> float:
        return self.n0 * self.trace

    @property
    def lost(self) -> float:
        return self.n0 - self.atom_number

    def population(self, token: str) -> float:
        row, i = self._row(), self._local(token)
        return 0.0 if i is None else float(row[i, i].real)

    def manifold_population(self, manifold: Manifold, F: int | None = None) -> float:
        row = self._row()
        return float(sum(row[k, k].real for k, i in enumerate(self.basis.states.tolist())
                         if BASIS[i].manifold is manifold and (F is None or BASIS[i].F == F)))

    def coherence(self, token_a: str, token_b: str) -> complex:
        row, i, j = self._row(), self._local(token_a), self._local(token_b)
        return 0j if i is None or j is None else complex(row[i, j])


# ---------------------------------------------------------------- shot context


@lru_cache(maxsize=8)
def _zeeman_coeffs(model: AtomModel) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-state (linear, quadratic) field coefficients of a model,
    which is immutable after construction."""
    k, q = (np.array(c) for c in zip(*map(model.state_zeeman_coeffs, BASIS)))
    k.setflags(write=False)
    q.setflags(write=False)
    return k, q


class ShotContext:
    """Sampled noise, elapsed time, and model/loss references of a block of
    rows, one shot each.

    ``shot_index`` is a sequence of shot indices, one per row, or one index
    (a block of one row); ``seeds`` gives each row its noise seed (default
    ``noise.seed`` for every row), and ``noise`` supplies everything else.
    Each row draws from its own generator, ``_shot_rng(seed, k)``, in the
    order of the schedule's events, and its random-walk drift follows the
    walk of its seed, so its numbers do not depend on the other rows of the
    block.  ``delta_B``, ``wall_t0``, ``laser_phase`` and the field queries
    are 1-D arrays over the rows; schedule time ``t`` is common to all rows.
    """

    def __init__(self, model: AtomModel, noise: NoiseModel, loss: LossParameters,
                 schedule: Schedule, shot_index,
                 calibration: CrosstalkCalibration | None = None, seeds=None):
        self.model = model
        self.noise = noise
        self.loss = loss
        self.calibration = calibration or CrosstalkCalibration()
        self.B_nominal = schedule.metadata.bias_field
        shots = np.atleast_1d(shot_index)
        seeds = [noise.seed] * len(shots) if seeds is None else [int(s) for s in seeds]
        self.rngs = [_shot_rng(s, int(k)) for s, k in zip(seeds, shots)]
        # noise seed -> mask of its rows, for the random-walk drift
        self._walk_rows = {s: np.array([x == s for x in seeds]) for s in dict.fromkeys(seeds)}
        self.wall_t0 = shots * (schedule.duration + noise.inter_shot_dead_time)
        self.delta_B = (self.draw_normal(noise.sigma_B_shot)
                        if noise.sigma_B_shot > 0 else 0.0)
        self.t = 0.0
        self.laser_phase = np.zeros(len(shots))
        self._zeeman_k, self._zeeman_q = _zeeman_coeffs(model)

    @property
    def delta_B(self) -> np.ndarray:
        """Per-row quasi-static field offset (G); setting a number sets it
        for every row."""
        return self._delta_B

    @delta_B.setter
    def delta_B(self, value) -> None:
        self._delta_B = np.zeros(len(self.rngs)) + value

    def draw_normal(self, sd: float) -> np.ndarray:
        """One N(0, sd) draw from each row's generator."""
        return np.array([rng.normal(0.0, sd) for rng in self.rngs])

    # ---- field sampling -----------------------------------------------------

    def _walk_at(self, k: np.ndarray) -> np.ndarray:
        """Standard random-walk values at interval indices ``k`` (an array
        broadcasting against the shots), each shot reading its seed's walk."""
        n = int(k.max()) + 1
        out = np.empty(np.broadcast_shapes(k.shape, self.wall_t0.shape))
        k = np.broadcast_to(k, out.shape)
        for seed, rows in self._walk_rows.items():
            out[..., rows] = _walk_values(seed, n)[k[..., rows]]
        return out

    def _drift_value(self, wall_t: np.ndarray):
        d = self.noise.drift
        if d is None:
            return 0.0
        if isinstance(d, SinusoidDrift):
            return d.amplitude * np.sin(2 * math.pi * wall_t / d.period)
        k = np.maximum(wall_t // d.interval, 0).astype(np.intp)
        return d.step * self._walk_at(k)

    def field_offset(self, t: float) -> np.ndarray:
        """B(t) - B_nominal at schedule time t (G), per shot."""
        return self.delta_B + self._drift_value(self.wall_t0 + t)

    def field_at(self, t: float) -> np.ndarray:
        return self.B_nominal + self.field_offset(t)

    def _offset_integrals(self, t0, t1) -> tuple[np.ndarray, np.ndarray]:
        """(int o dt, int o^2 dt) of the field offset o(t) over [t0, t1], zero
        for t1 <= t0.  ``t0``/``t1`` may be arrays of interval edges that
        broadcast against the shots (e.g. one row per pulse substep)."""
        t1 = np.maximum(t0, t1)
        dt = t1 - t0
        o = self.delta_B
        d = self.noise.drift
        if d is None:
            return o * dt, o * o * dt
        if isinstance(d, SinusoidDrift):
            w = 2 * math.pi / d.period
            a, b = w * (self.wall_t0 + t0), w * (self.wall_t0 + t1)
            int_d = -(d.amplitude / w) * (np.cos(b) - np.cos(a))
            int_d2 = 0.5 * d.amplitude**2 * (dt - (np.sin(2 * b) - np.sin(2 * a)) / (2 * w))
            i1 = o * dt + int_d
            i2 = o**2 * dt + 2 * o * int_d + int_d2
            return i1, i2
        # random walk: piecewise constant on drift intervals; an interval that
        # has ended adds zero-length segments
        wa, wb = np.broadcast_arrays(self.wall_t0 + t0, self.wall_t0 + t1)
        k = (wa // d.interval).astype(np.intp)
        i1, i2 = np.zeros(wa.shape), np.zeros(wa.shape)
        t = wa
        while (active := t < wb).any():
            t_next = np.minimum(wb, (k + 1) * d.interval)
            seg = np.where(active, t_next - t, 0.0)
            step = o + d.step * self._walk_at(k)
            i1 += step * seg
            i2 += step * step * seg
            k = k + active
            t = np.where(active, t_next, t)
        return i1, i2

    def field_integrals(self, t0, t1) -> tuple[np.ndarray, np.ndarray]:
        """(I1, I2) = (int (B-Bn) dt, int (B^2-Bn^2) dt) over [t0, t1], G*s units."""
        i1, i2 = self._offset_integrals(t0, t1)
        return i1, 2.0 * self.B_nominal * i1 + i2

    def zeeman_phases(self, t0, t1, states=slice(None)) -> np.ndarray:
        """Phase (rad) accumulated from the field deviation per shot (and per
        interval) on each of the basis states ``states`` (default all)."""
        i1, i2 = self.field_integrals(t0, t1)
        return 2 * math.pi * (np.multiply.outer(i1, self._zeeman_k[states])
                              + np.multiply.outer(i2, self._zeeman_q[states]))

    def advance_laser_phase(self, dt: float) -> None:
        d = self.noise.laser_phase_diffusion
        if d > 0 and dt > 0:
            self.laser_phase = self.laser_phase + self.draw_normal(math.sqrt(d * dt))


# --------------------------------------------------------- low-level channels
#
# Every channel acts on a (shots, k, k) batch over the k states of a basis,
# and takes local indices.  Per-shot factors are arrays over the batch, and
# every sum over states or matrix entries is written out in a fixed order, so
# a shot rounds the same at any batch size and in any basis that holds it.


def _diagonal(rho: np.ndarray) -> np.ndarray:
    """Writable (shots, k) view of the diagonals of a C-contiguous batch."""
    k = rho.shape[-1]
    return rho.reshape(len(rho), k * k)[:, ::k + 1]


def _population(rho: np.ndarray, indices) -> np.ndarray:
    """Per-shot population of the states ``indices``, added in index order."""
    if not len(indices):
        return np.zeros(len(rho))
    diag = _diagonal(rho).real
    total = diag[:, indices[0]].copy()
    for k in indices[1:]:
        total += diag[:, k]
    return total


def _apply_state_phases(rho: np.ndarray, phases: np.ndarray) -> None:
    """rho -> D rho D^dagger, D = diag(e^{-i phases}), in place: rows, then
    columns."""
    ph = np.exp(-1j * phases)
    rho *= ph[..., :, None]
    rho *= ph.conj()[..., None, :]


def _scale_states(rho: np.ndarray, indices, f) -> None:
    """rho -> D rho D in place, D = diag(f on ``indices``, 1 elsewhere).

    ``f`` is one factor, one per shot, or one per shot and index (shots,
    len(indices)).
    """
    if isinstance(indices, (int, np.integer)):
        indices = slice(indices, indices + 1)
    f = np.asarray(f, dtype=float)
    if f.ndim < 2:
        f = f.reshape(-1, 1)
    rho[:, indices] *= f[..., None]
    rho[:, :, indices] *= f[..., None, :]


def _apply_pair_unitary(rho: np.ndarray, i: int, j: int, u: np.ndarray) -> None:
    """rho -> U rho U^dagger for U = [[a, b], [c, d]] acting on the pair
    (i, j), entries ``u[..., :] = (a, b, c, d)`` per shot: two rows, then two
    columns, in place."""
    u = u[..., None]
    a, b, c, d = u[..., 0, :], u[..., 1, :], u[..., 2, :], u[..., 3, :]
    ri, rj = rho[:, i], rho[:, j]
    new_i = a * ri + b * rj
    rj *= d
    rj += c * ri
    ri[:] = new_i
    u = u.conj()
    a, b, c, d = u[..., 0, :], u[..., 1, :], u[..., 2, :], u[..., 3, :]
    ci, cj = rho[:, :, i], rho[:, :, j]
    new_i = a * ci + b * cj
    cj *= d
    cj += c * ci
    ci[:] = new_i


def _apply_pair_channel(rho: np.ndarray, i: int, j: int, m2, s4: np.ndarray,
                        e_start, e_end) -> None:
    """Mixture-of-unitaries channel on pair (i, j), per shot: the mean matrix
    (entries ``m2`` as for ``_apply_pair_unitary``) acts on cross coherences,
    the drive-frame 4x4 superoperator s4 on the pair block, taken to the
    storage frame by the edge factors ``e_start`` = e^{i phase_start} and
    ``e_end`` = e^{-i phase_end}."""
    block = np.stack((rho[:, i, i], rho[:, i, j] * np.conj(e_start),
                      rho[:, j, i] * e_start, rho[:, j, j]), axis=-1)
    _apply_pair_unitary(rho, i, j, m2)
    terms = s4 * block[:, None, :]
    new = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
    rho[:, i, i] = new[:, 0]
    rho[:, i, j] = new[:, 1] * np.conj(e_end)
    rho[:, j, i] = new[:, 2] * e_end
    rho[:, j, j] = new[:, 3]


def _probabilistic_swap(rho: np.ndarray, i: int, j: int, p) -> None:
    """With probability p (one value or one per shot) exchange states i and j
    (incoherent transfer): rho -> (1-p) rho + p P rho P, P the swap of i, j."""
    p = np.asarray(p, dtype=float)[..., None]
    if not (p > 0.0).any():
        return
    i, j = min(i, j), max(i, j)   # the exchange is symmetric in i and j
    pair = slice(i, j + 1, j - i)
    block = rho[:, pair, pair].copy()
    for ri, rj in ((rho[:, i], rho[:, j]), (rho[:, :, i], rho[:, :, j])):
        moved = p * (rj - ri)
        ri += moved
        rj -= moved
    p = p[..., None]
    rho[:, pair, pair] = (1.0 - p) * block + p * block[:, ::-1, ::-1]


def _rotation(omega, delta, tau: float):
    """Entries (u00, u01, u11) of the drive-frame two-level propagator,
    basis (lower, upper); u10 = u01.  ``delta`` is drive minus atom (rad/s).
    ``omega`` and ``delta`` may be arrays, giving one propagator per entry."""
    w = np.hypot(omega, delta)
    half = 0.5 * w * tau
    c = np.cos(half)
    s_w = np.sin(half) / np.where(w > 0.0, w, 1.0)   # sin(half) = 0 where w = 0
    phase = np.exp(0.5j * delta * tau)
    return ((c - 1j * s_w * delta) * phase, -1j * s_w * omega * phase,
            (c + 1j * s_w * delta) * phase)


# Values of a standing-wave average evaluated together: this bounds the
# average's scratch (each value's nodes, and its node products for the
# 1140 nm channel) at any number of values, and a value's sums then run over
# arrays of the same layout whatever the other values are.
_AVERAGE_CHUNK = 64


def _standing_wave_average(average, a: float, n_values: int):
    """Standing-wave average of 1140 nm quantities, converged by node doubling.

    A back-reflection of amplitude ratio ``a`` modulates the Rabi frequency
    as Omega(z) = Omega0*sqrt(1+a^2+a*cos 2kz).  ``average(scale, rows)``
    maps node scales Omega(z)/Omega0 to a tuple of arrays whose leading axis
    runs over the values ``rows`` (indices into ``range(n_values)``), each
    already averaged over the nodes.  Of n midpoint nodes u of one optical
    period, the nodes u and 2*pi - u have equal scales, so ``average`` sees
    the n/2 scales of the first half period, whose mean is that of all n.
    n doubles from 32 until no entry of a value moves by 1e-9 (at most 16384
    nodes).  Every value stops at its own n, and the values are evaluated
    ``_AVERAGE_CHUNK`` at a time, so its average does not depend on the
    other values.
    """
    def evaluate(n_nodes: int, rows: np.ndarray):
        u = 2 * math.pi * (np.arange(n_nodes // 2) + 0.5) / n_nodes
        return average(np.sqrt(np.clip(1.0 + a * a + a * np.cos(u), 0.0, None)), rows)

    result = None
    for start in range(0, max(n_values, 1), _AVERAGE_CHUNK):
        n = 32
        rows = np.arange(start, min(start + _AVERAGE_CHUNK, n_values))
        out = evaluate(n, rows)
        if result is None:
            result = tuple(np.empty((n_values,) + x.shape[1:], dtype=x.dtype) for x in out)
        for res, new in zip(result, out):
            res[rows] = new
        while n < 16384 and len(rows):
            n *= 2
            prev, out = out, evaluate(n, rows)
            for res, new in zip(result, out):
                res[rows] = new
            moved = np.max([np.abs(new - old).reshape(len(rows), -1).max(axis=1)
                            for new, old in zip(out, prev)], axis=0)
            going = moved >= 1e-9
            rows, out = rows[going], tuple(x[going] for x in out)
    return result


# The node products e_a conj(e_b), e = (u00, u01, u11), formed for a <= b;
# the mean for a > b is the conjugate of that for (b, a).
_PRODUCT_A, _PRODUCT_B = np.triu_indices(3)
_PRODUCTS = tuple(zip(_PRODUCT_A.tolist(), _PRODUCT_B.tolist()))
# s4[2i+k, 2j+l] = <U_ij conj(U_kl)>, U = [[u00, u01], [u01, u11]]: the column
# of that mean among (<u00>, <u01>, <u11>, the 6 product means, their
# conjugates)
_U_ENTRY = ((0, 1), (1, 2))
_PRODUCT_COLUMN = np.empty((3, 3), dtype=np.intp)
_PRODUCT_COLUMN[_PRODUCT_B, _PRODUCT_A] = 9 + np.arange(6)
_PRODUCT_COLUMN[_PRODUCT_A, _PRODUCT_B] = 3 + np.arange(6)
_S4_COLUMNS = np.array([[_PRODUCT_COLUMN[_U_ENTRY[i][j], _U_ENTRY[k][m]]
                         for j in (0, 1) for m in (0, 1)]
                        for i in (0, 1) for k in (0, 1)])


def _clock_average_core(omega_tau: float, delta_tau, a: float) -> tuple:
    """Standing-wave average of the drive-frame rotation for one 1140 nm pulse.

    Returns (mean 2x2 matrix, 4x4 superoperator) of the mixture over the
    reflection-modulated Rabi frequency (``_standing_wave_average``) for
    every entry of ``delta_tau`` (a number, or an array such as one value
    per shot), shaped ``delta_tau``'s shape + (2, 2) and + (4, 4), read-only.
    Each distinct value is averaged once.
    """
    delta_tau = np.asarray(delta_tau, dtype=float)
    values, inverse = np.unique(delta_tau.ravel(), return_inverse=True)

    def average(scale, rows):
        # node sums of e, then of the products one pair at a time (no
        # (values, 6, nodes) copies), divided by the node count as
        # ndarray.mean divides, so each is the mean to the bit
        e = _rotation(omega_tau * scale, values[rows, None], 1.0)
        conj = [x.conj() for x in e]
        sums = ([np.add.reduce(x, axis=-1) for x in e]
                + [np.add.reduce(e[i] * conj[j], axis=-1) for i, j in _PRODUCTS])
        return (np.stack(sums, axis=1) / len(scale),)

    (means,) = _standing_wave_average(average, a, len(values))
    means = np.concatenate((means, means[:, 3:].conj()), axis=1)
    shape = delta_tau.shape
    m2 = means[:, [0, 1, 1, 2]][inverse].reshape(shape + (2, 2))
    s4 = means[:, _S4_COLUMNS][inverse].reshape(shape + (4, 4))
    m2.setflags(write=False)
    s4.setflags(write=False)
    return m2, s4


def clock_rotation_transfer(omega0: float, tau: float, a: float,
                            delta: float = 0.0) -> float:
    """Ground->metastable transfer probability of the averaged rotation alone
    (lifetime decay excluded)."""
    _, s4 = _clock_average_core(omega0 * tau, delta * tau, a)
    return float(s4[3, 0].real)


@lru_cache(maxsize=16)
def _branching_matrix(branch_to_f4: float) -> np.ndarray:
    """Read-only W[dst, k]: share of the decay of the k-th metastable state
    that lands in ground state dst."""
    w = np.zeros((DIM, len(_META)))
    for src, targets in metastable_branching_table(branch_to_f4).items():
        for dst, weight in targets:
            w[dst, src - _META_ROWS.start] = weight
    w.setflags(write=False)
    return w


def _metastable_decay(rho: np.ndarray, dt: float, model: AtomModel,
                      basis: _Basis = _FULL) -> None:
    c = model.constants
    if dt <= 0 or not math.isfinite(c.tau_c):
        return
    diag = _diagonal(rho)
    shelved = diag[:, basis.meta].real
    if not shelved.any():
        return   # empty metastable populations leave no coherences to decay
    surv = math.exp(-dt / c.tau_c)
    # a negative rounding residue on the diagonal frees nothing
    freed = (1.0 - surv) * np.maximum(shelved, 0.0)
    _scale_states(rho, basis.meta, math.sqrt(surv))
    w = basis.branching(c.metastable_branch_to_f4)
    for k in np.flatnonzero(freed.any(axis=0)):   # the populated metastable states
        diag += w[:, k] * freed[:, k, None]


def _apply_loss_channels(rho: np.ndarray, dt: float, n0: float,
                         loss: LossParameters, basis: _Basis = _FULL) -> None:
    """Single-atom loss plus the per-class two-body channels over dt."""
    if dt <= 0 or not loss.active:
        return
    tau_only = math.exp(-dt / loss.tau)           # 1 at tau = inf
    indices, beta_over_v, g40 = basis.loss_arrays(loss)
    diag = _diagonal(rho)
    # class populations at the start of the step, in atoms
    n_init = n0 * diag.real[:, indices]
    alive = n_init > 0.0
    n = np.where(alive, n_init, 1.0)
    n_t = model_two_body_loss(dt, n, loss.tau, beta_over_v)
    # state amplitudes scale by the two-body survival on top of the tau factor
    rho *= tau_only
    _scale_states(rho, indices,
                  np.where(alive, np.sqrt(np.maximum(n_t / n / tau_only, 0.0)), 1.0))
    if g40 is not None:
        # dipolar spin flips keep the atoms trapped: route the two-body
        # removal into the other F=4 sublevels.  Flipped atoms keep
        # decaying with tau afterwards, so exactly n_init*e^{-dt/tau}
        # of the class survives somewhere in F=4.
        removed = np.where(alive[:, g40],
                           np.maximum(n[:, g40] * tau_only - n_t[:, g40], 0.0), 0.0) / n0
        diag[:, basis.g4_nonzero] += (removed / len(_G4_NONZERO))[:, None]


def _remove_manifold(rho: np.ndarray, indices: np.ndarray) -> None:
    """Destructively remove ground-manifold population (to lost)."""
    rho[:, indices, :] = 0.0
    rho[:, :, indices] = 0.0


# --------------------------------------------------------------- event handlers


def _reach(held: set[int], stages, ctx: ShotContext) -> set[int]:
    """``held`` grown by ``stages`` in order.  A stage ``(sets, decays)``
    first exchanges within each of ``sets`` in order, each reaching all of
    its states from any held one, then, if ``decays``, decays: held
    metastable states reach their branching targets, and a held g40 reaches
    F=4 mF != 0 if active loss redistributes it."""
    for sets, decays in stages:
        for states in sets:
            if not held.isdisjoint(states):
                held.update(states)
        if not decays:
            continue
        if math.isfinite(ctx.model.constants.tau_c):
            branching = ctx.model.metastable_branching()
            for m in [s for s in held if s >= _META_ROWS.start]:
                held.update(dst for dst, _ in branching[m])
        if _G40 in held and ctx.loss.active and ctx.loss.class_arrays[2] is not None:
            held.update(_G4_NONZERO.tolist())
    return held


def _grow(state: EnsembleState, ctx: ShotContext, *stages) -> None:
    """Hold ``_reach(held, stages, ctx)``, the held set grown by what the
    calling action can reach.  The grown basis is kept on the basis under
    the reach's own inputs (at most 64 keys per basis), and reused."""
    key = (ctx.model, ctx.loss, stages)
    basis = state.basis
    grown = basis.grown.get(key)
    if grown is None:
        if len(basis.grown) >= 64:
            basis.grown.clear()
        state.hold(_reach(set(basis.local), stages, ctx))
        basis.grown[key] = state.basis
    elif grown is not basis:
        state._embed(grown)


def _decay_during(rho: np.ndarray, n0: float, dt: float, ctx: ShotContext,
                  basis: _Basis) -> None:
    _metastable_decay(rho, dt, ctx.model, basis)
    _apply_loss_channels(rho, dt, n0, ctx.loss, basis)


def _wait(state: EnsembleState, ev: Wait, ctx: ShotContext) -> None:
    """Free evolution: the Zeeman/drift phases (the frame adds metastable
    decay, trap loss and the two-body channels)."""
    if ev.duration == 0:
        return
    _grow(state, ctx, ((), True))
    _apply_state_phases(state.rho, ctx.zeeman_phases(ctx.t, ctx.t + ev.duration,
                                                     state.basis.states))


# (substep, row) values whose propagators are computed in one array
# evaluation: a chunk holds max(1, _SUBSTEP_CHUNK // rows) substeps, which
# bounds the memory of a long pulse's per-substep arrays at any block size
# (with drift every value is distinct, each with its own standing-wave nodes).
_SUBSTEP_CHUNK = 1024


def _substeps(loss: LossParameters, omega: float, tau: float) -> int:
    """Substeps of a pulse: active loss splits it into steps of period/16."""
    if loss.active and omega > 0:
        period = 2 * math.pi / omega
        return max(1, min(int(math.ceil(tau / (period / 16.0))), 200_000))
    return 1


def _coherent_pulse(state: EnsembleState, ctx: ShotContext, transition: str,
                    omega: float, detuning, phase, tau: float,
                    averaged: bool, spectators=()) -> None:
    # detuning and phase are numbers or per-shot arrays; ``spectators`` are
    # the (lower, upper) pairs the pulse exchanges after it
    spec = ctx.model.find_transition(transition)
    i = STATE_INDEX[spec.lower]
    j = STATE_INDEX[spec.upper]
    t0 = ctx.t
    if tau <= 0.0:
        return
    n_sub = _substeps(ctx.loss, omega, tau)
    dt = tau / n_sub
    # each substep repeats the first: decay, the pair, the pair's decay
    _grow(state, ctx, ((), True), (((i, j),), True), (spectators, False))
    rho = state.rho
    basis = state.basis

    # The Zeeman phases are diagonal and equal on the pair once the pair-common
    # part (the lower state's phase) is split off, so they commute with the
    # pair propagators and the decay channels: that part applies once for the
    # whole pulse, and the relative part enters each substep's rotation as
    # detuning.
    li, lj = basis.local.get(i), basis.local.get(j)
    states = basis.states
    if lj is not None:
        states = states.copy()
        states[lj] = i
    _apply_state_phases(rho, ctx.zeeman_phases(t0, t0 + tau, states))

    if li is None or lj is None:
        # one state of the pair is outside the basis (a held one is reached only
        # by the exchanges after it), so both stay empty: only the decay acts
        for _ in range(n_sub):
            _decay_during(rho, state.n0, dt, ctx, basis)
        return
    delta_n = 2 * math.pi * detuning
    a = math.sqrt(ctx.model.constants.clock_reflection_intensity)
    chunk = max(1, _SUBSTEP_CHUNK // len(rho))
    for start in range(0, n_sub, chunk):
        # substep edges, one row each, broadcasting against the shots
        ks = np.arange(start, min(start + chunk, n_sub))[:, None]
        ta, tb = t0 + ks * dt, t0 + (ks + 1) * dt
        pair = ctx.zeeman_phases(ta, tb, [i, j])
        delta = delta_n - (pair[..., 1] - pair[..., 0]) / dt
        # drive phase theta(t) = delta_n*t + phase at the substep edges takes
        # the drive-frame solution to the storage frame
        e_start = np.exp(1j * (delta_n * ta + phase))
        e_end = np.exp(-1j * (delta_n * tb + phase))
        if averaged:
            m2, s4 = _clock_average_core(omega * dt, delta * dt, a)
            u00, u01, u11 = m2[..., 0, 0], m2[..., 0, 1], m2[..., 1, 1]
        else:
            u00, u01, u11 = _rotation(omega, delta, dt)
        u = np.stack(np.broadcast_arrays(u00, u01 * e_start, u01 * e_end,
                                         u11 * (e_end * e_start)), axis=-1)
        for k in range(len(ks)):
            if averaged:
                _apply_pair_channel(rho, li, lj, u[k], s4[k], e_start[k], e_end[k])
            else:
                _apply_pair_unitary(rho, li, lj, u[k])
            _decay_during(rho, state.n0, dt, ctx, basis)


@lru_cache(maxsize=32)
def _spectators(model: AtomModel, transition: str) -> tuple[tuple, tuple]:
    """The microwave catalog lines other than ``transition``, in catalog
    order, each as (line, lower basis index, upper basis index), and their
    (lower, upper) pairs."""
    spec = model.find_transition(transition)
    lines = tuple((other, STATE_INDEX[other.lower], STATE_INDEX[other.upper])
                  for other in model.transition_catalog()
                  if other.kind is TransitionKind.MW_HYPERFINE and other is not spec)
    return lines, tuple((i, j) for _, i, j in lines)


def _mw_pulse(state: EnsembleState, ev: MwPulse, ctx: ShotContext) -> None:
    """Exact two-level rotation on the addressed hyperfine pair plus
    incoherent off-resonant leakage on every spectator line."""
    spec = ctx.model.find_transition(ev.transition)
    spectators, pairs = _spectators(ctx.model, ev.transition)
    _coherent_pulse(state, ctx, ev.transition, ev.rabi_frequency,
                    ev.detuning, ev.phase, ev.duration, averaged=False, spectators=pairs)
    if ev.duration <= 0.0:
        return
    # off-resonant excitation of the other catalog lines, at its oscillation
    # peak p = Omega_s^2 / (Omega_s^2 + (2 pi dnu)^2), scaled by strength
    local = state.basis.local
    held = [(other, local[i], local[j]) for other, i, j in spectators
            if i in local and j in local]
    if not held:
        return
    t_end = ctx.t + ev.duration   # the frame moves the clock after the action
    b_mid = ctx.field_at(t_end - 0.5 * ev.duration)
    f_drive = ctx.model.transition_frequency(spec, ctx.B_nominal) + ev.detuning
    # one row per held line, one column per row of the block
    dnu = f_drive - ctx.model.transition_frequency(tuple(other.name for other, _, _ in held), b_mid)
    omega_s2 = np.array([(ev.rabi_frequency * other.relative_strength / spec.relative_strength)**2
                         for other, _, _ in held])[:, None]
    for (_, i, j), p in zip(held, omega_s2 / (omega_s2 + (2 * math.pi * dnu)**2)):
        _probabilistic_swap(state.rho, i, j, p)


def _clock_pulse(state: EnsembleState, ev: ClockPulse, ctx: ShotContext) -> None:
    """Standing-wave averaged 1140 nm rotation with lifetime decay and the
    sampled laser phase."""
    _coherent_pulse(state, ctx, ev.transition, ev.rabi_frequency,
                    ev.detuning, ev.phase + ctx.laser_phase, ev.duration,
                    averaged=True)


def _rf_steps(model: AtomModel, ev: RfSweep, B: float) -> tuple[tuple[int, int], ...]:
    """(source, target) basis indices of the F=4 ladder steps the sweep
    crosses at field B, in sweep order."""
    lo, hi = sorted((ev.f_start, ev.f_stop))
    steps = []
    for mF in range(-4, 0):
        src, dst = SublevelRef(Manifold.GROUND, 4, mF), SublevelRef(Manifold.GROUND, 4, mF + 1)
        f_res = model.transition_frequency(f"{src.token}-{dst.token}", B)
        if lo - 1.0 <= f_res <= hi + 1.0:
            steps.append((STATE_INDEX[src], STATE_INDEX[dst]))
    return tuple(steps)


def _rf_sweep(state: EnsembleState, ev: RfSweep, ctx: ShotContext) -> None:
    """Incoherent ladder transfer across the F=4 sublevels swept by the RF."""
    steps = _rf_steps(ctx.model, ev, ctx.B_nominal)
    _grow(state, ctx, (steps, ev.duration > 0))
    rho = state.rho
    local = state.basis.local
    eff = ctx.model.constants.rf_step_efficiency
    for src, dst in steps:
        if src in local and dst in local:
            _probabilistic_swap(rho, local[src], local[dst], eff)


def coherent_prep_transfer(state: EnsembleState, ctx: ShotContext,
                           efficiency: float = 0.98) -> None:
    """Four sequential pi rotations along the preparation ladder, each with
    the given transfer efficiency, leaving residuals behind."""
    hops = tuple((STATE_INDEX[src], STATE_INDEX[dst]) for src, dst in ctx.model.prep_ladder)
    _grow(state, ctx, (hops, False))
    rho = state.rho
    local = state.basis.local
    for src, dst in hops:
        if src in local and dst in local:
            _probabilistic_swap(rho, local[src], local[dst], efficiency)


def _probe_410(state: EnsembleState, ev: Probe410, ctx: ShotContext) -> None:
    """Destructive resonant probe: clears the target ground manifold and pumps
    the spectator manifold at the calibrated rate."""
    if ev.duration <= 0:
        return
    _grow(state, ctx, ((), True))
    rho = state.rho
    ground = state.basis.ground
    _remove_manifold(rho, ground[ev.target_F])
    dep = pump_depletion(ev.duration, ctx.calibration)
    _scale_states(rho, ground[3 if ev.target_F == 4 else 4], math.sqrt(1.0 - dep))


def _scatter_probability(c, ev: Clean530) -> float:
    """Photon scattering probability of a 530 nm clean on the other manifold,
    detuned by the upper-state hyperfine splitting: p = 1 - e^{-R t}, with
    R t = Gamma s t / (2 (1 + s + (4 pi dnu / Gamma)^2)), which saturates at
    1 near resonance."""
    gamma = c.gamma_530
    rate_t = gamma * ev.s * ev.duration / (2.0 * (1.0 + ev.s + (4 * math.pi * ev.detuning / gamma)**2))
    return -math.expm1(-rate_t)


def _clean_530(state: EnsembleState, ev: Clean530, ctx: ShotContext) -> None:
    """530 nm cleaning: exponential removal of the target manifold and a small
    depolarizing scattering probability on the spectator manifold."""
    c = ctx.model.constants
    if ev.duration <= 0:
        return
    other_F = 3 if ev.target_F == 4 else 4
    p = _scatter_probability(c, ev)
    # the scatter spreads each held state over the whole manifold
    whole = (tuple(_GROUND_BY_F[other_F].tolist()),) if p > 0.0 else ()
    _grow(state, ctx, (whole, True))
    rho = state.rho
    basis = state.basis
    surv = math.exp(-ev.duration / c.tau_clean)
    _scale_states(rho, basis.ground[ev.target_F], math.sqrt(surv))
    other = basis.ground[other_F]
    if p > 0.0 and len(other):
        per_state = p * _population(rho, other) / len(other)
        _scale_states(rho, other, math.sqrt(1.0 - p))
        _diagonal(rho)[:, other] += per_state[:, None]


def _measure(state: EnsembleState, ev: Measure, ctx: ShotContext) -> np.ndarray:
    """Detect one ground manifold: returns the raw counts, a column over the
    rows, and applies the destructive back-action (probed atoms leave during
    the dead time)."""
    calib = ctx.calibration
    _grow(state, ctx, ((), ev.duration > 0))
    rho = state.rho
    f3, f4 = state.basis.ground[3], state.basis.ground[4]
    scale = probe_signal_scale(ev.probe_duration, calib)
    if ev.target_F == 3:
        # repump F=3 into F=4 (fast), then probe; anything already in the
        # F=4 ground manifold is detected along with it
        signal_frac = scale * (_population(rho, f3) + _population(rho, f4))
        _remove_manifold(rho, f3)
        _remove_manifold(rho, f4)
    else:
        eps = crosstalk_fraction(ev.probe_duration, calib)
        signal_frac = scale * _population(rho, f4) + eps * _population(rho, f3)
        _remove_manifold(rho, f4)
        dep = pump_depletion(ev.probe_duration, calib)
        _scale_states(rho, f3, math.sqrt(1.0 - dep))
    raw = signal_frac * state.n0
    if calib.camera_floor > 0:
        raw = raw + ctx.draw_normal(calib.camera_floor)
    return raw


# event type -> (its action, whether the frame decays over its duration: a
# pulse decays inside its own substeps)
_ACTIONS = {
    Wait: (_wait, True),
    MwPulse: (_mw_pulse, False),
    ClockPulse: (_clock_pulse, False),
    RfSweep: (_rf_sweep, True),
    Probe410: (_probe_410, True),
    Clean530: (_clean_530, True),
    Measure: (_measure, True),
}


def apply_event(state: EnsembleState, ev, ctx: ShotContext) -> np.ndarray | None:
    """Apply one event to every row of ``state``: its action, then decay and
    loss over its duration, the laser phase walk and the clock.  Returns a
    measurement's raw counts, a column over the rows, else None."""
    try:
        action, decays = _ACTIONS[type(ev)]
    except KeyError:
        raise TypeError(f"unknown event {ev!r}") from None
    if ev.duration < 0:
        raise ValueError(f"{ev.kind} duration must be >= 0, got {ev.duration!r}")
    column = action(state, ev, ctx)
    if decays:
        _decay_during(state.rho, state.n0, ev.duration, ctx, state.basis)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration
    return column


# ------------------------------------------------------------------ run loop

# Rows (point x shot) evolved together by run_scan.  Every handler call
# serves the whole block, so its fixed cost spreads over more rows as a block
# grows, but memory grows with its state's entries, rows x k^2 (16 B each
# over its k reachable sublevels).  The first block of a group has
# _BATCH_SHOTS rows; its k is that of every block of the group, so each
# later block has max(_BATCH_SHOTS, _BLOCK_ENTRIES // k^2) rows.
# _BLOCK_ENTRIES is a 64-row block at k = 15 (a loss-on Ramsey shot with
# readout), 230 kB.  The handlers update the state in place, and the pulse
# chunks and standing-wave averages are bounded at any block size, so the
# block's memory beyond its own state stays bounded.
_BATCH_SHOTS = 64
_BLOCK_ENTRIES = 64 * 15**2


def default_calibration(model: AtomModel, clock_pi_time: float = 1e-3,
                        **overrides) -> CrosstalkCalibration:
    """Calibration of a readout block with 1140 nm pulses of ``clock_pi_time``,
    whose shelving efficiency matches the engine's own pulse map."""
    a = math.sqrt(model.constants.clock_reflection_intensity)
    eta = clock_rotation_transfer(math.pi / clock_pi_time, clock_pi_time, a)
    kwargs = dict(clock_pi_efficiency=eta, clock_pi_time=clock_pi_time,
                  tau_c=model.constants.tau_c,
                  branch_to_f4=model.constants.metastable_branch_to_f4)
    kwargs.update(overrides)
    return CrosstalkCalibration(**kwargs)


def _initial_token(schedule: Schedule) -> str:
    if schedule.metadata.initial_state:
        return schedule.metadata.initial_state
    if any(isinstance(ev, RfSweep) for ev in schedule.events):
        return "g4m4"   # fresh from cooling: schedule performs its own prep
    return "g30"        # prepared central sublevel


def _run_batch(schedule: Schedule, model: AtomModel, noise: NoiseModel,
               loss: LossParameters, shots, n_atoms: float,
               calibration: CrosstalkCalibration | None,
               seeds=None) -> tuple:
    """Evolve the shots ``shots`` together: one (shots, k, k) state that
    starts at the schedule's initial sublevel, k = 1, and grows as the events
    reach sublevels; shot r draws under noise seed ``seeds[r]`` (default
    ``noise.seed``).  Returns the state and the block's record, calibrated
    as one block."""
    ctx = ShotContext(model, noise, loss, schedule, shots, calibration, seeds)
    state = EnsembleState.pure(_initial_token(schedule), n_atoms)
    state.rho = np.repeat(state.rho, len(shots), axis=0)
    raw, timings = {}, {}
    for ev in schedule.events:
        t = ctx.t
        column = apply_event(state, ev, ctx)
        if column is not None:
            raw[ev.label], timings[ev.label] = column, t
    return state, block_record(shots, raw, timings, calibration, ctx.calibration.camera_floor)


def run_shot(schedule: Schedule, model: AtomModel, noise: NoiseModel,
             loss: LossParameters, shot_index: int, n_atoms: float = 5000.0,
             calibration: CrosstalkCalibration | None = None) -> tuple:
    """Run one shot, a block of one row: its state, over the sublevels its
    events reached (the accessors read any other as 0), and its record row."""
    state, record = _run_batch(schedule, model, noise, loss, [shot_index], n_atoms, calibration)
    return state, record[0]


_SCANNED = (MwPulse, ClockPulse)   # events whose detuning and phase may vary


def _scan_key(schedule: Schedule) -> Schedule:
    """``schedule`` without the fields a block runs per row."""
    return replace(schedule, events=tuple(
        replace(ev, detuning=0.0, phase=0.0) if isinstance(ev, _SCANNED) else ev
        for ev in schedule.events))


def _block_schedule(schedules: list[Schedule], point_of_row: list[int]) -> Schedule:
    """The schedule of a block whose row r runs ``schedules[point_of_row[r]]``
    (schedules equal up to ``_scan_key``): the detuning and phase of every
    scanned pulse become per-row arrays."""
    events = []
    for i, ev in enumerate(schedules[0].events):
        if isinstance(ev, _SCANNED):
            per_point = [s.events[i] for s in schedules]
            ev = replace(ev, **{name: np.array([getattr(e, name) for e in per_point])[point_of_row]
                                for name in ("detuning", "phase")})
        events.append(ev)
    return replace(schedules[0], events=tuple(events))


def run_scan(points, model: AtomModel, loss: LossParameters, n_shots: int,
             n_atoms: float = 5000.0) -> list:
    """Run ``n_shots`` shots at every scan point: one record per point, in
    point order, with a row per shot in shot order.

    Each point is ``(schedule, noise, calibration)``.  Points form one group
    when their schedules are equal except for the ``detuning`` and ``phase``
    of ``MwPulse``/``ClockPulse`` events (metadata included), their
    calibrations are equal and their noise models are equal except for the
    seed; a point that matches no other is a group of one.  A group's
    (point, shot) rows run in blocks, which may span points; inside a block
    those pulse fields are per-row arrays.  The first block has up to
    ``_BATCH_SHOTS`` rows.  Its state's basis size k is that of every block
    of the group, since what the events reach does not depend on those
    fields, so the later blocks have max(``_BATCH_SHOTS``,
    ``_BLOCK_ENTRIES`` // k^2) rows each, the last one the rest.
    Shot k of a point draws from ``_shot_rng(noise.seed, k)`` of that
    point's noise, so its row equals ``run_shot`` of that point and index,
    in any block.  Each block is calibrated as a whole (``_run_batch``).
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    _require("n_atoms", n_atoms, positive=True)
    points = list(points)
    groups: dict[tuple, list[int]] = {}
    for p, (schedule, noise, calibration) in enumerate(points):
        schedule.validate(model)
        key = (_scan_key(schedule), replace(noise, seed=0), calibration)
        groups.setdefault(key, []).append(p)
    records = [None] * len(points)
    for members in groups.values():
        schedules = [points[p][0] for p in members]
        _, noise, calibration = points[members[0]]
        rows = [(m, k) for m in range(len(members)) for k in range(n_shots)]

        def run(block):
            point_of_row = [m for m, _ in block]
            schedule = (schedules[0] if len(members) == 1
                        else _block_schedule(schedules, point_of_row))
            return _run_batch(schedule, model, noise, loss, [k for _, k in block],
                              n_atoms, calibration,
                              [points[members[m]][1].seed for m in point_of_row])

        state, record = run(rows[:_BATCH_SHOTS])
        blocks = [record]
        # every later block reaches the first one's basis
        size = max(_BATCH_SHOTS, _BLOCK_ENTRIES // state.basis.dim**2)
        del state   # one block's state at a time
        for start in range(_BATCH_SHOTS, len(rows), size):
            blocks.append(run(rows[start:start + size])[1])
        group = join_records(blocks)
        for m, p in enumerate(members):
            records[p] = group[m * n_shots:(m + 1) * n_shots]
    return records


def run_schedule(schedule: Schedule, model: AtomModel, noise: NoiseModel,
                 loss: LossParameters, n_shots: int, n_atoms: float = 5000.0,
                 calibration: CrosstalkCalibration | None = None):
    """Run n_shots independent shots: the scan of one point, evolved in
    blocks sized by their state entries (``run_scan``); its record,
    deterministic under the noise seed, whose row k equals ``run_shot`` of
    index k."""
    point = (schedule, noise, calibration)
    return run_scan([point], model, loss, n_shots, n_atoms)[0]
