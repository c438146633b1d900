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
leading batch axis: ``run_schedule`` evolves its shots together as one
(shots, 28, 28) state, with per-shot field offsets, wall clocks and laser
phases, and every handler acts once per event on the whole batch.  A single
shot (``run_shot``, or a 2-D ``rho`` passed to ``apply_event``) is the batch
of one.  Shots are seeded individually from the master seed and every sum
runs in a fixed order, so a shot's outcome depends only on its index, not
on the batch it ran in.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
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
)
from .fitting import model_two_body_loss
from .readout import (
    CrosstalkCalibration,
    ReadoutRecord,
    crosstalk_fraction,
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
    "apply_mw_pulse",
    "apply_clock_pulse",
    "apply_rf_sweep",
    "apply_probe_410",
    "apply_clean_530",
    "apply_measure",
    "evolve_free",
    "apply_event",
    "coherent_prep_transfer",
    "clock_rotation_transfer",
    "two_body_decay",
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

    amplitude: float   # G
    period: float      # s

    def __post_init__(self):
        _require("amplitude", self.amplitude)
        _require("period", self.period, positive=True)


@dataclass(frozen=True)
class RandomWalkDrift:
    """Field drift stepping by N(0, step) every `interval` seconds."""

    step: float        # G
    interval: float    # s

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

    def shot_rng(self, shot_index: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, shot_index])))

    @staticmethod
    def off(seed: int = 0) -> "NoiseModel":
        return NoiseModel(sigma_B_shot=0.0, drift=None, laser_phase_diffusion=0.0, seed=seed)


# Least recently used walks, one per noise seed; an evicted walk is
# regenerated with the same values, since every prefix depends on the seed only.
_WALK_CACHE: OrderedDict[int, np.ndarray] = OrderedDict()
_WALK_CACHE_SIZE = 32


def _walk_values(seed: int, n: int) -> np.ndarray:
    """Cumulative standard-normal walk, deterministic in (seed, index)."""
    have = _WALK_CACHE.get(seed)
    if have is None or len(have) < n:
        m = max(n, 1024 if have is None else 2 * len(have))
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B9])))
        have = np.cumsum(rng.standard_normal(m))
        _WALK_CACHE[seed] = have
        if len(_WALK_CACHE) > _WALK_CACHE_SIZE:
            _WALK_CACHE.popitem(last=False)
    _WALK_CACHE.move_to_end(seed)
    return have


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
            SublevelRef.from_token(token)

    @property
    def beta(self) -> dict[str, float]:
        return dict(self.beta_by_state)

    @cached_property
    def loss_classes(self) -> tuple[tuple[int, float, bool], ...]:
        """(basis index, beta, is the redistributing g40 class) of every
        two-body class with beta > 0, resolved once."""
        return tuple((STATE_INDEX[SublevelRef.from_token(token)], beta, token == "g40")
                     for token, beta in self.beta.items() if beta > 0.0)

    @cached_property
    def class_arrays(self) -> tuple[np.ndarray, np.ndarray, int | None]:
        """``loss_classes`` as arrays: basis indices, beta/V per class, and
        the position of the redistributing g40 class (None without one)."""
        indices = np.array([c[0] for c in self.loss_classes], dtype=np.intp)
        beta_over_v = np.array([c[1] for c in self.loss_classes]) / self.volume_cm3
        g40 = next((k for k, c in enumerate(self.loss_classes) if c[2]), None)
        return indices, beta_over_v, g40

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


class EnsembleState:
    """Density matrix over the tracked basis plus atom-number bookkeeping.

    ``rho`` is unnormalized: its trace is the fraction of the initial
    ``n0`` atoms still trapped, so ``atom_number + lost == n0`` holds
    through every event.  A batch of shots holds ``rho`` as
    (shots, DIM, DIM); the accessors below read the 2-D ``rho`` of one shot.
    """

    __slots__ = ("rho", "n0", "B_actual")

    def __init__(self, rho: np.ndarray, n0: float, B_actual):
        self.rho = rho
        self.n0 = float(n0)
        self.B_actual = B_actual

    @classmethod
    def pure(cls, token: str, n0: float = 5000.0, B_actual=0.0) -> "EnsembleState":
        idx = STATE_INDEX[SublevelRef.from_token(token)]
        rho = np.zeros((DIM, DIM), dtype=complex)
        rho[idx, idx] = 1.0
        return cls(rho, n0, B_actual)

    @property
    def trace(self) -> float:
        return float(self.rho.trace().real)

    @property
    def atom_number(self) -> float:
        return self.n0 * self.trace

    @property
    def lost(self) -> float:
        return self.n0 - self.atom_number

    def population(self, token: str) -> float:
        idx = STATE_INDEX[SublevelRef.from_token(token)]
        return float(self.rho[idx, idx].real)

    def manifold_population(self, manifold: Manifold, F: int | None = None) -> float:
        total = 0.0
        for s, i in STATE_INDEX.items():
            if s.manifold is manifold and (F is None or s.F == F):
                total += self.rho[i, i].real
        return float(total)

    def coherence(self, token_a: str, token_b: str) -> complex:
        i = STATE_INDEX[SublevelRef.from_token(token_a)]
        j = STATE_INDEX[SublevelRef.from_token(token_b)]
        return complex(self.rho[i, j])

    def copy(self) -> "EnsembleState":
        return EnsembleState(self.rho.copy(), self.n0, self.B_actual)


def _batch(state: EnsembleState) -> np.ndarray:
    """``state.rho`` as a (shots, DIM, DIM) view; a 2-D rho is a batch of one."""
    if not state.rho.flags.c_contiguous:
        state.rho = np.ascontiguousarray(state.rho)
    return state.rho.reshape(-1, DIM, DIM)


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
    """Sampled noise, elapsed time, and model/loss references of a batch of
    shots.

    ``shot_index`` is one index (the batch of one) or a sequence of them.
    Each shot draws from its own generator ``noise.shot_rng(k)`` in the
    order of the schedule's events, so its numbers do not depend on the
    other shots of the batch.  ``delta_B``, ``wall_t0``, ``laser_phase`` and
    the field queries are arrays shaped like ``shot_index`` (0-d for one
    index); schedule time ``t`` is common to all shots.
    """

    def __init__(self, model: AtomModel, noise: NoiseModel, loss: LossParameters,
                 schedule: Schedule, shot_index, n_atoms: float,
                 calibration: CrosstalkCalibration | None = None):
        self.model = model
        self.noise = noise
        self.loss = loss
        self.shot_index = shot_index
        self.n_atoms = n_atoms
        self.calibration = calibration
        self.B_nominal = schedule.metadata.bias_field
        shots = np.asarray(shot_index)
        self.rngs = [noise.shot_rng(int(k)) for k in shots.ravel()]
        self.wall_t0 = shots * (schedule.duration + noise.inter_shot_dead_time)
        self.delta_B = (self.draw_normal(noise.sigma_B_shot)
                        if noise.sigma_B_shot > 0 else 0.0)
        self.t = 0.0
        self.laser_phase = np.zeros(shots.shape)
        self._zeeman_k, self._zeeman_q = _zeeman_coeffs(model)

    @property
    def delta_B(self) -> np.ndarray:
        """Per-shot quasi-static field offset (G); setting a number sets it
        for every shot."""
        return self._delta_B

    @delta_B.setter
    def delta_B(self, value) -> None:
        self._delta_B = np.zeros(self.wall_t0.shape) + value

    def draw_normal(self, sd: float) -> np.ndarray:
        """One N(0, sd) draw from each shot's generator."""
        return np.reshape([rng.normal(0.0, sd) for rng in self.rngs], self.wall_t0.shape)

    # ---- field sampling -----------------------------------------------------

    def _drift_value(self, wall_t: np.ndarray):
        d = self.noise.drift
        if d is None:
            return 0.0
        if isinstance(d, SinusoidDrift):
            return d.amplitude * np.sin(2 * math.pi * wall_t / d.period)
        k = np.maximum(wall_t // d.interval, 0).astype(np.intp)
        return d.step * _walk_values(self.noise.seed, int(k.max()) + 1)[k]

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
        values = _walk_values(self.noise.seed, int((wb // d.interval).max()) + 2)
        i1, i2 = np.zeros(wa.shape), np.zeros(wa.shape)
        t = wa
        while (active := t < wb).any():
            t_next = np.minimum(wb, (k + 1) * d.interval)
            seg = np.where(active, t_next - t, 0.0)
            step = o + d.step * values[k]
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
# Every channel acts on a (shots, DIM, DIM) batch.  Per-shot factors are
# arrays over the batch, and every sum over states or matrix entries is
# written out in a fixed order, so a shot rounds the same at any batch size.


def _diagonal(rho: np.ndarray) -> np.ndarray:
    """Writable (shots, DIM) view of the diagonals of a batch."""
    return rho.reshape(len(rho), DIM * DIM)[:, ::DIM + 1]


def _population(rho: np.ndarray, indices) -> np.ndarray:
    """Per-shot population of the states ``indices``, added in index order."""
    diag = _diagonal(rho).real
    total = diag[:, indices[0]].copy()
    for k in indices[1:]:
        total += diag[:, k]
    return total


def _apply_state_phases(rho: np.ndarray, phases: np.ndarray) -> None:
    ph = np.exp(-1j * phases)
    rho *= ph[..., :, None] * ph.conj()[..., None, :]


def _scale_states(rho: np.ndarray, indices, f) -> None:
    """rho -> D rho D in place, D = diag(f on ``indices``, 1 elsewhere).

    ``f`` is one factor, one per shot, or one per shot and index (shots,
    len(indices)); ``rho`` may be a single 2-D matrix.
    """
    rho = rho.reshape(-1, DIM, DIM)
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
    pair = ([[i], [j]], [i, j])
    block = rho[:, pair[0], pair[1]]
    for ri, rj in ((rho[:, i], rho[:, j]), (rho[:, :, i], rho[:, :, j])):
        moved = p * (rj - ri)
        ri += moved
        rj -= moved
    p = p[..., None]
    rho[:, pair[0], pair[1]] = (1.0 - p) * block + p * block[:, ::-1, ::-1]


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


def _standing_wave_average(average, a: float, n_values: int):
    """Standing-wave average of 1140 nm quantities, converged by node doubling.

    A back-reflection of amplitude ratio ``a`` modulates the Rabi frequency
    as Omega(z) = Omega0*sqrt(1+a^2+a*cos 2kz).  ``average(scale, rows)``
    maps the node scales Omega(z)/Omega0 at n midpoint nodes of one optical
    period to a tuple of arrays whose leading axis runs over the values
    ``rows`` (indices into ``range(n_values)``), each already averaged over
    the nodes.  n doubles from 32 until no entry of a value moves by 1e-9
    (at most 16384 nodes).  Every value stops at its own n, so its average
    does not depend on the other values.
    """
    def evaluate(n_nodes: int, rows: np.ndarray):
        u = 2 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        return average(np.sqrt(np.clip(1.0 + a * a + a * np.cos(u), 0.0, None)), rows)

    n = 32
    rows = np.arange(n_values)
    out = evaluate(n, rows)
    result = tuple(x.copy() for x in out)
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


# s4[2i+k, 2j+l] = <U_ij conj(U_kl)>, U = [[u00, u01], [u01, u11]]: the column
# of that product among the node means (u00, u01, u11, then e_a conj(e_b)
# for e = (u00, u01, u11), a-major)
_U_ENTRY = ((0, 1), (1, 2))
_S4_COLUMNS = np.array([[3 + 3 * _U_ENTRY[i][j] + _U_ENTRY[k][m]
                         for j in (0, 1) for m in (0, 1)]
                        for i in (0, 1) for k in (0, 1)])


def _clock_average_core(omega_tau: float, delta_tau, a: float) -> tuple:
    """Standing-wave average of the drive-frame rotation for one 1140 nm pulse.

    Returns (mean 2x2 matrix, 4x4 superoperator) of the mixture over the
    reflection-modulated Rabi frequency (``_standing_wave_average``) for
    every entry of ``delta_tau`` (a number, or an array such as one value
    per shot), shaped ``delta_tau``'s shape + (2, 2) and + (4, 4), read-only.
    Each distinct value is averaged once, in one array evaluation.
    """
    delta_tau = np.asarray(delta_tau, dtype=float)
    values, inverse = np.unique(delta_tau.ravel(), return_inverse=True)

    def average(scale, rows):
        e = np.stack(_rotation(omega_tau * scale, values[rows, None], 1.0), axis=1)
        products = e[:, :, None] * e[:, None].conj()
        return e.mean(axis=-1), products.mean(axis=-1).reshape(len(rows), 9)

    means = np.concatenate(_standing_wave_average(average, a, len(values)), axis=1)
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


def _metastable_decay(rho: np.ndarray, dt: float, model: AtomModel) -> None:
    c = model.constants
    if dt <= 0 or not math.isfinite(c.tau_c):
        return
    rho = rho.reshape(-1, DIM, DIM)
    diag = _diagonal(rho)
    shelved = diag[:, _META_ROWS].real
    if not shelved.any():
        return   # empty metastable populations leave no coherences to decay
    surv = math.exp(-dt / c.tau_c)
    # a negative rounding residue on the diagonal frees nothing
    freed = (1.0 - surv) * np.maximum(shelved, 0.0)
    _scale_states(rho, _META_ROWS, math.sqrt(surv))
    w = _branching_matrix(c.metastable_branch_to_f4)
    for k in np.flatnonzero(freed.any(axis=0)):   # the populated metastable states
        diag += w[:, k] * freed[:, k, None]


def two_body_decay(n_init: float, t: float, tau: float,
                   beta_over_v: float) -> float:
    """Closed-form survival of a class population under single-atom loss and
    two-body collisions: n' = -n/tau - (beta/V) n^2.

    ``beta_over_v`` is beta/V in 1/s per atom.  The closed form is
    ``fitting.model_two_body_loss``, which the loss channels use too.
    """
    if n_init <= 0 or t <= 0:
        return n_init
    return float(model_two_body_loss(t, n_init, tau, beta_over_v))


def _apply_loss_channels(rho: np.ndarray, dt: float, n0: float,
                         loss: LossParameters) -> None:
    """Single-atom loss plus the per-class two-body channels over dt."""
    if dt <= 0 or not loss.active:
        return
    tau_only = math.exp(-dt / loss.tau)           # 1 at tau = inf
    indices, beta_over_v, g40 = loss.class_arrays
    # class populations at the start of the step, in atoms
    n_init = n0 * _diagonal(rho).real[:, indices]
    alive = n_init > 0.0
    n = np.where(alive, n_init, 1.0)
    n_t = model_two_body_loss(dt, n, loss.tau, beta_over_v)
    # state amplitudes scale by the two-body survival on top of the tau factor
    factor = np.ones((len(rho), DIM))
    factor[:, indices] = np.where(alive, np.sqrt(np.maximum(n_t / n / tau_only, 0.0)), 1.0)
    rho *= tau_only * (factor[:, :, None] * factor[:, None, :])
    if g40 is not None:
        # dipolar spin flips keep the atoms trapped: route the two-body
        # removal into the other F=4 sublevels.  Flipped atoms keep
        # decaying with tau afterwards, so exactly n_init*e^{-dt/tau}
        # of the class survives somewhere in F=4.
        removed = np.where(alive[:, g40],
                           np.maximum(n[:, g40] * tau_only - n_t[:, g40], 0.0), 0.0) / n0
        _diagonal(rho)[:, _G4_NONZERO] += (removed / len(_G4_NONZERO))[:, None]


def _remove_manifold(rho: np.ndarray, indices: np.ndarray) -> None:
    """Destructively remove ground-manifold population (to lost)."""
    rho[:, indices, :] = 0.0
    rho[:, :, indices] = 0.0


# --------------------------------------------------------------- event handlers


def _decay_during(rho: np.ndarray, n0: float, dt: float, ctx: ShotContext) -> None:
    _metastable_decay(rho, dt, ctx.model)
    _apply_loss_channels(rho, dt, n0, ctx.loss)


def evolve_free(state: EnsembleState, T: float, ctx: ShotContext) -> None:
    """Free evolution for T seconds: Zeeman/drift phases, metastable decay,
    trap loss and two-body channels."""
    if T < 0:
        raise ValueError("free evolution time must be >= 0")
    if T == 0:
        return
    rho = _batch(state)
    _apply_state_phases(rho, ctx.zeeman_phases(ctx.t, ctx.t + T))
    _decay_during(rho, state.n0, T, ctx)
    ctx.advance_laser_phase(T)
    ctx.t += T


# Pulse substeps whose propagators are computed in one array evaluation;
# bounds the memory of a long pulse's per-substep arrays.
_SUBSTEP_CHUNK = 1024


def _coherent_pulse(state: EnsembleState, ctx: ShotContext, transition: str,
                    omega: float, detuning: float, phase, tau: float,
                    averaged: bool) -> None:
    spec = ctx.model.find_transition(transition)
    i = STATE_INDEX[spec.lower]
    j = STATE_INDEX[spec.upper]
    t0 = ctx.t
    if tau <= 0.0:
        return
    rho = _batch(state)

    n_sub = 1
    if ctx.loss.active and omega > 0:
        period = 2 * math.pi / omega
        n_sub = max(1, min(int(math.ceil(tau / (period / 16.0))), 200_000))

    # The Zeeman phases are diagonal and equal on the pair once the pair-common
    # part (the lower state's phase) is split off, so they commute with the
    # pair propagators and the decay channels: that part applies once for the
    # whole pulse, and the relative part enters each substep's rotation as
    # detuning.
    phases = ctx.zeeman_phases(t0, t0 + tau)
    phases[..., j] = phases[..., i]
    _apply_state_phases(rho, phases)

    delta_n = 2 * math.pi * detuning
    dt = tau / n_sub
    a = math.sqrt(ctx.model.constants.clock_reflection_intensity)
    for start in range(0, n_sub, _SUBSTEP_CHUNK):
        # substep edges, one row each, broadcasting against the shots
        ks = np.arange(start, min(start + _SUBSTEP_CHUNK, n_sub))
        ks = ks.reshape(ks.shape + (1,) * ctx.wall_t0.ndim)
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
                _apply_pair_channel(rho, i, j, u[k], s4[k], e_start[k], e_end[k])
            else:
                _apply_pair_unitary(rho, i, j, u[k])
            _decay_during(rho, state.n0, dt, ctx)
    ctx.advance_laser_phase(tau)
    ctx.t = t0 + tau


def apply_mw_pulse(state: EnsembleState, ev: MwPulse, ctx: ShotContext) -> None:
    """Exact two-level rotation on the addressed hyperfine pair plus
    incoherent off-resonant leakage on every spectator line."""
    spec = ctx.model.find_transition(ev.transition)
    _coherent_pulse(state, ctx, ev.transition, ev.rabi_frequency,
                    ev.detuning, ev.phase, ev.duration, averaged=False)
    if ev.duration <= 0.0:
        return
    # off-resonant excitation of the other catalog lines, at its oscillation
    # peak p = Omega_s^2 / (Omega_s^2 + (2 pi dnu)^2), scaled by strength
    rho = _batch(state)
    b_mid = ctx.field_at(ctx.t - 0.5 * ev.duration)
    f_drive = ctx.model.transition_frequency(spec, ctx.B_nominal) + ev.detuning
    for other in ctx.model.transition_catalog():
        if other.kind is not TransitionKind.MW_HYPERFINE or other is spec:
            continue
        omega_s = ev.rabi_frequency * other.relative_strength / spec.relative_strength
        dnu = f_drive - ctx.model.transition_frequency(other, b_mid)
        p = omega_s**2 / (omega_s**2 + (2 * math.pi * dnu)**2)
        _probabilistic_swap(rho, STATE_INDEX[other.lower], STATE_INDEX[other.upper], p)


def apply_clock_pulse(state: EnsembleState, ev: ClockPulse, ctx: ShotContext) -> None:
    """Standing-wave averaged 1140 nm rotation with lifetime decay and the
    sampled laser phase."""
    _coherent_pulse(state, ctx, ev.transition, ev.rabi_frequency,
                    ev.detuning, ev.phase + ctx.laser_phase, ev.duration,
                    averaged=True)


def apply_rf_sweep(state: EnsembleState, ev: RfSweep, ctx: ShotContext) -> None:
    """Incoherent ladder transfer across the F=4 sublevels swept by the RF."""
    rho = _batch(state)
    lo, hi = sorted((ev.f_start, ev.f_stop))
    eff = ctx.model.constants.rf_step_efficiency
    steps = [(SublevelRef(Manifold.GROUND, 4, mF), SublevelRef(Manifold.GROUND, 4, mF + 1))
             for mF in range(-4, 0)]
    for k, (src, dst) in enumerate(steps):
        name = f"{src.token}-{dst.token}"
        f_res = ctx.model.transition_frequency(name, ctx.B_nominal)
        if lo - 1.0 <= f_res <= hi + 1.0:
            e = eff[k] if isinstance(eff, (tuple, list)) else eff
            _probabilistic_swap(rho, STATE_INDEX[src], STATE_INDEX[dst], e)
    _decay_during(rho, state.n0, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def coherent_prep_transfer(state: EnsembleState, ctx: ShotContext,
                           efficiency: float = 0.98) -> None:
    """Four sequential pi rotations along the preparation ladder, each with
    the given transfer efficiency, leaving residuals behind."""
    rho = _batch(state)
    for src, dst in ctx.model.prep_ladder:
        _probabilistic_swap(rho, STATE_INDEX[src], STATE_INDEX[dst], efficiency)


def apply_probe_410(state: EnsembleState, ev: Probe410, ctx: ShotContext) -> None:
    """Destructive resonant probe: clears the target ground manifold and pumps
    the spectator manifold at the calibrated rate."""
    if ev.duration <= 0:
        return
    rho = _batch(state)
    calib = ctx.calibration or CrosstalkCalibration()
    _remove_manifold(rho, _GROUND_BY_F[ev.target_F])
    other = _GROUND_BY_F[3 if ev.target_F == 4 else 4]
    dep = pump_depletion(ev.duration, calib)
    _scale_states(rho, other, math.sqrt(1.0 - dep))
    _decay_during(rho, state.n0, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def apply_clean_530(state: EnsembleState, ev: Clean530, ctx: ShotContext) -> None:
    """530 nm cleaning: exponential removal of the target manifold and a small
    depolarizing scattering probability on the spectator manifold."""
    c = ctx.model.constants
    if ev.duration <= 0:
        return
    rho = _batch(state)
    surv = math.exp(-ev.duration / c.tau_clean)
    _scale_states(rho, _GROUND_BY_F[ev.target_F], math.sqrt(surv))
    # photon scattering on the other manifold, detuned by the upper-state
    # hyperfine splitting: p = Gamma s t / (2 (1 + s + (4 pi dnu / Gamma)^2))
    other = _GROUND_BY_F[3 if ev.target_F == 4 else 4]
    gamma = c.gamma_530
    p = gamma * ev.s * ev.duration / (2.0 * (1.0 + ev.s + (4 * math.pi * ev.detuning / gamma)**2))
    if p > 0.0:
        per_state = p * _population(rho, other) / len(other)
        _scale_states(rho, other, math.sqrt(1.0 - p))
        _diagonal(rho)[:, other] += per_state[:, None]
    _decay_during(rho, state.n0, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def apply_measure(state: EnsembleState, ev: Measure, ctx: ShotContext,
                  record=None) -> np.ndarray:
    """Detect one ground manifold: returns the per-shot raw counts, adds them
    to ``record`` (one ReadoutRecord, or one per shot) and applies the
    destructive back-action (probed atoms leave during the dead time)."""
    calib = ctx.calibration or CrosstalkCalibration()
    rho = _batch(state)
    t_probe = ctx.t
    scale = probe_signal_scale(ev.probe_duration, calib)
    if ev.target_F == 3:
        # repump F=3 into F=4 (fast), then probe; anything already in the
        # F=4 ground manifold is detected along with it
        signal_frac = scale * (_population(rho, _GROUND_F3) + _population(rho, _GROUND_F4))
        _remove_manifold(rho, _GROUND_F3)
        _remove_manifold(rho, _GROUND_F4)
    else:
        eps = crosstalk_fraction(ev.probe_duration, calib)
        f3 = _population(rho, _GROUND_F3)
        signal_frac = scale * _population(rho, _GROUND_F4) + eps * f3
        _remove_manifold(rho, _GROUND_F4)
        dep = pump_depletion(ev.probe_duration, calib)
        _scale_states(rho, _GROUND_F3, math.sqrt(1.0 - dep))
    raw = signal_frac * state.n0
    if calib.camera_floor > 0:
        raw = raw + ctx.draw_normal(calib.camera_floor)
    records = (record,) if isinstance(record, ReadoutRecord) else record or ()
    for rec, value in zip(records, raw):
        rec.add(ev.label, value, t_probe)
    _decay_during(rho, state.n0, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration
    return raw


def apply_event(state: EnsembleState, ev, ctx: ShotContext, record=None) -> None:
    """Apply one event to every shot of ``state``; ``record`` is the batch's
    ReadoutRecord (batch of one) or list of them, or None."""
    if isinstance(ev, Wait):
        evolve_free(state, ev.duration, ctx)
    elif isinstance(ev, MwPulse):
        apply_mw_pulse(state, ev, ctx)
    elif isinstance(ev, ClockPulse):
        apply_clock_pulse(state, ev, ctx)
    elif isinstance(ev, RfSweep):
        apply_rf_sweep(state, ev, ctx)
    elif isinstance(ev, Probe410):
        apply_probe_410(state, ev, ctx)
    elif isinstance(ev, Clean530):
        apply_clean_530(state, ev, ctx)
    elif isinstance(ev, Measure):
        apply_measure(state, ev, ctx, record)
    else:
        raise TypeError(f"unknown event {ev!r}")


# ------------------------------------------------------------------ run loop

# Shots evolved together by run_schedule; bounds the memory of one batch
# (its state and the node arrays of the 1140 nm average grow with it).
_BATCH_SHOTS = 32


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
               initial_state: str | None) -> tuple[EnsembleState, list[ReadoutRecord]]:
    """Evolve the shots ``shots`` together: one (shots, DIM, DIM) state."""
    ctx = ShotContext(model, noise, loss, schedule, shots, n_atoms, calibration)
    idx = STATE_INDEX[SublevelRef.from_token(initial_state or _initial_token(schedule))]
    rho = np.zeros((len(shots), DIM, DIM), dtype=complex)
    rho[:, idx, idx] = 1.0
    state = EnsembleState(rho, n_atoms, ctx.field_at(0.0))
    records = [ReadoutRecord(shot_index=k, scan_vars=dict(schedule.metadata.scan_vars))
               for k in shots]
    for ev in schedule.events:
        apply_event(state, ev, ctx, records)
    if calibration is not None:
        for record in records:
            record.calibrate_with(calibration)
    return state, records


def run_shot(schedule: Schedule, model: AtomModel, noise: NoiseModel,
             loss: LossParameters, shot_index: int, n_atoms: float = 5000.0,
             calibration: CrosstalkCalibration | None = None,
             initial_state: str | None = None) -> tuple[EnsembleState, ReadoutRecord]:
    """Run one shot, the batch of one: its state (2-D ``rho``) and record."""
    state, (record,) = _run_batch(schedule, model, noise, loss, [shot_index],
                                  n_atoms, calibration, initial_state)
    state.rho = state.rho[0]
    state.B_actual = float(state.B_actual[0])
    return state, record


def run_schedule(schedule: Schedule, model: AtomModel, noise: NoiseModel,
                 loss: LossParameters, n_shots: int, n_atoms: float = 5000.0,
                 calibration: CrosstalkCalibration | None = None,
                 initial_state: str | None = None) -> list[ReadoutRecord]:
    """Run n_shots independent shots, evolved in batches of up to
    ``_BATCH_SHOTS``; deterministic under the noise seed, and a shot's
    record equals ``run_shot`` of its index."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    schedule.validate(model)
    records = []
    for start in range(0, n_shots, _BATCH_SHOTS):
        shots = range(start, min(start + _BATCH_SHOTS, n_shots))
        records += _run_batch(schedule, model, noise, loss, shots, n_atoms,
                              calibration, initial_state)[1]
    return records
