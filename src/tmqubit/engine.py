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
initial ensemble and the complement is the lost count.  Shots are seeded
individually from the master seed, so a shot's outcome depends only on its
index.
"""

from __future__ import annotations

import cmath
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
_IDX_G40 = STATE_INDEX[SublevelRef(Manifold.GROUND, 4, 0)]
_IDX_G30 = STATE_INDEX[SublevelRef(Manifold.GROUND, 3, 0)]
_IDX_G4M4 = STATE_INDEX[SublevelRef(Manifold.GROUND, 4, -4)]
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
    through every event.
    """

    __slots__ = ("rho", "n0", "B_actual")

    def __init__(self, rho: np.ndarray, n0: float, B_actual: float):
        self.rho = rho
        self.n0 = float(n0)
        self.B_actual = float(B_actual)

    @classmethod
    def pure(cls, token: str, n0: float = 5000.0, B_actual: float = 0.0) -> "EnsembleState":
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

    @property
    def lost_fraction(self) -> float:
        return 1.0 - self.trace

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
    """Per-shot sampled noise, elapsed time, and model/loss references."""

    def __init__(self, model: AtomModel, noise: NoiseModel, loss: LossParameters,
                 schedule: Schedule, shot_index: int, n_atoms: float,
                 calibration: CrosstalkCalibration | None = None):
        self.model = model
        self.noise = noise
        self.loss = loss
        self.shot_index = shot_index
        self.n_atoms = n_atoms
        self.calibration = calibration
        self.B_nominal = schedule.metadata.bias_field
        self.rng = noise.shot_rng(shot_index)
        self.delta_B = (self.rng.normal(0.0, noise.sigma_B_shot)
                        if noise.sigma_B_shot > 0 else 0.0)
        self.wall_t0 = shot_index * (schedule.duration + noise.inter_shot_dead_time)
        self.t = 0.0
        self.laser_phase = 0.0
        self._zeeman_k, self._zeeman_q = _zeeman_coeffs(model)

    # ---- field sampling -----------------------------------------------------

    def _drift_value(self, wall_t: float) -> float:
        d = self.noise.drift
        if d is None:
            return 0.0
        if isinstance(d, SinusoidDrift):
            return d.amplitude * math.sin(2 * math.pi * wall_t / d.period)
        k = max(0, int(wall_t // d.interval))
        return d.step * float(_walk_values(self.noise.seed, k + 1)[k])

    def field_offset(self, t: float) -> float:
        """B(t) - B_nominal at schedule time t (G)."""
        return self.delta_B + self._drift_value(self.wall_t0 + t)

    def field_at(self, t: float) -> float:
        return self.B_nominal + self.field_offset(t)

    def _offset_integrals(self, t0: float, t1: float) -> tuple[float, float]:
        """(int o dt, int o^2 dt) of the field offset o(t) over [t0, t1]."""
        dt = t1 - t0
        if dt <= 0:
            return 0.0, 0.0
        d = self.noise.drift
        if d is None:
            o = self.delta_B
            return o * dt, o * o * dt
        if isinstance(d, SinusoidDrift):
            w = 2 * math.pi / d.period
            a, b = w * (self.wall_t0 + t0), w * (self.wall_t0 + t1)
            int_d = -(d.amplitude / w) * (math.cos(b) - math.cos(a))
            int_d2 = 0.5 * d.amplitude**2 * (dt - (math.sin(2 * b) - math.sin(2 * a)) / (2 * w))
            i1 = self.delta_B * dt + int_d
            i2 = self.delta_B**2 * dt + 2 * self.delta_B * int_d + int_d2
            return i1, i2
        # random walk: piecewise constant on drift intervals
        i1 = i2 = 0.0
        wa, wb = self.wall_t0 + t0, self.wall_t0 + t1
        k = int(wa // d.interval)
        values = _walk_values(self.noise.seed, int(wb // d.interval) + 2)
        t = wa
        while t < wb:
            t_next = min(wb, (k + 1) * d.interval)
            o = self.delta_B + d.step * float(values[k])
            i1 += o * (t_next - t)
            i2 += o * o * (t_next - t)
            k += 1
            t = t_next
        return i1, i2

    def field_integrals(self, t0: float, t1: float) -> tuple[float, float]:
        """(I1, I2) = (int (B-Bn) dt, int (B^2-Bn^2) dt) over [t0, t1], G*s units."""
        i1, i2 = self._offset_integrals(t0, t1)
        return i1, 2.0 * self.B_nominal * i1 + i2

    def zeeman_phases(self, t0: float, t1: float) -> np.ndarray:
        """Per-state phase (rad) accumulated from the field deviation."""
        i1, i2 = self.field_integrals(t0, t1)
        return 2 * math.pi * (self._zeeman_k * i1 + self._zeeman_q * i2)

    def advance_laser_phase(self, dt: float) -> None:
        d = self.noise.laser_phase_diffusion
        if d > 0 and dt > 0:
            self.laser_phase += self.rng.normal(0.0, math.sqrt(d * dt))


# --------------------------------------------------------- low-level channels


def _apply_state_phases(rho: np.ndarray, phases: np.ndarray) -> None:
    ph = np.exp(-1j * phases)
    rho *= np.outer(ph, ph.conj())


def _scale_states(rho: np.ndarray, indices, f: float) -> None:
    """rho -> D rho D in place, D = diag(f on ``indices``, 1 elsewhere)."""
    rho[indices] *= f
    rho[:, indices] *= f


def _apply_pair_unitary(rho: np.ndarray, i: int, j: int, u2: np.ndarray) -> None:
    """rho -> U rho U^dagger for U acting on the pair (i, j): two rows, then
    two columns, updated in place."""
    (a, b), (c, d) = u2.tolist()
    ri, rj = rho[i], rho[j]
    new_i = a * ri + b * rj
    rj *= d
    rj += c * ri
    ri[:] = new_i
    ci, cj = rho[:, i], rho[:, j]
    new_i = a.conjugate() * ci + b.conjugate() * cj
    cj *= d.conjugate()
    cj += c.conjugate() * ci
    ci[:] = new_i


def _apply_pair_channel(rho: np.ndarray, i: int, j: int,
                        m2: np.ndarray, s4: np.ndarray) -> None:
    """Mixture-of-unitaries channel on pair (i, j): mean matrix m2 acts on
    cross coherences, the 4x4 superoperator s4 on the pair block."""
    block = np.array((rho[i, i], rho[i, j], rho[j, i], rho[j, j]))
    _apply_pair_unitary(rho, i, j, m2)
    rho[i, i], rho[i, j], rho[j, i], rho[j, j] = (s4 @ block).tolist()


def _probabilistic_swap(rho: np.ndarray, i: int, j: int, p: float) -> None:
    """With probability p exchange states i and j (incoherent transfer)."""
    if p <= 0.0:
        return
    q = 1.0 - p
    ii, ij, ji, jj = rho[i, i], rho[i, j], rho[j, i], rho[j, j]
    for ri, rj in ((rho[i], rho[j]), (rho[:, i], rho[:, j])):
        moved = p * (rj - ri)
        ri += moved
        rj -= moved
    rho[i, i], rho[j, j] = q * ii + p * jj, q * jj + p * ii
    rho[i, j], rho[j, i] = q * ij + p * ji, q * ji + p * ij


def _rotation(omega, delta: float, tau: float):
    """Entries (u00, u01, u11) of the drive-frame two-level propagator,
    basis (lower, upper); u10 = u01.  ``delta`` is drive minus atom (rad/s).
    ``omega`` may be an array, giving one propagator per entry."""
    w = np.hypot(omega, delta)
    half = 0.5 * w * tau
    c = np.cos(half)
    s_w = np.sin(half) / np.where(w > 0.0, w, 1.0)   # sin(half) = 0 where w = 0
    phase = cmath.exp(0.5j * delta * tau)
    return ((c - 1j * s_w * delta) * phase, -1j * s_w * omega * phase,
            (c + 1j * s_w * delta) * phase)


def _frame_phases(phase_start: float, phase_end: float) -> np.ndarray:
    """Elementwise factors taking a drive-frame 2x2 propagator to the storage
    frame, diag(1, e^{-i phase_end}) U diag(1, e^{i phase_start})."""
    e_start, e_end = cmath.exp(1j * phase_start), cmath.exp(-1j * phase_end)
    return np.array(((1.0, e_start), (e_end, e_end * e_start)))


def _pair_rotation(omega: float, delta: float, tau: float,
                   phase_start: float, phase_end: float) -> np.ndarray:
    """Two-level propagator, basis (lower, upper), in the storage frame.

    ``delta`` is drive minus atom (rad/s); ``phase_*`` are the drive phase
    theta(t) = 2*pi*detuning*t + phi at the pulse edges, which transform the
    constant drive-frame solution back into the storage frame.
    """
    u00, u01, u11 = _rotation(omega, delta, tau)
    return np.array(((u00, u01), (u01, u11))) * _frame_phases(phase_start, phase_end)


def _standing_wave_average(average, a: float):
    """Standing-wave average of one 1140 nm quantity, converged by node doubling.

    A back-reflection of amplitude ratio ``a`` modulates the Rabi frequency
    as Omega(z) = Omega0*sqrt(1+a^2+a*cos 2kz).  ``average`` maps the node
    scales Omega(z)/Omega0 at n midpoint nodes of one optical period to a
    tuple of arrays, each already averaged over the nodes.  n doubles from 32
    until no entry of the tuple moves by 1e-9 (at most 16384 nodes).
    """
    def evaluate(n_nodes: int):
        u = 2 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        return average(np.sqrt(np.clip(1.0 + a * a + a * np.cos(u), 0.0, None)))

    n = 32
    out = evaluate(n)
    while n < 16384:
        n *= 2
        prev, out = out, evaluate(n)
        if all(np.max(np.abs(new - old)) < 1e-9 for new, old in zip(out, prev)):
            break
    return out


@lru_cache(maxsize=512)
def _clock_average_core(omega_tau: float, delta_tau: float, a: float) -> tuple:
    """Standing-wave average of the drive-frame rotation for one 1140 nm pulse.

    Returns (mean 2x2 matrix, 4x4 superoperator) of the mixture over the
    reflection-modulated Rabi frequency (``_standing_wave_average``).
    """
    def average(scale):
        u00, u01, u11 = _rotation(omega_tau * scale, delta_tau, 1.0)
        nodes = np.stack((u00, u01, u01, u11), axis=-1).reshape(len(scale), 2, 2)
        s4 = np.einsum("nij,nkl->ikjl", nodes, nodes.conj()).reshape(4, 4)
        return nodes.mean(axis=0), s4 / len(scale)

    m2, s4 = _standing_wave_average(average, a)
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
    surv = math.exp(-dt / c.tau_c)
    # a negative rounding residue on the diagonal frees nothing
    freed = (1.0 - surv) * np.maximum(rho.diagonal()[_META_ROWS].real, 0.0)
    _scale_states(rho, _META_ROWS, math.sqrt(surv))
    if freed.any():
        rho.flat[::DIM + 1] += _branching_matrix(c.metastable_branch_to_f4) @ freed


def two_body_decay(n_init: float, t: float, tau: float,
                   beta_over_v: float) -> float:
    """Closed-form survival of a class population under single-atom loss and
    two-body collisions: n' = -n/tau - (beta/V) n^2.

    ``beta_over_v`` is beta/V in 1/s per atom.
    """
    if n_init <= 0 or t <= 0:
        return n_init
    if not math.isfinite(tau):
        return n_init / (1.0 + beta_over_v * n_init * t)
    x = -math.expm1(-t / tau)           # 1 - e^{-t/tau}
    b = beta_over_v * tau
    return n_init * math.exp(-t / tau) / (1.0 + b * n_init * x)


def _apply_loss_channels(rho: np.ndarray, dt: float, n0: float,
                         loss: LossParameters) -> None:
    """Single-atom loss plus the per-class two-body channels over dt."""
    if dt <= 0 or not loss.active:
        return
    if math.isfinite(loss.tau):
        rho *= math.exp(-dt / loss.tau)
    diag0 = rho.diagonal().real.copy()   # after tau factor; class split uses pre-step counts
    redistribute = 0.0
    for idx, beta, is_g40 in loss.loss_classes:
        frac0 = diag0[idx] * (math.exp(dt / loss.tau) if math.isfinite(loss.tau) else 1.0)
        n_init = n0 * frac0
        if n_init <= 0.0:
            continue
        n_t = two_body_decay(n_init, dt, loss.tau, beta / loss.volume_cm3)
        survival = n_t / n_init
        tau_only = math.exp(-dt / loss.tau) if math.isfinite(loss.tau) else 1.0
        factor = math.sqrt(max(survival / tau_only, 0.0))
        if factor != 1.0:
            _scale_states(rho, idx, factor)
        if is_g40:
            # dipolar spin flips keep the atoms trapped: route the two-body
            # removal into the other F=4 sublevels.  Flipped atoms keep
            # decaying with tau afterwards, so exactly n_init*e^{-dt/tau}
            # of the class survives somewhere in F=4.
            redistribute += max(n_init * tau_only - n_t, 0.0) / n0
    if redistribute > 0.0:
        per_state = redistribute / len(_G4_NONZERO)
        for i in _G4_NONZERO:
            rho[i, i] += per_state


def _remove_manifold(rho: np.ndarray, indices: np.ndarray) -> float:
    """Destructively remove ground-manifold population (to lost); returns the
    removed fraction."""
    removed = float(rho[indices, indices].real.sum())
    rho[indices, :] = 0.0
    rho[:, indices] = 0.0
    return removed


# --------------------------------------------------------------- event handlers


def _decay_during(state: EnsembleState, dt: float, ctx: ShotContext) -> None:
    _metastable_decay(state.rho, dt, ctx.model)
    _apply_loss_channels(state.rho, dt, state.n0, ctx.loss)


def evolve_free(state: EnsembleState, T: float, ctx: ShotContext) -> None:
    """Free evolution for T seconds: Zeeman/drift phases, metastable decay,
    trap loss and two-body channels."""
    if T < 0:
        raise ValueError("free evolution time must be >= 0")
    if T == 0:
        return
    _apply_state_phases(state.rho, ctx.zeeman_phases(ctx.t, ctx.t + T))
    _decay_during(state, T, ctx)
    ctx.advance_laser_phase(T)
    ctx.t += T


def _coherent_pulse(state: EnsembleState, ctx: ShotContext, transition: str,
                    omega: float, detuning: float, phase: float, tau: float,
                    averaged: bool) -> None:
    spec = ctx.model.find_transition(transition)
    i = STATE_INDEX[spec.lower]
    j = STATE_INDEX[spec.upper]
    t0 = ctx.t
    if tau <= 0.0:
        return

    n_sub = 1
    if ctx.loss.active and omega > 0:
        period = 2 * math.pi / omega
        n_sub = max(1, min(int(math.ceil(tau / (period / 16.0))), 200_000))

    delta_n = 2 * math.pi * detuning
    dt = tau / n_sub
    for k in range(n_sub):
        ta, tb = t0 + k * dt, t0 + (k + 1) * dt
        phases = ctx.zeeman_phases(ta, tb)
        # pair-common phase (the lower state's) applies to both pair states;
        # the relative part is handled inside the rotation as detuning
        rel_phase = phases[j] - phases[i]
        phases[j] = phases[i]
        _apply_state_phases(state.rho, phases)
        delta = delta_n - rel_phase / dt
        theta_a = delta_n * ta + phase
        theta_b = delta_n * tb + phase
        if averaged:
            a = math.sqrt(ctx.model.constants.clock_reflection_intensity)
            m2_core, s4_core = _clock_average_core(omega * dt, delta * dt, a)
            frame = _frame_phases(theta_a, theta_b)
            # on the pair block the frame diagonals d = (1, e) act as kron(d, d*)
            e_end, e_start = frame[1, 0], frame[0, 1]
            s4 = (s4_core * np.array((1.0, e_end.conjugate(), e_end, 1.0))[:, None]
                  * np.array((1.0, e_start.conjugate(), e_start, 1.0)))
            _apply_pair_channel(state.rho, i, j, m2_core * frame, s4)
        else:
            u2 = _pair_rotation(omega, delta, dt, theta_a, theta_b)
            _apply_pair_unitary(state.rho, i, j, u2)
        _decay_during(state, dt, ctx)
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
    b_mid = ctx.field_at(ctx.t - 0.5 * ev.duration)
    f_drive = ctx.model.transition_frequency(spec, ctx.B_nominal) + ev.detuning
    for other in ctx.model.transition_catalog():
        if other.kind is not TransitionKind.MW_HYPERFINE or other is spec:
            continue
        omega_s = ev.rabi_frequency * other.relative_strength / spec.relative_strength
        dnu = f_drive - ctx.model.transition_frequency(other, b_mid)
        p = omega_s**2 / (omega_s**2 + (2 * math.pi * dnu)**2)
        _probabilistic_swap(state.rho, STATE_INDEX[other.lower],
                            STATE_INDEX[other.upper], p)


def apply_clock_pulse(state: EnsembleState, ev: ClockPulse, ctx: ShotContext) -> None:
    """Standing-wave averaged 1140 nm rotation with lifetime decay and the
    sampled laser phase."""
    _coherent_pulse(state, ctx, ev.transition, ev.rabi_frequency,
                    ev.detuning, ev.phase + ctx.laser_phase, ev.duration,
                    averaged=True)


def apply_rf_sweep(state: EnsembleState, ev: RfSweep, ctx: ShotContext) -> None:
    """Incoherent ladder transfer across the F=4 sublevels swept by the RF."""
    lo, hi = sorted((ev.f_start, ev.f_stop))
    eff = ctx.model.constants.rf_step_efficiency
    steps = [(SublevelRef(Manifold.GROUND, 4, mF), SublevelRef(Manifold.GROUND, 4, mF + 1))
             for mF in range(-4, 0)]
    for k, (src, dst) in enumerate(steps):
        name = f"{src.token}-{dst.token}"
        f_res = ctx.model.transition_frequency(name, ctx.B_nominal)
        if lo - 1.0 <= f_res <= hi + 1.0:
            e = eff[k] if isinstance(eff, (tuple, list)) else eff
            _probabilistic_swap(state.rho, STATE_INDEX[src], STATE_INDEX[dst], e)
    _decay_during(state, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def coherent_prep_transfer(state: EnsembleState, ctx: ShotContext,
                           efficiency: float = 0.98) -> None:
    """Four sequential pi rotations along the preparation ladder, each with
    the given transfer efficiency, leaving residuals behind."""
    for src, dst in ctx.model.prep_ladder:
        _probabilistic_swap(state.rho, STATE_INDEX[src], STATE_INDEX[dst], efficiency)


def apply_probe_410(state: EnsembleState, ev: Probe410, ctx: ShotContext) -> None:
    """Destructive resonant probe: clears the target ground manifold and pumps
    the spectator manifold at the calibrated rate."""
    if ev.duration <= 0:
        return
    calib = ctx.calibration or CrosstalkCalibration()
    _remove_manifold(state.rho, _GROUND_BY_F[ev.target_F])
    other = _GROUND_BY_F[3 if ev.target_F == 4 else 4]
    dep = pump_depletion(ev.duration, calib)
    _scale_states(state.rho, other, math.sqrt(1.0 - dep))
    _decay_during(state, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def apply_clean_530(state: EnsembleState, ev: Clean530, ctx: ShotContext) -> None:
    """530 nm cleaning: exponential removal of the target manifold and a small
    depolarizing scattering probability on the spectator manifold."""
    c = ctx.model.constants
    if ev.duration <= 0:
        return
    surv = math.exp(-ev.duration / c.tau_clean)
    _scale_states(state.rho, _GROUND_BY_F[ev.target_F], math.sqrt(surv))
    # photon scattering on the other manifold, detuned by the upper-state
    # hyperfine splitting: p = Gamma s t / (2 (1 + s + (4 pi dnu / Gamma)^2))
    other = _GROUND_BY_F[3 if ev.target_F == 4 else 4]
    gamma = c.gamma_530
    p = gamma * ev.s * ev.duration / (2.0 * (1.0 + ev.s + (4 * math.pi * ev.detuning / gamma)**2))
    if p > 0.0:
        scattered = p * state.rho[other, other].real.copy()
        _scale_states(state.rho, other, math.sqrt(1.0 - p))
        per_state = scattered.sum() / len(other)
        for i in other:
            state.rho[i, i] += per_state
    _decay_during(state, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration


def apply_measure(state: EnsembleState, ev: Measure, ctx: ShotContext,
                  record: ReadoutRecord | None = None) -> float:
    """Detect one ground manifold: returns the raw count and applies the
    destructive back-action (probed atoms leave during the dead time)."""
    calib = ctx.calibration or CrosstalkCalibration()
    rho = state.rho
    t_probe = ctx.t
    scale = probe_signal_scale(ev.probe_duration, calib)
    if ev.target_F == 3:
        # repump F=3 into F=4 (fast), then probe; anything already in the
        # F=4 ground manifold is detected along with it
        signal_frac = scale * float(rho[_GROUND_F3, _GROUND_F3].real.sum()
                                    + rho[_GROUND_F4, _GROUND_F4].real.sum())
        _remove_manifold(rho, _GROUND_F3)
        _remove_manifold(rho, _GROUND_F4)
    else:
        eps = crosstalk_fraction(ev.probe_duration, calib)
        f3 = float(rho[_GROUND_F3, _GROUND_F3].real.sum())
        signal_frac = scale * float(rho[_GROUND_F4, _GROUND_F4].real.sum()) + eps * f3
        _remove_manifold(rho, _GROUND_F4)
        dep = pump_depletion(ev.probe_duration, calib)
        _scale_states(rho, _GROUND_F3, math.sqrt(1.0 - dep))
    raw = signal_frac * state.n0
    if calib.camera_floor > 0:
        raw += ctx.rng.normal(0.0, calib.camera_floor)
    if record is not None:
        record.add(ev.label, raw, t_probe)
    _decay_during(state, ev.duration, ctx)
    ctx.advance_laser_phase(ev.duration)
    ctx.t += ev.duration
    return raw


def apply_event(state: EnsembleState, ev, ctx: ShotContext,
                record: ReadoutRecord | None = None) -> None:
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

def run_shot(schedule: Schedule, model: AtomModel, noise: NoiseModel,
             loss: LossParameters, shot_index: int, n_atoms: float = 5000.0,
             calibration: CrosstalkCalibration | None = None,
             initial_state: str | None = None) -> tuple[EnsembleState, ReadoutRecord]:
    ctx = ShotContext(model, noise, loss, schedule, shot_index, n_atoms,
                      calibration)
    token = initial_state or _initial_token(schedule)
    state = EnsembleState.pure(token, n_atoms, ctx.field_at(0.0))
    record = ReadoutRecord(shot_index=shot_index,
                           scan_vars=dict(schedule.metadata.scan_vars))
    for ev in schedule.events:
        apply_event(state, ev, ctx, record)
    if calibration is not None:
        record.calibrate_with(calibration)
    return state, record


def run_schedule(schedule: Schedule, model: AtomModel, noise: NoiseModel,
                 loss: LossParameters, n_shots: int, n_atoms: float = 5000.0,
                 calibration: CrosstalkCalibration | None = None,
                 initial_state: str | None = None) -> list[ReadoutRecord]:
    """Run n_shots independent shots; deterministic under the noise seed."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    schedule.validate(model)
    return [run_shot(schedule, model, noise, loss, k, n_atoms, calibration,
                     initial_state)[1]
            for k in range(n_shots)]
