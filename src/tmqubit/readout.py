"""Detected-count model for the shelving readout and its calibrated inverse.

The readout block shelves both central sublevels on the 1140 nm lines,
detects the ground manifolds destructively (background counts), returns the
shelved population and detects again (central-sublevel counts).  Three
systematic effects tie raw counts to the true populations:

* probe crosstalk: the F=4 probe weakly repumps F=3 atoms, adding a signal
  that grows quadratically with probe duration and depleting the subsequent
  F=3 count;
* imperfect shelving pulses (transfer probability < 1);
* metastable decay over the readout timeline, which leaks shelved
  population back into the ground manifolds between detections.

All three are linear in the populations at fixed timings, so the forward
model is a matrix and calibration is its inverse.  The matrix is not a
second model of the block: it is the engine's own shelving readout run on
the four basis populations with the calibration's durations, lifetime,
branching and (believed) shelving efficiency.  Camera noise is additive
Gaussian with a configurable floor; counts below the floor are flagged, not
clipped.  A block of shots keeps its counts as columns, one per measurement
label (``ReadoutRecord``), and a block is calibrated in one call, each row
inverted on its own.  The probe-duration scan that measures the crosstalk
pair is averaged over shots (``probe_scan_points``) and fitted
(``fit_probe_scan``) here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .atom import AtomModel, PhysicsConstants
from .fitting import Dataset, FitResult, least_squares, mean_and_error, model_exponential

__all__ = [
    "READOUT_LABELS",
    "ReadoutRecord",
    "CrosstalkCalibration",
    "CalibrationError",
    "pump_rate",
    "pump_depletion",
    "crosstalk_fraction",
    "probe_signal_scale",
    "simulate_readout",
    "forward_matrix",
    "calibrate",
    "probe_parabola",
    "probe_scan_points",
    "fit_probe_scan",
]

READOUT_LABELS = ("N4", "N3", "N4_mf0", "N3_mf0")


class CalibrationError(ValueError):
    pass


@dataclass
class ReadoutRecord:
    """Counts of a block of shots: per measurement label, in schedule order,
    a column over the rows of ``raw`` and (when the block was calibrated)
    ``calibrated`` counts, and the probe time all rows share.  Counts below
    ``floor`` are flagged low confidence, not clipped.  Indexing selects
    rows; an index gives the one-row view of a shot, whose columns are
    numbers."""

    shot_index: np.ndarray
    raw: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    calibrated: dict = field(default_factory=dict)
    floor: float = 0.0

    def __len__(self) -> int:
        return len(self.shot_index)

    def __getitem__(self, rows) -> "ReadoutRecord":
        return ReadoutRecord(self.shot_index[rows], {k: v[rows] for k, v in self.raw.items()},
                             self.timings, {k: v[rows] for k, v in self.calibrated.items()},
                             self.floor)

    @property
    def low_confidence(self) -> dict:
        """Per label, which rows counted below ``floor``."""
        return {label: column < self.floor for label, column in self.raw.items()}

    @property
    def counts(self) -> dict:
        """The counts to read: calibrated when the block was calibrated, else
        raw."""
        return self.calibrated if self.calibrated else self.raw

    def eta4(self):
        """Relative central-sublevel population N40 / (N40 + N30)."""
        n40, n30 = self.counts["N4_mf0"], self.counts["N3_mf0"]
        return n40 / (n40 + n30)

    def eta3(self):
        return 1.0 - self.eta4()


def block_record(shots, raw: dict, timings: dict, calib: CrosstalkCalibration | None,
                 floor: float) -> ReadoutRecord:
    """The record of a block from its columns of raw counts, calibrated in
    one ``calibrate`` call when ``calib`` is given and the block measured
    every readout label."""
    complete = all(label in raw for label in READOUT_LABELS)
    calibrated = calibrate(raw, calib) if calib is not None and complete else {}
    return ReadoutRecord(np.asarray(shots), raw, timings, calibrated, floor)


def join_records(blocks) -> ReadoutRecord:
    """The rows of ``blocks``, records of one schedule, in order."""
    def join(columns: str) -> dict:
        return {label: np.concatenate([getattr(b, columns)[label] for b in blocks])
                for label in getattr(blocks[0], columns)}

    return ReadoutRecord(np.concatenate([b.shot_index for b in blocks]), join("raw"),
                         blocks[0].timings, join("calibrated"), blocks[0].floor)


@dataclass(frozen=True)
class CrosstalkCalibration:
    """Everything needed to map raw counts to true populations.

    ``eps_43``/``dep_3`` are the crosstalk signal fraction and F=3 depletion
    per reference probe pulse; ``clock_pi_efficiency`` is the shelving
    transfer probability of the averaged 1140 nm rotation (metastable decay
    over the block comes from the engine's, with ``tau_c``/``branch_to_f4``).
    """

    eps_43: float = 0.015
    dep_3: float = 0.085
    clock_pi_efficiency: float = 1.0
    camera_floor: float = 20.0
    tau_c: float = 0.112
    branch_to_f4: float = 0.5
    probe_reference: float = 0.4e-3
    probe_duration: float = 0.4e-3
    dead_time: float = 4e-3
    clock_pi_time: float = 1e-3

    def __post_init__(self):
        for name in ("eps_43", "dep_3", "clock_pi_efficiency", "branch_to_f4"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.camera_floor < 0:
            raise ValueError("camera_floor must be >= 0")
        for name in ("tau_c", "probe_reference", "clock_pi_time"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("probe_duration", "dead_time"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        lines = ["# tmqubit readout calibration v1"]
        lines += [f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CrosstalkCalibration":
        names, values = {f.name for f in fields(cls)}, {}
        with open(path) as fh:
            for raw_line in fh:
                line = raw_line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in names:
                    raise CalibrationError(f"unknown calibration field {key!r}")
                values[key] = float(value)
        return cls(**values)


# ------------------------------------------------------------- rate formulas


def pump_rate(calib: CrosstalkCalibration) -> float:
    """Constant repump rate P (1/s) implied by the reference depletion."""
    return -math.log(1.0 - calib.dep_3) / calib.probe_reference


def pump_depletion(tau: float, calib: CrosstalkCalibration) -> float:
    """F=3 fraction removed by a probe pulse of duration tau."""
    if tau <= 0:
        return 0.0
    return -math.expm1(-pump_rate(calib) * tau)


def probe_signal_scale(tau: float, calib: CrosstalkCalibration) -> float:
    """Integrated per-atom signal of a probe of length tau, in units of the
    reference-length probe (counts are converted to atom numbers with the
    reference normalization, so raw counts scale linearly with tau)."""
    return max(tau, 0.0) / calib.probe_reference


def _pumped_signal_integral(tau: float, p: float) -> float:
    """Integrated signal of atoms pumped into the bright state at rate p
    during the probe: int_0^tau (1 - e^{-p t}) dt; grows as p tau^2 / 2."""
    if tau <= 0:
        return 0.0
    x = p * tau
    if x < 1e-6:
        return 0.5 * p * tau * tau
    return tau - (1.0 - math.exp(-x)) / p


def crosstalk_fraction(tau: float, calib: CrosstalkCalibration) -> float:
    """Signal contributed per F=3 atom during an F=4 probe of length tau, in
    reference-probe atom-number units (parabolic growth for short pulses)."""
    if calib.eps_43 <= 0.0 or tau <= 0.0:
        return 0.0
    p = pump_rate(calib)
    kappa = calib.eps_43 / _pumped_signal_integral(calib.probe_reference, p)
    return kappa * _pumped_signal_integral(tau, p)


# --------------------------------------------------------- linear block model


@lru_cache(maxsize=16)
def forward_matrix(calib: CrosstalkCalibration) -> np.ndarray:
    """4x4 map from true populations [n4x, n40, n3x, n30] at readout start to
    the four raw counts [N4, N3, N4_mf0, N3_mf0].

    Column j is the engine's own shelving readout block run on one atom in
    g4m4, g40, g3m3 or g30, with the calibration's durations, lifetime and
    branching, noise and loss off.  Each shelving pulse has the area
    2*asin(sqrt(clock_pi_efficiency)) and no back-reflection, so it transfers
    exactly the calibrated (believed) efficiency.

    Memoized per (frozen, hence hashable) calibration; the shared result is
    read-only.
    """
    # both modules import this one at load time
    from .engine import EnsembleState, LossParameters, NoiseModel, ShotContext, apply_event
    from .schedule import BuilderConfig, ClockPulse, build_shelving_readout

    model = AtomModel(PhysicsConstants(tau_c=calib.tau_c,
                                       metastable_branch_to_f4=calib.branch_to_f4,
                                       clock_reflection_intensity=0.0))
    schedule = build_shelving_readout(BuilderConfig(
        clock_pi_time=calib.clock_pi_time, probe_duration=calib.probe_duration,
        dead_time=calib.dead_time))
    rabi = 2.0 * math.asin(math.sqrt(calib.clock_pi_efficiency)) / calib.clock_pi_time
    events = [replace(ev, rabi_frequency=rabi) if isinstance(ev, ClockPulse) else ev
              for ev in schedule.events]
    noise, loss = NoiseModel.off(), LossParameters.off()
    exact = replace(calib, camera_floor=0.0)
    a = np.zeros((4, 4))
    for j, token in enumerate(("g4m4", "g40", "g3m3", "g30")):
        ctx = ShotContext(model, noise, loss, schedule, 0, exact)
        state = EnsembleState.pure(token, 1.0)
        raw = {}
        for ev in events:
            column = apply_event(state, ev, ctx)
            if column is not None:
                raw[ev.label] = column[0]
        a[:, j] = [raw[label] for label in READOUT_LABELS]
    a.setflags(write=False)
    return a


def simulate_readout(populations, calib: CrosstalkCalibration,
                     rng: np.random.Generator | None = None) -> dict:
    """Forward model: raw counts from the true populations [n4x, n40, n3x,
    n30] at readout start, in atoms.  An ensemble state's counts come from
    running the readout block on it (``engine.apply_event``)."""
    raw = forward_matrix(calib) @ np.asarray(populations, dtype=float)
    if rng is not None and calib.camera_floor > 0:
        raw = raw + rng.normal(0.0, calib.camera_floor, size=4)
    return dict(zip(READOUT_LABELS, raw))


@lru_cache(maxsize=16)
def _inverse_matrix(calib: CrosstalkCalibration) -> np.ndarray:
    """Read-only inverse of ``forward_matrix(calib)``, memoized like it;
    raises CalibrationError (not cached) when the matrix is singular."""
    a = forward_matrix(calib)
    if abs(np.linalg.det(a)) < 1e-12:
        raise CalibrationError("singular calibration matrix")
    inv = np.linalg.inv(a)
    inv.setflags(write=False)
    return inv


def calibrate(raw, calib: CrosstalkCalibration) -> dict:
    """Invert the linear readout model.

    ``raw`` maps each of ``READOUT_LABELS`` to its counts: a column over a
    block's rows, or one number.  Returns the recovered true populations
    keyed and shaped like them: ``N4``/``N3`` are the mF != 0 backgrounds,
    ``N4_mf0``/``N3_mf0`` the central sublevels, all referred to the start
    of the readout block.  Each row is inverted on its own, so a row's
    result does not depend on the block it came in.
    """
    counts = np.stack([np.asarray(raw[label], dtype=float) for label in READOUT_LABELS],
                      axis=-1)
    n4x, n40, n3x, n30 = np.einsum("ij,...j->...i", _inverse_matrix(calib), counts).T
    return {"N4": n4x, "N3": n3x, "N4_mf0": n40, "N3_mf0": n30}


# ---------------------------------------------------------- probe-scan fit


def probe_parabola(tau, c):
    """Crosstalk signal c*tau^2 of a short F=4 probe on F=3 atoms."""
    return c * tau * tau


def probe_scan_points(scan: dict) -> tuple[np.ndarray, ...]:
    """(taus, n4, n4_err, n3, n3_err) of a first-probe duration scan
    ``{tau: record}``, ascending in tau: the shot means of the raw N4 and N3
    counts, each with its standard error floored at 1e-3 counts."""
    taus = np.array(sorted(scan))
    columns = []
    for label in ("N4", "N3"):
        mean, err = np.array([mean_and_error(scan[tau].raw[label]) for tau in taus]).T
        columns += [mean, np.maximum(err, 1e-3)]
    return (taus, *columns)


def fit_probe_scan(taus, n4, n4_err, n3, n3_err) -> tuple[FitResult, FitResult]:
    """Fit a first-probe duration scan of atoms prepared in F=3 (arrays over
    the probe durations ``taus``).

    The F=4 count is the crosstalk signal, fitted by ``probe_parabola`` where
    the quadratic growth law holds (probe pulses up to 1 ms); the F=3 count
    decays as ``model_exponential`` over the whole scan.  Returns the
    (parabola, exponential) fits; raises FitNonConvergence like
    ``least_squares``.
    """
    mask = taus <= 1.0e-3
    fit4 = least_squares(probe_parabola, Dataset(taus[mask], n4[mask], n4_err[mask]),
                         [max(n4[mask][-1], 1.0) / taus[mask][-1] ** 2], ("c",))
    fit3 = least_squares(model_exponential, Dataset(taus, n3, n3_err),
                         [float(n3[0]), 4e-3])
    return fit4, fit3
