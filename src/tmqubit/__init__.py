"""Simulator and analysis toolkit for thulium hyperfine-qubit experiments."""

from .atom import (
    AtomModel,
    BASIS,
    Manifold,
    PhysicsConstants,
    SublevelRef,
    TransitionKind,
    TransitionSpec,
)
from .engine import (
    EnsembleState,
    LossParameters,
    NoiseModel,
    RandomWalkDrift,
    ShotContext,
    SinusoidDrift,
    run_scan,
    run_schedule,
    run_shot,
)
from .fitting import (
    Dataset,
    FitResult,
    chi2_profile,
    least_squares,
    model_exponential,
    model_gaussian_decay,
    model_gaussian_decay_offset,
    model_rabi_reflection,
    model_ramsey_fringe,
    model_two_body_loss,
    contrast_from_eta,
    peak_to_peak_contrast,
)
from .readout import (
    CrosstalkCalibration,
    ReadoutRecord,
    calibrate,
    simulate_readout,
)
from .schedule import (
    BuilderConfig,
    Schedule,
    build_clock_coherence,
    build_cp,
    build_rabi_scan,
    build_ramsey,
    build_shelving_readout,
    build_state_prep,
    parse_sequence,
    serialize_sequence,
)

__version__ = "0.1.0"
