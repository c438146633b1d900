import dataclasses
import math

import numpy as np
import pytest

from tmqubit.atom import AtomModel
from tmqubit.engine import (
    LossParameters,
    NoiseModel,
    default_calibration,
    run_schedule,
    run_shot,
)
from tmqubit.fitting import model_exponential
from tmqubit.readout import (
    CalibrationError,
    CrosstalkCalibration,
    READOUT_LABELS,
    ReadoutRecord,
    calibrate,
    crosstalk_fraction,
    fit_probe_scan,
    forward_matrix,
    probe_parabola,
    pump_depletion,
    simulate_readout,
)
from tmqubit.protocols import build_protocol
from tmqubit.schedule import build_shelving_readout

MODEL = AtomModel()
CALIB = default_calibration(MODEL)


class TestRates:
    def test_reference_anchors(self):
        assert pump_depletion(0.4e-3, CALIB) == pytest.approx(0.085, rel=1e-12)
        assert crosstalk_fraction(0.4e-3, CALIB) == pytest.approx(0.015, rel=1e-12)

    def test_zero_duration(self):
        assert pump_depletion(0.0, CALIB) == 0.0
        assert crosstalk_fraction(0.0, CALIB) == 0.0

    def test_quadratic_growth_at_short_times(self):
        # eps(tau) ~ tau^2 for tau well below the pump time scale
        e1 = crosstalk_fraction(0.05e-3, CALIB)
        e2 = crosstalk_fraction(0.1e-3, CALIB)
        assert e2 / e1 == pytest.approx(4.0, rel=0.02)


class TestForwardModel:
    def test_pure_f3_crosstalk_pair(self):
        # the calibration experiment: F=3 prepared, no shelving pulses
        no_shelve = dataclasses.replace(CALIB, clock_pi_efficiency=0.0)
        raw = simulate_readout([0.0, 0.0, 0.0, 1000.0], no_shelve)
        assert raw["N4"] / 1000.0 == pytest.approx(0.015, abs=1e-4)
        ideal = dataclasses.replace(no_shelve, dep_3=1e-15, eps_43=0.0)
        raw0 = simulate_readout([0.0, 0.0, 0.0, 1000.0], ideal)
        assert 1 - raw["N3"] / raw0["N3"] == pytest.approx(0.085, abs=1e-4)

    def test_zero_atoms_noise_only(self):
        rng = np.random.default_rng(0)
        samples = np.array([list(simulate_readout([0, 0, 0, 0], CALIB, rng).values())
                            for _ in range(400)]).ravel()
        assert abs(np.mean(samples)) < 3 * 20 / math.sqrt(len(samples))
        assert np.std(samples) == pytest.approx(20.0, rel=0.15)

    def test_linear_in_populations(self):
        rng = np.random.default_rng(1)
        a = forward_matrix(CALIB)
        for _ in range(10):
            p = rng.uniform(0, 3000, 4)
            q = rng.uniform(0, 3000, 4)
            lhs = np.array(list(simulate_readout(2 * p + 3 * q, CALIB).values()))
            rhs = 2 * a @ p + 3 * a @ q
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_forward_matrix_memoized_read_only(self):
        a = forward_matrix(CALIB)
        assert forward_matrix(CALIB) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        twin = dataclasses.replace(CALIB)
        assert twin is not CALIB
        assert np.array_equal(forward_matrix(twin), a)
        other = dataclasses.replace(CALIB, eps_43=0.03)
        assert not np.array_equal(forward_matrix(other), a)

    def test_roundtrip_identity_noise_off(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = rng.uniform(0, 5000, 4)
            raw = simulate_readout(p, CALIB)
            rec = calibrate(raw, CALIB)
            back = np.array([rec["N4"], rec["N4_mf0"], rec["N3"], rec["N3_mf0"]])
            assert np.allclose(back, p, rtol=1e-9, atol=1e-9)

    def test_identity_calibration(self):
        ident = CrosstalkCalibration(eps_43=0.0, dep_3=0.0, clock_pi_efficiency=1.0,
                                     camera_floor=0.0, tau_c=1e15)
        p = np.array([100.0, 200.0, 300.0, 400.0])
        raw = simulate_readout(p, ident)
        assert raw["N4"] == pytest.approx(100.0)
        assert raw["N3"] == pytest.approx(300.0)
        assert raw["N4_mf0"] == pytest.approx(200.0)
        assert raw["N3_mf0"] == pytest.approx(400.0)
        rec = calibrate(raw, ident)
        assert rec["N4"] == pytest.approx(100.0)
        assert rec["N3_mf0"] == pytest.approx(400.0)

    def test_singular_calibration_detected(self):
        broken = CrosstalkCalibration(clock_pi_efficiency=0.0, tau_c=1e15)
        with pytest.raises(CalibrationError):
            calibrate({label: 1.0 for label in READOUT_LABELS}, broken)


def _readout_from(token):
    """The default shelving readout block, started in sublevel ``token``."""
    schedule = build_shelving_readout()
    return dataclasses.replace(
        schedule, metadata=dataclasses.replace(schedule.metadata, initial_state=token))


class TestEngineReadoutModel:
    """forward_matrix is the engine's own shelving block run on basis states."""

    BASIS_TOKENS = ("g4m4", "g40", "g3m3", "g30")

    def test_matches_engine_default_readout_block(self):
        exact = dataclasses.replace(CALIB, camera_floor=0.0)
        engine = np.zeros((4, 4))
        for j, token in enumerate(self.BASIS_TOKENS):
            _, rec = run_shot(_readout_from(token), MODEL, NoiseModel.off(),
                              LossParameters.off(), 0, n_atoms=1.0, calibration=exact)
            engine[:, j] = [rec.raw[label] for label in READOUT_LABELS]
        assert np.max(np.abs(engine - forward_matrix(CALIB))) <= 1e-12

    def test_closed_form_column_without_decay(self):
        eta = 0.7
        calib = CrosstalkCalibration(clock_pi_efficiency=eta, tau_c=1e15)
        eps = crosstalk_fraction(calib.probe_duration, calib)
        dep = pump_depletion(calib.probe_duration, calib)
        expected = [eps * (1 - eta), (1 - eta) * (1 - dep), eps * eta**2, eta**2 * (1 - dep)]
        assert np.allclose(forward_matrix(calib)[:, 3], expected, rtol=0.0, atol=1e-12)

    def test_probe_reference_differs_from_duration(self):
        # counts scale with probe duration over the reference length; the
        # inversion must undo that scale, not report 4/3 of the atoms
        calib = default_calibration(MODEL, probe_reference=0.3e-3, camera_floor=0.0)
        assert calib.probe_duration != calib.probe_reference
        _, rec = run_shot(_readout_from("g30"), MODEL, NoiseModel.off(),
                          LossParameters.off(), 0, n_atoms=5000.0, calibration=calib)
        assert rec.calibrated["N3_mf0"] == pytest.approx(5000.0, rel=1e-9)
        for label in ("N4", "N3", "N4_mf0"):
            assert rec.calibrated[label] == pytest.approx(0.0, abs=1e-6)


class TestProbeScanFit:
    def test_recovers_noiseless_scan(self):
        taus = np.linspace(0.05e-3, 1.2e-3, 12)
        n4 = probe_parabola(taus, 3.0e7)
        n4[taus > 1.0e-3] *= 2.0   # past the quadratic law: excluded from the parabola
        n3 = model_exponential(taus, 2000.0, 4.5e-3)
        err = np.ones_like(taus)
        fit4, fit3 = fit_probe_scan(taus, n4, err, n3, err)
        assert fit4.params["c"] == pytest.approx(3.0e7, rel=1e-8)
        assert fit3.params["a"] == pytest.approx(2000.0, rel=1e-8)
        assert fit3.params["tau"] == pytest.approx(4.5e-3, rel=1e-8)


class TestBlockCalibration:
    """A block's counts are inverted in one call, and each row comes out as
    it does calibrated alone, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("calib", [
        CALIB, default_calibration(MODEL, camera_floor=0.0),
        default_calibration(MODEL, clock_pi_time=2e-3, dead_time=8e-3, eps_43=0.03)],
        ids=["default", "floor_0", "slow_pulses"])
    def test_rows_calibrate_as_alone(self, n, calib):
        rng = np.random.default_rng(n)
        raw = dict(zip(READOUT_LABELS, rng.uniform(-50.0, 5000.0, (4, n))))
        block = calibrate(raw, calib)
        assert list(block) == ["N4", "N3", "N4_mf0", "N3_mf0"]
        for r in range(n):
            alone = calibrate({label: column[r:r + 1] for label, column in raw.items()},
                              calib)
            for label in READOUT_LABELS:
                assert block[label].shape == (n,)
                assert block[label][r:r + 1].tobytes() == alone[label].tobytes()


class TestRecord:
    def test_low_confidence_flag(self):
        rec = ReadoutRecord(np.arange(2), raw={"N4": np.array([5.0, 500.0]),
                                               "N3": np.array([500.0, 5.0])}, floor=20.0)
        assert rec[0].low_confidence == {"N4": True, "N3": False}
        assert rec[1].low_confidence == {"N4": False, "N3": True}
        assert rec[0].raw["N4"] == 5.0   # flagged, not clipped

    def test_simulated_count_below_camera_floor_is_flagged(self):
        # a 50 us F=4 probe on g30 atoms sees ~1 crosstalk count plus camera
        # noise, so some counts land between 0 and the floor
        calib = dataclasses.replace(CALIB, camera_floor=20.0)
        record = run_schedule(build_protocol("probe_scan", {"t": 0.05e-3}), MODEL,
                              NoiseModel.off(3), LossParameters.off(), 8,
                              calibration=calib)
        counts = [(record[r], label, value) for r in range(len(record))
                  for label, value in record[r].raw.items()]
        assert any(0.0 < value < 20.0 for _, _, value in counts)
        for rec, label, value in counts:
            assert rec.low_confidence[label] == (value < 20.0)

    def test_eta4(self):
        rec = ReadoutRecord(shot_index=0, raw={"N4_mf0": 300.0, "N3_mf0": 100.0})
        assert rec.eta4() == pytest.approx(0.75)
        assert rec.eta3() == pytest.approx(0.25)

    def test_dead_time_residual_exactly_zero(self):
        # atoms probed away never contribute to later detections
        state, rec = run_shot(_readout_from("g4m4"), MODEL, NoiseModel.off(),
                              LossParameters.off(), 0, n_atoms=5000,
                              calibration=dataclasses.replace(CALIB, camera_floor=0.0))
        # the stretched state is entirely background: both mf0 detections see
        # only what decayed out of the (empty) metastable states: exactly 0
        assert rec.raw["N4"] == pytest.approx(5000.0)
        assert rec.raw["N4_mf0"] == 0.0
        assert rec.raw["N3_mf0"] == 0.0


class TestPersistence:
    def test_save_load_bit_exact(self, tmp_path):
        path = tmp_path / "calib.txt"
        CALIB.save(path)
        back = CrosstalkCalibration.load(path)
        assert back == CALIB

    def test_saved_text(self, tmp_path):
        # one line per field, in the dataclass's order
        path = tmp_path / "calib.txt"
        CrosstalkCalibration(eps_43=0.02, camera_floor=0.0).save(path)
        assert path.read_text() == (
            "# tmqubit readout calibration v1\neps_43 = 0.02\ndep_3 = 0.085\n"
            "clock_pi_efficiency = 1.0\ncamera_floor = 0.0\ntau_c = 0.112\n"
            "branch_to_f4 = 0.5\nprobe_reference = 0.0004\nprobe_duration = 0.0004\n"
            "dead_time = 0.004\nclock_pi_time = 0.001\n")

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("nonsense = 1.0\n")
        with pytest.raises(CalibrationError):
            CrosstalkCalibration.load(path)


class TestValidation:
    def test_fraction_ranges_enforced(self):
        with pytest.raises(ValueError):
            CrosstalkCalibration(eps_43=1.5)
        with pytest.raises(ValueError):
            CrosstalkCalibration(dep_3=-0.1)
        with pytest.raises(ValueError):
            CrosstalkCalibration(clock_pi_efficiency=2.0)
        with pytest.raises(ValueError):
            CrosstalkCalibration(camera_floor=-1.0)

    @pytest.mark.parametrize("name,value", [
        ("camera_floor", math.inf), ("camera_floor", math.nan), ("dead_time", math.inf),
        ("probe_duration", math.inf), ("probe_reference", math.inf),
        ("clock_pi_time", math.inf)])
    def test_timings_and_floor_must_be_finite(self, name, value):
        # an infinite floor gave inf raw and NaN calibrated counts, a NaN
        # floor acted as 0, and an infinite dead time raised from a Measure
        # inside forward_matrix
        with pytest.raises(ValueError, match=f"^{name} must be"):
            CrosstalkCalibration(**{name: value})

    def test_no_metastable_decay_is_a_calibration(self):
        assert CrosstalkCalibration(tau_c=math.inf).tau_c == math.inf


class TestNoRepumping:
    def test_zero_pump_rate_takes_the_parabolic_limit(self):
        # dep_3 = 0, and dep_3 = 1e-300 where 1 - dep_3 rounds to 1, divided
        # by a zero signal integral
        for dep in (0.0, 1e-300):
            calib = dataclasses.replace(CALIB, dep_3=dep)
            assert crosstalk_fraction(0.3e-3, calib) == CALIB.eps_43 * (0.3e-3 / 0.4e-3) ** 2
            assert pump_depletion(0.3e-3, calib) == 0.0
        near = crosstalk_fraction(0.3e-3, dataclasses.replace(CALIB, dep_3=1e-9))
        assert near == pytest.approx(CALIB.eps_43 * (0.3e-3 / 0.4e-3) ** 2, rel=1e-8)

    def test_full_depletion_is_rejected(self):
        # the pump rate -ln(1 - dep_3)/probe_reference is infinite there
        with pytest.raises(ValueError, match=r"^dep_3 must lie in \[0, 1\)"):
            CrosstalkCalibration(dep_3=1.0)


def test_singular_matrix_names_the_calibration():
    with pytest.raises(CalibrationError, match=r"probe_duration=0\.0"):
        calibrate(dict.fromkeys(READOUT_LABELS, 1.0),
                  dataclasses.replace(CALIB, probe_duration=0.0))
