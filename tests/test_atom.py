import math
import re

import numpy as np
import pytest

from tmqubit.atom import (
    AtomModel,
    BASIS,
    DIM,
    META_START,
    Manifold,
    PhysicsConstants,
    STATE_INDEX,
    SublevelRef,
    TRANSITIONS,
    TransitionKind,
    metastable_branching_table,
    state_index,
    wigner_3j,
)
from tmqubit.engine import LossParameters, NoiseModel, ShotContext
from tmqubit.schedule import Schedule, ScheduleMetadata


@pytest.fixture(scope="module")
def model():
    return AtomModel()


class TestBasis:
    def test_28_states(self):
        assert DIM == 28
        counts = {}
        for s in BASIS:
            counts[(s.manifold, s.F)] = counts.get((s.manifold, s.F), 0) + 1
        assert counts[(Manifold.GROUND, 4)] == 9
        assert counts[(Manifold.GROUND, 3)] == 7
        assert counts[(Manifold.METASTABLE_1140, 3)] == 7
        assert counts[(Manifold.METASTABLE_1140, 2)] == 5

    def test_invalid_sublevels_rejected(self):
        with pytest.raises(ValueError):
            SublevelRef(Manifold.GROUND, 4, 5)
        with pytest.raises(ValueError):
            SublevelRef(Manifold.GROUND, 2, 0)
        with pytest.raises(ValueError):
            SublevelRef(Manifold.METASTABLE_1140, 4, 0)

    def test_token_roundtrip(self):
        for s in BASIS:
            assert SublevelRef.from_token(s.token) == s

    @pytest.mark.parametrize("token", [s.token for s in BASIS]
                             + ["g4+0", "g4 0", "g40 ", "m2m02", "", "x40", "g50", "g4m5",
                                "g4", "M20", "g4mx"])
    def test_state_index_reads_like_from_token(self, token):
        # the cached lookup takes the spellings from_token takes, and raises
        # its error for the others (twice: a failure is not cached)
        try:
            expected = STATE_INDEX[SublevelRef.from_token(token)]
        except ValueError as exc:
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    state_index(token)
        else:
            assert state_index(token) == state_index(token) == expected


def _offset(model, s: SublevelRef, B: float) -> float:
    """Zeeman energy offset of s at field B from ``model.zeeman``."""
    k, q, lift = model.zeeman[:, STATE_INDEX[s]]
    return k * B + (q + lift) * B * B


class TestQubitFrequency:
    def test_zero_field_identity(self, model):
        assert model.transition_frequency("g40-g30", 0.0) == 1.497e9

    def test_working_field_shifts(self, model):
        # quadratic coefficient gives 8.52 Hz and 306.72 Hz at 0.1 and 0.6 G;
        # the absolute tolerance is one ulp of the 1.497 GHz carrier
        for b, shift in ((0.1, 8.52), (0.6, 306.72)):
            assert (model.transition_frequency("g40-g30", b) - 1.497e9
                    == pytest.approx(shift, abs=5e-7))

    def test_quadratic_exactly(self, model):
        # exact up to one ulp of the carrier frequency
        for b in np.linspace(0.0, 1.0, 21):
            diff = (model.transition_frequency("g40-g30", b)
                    - model.transition_frequency("g40-g30", 0.0))
            assert diff == pytest.approx(852.0 * b * b, abs=5e-7)


def _literal_offset(c: PhysicsConstants, s: SublevelRef, B: float) -> float:
    """mF k B + mF^2 q B^2 (+ gamma_qz B^2 on ground F=3), written out from
    the constants."""
    k, q = {(Manifold.GROUND, 4): (c.linear_zeeman_ground_f4, c.quad_zeeman_ground_f4),
            (Manifold.GROUND, 3): (c.linear_zeeman_ground_f3, c.quad_zeeman_ground_f3),
            (Manifold.METASTABLE_1140, 3): (c.linear_zeeman_meta_f3, 0.0),
            (Manifold.METASTABLE_1140, 2): (c.linear_zeeman_meta_f2, 0.0)}[s.manifold, s.F]
    lift = c.gamma_qz if (s.manifold, s.F) == (Manifold.GROUND, 3) else 0.0
    return s.mF * k * B + s.mF**2 * q * B**2 + lift * B**2


@pytest.mark.parametrize("name", list(TRANSITIONS))
@pytest.mark.parametrize("B", (0.1, 0.6))
def test_line_shift_is_the_states_energy_difference(name, B):
    # every catalog line moves with field as the difference of its states'
    # Zeeman energies: as written out from the constants, and as the
    # relative phase rate the engine integrates at a field offset B from 0 G
    c = PhysicsConstants(quad_zeeman_ground_f3=-250.0)   # F=3 with a quadratic term too
    model = AtomModel(c)
    line = TRANSITIONS[name]
    shift = model.transition_frequency(name, B) - model.transition_frequency(name, 0.0)
    literal = _literal_offset(c, line.upper, B) - _literal_offset(c, line.lower, B)
    assert shift == pytest.approx(literal, rel=1e-12, abs=5e-7)
    ctx = ShotContext(model, NoiseModel.off(), LossParameters.off(),
                      Schedule(metadata=ScheduleMetadata(bias_field=0.0)), 0)
    ctx.delta_B = B
    T = 0.25
    lower, upper = ctx.zeeman_phases(0.0, T, [STATE_INDEX[line.lower], STATE_INDEX[line.upper]])[0]
    assert (upper - lower) / (2 * math.pi * T) == pytest.approx(shift, rel=1e-12, abs=5e-7)


class TestSublevelShift:
    def test_mf0_first_order_zero(self, model):
        # every mF = 0 sublevel has no Zeeman offset but the clock lift, so
        # the g40-m30 line does not move with field
        for s in BASIS:
            if s.mF == 0:
                assert model.zeeman[0, STATE_INDEX[s]] == model.zeeman[1, STATE_INDEX[s]] == 0.0
        for b in (0.0, 0.3, 0.6):
            assert _offset(model, SublevelRef(Manifold.GROUND, 4, 0), b) == 0.0
            assert model.transition_frequency("g40-m30", b) == 0.0

    def test_rf_ladder_span(self, model):
        # the four sweep transitions sit in [785, 800] kHz at 0.6 G
        freqs = [model.transition_frequency(f"g4m{abs(m)}-g4{'m' if m + 1 < 0 else ''}{abs(m + 1)}", 0.6)
                 for m in range(-4, 0)]
        assert min(freqs) == pytest.approx(785e3)
        assert max(freqs) == pytest.approx(800e3)
        for f in freqs:
            assert 785e3 <= f <= 800e3

    def test_spectator_isolation_60khz(self, model):
        f00 = model.transition_frequency("g40-g30", 0.6)
        worst = math.inf
        for mf in range(-4, 5):
            for mfp in (mf - 1, mf, mf + 1):
                if abs(mfp) > 3 or (mf == 0 and mfp == 0):
                    continue
                lo = SublevelRef(Manifold.GROUND, 4, mf)
                up = SublevelRef(Manifold.GROUND, 3, mfp)
                f = 1.497e9 + _offset(model, up, 0.6) - _offset(model, lo, 0.6)
                worst = min(worst, abs(f - f00))
        assert worst >= 60e3

    def test_odd_in_mf_at_first_order(self, model):
        # shift(F, mF) + shift(F, -mF) = 2 * quadratic part (+ 2 * clock lift)
        c = model.constants
        for F, q, lift in ((4, c.quad_zeeman_ground_f4, 0.0),
                           (3, c.quad_zeeman_ground_f3, c.gamma_qz)):
            for mf in range(1, F + 1):
                s_plus = _offset(model, SublevelRef(Manifold.GROUND, F, mf), 0.4)
                s_minus = _offset(model, SublevelRef(Manifold.GROUND, F, -mf), 0.4)
                assert s_plus + s_minus == pytest.approx(2 * (q * mf * mf + lift) * 0.16,
                                                         abs=1e-9)


class TestCatalog:
    def test_unique_clock_line(self):
        mw = [t for t in TRANSITIONS.values()
              if t.kind is TransitionKind.MW_HYPERFINE
              and t.lower.token == "g40" and t.upper.token == "g30"]
        assert len(mw) == 1

    def test_prep_strengths(self):
        strengths = [t.relative_strength for t in TRANSITIONS.values()
                     if t.kind is TransitionKind.MW_HYPERFINE]
        assert strengths == [1.32, 0.25, 0.96, 0.61, 1.0]

    def test_unknown_transition(self, model):
        with pytest.raises(KeyError):
            model.transition_frequency("g44-g33", 0.6)

    def test_every_builder_transition_resolves(self):
        from tmqubit import schedule as sched

        builders = [
            sched.build_state_prep(),
            sched.build_ramsey(0.08, 5.0),
            sched.build_cp(4, 1.0),
            sched.build_rabi_scan(0.01),
            sched.build_shelving_readout(),
            sched.build_clock_coherence("single", 0.05),
            sched.build_clock_coherence("double", 0.05),
        ]
        for s in builders:
            for ev in s.events:
                if hasattr(ev, "transition"):
                    assert TRANSITIONS[ev.transition].kind is ev.transition_kind


class TestAngularMomentum:
    def test_wigner_3j_against_sympy(self):
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        rng = np.random.default_rng(42)
        for _ in range(40):
            j1, j2 = int(rng.integers(0, 5)), int(rng.integers(0, 3))
            j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
            m1 = int(rng.integers(-j1, j1 + 1))
            m2 = int(rng.integers(-j2, j2 + 1))
            m3 = -m1 - m2
            if abs(m3) > j3:
                continue
            ours = wigner_3j(j1, j2, j3, m1, m2, m3)
            ref = float(sympy_wigner.wigner_3j(j1, j2, j3, m1, m2, m3))
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_branching_normalized(self, model):
        # column k of the decay matrix is the decay of state META_START + k
        assert model.decay.shape == (DIM, DIM - META_START)
        for k, column in enumerate(model.decay.T):
            src = BASIS[META_START + k]
            assert src.manifold is Manifold.METASTABLE_1140
            assert column.sum() == pytest.approx(1.0, abs=1e-12)
            for dst in np.flatnonzero(column):
                assert BASIS[dst].manifold is Manifold.GROUND
                assert abs(BASIS[dst].mF - src.mF) <= 1
                assert column[dst] > 0
        table = metastable_branching_table(model.constants.metastable_branch_to_f4)
        assert sum(len(targets) for targets in table.values()) == np.count_nonzero(model.decay)
        for src, targets in table.items():
            for dst, w in targets:
                assert model.decay[dst, src - META_START] == w

    def test_f2_decays_only_to_f3(self):
        table = metastable_branching_table(0.5)
        for src, targets in table.items():
            if BASIS[src].F == 2:
                assert all(BASIS[dst].F == 3 for dst, _ in targets)

    def test_manifold_split_parameter(self):
        table = metastable_branching_table(0.7)
        src = STATE_INDEX[SublevelRef(Manifold.METASTABLE_1140, 3, 0)]
        to_f4 = sum(w for dst, w in table[src] if BASIS[dst].F == 4)
        assert to_f4 == pytest.approx(0.7, abs=1e-12)


class TestConstants:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PhysicsConstants(tau_c=-1.0)
        with pytest.raises(ValueError):
            PhysicsConstants(gamma_qz=0.0)

    @pytest.mark.parametrize("name, edge", [
        ("linear_zeeman_ground_f4", 2.5e12), ("linear_zeeman_meta_f2", -2.5e12),
        ("quad_zeeman_ground_f3", -6.25e9), ("gamma_qz", 6.25e9)])
    def test_zeeman_coefficients_keep_shifts_below_every_carrier(self, name, edge):
        # a shift of |mF| = 4 at the 100 G weak-field limit stays below 1e15 Hz
        assert getattr(PhysicsConstants(**{name: edge}), name) == edge
        message = f"{name} must be at most {abs(edge):g} in magnitude: a shift at 100 G"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            PhysicsConstants(**{name: edge * (1 + 1e-9)})
