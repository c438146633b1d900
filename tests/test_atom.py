import math
import re

import numpy as np
import pytest

from tmqubit.atom import (
    AtomModel,
    BASIS,
    DIM,
    Manifold,
    PhysicsConstants,
    STATE_INDEX,
    SublevelRef,
    TransitionKind,
    metastable_branching_table,
    state_index,
    wigner_3j,
)


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


class TestQubitFrequency:
    def test_zero_field_identity(self, model):
        assert model.qubit_transition_frequency(0.0) == 1.497e9

    def test_working_field_shifts(self, model):
        # quadratic coefficient gives 8.52 Hz and 306.72 Hz at 0.1 and 0.6 G;
        # the absolute tolerance is one ulp of the 1.497 GHz carrier
        assert model.qubit_transition_frequency(0.1) - 1.497e9 == pytest.approx(8.52, abs=5e-7)
        assert model.qubit_transition_frequency(0.6) - 1.497e9 == pytest.approx(306.72, abs=5e-7)

    def test_negative_field_rejected(self, model):
        with pytest.raises(ValueError):
            model.qubit_transition_frequency(-0.1)

    def test_quadratic_exactly(self, model):
        # exact up to one ulp of the carrier frequency
        for b in np.linspace(0.0, 1.0, 21):
            diff = model.qubit_transition_frequency(b) - model.qubit_transition_frequency(0.0)
            assert diff == pytest.approx(852.0 * b * b, abs=5e-7)


class TestSublevelShift:
    def test_mf0_first_order_zero(self, model):
        for b in (0.0, 0.3, 0.6):
            assert model.sublevel_shift(SublevelRef(Manifold.GROUND, 4, 0), b) == 0.0

    def test_untracked_rejected(self, model):
        bogus = SublevelRef(Manifold.GROUND, 4, 0)
        object.__setattr__(bogus, "F", 5)
        with pytest.raises(ValueError):
            model.sublevel_shift(bogus, 0.1)

    def test_rf_ladder_span(self, model):
        # the four sweep transitions sit in [785, 800] kHz at 0.6 G
        freqs = [model.transition_frequency(f"g4m{abs(m)}-g4{'m' if m + 1 < 0 else ''}{abs(m + 1)}", 0.6)
                 for m in range(-4, 0)]
        assert min(freqs) == pytest.approx(785e3)
        assert max(freqs) == pytest.approx(800e3)
        for f in freqs:
            assert 785e3 <= f <= 800e3

    def test_spectator_isolation_60khz(self, model):
        f00 = model.qubit_transition_frequency(0.6)
        worst = math.inf
        for mf in range(-4, 5):
            for mfp in (mf - 1, mf, mf + 1):
                if abs(mfp) > 3 or (mf == 0 and mfp == 0):
                    continue
                lo = SublevelRef(Manifold.GROUND, 4, mf)
                up = SublevelRef(Manifold.GROUND, 3, mfp)
                f = (1.497e9 + 852.0 * 0.36
                     + model.sublevel_shift(up, 0.6) - model.sublevel_shift(lo, 0.6))
                worst = min(worst, abs(f - f00))
        assert worst >= 60e3

    def test_odd_in_mf_at_first_order(self, model):
        # shift(F, mF) + shift(F, -mF) = 2 * quadratic part
        for F in (4, 3):
            for mf in range(1, F + 1):
                s_plus = model.sublevel_shift(SublevelRef(Manifold.GROUND, F, mf), 0.4)
                s_minus = model.sublevel_shift(SublevelRef(Manifold.GROUND, F, -mf), 0.4)
                _, q = model._manifold_coeffs(SublevelRef(Manifold.GROUND, F, mf))
                assert s_plus + s_minus == pytest.approx(2 * q * mf * mf * 0.16, abs=1e-9)


class TestCatalog:
    def test_unique_clock_line(self, model):
        mw = [t for t in model.transition_catalog()
              if t.kind is TransitionKind.MW_HYPERFINE
              and t.lower.token == "g40" and t.upper.token == "g30"]
        assert len(mw) == 1

    def test_prep_strengths(self, model):
        strengths = [t.relative_strength for t in model.transition_catalog()
                     if t.kind is TransitionKind.MW_HYPERFINE]
        assert strengths == [1.32, 0.25, 0.96, 0.61, 1.0]

    def test_unknown_transition(self, model):
        with pytest.raises(KeyError):
            model.find_transition("g44-g33")

    def test_every_builder_transition_resolves(self, model):
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
                    model.find_transition(ev.transition)


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
        for src, targets in model.metastable_branching().items():
            assert sum(w for _, w in targets) == pytest.approx(1.0, abs=1e-12)
            assert BASIS[src].manifold is Manifold.METASTABLE_1140
            for dst, w in targets:
                assert BASIS[dst].manifold is Manifold.GROUND
                assert abs(BASIS[dst].mF - BASIS[src].mF) <= 1
                assert w > 0

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

    def test_replace(self):
        c = PhysicsConstants().replace(gamma_qz=900.0)
        assert c.gamma_qz == 900.0
        assert c.tau_c == 0.112
