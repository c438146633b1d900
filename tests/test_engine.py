import cmath
import csv
import math
import tracemalloc
from dataclasses import replace
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ode_oracle import rk4_two_body
from tmqubit import engine, figures, readout
from tmqubit.atom import (
    BASIS, META_START, TRANSITIONS, AtomModel, Manifold, PhysicsConstants, STATE_INDEX, SublevelRef,
    TransitionKind,
)
from tmqubit.engine import (
    EnsembleState,
    LossParameters,
    NoiseModel,
    RandomWalkDrift,
    ShotContext,
    SinusoidDrift,
    TWO_BODY_TABLE,
    apply_event,
    clock_rotation_transfer,
    coherent_prep_transfer,
    default_calibration,
    run_scan,
    run_schedule,
    run_shot,
)
from tmqubit.figures import _fringe_contrast
from tmqubit.fitting import model_rabi_reflection, model_two_body_loss
from tmqubit.protocols import PROTOCOLS, build_protocol
from tmqubit.readout import READOUT_LABELS, CrosstalkCalibration, block_record
from tmqubit.schedule import (
    MAX_CLOCK_AREA,
    BuilderConfig,
    Clean530,
    ClockPulse,
    Measure,
    MwPulse,
    Probe410,
    PulseEvent,
    RfSweep,
    Schedule,
    ScheduleError,
    ScheduleMetadata,
    Wait,
    build_clock_coherence,
    build_cp,
    build_ramsey,
    build_shelving_readout,
    build_state_prep,
)

MODEL = AtomModel()
NOISE_OFF = NoiseModel.off()
LOSS_OFF = LossParameters.off()

# spectator lines pushed far away: isolates the coherent dynamics from
# off-resonant leakage for the exactness checks
ISOLATED = AtomModel(PhysicsConstants(linear_zeeman_ground_f3=1e12))


def _ctx(schedule, model=MODEL, noise=NOISE_OFF, loss=LOSS_OFF, shot=0, calib=None):
    return ShotContext(model, noise, loss, schedule, shot, calib)


def _meta(bias=0.6, initial="g30"):
    return ScheduleMetadata(bias_field=bias, initial_state=initial)


def _full_state(token, n0=5000.0):
    """One row over all 28 sublevels, every atom in ``token``: a state whose
    entries a test writes by basis index."""
    rho = np.zeros((1, 28, 28), dtype=complex)
    i = STATE_INDEX[SublevelRef.from_token(token)]
    rho[0, i, i] = 1.0
    return EnsembleState(rho, n0)


def _drive(events, meta, **kwargs):
    sched = Schedule(tuple(events), meta)
    return run_shot(sched, kwargs.pop("model", MODEL), kwargs.pop("noise", NOISE_OFF),
                    kwargs.pop("loss", LOSS_OFF), kwargs.pop("shot", 0), **kwargs)


class TestMwPulse:
    def test_resonant_rabi_is_sin_squared(self):
        # exact closed-form rotation when no decay channel is active
        omega = math.pi / 2e-3
        for t in np.linspace(0, 20e-3, 23):
            state, _ = _drive([MwPulse(duration=float(t), rabi_frequency=omega)],
                              _meta(), model=ISOLATED)
            expected = math.sin(0.5 * omega * t) ** 2
            assert abs(state.population("g40") - expected) < 1e-12

    def test_pi_pulse_with_leakage_bound(self):
        state, _ = _drive([MwPulse(duration=2e-3)], _meta())
        assert state.population("g40") >= 1 - 2e-5
        assert state.population("g30") < 1e-10

    def test_2pi_restores_rho(self):
        # superposition inside the driven pair returns exactly
        sched = Schedule((MwPulse(duration=1e-3),), _meta())
        ctx = _ctx(sched, model=ISOLATED)
        state = _full_state("g30")
        apply_event(state, MwPulse(duration=1e-3), ctx)   # make a superposition
        before = state.rho.copy()
        apply_event(state, MwPulse(duration=4e-3), ctx)   # 2 pi
        assert np.max(np.abs(state.rho - before)) < 1e-12

    def test_spectator_leakage_formula(self):
        # p = Omega^2 / (Omega^2 + (2 pi dnu)^2) at the documented point
        omega = 2 * math.pi * 250.0
        dnu = 60e3
        p = omega**2 / (omega**2 + (2 * math.pi * dnu)**2)
        assert p == pytest.approx(1.736e-5, rel=1e-3)
        assert 1.5e-5 <= p <= 2.5e-5

    def test_unknown_transition_rejected(self):
        # rejected when the pulse is made, before any engine sees it
        with pytest.raises(ScheduleError, match="^mw transition must be a catalog line, "
                                                "got unknown transition 'g41-g31'$"):
            MwPulse(transition="g41-g31", duration=1e-3)

    def test_against_time_dependent_schroedinger_oracle(self):
        # RK4 integration of the storage-frame Hamiltonian
        #   H = dW |u><u| + Omega/2 (e^{-i(dn t + phi)} |u><l| + h.c.)
        # fixes every sign and frame convention of the pulse propagator;
        # the six random cases integrate together, one row each
        rng = np.random.default_rng(77)
        i, j = STATE_INDEX[SublevelRef.from_token("g40")], STATE_INDEX[SublevelRef.from_token("g30")]
        cases, psi0, got = [], [], []
        for _ in range(6):
            omega = float(rng.uniform(500, 4000))
            detuning = float(rng.uniform(-300, 300))
            phase = float(rng.uniform(0, 2 * math.pi))
            tau = float(rng.uniform(0.5e-3, 3e-3))
            t_start = float(rng.uniform(0, 2e-3))
            db = float(rng.uniform(-0.05, 0.05))
            cases.append((omega, detuning, phase, tau, t_start, db))

            noise = NoiseModel(sigma_B_shot=0.0, seed=1)
            sched = Schedule((Wait(t_start), MwPulse(duration=tau, rabi_frequency=omega,
                                                     detuning=detuning, phase=phase)),
                             _meta(bias=0.6))
            ctx = _ctx(sched, model=ISOLATED, noise=noise)
            ctx.delta_B = db
            state = _full_state("g30", 1.0)
            # random initial pair superposition
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            psi0.append(psi)
            state.rho[:] = 0
            state.rho[0][np.ix_([i, j], [i, j])] = np.outer(psi, psi.conj())
            for ev in sched.events:
                apply_event(state, ev, ctx)
            got.append(state.rho[0][np.ix_([i, j], [i, j])])

        omega, detuning, phase, tau, t_start, db = np.array(cases).T
        dw = 2 * math.pi * 852.0 * ((0.6 + db) ** 2 - 0.36)
        dn = 2 * math.pi * detuning

        def deriv(t, psi):
            coupling = 0.5 * omega * np.exp(-1j * (dn * t + phase))
            h = np.zeros((len(t), 2, 2), dtype=complex)
            h[:, 0, 1] = np.conj(coupling)
            h[:, 1, 0] = coupling
            h[:, 1, 1] = dw
            return -1j * (h @ psi[..., None])[..., 0]

        steps = 40000
        h_step = (tau / steps)[:, None]
        psi = np.array(psi0)
        t = t_start.copy()
        # free evolution before the pulse (upper state accrues dw phase)
        psi[:, 1] *= np.exp(-1j * dw * t_start)
        for _ in range(steps):
            k1 = deriv(t, psi)
            k2 = deriv(t + h_step[:, 0] / 2, psi + h_step / 2 * k1)
            k3 = deriv(t + h_step[:, 0] / 2, psi + h_step / 2 * k2)
            k4 = deriv(t + h_step[:, 0], psi + h_step * k3)
            psi = psi + h_step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h_step[:, 0]
        for case, want in enumerate(psi):
            assert np.max(np.abs(got[case] - np.outer(want, want.conj()))) < 1e-7


class TestClockPulse:
    def test_ideal_pi_full_transfer(self):
        ideal = AtomModel(PhysicsConstants(clock_reflection_intensity=1e-30, tau_c=1e12))
        state, _ = _drive([ClockPulse(duration=1e-3)], _meta(initial="g40"), model=ideal)
        assert state.population("m30") == pytest.approx(1.0, abs=1e-9)

    def test_channel_matches_dense_z_grid(self):
        # mixture average against a 2e4-node standing-wave grid
        omega = math.pi / 1e-3
        a = 0.1225
        for t in (1e-3, 3.7e-3):
            got = clock_rotation_transfer(omega, t, a)
            u = 2 * math.pi * (np.arange(20_000) + 0.5) / 20_000
            want = np.mean(np.sin(0.5 * omega * t * np.sqrt(1 + a * a + a * np.cos(u))) ** 2)
            assert got == pytest.approx(float(want), abs=1e-6)

    def test_reflection_gives_nonmonotonic_envelope(self):
        state_eta = []
        for t in np.arange(1, 40, 2) * 1e-3:
            state, _ = _drive([ClockPulse(duration=float(t))], _meta(initial="g40"))
            state_eta.append(state.population("m30") + state.population("g40") * 0)
        eta = np.array(state_eta)
        assert eta[0] < 1.0
        mid = len(eta) // 2
        assert np.max(eta[mid - 3:mid + 3]) < np.max(eta[:4])

    def test_transfer_includes_lifetime_decay(self):
        state, _ = _drive([ClockPulse(duration=1e-3)], _meta(initial="g40"))
        eta_rot = clock_rotation_transfer(math.pi / 1e-3, 1e-3, math.sqrt(0.015))
        assert state.population("m30") == pytest.approx(
            eta_rot * math.exp(-1e-3 / 0.112), rel=1e-6)

    @staticmethod
    def _node_loop(omega_tau, delta_tau, a, n_nodes):
        """Standing-wave average, one 2x2 rotation and one Kronecker product
        per node."""
        m2 = np.zeros((2, 2), dtype=complex)
        s4 = np.zeros((4, 4), dtype=complex)
        for k in range(n_nodes):
            r = math.sqrt(max(1.0 + a * a + a * math.cos(2 * math.pi * (k + 0.5) / n_nodes), 0.0))
            w = math.hypot(omega_tau * r, delta_tau)
            c, s = math.cos(0.5 * w), math.sin(0.5 * w)
            if w > 0.0:
                u = np.array([[c - 1j * s * delta_tau / w, -1j * s * omega_tau * r / w],
                              [-1j * s * omega_tau * r / w, c + 1j * s * delta_tau / w]])
            else:
                u = np.eye(2, dtype=complex)
            u = u * cmath.exp(0.5j * delta_tau)
            m2 += u
            s4 += np.kron(u, u.conj())
        return m2 / n_nodes, s4 / n_nodes

    @staticmethod
    def _reference(omega_tau, delta_tau, a, n_nodes=2**16):
        """Standing-wave averages on a fixed midpoint rule of ``n_nodes`` over
        the whole period, each node sum contiguous (pairwise): (m2, s4) per
        entry of ``delta_tau``, and the sin^2 average of ``model_rabi_reflection``
        at area ``omega_tau``."""
        r = np.sqrt(1.0 + a * a + a * np.cos(2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes))
        d = np.asarray(delta_tau, dtype=float)[:, None]
        w = np.hypot(omega_tau * r, d)
        c, s = np.cos(0.5 * w), np.sin(0.5 * w) / np.where(w > 0.0, w, 1.0)
        phase = np.exp(0.5j * d)
        # U = [[u00, u01], [u01, u11]]: the entries and their node means
        u = [(c - 1j * s * d) * phase, -1j * s * omega_tau * r * phase,
             (c + 1j * s * d) * phase]
        at = ((0, 1), (1, 2))
        means = [np.mean(x, axis=-1) for x in u]
        products = [[np.mean(x * y.conj(), axis=-1) for y in u] for x in u]
        m2 = np.array([[means[at[i][j]] for j in (0, 1)] for i in (0, 1)])
        s4 = np.array([[products[at[i][j]][at[k][m]] for j in (0, 1) for m in (0, 1)]
                       for i in (0, 1) for k in (0, 1)])
        return (np.moveaxis(m2, -1, 0), np.moveaxis(s4, -1, 0),
                np.mean(np.sin(0.5 * omega_tau * r) ** 2))

    @pytest.mark.parametrize("omega_tau, delta_tau, a, loop_nodes", [
        (0.0, 0.0, 0.1225, 64),            # w = 0 at every node: identity
        (0.0, 2.5, 0.1225, 64),
        (math.pi, 0.0, 0.1225, 64),
        (math.pi / 2, 0.8, 0.3, 64),
        (60 * math.pi, 4.0, 0.5, 256),     # detuned, many Rabi cycles
    ])
    def test_array_average_matches_node_loop(self, omega_tau, delta_tau, a, loop_nodes):
        # the one-pass average against the fixed 2^16-node one; a doubling
        # loop stopped at 1e-9 took ``loop_nodes`` nodes here, the rule no more
        m2_ref, s4_ref, _ = self._reference(omega_tau, [delta_tau], a)
        m2, s4 = engine._clock_average_core(omega_tau, delta_tau, a)
        assert np.max(np.abs(m2 - m2_ref[0])) <= 1e-12
        assert np.max(np.abs(s4 - s4_ref[0])) <= 1e-12
        assert not m2.flags.writeable and not s4.flags.writeable
        assert 2 * len(engine._standing_wave_scales(omega_tau, a)) <= loop_nodes

    @pytest.mark.parametrize("a", [0.0, math.sqrt(0.015), 0.5, 0.9, 0.999999])
    def test_node_rule_matches_fixed_node_average(self, a):
        # the rule's node count against a 2^16-node average, up to the area
        # limit and near a = 1, where the strip in which the integrand is
        # analytic is narrowest: the 1140 nm maps and the fit model's sin^2
        delta_tau = np.array([0.0, 0.3, 5.0, 50.0])
        for omega_tau in (0.0, math.pi, 8 * math.pi, 60 * math.pi, 400 * math.pi,
                          2000 * math.pi, MAX_CLOCK_AREA):
            m2_ref, s4_ref, sin2_ref = self._reference(omega_tau, delta_tau, a)
            m2, s4 = engine._clock_average_core(omega_tau, delta_tau, a)
            sin2 = model_rabi_reflection(1.0, omega_tau, a, math.inf)
            assert np.max(np.abs(m2 - m2_ref)) <= 1e-12, omega_tau
            assert np.max(np.abs(s4 - s4_ref)) <= 1e-12, omega_tau
            assert abs(sin2 - sin2_ref) <= 1e-12, omega_tau

    def test_area_past_the_limit_raises(self):
        a = math.sqrt(0.015)
        assert engine._clock_average_core(MAX_CLOCK_AREA, 0.0, a)[1].shape == (4, 4)
        with pytest.raises(ValueError, match="past the node rule's limit 10000 rad"):
            engine._clock_average_core(1.001 * MAX_CLOCK_AREA, 0.0, a)
        with pytest.raises(ValueError, match="past the node rule's limit"):
            clock_rotation_transfer(math.pi / 1e-3, 4.0, a)

    @pytest.mark.parametrize("a2, omega_tau", [(0.015, math.pi), (0.3, 60.0)])
    def test_batched_average_matches_each_value_alone(self, a2, omega_tau):
        # one array call over zero and noisy detunings equals the per-value
        # evaluation exactly, whatever else is in the batch; at a^2 = 0.3 the
        # values converge at different node counts (128 for 0 and 5, 64 for
        # 50 and 300)
        a = math.sqrt(a2)
        rng = np.random.default_rng(5)
        delta_tau = np.concatenate([[0.0, 0.0], rng.normal(0.0, 0.05, 8),
                                    [5.0, 50.0, 300.0]]).reshape(1, 13)
        m2, s4 = engine._clock_average_core(omega_tau, delta_tau, a)
        assert m2.shape == (1, 13, 2, 2) and s4.shape == (1, 13, 4, 4)
        for k, d in enumerate(delta_tau[0]):
            m2_one, s4_one = engine._clock_average_core(omega_tau, float(d), a)
            assert np.array_equal(m2[0, k], m2_one) and np.array_equal(s4[0, k], s4_one)

    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 177, 384, 700])
    def test_average_does_not_depend_on_the_block(self, n):
        # any subset of the values averages to the same bits as in the whole:
        # a shot's pulse map does not depend on the rows it ran with
        a = math.sqrt(MODEL.constants.clock_reflection_intensity)
        rng = np.random.default_rng(n)
        delta_tau = rng.normal(0.0, 0.05, 1024)
        whole = engine._clock_average_core(2.7, delta_tau, a)
        idx = rng.choice(1024, n, replace=False)
        part = engine._clock_average_core(2.7, delta_tau[idx], a)
        for w, p in zip(whole, part):
            assert np.array_equal(w[idx], p)

    def test_vanishing_reflection_is_storage_frame_rotation(self):
        # without back-reflection the averaged channel is one rotation, drive
        # phases at both pulse edges included
        ideal = AtomModel(PhysicsConstants(clock_reflection_intensity=1e-30, tau_c=1e12))
        omega, tau, det, phi = math.pi / 1e-3, 0.4e-3, 300.0, math.pi / 3
        pulse = ClockPulse(duration=tau, detuning=det, phase=phi)
        state, _ = _drive([pulse, pulse], _meta(initial="g40"), model=ideal)
        delta = 2 * math.pi * det
        u0, _ = self._node_loop(omega * tau, delta * tau, 0.0, 1)
        psi = np.array([1.0, 0.0])
        for k in range(2):   # drive phase theta(t) = delta*t + phi at each edge
            psi = (np.diag([1.0, cmath.exp(-1j * (delta * (k + 1) * tau + phi))]) @ u0
                   @ np.diag([1.0, cmath.exp(1j * (delta * k * tau + phi))]) @ psi)
        got = [[state.coherence(a, b) for b in ("g40", "m30")] for a in ("g40", "m30")]
        assert np.allclose(got, np.outer(psi, psi.conj()), atol=1e-9)


class TestFreeEvolution:
    def test_zero_time_identity(self):
        sched = Schedule((Wait(0.0),), _meta())
        ctx = _ctx(sched)
        state = EnsembleState.pure("g30", 5000)
        before = state.rho.copy()
        apply_event(state, Wait(0.0), ctx)
        assert np.array_equal(state.rho, before)

    def test_negative_time_raises(self):
        # the event checks its own duration when made, so none reaches the frame
        with pytest.raises(ScheduleError, match="^wait duration must be finite and >= 0, "
                                                "got -0.001$"):
            Wait(-1e-3)

    def test_unknown_event_raises(self):
        ctx = _ctx(Schedule((), _meta()))
        with pytest.raises(TypeError, match="unknown event 'wait 1ms'"):
            apply_event(EnsembleState.pure("g30"), "wait 1ms", ctx)

    def test_beta_zero_pure_exponential(self):
        loss = LossParameters(tau=16.4, beta_by_state=(("g4m4", 0.0), ("g40", 0.0), ("g30", 0.0)))
        state, _ = _drive([Wait(10.0)], _meta(), loss=loss)
        assert state.atom_number == pytest.approx(5000 * math.exp(-10 / 16.4), rel=1e-12)

    @pytest.mark.parametrize("tau", [math.inf, 16.4])
    def test_g40_two_body_flips_keep_their_atoms(self, tau):
        # g40's dipolar spin flips move atoms into the other F=4 sublevels and
        # lose none: the trace falls only by the single-atom factor
        loss = LossParameters(tau=tau, beta_by_state=(("g4m4", 0.0), ("g40", 1.1e-9),
                                                      ("g30", 0.0)))
        state, _ = _drive([Wait(2.0)], _meta(initial="g40"), loss=loss)
        assert state.population("g40") < 0.94 * math.exp(-2.0 / tau)
        assert state.trace == pytest.approx(math.exp(-2.0 / tau), abs=1e-12)

    def test_wait_past_every_atom_empties_the_state(self):
        # e^{-t/tau} underflows to 0 beyond ~745 tau: no atom is left, and no
        # survival ratio 0/0 is taken
        state, _ = _drive([Wait(2e4)], _meta(), loss=LossParameters.from_table(0.6))
        assert state.trace == 0.0

    @pytest.mark.parametrize("field,token", [(b, t) for b in TWO_BODY_TABLE
                                             for t in TWO_BODY_TABLE[b]])
    def test_closed_form_matches_rk4_oracle(self, field, token):
        bv = TWO_BODY_TABLE[field][token] / 1.6e-4
        for t_end in (1.0, 10.0, 60.0):
            got = float(model_two_body_loss(t_end, 5000.0, 16.4, bv))
            oracle = rk4_two_body(5000.0, t_end, 16.4, bv)
            assert abs(got - oracle) / oracle < 1e-6

    def test_metastable_decay_branching(self):
        state, _ = _drive([Wait(0.112)], _meta(initial="m30"))
        assert state.population("m30") == pytest.approx(math.exp(-1.0), rel=1e-9)
        # decay lands in ground mF in {0, +-1}, split between both manifolds
        landed_f4 = sum(state.population(f"g4{m}") for m in ("m1", "0", "1"))
        landed_f3 = sum(state.population(f"g3{m}") for m in ("m1", "0", "1"))
        freed = 1 - math.exp(-1.0)
        assert landed_f4 == pytest.approx(0.5 * freed, rel=1e-9)
        assert landed_f3 == pytest.approx(0.5 * freed, rel=1e-9)

    def test_ground_metastable_coherence_halves_rate(self):
        sched = Schedule((Wait(0.05),), _meta(initial="g40"))
        ctx = _ctx(sched)
        state = _full_state("g40")
        i, j = STATE_INDEX[SublevelRef.from_token("g40")], STATE_INDEX[SublevelRef.from_token("m30")]
        state.rho[:] = 0
        state.rho[0, i, i] = state.rho[0, j, j] = 0.5
        state.rho[0, i, j] = state.rho[0, j, i] = 0.5
        apply_event(state, Wait(0.05), ctx)
        assert abs(state.rho[0, i, j]) == pytest.approx(0.5 * math.exp(-0.05 / (2 * 0.112)),
                                                     rel=1e-9)


class TestMetastableDecay:
    """``_metastable_decay`` on a diagonal rho: the population flow of the
    metastable lifetime and branching."""

    TAU_C = 0.112

    @staticmethod
    def _decayed(dts, branch_to_f4=0.5):
        model = AtomModel(PhysicsConstants(tau_c=TestMetastableDecay.TAU_C,
                                           metastable_branch_to_f4=branch_to_f4))
        pops = np.random.default_rng(4).uniform(0.1, 1.0, engine.DIM)
        rho = np.diag(pops).astype(complex)[None]
        for dt in dts:
            engine._metastable_decay(rho, dt, model)
        assert np.count_nonzero(rho[0] - np.diag(rho[0].diagonal())) == 0
        return pops, rho[0].diagonal().real

    def test_identity_at_zero(self):
        pops, after = self._decayed([0.0])
        assert np.array_equal(after, pops)

    def test_survival_at_one_lifetime(self):
        pops, after = self._decayed([self.TAU_C])
        meta = slice(META_START, None)
        assert after[meta] == pytest.approx(math.exp(-1.0) * pops[meta], rel=1e-12)

    def test_population_conserved(self):
        pops, after = self._decayed([0.05], branch_to_f4=0.35)
        assert after.sum() == pytest.approx(pops.sum(), rel=1e-12)
        assert np.all(after[engine._GROUND_F4] >= pops[engine._GROUND_F4])

    def test_two_half_steps_equal_one_step(self):
        _, halves = self._decayed([0.01, 0.01])
        _, whole = self._decayed([0.02])
        assert halves == pytest.approx(whole, abs=1e-12)


class TestDriftIntegrals:
    @staticmethod
    def _trapezoid(y, x):
        integrate = getattr(np, "trapezoid", None) or np.trapz
        return integrate(y, x)

    def test_sinusoid_against_quadrature(self):
        drift = SinusoidDrift(amplitude=4e-4, period=13.0)
        noise = NoiseModel(sigma_B_shot=2e-4, drift=drift, seed=5)
        sched = Schedule((Wait(1.0),), _meta(bias=0.1))
        ctx = _ctx(sched, noise=noise, shot=3)
        for (t0, t1) in ((0.0, 2.0), (0.5, 7.7), (3.1, 3.9)):
            i1, i2 = ctx.field_integrals(t0, t1)
            ts = np.linspace(t0, t1, 200_001)
            o = ctx.field_offset(ts[:, None])[:, 0]
            i1_num = self._trapezoid(o, ts)
            i2_num = self._trapezoid((0.1 + o) ** 2 - 0.01, ts)
            assert i1 == pytest.approx(i1_num, abs=1e-10)
            assert i2 == pytest.approx(i2_num, abs=1e-10)

    def test_random_walk_integrals(self):
        drift = RandomWalkDrift(step=1e-4, interval=0.5)
        noise = NoiseModel(sigma_B_shot=0.0, drift=drift, seed=9)
        sched = Schedule((Wait(1.0),), _meta(bias=0.1))
        ctx = _ctx(sched, noise=noise, shot=2)
        i1, i2 = ctx.field_integrals(0.3, 4.2)
        ts = np.linspace(0.3, 4.2, 400_001)
        o = ctx.field_offset(ts[:, None])[:, 0]
        assert i1 == pytest.approx(self._trapezoid(o, ts), abs=1e-9)

    def test_walk_continues_across_shots(self):
        drift = RandomWalkDrift(step=1e-4, interval=1.0)
        noise = NoiseModel(sigma_B_shot=0.0, drift=drift, seed=9,
                           inter_shot_dead_time=0.5)
        sched = Schedule((Wait(1.0),), _meta(bias=0.1))
        c0 = _ctx(sched, noise=noise, shot=0)
        c1 = _ctx(sched, noise=noise, shot=1)
        # shot 1 starts at wall time 1.5; the walk value there matches the
        # value shot 0 sees at its own t = 1.5
        assert c1.field_offset(0.0) == pytest.approx(c0.field_offset(1.5))

    def test_prefix_form_matches_per_interval_sum(self):
        # a block of four rows on three seeds, and random spans that cross
        # no interval edge, one edge or many: each integral against the sum
        # over its intervals of _walk's values, rounded once (math.fsum)
        interval = 0.5
        drift = RandomWalkDrift(step=1e-4, interval=interval)
        noise = NoiseModel(sigma_B_shot=2e-4, drift=drift, seed=9)
        sched = Schedule((Wait(3.0),), _meta(bias=0.1))
        seeds = [9, 11, 9, 4]
        ctx = ShotContext(MODEL, noise, LOSS_OFF, sched, [0, 3, 5, 2], seeds=seeds)
        rng = np.random.default_rng(17)
        t0 = rng.uniform(0.0, 40.0, 60)
        t1 = t0 + np.concatenate([rng.uniform(0.0, 0.01, 20), rng.uniform(0.4, 0.6, 20),
                                  rng.uniform(5.0, 30.0, 20)])
        i1, i2 = ctx._offset_integrals(t0[:, None], t1[:, None])
        edges = set()
        for r, seed in enumerate(seeds):
            w = engine._walk(seed, 1024)[:, 0]
            o = ctx.delta_B[r]
            for s, (a, b) in enumerate(zip(ctx.wall_t0[r] + t0, ctx.wall_t0[r] + t1)):
                ks = range(int(a // interval), int(b // interval) + 1)
                edges.add(min(len(ks) - 1, 2))
                seg = [min(b, (k + 1) * interval) - max(a, k * interval) for k in ks]
                values = [o + drift.step * w[k] for k in ks]
                scale = math.fsum(abs(v) * d for v, d in zip(values, seg))
                assert abs(i1[s, r] - math.fsum(v * d for v, d in zip(values, seg))) \
                    <= 1e-9 * scale
                assert abs(i2[s, r] - math.fsum(v * v * d for v, d in zip(values, seg))) \
                    <= 1e-9 * scale * max(map(abs, values))
        assert edges == {0, 1, 2}   # no edge, one, and more than one

    def test_walk_is_held_at_its_first_value_before_wall_time_zero(self):
        # K = floor(t / interval) is clamped at 0: each row reads its own
        # seed's first value, never another table's
        drift = RandomWalkDrift(step=1e-4, interval=1.0)
        noise = NoiseModel(sigma_B_shot=0.0, drift=drift, seed=3)
        sched = Schedule((Wait(1.0),), _meta(bias=0.1))
        ctx = ShotContext(MODEL, noise, LOSS_OFF, sched, [0, 0], seeds=[3, 8])
        first = [drift.step * engine._walk(seed, 1)[0, 0] for seed in (3, 8)]
        assert ctx.field_offset(-2.5).tolist() == first

    def test_walk_cache_bounded_and_regenerated_exactly(self):
        first = engine._walk(12345, 3000).copy()
        assert first.shape == (3000, 3)   # w, S1, S2 per interval
        for seed in range(engine._walk.cache_info().maxsize + 5):
            engine._walk(seed, 10)
        info = engine._walk.cache_info()
        assert info.currsize <= info.maxsize
        again = engine._walk(12345, 3000)   # evicted: regenerated
        assert engine._walk.cache_info().misses == info.misses + 1
        assert np.array_equal(again, first)
        # any length gives the same prefix, prefix sums included
        assert np.array_equal(engine._walk(12345, 10), first[:10])
        assert np.array_equal(engine._walk(12345, 4096)[:3000], first)


class TestEchoAndCoherence:
    def test_hahn_echo_invariant_1e9(self):
        # static offset, fast pulses, spectators detuned away: the echo must
        # restore the Ramsey zero-offset coherence to 1e-9.  The residual
        # finite-pulse defect scales as (offset * pulse time)^2, so short
        # pulses isolate the refocusing property itself.
        cfg = BuilderConfig(bias_field=0.1, mw_pi_time=2e-6)
        for db in (2e-4, -1.3e-3, 3e-3):
            for n in (1, 2, 4):
                events = list(build_cp(n, 4.0, 0.0, cfg).events)[:-1]
                sched = Schedule(tuple(events), _meta(bias=0.1, initial="g40"))
                ctx = _ctx(sched, model=ISOLATED)
                ctx.delta_B = db
                state = EnsembleState.pure("g40", 5000)
                for ev in events:
                    apply_event(state, ev, ctx)
                coherence = 2 * abs(state.coherence("g40", "g30"))
                assert abs(coherence - 1.0) < 1e-9

    @staticmethod
    def _cp_contrast_oracle(n, t, bias, drift, shots, dead_time=0.6):
        """Mean over shots of exp(-Var(phi)/2) of a CP sequence under a random
        walk alone, from the walk's definition: a N(0, 1) step at every
        multiple t_j of the interval, each adding (2 pi 2 gamma_qz B
        drift.step) * int_{t_j}^{end} s(t) dt to the phase, with s the +-1
        switching function of the free evolutions."""
        duration = build_protocol("cp", {"n": n, "t": t, "bias_field": bias}).duration
        events = build_cp(n, t, cfg=BuilderConfig(bias_field=bias)).events
        waits, at, sign = [], events[0].duration, 1.0
        for ev in events[1:-1]:   # the waits, and the pi pulses that flip s
            if isinstance(ev, Wait):
                waits.append((at, at + ev.duration, sign))
            else:
                sign = -sign
            at += ev.duration

        def tail(tau):   # int_tau^end s(t) dt; 0 before the first wait too
            return sum(s * max(0.0, b - max(a, tau)) for a, b, s in waits)

        scale = (2 * math.pi * 2 * MODEL.constants.gamma_qz * bias * drift.step) ** 2
        total = 0.0
        for k in range(shots):
            start = k * (duration + dead_time)
            steps = np.arange(math.floor(start / drift.interval),
                              math.ceil((start + at) / drift.interval) + 1) * drift.interval
            total += math.exp(-0.5 * scale * sum(tail(x - start) ** 2 for x in steps))
        return total / shots

    @pytest.mark.parametrize("n,t", [(1, 8.0), (2, 12.0), (8, 20.0)])
    def test_cp_contrast_under_random_walk_matches_oracle(self, n, t):
        # the engine's walk integrals against a closed form that reads none
        # of them: agreement within 3 standard errors of 300 shots
        drift = RandomWalkDrift(5e-5, 1.0)
        noise = NoiseModel(sigma_B_shot=0.0, drift=drift, seed=0)
        schedule = build_protocol("cp", {"n": n, "t": t, "bias_field": 0.1})
        calib = default_calibration(MODEL, camera_floor=0.0)
        record = run_scan([(schedule, noise, calib)], MODEL, LOSS_OFF, 300)[0]
        contrast = 2 * (record.eta3() if n % 2 == 0 else record.eta4()) - 1
        error = contrast.std(ddof=1) / math.sqrt(len(contrast))
        expected = self._cp_contrast_oracle(n, t, 0.1, drift, 300)
        assert abs(contrast.mean() - expected) <= 3 * error

    def test_single_and_double_storage_decay_rates(self):
        # contrast ratio over storage time tracks exp(-T/(2 tau_c)) for the
        # single and exp(-T/tau_c) for the bicolor scheme, within 1 %
        def contrast(mode, t_store):
            events = list(build_clock_coherence(mode, t_store).events)
            cut = [i for i, ev in enumerate(events) if isinstance(ev, MwPulse)][-1]
            pre = events[:cut]
            sched = Schedule(tuple(pre), _meta(bias=0.1, initial="g30"))
            ctx = _ctx(sched)
            state = EnsembleState.pure("g30", 5000)
            for ev in pre:
                apply_event(state, ev, ctx)
            return 2 * abs(state.coherence("g40", "g30"))

        for mode, rate in (("single", 0.5 / 0.112), ("double", 1.0 / 0.112)):
            c0 = contrast(mode, 0.0)
            for t_store in (0.05, 0.12, 0.2):
                ratio = contrast(mode, t_store) / c0
                assert ratio == pytest.approx(math.exp(-rate * t_store), rel=0.01)

    def test_single_mode_t0_phase_pi(self):
        def coherence(events):
            sched = Schedule(tuple(events), _meta(bias=0.1, initial="g30"))
            ctx = _ctx(sched)
            state = EnsembleState.pure("g30", 5000)
            for ev in events:
                apply_event(state, ev, ctx)
            return state.coherence("g40", "g30")

        pi2 = MwPulse(duration=1e-3)
        clock = ClockPulse(duration=1e-3)
        ref = coherence([pi2, Wait(2e-3)])
        stored = coherence([pi2, clock, clock])
        phase = np.angle(stored / ref)
        assert abs(abs(phase) - math.pi) < 1e-6


class TestPrepOperations:
    def test_rf_sweep_default_yield(self):
        state, _ = _drive([RfSweep()], _meta(initial="g4m4"))
        assert state.population("g40") == pytest.approx(0.40, abs=1e-9)
        total = state.manifold_population(Manifold.GROUND, 4)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_coherent_transfer_perfect(self):
        sched = Schedule((), _meta(initial="g4m4"))
        ctx = _ctx(sched)
        state = EnsembleState.pure("g4m4", 5000)
        coherent_prep_transfer(state, ctx, efficiency=1.0)
        assert state.population("g40") == pytest.approx(1.0)

    def test_coherent_transfer_092(self):
        sched = Schedule((), _meta(initial="g4m4"))
        ctx = _ctx(sched)
        state = EnsembleState.pure("g4m4", 5000)
        coherent_prep_transfer(state, ctx, efficiency=0.98)
        assert state.population("g40") == pytest.approx(0.98**4, abs=1e-12)

    def test_state_prep_theta_pi_lands_in_g40(self):
        state, _ = _drive(list(build_state_prep(theta=math.pi).events),
                          _meta(bias=0.6, initial="g4m4"))
        pops = {t: state.population(t) for t in ("g40", "g30")}
        assert pops["g40"] > 0.99 * state.trace
        assert pops["g30"] < 1e-3

    def test_prep_impurity_budget(self):
        state, _ = _drive(list(build_state_prep(theta=0.0).events),
                          _meta(bias=0.6, initial="g4m4"))
        total = state.trace
        impurity = 1 - state.population("g30") / total
        assert impurity <= 5e-4


class TestProbeAndClean:
    def test_probe_zero_duration_identity(self):
        sched = Schedule((Probe410(duration=0.0),), _meta(initial="g40"))
        state, _ = _drive(list(sched.events), _meta(initial="g40"))
        assert state.population("g40") == pytest.approx(1.0)

    def test_probe_removes_target_and_depletes_spectator(self):
        calib = CrosstalkCalibration(camera_floor=0.0)
        sched = Schedule((Probe410(target_F=4, duration=0.4e-3),), _meta(initial="g30"))
        state, _ = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0, calibration=calib)
        assert state.population("g30") == pytest.approx(1 - 0.085, rel=1e-9)
        sched2 = Schedule((Probe410(target_F=4, duration=0.4e-3),), _meta(initial="g40"))
        state2, _ = run_shot(sched2, MODEL, NOISE_OFF, LOSS_OFF, 0, calibration=calib)
        assert state2.manifold_population(Manifold.GROUND, 4) == pytest.approx(0.0, abs=1e-12)

    def test_clean_examples(self):
        state, _ = _drive([Clean530(duration=3e-3)], _meta(initial="g40"))
        assert state.manifold_population(Manifold.GROUND, 4) < 1e-10
        state3, _ = _drive([Clean530(duration=3e-3)], _meta(initial="g30"))
        p_scatter = 1 - state3.population("g30") / state3.manifold_population(Manifold.GROUND, 3)
        assert 2.5e-4 * 6 / 7 * 0.9 < p_scatter < 3.5e-4

    def test_scale_states_is_diagonal_congruence(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(28, 28)) + 1j * rng.normal(size=(28, 28))
        rho0 = x @ x.conj().T
        for indices in (np.array([2, 5, 11]), slice(20, 28), 7):
            d = np.ones(28)
            d[indices] = 0.6
            rho = rho0.copy()[None]
            engine._scale_states(rho, indices, 0.6)
            assert np.allclose(rho[0], np.diag(d) @ rho0 @ np.diag(d), rtol=1e-15, atol=1e-13)


class TestRunSchedule:
    def test_ramsey_t0_eta4_unity(self):
        state, _ = _drive(list(build_ramsey(0.0, 0.0).events), _meta(bias=0.6))
        eta4 = state.population("g40") / (state.population("g40") + state.population("g30"))
        assert eta4 == pytest.approx(1.0, abs=1e-4)

    def test_fringe_period_equals_inverse_t(self):
        cfg = BuilderConfig(bias_field=0.1, mw_pi_time=2e-5)
        t_free = 0.08
        etas = []
        dnus = np.linspace(-12.5, 12.5, 41)
        for dnu in dnus:
            state, _ = _drive(list(build_ramsey(t_free, float(dnu), cfg).events),
                              _meta(bias=0.1))
            n4, n3 = state.population("g40"), state.population("g30")
            etas.append(n4 / (n4 + n3))
        etas = np.array(etas)
        # maxima at dnu = 0 and +- 1/T
        assert etas[np.argmin(np.abs(dnus))] > 0.99
        k0 = np.argmin(np.abs(dnus - 12.5))
        assert etas[k0] > 0.98
        kmin = np.argmin(np.abs(dnus - 6.25))
        assert etas[kmin] < 0.02

    def test_determinism_bit_identical(self):
        sched = build_ramsey(0.01, 3.0).followed_by(build_shelving_readout())
        noise = NoiseModel(sigma_B_shot=150e-6, seed=42)
        loss = LossParameters.from_table(0.6)
        a = run_schedule(sched, MODEL, noise, loss, 5, calibration=default_calibration(MODEL))
        b = run_schedule(sched, MODEL, noise, loss, 5, calibration=default_calibration(MODEL))
        for ra, rb in zip(a, b):
            assert ra.raw == rb.raw
            assert ra.calibrated == rb.calibrated

    def test_shot_depends_only_on_its_index(self):
        # each shot draws from its own seeded stream: running shot k alone,
        # in any order, reproduces record k of the run
        sched = build_ramsey(0.005, 0.0).followed_by(build_shelving_readout())
        noise = NoiseModel(sigma_B_shot=150e-6, drift=RandomWalkDrift(2e-5, 0.6), seed=11)
        loss = LossParameters.from_table(0.6)
        calib = default_calibration(MODEL)
        records = run_schedule(sched, MODEL, noise, loss, 4, calibration=calib)
        for k in reversed(range(4)):
            _, alone = run_shot(sched, MODEL, noise, loss, k, calibration=calib)
            assert alone.raw == records[k].raw
            assert alone.calibrated == records[k].calibrated

    def test_batch_equals_single_shots_on_every_event(self, monkeypatch):
        # every event kind and every per-shot draw (field offset, drift, laser
        # phase walk, camera noise, two-body loss): a shot's record does not
        # depend on the batch it ran in, a ragged last batch included
        monkeypatch.setattr(engine, "_BATCH_SHOTS", 4)
        events = (list(build_state_prep(theta=math.pi / 3).events)
                  + [Probe410(target_F=3, duration=0.2e-3),
                     MwPulse(duration=1e-3, detuning=3.0, phase=0.4), Wait(0.05),
                     ClockPulse(duration=1e-3), Wait(0.01), ClockPulse(duration=1e-3)]
                  + list(build_shelving_readout().events))
        sched = Schedule(tuple(events), _meta(bias=0.6, initial=None))
        noise = NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0),
                           laser_phase_diffusion=5.0, seed=21)
        loss = LossParameters.from_table(0.6)
        calib = default_calibration(MODEL)
        assert calib.camera_floor > 0
        records = run_schedule(sched, MODEL, noise, loss, 6, calibration=calib)
        for k in reversed(range(6)):
            _, alone = run_shot(sched, MODEL, noise, loss, k, calibration=calib)
            assert alone.shot_index == records[k].shot_index == k
            assert alone.raw == records[k].raw
            assert alone.calibrated == records[k].calibrated

    def test_batch_equals_single_shots_across_pulse_chunks(self, monkeypatch):
        # a block of 6 rows takes each 8-substep loss-on pulse in chunks of
        # 16 // 6 = 2 substeps, a shot alone in one chunk of 8: the records
        # agree bit for bit
        monkeypatch.setattr(engine, "_BATCH_SHOTS", 8)
        monkeypatch.setattr(engine, "_SUBSTEP_CHUNK", 16)
        calib = default_calibration(MODEL)
        chunks = []
        average = engine._clock_average_core

        def counted(omega_tau, delta_tau, a):
            chunks.append(len(delta_tau))
            return average(omega_tau, delta_tau, a)

        monkeypatch.setattr(engine, "_clock_average_core", counted)
        events = ([MwPulse(duration=1e-3, detuning=3.0, phase=0.4),
                   ClockPulse(duration=1e-3), Wait(0.01), ClockPulse(duration=1e-3)]
                  + list(build_shelving_readout().events))
        sched = Schedule(tuple(events), _meta(bias=0.6))
        noise = NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0),
                           laser_phase_diffusion=5.0, seed=17)
        loss = LossParameters.from_table(0.6)
        records = run_schedule(sched, MODEL, noise, loss, 6, calibration=calib)
        assert chunks[:4] == [2, 2, 2, 2]
        for k in range(6):
            chunks.clear()
            _, alone = run_shot(sched, MODEL, noise, loss, k, calibration=calib)
            assert chunks[0] == 8
            assert alone.raw == records[k].raw
            assert alone.calibrated == records[k].calibrated

    def test_readout_record_assembly(self):
        sched = build_shelving_readout()
        calib = default_calibration(MODEL, camera_floor=0.0)
        sched = replace(sched, metadata=replace(sched.metadata, initial_state="g30"))
        _, rec = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0, n_atoms=4000,
                          calibration=calib)
        assert set(rec.raw) == set(READOUT_LABELS)
        assert rec.calibrated["N3_mf0"] == pytest.approx(4000, rel=1e-6)
        assert abs(rec.calibrated["N4_mf0"]) < 1.0

    def test_trace_conservation_through_everything(self):
        events = (list(build_state_prep(theta=math.pi / 3).events)
                  + [Wait(0.5), ClockPulse(duration=1e-3), Wait(0.05)]
                  + list(build_shelving_readout().events))
        sched = Schedule(tuple(events), _meta(bias=0.6, initial="g4m4"))
        noise = NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0), seed=3)
        loss = LossParameters.from_table(0.6)
        calib = default_calibration(MODEL, camera_floor=0.0)
        ctx = _ctx(sched, noise=noise, loss=loss, calib=calib)
        state = EnsembleState.pure("g4m4", 5000)
        for ev in sched.events:
            apply_event(state, ev, ctx)
            assert state.atom_number + state.lost == pytest.approx(5000, rel=1e-9)
            assert state.trace <= 1 + 1e-9

    def test_propagators_preserve_psd(self):
        rng = np.random.default_rng(8)
        events = [MwPulse(duration=1.3e-3, detuning=25.0, phase=0.7),
                  ClockPulse(duration=0.8e-3),
                  RfSweep(), Clean530(duration=1e-3), Probe410(duration=0.2e-3),
                  Wait(0.03)]
        noise = NoiseModel(sigma_B_shot=2e-4, seed=4)
        loss = LossParameters.from_table(0.6)
        calib = default_calibration(MODEL, camera_floor=0.0)
        for trial in range(5):
            a = rng.normal(size=(28, 28)) + 1j * rng.normal(size=(28, 28))
            rho = a @ a.conj().T
            rho /= rho.trace().real
            sched = Schedule(tuple(events), _meta(bias=0.6))
            ctx = _ctx(sched, noise=noise, loss=loss, shot=trial, calib=calib)
            state = EnsembleState(rho[None].astype(complex), 5000)
            for ev in events:
                apply_event(state, ev, ctx)
                eigs = np.linalg.eigvalsh(state.rho)
                assert eigs.min() > -1e-9

    def test_initial_state_rule(self):
        # prep-embedding schedules start from the stretched state
        sched = build_state_prep()
        _, rec = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0)
        assert rec is not None
        plain = Schedule((Wait(1e-3),), ScheduleMetadata(bias_field=0.6))
        state, _ = run_shot(plain, MODEL, NOISE_OFF, LOSS_OFF, 0)
        assert state.population("g30") == pytest.approx(1.0)

    def test_run_schedule_validates(self):
        # a schedule that exists is valid: the bad event is not made
        with pytest.raises(ScheduleError, match="unknown transition 'g44-g33'"):
            MwPulse(transition="g44-g33")


def _ramsey_points(detunings, noise, calib, seed_step=1000, t=0.01):
    return [(build_protocol("ramsey", {"t": t, "detuning": float(dnu), "bias_field": 0.1}),
             replace(noise, seed=noise.seed + seed_step * k), calib)
            for k, dnu in enumerate(detunings)]


def _phase_scan_points(noise, calib):
    # final microwave phase and first 1140 nm pulse's phase and detuning vary
    base = build_clock_coherence("single", 0.01)
    events = list(base.events)
    mw = max(k for k, ev in enumerate(events) if isinstance(ev, MwPulse))
    clock = min(k for k, ev in enumerate(events) if isinstance(ev, ClockPulse))
    points = []
    for k, phi in enumerate(np.linspace(0.0, 2 * math.pi, 6, endpoint=False)):
        events[mw] = replace(events[mw], phase=float(phi))
        events[clock] = replace(events[clock], phase=0.3 * k, detuning=20.0 * k)
        points.append((Schedule(tuple(events), base.metadata),
                       replace(noise, seed=noise.seed + 631 * k), calib))
    return points


_CALIB = default_calibration(MODEL, camera_floor=0.0)

# (points, loss, n_shots): each scan groups all its points
_SCANS = {
    "detuning_sinusoid_drift": (
        _ramsey_points(np.linspace(-50, 50, 4),
                       NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0), seed=5),
                       _CALIB), LOSS_OFF, 6),
    "detuning_random_walk_seed_per_point": (
        _ramsey_points(np.linspace(-50, 50, 4),
                       NoiseModel(sigma_B_shot=60e-6, drift=RandomWalkDrift(5e-5, 0.3), seed=9),
                       _CALIB, seed_step=1), LOSS_OFF, 6),
    "phase_scan_laser_diffusion_1140nm": (
        _phase_scan_points(NoiseModel(sigma_B_shot=60e-6, laser_phase_diffusion=60.0, seed=2),
                           _CALIB), LOSS_OFF, 4),
    "table_loss_camera_floor_20": (
        _ramsey_points(np.linspace(-50, 50, 3), NoiseModel(sigma_B_shot=60e-6, seed=4),
                       default_calibration(MODEL, camera_floor=20.0)),
        LossParameters.from_table(0.1), 3),
    "blocks_straddle_points": (
        _ramsey_points(np.linspace(-50, 50, 9), NoiseModel(sigma_B_shot=150e-6, seed=1),
                       _CALIB), LOSS_OFF, 5),
}


def _counting_batches(monkeypatch):
    calls = []
    run_batch = engine._run_batch

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(engine, "_run_batch", counted)
    return calls


class TestRunScan:
    @staticmethod
    def _assert_each_point_equals_its_own_run(points, loss, n_shots, scan):
        assert len(scan) == len(points)
        for (schedule, noise, calib), records in zip(points, scan):
            alone = run_schedule(schedule, MODEL, noise, loss, n_shots, calibration=calib)
            assert [r.shot_index for r in records] == list(range(n_shots))
            for a, b in zip(records, alone):
                assert a.raw == b.raw
                assert a.calibrated == b.calibrated
                assert a.low_confidence == b.low_confidence

    @pytest.mark.parametrize("name", list(_SCANS))
    def test_each_point_equals_its_own_run(self, name, monkeypatch):
        points, loss, n_shots = _SCANS[name]
        monkeypatch.setattr(engine, "_BATCH_SHOTS", 8)
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 0)
        calls = _counting_batches(monkeypatch)
        scan = run_scan(points, MODEL, loss, n_shots)
        # the points share blocks of 8 rows
        rows = len(points) * n_shots
        assert calls == [min(8, rows - start) for start in range(0, rows, 8)]
        self._assert_each_point_equals_its_own_run(points, loss, n_shots, scan)

    def test_later_blocks_grow_to_the_entry_budget(self, monkeypatch):
        # the first block of 8 rows reaches k = 9 sublevels, so with a budget
        # of 20 rows at k = 9 the other 37 rows run as blocks of 20 and 17,
        # each row as in its own point's run
        points, loss, n_shots = _SCANS["blocks_straddle_points"]
        monkeypatch.setattr(engine, "_BATCH_SHOTS", 8)
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 20 * 9**2)
        calls = _counting_batches(monkeypatch)
        scan = run_scan(points, MODEL, loss, n_shots)
        assert calls == [8, 20, 17]
        self._assert_each_point_equals_its_own_run(points, loss, n_shots, scan)

    def test_each_block_calibrates_once(self, monkeypatch):
        # 71 shots run as blocks of 64 and 7 rows: one readout.calibrate call
        # each, on the block's columns, and the record keeps shot order
        calls = []
        calibrate = readout.calibrate

        def counted(raw, calib):
            calls.append({label: len(column) for label, column in raw.items()})
            return calibrate(raw, calib)

        monkeypatch.setattr(readout, "calibrate", counted)
        sched = build_protocol("ramsey", {"t": 0.01, "detuning": 5.0, "bias_field": 0.1})
        record = run_schedule(sched, MODEL, NoiseModel(sigma_B_shot=150e-6, seed=2), LOSS_OFF,
                              71, calibration=_CALIB)
        assert calls == [dict.fromkeys(READOUT_LABELS, 64), dict.fromkeys(READOUT_LABELS, 7)]
        assert record.shot_index.tolist() == list(range(71))
        assert [len(column) for column in record.calibrated.values()] == [71] * 4

    def test_unmatched_points_run_alone(self, monkeypatch):
        # free times differ, so no two points group: one block per point
        noise = NoiseModel(sigma_B_shot=150e-6, seed=3)
        points = [(build_protocol("ramsey", {"t": t, "detuning": 5.0, "bias_field": 0.1}),
                   replace(noise, seed=k), _CALIB)
                  for k, t in enumerate((0.01, 0.02, 0.03))]
        calls = _counting_batches(monkeypatch)
        scan = run_scan(points, MODEL, LOSS_OFF, 3)
        assert calls == [3, 3, 3]
        for (schedule, noise_k, calib), records in zip(points, scan):
            alone = run_schedule(schedule, MODEL, noise_k, LOSS_OFF, 3, calibration=calib)
            assert [r.raw for r in records] == [r.raw for r in alone]
            assert [r.calibrated for r in records] == [r.calibrated for r in alone]

    def test_fringe_contrast_shares_blocks(self, monkeypatch):
        # 24 detunings x 16 shots run as 3 blocks, not 24 of 16: 64 rows,
        # then 14400 // 9^2 = 177 rows of k = 9 sublevels, then the rest
        calls = _counting_batches(monkeypatch)
        _fringe_contrast(MODEL, NoiseModel(sigma_B_shot=60e-6, seed=0), LOSS_OFF, _CALIB,
                         0.08, 0.1, 16, 0)
        assert calls == [64, 177, 143]

    def _fig4_run_scans(self, monkeypatch, tmp_path, t_grid):
        calls = []

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return run_scan(points, *args, **kwargs)

        monkeypatch.setattr(figures, "run_scan", counted)
        files = figures.fig4(str(tmp_path), seed=4, shots=2, t_grid=t_grid)
        return calls, files

    def test_fig4_inset_reuses_the_80ms_scan(self, monkeypatch, tmp_path):
        # the 0.1 G, 80 ms contrast scan is the inset: two biases x three
        # free times and no seventh scan
        calls, files = self._fig4_run_scans(monkeypatch, tmp_path, (0.08, 4.0, 10.0))
        assert calls == [24] * 6
        with open(files[1], newline="") as fh:
            inset = [float(row["eta4"]) for row in
                     csv.DictReader(line for line in fh if not line.startswith("#"))]
        _, _, ds, _ = _fringe_contrast(
            MODEL, NoiseModel(sigma_B_shot=figures._SIGMA_B_COHERENCE, seed=4), LOSS_OFF,
            default_calibration(MODEL, camera_floor=0.0), 0.08, 0.1, 2, 4)
        assert inset == list(ds.y)

    def test_fig4_inset_runs_its_own_scan_without_80ms(self, monkeypatch, tmp_path):
        calls, _ = self._fig4_run_scans(monkeypatch, tmp_path, (4.0, 10.0))
        assert calls == [24] * 5


def _bits(record):
    """Every number of a block's record as its exact bit pattern, row by
    row, with the labels each row flags low confidence."""
    return [(r.shot_index, {k: v.hex() for k, v in r.raw.items()},
             {k: v.hex() for k, v in r.calibrated.items()},
             sorted(k for k, low in r.low_confidence.items() if low))
            for r in (record[i] for i in range(len(record)))]


def _driven_record(state, events, ctx, shots, calib, check=lambda k, ev: None):
    """The record of ``state`` driven through ``events`` with ``apply_event``,
    its columns collected as ``_run_batch`` collects them; ``check(k, ev)``
    runs after every event."""
    raw, timings = {}, {}
    for k, ev in enumerate(events):
        t = ctx.t
        column = apply_event(state, ev, ctx)
        if column is not None:
            raw[ev.label], timings[ev.label] = column, t
        check(k, ev)
    return block_record(shots, raw, timings, calib, ctx.calibration.camera_floor)


def _compact_and_full(schedule, noise, loss, calib, shots=(0, 1, 2)):
    """The basis a ``_run_batch`` block of ``schedule`` grew to, its
    records, and those of the same rows driven through ``apply_event`` on a
    full (rows, 28, 28) state, which must stay exactly zero outside that
    basis after every event."""
    shots = list(shots)
    state, compact = engine._run_batch(schedule, MODEL, noise, loss, shots, 5000.0, calib)
    basis = state.basis
    ctx = ShotContext(MODEL, noise, loss, schedule, shots, calib)
    start = STATE_INDEX[SublevelRef.from_token(engine._initial_token(schedule))]
    rho = np.zeros((len(shots), 28, 28), dtype=complex)
    rho[:, start, start] = 1.0
    state = EnsembleState(rho, 5000.0)
    outside = np.ones(28, dtype=bool)
    outside[basis.states] = False

    def zero_outside(k, ev):
        assert not state.rho[:, outside].any(), f"event {k} {ev!r}"
        assert not state.rho[:, :, outside].any(), f"event {k} {ev!r}"

    full = _driven_record(state, schedule.events, ctx, shots, calib, zero_outside)
    return basis, compact, full


def _every_event_schedule():
    # the schedule of test_batch_equals_single_shots_on_every_event
    events = (list(build_state_prep(theta=math.pi / 3).events)
              + [Probe410(target_F=3, duration=0.2e-3),
                 MwPulse(duration=1e-3, detuning=3.0, phase=0.4), Wait(0.05),
                 ClockPulse(duration=1e-3), Wait(0.01), ClockPulse(duration=1e-3)]
              + list(build_shelving_readout().events))
    return Schedule(tuple(events), _meta(bias=0.6, initial=None))


_BASIS_NOISE = NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0),
                          laser_phase_diffusion=5.0, seed=21)
_INERT_LOSS = LossParameters(tau=math.inf, beta_by_state=(("g4m4", 0.0), ("g40", 0.0),
                                                          ("g30", 0.0)))


def _readings(state):
    """Every accessor of a one-row state.  Compared with ``==``, equal
    nonzero floats are equal bit for bit; a zero may differ in sign (an
    entry outside a block's basis reads 0.0 where the full state holds
    -0.0)."""
    tokens = [s.token for s in BASIS]
    values = [state.trace, state.atom_number, state.lost]
    values += [state.population(t) for t in tokens]
    values += [state.manifold_population(m, F) for m in Manifold for F in (None, 2, 3, 4)]
    values += [state.coherence(a, b) for a in tokens for b in tokens]
    return values


class TestBlockBasis:
    """A state evolves only the sublevels its events have reached: its
    records are bit-equal to the full 28-level evolution, which never
    populates a state outside that basis."""

    @pytest.mark.parametrize("loss", [LossParameters.from_table(0.6), LOSS_OFF],
                             ids=["table_loss", "loss_off"])
    @pytest.mark.parametrize("name", [*PROTOCOLS, "every_event"])
    def test_compact_equals_full(self, name, loss):
        schedule = _every_event_schedule() if name == "every_event" else build_protocol(name)
        calib = default_calibration(MODEL)
        assert calib.camera_floor > 0
        basis, compact, full = _compact_and_full(schedule, _BASIS_NOISE, loss, calib)
        assert basis.dim < 28
        assert full.raw
        assert _bits(compact) == _bits(full)

    def test_decay_feeds_the_pulse_pair(self):
        # m31 decays into g40 during the first substep of a loss-on g40-m30
        # pulse, whose later substeps shelve that population into m30
        schedule = Schedule((ClockPulse(duration=1e-3), Measure(label="N4", target_F=4)),
                            _meta(initial="m31"))
        loss = LossParameters.from_table(0.6)
        basis, compact, full = _compact_and_full(schedule, _BASIS_NOISE, loss,
                                                 default_calibration(MODEL))
        assert STATE_INDEX[SublevelRef.from_token("m30")] in basis.local
        assert _bits(compact) == _bits(full)

    @pytest.mark.parametrize("loss", [LOSS_OFF, LossParameters.from_table(0.6)],
                             ids=["loss_off", "table_loss"])
    def test_run_shot_block_reads_as_the_full_state(self, loss):
        # stop before the readout, with populated metastable and F=4 states
        schedule = Schedule(build_protocol("ramsey", {"t": 0.01, "detuning": 20.0}).events[:3]
                            + (ClockPulse(duration=0.6e-3), Wait(0.02)), _meta(bias=0.6))
        state, _ = run_shot(schedule, MODEL, _BASIS_NOISE, loss, 0)
        ctx = ShotContext(MODEL, _BASIS_NOISE, loss, schedule, 0)
        full = _full_state("g30")
        for ev in schedule.events:
            apply_event(full, ev, ctx)
        assert state.rho.shape[0] == 1 and state.basis.dim < 28
        assert state.manifold_population(Manifold.METASTABLE_1140) > 0.01
        assert _readings(state) == _readings(full)

    @pytest.mark.parametrize("name, params, loss, size", [
        # a fig4 Ramsey point: loss off, 2 ms pi/2 pulses at 0.1 G
        ("ramsey", {"t": 0.08, "detuning": 1.0, "bias_field": 0.1}, LOSS_OFF, 9),
        # the lifetime scan of the README workflow: g30, table loss at 0.1 G
        ("lifetime", {"t": 1.0, "state": "g30", "bias_field": 0.1},
         LossParameters.from_table(0.1), 4),
        # its probe scan, with every loss channel off but loss.active unset
        ("probe_scan", {"t": 0.4e-3, "bias_field": 0.6}, _INERT_LOSS, 1),
        # loss on: two-body redistribution fills F=4
        ("ramsey", {"t": 0.08, "bias_field": 0.1}, LossParameters.from_table(0.1), 15),
    ])
    def test_basis_sizes(self, name, params, loss, size):
        schedule = build_protocol(name, params)
        state, _ = run_shot(schedule, MODEL, NOISE_OFF, loss, 0)
        assert state.basis.dim == size

    def test_hold_keeps_every_entry(self):
        rng = np.random.default_rng(3)
        held = [STATE_INDEX[SublevelRef.from_token(t)] for t in ("g4m1", "g30", "m31")]
        rho = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        state = EnsembleState(rho.copy(), 5000.0, engine._basis_of(frozenset(held)))
        basis, before = state.basis, state.rho
        state.hold([held[2], held[0]])
        assert state.basis is basis and state.rho is before
        grown = held + [STATE_INDEX[SublevelRef.from_token(t)] for t in ("g4m4", "g40", "m2m2")]
        state.hold(grown[3:])
        assert state.basis is engine._basis_of(frozenset(grown))
        assert state.rho.shape == (2, 6, 6) and state.rho.flags.c_contiguous
        at = [state.basis.local[i] for i in held]
        assert state.rho[:, at][:, :, at].tobytes() == rho.tobytes()
        new = [state.basis.local[i] for i in grown[3:]]
        assert not state.rho[:, new].any() and not state.rho[:, :, new].any()

    def test_growth_is_kept_per_loss_and_pulse_kind(self):
        # equal bases grow alike only under equal loss and handler: a loss-off
        # wait leaves g40 alone, a table-loss one holds F=4; from g40 a clock
        # pulse holds m30 and its decay targets, a microwave pulse g30 and the
        # spectator line's g3m1 (a clock pulse on the microwave pair is not made)
        schedule = Schedule((Wait(0.01),), _meta(initial="g40"))
        grown = []
        for loss in (LOSS_OFF, LossParameters.from_table(0.6), LOSS_OFF):
            state = EnsembleState.pure("g40")
            apply_event(state, Wait(0.01), ShotContext(MODEL, NOISE_OFF, loss, schedule, 0))
            grown.append(state.basis.dim)
        assert grown == [1, 9, 1]
        with pytest.raises(ScheduleError, match="clock transition must be a clock line"):
            ClockPulse(transition="g40-g30")
        grown = []
        for ev in (ClockPulse(), MwPulse(), ClockPulse()):
            state = EnsembleState.pure("g40")
            apply_event(state, ev, ShotContext(MODEL, NOISE_OFF, LOSS_OFF, schedule, 0))
            grown.append(state.basis.dim)
        assert grown == [6, 3, 6]

    @pytest.mark.parametrize("loss", [LossParameters.from_table(0.6), LOSS_OFF],
                             ids=["table_loss", "loss_off"])
    def test_pure_state_grows_to_the_full_evolution(self, loss):
        # after every event, a pure() state holds every sublevel the
        # full-basis evolution has populated, and reads as that evolution
        schedule = _every_event_schedule()
        token = engine._initial_token(schedule)
        states = [EnsembleState.pure(token), _full_state(token)]
        contexts = [ShotContext(MODEL, _BASIS_NOISE, loss, schedule, 2) for _ in states]
        for k, ev in enumerate(schedule.events):
            for state, ctx in zip(states, contexts):
                apply_event(state, ev, ctx)
            grown, full = states
            populated = np.flatnonzero(full.rho[0].any(axis=0) | full.rho[0].any(axis=1))
            assert set(populated.tolist()) <= set(grown.basis.local), f"event {k} {ev!r}"
            assert _readings(grown) == _readings(full), f"event {k} {ev!r}"
        assert 1 < grown.basis.dim < 28


class TestOneStateShape:
    """A state is (rows, k, k) over its basis and a single shot is one row."""

    def test_accessors_read_one_row(self):
        state = EnsembleState(np.zeros((3, 28, 28), dtype=complex), 5000.0)
        reads = [lambda: state.trace, lambda: state.atom_number, lambda: state.lost,
                 lambda: state.population("g30"),
                 lambda: state.manifold_population(Manifold.GROUND, 4),
                 lambda: state.coherence("g40", "g30")]
        for read in reads:
            with pytest.raises(ValueError, match="one-row"):
                read()

    @pytest.mark.parametrize("shape", [(28, 28), (1, 9, 9), (1, 28)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="rows, 28, 28"):
            EnsembleState(np.zeros(shape, dtype=complex), 5000.0)

    def test_one_index_is_a_block_of_one_row(self):
        schedule = build_protocol("ramsey", {"t": 0.01, "detuning": 20.0, "bias_field": 0.1})
        noise = NoiseModel(sigma_B_shot=150e-6, drift=RandomWalkDrift(5e-5, 0.003),
                           laser_phase_diffusion=5.0, seed=13)
        calib = default_calibration(MODEL)
        runs = []
        for shot in (5, [5]):
            ctx = ShotContext(MODEL, noise, LOSS_OFF, schedule, shot, calib)
            state = EnsembleState.pure("g30", 5000.0)
            record = _driven_record(state, schedule.events, ctx, [5], None)
            runs.append((ctx.delta_B, ctx.wall_t0, ctx.laser_phase,
                         ctx.field_offset(0.004), ctx.draw_normal(1.0), state.rho))
            runs.append(_bits(record))
        assert runs[1] == runs[3] and runs[1][0][1]
        for one, listed in zip(runs[0], runs[2]):
            assert one.shape == listed.shape == (1,) + listed.shape[1:]
            assert one.tobytes() == listed.tobytes()

    def test_non_contiguous_rho_evolves_as_contiguous(self):
        schedule = _every_event_schedule()
        loss = LossParameters.from_table(0.6)
        calib = default_calibration(MODEL)
        states = []
        for layout in ("C", "F", "strided"):
            state = _full_state("g4m4")
            rho = state.rho
            if layout == "F":
                rho = np.asfortranarray(rho)
            elif layout == "strided":
                rho = np.repeat(rho, 2, axis=2)[:, :, ::2]
            assert rho.flags.c_contiguous == (layout == "C")
            state.rho = rho
            ctx = ShotContext(MODEL, _BASIS_NOISE, loss, schedule, 2, calib)
            record = _driven_record(state, schedule.events, ctx, [2], None)
            states.append((state.rho.tobytes(), _bits(record)))
        assert states[0][1][0][1]
        assert states[1] == states[0] and states[2] == states[0]


_MW_LINES = [name for name, t in TRANSITIONS.items() if t.kind is TransitionKind.MW_HYPERFINE]
_CLOCK_LINES = [name for name, t in TRANSITIONS.items() if t.kind is TransitionKind.OPTICAL_1140]
_DURATION = st.floats(0.0, 2e-3)
_TARGET_F = st.sampled_from((3, 4))
_EVENTS = st.one_of(
    st.builds(Wait, duration=st.floats(0.0, 0.05)),
    st.builds(MwPulse, transition=st.sampled_from(_MW_LINES), duration=_DURATION,
              rabi_frequency=st.floats(200.0, 5e3), detuning=st.floats(-100.0, 100.0),
              phase=st.floats(0.0, 2 * math.pi)),
    st.builds(ClockPulse, transition=st.sampled_from(_CLOCK_LINES), duration=_DURATION,
              rabi_frequency=st.floats(500.0, 5e3), detuning=st.floats(-100.0, 100.0),
              phase=st.floats(0.0, 2 * math.pi)),
    st.builds(RfSweep, duration=st.floats(0.0, 5e-3), f_start=st.floats(0.0, 2e6),
              f_stop=st.floats(0.0, 2e6)),
    st.builds(Probe410, target_F=_TARGET_F, duration=_DURATION),
    st.builds(Clean530, target_F=_TARGET_F, duration=st.floats(0.0, 5e-3),
              s=st.floats(0.0, 5.0), detuning=st.floats(0.0, 1e9)),
    st.builds(Measure, label=st.sampled_from(READOUT_LABELS), target_F=_TARGET_F,
              probe_duration=_DURATION, dead_time=st.floats(0.0, 5e-3)),
)


@given(events=st.lists(_EVENTS, min_size=1, max_size=6),
       initial=st.sampled_from([s.token for s in BASIS]),
       bias=st.sampled_from((0.1, 0.6)), loss_on=st.booleans())
def test_random_schedules_compact_equals_full(events, initial, bias, loss_on):
    # each measurement its own label (a schedule repeats none): a repeated
    # label takes its event index
    events, seen = list(events), set()
    for k, ev in enumerate(events):
        if isinstance(ev, Measure):
            if ev.label in seen:
                events[k] = ev = replace(ev, label=f"{ev.label}_{k}")
            seen.add(ev.label)
    schedule = Schedule(tuple(events), _meta(bias=bias, initial=initial))
    loss = LossParameters.from_table(bias) if loss_on else LOSS_OFF
    _, compact, full = _compact_and_full(schedule, _BASIS_NOISE, loss,
                                         default_calibration(MODEL), shots=(0, 1))
    assert _bits(compact) == _bits(full)


# field values on every side of each event rule: negative, zero, small,
# large and not finite, each field's first strategy passing its rule, so that
# about half the draws of a field pass.  A pulse's duration and Rabi
# frequency stay small enough together (area <= 200 rad) that its loss-on
# substeps stay few.
_ANY_TIME = st.one_of(st.floats(0.0, 1e4), st.floats(-1e4, 1e4),
                      st.sampled_from((math.inf, -math.inf, math.nan)))
_ANY_F = st.one_of(st.sampled_from((3, 4)), st.integers(-1, 6))
_NOT_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


def _any_pulse(kind):
    return {"transition": st.one_of(
                st.sampled_from([name for name, t in TRANSITIONS.items() if t.kind is kind]),
                st.sampled_from([*TRANSITIONS, "g44-g33"])),
            "duration": st.one_of(st.floats(0.0, 1e-2), st.floats(-1e-2, 1e-2)),
            "rabi_frequency": st.one_of(st.floats(0.0, 2e4), st.floats(-2e4, 2e4)),
            "detuning": st.one_of(st.floats(-1e3, 1e3), _NOT_FINITE),
            "phase": st.one_of(st.floats(-10.0, 10.0), _NOT_FINITE)}


_ANY_FIELDS = {
    Wait: {"duration": _ANY_TIME},
    MwPulse: _any_pulse(TransitionKind.MW_HYPERFINE),
    ClockPulse: _any_pulse(TransitionKind.OPTICAL_1140),
    RfSweep: {"duration": _ANY_TIME, "f_start": st.one_of(st.floats(-1e6, 2e6), _NOT_FINITE),
              "f_stop": st.one_of(st.floats(-1e6, 2e6), _NOT_FINITE)},
    Probe410: {"target_F": _ANY_F, "duration": _ANY_TIME},
    Clean530: {"target_F": _ANY_F, "duration": _ANY_TIME,
               "s": st.one_of(st.floats(0.0, 1e4), st.floats(-2.0, 2.0)),
               "detuning": st.one_of(st.just(0.0), st.floats(-1e9, 1e9), _NOT_FINITE)},
    Measure: {"label": st.sampled_from(READOUT_LABELS), "target_F": _ANY_F,
              "probe_duration": _ANY_TIME, "dead_time": _ANY_TIME},
}


@pytest.mark.parametrize("cls", get_args(PulseEvent), ids=lambda cls: cls.kind)
@given(data=st.data(), initial=st.sampled_from([s.token for s in BASIS]))
def test_any_event_is_rejected_when_made_or_keeps_the_trace(cls, data, initial):
    # an event either fails its own checks, naming its kind and the field,
    # or runs on a pure state with loss off and on, and the trace does not grow
    values = data.draw(st.fixed_dictionaries(_ANY_FIELDS[cls]), label="fields")
    try:
        ev = cls(**values)
    except ScheduleError as exc:
        assert any(str(exc).startswith(f"{cls.kind} {name} must ") for name in values), exc
        return
    for loss in (LOSS_OFF, LossParameters.from_table(0.6)):
        state = EnsembleState.pure(initial)
        apply_event(state, ev, ShotContext(MODEL, NOISE_OFF, loss,
                                           Schedule((ev,), _meta(initial=initial)), 0))
        assert state.trace <= 1.0 + 1e-12, (loss, state.trace)


class TestMemoryBounds:
    """The shot path's working set: a block's state stays within its entry
    budget, and beyond the state, tracemalloc peaks of one call on a 64-row
    block or of one standing-wave average stay bounded."""

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_drifting_1140nm_pulse(self):
        # loss on: 160 substeps, and with drift every (substep, row) value
        # of the standing-wave average is distinct
        ev = ClockPulse(duration=20e-3, transition="g30-m20")
        sched = Schedule((ev,), _meta(bias=0.1))
        noise = NoiseModel(sigma_B_shot=150e-6, drift=SinusoidDrift(3e-4, 11.0), seed=1)
        ctx = ShotContext(MODEL, noise, LossParameters.from_table(0.1), sched, range(64))
        rho = np.zeros((64, 28, 28), dtype=complex)
        g30 = STATE_INDEX[SublevelRef.from_token("g30")]
        rho[:, g30, g30] = 1.0
        state = EnsembleState(rho, 5000.0)
        assert self._peak(lambda: apply_event(state, ev, ctx)) < 16e6

    @pytest.mark.parametrize("n_values", [384, 1024])
    def test_standing_wave_average_scratch(self, n_values):
        # the values are averaged 64 at a time, so the scratch does not grow
        # with them: ~11 kB per value when they were all evaluated at once
        a = math.sqrt(MODEL.constants.clock_reflection_intensity)
        delta_tau = np.random.default_rng(0).normal(0.0, 0.05, n_values)
        assert self._peak(lambda: engine._clock_average_core(2.7, delta_tau, a)) < 1.5e6

    def test_fig4_block_holds_nine_sublevels(self, monkeypatch):
        # fig4's Ramsey rows hold 9 sublevels: a first block (64, 9, 9), 83 kB,
        # not (64, 28, 28), 803 kB; the later blocks fill the entry budget
        states = []
        run_batch = engine._run_batch

        def kept(*args, **kwargs):
            state, records = run_batch(*args, **kwargs)
            states.append(state.rho)
            return state, records

        monkeypatch.setattr(engine, "_run_batch", kept)
        _fringe_contrast(MODEL, NoiseModel(sigma_B_shot=60e-6, seed=0), LOSS_OFF, _CALIB,
                         0.08, 0.1, 16, 0)
        assert [rho.shape for rho in states] == [(64, 9, 9), (177, 9, 9), (143, 9, 9)]
        assert states[0].nbytes == 64 * 81 * 16 == 82944
        assert all(len(rho) * rho.shape[1]**2 <= engine._BLOCK_ENTRIES for rho in states)

    def test_handlers_update_in_place(self):
        rho = np.tile(np.eye(28, dtype=complex) / 28, (64, 1, 1))
        phases = np.random.default_rng(0).normal(size=(64, 28))
        assert self._peak(lambda: engine._apply_state_phases(rho, phases)) < rho.nbytes / 2
        loss = LossParameters.from_table(0.1)
        assert self._peak(lambda: engine._apply_loss_channels(rho, 0.1, 5000.0, loss)) \
            < rho.nbytes / 2


class TestRabiVisibilityDamping:
    def test_depolarization_damps_long_rabi(self):
        # coherence decay through the two-body channels during a driven pulse
        loss = LossParameters.from_table(0.6)
        t = 0.2   # 50 Rabi periods
        state, _ = _drive([MwPulse(duration=t)], _meta(bias=0.6), loss=loss)
        n4, n3 = state.population("g40"), state.population("g30")
        state1, _ = _drive([MwPulse(duration=t)], _meta(bias=0.6))
        # with loss on, the oscillation amplitude must be reduced
        assert state.trace < state1.trace
        assert n4 + n3 < 1.0


class TestLaserPhaseNoise:
    def test_bicolor_cancels_laser_phase(self):
        # phase diffusion on the 1140 nm light destroys the single-transition
        # storage but passes through the bicolor scheme as a common mode
        pi2 = MwPulse(duration=1e-3)
        c4 = ClockPulse(duration=1e-3, transition="g40-m30")
        c3 = ClockPulse(duration=1e-3, transition="g30-m20")

        def contrast(events, diffusion, shots=60):
            noise = NoiseModel(sigma_B_shot=0.0,
                               laser_phase_diffusion=diffusion, seed=3)
            sched = Schedule(tuple(events), _meta(bias=0.1, initial="g30"))
            total = 0.0j
            for shot in range(shots):
                ctx = ShotContext(MODEL, noise, LOSS_OFF, sched, shot)
                state = EnsembleState.pure("g30", 100.0)
                for ev in events:
                    apply_event(state, ev, ctx)
                total += state.coherence("g40", "g30")
            return 2 * abs(total) / shots

        t_store = 0.1
        single = [pi2, c4, Wait(t_store), c4]
        double = [pi2, c4, c3, Wait(t_store), c3, c4]
        s0, s1 = contrast(single, 0.0), contrast(single, 30.0)
        d0, d1 = contrast(double, 0.0), contrast(double, 30.0)
        assert s1 < 0.5 * s0          # single-transition scheme collapses
        assert d1 > 0.9 * d0          # bicolor keeps most of its contrast

    def test_laser_noise_off_is_deterministic(self):
        sched = build_clock_coherence("single", 0.05)
        a = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0)[1]
        b = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0)[1]
        assert a.raw == b.raw


class TestParameterValidation:
    def test_loss_parameters_ranges(self):
        with pytest.raises(ValueError):
            LossParameters(tau=0.0)
        with pytest.raises(ValueError):
            LossParameters(volume_cm3=-1.0)
        with pytest.raises(ValueError):
            LossParameters(beta_by_state=(("g30", -1e-9),))
        with pytest.raises(ValueError):
            LossParameters(beta_by_state=(("g55", 1e-9),))

    @pytest.mark.parametrize("fields,name", [
        ({"volume_cm3": math.inf}, "volume_cm3"),
        ({"volume_cm3": math.nan}, "volume_cm3"),
        ({"beta_by_state": (("g4m4", 1e-11), ("g30", math.nan))}, "beta_g30"),
        ({"beta_by_state": (("g40", math.inf),)}, "beta_g40"),
    ])
    def test_loss_parameters_must_be_finite(self, fields, name):
        # an infinite volume zeroed every two-body rate, and a NaN beta
        # dropped its class, both without a word
        with pytest.raises(ValueError, match=f"^{name} must be"):
            LossParameters(**fields)

    def test_loss_without_single_atom_decay(self):
        assert not LossParameters(tau=math.inf, beta_by_state=()).active

    def test_loss_classes_resolved_once(self):
        loss = LossParameters(beta_by_state=(("g4m4", 0.0), ("g40", 1e-9), ("g30", 2e-9)))
        g40 = STATE_INDEX[SublevelRef.from_token("g40")]
        g30 = STATE_INDEX[SublevelRef.from_token("g30")]
        indices, beta_over_v, g40_at = loss.class_arrays
        assert indices.tolist() == [g40, g30]
        assert beta_over_v.tolist() == [1e-9 / loss.volume_cm3, 2e-9 / loss.volume_cm3]
        assert g40_at == 0
        assert loss.class_arrays is loss.class_arrays

    @pytest.mark.parametrize("make", [
        lambda: NoiseModel(sigma_B_shot=-1e-4),
        lambda: NoiseModel(sigma_B_shot=float("nan")),
        lambda: NoiseModel(laser_phase_diffusion=-1.0),
        lambda: SinusoidDrift(amplitude=1e-4, period=0.0),
        lambda: SinusoidDrift(amplitude=float("inf"), period=1.0),
        lambda: RandomWalkDrift(step=1e-4, interval=-1.0),
        lambda: RandomWalkDrift(step=-1e-4, interval=1.0),
    ])
    def test_noise_parameters_ranges(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("n_atoms", [0.0, -5.0, float("nan")])
    def test_run_scan_needs_atoms(self, n_atoms):
        point = (build_protocol("lifetime", {"t": 0.1}), NOISE_OFF, _CALIB)
        with pytest.raises(ValueError, match="n_atoms"):
            run_scan([point], MODEL, LOSS_OFF, 1, n_atoms=n_atoms)

    def test_from_table_picks_nearest_field(self):
        low = LossParameters.from_table(0.15)
        high = LossParameters.from_table(0.5)
        assert dict(low.beta_by_state)["g30"] == TWO_BODY_TABLE[0.1]["g30"]
        assert dict(high.beta_by_state)["g30"] == TWO_BODY_TABLE[0.6]["g30"]
