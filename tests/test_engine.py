import cmath
import math

import numpy as np
import pytest

from tmqubit import engine
from tmqubit.atom import AtomModel, Manifold, PhysicsConstants, STATE_INDEX, SublevelRef
from tmqubit.engine import (
    EnsembleState,
    LossParameters,
    NoiseModel,
    RandomWalkDrift,
    ShotContext,
    SinusoidDrift,
    TWO_BODY_TABLE,
    apply_event,
    apply_mw_pulse,
    clock_rotation_transfer,
    coherent_prep_transfer,
    default_calibration,
    evolve_free,
    run_schedule,
    run_shot,
    two_body_decay,
)
from tmqubit.readout import CrosstalkCalibration
from tmqubit.schedule import (
    BuilderConfig,
    Clean530,
    ClockPulse,
    MwPulse,
    Probe410,
    RfSweep,
    Schedule,
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


def _ctx(schedule, model=MODEL, noise=NOISE_OFF, loss=LOSS_OFF, shot=0, n=5000.0,
         calib=None):
    return ShotContext(model, noise, loss, schedule, shot, n, calib)


def _meta(bias=0.6, initial="g30"):
    return ScheduleMetadata(bias_field=bias, initial_state=initial)


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
        state = EnsembleState.pure("g30", 5000, ctx.field_at(0))
        apply_mw_pulse(state, MwPulse(duration=1e-3), ctx)   # make a superposition
        before = state.rho.copy()
        apply_mw_pulse(state, MwPulse(duration=4e-3), ctx)   # 2 pi
        assert np.max(np.abs(state.rho - before)) < 1e-12

    def test_spectator_leakage_formula(self):
        # p = Omega^2 / (Omega^2 + (2 pi dnu)^2) at the documented point
        omega = 2 * math.pi * 250.0
        dnu = 60e3
        p = omega**2 / (omega**2 + (2 * math.pi * dnu)**2)
        assert p == pytest.approx(1.736e-5, rel=1e-3)
        assert 1.5e-5 <= p <= 2.5e-5

    def test_unknown_transition_rejected(self):
        with pytest.raises(KeyError):
            _drive([MwPulse(transition="g41-g31", duration=1e-3)], _meta())

    def test_against_time_dependent_schroedinger_oracle(self):
        # RK4 integration of the storage-frame Hamiltonian
        #   H = dW |u><u| + Omega/2 (e^{-i(dn t + phi)} |u><l| + h.c.)
        # fixes every sign and frame convention of the pulse propagator
        rng = np.random.default_rng(77)
        for _ in range(6):
            omega = float(rng.uniform(500, 4000))
            detuning = float(rng.uniform(-300, 300))
            phase = float(rng.uniform(0, 2 * math.pi))
            tau = float(rng.uniform(0.5e-3, 3e-3))
            t_start = float(rng.uniform(0, 2e-3))
            db = float(rng.uniform(-0.05, 0.05))

            noise = NoiseModel(sigma_B_shot=0.0, seed=1)
            sched = Schedule((Wait(t_start), MwPulse(duration=tau, rabi_frequency=omega,
                                                     detuning=detuning, phase=phase)),
                             _meta(bias=0.6))
            ctx = _ctx(sched, model=ISOLATED, noise=noise)
            ctx.delta_B = db
            state = EnsembleState.pure("g30", 1.0, ctx.field_at(0))
            # random initial pair superposition
            psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi0 /= np.linalg.norm(psi0)
            i, j = STATE_INDEX[SublevelRef.from_token("g40")], STATE_INDEX[SublevelRef.from_token("g30")]
            state.rho[:] = 0
            block = np.outer(np.array(psi0), np.array(psi0).conj())
            state.rho[np.ix_([i, j], [i, j])] = block
            for ev in sched.events:
                apply_event(state, ev, ctx)

            dw = 2 * math.pi * 852.0 * ((0.6 + db) ** 2 - 0.36)
            dn = 2 * math.pi * detuning

            def deriv(t, psi):
                coupling = 0.5 * omega * np.exp(-1j * (dn * t + phase))
                h = np.array([[0.0, np.conj(coupling)],
                              [coupling, dw]])
                return -1j * (h @ psi)

            steps = 40000
            h_step = tau / steps
            psi = psi0.astype(complex)
            t = t_start
            # free evolution before the pulse (upper state accrues dw phase)
            psi[1] *= np.exp(-1j * dw * t_start)
            for _ in range(steps):
                k1 = deriv(t, psi)
                k2 = deriv(t + h_step / 2, psi + h_step / 2 * k1)
                k3 = deriv(t + h_step / 2, psi + h_step / 2 * k2)
                k4 = deriv(t + h_step, psi + h_step * k3)
                psi = psi + h_step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h_step
            want = np.outer(psi, psi.conj())
            got = state.rho[np.ix_([i, j], [i, j])]
            assert np.max(np.abs(got - want)) < 1e-7


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

    @pytest.mark.parametrize("omega_tau, delta_tau, a, min_nodes", [
        (0.0, 0.0, 0.1225, 64),            # w = 0 at every node: identity
        (0.0, 2.5, 0.1225, 64),
        (math.pi, 0.0, 0.1225, 64),
        (math.pi / 2, 0.8, 0.3, 64),
        (60 * math.pi, 4.0, 0.5, 256),     # detuned, many Rabi cycles
    ])
    def test_array_average_matches_node_loop(self, omega_tau, delta_tau, a, min_nodes):
        n = 32
        m2_ref, s4_ref = self._node_loop(omega_tau, delta_tau, a, n)
        while n < 16384:
            n *= 2
            m2_next, s4_next = self._node_loop(omega_tau, delta_tau, a, n)
            done = (np.max(np.abs(s4_next - s4_ref)) < 1e-9
                    and np.max(np.abs(m2_next - m2_ref)) < 1e-9)
            m2_ref, s4_ref = m2_next, s4_next
            if done:
                break
        assert n >= min_nodes
        m2, s4 = engine._clock_average_core(omega_tau, delta_tau, a)
        assert np.max(np.abs(m2 - m2_ref)) <= 1e-12
        assert np.max(np.abs(s4 - s4_ref)) <= 1e-12
        assert not m2.flags.writeable and not s4.flags.writeable

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
        idx = [STATE_INDEX[SublevelRef.from_token(t)] for t in ("g40", "m30")]
        assert np.allclose(state.rho[np.ix_(idx, idx)], np.outer(psi, psi.conj()), atol=1e-9)


class TestFreeEvolution:
    def test_zero_time_identity(self):
        sched = Schedule((Wait(0.0),), _meta())
        ctx = _ctx(sched)
        state = EnsembleState.pure("g30", 5000, 0.6)
        before = state.rho.copy()
        evolve_free(state, 0.0, ctx)
        assert np.array_equal(state.rho, before)

    def test_beta_zero_pure_exponential(self):
        loss = LossParameters(tau=16.4, beta_by_state=(("g4m4", 0.0), ("g40", 0.0), ("g30", 0.0)))
        state, _ = _drive([Wait(10.0)], _meta(), loss=loss)
        assert state.atom_number == pytest.approx(5000 * math.exp(-10 / 16.4), rel=1e-12)

    @pytest.mark.parametrize("field,token", [(b, t) for b in TWO_BODY_TABLE
                                             for t in TWO_BODY_TABLE[b]])
    def test_closed_form_matches_rk4_oracle(self, field, token):
        beta = TWO_BODY_TABLE[field][token]
        bv = beta / 1.6e-4
        for t_end in (1.0, 10.0, 60.0):
            got = two_body_decay(5000.0, t_end, 16.4, bv)
            n = 5000.0
            steps = 6000
            h = t_end / steps
            f = lambda n: -n / 16.4 - bv * n * n
            for _ in range(steps):
                k1 = f(n)
                k2 = f(n + 0.5 * h * k1)
                k3 = f(n + 0.5 * h * k2)
                k4 = f(n + h * k3)
                n += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            assert abs(got - n) / n < 1e-6

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
        state = EnsembleState.pure("g40", 5000, ctx.field_at(0))
        i, j = STATE_INDEX[SublevelRef.from_token("g40")], STATE_INDEX[SublevelRef.from_token("m30")]
        state.rho[:] = 0
        state.rho[i, i] = state.rho[j, j] = 0.5
        state.rho[i, j] = state.rho[j, i] = 0.5
        evolve_free(state, 0.05, ctx)
        assert abs(state.rho[i, j]) == pytest.approx(0.5 * math.exp(-0.05 / (2 * 0.112)),
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
        rho = np.diag(pops).astype(complex)
        for dt in dts:
            engine._metastable_decay(rho, dt, model)
        assert np.count_nonzero(rho - np.diag(rho.diagonal())) == 0
        return pops, rho.diagonal().real

    def test_identity_at_zero(self):
        pops, after = self._decayed([0.0])
        assert np.array_equal(after, pops)

    def test_survival_at_one_lifetime(self):
        pops, after = self._decayed([self.TAU_C])
        meta = engine._META
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
            o = np.array([ctx.field_offset(t) for t in ts])
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
        o = np.array([ctx.field_offset(t) for t in ts])
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

    def test_walk_cache_bounded_and_regenerated_exactly(self):
        first = engine._walk_values(12345, 3000).copy()
        for seed in range(engine._WALK_CACHE_SIZE + 5):
            engine._walk_values(seed, 10)
        assert len(engine._WALK_CACHE) <= engine._WALK_CACHE_SIZE
        assert 12345 not in engine._WALK_CACHE
        again = engine._walk_values(12345, 3000)
        assert np.array_equal(again[:3000], first[:3000])


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
                state = EnsembleState.pure("g40", 5000, ctx.field_at(0))
                for ev in events:
                    apply_event(state, ev, ctx)
                coherence = 2 * abs(state.coherence("g40", "g30"))
                assert abs(coherence - 1.0) < 1e-9

    def test_single_and_double_storage_decay_rates(self):
        # contrast ratio over storage time tracks exp(-T/(2 tau_c)) for the
        # single and exp(-T/tau_c) for the bicolor scheme, within 1 %
        def contrast(mode, t_store):
            events = list(build_clock_coherence(mode, t_store).events)
            cut = [i for i, ev in enumerate(events) if isinstance(ev, MwPulse)][-1]
            pre = events[:cut]
            sched = Schedule(tuple(pre), _meta(bias=0.1, initial="g30"))
            ctx = _ctx(sched)
            state = EnsembleState.pure("g30", 5000, ctx.field_at(0))
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
            state = EnsembleState.pure("g30", 5000, ctx.field_at(0))
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
        state = EnsembleState.pure("g4m4", 5000, 0.6)
        coherent_prep_transfer(state, ctx, efficiency=1.0)
        assert state.population("g40") == pytest.approx(1.0)

    def test_coherent_transfer_092(self):
        sched = Schedule((), _meta(initial="g4m4"))
        ctx = _ctx(sched)
        state = EnsembleState.pure("g4m4", 5000, 0.6)
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
            rho = rho0.copy()
            engine._scale_states(rho, indices, 0.6)
            assert np.allclose(rho, np.diag(d) @ rho0 @ np.diag(d), rtol=1e-15, atol=1e-13)


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

    def test_readout_record_assembly(self):
        sched = build_shelving_readout()
        calib = default_calibration(MODEL, camera_floor=0.0)
        _, rec = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0, n_atoms=4000,
                          calibration=calib, initial_state="g30")
        assert rec.complete
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
        state = EnsembleState.pure("g4m4", 5000, ctx.field_at(0))
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
            state = EnsembleState.pure("g30", 5000, ctx.field_at(0))
            state.rho = rho.astype(complex)
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
        bad = Schedule((MwPulse(transition="g44-g33"),), _meta())
        with pytest.raises(Exception):
            run_schedule(bad, MODEL, NOISE_OFF, LOSS_OFF, 1)


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
                ctx = ShotContext(MODEL, noise, LOSS_OFF, sched, shot, 100.0)
                state = EnsembleState.pure("g30", 100.0, ctx.field_at(0))
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

    def test_loss_classes_resolved_once(self):
        loss = LossParameters(beta_by_state=(("g4m4", 0.0), ("g40", 1e-9), ("g30", 2e-9)))
        g40 = STATE_INDEX[SublevelRef.from_token("g40")]
        g30 = STATE_INDEX[SublevelRef.from_token("g30")]
        assert loss.loss_classes == ((g40, 1e-9, True), (g30, 2e-9, False))
        assert loss.loss_classes is loss.loss_classes

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

    def test_from_table_picks_nearest_field(self):
        low = LossParameters.from_table(0.15)
        high = LossParameters.from_table(0.5)
        assert low.beta["g30"] == TWO_BODY_TABLE[0.1]["g30"]
        assert high.beta["g30"] == TWO_BODY_TABLE[0.6]["g30"]
