"""Acceptance suite: one test per headline criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -s`` to see them).
"""

import math
import time
from pathlib import Path

import numpy as np

from tmqubit.atom import AtomModel
from tmqubit.cli import main
from tmqubit.engine import (
    EnsembleState,
    LossParameters,
    NoiseModel,
    ShotContext,
    SinusoidDrift,
    TWO_BODY_TABLE,
    apply_event,
    coherent_prep_transfer,
    default_calibration,
    run_shot,
)
from tmqubit.fitting import (
    Dataset,
    least_squares,
    model_gaussian_decay,
    model_rabi_reflection,
    model_ramsey_fringe,
    model_two_body_loss,
)
from tmqubit.readout import calibrate, forward_matrix, simulate_readout
from tmqubit.schedule import (
    BuilderConfig,
    ClockPulse,
    MwPulse,
    Schedule,
    ScheduleMetadata,
    Wait,
    build_cp,
    build_ramsey,
    build_state_prep,
)

MODEL = AtomModel()
NOISE_OFF = NoiseModel.off()
LOSS_OFF = LossParameters.off()
VOLUME_CM3 = 0.16e-3


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {detail}")
    assert ok, detail


def _rk4_two_body(n0, t_end, tau, bv, steps=6000):
    n = n0
    h = t_end / steps

    def f(n):
        return -n / tau - bv * n * n

    for _ in range(steps):
        k1 = f(n)
        k2 = f(n + 0.5 * h * k1)
        k3 = f(n + 0.5 * h * k2)
        k4 = f(n + h * k3)
        n += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return n


def _coherence_contrast(events, bias, noise, shots, n_atoms=100.0,
                        model=MODEL, loss=LOSS_OFF, initial="g30"):
    """Ensemble-averaged qubit coherence 2|<rho_01>| after the events."""
    total = 0.0j
    sched = Schedule(tuple(events), ScheduleMetadata(bias_field=bias,
                                                     initial_state=initial))
    for shot in range(shots):
        ctx = ShotContext(model, noise, loss, sched, shot)
        state = EnsembleState.pure(initial, n_atoms)
        for ev in events:
            apply_event(state, ev, ctx)
        total += state.coherence("g40", "g30")
    return 2 * abs(total) / shots


def test_01_two_body_closed_form_vs_ode_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for field, betas in TWO_BODY_TABLE.items():
        for token, beta in betas.items():
            bv = beta / VOLUME_CM3
            for t_end in (0.5, 5.0, 20.0, 60.0):
                closed = float(model_two_body_loss(t_end, 5000.0, 16.4, bv))
                oracle = _rk4_two_body(5000.0, t_end, 16.4, bv)
                worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-6 and elapsed < 1.0,
           f"closed form vs RK4: worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_02_two_body_fit_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    beta = TWO_BODY_TABLE[0.1]["g30"]
    bv_true = beta / VOLUME_CM3
    t = np.linspace(0.5, 20.0, 15)
    truth = model_two_body_loss(t, 5000.0, 16.4, bv_true)

    def fixed_tau(x, n0, bv):
        return model_two_body_loss(x, n0, 16.4, bv)

    hits = 0
    for _ in range(100):
        y = truth * (1.0 + 0.05 * rng.standard_normal(15))
        fit = least_squares(fixed_tau, Dataset(t, y, 0.05 * truth),
                            [4500.0, 0.5 * bv_true], ("n0", "bv"))
        if abs(fit.params["bv"] - bv_true) <= 2 * fit.error("bv"):
            hits += 1
    elapsed = time.perf_counter() - t0
    report(2, hits >= 95 and elapsed < 10.0,
           f"beta within 2 sigma in {hits}/100 seeded trials, {elapsed:.2f} s")


def test_03_ramsey_fringe_contrast_and_period():
    t0 = time.perf_counter()
    t_free = 0.08
    # strong pulses keep the pulse-duration correction to the fringe period
    # below the tolerance while off-resonant leakage stays within the
    # contrast budget
    cfg = BuilderConfig(bias_field=0.1, mw_pi_time=1e-4)
    dnus = np.linspace(-12.5, 12.5, 30)
    etas = []
    for dnu in dnus:
        sched = build_ramsey(t_free, float(dnu), cfg)
        state, _ = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0)
        n4, n3 = state.population("g40"), state.population("g30")
        etas.append(n4 / (n4 + n3))
    fit = least_squares(model_ramsey_fringe, Dataset(dnus, np.array(etas)),
                        [0.5, 1.0, 2 * t_free, 0.0])
    period = 2.0 / fit.params["t"]
    contrast = abs(fit.params["c"])
    period_err = abs(period - 1.0 / t_free) * t_free
    elapsed = time.perf_counter() - t0
    report(3, contrast >= 0.99 and period_err <= 1e-3 and elapsed < 5.0,
           f"C = {contrast:.5f} (>= 0.99), period off by {period_err * 100:.3f}% "
           f"(<= 0.1%), {elapsed:.2f} s")


def test_04_gaussian_decay_and_scaling_law():
    # sigma_B tuned analytically so the 0.1 G free-induction decay sits at
    # 22 s; the quasi-static model then predicts T2* proportional to 1/B
    target_t2 = 22.0
    gamma = MODEL.constants.gamma_qz
    # one fixed field-noise level, tuned at the 0.1 G working point
    sigma = 1.0 / (2 * math.sqrt(2) * math.pi * gamma * 0.1 * target_t2)

    def fitted_t2(bias, seed):
        noise = NoiseModel(sigma_B_shot=sigma, seed=seed)
        ts = np.linspace(2.0, 30.0, 8) * (0.1 / bias)
        contrasts = []
        for t_free in ts:
            events = [MwPulse(duration=1e-3), Wait(float(t_free))]
            contrasts.append(_coherence_contrast(events, bias, noise, shots=250))
        fit = least_squares(model_gaussian_decay,
                            Dataset(ts, np.array(contrasts)),
                            [1.0, target_t2 * 0.1 / bias])
        return fit.params["t2"]

    t2_01 = fitted_t2(0.1, seed=5)
    ok_tuned = abs(t2_01 - target_t2) <= 0.1 * target_t2
    t2_02 = fitted_t2(0.2, seed=6)
    t2_04 = fitted_t2(0.4, seed=7)
    ratio_2 = t2_02 / t2_01
    ratio_4 = t2_04 / t2_01
    ok_scaling = abs(ratio_2 - 0.5) <= 0.1 * 0.5 and abs(ratio_4 - 0.25) <= 0.1 * 0.25
    print("ACCEPTANCE  4: note - measured decay at 0.6 G in the lab (9 s) "
          "exceeds the pure quadratic-Zeeman prediction "
          f"{target_t2 * 0.1 / 0.6:.1f} s; only the model scaling law is asserted")
    report(4, ok_tuned and ok_scaling,
           f"T2*(0.1 G) = {t2_01:.1f} s (22 +- 10%), "
           f"T2*(2B)/T2*(B) = {ratio_2:.3f}, T2*(4B)/T2*(B) = {ratio_4:.3f}")


def test_05_echo_cancellation_and_drift_monotonicity():
    t0 = time.perf_counter()
    # static offsets: the echo restores the coherence to 1 within 1e-6
    # (pulse strength chosen to balance rotation-axis tilt against
    # off-resonant leakage, both of which are physical)
    cfg = BuilderConfig(bias_field=0.6, mw_pi_time=1e-3)
    worst = 0.0
    for db in (5e-5, 1.5e-4, 3e-4):
        events = list(build_cp(1, 8.0, 0.0, cfg).events)[:-1]
        sched = Schedule(tuple(events), ScheduleMetadata(bias_field=0.6,
                                                         initial_state="g40"))
        ctx = ShotContext(MODEL, NOISE_OFF, LOSS_OFF, sched, 0)
        ctx.delta_B = db
        state = EnsembleState.pure("g40", 100.0)
        for ev in events:
            apply_event(state, ev, ctx)
        worst = max(worst, abs(2 * abs(state.coherence("g40", "g30")) - 1.0))
    ok_static = worst <= 1e-6

    # fixed slow sinusoidal drift: contrast nondecreasing with pulse count
    noise = NoiseModel(sigma_B_shot=0.0,
                       drift=SinusoidDrift(amplitude=4e-4, period=37.0), seed=9)
    cfg01 = BuilderConfig(bias_field=0.1)
    contrasts = []
    for n in (0, 1, 2, 4, 8):
        events = list(build_cp(n, 8.0, 0.0, cfg01).events)[:-1]
        contrasts.append(_coherence_contrast(events, 0.1, noise, shots=40,
                                             initial="g40"))
    monotone = all(b >= a - 1e-6 for a, b in zip(contrasts, contrasts[1:]))
    elapsed = time.perf_counter() - t0
    report(5, ok_static and monotone and elapsed < 30.0,
           f"echo defect {worst:.2e} (<= 1e-6); drift contrast "
           f"{[round(c, 4) for c in contrasts]} nondecreasing, {elapsed:.1f} s")


def test_06_clock_coherence_limits():
    tau_c = MODEL.constants.tau_c
    pi2 = MwPulse(duration=1e-3)
    clock4 = ClockPulse(duration=1e-3, transition="g40-m30")
    clock3 = ClockPulse(duration=1e-3, transition="g30-m20")

    def contrast(mode, t_store):
        if mode == "single":
            events = [pi2, clock4, Wait(t_store), clock4]
        else:
            events = [pi2, clock4, clock3, Wait(t_store), clock3, clock4]
        return _coherence_contrast(events, 0.1, NOISE_OFF, shots=1)

    ok = True
    details = []
    for mode, rate in (("single", 1 / (2 * tau_c)), ("double", 1 / tau_c)):
        c0 = contrast(mode, 0.0)
        worst = 0.0
        for t_store in (0.05, 0.1, 0.15, 0.2):
            ratio = contrast(mode, t_store) / c0
            worst = max(worst, abs(ratio / math.exp(-rate * t_store) - 1.0))
        details.append(f"{mode}: max ratio dev {worst * 100:.2f}%")
        ok = ok and worst <= 0.01

    # T=0 single-transition phase shift of pi
    def coherence_phase(events):
        sched = Schedule(tuple(events), ScheduleMetadata(bias_field=0.1,
                                                         initial_state="g30"))
        ctx = ShotContext(MODEL, NOISE_OFF, LOSS_OFF, sched, 0)
        state = EnsembleState.pure("g30", 100.0)
        for ev in events:
            apply_event(state, ev, ctx)
        return state.coherence("g40", "g30")

    ref = coherence_phase([pi2, Wait(2e-3)])
    stored = coherence_phase([pi2, clock4, clock4])
    dphi = abs(abs(np.angle(stored / ref)) - math.pi)
    ok = ok and dphi <= 1e-6
    report(6, ok, "; ".join(details) + f"; T=0 phase-shift error {dphi:.2e} rad")


def test_07_rabi_reflection_recovery_and_quadrature():
    # quadrature versus a 1e5-node Riemann oracle
    omega0 = math.pi / 1e-3
    a_true = math.sqrt(0.015)
    worst = 0.0
    for t in (0.5e-3, 1e-3, 3.3e-3, 7e-3):
        u = 2 * math.pi * (np.arange(100_000) + 0.5) / 100_000
        oracle = (np.mean(0.5 * (1 - np.cos(omega0 * t * np.sqrt(1 + a_true**2 + a_true * np.cos(u)))))
                  * math.exp(-t / (2 * 0.112)))
        worst = max(worst, abs(model_rabi_reflection(t, omega0, a_true, 0.112) - oracle))
    ok_quad = worst <= 1e-6

    rng = np.random.default_rng(77)
    t = np.linspace(0.05e-3, 8e-3, 60)
    truth = model_rabi_reflection(t, omega0, a_true, 0.112)
    y = truth + rng.normal(0, 0.01, len(t))

    def fixed_tau(x, om, a):
        return model_rabi_reflection(x, om, a, 0.112)

    fit = least_squares(fixed_tau, Dataset(t, y, np.full(len(t), 0.01)),
                        [omega0 * 1.03, 0.08], ("omega0", "a"))
    a2 = fit.params["a"] ** 2
    ok_fit = abs(a2 - 0.015) <= 0.005
    report(7, ok_quad and ok_fit,
           f"quadrature vs oracle {worst:.2e} (<= 1e-6); "
           f"recovered a^2 = {a2:.4f} (0.015 +- 0.005)")


def test_08_readout_calibration_loop(tmp_path):
    calib = default_calibration(MODEL)
    rng = np.random.default_rng(88)
    # noise off: 1 % round trip
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(50.0, 5000.0, 4)
        rec = calibrate(simulate_readout(p, calib), calib)
        back = np.array([rec["N4"], rec["N4_mf0"], rec["N3"], rec["N3_mf0"]])
        worst = max(worst, float(np.max(np.abs(back - p) / np.maximum(p, 1.0))))
    ok_clean = worst <= 0.01

    # noise on: within 3 sigma of propagated camera noise
    a_inv = np.linalg.inv(forward_matrix(calib))
    sigma = calib.camera_floor * np.sqrt(np.diag(a_inv @ a_inv.T))
    misses = 0
    for _ in range(100):
        p = rng.uniform(50.0, 5000.0, 4)
        rec = calibrate(simulate_readout(p, calib, rng), calib)
        back = np.array([rec["N4"], rec["N4_mf0"], rec["N3"], rec["N3_mf0"]])
        misses += int(np.any(np.abs(back - p) > 3 * sigma))
    ok_noise = misses <= 2   # 400 gaussian components at 3 sigma

    # closed loop through the CLI: the 0.4 ms probe reproduces the pair
    ini = tmp_path / "probe.ini"
    ini.write_text("""
[run]
seed = 5
shots = 25
atoms = 2000
[noise]
sigma_b_shot = 0
[loss]
tau = inf
beta_g4m4 = 0
beta_g40 = 0
beta_g30 = 0
[schedule]
name = probe_scan
bias_field = 0.6
[scan]
param = t
start = 0.05e-3
stop = 1.2e-3
points = 12
""")
    scan_csv = str(tmp_path / "probe.csv")
    report_path = str(tmp_path / "report.txt")
    assert main(["simulate", "--config", str(ini), "--out", scan_csv]) == 0
    assert main(["calibrate-readout", "--data", scan_csv,
                 "--out", str(tmp_path / "calib.txt"),
                 "--report", report_path]) == 0
    values = {}
    for line in Path(report_path).read_text().splitlines(keepends=True):
        if " = " in line and not line.startswith("#"):
            key, _, rest = line.partition(" = ")
            parts = rest.split(" +- ")
            values[key.strip()] = (float(parts[0]), float(parts[1]))
    eps, eps_err = values["eps_43"]
    dep, dep_err = values["dep_3"]
    ok_pair = (abs(eps - 0.015) <= max(3 * eps_err, 1.5e-3)
               and abs(dep - 0.085) <= max(3 * dep_err, 3e-3))
    report(8, ok_clean and ok_noise and ok_pair,
           f"round trip worst {worst * 100:.3f}% (<= 1%); {misses}/100 beyond 3 sigma; "
           f"eps = {eps:.4f}, dep = {dep:.4f}")


def test_09_state_prep_error_budget():
    events = list(build_state_prep(theta=0.0).events)
    sched = Schedule(tuple(events), ScheduleMetadata(bias_field=0.6,
                                                     initial_state="g4m4"))
    state, _ = run_shot(sched, MODEL, NOISE_OFF, LOSS_OFF, 0)
    impurity = 1.0 - state.population("g30") / state.trace
    ok_impurity = impurity <= 5e-4

    ctx = ShotContext(MODEL, NOISE_OFF, LOSS_OFF, sched, 0)
    coherent = EnsembleState.pure("g4m4", 100.0)
    coherent_prep_transfer(coherent, ctx, efficiency=0.98)
    fidelity = coherent.population("g40")
    ok_fidelity = abs(fidelity - 0.922) <= 1e-3
    report(9, ok_impurity and ok_fidelity,
           f"prep impurity {impurity:.2e} (<= 5e-4); "
           f"coherent-prep fidelity {fidelity:.4f} (0.922 +- 0.001)")


def test_10_rabi_visibility_over_250_periods():
    t0 = time.perf_counter()
    loss = LossParameters.from_table(0.6, volume_cm3=VOLUME_CM3)
    period = 2 * 2e-3
    etas = []
    for t in 250 * period + np.linspace(0, 2 * period, 16):
        sched = Schedule((MwPulse(duration=float(t)),),
                         ScheduleMetadata(bias_field=0.6, initial_state="g30"))
        state, _ = run_shot(sched, MODEL, NOISE_OFF, loss, 0, n_atoms=5000.0)
        n4, n3 = state.population("g40"), state.population("g30")
        etas.append(n3 / (n4 + n3))
    visibility = max(etas) - min(etas)
    elapsed = time.perf_counter() - t0
    report(10, visibility >= 0.7 and elapsed < 60.0,
           f"visibility after 250 periods = {visibility:.3f} (>= 0.7), "
           f"{elapsed:.1f} s")


def test_11_off_resonant_and_scattering_formulas():
    omega = 2 * math.pi * 250.0
    p_mw = omega**2 / (omega**2 + (2 * math.pi * 60e3)**2)
    ok_mw = 1.5e-5 <= p_mw <= 2.5e-5

    gamma = MODEL.constants.gamma_530
    s, t_c, dnu = 1.0, 3e-3, 614e6
    p_scatter = gamma * s * t_c / (2 * (1 + s + (4 * math.pi * dnu / gamma)**2))
    ok_scatter = 2.5e-4 <= p_scatter <= 3.5e-4
    report(11, ok_mw and ok_scatter,
           f"p_mw = {p_mw:.2e} in [1.5e-5, 2.5e-5]; "
           f"p_530 = {p_scatter:.2e} in [2.5e-4, 3.5e-4]")
