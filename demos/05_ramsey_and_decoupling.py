"""Hyperfine-qubit coherence: Ramsey fringes, Gaussian decay, decoupling.

Quasi-static field noise dephases the clock line through the quadratic
Zeeman shift; per-shot field scatter turns Ramsey contrast into a Gaussian
decay with T2* inversely proportional to the bias field.  Refocusing pi
pulses cancel the static part entirely and progressively reject slow drift
as the pulse number grows.
"""

import math

import numpy as np

from tmqubit import (
    AtomModel,
    Dataset,
    EnsembleState,
    LossParameters,
    NoiseModel,
    SinusoidDrift,
    least_squares,
    model_gaussian_decay,
    model_ramsey_fringe,
)
from tmqubit.engine import ShotContext, apply_event, run_shot
from tmqubit.schedule import BuilderConfig, Schedule, ScheduleMetadata, build_cp, build_ramsey

model = AtomModel()
loss = LossParameters.off()

print("=== Ramsey fringe, T = 80 ms, noise off ===")
cfg = BuilderConfig(bias_field=0.1, mw_pi_time=1e-4)
dnus = np.linspace(-12.5, 12.5, 30)
etas = []
for dnu in dnus:
    state, _ = run_shot(build_ramsey(0.08, float(dnu), cfg), model,
                        NoiseModel.off(), loss, 0)
    n4, n3 = state.population("g40"), state.population("g30")
    etas.append(n4 / (n4 + n3))
fit = least_squares(model_ramsey_fringe, Dataset(dnus, np.array(etas)),
                    [0.5, 1.0, 0.16, 0.0])
print(f"contrast {abs(fit.params['c']):.4f}, fringe period "
      f"{2 / fit.params['t']:.3f} Hz (1/T = {1 / 0.08:.3f} Hz)")


def contrast(events, bias, noise, shots):
    sched = Schedule(tuple(events), ScheduleMetadata(bias_field=bias,
                                                     initial_state="g30"))
    total = 0.0j
    for shot in range(shots):
        ctx = ShotContext(model, noise, loss, sched, shot)
        state = EnsembleState.pure("g30", 100.0)
        for ev in events:
            apply_event(state, ev, ctx)
        total += state.coherence("g40", "g30")
    return 2 * abs(total) / shots


print("\n=== free-induction decay under quasi-static noise ===")
sigma = 1.0 / (2 * math.sqrt(2) * math.pi * 852.0 * 0.1 * 22.0)
print(f"per-shot field scatter sigma_B = {sigma * 1e6:.0f} uG "
      "(tuned for T2* = 22 s at 0.1 G)")
from tmqubit.schedule import MwPulse, Wait

for bias in (0.1, 0.2, 0.6):
    noise = NoiseModel(sigma_B_shot=sigma, seed=8)
    ts = np.linspace(2.0, 30.0, 7) * (0.1 / bias)
    cs = [contrast([MwPulse(duration=1e-3), Wait(float(t))], bias, noise, 200)
          for t in ts]
    fit = least_squares(model_gaussian_decay, Dataset(ts, np.array(cs)),
                        [1.0, 22.0 * 0.1 / bias])
    print(f"B = {bias:3.1f} G: fitted T2* = {fit.params['t2']:6.2f} s "
          f"(1/B scaling predicts {22.0 * 0.1 / bias:6.2f} s)")

print("\n=== dynamical decoupling against slow drift ===")
drift_noise = NoiseModel(sigma_B_shot=0.0,
                         drift=SinusoidDrift(amplitude=4e-4, period=37.0), seed=9)
for n in (0, 1, 2, 4, 8):
    events = list(build_cp(n, 8.0, 0.0, BuilderConfig(bias_field=0.1)).events)[:-1]
    c = contrast(events, 0.1, drift_noise, 40)
    bar = "#" * int(round(40 * c))
    print(f"n = {n}: contrast {c:5.3f} {bar}")
print("\nmore refocusing pulses widen the rejected noise band: the echo")
print("removes the static offset exactly, higher n suppresses the drift")
