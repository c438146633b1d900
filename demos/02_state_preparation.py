"""State preparation walk-through: sweep, shelve, clean, rotate.

Starting from the stretched post-cooling sublevel (4,-4), the sequence is:
an RF sweep that walks about 40 % of the atoms to (4,0), a microwave pi
pulse shelving the central sublevel in (3,0), a 530 nm pulse removing the
F=4 leftovers, and an optional rotation setting the working superposition.
The script prints the population bookkeeping after each step and the final
polarization-impurity budget, then compares with the coherent-ladder
alternative.
"""

import math

from tmqubit import AtomModel, EnsembleState, LossParameters, Manifold, NoiseModel
from tmqubit.engine import ShotContext, apply_event, coherent_prep_transfer
from tmqubit.schedule import Schedule, ScheduleMetadata, build_state_prep

model = AtomModel()
noise = NoiseModel.off()
loss = LossParameters.off()

schedule = build_state_prep(theta=0.0)
ctx = ShotContext(model, noise, loss, schedule, 0)
state = EnsembleState.pure("g4m4", 5000.0)

print(f"{'step':28s} {'(4,0)':>8s} {'(3,0)':>8s} {'F=4 tot':>8s} {'trapped':>8s}")


def show(label):
    print(f"{label:28s} {state.population('g40'):8.4f} "
          f"{state.population('g30'):8.4f} "
          f"{state.manifold_population(Manifold.GROUND, 4):8.4f} "
          f"{state.trace:8.4f}")


show("after cooling (4,-4)")
for ev, label in zip(schedule.events,
                     ("RF sweep 800->785 kHz", "MW pi on (4,0)->(3,0)",
                      "530 nm cleaning 3 ms")):
    apply_event(state, ev, ctx)
    show(label)

impurity = 1.0 - state.population("g30") / state.trace
print(f"\npolarization impurity of the prepared (3,0) state: {impurity:.2e}")
print("budget: cleaning-pulse photon scattering dominates; microwave")
print("leakage to spectator lines contributes at the 1e-5 level")

print("\n=== coherent-ladder alternative ===")
for eff in (1.0, 0.98, 0.95):
    alt = EnsembleState.pure("g4m4", 5000.0)
    coherent_prep_transfer(alt, ctx, efficiency=eff)
    print(f"per-pulse efficiency {eff:.2f}: (4,0) population {alt.population('g40'):.4f}"
          + ("  (= eff^4)" if eff < 1 else ""))
print("\nfour sequential pi pulses reach the center without discarding the")
print("other sublevels, trading sweep robustness for microwave power")
