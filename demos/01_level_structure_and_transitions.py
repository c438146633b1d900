"""Tour of the thulium level model: energies, the RF ladder, and decay paths.

The tracked basis has 28 magnetic sublevels: the two ground hyperfine
manifolds (F=4, F=3) and the two metastable manifolds reached at 1140 nm
(F'=3, F'=2).  This script prints the quantities the pulse protocols rely
on: the quadratic Zeeman shift of the clock line, the adjacent-sublevel RF
resonances walked by the preparation sweep, the microwave spectator
detunings that keep the clock line addressable, and the Clebsch-Gordan
branching of metastable decay.
"""

import numpy as np

from tmqubit import AtomModel, Manifold, SublevelRef
from tmqubit.atom import BASIS, TRANSITIONS, TransitionKind, metastable_branching_table

model = AtomModel()
branching = metastable_branching_table(model.constants.metastable_branch_to_f4)

print("=== hyperfine clock line ===")
for b in (0.0, 0.1, 0.6):
    f = model.transition_frequency("g40-g30", b)
    print(f"B = {b:3.1f} G: f = {f / 1e6:.6f} MHz "
          f"(shift {f - model.transition_frequency('g40-g30', 0):+8.2f} Hz)")

print("\n=== RF repumping ladder at the 0.6 G working field ===")
for mf in range(-4, 0):
    lo = SublevelRef(Manifold.GROUND, 4, mf)
    hi = SublevelRef(Manifold.GROUND, 4, mf + 1)
    f = model.transition_frequency(f"{lo.token}-{hi.token}", 0.6)
    print(f"mF = {mf:+d} -> {mf + 1:+d}: {f / 1e3:7.1f} kHz")
print("the 800 -> 785 kHz sweep crosses these four resonances in order")

print("\n=== microwave transition catalog ===")
for t in TRANSITIONS.values():
    if t.kind is TransitionKind.MW_HYPERFINE:
        detuning = (model.transition_frequency(t, 0.6)
                    - model.transition_frequency("g40-g30", 0.6))
        print(f"{t.name:12s} strength {t.relative_strength:4.2f} "
              f"offset at 0.6 G: {detuning / 1e3:+9.1f} kHz")

print("\n=== metastable decay branching (central sublevels) ===")
for token in ("m30", "m20"):
    src = SublevelRef.from_token(token)
    targets = branching[BASIS.index(src)]
    parts = ", ".join(f"{BASIS[dst].token}: {w:.3f}" for dst, w in targets)
    print(f"{token} -> {parts}")

print("\ncolumn sums:", [round(sum(w for _, w in t), 12)
                         for t in branching.values()][:4], "...")
