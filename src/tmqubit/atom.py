"""Thulium level structure, transition catalog and Zeeman energy model.

The tracked basis covers the two hyperfine manifolds of the electronic
ground state (F=4 and F=3, split by 1497 MHz) and the two hyperfine
manifolds of the metastable level reached by the 1140 nm transition
(F'=3 and F'=2), for a total of 9 + 7 + 7 + 5 = 28 magnetic sublevels.

Units: frequencies in Hz, angular rates in rad/s, times in s.  Magnetic
fields are expressed in gauss throughout the public API because every
Zeeman coefficient used in the lab is quoted per gauss.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, asdict
from functools import lru_cache

__all__ = [
    "Manifold",
    "SublevelRef",
    "TransitionKind",
    "TransitionSpec",
    "PhysicsConstants",
    "AtomModel",
    "BASIS",
    "STATE_INDEX",
    "state_index",
    "DIM",
    "wigner_3j",
    "clebsch_gordan",
    "metastable_branching_table",
]


class Manifold(enum.Enum):
    GROUND = "g"
    METASTABLE_1140 = "m"


_ALLOWED_F = {Manifold.GROUND: (4, 3), Manifold.METASTABLE_1140: (3, 2)}


@dataclass(frozen=True, order=True)
class SublevelRef:
    """One magnetic sublevel (manifold, F, mF) of the tracked basis."""

    manifold: Manifold
    F: int
    mF: int

    def __post_init__(self):
        if self.F not in _ALLOWED_F[self.manifold]:
            raise ValueError(f"F={self.F} not tracked in manifold {self.manifold.name}")
        if abs(self.mF) > self.F:
            raise ValueError(f"|mF|={abs(self.mF)} exceeds F={self.F}")

    @property
    def token(self) -> str:
        """Compact name, e.g. 'g40' for ground F=4 mF=0, 'm3m2' for F'=3 mF=-2."""
        sign = "m" if self.mF < 0 else ""
        return f"{self.manifold.value}{self.F}{sign}{abs(self.mF)}"

    @classmethod
    def from_token(cls, token: str) -> "SublevelRef":
        try:
            manifold = Manifold(token[0])
            F = int(token[1])
            rest = token[2:]
            mF = -int(rest[1:]) if rest.startswith("m") else int(rest)
        except (ValueError, IndexError, KeyError) as exc:
            raise ValueError(f"not a sublevel token: {token!r}") from exc
        return cls(manifold, F, mF)

    def __repr__(self):
        return f"SublevelRef({self.token})"


def _build_basis() -> tuple[SublevelRef, ...]:
    states = []
    for manifold, fs in ((Manifold.GROUND, (4, 3)), (Manifold.METASTABLE_1140, (3, 2))):
        for F in fs:
            states.extend(SublevelRef(manifold, F, mF) for mF in range(-F, F + 1))
    return tuple(states)


BASIS: tuple[SublevelRef, ...] = _build_basis()
STATE_INDEX: dict[SublevelRef, int] = {s: i for i, s in enumerate(BASIS)}
DIM = len(BASIS)


@lru_cache(maxsize=256)
def state_index(token: str) -> int:
    """Basis index of the sublevel named by ``token``, in any spelling
    ``SublevelRef.from_token`` accepts; raises its ValueError otherwise."""
    return STATE_INDEX[SublevelRef.from_token(token)]
assert DIM == 28


class TransitionKind(enum.Enum):
    MW_HYPERFINE = "mw"
    RF_INTRA_MANIFOLD = "rf"
    OPTICAL_1140 = "clock"


@dataclass(frozen=True)
class TransitionSpec:
    """A driven pair of sublevels with its relative Rabi-frequency scale."""

    lower: SublevelRef
    upper: SublevelRef
    kind: TransitionKind
    relative_strength: float = 1.0

    @property
    def name(self) -> str:
        return f"{self.lower.token}-{self.upper.token}"


# Coefficients of the ground F=4 intra-manifold shift
#   shift(mF, B) = mF*k4*B + mF^2*q4*B^2
# are pinned by the RF-sweep ladder: at the 0.6 G working field the four
# adjacent-mF transitions walked by the sweep (mF=-4 -> 0) must span
# 800 kHz down to 785 kHz.
_RF_LADDER_HIGH = 800e3   # Hz, first sweep resonance (-4 -> -3) at 0.6 G
_RF_LADDER_LOW = 785e3    # Hz, last sweep resonance (-1 -> 0) at 0.6 G
_RF_LADDER_FIELD = 0.6    # G
_Q4_DEFAULT = -(_RF_LADDER_HIGH - _RF_LADDER_LOW) / (6 * _RF_LADDER_FIELD**2)
_K4_DEFAULT = (_RF_LADDER_LOW + _Q4_DEFAULT * _RF_LADDER_FIELD**2) / _RF_LADDER_FIELD


@dataclass(frozen=True)
class PhysicsConstants:
    """Physical constants of the model; defaults match the apparatus.

    The per-manifold linear Zeeman coefficients are placeholders
    constrained by two hard requirements (the RF sweep ladder span and
    >= 60 kHz spectator isolation of the hyperfine clock line at 0.6 G);
    only detunings built from them enter the dynamics, never absolute
    g-factors.  Trap loss (lifetime, volume) is ``engine.LossParameters``
    and the 530 nm detuning is a property of each cleaning pulse.
    """

    hyperfine_splitting_ground: float = 1.497e9   # Hz
    gamma_qz: float = 852.0                       # Hz/G^2, mF=0 -> mF=0 quadratic shift
    tau_c: float = 0.112                          # s, metastable lifetime
    gamma_530: float = 2 * math.pi * 350e3        # rad/s
    linear_zeeman_ground_f4: float = _K4_DEFAULT  # Hz/G per unit mF
    quad_zeeman_ground_f4: float = _Q4_DEFAULT    # Hz/G^2 per unit mF^2
    linear_zeeman_ground_f3: float = _K4_DEFAULT * 9.0 / 7.0  # Lande-ratio placeholder
    quad_zeeman_ground_f3: float = 0.0
    linear_zeeman_meta_f3: float = 1.0e6          # Hz/G, placeholder
    linear_zeeman_meta_f2: float = 1.4e6          # Hz/G, placeholder
    metastable_branch_to_f4: float = 0.5          # manifold split of F'=3 decay
    tau_clean: float = 119e-6                     # s, 530 nm removal time constant
    clock_reflection_intensity: float = 0.015     # a^2 back-reflection of 1140 nm
    rf_step_efficiency: float = 0.40 ** 0.25      # per-step sweep transfer

    def __post_init__(self):
        for name in ("hyperfine_splitting_ground", "gamma_qz", "tau_c", "gamma_530",
                     "tau_clean"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 <= self.metastable_branch_to_f4 <= 1.0:
            raise ValueError("metastable_branch_to_f4 must lie in [0, 1]")
        if not 0.0 <= self.clock_reflection_intensity < 1.0:
            raise ValueError("clock_reflection_intensity must lie in [0, 1)")
        if not 0.0 <= self.rf_step_efficiency <= 1.0:
            raise ValueError("rf_step_efficiency must lie in [0, 1]")

    def replace(self, **overrides) -> "PhysicsConstants":
        d = asdict(self)
        d.update(overrides)
        return PhysicsConstants(**d)


def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3-j symbol for integer angular momenta (Racah formula)."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    prefactor = math.sqrt(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3) / f(j1 + j2 + j3 + 1)
        * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        denom = (
            f(t) * f(j3 - j2 + m1 + t) * f(j3 - j1 - m2 + t)
            * f(j1 + j2 - j3 - t) * f(j1 - m1 - t) * f(j2 + m2 - t)
        )
        total += (-1) ** t / denom
    return (-1) ** (j1 - j2 - m3) * prefactor * total


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """<j1 m1 j2 m2 | J M> for integer angular momenta."""
    if m1 + m2 != M:
        return 0.0
    return (-1) ** (j1 - j2 + M) * math.sqrt(2 * J + 1) * wigner_3j(j1, j2, J, m1, m2, -M)


@lru_cache(maxsize=16)
def metastable_branching_table(branch_to_f4: float) -> dict[int, tuple[tuple[int, float], ...]]:
    """Metastable decay targets: index -> ((ground index, weight), ...).

    Within each allowed final manifold the distribution over mF follows
    squared Clebsch-Gordan weights for a dipole photon (q = mF' - mF); the
    split between the two ground manifolds is an exposed parameter because
    only the F'=3 level has two allowed destinations.
    """
    table: dict[int, tuple[tuple[int, float], ...]] = {}
    for src in BASIS:
        if src.manifold is not Manifold.METASTABLE_1140:
            continue
        weights: list[tuple[int, float]] = []
        allowed = [F for F in (4, 3) if abs(F - src.F) <= 1]
        for F in allowed:
            if len(allowed) == 2:
                manifold_weight = branch_to_f4 if F == 4 else 1.0 - branch_to_f4
            else:
                manifold_weight = 1.0
            for q in (-1, 0, 1):
                mF = src.mF - q
                if abs(mF) > F:
                    continue
                cg = clebsch_gordan(F, mF, 1, q, src.F, src.mF)
                w = manifold_weight * cg * cg
                if w > 0.0:
                    dst = SublevelRef(Manifold.GROUND, F, mF)
                    weights.append((STATE_INDEX[dst], w))
        table[STATE_INDEX[src]] = tuple(weights)
    return table


def _shift(linear, quadratic, B):
    """Zeeman shift linear*B + quadratic*B^2 of ``AtomModel._shift_terms``."""
    return linear * B + quadratic * B * B


class AtomModel:
    """Level energies, transition catalog and decay branching for one atom.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, constants: PhysicsConstants | None = None):
        self.constants = constants or PhysicsConstants()
        self._catalog = self._build_catalog()
        self._by_name = {t.name: t for t in self._catalog}
        self._branching = self._build_branching()

    # ---------------------------------------------------------------- energies

    def qubit_transition_frequency(self, B: float) -> float:
        """Frequency of the (g,4,0) -> (g,3,0) hyperfine line at field B (G)."""
        if B < 0:
            raise ValueError("magnetic field must be >= 0")
        c = self.constants
        return c.hyperfine_splitting_ground + c.gamma_qz * B * B

    def _manifold_coeffs(self, s: SublevelRef) -> tuple[float, float]:
        """(k, q): per-mF linear and per-mF^2 quadratic coefficient, Hz/G(^2)."""
        c = self.constants
        if s.manifold is Manifold.GROUND:
            if s.F == 4:
                return c.linear_zeeman_ground_f4, c.quad_zeeman_ground_f4
            return c.linear_zeeman_ground_f3, c.quad_zeeman_ground_f3
        if s.F == 3:
            return c.linear_zeeman_meta_f3, 0.0
        return c.linear_zeeman_meta_f2, 0.0

    def _shift_terms(self, s: SublevelRef) -> tuple[float, float]:
        """(mF k, mF^2 q): the shift of s is mF k B + mF^2 q B^2."""
        if s not in STATE_INDEX:
            raise ValueError(f"untracked sublevel {s!r}")
        k, q = self._manifold_coeffs(s)
        return s.mF * k, s.mF * s.mF * q

    def sublevel_shift(self, s: SublevelRef, B: float) -> float:
        """Intra-manifold Zeeman shift of sublevel s at field B, in Hz."""
        return _shift(*self._shift_terms(s), B)

    @lru_cache(maxsize=64)
    def _line_terms(self, names: tuple[str, ...]) -> tuple:
        """The kind of the transitions ``names`` and the ``_shift_terms`` of
        their lower and upper states, as read-only (2, lines, 1) arrays."""
        # imported on first use: importing numpy ahead of the rest of the
        # package raised a process's peak RSS by ~0.8 MB
        import numpy as np

        lines = [self.find_transition(name) for name in names]
        lower = np.array([self._shift_terms(t.lower) for t in lines]).T[..., None]
        upper = np.array([self._shift_terms(t.upper) for t in lines]).T[..., None]
        lower.setflags(write=False)
        upper.setflags(write=False)
        return lines[0].kind, lower, upper

    def state_zeeman_coeffs(self, s: SublevelRef) -> tuple[float, float]:
        """(linear, quadratic) field coefficients of the state's energy offset.

        energy_offset(B) = linear*B + quadratic*B^2 in Hz; the quadratic term
        for the ground F=3 manifold carries the hyperfine clock coefficient so
        that the (4,0)-(3,0) splitting shifts by gamma_qz*B^2.
        """
        k, q = self._manifold_coeffs(s)
        quad = s.mF * s.mF * q
        if s.manifold is Manifold.GROUND and s.F == 3:
            quad += self.constants.gamma_qz
        return s.mF * k, quad

    def transition_frequency(self, t: TransitionSpec | str | tuple[str, ...],
                             B: float) -> float:
        """Transition frequency at field B.

        MW transitions: absolute frequency including the hyperfine splitting.
        RF transitions: adjacent-sublevel splitting (positive).
        Optical transitions: Zeeman offset relative to the zero-field line
        (the absolute optical frequency never enters the model).
        A tuple of names of transitions of one kind, with B a number or a
        1-D array, gives one row of frequencies per transition.
        """
        if isinstance(t, str):
            t = self.find_transition(t)
        if isinstance(t, tuple):
            kind, lower, upper = self._line_terms(t)
        else:
            kind, lower, upper = t.kind, self._shift_terms(t.lower), self._shift_terms(t.upper)
        lo, hi = _shift(*lower, B), _shift(*upper, B)
        if kind is TransitionKind.MW_HYPERFINE:
            c = self.constants
            return c.hyperfine_splitting_ground + c.gamma_qz * B * B + hi - lo
        if kind is TransitionKind.RF_INTRA_MANIFOLD:
            return abs(hi - lo)
        return hi - lo

    # ----------------------------------------------------------------- catalog

    @staticmethod
    def _g(F: int, mF: int) -> SublevelRef:
        return SublevelRef(Manifold.GROUND, F, mF)

    @staticmethod
    def _m(F: int, mF: int) -> SublevelRef:
        return SublevelRef(Manifold.METASTABLE_1140, F, mF)

    def _build_catalog(self) -> tuple[TransitionSpec, ...]:
        g, m = self._g, self._m
        mw = TransitionKind.MW_HYPERFINE
        # State-preparation ladder; strengths normalized to the central
        # clock line (transition 5) = 1.
        entries = [
            TransitionSpec(g(4, -4), g(3, -3), mw, 1.32),
            TransitionSpec(g(4, -2), g(3, -3), mw, 0.25),
            TransitionSpec(g(4, -2), g(3, -1), mw, 0.96),
            TransitionSpec(g(4, 0), g(3, -1), mw, 0.61),
            TransitionSpec(g(4, 0), g(3, 0), mw, 1.0),
        ]
        for mF in range(-4, 4):
            entries.append(
                TransitionSpec(g(4, mF), g(4, mF + 1), TransitionKind.RF_INTRA_MANIFOLD)
            )
        entries.append(TransitionSpec(g(4, 0), m(3, 0), TransitionKind.OPTICAL_1140))
        entries.append(TransitionSpec(g(3, 0), m(2, 0), TransitionKind.OPTICAL_1140))
        return tuple(entries)

    def transition_catalog(self) -> tuple[TransitionSpec, ...]:
        return self._catalog

    def find_transition(self, name: str) -> TransitionSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown transition {name!r}") from None

    @property
    def prep_ladder(self) -> tuple[tuple[SublevelRef, SublevelRef], ...]:
        """Coherent-preparation ladder as ordered (source, target) hops."""
        g = self._g
        return (
            (g(4, -4), g(3, -3)),
            (g(3, -3), g(4, -2)),
            (g(4, -2), g(3, -1)),
            (g(3, -1), g(4, 0)),
        )

    # --------------------------------------------------------------- branching

    def _build_branching(self) -> dict[int, tuple[tuple[int, float], ...]]:
        return metastable_branching_table(self.constants.metastable_branch_to_f4)

    def metastable_branching(self) -> dict[int, tuple[tuple[int, float], ...]]:
        return self._branching
