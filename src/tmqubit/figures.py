"""Reproduction runners: simulate each headline dataset and emit CSV tables.

Each runner executes the corresponding protocol with the apparatus-default
parameters, writes simulated points plus the overlay model curves with the
same axes as the published panels, and returns the list of files written.
All output is CSV; plotting is left to external tools.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .atom import AtomModel
from .engine import (
    LossParameters,
    NoiseModel,
    RandomWalkDrift,
    default_calibration,
    run_scan,
    run_schedule,
    run_shot,
)
from .fitting import (
    Dataset,
    FitError,
    _profile_chi2,
    chi2_profile,
    contrast_from_eta,
    least_squares,
    model_exponential,
    model_gaussian_decay,
    model_gaussian_decay_offset,
    model_rabi_reflection,
    model_ramsey_fringe,
)
from .protocols import build_protocol, record_quantity
from .readout import fit_probe_scan, probe_parabola
from .schedule import MwPulse, Schedule, Wait, build_clock_coherence

__all__ = ["FIGURES", "reproduce_figure"]

# Slow-fluctuation level consistent with the apparatus bound (< 150 uG):
# tuned so the simulated free-induction decay at 0.1 G sits near 22 s.
_SIGMA_B_COHERENCE = 6.0e-5

# Atoms per shot: the apparatus default; fig7's readout scan loads fewer.
_N_ATOMS = 5000.0


def _write_csv(path, header, rows, comments=()):
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")
    return path


def _mean_quantity(records, quantity):
    values = [record_quantity(r, quantity) for r in records]
    return float(np.mean(values)), float(np.std(values) / math.sqrt(len(values)) or 1e-4)


def _fringe_contrast(model, noise, loss, calib, t_free, bias, shots, seed,
                     n_atoms, mw_pi_time=2e-3):
    """Scan the Ramsey detuning over one fringe and fit the cosine model.

    Falls back to the peak-to-peak spread when no fit start converges (deep
    in the noise the fringe flattens and the cosine fit loses its footing,
    exactly where the peak-to-peak estimate is the conservative choice).
    """
    dnus = np.linspace(-1.0 / (2 * t_free), 1.0 / (2 * t_free), 24)
    points = [(build_protocol("ramsey", {"t": t_free, "detuning": float(dnu),
                                         "bias_field": bias, "mw_pi_time": mw_pi_time}),
               dataclasses.replace(noise, seed=seed + 1000 * k), calib)
              for k, dnu in enumerate(dnus)]
    ys, sigmas = [], []
    for records in run_scan(points, model, loss, shots, n_atoms=n_atoms):
        mean, err = _mean_quantity(records, "eta4")
        ys.append(mean)
        sigmas.append(max(err, 5e-3))
    ds = Dataset(np.array(dnus), np.array(ys), np.array(sigmas))
    spread = float(max(ds.y) - min(ds.y))
    best = None
    for phi0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        try:
            fit = least_squares(model_ramsey_fringe, ds,
                                [0.5, spread, 2 * t_free, phi0])
        except FitError:
            continue
        if best is None or fit.chi2 < best.chi2:
            best = fit
    if best is None:
        return spread, spread, ds, None
    return abs(best.params["c"]), best.error("c"), ds, best


def fig2e(outdir, seed=0):
    """Long microwave Rabi scan: 250 coherent periods with collision damping."""
    model = AtomModel()
    noise = NoiseModel.off(seed)
    loss = LossParameters.from_table(0.6)
    calib = default_calibration(model, camera_floor=0.0)
    period = 2 * 2e-3
    ts = np.concatenate([
        np.linspace(0.0, 3 * period, 40),
        0.2 + np.linspace(0, 2 * period, 16),
        0.5 + np.linspace(0, 2 * period, 16),
        1.0 + np.linspace(0, 2 * period, 16),
    ])
    rows = []
    for t in ts:
        sched = build_protocol("rabi", {"t": float(t), "bias_field": 0.6})
        state, rec = run_shot(sched, model, noise, loss, 0, n_atoms=_N_ATOMS,
                              calibration=calib)
        eta3 = record_quantity(rec, "eta3")
        ideal = math.cos(0.5 * (math.pi / 2e-3) * t) ** 2
        rows.append((float(t), eta3, ideal))
    path = _write_csv(os.path.join(outdir, "fig2e_rabi.csv"),
                      ["t_s", "eta3", "eta3_ideal"], rows,
                      ["microwave Rabi scan, B=0.6 G, collision channels on",
                       f"x axis spans {ts.max() / period:.0f} Rabi periods"])
    return [path]


def fig4(outdir, seed=0, shots=16, t_grid=None):
    """Ramsey contrast decay at 0.1 and 0.6 G plus the 80 ms fringe inset.

    The fringe-fit contrast acquires a positive bias once the shot-to-shot
    phase scatter dominates (the same effect that separates the fit-derived
    and peak-to-peak estimates in the lab), so the fitted decay time in this
    table upper-bounds the ensemble-coherence decay time.
    """
    model = AtomModel()
    loss = LossParameters.off()
    calib = default_calibration(model, camera_floor=0.0)
    t_grid = t_grid if t_grid is not None else (0.08, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0)
    noise = NoiseModel(sigma_B_shot=_SIGMA_B_COHERENCE, seed=seed)
    files = []
    rows = []
    inset_scan = None   # (dataset, fit) of the 80 ms fringe at 0.1 G
    for bias in (0.1, 0.6):
        contrasts = []
        for t_free in t_grid:
            c, c_err, *scan = _fringe_contrast(model, noise, loss, calib, t_free,
                                               bias, shots, seed, _N_ATOMS)
            contrasts.append((t_free, c, c_err))
            if bias == 0.1 and t_free == 0.08:
                inset_scan = scan
        ds = Dataset(np.array([r[0] for r in contrasts]),
                     np.array([r[1] for r in contrasts]),
                     np.array([max(r[2], 1e-3) for r in contrasts]))
        try:
            fit = least_squares(model_gaussian_decay, ds, [1.0, 15.0 * 0.1 / bias])
            t2 = fit.params["t2"]
        except FitError:
            t2 = float("nan")
        for t_free, c, c_err in contrasts:
            overlay = (model_gaussian_decay(t_free, 1.0, t2)
                       if math.isfinite(t2) else float("nan"))
            rows.append((bias, t_free, c, c_err, float(overlay), t2))
    files.append(_write_csv(os.path.join(outdir, "fig4_contrast.csv"),
                            ["bias_G", "T_s", "contrast", "contrast_err",
                             "gaussian_overlay", "t2_star_fit"], rows,
                            ["Ramsey contrast vs free evolution time"]))

    if inset_scan is None:
        inset_scan = _fringe_contrast(model, noise, loss, calib, 0.08, 0.1,
                                      shots, seed, _N_ATOMS)[2:]
    ds, fit = inset_scan
    inset = [(float(x), float(y), float(s),
              float(model_ramsey_fringe(x, *fit.values)) if fit is not None
              else float("nan"))
             for x, y, s in zip(ds.x, ds.y, ds.sigma)]
    files.append(_write_csv(os.path.join(outdir, "fig4_fringe_inset.csv"),
                            ["detuning_Hz", "eta4", "eta4_err", "fringe_fit"],
                            inset, ["T = 80 ms fringe at B = 0.1 G"]))
    return files


def _cp_eta_max(model, noise, loss, calib, n, t_free, bias, shots, seed, n_atoms):
    target = "eta3" if n % 2 == 0 else "eta4"
    sched = build_protocol("cp", {"n": n, "t": t_free, "bias_field": bias})
    records = run_schedule(sched, model, dataclasses.replace(noise, seed=seed),
                           loss, shots, n_atoms=n_atoms, calibration=calib)
    return _mean_quantity(records, target)


def fig5(outdir, seed=0, shots=10):
    """Dynamical decoupling: contrast vs time for n = 0, 1, 2, 4, 8 pulses."""
    model = AtomModel()
    loss = LossParameters.off()
    calib = default_calibration(model, camera_floor=0.0)
    noise = NoiseModel(sigma_B_shot=_SIGMA_B_COHERENCE,
                       drift=RandomWalkDrift(step=5e-5, interval=1.0), seed=seed)
    rows = []
    for n in (0, 1, 2, 4, 8):
        etas = []
        for t_free in (0.5, 2.0, 4.0, 8.0, 12.0, 18.0):
            eta, err = _cp_eta_max(model, noise, loss, calib, n, t_free, 0.1,
                                   shots, seed + 17 * n, _N_ATOMS)
            etas.append((t_free, eta, err))
        ds = Dataset(np.array([r[0] for r in etas]),
                     np.array([r[1] for r in etas]),
                     np.array([max(r[2], 1e-3) for r in etas]))
        try:
            fit = least_squares(model_gaussian_decay_offset, ds, [1.0, 20.0])
            t2 = fit.params["t2"]
        except FitError:
            t2 = float("nan")
        for t_free, eta, err in etas:
            contrast = float(contrast_from_eta(eta))
            overlay = (float(contrast_from_eta(
                model_gaussian_decay_offset(t_free, 1.0, t2)))
                if math.isfinite(t2) else float("nan"))
            rows.append((n, t_free, eta, err, contrast, overlay, t2))
    path = _write_csv(os.path.join(outdir, "fig5_decoupling.csv"),
                      ["n_pulses", "T_s", "eta_max", "eta_err", "contrast",
                       "gaussian_overlay", "t2_fit"], rows,
                      ["Carr-Purcell contrast vs total free evolution time, B=0.1 G"])
    return [path]


def _clock_phase_scan(model, noise, loss, calib, mode, t_store, shots, seed,
                      n_atoms, reference=False):
    """Contrast and phase of the stored-qubit Ramsey fringe via a phase scan
    of the final pi/2 pulse."""
    base = build_clock_coherence(mode, t_store)
    events = list(base.events)
    # locate the final microwave pulse (the readout block follows it)
    idx = max(k for k, ev in enumerate(events) if isinstance(ev, MwPulse))
    if reference:
        # replace the optical storage pulses by an equal-duration wait
        first_mw = min(k for k, ev in enumerate(events) if isinstance(ev, MwPulse))
        optical = [ev for ev in events[first_mw + 1:idx]]
        span = sum(ev.duration for ev in optical)
        events[first_mw + 1:idx] = [Wait(span)]
        idx = max(k for k, ev in enumerate(events) if isinstance(ev, MwPulse))
    phases = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    points = []
    for k, phi in enumerate(phases):
        events[idx] = dataclasses.replace(events[idx], phase=float(phi))
        points.append((Schedule(tuple(events), base.metadata),
                       dataclasses.replace(noise, seed=seed + 631 * k), calib))
    ys, sigmas = [], []
    for records in run_scan(points, model, loss, shots, n_atoms=n_atoms):
        # decay from the metastable levels repopulates mF != 0 sublevels, so
        # the stored-coherence fringe uses the total manifold populations
        vals = []
        for rec in records:
            src = rec.calibrated if rec.calibrated else rec.raw
            n4 = src["N4"] + src["N4_mf0"]
            n3 = src["N3"] + src["N3_mf0"]
            vals.append(n4 / (n4 + n3))
        ys.append(float(np.mean(vals)))
        sigmas.append(max(float(np.std(vals) / math.sqrt(len(vals))), 5e-3))

    def cosine(x, a, c, phi0):
        return a + 0.5 * c * np.cos(x - phi0)

    ds = Dataset(phases, np.array(ys), np.array(sigmas))
    fit = least_squares(cosine, ds, [float(np.mean(ys)),
                                     float(max(ys) - min(ys)), 0.0],
                        ("a", "c", "phi0"))
    c = fit.params["c"]
    phi0 = fit.params["phi0"]
    if c < 0:
        c, phi0 = -c, phi0 + math.pi
    return c, (phi0 + math.pi) % (2 * math.pi) - math.pi


def fig6(outdir, seed=0, shots=8):
    """Ground-metastable storage: contrast and phase vs storage time for the
    single- and double-transition schemes."""
    model = AtomModel()
    loss = LossParameters.off()
    calib = default_calibration(model, camera_floor=0.0)
    tau_c = model.constants.tau_c
    files = []
    for mode, rate in (("single", 1.0 / (2 * tau_c)), ("double", 1.0 / tau_c)):
        noise = NoiseModel(sigma_B_shot=_SIGMA_B_COHERENCE,
                           laser_phase_diffusion=60.0, seed=seed)
        ref_c, ref_phi = _clock_phase_scan(model, noise, loss, calib, mode, 0.0,
                                           shots, seed, _N_ATOMS, reference=True)
        rows = []
        c0 = None
        for t_store in (0.0, 0.03, 0.06, 0.09, 0.12, 0.18):
            c, phi = _clock_phase_scan(model, noise, loss, calib, mode,
                                       float(t_store), shots, seed + 97, _N_ATOMS)
            if c0 is None:
                c0 = c
            dphi = (phi - ref_phi + math.pi) % (2 * math.pi) - math.pi
            overlay = c0 * math.exp(-rate * float(t_store))
            rows.append((float(t_store), c, dphi, overlay))
        files.append(_write_csv(
            os.path.join(outdir, f"fig6_{mode}.csv"),
            ["T_s", "contrast", "phase_shift_rad", "overlay"], rows,
            [f"{mode}-transition storage; overlay decays with "
             f"{'2*tau_c' if mode == 'single' else 'tau_c'}"]))
    return files


def fig7(outdir, seed=0, shots=20):
    """Readout crosstalk calibration scan: raw counts vs first probe length."""
    model = AtomModel()
    noise = NoiseModel.off(seed)
    loss = LossParameters.off()
    rows = []
    for tau in np.linspace(0.05e-3, 1.2e-3, 12):
        sched = build_protocol("probe_scan", {"t": float(tau)})
        records = run_schedule(sched, model, dataclasses.replace(noise, seed=seed),
                               loss, shots, n_atoms=2000.0, calibration=None)
        n4 = float(np.mean([r.raw["N4"] for r in records]))
        n4_err = float(np.std([r.raw["N4"] for r in records]) / math.sqrt(shots))
        n3 = float(np.mean([r.raw["N3"] for r in records]))
        n3_err = float(np.std([r.raw["N3"] for r in records]) / math.sqrt(shots))
        rows.append([float(tau), n4, max(n4_err, 1e-3), n3, max(n3_err, 1e-3)])

    arr = np.array(rows)
    fit4, fit3 = fit_probe_scan(*arr.T)
    out = []
    for row in rows:
        out.append(tuple(row) + (float(probe_parabola(row[0], *fit4.values)),
                                 float(model_exponential(row[0], *fit3.values))))
    path = _write_csv(os.path.join(outdir, "fig7_readout_scan.csv"),
                      ["probe_s", "n4_raw", "n4_err", "n3_raw", "n3_err",
                       "parabola_fit", "exponential_fit"], out,
                      ["first-probe duration scan, atoms prepared in F=3",
                       f"parabola c={float(fit4.params['c'])!r}",
                       f"exponential tau={float(fit3.params['tau'])!r}"])
    return [path]


def fig8(outdir, seed=0):
    """1140 nm excitation vs pulse length with parasitic-reflection beats."""
    model = AtomModel()
    noise = NoiseModel.off(seed)
    loss = LossParameters.off()
    ts = np.linspace(0.05e-3, 8e-3, 60)
    etas = []
    for t in ts:
        sched = build_protocol("clock_rabi", {"t": float(t)})
        # state-level excitation: run the first pulse only
        state, _ = run_shot(Schedule(sched.events[:1], sched.metadata), model,
                            noise, loss, 0, n_atoms=_N_ATOMS)
        etas.append(state.population("m30"))
    tau_c = model.constants.tau_c

    def fixed_tau(x, omega0, a):
        return model_rabi_reflection(x, omega0, a, tau_c)

    ds = Dataset(ts, np.array(etas), np.full(len(ts), 5e-3))
    fit = least_squares(fixed_tau, ds, [math.pi / 1e-3 * 1.02, 0.08],
                        ("omega0", "a"))
    omega0, a = fit.values
    rows = [(float(t), float(eta),
             float(model_rabi_reflection(t, omega0, a, tau_c)),
             float(model_rabi_reflection(t, omega0, 0.0, tau_c)))
            for t, eta in zip(ts, etas)]
    path = _write_csv(os.path.join(outdir, "fig8_clock_rabi.csv"),
                      ["t_s", "eta", "fit", "no_reflection"], rows,
                      [f"fitted intensity reflection a^2 = {float(a * a)!r}",
                       f"fitted omega0 = {float(omega0)!r}"])
    return [path]


def fig10(outdir, seed=0, shots=10):
    """Decoupling processing example (n=8): peak-probability fit, contrast,
    and the chi-square profile of the decay time."""
    model = AtomModel()
    loss = LossParameters.off()
    calib = default_calibration(model, camera_floor=0.0)
    noise = NoiseModel(sigma_B_shot=_SIGMA_B_COHERENCE,
                       drift=RandomWalkDrift(step=5e-5, interval=1.0), seed=seed)
    etas = []
    for t_free in (0.5, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0):
        eta, err = _cp_eta_max(model, noise, loss, calib, 8, float(t_free), 0.1,
                               shots, seed, _N_ATOMS)
        etas.append((float(t_free), eta, max(err, 1e-3)))
    ds = Dataset(np.array([r[0] for r in etas]),
                 np.array([r[1] for r in etas]),
                 np.array([r[2] for r in etas]))
    fit = least_squares(model_gaussian_decay_offset, ds, [1.0, 30.0])
    t2 = fit.params["t2"]
    files = []
    rows = [(t, eta, err, float(model_gaussian_decay_offset(t, *fit.values)))
            for t, eta, err in etas]
    files.append(_write_csv(os.path.join(outdir, "fig10_eta.csv"),
                            ["T_s", "eta_target", "eta_err", "fit"], rows,
                            ["n=8 decoupling, B=0.1 G"]))
    rows = [(t, float(contrast_from_eta(eta)),
             float(contrast_from_eta(model_gaussian_decay_offset(t, *fit.values))))
            for t, eta, err in etas]
    files.append(_write_csv(os.path.join(outdir, "fig10_contrast.csv"),
                            ["T_s", "contrast", "fit"], rows))
    # chi-square profile of the decay time
    try:
        lo, hi = chi2_profile(fit, "t2")
    except FitError:
        lo = hi = float("nan")
    grid = np.linspace(0.7 * t2, 1.6 * t2, 25)
    prof = [(float(v), float(_profile_chi2(fit, 1, float(v)))) for v in grid]
    files.append(_write_csv(os.path.join(outdir, "fig10_chi2_profile.csv"),
                            ["t2_s", "chi2"], prof,
                            [f"t2 = {float(t2)!r}",
                             f"interval_lo = {float(lo)!r}", f"interval_hi = {float(hi)!r}",
                             f"chi2_min = {float(fit.chi2)!r}"]))
    return files


FIGURES = {
    "fig2e": fig2e,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig10": fig10,
}


def reproduce_figure(figure_id: str, outdir: str, seed: int = 0,
                     shots: int | None = None) -> list[str]:
    """Run one figure into ``outdir``; fig2e and fig8 (one noise-off shot
    per point) take no ``shots``."""
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure id {figure_id!r}; "
                       f"choose from {', '.join(sorted(FIGURES))}")
    os.makedirs(outdir, exist_ok=True)
    kwargs = {"seed": seed} if shots is None else {"seed": seed, "shots": shots}
    return FIGURES[figure_id](outdir, **kwargs)
