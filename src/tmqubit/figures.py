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
    run_shot,
)
from .fitting import (
    Dataset,
    FitError,
    chi2_profile,
    contrast_from_eta,
    least_squares,
    mean_and_error,
    model_exponential,
    model_gaussian_decay,
    model_gaussian_decay_offset,
    model_rabi_reflection,
    model_ramsey_fringe,
    multistart,
    peak_to_peak_contrast,
    profile_chi2,
    write_csv,
)
from .protocols import build_protocol, record_quantity
from .readout import fit_probe_scan, probe_parabola, probe_scan_points
from .schedule import MwPulse, Schedule, Wait, build_clock_coherence

__all__ = ["FIGURES"]

# Slow-fluctuation level consistent with the apparatus bound (< 150 uG):
# tuned so the simulated free-induction decay at 0.1 G sits near 22 s.
_SIGMA_B_COHERENCE = 6.0e-5

# The noise of the decoupling runs (fig5, fig10): under the echoes the
# quasi-static offset cancels, so the random-walk drift sets their decay.
_CP_NOISE = NoiseModel(sigma_B_shot=_SIGMA_B_COHERENCE,
                       drift=RandomWalkDrift(step=5e-5, interval=1.0))

# Atoms per shot: the apparatus default; fig7's readout scan loads fewer.
_N_ATOMS = 5000.0


def _t2_or_nan(model, points, init) -> float:
    """Fitted ``t2`` of ``model`` over (T, value, error) points, each error
    floored at 1e-3; NaN when the fit fails."""
    t, value, err = zip(*points)
    ds = Dataset(t, value, [max(e, 1e-3) for e in err])
    try:
        return least_squares(model, ds, init).params["t2"]
    except FitError:
        return float("nan")


def _fringe_contrast(model, noise, loss, calib, t_free, bias, shots, seed):
    """Scan the Ramsey detuning over one fringe and fit the cosine model.

    Falls back to the peak-to-peak spread when no fit start converges (deep
    in the noise the fringe flattens and the cosine fit loses its footing,
    exactly where the peak-to-peak estimate is the conservative choice).
    """
    dnus = np.linspace(-1.0 / (2 * t_free), 1.0 / (2 * t_free), 24)
    points = [(build_protocol("ramsey", {"t": t_free, "detuning": float(dnu),
                                         "bias_field": bias}),
               dataclasses.replace(noise, seed=seed + 1000 * k), calib)
              for k, dnu in enumerate(dnus)]
    stats = [mean_and_error(record_quantity(record, "eta4"))
             for record in run_scan(points, model, loss, shots, n_atoms=_N_ATOMS)]
    ds = Dataset(dnus, [mean for mean, _ in stats], [max(err, 5e-3) for _, err in stats])
    spread = peak_to_peak_contrast(ds)
    try:
        best = multistart(model_ramsey_fringe, ds,
                          ([0.5, spread, 2 * t_free, phi0]
                           for phi0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)))
    except FitError:
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
    points = [(build_protocol("rabi", {"t": float(t), "bias_field": 0.6}), noise, calib)
              for t in ts]
    rows = [(float(t), record_quantity(record[0], "eta3"),
             math.cos(0.5 * (math.pi / 2e-3) * t) ** 2)
            for t, record in zip(ts, run_scan(points, model, loss, 1, n_atoms=_N_ATOMS))]
    path = write_csv(os.path.join(outdir, "fig2e_rabi.csv"),
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
                                               bias, shots, seed)
            contrasts.append((t_free, c, c_err))
            if bias == 0.1 and t_free == 0.08:
                inset_scan = scan
        t2 = _t2_or_nan(model_gaussian_decay, contrasts, [1.0, 15.0 * 0.1 / bias])
        for t_free, c, c_err in contrasts:
            overlay = float(model_gaussian_decay(t_free, 1.0, t2))
            rows.append((bias, t_free, c, c_err, overlay, t2))
    files.append(write_csv(os.path.join(outdir, "fig4_contrast.csv"),
                           ["bias_G", "T_s", "contrast", "contrast_err",
                            "gaussian_overlay", "t2_star_fit"], rows,
                           ["Ramsey contrast vs free evolution time"]))

    if inset_scan is None:
        inset_scan = _fringe_contrast(model, noise, loss, calib, 0.08, 0.1,
                                      shots, seed)[2:]
    ds, fit = inset_scan
    inset = [(float(x), float(y), float(s),
              float(model_ramsey_fringe(x, *fit.values)) if fit is not None
              else float("nan"))
             for x, y, s in zip(ds.x, ds.y, ds.sigma)]
    files.append(write_csv(os.path.join(outdir, "fig4_fringe_inset.csv"),
                           ["detuning_Hz", "eta4", "eta4_err", "fringe_fit"],
                           inset, ["T = 80 ms fringe at B = 0.1 G"]))
    return files


def _cp_eta_max(model, loss, calib, runs, bias, shots):
    """(T, mean, error) of the CP target population at each ``(n, T, seed)``
    of ``runs``, under ``_CP_NOISE`` with that seed: one scan."""
    points = [(build_protocol("cp", {"n": n, "t": t_free, "bias_field": bias}),
               dataclasses.replace(_CP_NOISE, seed=seed), calib)
              for n, t_free, seed in runs]
    etas = []
    for (n, t_free, _), record in zip(runs, run_scan(points, model, loss, shots,
                                                     n_atoms=_N_ATOMS)):
        mean, err = mean_and_error(record_quantity(record, "eta3" if n % 2 == 0 else "eta4"))
        etas.append((t_free, mean, err or 1e-4))
    return etas


def fig5(outdir, seed=0, shots=10):
    """Dynamical decoupling: contrast vs time for n = 0, 1, 2, 4, 8 pulses."""
    model = AtomModel()
    loss = LossParameters.off()
    calib = default_calibration(model, camera_floor=0.0)
    ns, ts = (0, 1, 2, 4, 8), (0.5, 2.0, 4.0, 8.0, 12.0, 18.0)
    runs = [(n, t_free, seed + 17 * n) for n in ns for t_free in ts]
    scan = _cp_eta_max(model, loss, calib, runs, 0.1, shots)
    rows = []
    for k, n in enumerate(ns):
        etas = scan[k * len(ts):(k + 1) * len(ts)]
        t2 = _t2_or_nan(model_gaussian_decay_offset, etas, [1.0, 20.0])
        for t_free, eta, err in etas:
            contrast = float(contrast_from_eta(eta))
            overlay = float(contrast_from_eta(model_gaussian_decay_offset(t_free, 1.0, t2)))
            rows.append((n, t_free, eta, err, contrast, overlay, t2))
    path = write_csv(os.path.join(outdir, "fig5_decoupling.csv"),
                     ["n_pulses", "T_s", "eta_max", "eta_err", "contrast",
                      "gaussian_overlay", "t2_fit"], rows,
                     ["Carr-Purcell contrast vs total free evolution time, B=0.1 G"])
    return [path]


def _clock_phase_scan(model, noise, loss, calib, mode, t_store, shots, seed,
                      reference=False):
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
    for record in run_scan(points, model, loss, shots, n_atoms=_N_ATOMS):
        # decay from the metastable levels repopulates mF != 0 sublevels, so
        # the stored-coherence fringe uses the total manifold populations
        counts = record.counts
        n4 = counts["N4"] + counts["N4_mf0"]
        n3 = counts["N3"] + counts["N3_mf0"]
        mean, err = mean_and_error(n4 / (n4 + n3))
        ys.append(mean)
        sigmas.append(max(err, 5e-3))

    def cosine(x, a, c, phi0):
        return a + 0.5 * c * np.cos(x - phi0)

    ds = Dataset(phases, ys, sigmas)
    fit = least_squares(cosine, ds, [float(np.mean(ys)), peak_to_peak_contrast(ds), 0.0],
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
                                           shots, seed, reference=True)
        rows = []
        c0 = None
        for t_store in (0.0, 0.03, 0.06, 0.09, 0.12, 0.18):
            c, phi = _clock_phase_scan(model, noise, loss, calib, mode,
                                       float(t_store), shots, seed + 97)
            if c0 is None:
                c0 = c
            dphi = (phi - ref_phi + math.pi) % (2 * math.pi) - math.pi
            overlay = c0 * math.exp(-rate * float(t_store))
            rows.append((float(t_store), c, dphi, overlay))
        files.append(write_csv(
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
    taus = np.linspace(0.05e-3, 1.2e-3, 12)
    scan = run_scan([(build_protocol("probe_scan", {"t": float(tau)}), noise, None)
                     for tau in taus], model, loss, shots, n_atoms=2000.0)
    points = probe_scan_points(dict(zip(taus, scan)))
    fit4, fit3 = fit_probe_scan(*points)
    rows = [(*row, float(probe_parabola(row[0], *fit4.values)),
             float(model_exponential(row[0], *fit3.values)))
            for row in zip(*points)]
    path = write_csv(os.path.join(outdir, "fig7_readout_scan.csv"),
                     ["probe_s", "n4_raw", "n4_err", "n3_raw", "n3_err",
                      "parabola_fit", "exponential_fit"], rows,
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
    path = write_csv(os.path.join(outdir, "fig8_clock_rabi.csv"),
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
    runs = [(8, t_free, seed) for t_free in (0.5, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)]
    etas = [(t_free, eta, max(err, 1e-3))
            for t_free, eta, err in _cp_eta_max(model, loss, calib, runs, 0.1, shots)]
    ds = Dataset(*(np.array(column) for column in zip(*etas)))
    fit = least_squares(model_gaussian_decay_offset, ds, [1.0, 30.0])
    t2 = fit.params["t2"]
    files = []
    rows = [(t, eta, err, float(model_gaussian_decay_offset(t, *fit.values)))
            for t, eta, err in etas]
    files.append(write_csv(os.path.join(outdir, "fig10_eta.csv"),
                           ["T_s", "eta_target", "eta_err", "fit"], rows,
                           ["n=8 decoupling, B=0.1 G"]))
    rows = [(t, float(contrast_from_eta(eta)),
             float(contrast_from_eta(model_gaussian_decay_offset(t, *fit.values))))
            for t, eta, err in etas]
    files.append(write_csv(os.path.join(outdir, "fig10_contrast.csv"),
                           ["T_s", "contrast", "fit"], rows))
    # chi-square profile of the decay time
    try:
        lo, hi = chi2_profile(fit, "t2")
    except FitError:
        lo = hi = float("nan")
    grid = np.linspace(0.7 * t2, 1.6 * t2, 25)
    prof = [(float(v), float(profile_chi2(fit, "t2", float(v)))) for v in grid]
    files.append(write_csv(os.path.join(outdir, "fig10_chi2_profile.csv"),
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
