"""Nonlinear least squares, the experiment's model zoo, and interval tools.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) minimizer of
sum(((y - f(x)) / sigma)^2) with central finite-difference Jacobians.
Covariance comes from the final normal matrix; without stated
uncertainties it is scaled by the reduced chi-square (unit-weight
convention for count data).  Confidence intervals beyond the covariance
come from profiling the chi-square to the min+1 crossings.  The 1140 nm
reflection model averages over the standing wave with the engine's own
node average, the one behind every simulated 1140 nm pulse.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "FitResult",
    "FitError",
    "FitNonConvergence",
    "SingularNormalMatrix",
    "DegenerateProfile",
    "least_squares",
    "finite_difference_jacobian",
    "chi2_profile",
    "peak_to_peak_contrast",
    "model_two_body_loss",
    "model_ramsey_fringe",
    "model_gaussian_decay",
    "model_gaussian_decay_offset",
    "contrast_from_eta",
    "model_rabi_reflection",
    "model_exponential",
    "MODELS",
    "ModelSpec",
]


class FitError(Exception):
    pass


class FitNonConvergence(FitError):
    pass


class SingularNormalMatrix(FitError):
    pass


class DegenerateProfile(FitError):
    pass


# -------------------------------------------------------------------- dataset


@dataclass
class Dataset:
    """Fit input: abscissa, ordinate and optional per-point uncertainties."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if len(self.x) != len(self.y):
            raise ValueError("x and y lengths differ")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if len(self.sigma) != len(self.x):
                raise ValueError("sigma length differs from x")
            if np.any(self.sigma <= 0):
                raise ValueError("sigma must be strictly positive")

    def __len__(self):
        return len(self.x)

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones(len(self.x))
        return 1.0 / self.sigma

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.sigma is None:
                writer.writerow(["x", "y"])
                writer.writerows(zip(self.x, self.y))
            else:
                writer.writerow(["x", "y", "sigma"])
                writer.writerows(zip(self.x, self.y, self.sigma))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not r[0].lstrip().startswith("#")]
        header = [h.strip().lower() for h in rows[0]]
        if "x" not in header or "y" not in header:
            raise ValueError("CSV needs 'x' and 'y' columns")
        ix, iy = header.index("x"), header.index("y")
        isig = header.index("sigma") if "sigma" in header else None
        data = rows[1:]
        x = np.array([float(r[ix]) for r in data])
        y = np.array([float(r[iy]) for r in data])
        sigma = None
        if isig is not None:
            sigma = np.array([float(r[isig]) for r in data])
        return cls(x, y, sigma)


# ------------------------------------------------------------------ fit engine


@dataclass
class FitResult:
    """Parameter estimates with covariance, chi-square and optional profile
    intervals."""

    param_names: tuple[str, ...]
    values: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    n_iterations: int
    used_unit_weights: bool
    profile_intervals: dict = field(default_factory=dict)
    _model: object = None
    _dataset: Dataset | None = None

    @property
    def params(self) -> dict:
        return dict(zip(self.param_names, self.values))

    @property
    def errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def error(self, name: str) -> float:
        return float(self.errors[self.param_names.index(name)])

    def value(self, name: str) -> float:
        return float(self.values[self.param_names.index(name)])

    @property
    def reduced_chi2(self) -> float:
        return self.chi2 / self.dof

    def summary(self) -> str:
        lines = []
        for name, v, e in zip(self.param_names, self.values, self.errors):
            line = f"{name} = {v:.8g} +- {e:.3g}"
            if name in self.profile_intervals:
                lo, hi = self.profile_intervals[name]
                line += f"  (profile: {lo:.8g} .. {hi:.8g})"
            lines.append(line)
        lines.append(f"chi2/dof = {self.chi2:.6g}/{self.dof} = {self.reduced_chi2:.6g}")
        return "\n".join(lines)


def finite_difference_jacobian(model, x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Central-difference d f / d p, adaptive step per parameter."""
    params = np.asarray(params, dtype=float)
    n = len(np.atleast_1d(model(x, *params)))
    jac = np.empty((n, len(params)))
    rel = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for j, p in enumerate(params):
        h = rel * max(abs(p), 1e-8)
        plus = params.copy()
        minus = params.copy()
        plus[j] += h
        minus[j] -= h
        jac[:, j] = (np.atleast_1d(model(x, *plus)) - np.atleast_1d(model(x, *minus))) / (2 * h)
    return jac


def least_squares(model, dataset: Dataset, init, param_names=None,
                  max_iterations: int = 200, chi2_rtol: float = 1e-10,
                  step_tol: float = 1e-12) -> FitResult:
    """Damped Gauss-Newton minimization of the weighted sum of squares.

    ``model`` is called as ``model(x, *params)`` and must be vectorized over
    x.  Convergence is declared when the relative chi-square change drops
    below ``chi2_rtol`` or the step norm below ``step_tol``; raises
    FitNonConvergence after ``max_iterations`` damped steps and
    SingularNormalMatrix when the (damped) normal matrix cannot be solved.
    """
    p = np.array(init, dtype=float)
    if param_names is None:
        param_names = getattr(model, "param_names", None) or tuple(
            f"p{i}" for i in range(len(p)))
    dof = len(dataset) - len(p)
    if dof < 1:
        raise FitError(f"dof = {len(dataset)} - {len(p)} < 1")
    w = dataset.weights

    def chi2_of(params):
        f = np.atleast_1d(model(dataset.x, *params))
        r = (dataset.y - f) * w
        return float(r @ r), r

    chi2, resid = chi2_of(p)
    lam = 1e-3
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        jac = finite_difference_jacobian(model, dataset.x, p) * w[:, None]
        normal = jac.T @ jac
        grad = jac.T @ resid
        accepted = False
        for _ in range(40):
            damped = normal + lam * np.diag(np.clip(np.diag(normal), 1e-300, None))
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                raise SingularNormalMatrix("singular normal matrix") from None
            if not np.all(np.isfinite(step)):
                raise SingularNormalMatrix("non-finite step")
            candidate = p + step
            chi2_new, resid_new = chi2_of(candidate)
            if chi2_new <= chi2 or not math.isfinite(chi2):
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # cannot improve along any damped direction: treat as converged
            # if the gradient is flat, otherwise give up
            if float(np.linalg.norm(grad)) < 1e-8 * max(1.0, chi2):
                converged = True
                break
            raise FitNonConvergence(f"no downhill step after {iteration} iterations")
        step_norm = float(np.linalg.norm(step)) / max(1.0, float(np.linalg.norm(p)))
        rel_change = abs(chi2 - chi2_new) / max(chi2, 1e-300)
        p, chi2, resid = candidate, chi2_new, resid_new
        lam = max(lam / 3.0, 1e-12)
        if rel_change < chi2_rtol or step_norm < step_tol or chi2 < 1e-300:
            converged = True
            break
    if not converged:
        raise FitNonConvergence(f"not converged after {max_iterations} iterations")

    jac = finite_difference_jacobian(model, dataset.x, p) * w[:, None]
    normal = jac.T @ jac
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix("singular normal matrix at optimum") from None
    if dataset.sigma is None:
        # no stated uncertainties: estimate the noise scale from the
        # residual scatter (covariance scaled by the reduced chi-square)
        cov = cov * (chi2 / dof)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        param_names=tuple(param_names),
        values=p,
        covariance=cov,
        chi2=chi2,
        dof=dof,
        n_iterations=iteration,
        used_unit_weights=dataset.sigma is None,
        _model=model,
        _dataset=dataset,
    )


# ------------------------------------------------------------------ model zoo


def model_two_body_loss(t, n0, tau, beta_over_v):
    """Atom number under single-atom loss plus two-body collisions:
    N(t) = N0 e^{-t/tau} / (1 + (beta/V) tau N0 (1 - e^{-t/tau})), and
    N0 / (1 + (beta/V) N0 t) at tau = inf.  Every argument but tau may be
    an array; this is also the engine's two-body channel (``two_body_decay``)."""
    t = np.asarray(t, dtype=float)
    if math.isinf(tau):
        return n0 / (1.0 + beta_over_v * n0 * t)
    return n0 * np.exp(-t / tau) / (1.0 + beta_over_v * tau * n0 * -np.expm1(-t / tau))


model_two_body_loss.param_names = ("n0", "tau", "beta_over_v")


def model_ramsey_fringe(dnu, a, c, t, phi0):
    """Fringe model eta4(dnu) = A + C/2 cos(pi T dnu + phi0)."""
    dnu = np.asarray(dnu, dtype=float)
    return a + 0.5 * c * np.cos(math.pi * t * dnu + phi0)


model_ramsey_fringe.param_names = ("a", "c", "t", "phi0")


def model_gaussian_decay(t, c0, t2):
    """Contrast decay C(T) = C0 exp(-(T/T2)^2)."""
    t = np.asarray(t, dtype=float)
    return c0 * np.exp(-((t / t2) ** 2))


model_gaussian_decay.param_names = ("c0", "t2")


def model_gaussian_decay_offset(t, eta_max0, t2):
    """Peak-probability decay eta_max(t) = eta_max(0)/2 exp(-(t/T)^2) + 1/2."""
    t = np.asarray(t, dtype=float)
    return 0.5 * eta_max0 * np.exp(-((t / t2) ** 2)) + 0.5


model_gaussian_decay_offset.param_names = ("eta_max0", "t2")


def contrast_from_eta(eta_max):
    """Contrast estimate C = 2 eta_max - 1 from the peak probability."""
    return 2.0 * np.asarray(eta_max, dtype=float) - 1.0


def model_exponential(t, a, tau):
    t = np.asarray(t, dtype=float)
    return a * np.exp(-t / tau)


model_exponential.param_names = ("a", "tau")


def model_rabi_reflection(t, omega0, a, tau_c):
    """Excitation probability of the 1140 nm drive with amplitude reflection
    a, averaged over the standing-wave phase:
    eta(t) = <sin^2(Omega(z) t / 2)> exp(-t/(2 tau_c)),
    Omega(z) = Omega0 sqrt(1 + a^2 + a cos(2kz)), zero for t <= 0.  The
    average is the engine's (``engine._standing_wave_average``), over all t
    at once."""
    # the engine imports this module at load time
    from .engine import _standing_wave_average

    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = 0.5 * omega0 * np.maximum(t, 0.0)[:, None]
    (braket,) = _standing_wave_average(
        lambda scale, rows: (np.mean(np.sin(half[rows] * scale) ** 2, axis=1),),
        abs(a), len(t))
    out = braket * np.exp(-t / (2.0 * tau_c))
    return out[0] if scalar else out


model_rabi_reflection.param_names = ("omega0", "a", "tau_c")


# ----------------------------------------------------------------- estimators


def peak_to_peak_contrast(dataset: Dataset) -> float:
    """Contrast estimate max(y) - min(y) over the raw points.

    Conservative under slow phase drift: drift can only widen the spread, so
    the estimate upper-bounds the fitted contrast.
    """
    if len(dataset) < 2:
        raise ValueError("need at least two points")
    return float(np.max(dataset.y) - np.min(dataset.y))


def _profile_chi2(fit: FitResult, index: int, value: float) -> float:
    model, dataset = fit._model, fit._dataset
    others = [i for i in range(len(fit.values)) if i != index]
    if not others:
        f = np.atleast_1d(model(dataset.x, value))
        r = (dataset.y - f) * dataset.weights
        return float(r @ r)

    def reduced(x, *free):
        params = np.empty(len(fit.values))
        params[index] = value
        for slot, v in zip(others, free):
            params[slot] = v
        return model(x, *params)

    init = fit.values[others]
    try:
        sub = least_squares(reduced, dataset, init,
                            param_names=[fit.param_names[i] for i in others])
        return sub.chi2
    except FitError:
        f = np.atleast_1d(reduced(dataset.x, *init))
        r = (dataset.y - f) * dataset.weights
        return float(r @ r)


def chi2_profile(fit: FitResult, param: str, max_expand: int = 60) -> tuple[float, float]:
    """Profile-likelihood interval: parameter values where the profiled
    chi-square crosses chi2_min + 1.

    The other parameters are re-optimized at each probed value.  Raises
    DegenerateProfile when the profile never reaches the crossing (flat
    direction).
    """
    if fit._model is None or fit._dataset is None:
        raise FitError("fit result does not carry its model/dataset")
    index = fit.param_names.index(param)
    center = fit.values[index]
    target = fit.chi2 + 1.0
    scale = float(fit.errors[index])
    if not math.isfinite(scale) or scale == 0.0:
        scale = 0.1 * abs(center) + 1e-8

    def crossing(direction: int) -> float:
        lo_v, lo_c = center, fit.chi2
        step = scale
        for _ in range(max_expand):
            v = lo_v + direction * step
            c = _profile_chi2(fit, index, v)
            if c >= target:
                # bisect between lo_v and v
                a, b = lo_v, v
                fa, fb = lo_c, c
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    fm = _profile_chi2(fit, index, mid)
                    if abs(fm - target) < 1e-9 or abs(b - a) < 1e-14 * max(1.0, abs(mid)):
                        return mid
                    if fm < target:
                        a, fa = mid, fm
                    else:
                        b, fb = mid, fm
                return 0.5 * (a + b)
            lo_v, lo_c = v, c
            step *= 1.6
        raise DegenerateProfile(
            f"chi2 profile of {param!r} never reaches min+1 (flat direction)")

    return crossing(-1), crossing(+1)


# ------------------------------------------------------------- model registry


@dataclass(frozen=True)
class ModelSpec:
    name: str
    func: object
    param_names: tuple[str, ...]
    guess: object   # callable Dataset -> init sequence


def _guess_two_body(ds: Dataset):
    n0 = float(np.max(ds.y))
    span = max(float(np.max(ds.x) - np.min(ds.x)), 1e-9)
    depletion = max(n0 / max(float(ds.y[np.argmax(ds.x)]), 1e-9) - 1.0, 1e-3)
    return [n0, 16.4, depletion / max(n0 * span, 1e-9)]


def _guess_fringe(ds: Dataset):
    span = max(float(np.max(ds.x) - np.min(ds.x)), 1e-12)
    return [float(np.mean(ds.y)), float(np.max(ds.y) - np.min(ds.y)), 2.0 / span, 0.0]


def _guess_gaussian(ds: Dataset):
    return [float(np.max(ds.y)), max(float(np.median(ds.x)), 1e-9)]


def _guess_gaussian_offset(ds: Dataset):
    return [max(2.0 * (float(np.max(ds.y)) - 0.5), 0.1),
            max(float(np.median(ds.x)), 1e-9)]


def _guess_exponential(ds: Dataset):
    a = float(ds.y[np.argmin(ds.x)])
    span = max(float(np.max(ds.x) - np.min(ds.x)), 1e-12)
    tail = float(ds.y[np.argmax(ds.x)])
    ratio = a / tail if tail > 0 and a > 0 else math.e
    tau = span / max(math.log(max(ratio, 1.0 + 1e-6)), 1e-6)
    return [a, tau]


def _guess_rabi_reflection(ds: Dataset):
    rising = ds.x[np.argmax(ds.y)]
    omega0 = math.pi / max(float(rising), 1e-6)
    return [omega0, 0.1, 0.112]


MODELS = {
    spec.name: spec
    for spec in (
        ModelSpec("two_body_loss", model_two_body_loss,
                  model_two_body_loss.param_names, _guess_two_body),
        ModelSpec("ramsey_fringe", model_ramsey_fringe,
                  model_ramsey_fringe.param_names, _guess_fringe),
        ModelSpec("gaussian_decay", model_gaussian_decay,
                  model_gaussian_decay.param_names, _guess_gaussian),
        ModelSpec("gaussian_decay_offset", model_gaussian_decay_offset,
                  model_gaussian_decay_offset.param_names, _guess_gaussian_offset),
        ModelSpec("exponential", model_exponential,
                  model_exponential.param_names, _guess_exponential),
        ModelSpec("rabi_reflection", model_rabi_reflection,
                  model_rabi_reflection.param_names, _guess_rabi_reflection),
    )
}
