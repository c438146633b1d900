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
    "DataError",
    "read_csv",
    "csv_column",
    "write_csv",
    "mean_and_error",
    "FitResult",
    "FitError",
    "FitNonConvergence",
    "SingularNormalMatrix",
    "DegenerateProfile",
    "least_squares",
    "multistart",
    "finite_difference_jacobian",
    "chi2_profile",
    "profile_chi2",
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


class DataError(ValueError):
    """A data file or dataset that cannot be fitted; the message names the
    column at fault."""


# -------------------------------------------------------------------- dataset


def write_csv(path, header, rows, comments=()):
    """Write a ``# schema=1`` table: one ``# `` line per comment, the header,
    then the rows; floats as ``repr``, so they read back exactly."""
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")
    return path


def read_csv(path) -> list[dict]:
    """Rows of a CSV table as dicts keyed by the lower-cased header; blank
    and ``#`` lines are skipped.  Raises DataError when there is no header
    or no row."""
    with open(path, newline="") as fh:
        lines = csv.reader(line for line in fh
                           if line.strip() and not line.lstrip().startswith("#"))
        header = [h.strip().lower() for h in next(lines, [])]
        rows = [dict(zip(header, cells)) for cells in lines]
    if not rows:
        raise DataError("no data rows" if header else "empty file")
    return rows


def csv_column(rows, name: str, kind=float) -> list:
    """Column ``name`` of ``read_csv`` rows, each cell converted by ``kind``;
    raises DataError naming the column when a row lacks it or a cell does
    not convert."""
    try:
        return [kind(row[name]) for row in rows]
    except KeyError:
        raise DataError(f"column {name!r} is missing") from None
    except ValueError as exc:
        raise DataError(f"column {name!r}: {exc}") from None


def mean_and_error(values) -> tuple[float, float]:
    """Mean of per-shot ``values`` and its standard error std / sqrt(n)."""
    return float(np.mean(values)), float(np.std(values) / math.sqrt(len(values)))


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
            raise DataError("x and y lengths differ")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if len(self.sigma) != len(self.x):
                raise DataError("sigma length differs from x")
            if np.any(self.sigma <= 0):
                raise DataError("column 'sigma' must be strictly positive")

    def __len__(self):
        return len(self.x)

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones(len(self.x))
        return 1.0 / self.sigma

    @classmethod
    def from_rows(cls, rows) -> "Dataset":
        """The ``x``, ``y`` and optional ``sigma`` columns of ``read_csv``
        rows; raises DataError naming a column with a cell that is not a
        finite number."""
        names = ("x", "y", "sigma") if "sigma" in rows[0] else ("x", "y")
        columns = [csv_column(rows, name) for name in names]
        for name, column in zip(names, columns):
            bad = [v for v in column if not math.isfinite(v)]
            if bad:
                raise DataError(f"column {name!r}: not a finite number: {bad[0]!r}")
        return cls(*columns)


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
    rel = float(np.finfo(float).eps) ** (1.0 / 3.0)
    columns = []
    for j, p in enumerate(params):
        h = rel * max(abs(p), 1e-8)
        plus = params.copy()
        minus = params.copy()
        plus[j] += h
        minus[j] -= h
        columns.append((np.atleast_1d(model(x, *plus)) - np.atleast_1d(model(x, *minus)))
                       / (2 * h))
    return np.stack(columns, axis=1)


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


def multistart(model, dataset: Dataset, starts, param_names=None) -> FitResult:
    """The lowest-chi2 ``least_squares`` fit over the initial values
    ``starts`` (at least one).  A start whose fit raises FitError is
    skipped; when every start fails, the last error is raised."""
    best = last_error = None
    for init in starts:
        try:
            fit = least_squares(model, dataset, init, param_names)
        except FitError as exc:
            last_error = exc
            continue
        if best is None or fit.chi2 < best.chi2:
            best = fit
    if best is None:
        raise last_error
    return best


# ------------------------------------------------------------------ model zoo


def model_two_body_loss(t, n0, tau, beta_over_v):
    """Atom number under single-atom loss plus two-body collisions:
    N(t) = N0 e^{-t/tau} / (1 + (beta/V) tau N0 (1 - e^{-t/tau})), and
    N0 / (1 + (beta/V) N0 t) at tau = inf.  Every argument but tau may be
    an array; this is also the engine's two-body channel."""
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
    Omega(z) = Omega0 sqrt(1 + a^2 + a cos(2kz)), zero for t <= 0, on the n
    nodes of the longest t (``engine._standing_wave_scales``, n >= k + 12 k^(1/3):
    1e-12 from a 2^16-node average; FitError past an area of 1e4 rad)."""
    # the engine imports this module at load time
    from .engine import _standing_wave_scales

    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = 0.5 * omega0 * np.maximum(t, 0.0)[:, None]
    try:
        scale = _standing_wave_scales(2.0 * float(np.max(np.abs(half), initial=0.0)), abs(a))
    except ValueError as exc:
        raise FitError(str(exc)) from None
    braket = np.mean(np.sin(half * scale) ** 2, axis=1)
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


def profile_chi2(fit: FitResult, param: str, value: float) -> float:
    """Chi-square of ``fit``'s data with parameter ``param`` held at
    ``value`` and the others re-optimized from the fitted values (left as
    fitted when that fit fails): the curve ``chi2_profile`` crosses."""
    model, dataset = fit._model, fit._dataset
    index = fit.param_names.index(param)
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
        lo_v = center
        step = scale
        for _ in range(max_expand):
            v = lo_v + direction * step
            c = profile_chi2(fit, param, v)
            if c >= target:
                # bisect between lo_v and v
                a, b = lo_v, v
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    fm = profile_chi2(fit, param, mid)
                    if abs(fm - target) < 1e-9 or abs(b - a) < 1e-14 * max(1.0, abs(mid)):
                        return mid
                    a, b = (mid, b) if fm < target else (a, mid)
                return 0.5 * (a + b)
            lo_v = v
            step *= 1.6
        raise DegenerateProfile(
            f"chi2 profile of {param!r} never reaches min+1 (flat direction)")

    return crossing(-1), crossing(+1)


# ------------------------------------------------------------- model registry


@dataclass(frozen=True)
class ModelSpec:
    func: object
    guess: object   # callable Dataset -> init sequence
    quantity: str   # the observable a fit of simulate output reads by default

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.func.param_names


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
    "two_body_loss": ModelSpec(model_two_body_loss, _guess_two_body, "total"),
    "ramsey_fringe": ModelSpec(model_ramsey_fringe, _guess_fringe, "eta4"),
    "gaussian_decay": ModelSpec(model_gaussian_decay, _guess_gaussian, "eta4"),
    "gaussian_decay_offset": ModelSpec(model_gaussian_decay_offset, _guess_gaussian_offset,
                                       "eta3"),
    "exponential": ModelSpec(model_exponential, _guess_exponential, "total"),
    "rabi_reflection": ModelSpec(model_rabi_reflection, _guess_rabi_reflection, "eta4"),
}
