import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tmqubit
from tmqubit.engine import clock_rotation_transfer
from tmqubit.fitting import (
    Dataset,
    DegenerateProfile,
    FitError,
    FitNonConvergence,
    MODELS,
    chi2_profile,
    contrast_from_eta,
    finite_difference_jacobian,
    least_squares,
    model_exponential,
    model_gaussian_decay,
    model_gaussian_decay_offset,
    model_rabi_reflection,
    model_ramsey_fringe,
    model_two_body_loss,
    multistart,
    peak_to_peak_contrast,
    profile_chi2,
    read_csv,
)


class TestLeastSquares:
    def test_linear_exact(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 2.5 * x - 1.25

        def linear(x, a, b):
            return a * x + b

        fit = least_squares(linear, Dataset(x, y), [1.0, 0.0], ("a", "b"))
        assert fit.params["a"] == pytest.approx(2.5, abs=1e-10)
        assert fit.params["b"] == pytest.approx(-1.25, abs=1e-10)
        assert fit.chi2 < 1e-18

    def test_quadratic_through_three_points(self):
        x = np.array([-1.0, 0.0, 2.0, 5.0])
        y = 0.5 * x**2 - x + 3

        def quadratic(x, a, b, c):
            return a * x**2 + b * x + c

        fit = least_squares(quadratic, Dataset(x, y), [1.0, 1.0, 1.0])
        assert fit.values == pytest.approx([0.5, -1.0, 3.0], abs=1e-8)

    def test_rosenbrock_against_grid_oracle(self):
        # rosenbrock residuals as a curve fit; oracle: dense grid search
        def model(x, a, b):
            return np.where(x == 0, 1.0 - a, np.where(x == 1, 10.0 * (b - a * a), 0.0))

        ds = Dataset(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        fit = least_squares(model, ds, [-1.2, 1.0], ("a", "b"), max_iterations=500)
        grid_a = np.linspace(-2, 2, 1000)
        grid_b = np.linspace(-1, 3, 1000)
        aa, bb = np.meshgrid(grid_a, grid_b)
        chi2 = (1 - aa) ** 2 + 100.0 * (bb - aa * aa) ** 2
        k = np.unravel_index(np.argmin(chi2), chi2.shape)
        assert fit.params["a"] == pytest.approx(aa[k], abs=2 * 4 / 1000)
        assert fit.params["b"] == pytest.approx(bb[k], abs=2 * 4 / 1000)
        assert fit.chi2 <= chi2[k] + 1e-12

    def test_dof_guard(self):
        with pytest.raises(FitError):
            least_squares(lambda x, a, b: a * x + b, Dataset([1.0, 2.0], [1.0, 2.0]), [1, 1])

    def test_fit_on_self_converges_immediately(self):
        # starting at the truth: <= 3 iterations, chi2 < 1e-18
        x = np.linspace(0, 20, 15)
        truth = (5000.0, 16.4, 2e-5)
        y = model_two_body_loss(x, *truth)
        fit = least_squares(model_two_body_loss, Dataset(x, y), truth)
        assert fit.n_iterations <= 3
        assert fit.chi2 < 1e-18

    def test_sigma_rescale_invariance(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 10, 25)
        y = model_exponential(x, 120.0, 3.0) + rng.normal(0, 2.0, size=25)
        f1 = least_squares(model_exponential, Dataset(x, y, np.full(25, 2.0)), [100.0, 2.0])
        f2 = least_squares(model_exponential, Dataset(x, y, np.full(25, 20.0)), [100.0, 2.0])
        assert f1.values == pytest.approx(f2.values, rel=1e-8)

    def test_covariance_conventions(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0, 10, 40)
        noise = rng.normal(0, 1.0, size=40)

        def linear(x, a, b):
            return a * x + b

        # without sigma the covariance tracks the residual scatter
        f1 = least_squares(linear, Dataset(x, 2 * x + 1 + noise), [1, 1])
        f2 = least_squares(linear, Dataset(x, 2 * x + 1 + 2 * noise), [1, 1])
        assert f2.covariance == pytest.approx(4 * f1.covariance, rel=1e-6)
        # with sigma the covariance reflects the stated uncertainties only
        f3 = least_squares(linear, Dataset(x, 2 * x + 1 + noise, np.full(40, 1.0)), [1, 1])
        f4 = least_squares(linear, Dataset(x, 2 * x + 1 + 2 * noise, np.full(40, 1.0)), [1, 1])
        assert f3.covariance == pytest.approx(f4.covariance, rel=1e-6)

    def test_unit_weights_flag(self):
        x = np.linspace(0, 1, 5)
        fit = least_squares(lambda x, a: a * x, Dataset(x, 2 * x), [1.0])
        assert fit.used_unit_weights


class TestJacobian:
    def test_matches_analytic_derivatives(self):
        x = np.linspace(0.1, 20, 17)
        p = np.array([4800.0, 16.4, 1.9e-5])
        jac = finite_difference_jacobian(model_two_body_loss, x, p)
        # analytic derivative of Eq-style two-body decay w.r.t. n0
        n0, tau, bv = p
        e = np.exp(-x / tau)
        denom = 1 + bv * tau * n0 * (1 - e)
        d_n0 = e / denom - n0 * e * bv * tau * (1 - e) / denom**2
        assert jac[:, 0] == pytest.approx(d_n0, rel=1e-6)

        x2 = np.linspace(-6, 6, 13)
        p2 = np.array([0.5, 0.9, 0.16, 0.3])
        jac2 = finite_difference_jacobian(model_ramsey_fringe, x2, p2)
        a, c, t, phi = p2
        assert jac2[:, 0] == pytest.approx(np.ones_like(x2), rel=1e-6)
        assert jac2[:, 1] == pytest.approx(0.5 * np.cos(math.pi * t * x2 + phi), rel=1e-6, abs=1e-9)
        d_t = -0.5 * c * np.sin(math.pi * t * x2 + phi) * math.pi * x2
        assert jac2[:, 2] == pytest.approx(d_t, rel=1e-6, abs=1e-9)

        x3 = np.linspace(0, 30, 9)
        p3 = np.array([0.95, 12.0])
        jac3 = finite_difference_jacobian(model_gaussian_decay, x3, p3)
        c0, t2 = p3
        assert jac3[:, 1] == pytest.approx(
            c0 * np.exp(-((x3 / t2) ** 2)) * 2 * x3**2 / t2**3, rel=1e-6, abs=1e-12)

        jac4 = finite_difference_jacobian(model_gaussian_decay_offset, x3, p3)
        assert jac4[:, 0] == pytest.approx(0.5 * np.exp(-((x3 / t2) ** 2)), rel=1e-6)


    def test_two_evaluations_per_parameter(self):
        calls = []

        def model(x, *params):
            calls.append(params)
            return model_ramsey_fringe(x, *params)

        jac = finite_difference_jacobian(model, np.linspace(-6, 6, 13), [0.5, 0.9, 0.16, 0.3])
        assert jac.shape == (13, 4)
        assert len(calls) == 8


class TestTwoBodyModel:
    def test_beta_zero_pure_exponential(self):
        t = np.linspace(0, 50, 11)
        assert model_two_body_loss(t, 4000, 16.4, 0.0) == pytest.approx(
            4000 * np.exp(-t / 16.4))

    def test_t_zero(self):
        assert model_two_body_loss(0.0, 3210.0, 16.4, 1e-5) == pytest.approx(3210.0)

    def test_recovery_within_2_sigma(self):
        # generator oracle: synthesize with Table-I-style beta, fit it back
        rng = np.random.default_rng(2024)
        v = 1.6e-4
        beta = 1.1e-9
        t = np.linspace(0.5, 20, 15)
        truth = model_two_body_loss(t, 5000.0, 16.4, beta / v)
        y = truth * (1 + 0.05 * rng.standard_normal(15))

        def fixed_tau(x, n0, bv):
            return model_two_body_loss(x, n0, 16.4, bv)

        fit = least_squares(fixed_tau, Dataset(t, y, 0.05 * truth),
                            [4000.0, 1e-5], ("n0", "beta_over_v"))
        bv_hat = fit.params["beta_over_v"]
        sigma = fit.error("beta_over_v")
        assert abs(bv_hat - beta / v) <= 2 * sigma


class TestFringeModels:
    def test_contrast_from_eta(self):
        assert contrast_from_eta(1.0) == pytest.approx(1.0)
        assert contrast_from_eta(0.5) == pytest.approx(0.0)

    def test_fringe_recovery_t80ms(self):
        rng = np.random.default_rng(80)
        t_model = 0.16   # model parameter for a physical 80 ms Ramsey fringe
        x = np.linspace(-12.5, 12.5, 30)
        truth = model_ramsey_fringe(x, 0.5, 0.98, t_model, 0.4)
        y = truth + rng.normal(0, 0.01, size=30)
        fit = least_squares(model_ramsey_fringe, Dataset(x, y, np.full(30, 0.01)),
                            [0.5, 0.9, 0.15, 0.0])
        assert fit.params["a"] == pytest.approx(0.5, abs=0.02)
        assert fit.params["c"] == pytest.approx(0.98, abs=0.03)
        assert fit.params["phi0"] == pytest.approx(0.4, abs=0.05)
        assert fit.params["t"] == pytest.approx(t_model, rel=0.01)

    def test_gaussian_decay_recovery_22s(self):
        rng = np.random.default_rng(22)
        t = np.linspace(0.5, 20, 10)
        truth = model_gaussian_decay(t, 0.99, 22.0)
        y = truth + rng.normal(0, 0.02, size=10)
        fit = least_squares(model_gaussian_decay, Dataset(t, y, np.full(10, 0.02)),
                            [1.0, 15.0])
        assert abs(fit.params["t2"] - 22.0) <= 2 * fit.error("t2")

    def test_gaussian_offset_limits(self):
        assert model_gaussian_decay_offset(0.0, 0.9, 5.0) == pytest.approx(0.95)
        assert model_gaussian_decay_offset(1e9, 0.9, 5.0) == pytest.approx(0.5)


class TestRabiReflection:
    def test_a_zero_closed_form(self):
        t = np.linspace(0, 5e-3, 7)
        omega0 = math.pi / 1e-3
        got = model_rabi_reflection(t, omega0, 0.0, 0.112)
        want = 0.5 * (1 - np.cos(omega0 * t)) * np.exp(-t / (2 * 0.112))
        assert got == pytest.approx(want, abs=1e-12)

    def test_quadrature_against_riemann_oracle(self):
        # 1e5-node Riemann average over the standing-wave phase
        omega0 = math.pi / 1e-3
        a = 0.1225
        for t in (1e-3, 2.3e-3, 6e-3):
            u = 2 * math.pi * (np.arange(100_000) + 0.5) / 100_000
            braket = np.mean(
                0.5 * (1 - np.cos(omega0 * t * np.sqrt(1 + a * a + a * np.cos(u)))))
            oracle = braket * math.exp(-t / (2 * 0.112))
            assert model_rabi_reflection(t, omega0, a, 0.112) == pytest.approx(
                oracle, abs=1e-6)

    def test_nonmonotonic_envelope(self):
        omega0 = math.pi / 1e-3
        t = np.arange(1, 40, 2) * 1e-3
        eta = model_rabi_reflection(t, omega0, math.sqrt(0.015), 0.112)
        peaks = eta[::1]
        assert eta[0] < 1.0
        # collapse then revival of the oscillation envelope
        mid = len(t) // 2
        assert np.max(eta[mid - 3:mid + 3]) < np.max(eta[:4])

    def test_fit_recovers_reflection(self):
        rng = np.random.default_rng(15)
        omega0 = math.pi / 1e-3
        a_true = math.sqrt(0.015)
        t = np.linspace(0.05e-3, 8e-3, 60)
        truth = model_rabi_reflection(t, omega0, a_true, 0.112)
        y = truth + rng.normal(0, 0.01, size=len(t))

        def fixed_tau(x, om, a):
            return model_rabi_reflection(x, om, a, 0.112)

        fit = least_squares(fixed_tau, Dataset(t, y, np.full(len(t), 0.01)),
                            [omega0 * 1.02, 0.08], ("omega0", "a"))
        assert fit.params["a"] ** 2 == pytest.approx(0.015, abs=0.005)

    @pytest.mark.parametrize("a", [0.0, math.sqrt(0.015), -0.2])
    def test_equals_engine_transfer(self, a):
        # without lifetime decay the model is the engine's averaged pi-pulse map
        omega0 = math.pi / 1e-3
        t = np.array([0.0, 0.5e-3, 1e-3, 3.3e-3, 7e-3])
        got = model_rabi_reflection(t, omega0, a, math.inf)
        want = [clock_rotation_transfer(omega0, float(tt), a) for tt in t]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_package_imports_without_scipy(self):
        src = os.path.dirname(os.path.dirname(tmqubit.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import tmqubit, tmqubit.cli, tmqubit.figures; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestExponential:
    def test_t_zero_gives_amplitude(self):
        assert model_exponential(0.0, 123.0, 4.0) == pytest.approx(123.0)

    def test_zero_amplitude(self):
        assert np.all(model_exponential(np.linspace(0, 5, 7), 0.0, 2.0) == 0.0)

    def test_cleaning_time_recovery(self):
        rng = np.random.default_rng(119)
        tau_true = 119e-6
        t = np.linspace(0, 0.8e-3, 12)
        truth = model_exponential(t, 900.0, tau_true)
        y = truth + rng.normal(0, 15.0, size=12)
        fit = least_squares(model_exponential, Dataset(t, y, np.full(12, 15.0)),
                            [800.0, 1e-4])
        assert abs(fit.params["tau"] - tau_true) <= 2 * fit.error("tau")


class TestEstimators:
    def test_p2p_equals_fitted_contrast_on_noiseless_fringe(self):
        x = np.linspace(-12.5, 12.5, 201)
        y = model_ramsey_fringe(x, 0.5, 0.84, 0.16, 0.0)
        c_est = peak_to_peak_contrast(Dataset(x, y))
        fit = least_squares(model_ramsey_fringe, Dataset(x, y),
                            [0.5, 0.8, 0.155, 0.0])
        assert c_est == pytest.approx(fit.params["c"], abs=1e-6)

    def test_p2p_conservative_under_drift(self):
        # slowly drifting fringe phase: the point spread can only widen
        rng = np.random.default_rng(5)
        x = np.tile(np.linspace(-12.5, 12.5, 40), 3)
        drift = np.repeat(rng.uniform(-0.6, 0.6, 3), 40)
        y = model_ramsey_fringe(x, 0.5, 0.8, 0.16, 0.0 + drift)
        ds = Dataset(x, y)
        fit = least_squares(model_ramsey_fringe, ds, [0.5, 0.8, 0.16, 0.0])
        assert peak_to_peak_contrast(ds) >= fit.params["c"] - 1e-9

    def test_p2p_needs_two_points(self):
        with pytest.raises(ValueError):
            peak_to_peak_contrast(Dataset([1.0], [2.0]))


class TestChi2Profile:
    def test_matches_covariance_for_quadratic_chi2(self):
        # gaussian ideal: rescale the injected noise so the fitted reduced
        # chi2 is exactly 1, where the +1 crossing and the covariance agree
        rng = np.random.default_rng(9)
        x = np.linspace(0, 10, 60)
        sigma = np.full(60, 0.5)
        noise = rng.normal(0, 0.5, size=60)

        def linear(x, a, b):
            return a * x + b

        first = least_squares(linear, Dataset(x, 3 * x + 2 + noise, sigma), [1, 1])
        noise *= math.sqrt(first.dof / first.chi2)
        fit = least_squares(linear, Dataset(x, 3 * x + 2 + noise, sigma),
                            [1, 1], ("a", "b"))
        assert fit.reduced_chi2 == pytest.approx(1.0, rel=1e-9)
        lo, hi = chi2_profile(fit, "a")
        s = fit.error("a")
        assert hi - fit.params["a"] == pytest.approx(s, rel=0.01)
        assert fit.params["a"] - lo == pytest.approx(s, rel=0.01)
        # the interval's ends are where the profiled curve reaches chi2_min + 1
        assert profile_chi2(fit, "a", fit.params["a"]) == pytest.approx(fit.chi2)
        for end in (lo, hi):
            assert profile_chi2(fit, "a", end) == pytest.approx(fit.chi2 + 1.0, abs=1e-6)

    def test_flat_profile_detected(self):
        # the d parameter's influence is bounded far below the chi2 = min+1
        # crossing, so the profile never closes
        x = np.linspace(0, 1, 8)

        def bounded(x, a, d):
            return a * x + 1e-4 * np.sin(d)

        fit = least_squares(bounded, Dataset(x, 2 * x), [1.0, 0.1], ("a", "d"))
        with pytest.raises(DegenerateProfile):
            chi2_profile(fit, "d", max_expand=25)


class TestMultistart:
    x = np.linspace(0.0, 4.0, 9)

    @staticmethod
    def cosine(x, w):
        if w < 0:   # a start the fitter cannot use
            raise FitNonConvergence(f"negative start {w}")
        return np.cos(w * x)

    def test_lowest_chi2_wins(self):
        ds = Dataset(self.x, np.cos(1.9 * self.x), np.full(9, 0.01))
        starts = ([0.4], [1.8], [3.0])
        chi2 = [least_squares(self.cosine, ds, s).chi2 for s in starts]
        assert chi2[0] > 1e3   # 0.4 settles in a side minimum
        for order in (starts, starts[::-1]):
            assert multistart(self.cosine, ds, order).chi2 == min(chi2)

    def test_failing_starts_are_skipped(self):
        ds = Dataset(self.x, np.cos(1.9 * self.x), np.full(9, 0.01))
        fit = multistart(self.cosine, ds, ([-1.0], [1.8], [-2.0]))
        assert fit.values[0] == pytest.approx(1.9)

    def test_last_error_is_raised_when_every_start_fails(self):
        ds = Dataset(self.x, np.cos(1.9 * self.x), np.full(9, 0.01))
        with pytest.raises(FitNonConvergence, match="negative start -2.0"):
            multistart(self.cosine, ds, ([-1.0], [-2.0]))
        with pytest.raises(FitError, match="dof"):
            multistart(self.cosine, Dataset([1.0], [1.0]), ([1.0], [2.0]))


class TestDataset:
    def test_csv_roundtrip(self, tmp_path):
        ds = Dataset(np.array([1.0, 2.0]), np.array([3.5, -1.0]), np.array([0.1, 0.2]))
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n1.0,3.5,0.1\n2.0,-1.0,0.2\n")
        back = Dataset.from_rows(read_csv(path))
        assert back.x == pytest.approx(ds.x)
        assert back.y == pytest.approx(ds.y)
        assert back.sigma == pytest.approx(ds.sigma)

    def test_missing_sigma_allowed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ds = Dataset.from_rows(read_csv(path))
        assert ds.sigma is None

    def test_sigma_positive_enforced(self):
        with pytest.raises(ValueError):
            Dataset([1.0], [1.0], [0.0])

    def test_registry_guesses_run(self):
        rng = np.random.default_rng(31)
        t = np.linspace(0.1, 20, 15)
        y = model_two_body_loss(t, 5000, 16.4, 2e-5) * (1 + 0.03 * rng.standard_normal(15))
        spec = MODELS["two_body_loss"]
        fit = least_squares(spec.func, Dataset(t, y), spec.guess(Dataset(t, y)))
        assert fit.params["n0"] == pytest.approx(5000, rel=0.2)
