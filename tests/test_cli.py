import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tmqubit.atom import AtomModel
from tmqubit.cli import main
from tmqubit.config import ConfigError, RunConfig, load_config
from tmqubit import figures, fitting
from tmqubit.fitting import read_csv, write_csv
from tmqubit.protocols import PROTOCOL_PARAMS, build_protocol
from tmqubit.readout import CrosstalkCalibration
from tmqubit.schedule import (_KINDS, _POSITIONAL, _SERIAL_NAMES, parse_sequence,
                              serialize_sequence)

RAMSEY_INI = """
[run]
seed = 7
shots = 20
atoms = 5000

[noise]
sigma_b_shot = 0

[loss]
tau = inf
beta_g4m4 = 0
beta_g40 = 0
beta_g30 = 0

[readout]
camera_floor = 0

[schedule]
name = ramsey
t = 0.08
bias_field = 0.1

[scan]
param = detuning
start = -6.25
stop = 6.25
points = 30
"""


@pytest.fixture()
def ramsey_config(tmp_path):
    path = tmp_path / "ramsey.ini"
    path.write_text(RAMSEY_INI)
    return str(path)


class TestConfig:
    def test_load_and_resolve(self, ramsey_config):
        cfg = load_config(ramsey_config)
        assert cfg.shots == 20
        assert cfg.schedule_name == "ramsey"
        assert len(cfg.scan_values) == 30
        assert cfg.noise.sigma_B_shot == 0.0
        assert math.isinf(cfg.loss.tau)
        cfg.model()

    def test_empty_sections_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\n[noise]\n")
        cfg = load_config(path)
        default = RunConfig()
        assert (cfg.noise.seed, cfg.shots, cfg.atoms) == (default.noise.seed, default.shots,
                                                          default.atoms)
        assert cfg.noise == default.noise

    def test_unknown_constant_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[constants]\nbogus_constant = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_describe_embeds_everything(self, ramsey_config):
        cfg = load_config(ramsey_config)
        lines = cfg.describe()
        assert [line for line in lines if "seed=" in line] == ["run.seed=7"]
        assert any(line.startswith("constants.gamma_qz=") for line in lines)
        assert any(line.startswith("schedule.name=ramsey") for line in lines)
        assert any(line.startswith("scan.param=detuning") for line in lines)

    @pytest.mark.parametrize("noise, drift", [
        ("", "none"),
        ("drift = random_walk", "random_walk(0.0,1.0)"),
        ("drift = random_walk\ndrift_step = 5e-5\ndrift_interval = 2",
         "random_walk(5e-05,2.0)"),
        ("drift = sinusoid", "sinusoid(0.0,1.0)"),
        ("drift = sinusoid\ndrift_period = 60\ndrift_amplitude = 3e-4",
         "sinusoid(0.0003,60.0)"),
    ])
    def test_describe_drift_lines(self, tmp_path, noise, drift):
        path = tmp_path / "drift.ini"
        path.write_text(f"[noise]\nsigma_b_shot = 0\n{noise}\n")
        dead = [] if drift == "none" else ["noise.inter_shot_dead_time=0.6"]
        assert [line for line in load_config(path).describe() if line.startswith("noise.")] == [
            "noise.sigma_b_shot=0.0", f"noise.drift={drift}", *dead,
            "noise.laser_phase_diffusion=0.0"]

    def test_header_names_the_drift_dead_time(self, tmp_path):
        # the dead time between shots sets the drift's wall clock, so two runs
        # that differ only in it must have different headers
        headers = []
        for dead in ("0.6", "5"):
            path = tmp_path / f"dead{dead}.ini"
            path.write_text(RAMSEY_INI.replace(
                "sigma_b_shot = 0", "sigma_b_shot = 0\ndrift = sinusoid\n"
                "drift_amplitude = 3e-4\ndrift_period = 11\n"
                f"inter_shot_dead_time = {dead}"))
            out = tmp_path / f"dead{dead}.csv"
            assert main(["simulate", "--config", str(path), "--shots", "1",
                         "--out", str(out)]) == 0
            headers.append([line for line in out.read_text().splitlines()
                            if line.startswith("# config")])
        assert headers[0] != headers[1]
        assert "# config noise.inter_shot_dead_time=5.0" in headers[1]


class TestSimulate:
    def test_row_count(self, ramsey_config, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", ramsey_config, "--shots", "20",
                     "--out", out]) == 0
        rows = read_csv(out)
        # 30 detunings x 20 shots x 4 measures
        assert len(rows) == 30 * 20 * 4

    def test_byte_identical_reruns(self, ramsey_config, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", ramsey_config, "--shots", "3", "--out", out1])
        main(["simulate", "--config", ramsey_config, "--shots", "3", "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_resonant_clean_saturates(self, tmp_path):
        # a 530 nm clean on resonance scatters every spectator atom at most
        # once: the run completes instead of taking the root of 1 - p < 0
        path = tmp_path / "prep.ini"
        path.write_text("[run]\nseed = 1\nshots = 2\n[schedule]\nname = prep\n"
                        "clean_detuning = 0\n")
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 4
        assert all(math.isfinite(float(r["raw"])) for r in rows)

    def test_invalid_schedule_name(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[schedule]\nname = frobnicate\n")
        out = str(tmp_path / "out.csv")
        code = main(["simulate", "--config", str(path), "--out", out])
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2

    @pytest.mark.parametrize("noise, field", [
        ("sigma_b_shot = -1e-4", "sigma_b_shot"),
        ("sigma_b_shot = nan", "sigma_b_shot"),
        ("drift = sinusoid\ndrift_amplitude = 3e-4\ndrift_period = 0", "drift_period"),
        ("drift = random_walk\ndrift_step = 1e-4\ndrift_interval = -1", "drift_interval"),
    ], ids=["negative_sigma", "nan_sigma", "zero_drift_period", "negative_drift_interval"])
    def test_invalid_noise_is_config_error(self, tmp_path, capsys, noise, field):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.replace("sigma_b_shot = 0", noise))
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [noise]")
        assert field in err.lower()

    @pytest.mark.parametrize("readout, field", [
        ("eps_43 = 1.5", "eps_43"),
        ("clock_pi_time = 0", "clock_pi_time"),
        ("probe_reference = -3e-4", "probe_reference"),
    ], ids=["eps_above_one", "zero_pi_time", "negative_probe_reference"])
    def test_invalid_readout_is_config_error(self, tmp_path, capsys, readout, field):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.replace("camera_floor = 0", readout))
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [readout]")
        assert field in err

    @pytest.mark.parametrize("value", ["0", "-1e-3"])
    def test_nonpositive_schedule_pi_time_is_config_error(self, tmp_path, capsys, value):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.replace("t = 0.08", f"t = 0.08\nclock_pi_time = {value}"))
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: [schedule] clock_pi_time")

    @pytest.mark.parametrize("timing", [
        "probe_duration = 0.3e-3", "dead_time = 8e-3", "clock_pi_time = 2e-3"])
    def test_calibration_inverts_the_schedule_readout_block(self, tmp_path, timing):
        # noiseless, lossless g30 atoms: the calibrated count is the atom number
        path = tmp_path / "lifetime.ini"
        path.write_text(RAMSEY_INI.replace("name = ramsey", f"name = lifetime\n{timing}")
                        .replace("t = 0.08", "t = 0.01").split("[scan]")[0])
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(path), "--shots", "1", "--out", out]) == 0
        calibrated = {r["measure"]: float(r["calibrated"]) for r in read_csv(out)}
        assert calibrated["N3_mf0"] == pytest.approx(5000.0, rel=1e-9)
        assert abs(calibrated["N4_mf0"]) < 1e-6

    def test_counts_below_camera_floor_are_flagged(self, tmp_path):
        # background N4 counts sit near zero, so camera noise of sd 20 puts
        # some between 0 and the floor: every row flags exactly raw < 20
        path = tmp_path / "floor.ini"
        path.write_text(RAMSEY_INI.replace("camera_floor = 0", "camera_floor = 20"))
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(path), "--shots", "4", "--out", out]) == 0
        rows = [(float(r["raw"]), int(r["low_confidence"])) for r in read_csv(out)]
        assert len(rows) == 30 * 4 * 4
        assert any(0.0 <= raw < 20.0 for raw, _ in rows)
        assert [low for _, low in rows] == [int(raw < 20.0) for raw, _ in rows]

    def test_zero_mw_pi_time_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.replace("t = 0.08", "t = 0.08\nmw_pi_time = 0"))
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: [schedule] mw_pi_time")

    def test_zero_scanned_pi_time_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.split("[scan]")[0]
                        + "[scan]\nparam = clock_pi_time\nvalues = 1e-3, 0\n")
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [scan] clock_pi_time = 0.0: clock_pi_time")

    def test_negative_schedule_time_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.replace("t = 0.08", "t = -0.08"))
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: [schedule] t = -0.08: ")

    def test_negative_scanned_time_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(RAMSEY_INI.split("[scan]")[0]
                        + "[scan]\nparam = t\nvalues = 0.01, -0.5\n")
        code = main(["simulate", "--config", str(path), "--shots", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: [scan] t = -0.5: ")

    def test_scan_over_readout_timing_calibrates_each_point(self, tmp_path):
        # noiseless, lossless g30 atoms: every point's calibrated count is the atom number
        path = tmp_path / "lifetime.ini"
        path.write_text(RAMSEY_INI.replace("name = ramsey", "name = lifetime")
                        .replace("t = 0.08", "t = 0.01").split("[scan]")[0]
                        + "[scan]\nparam = dead_time\nvalues = 4e-3, 8e-3\n")
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(path), "--shots", "1", "--out", out]) == 0
        n3 = {r["scan_value"]: float(r["calibrated"])
              for r in read_csv(out) if r["measure"] == "N3_mf0"}
        assert sorted(n3) == ["0.004", "0.008"]
        for value in n3.values():
            assert value == pytest.approx(5000.0, rel=1e-9)

    def test_readout_timing_key_wins_over_schedule(self, tmp_path):
        path = tmp_path / "both.ini"
        path.write_text(RAMSEY_INI.replace("t = 0.08", "t = 0.08\ndead_time = 8e-3\n"
                                           "probe_duration = 0.3e-3")
                        .replace("camera_floor = 0", "camera_floor = 0\ndead_time = 2e-3"))
        calib = load_config(path).calibration()
        assert calib.dead_time == 2e-3
        assert calib.probe_duration == 0.3e-3

    def test_config_embedded_for_provenance(self, ramsey_config, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["simulate", "--config", ramsey_config, "--shots", "2", "--out", out])
        header = Path(out).read_text().split("\n", 40)
        text = "\n".join(header)
        assert "# schema=1" in text
        assert "# config run.seed=7" in text
        assert "# config constants.tau_c=0.112" in text

    def test_scan_command_overrides(self, ramsey_config, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--config", ramsey_config, "--param", "detuning",
                     "--start", "-5", "--stop", "5", "--points", "3",
                     "--shots", "2", "--out", out]) == 0
        rows = read_csv(out)
        assert len({r["scan_value"] for r in rows}) == 3


class TestFit:
    def test_fringe_fit_from_simulate_output(self, ramsey_config, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["simulate", "--config", ramsey_config, "--shots", "4", "--out", out])
        report = str(tmp_path / "report.txt")
        assert main(["fit", "--model", "ramsey_fringe", "--data", out,
                     "--quantity", "eta4", "--out", report]) == 0
        text = Path(report).read_text()
        assert "# model=ramsey_fringe" in text
        values = dict(line.split(" = ") for line in text.splitlines()
                      if " = " in line and not line.startswith("#"))
        assert float(values["c"].split(" +- ")[0]) == pytest.approx(1.0, abs=0.01)

    def test_two_body_loss_recovery_end_to_end(self, tmp_path):
        ini = tmp_path / "life.ini"
        ini.write_text("""
[run]
seed = 1
shots = 16
atoms = 5000
[noise]
sigma_b_shot = 0
[loss]
tau = 16.4
beta_g4m4 = 0
beta_g40 = 0
beta_g30 = 3.2e-9
volume_cm3 = 1.6e-4
[schedule]
name = lifetime
state = g30
bias_field = 0.1
[scan]
param = t
start = 0.5
stop = 20
points = 15
""")
        out = str(tmp_path / "life.csv")
        main(["simulate", "--config", str(ini), "--out", out])
        report = str(tmp_path / "report.txt")
        assert main(["fit", "--model", "two_body_loss", "--data", out,
                     "--init", "5000,16.4,1e-5", "--out", report]) == 0
        values = {}
        for line in Path(report).read_text().splitlines(keepends=True):
            if " = " in line and not line.startswith("#"):
                key, _, rest = line.partition(" = ")
                values[key] = rest
        bv, bv_err = (float(v) for v in values["beta_over_v"].split(" +- "))
        assert abs(bv - 3.2e-9 / 1.6e-4) <= 2 * max(bv_err, 1e-7)

    def test_minimal_dof(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,1.0\n2,0.5\n4,0.3\n")
        assert main(["fit", "--model", "gaussian_decay", "--data", str(data),
                     "--init", "1.0,3.0"]) == 0

    def test_missing_sigma_noted(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.linspace(0, 10, 9)
        y = np.exp(-x / 4.0)
        data.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)))
        assert main(["fit", "--model", "exponential", "--data", str(data),
                     "--init", "1.0,3.0"]) == 0
        out = capsys.readouterr().out
        assert "unit weights" in out

    def test_unknown_model(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,1\n1,2\n")
        assert main(["fit", "--model", "nonsense", "--data", str(data)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        # two points cannot pin three parameters: dof error -> exit 3 path is
        # for non-convergence; dof misuse is a config error
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,1\n1,2\n2,-1\n4,3\n")
        code = main(["fit", "--model", "two_body_loss", "--data", str(data),
                     "--init", "1,1,1", "--multistart", "1"])
        assert code in (0, 3)

    def test_io_error_exit_code(self, tmp_path):
        code = main(["fit", "--model", "exponential",
                     "--data", str(tmp_path / "missing.csv")])
        assert code == 4


class TestReproduce:
    def test_unknown_figure(self, tmp_path):
        assert main(["reproduce", "--figure", "fig99",
                     "--out", str(tmp_path)]) == 2

    def test_fig6_double_overlay_is_tau_c_decay(self, tmp_path):
        outdir = str(tmp_path / "figs")
        assert main(["reproduce", "--figure", "fig6", "--out", outdir,
                     "--shots", "2", "--seed", "1"]) == 0
        rows = [line.split(",") for line in
                Path(outdir, "fig6_double.csv").read_text().splitlines(keepends=True)
                if not line.startswith("#") and line.strip()][1:]
        t = np.array([float(r[0]) for r in rows])
        overlay = np.array([float(r[3]) for r in rows])
        c0 = overlay[0]
        assert np.allclose(overlay, c0 * np.exp(-t / 0.112), rtol=1e-9)

    def test_fig2e_spans_250_periods(self, tmp_path):
        outdir = str(tmp_path / "figs")
        assert main(["reproduce", "--figure", "fig2e", "--out", outdir]) == 0
        rows = [line.split(",") for line in
                Path(outdir, "fig2e_rabi.csv").read_text().splitlines(keepends=True)
                if not line.startswith("#") and line.strip()][1:]
        t_max = max(float(r[0]) for r in rows)
        assert t_max >= 250 * 4e-3

    @pytest.mark.parametrize("figure, argv, columns, rows, fitted", [
        ("fig5_decoupling", ["--figure", "fig5", "--shots", "2"],
         ["n_pulses", "T_s", "eta_max", "eta_err", "contrast", "gaussian_overlay", "t2_fit"],
         30, ["gaussian_overlay", "t2_fit"]),
        ("fig7_readout_scan", ["--figure", "fig7", "--shots", "2"],
         ["probe_s", "n4_raw", "n4_err", "n3_raw", "n3_err", "parabola_fit",
          "exponential_fit"], 12, ["parabola_fit", "exponential_fit"]),
        ("fig8_clock_rabi", ["--figure", "fig8"], ["t_s", "eta", "fit", "no_reflection"],
         60, ["fit"]),
    ])
    def test_figure_table(self, tmp_path, figure, argv, columns, rows, fitted):
        outdir = tmp_path / "figs"
        assert main(["reproduce", "--out", str(outdir), *argv]) == 0
        table = read_csv(outdir / f"{figure}.csv")
        assert list(table[0]) == [c.lower() for c in columns]   # read_csv lower-cases
        assert len(table) == rows
        for name in fitted:
            assert all(math.isfinite(float(row[name])) for row in table)

    def test_fig10_includes_chi2_profile(self, tmp_path):
        outdir = str(tmp_path / "figs")
        assert main(["reproduce", "--figure", "fig10", "--out", outdir,
                     "--shots", "4"]) == 0
        text = Path(outdir, "fig10_chi2_profile.csv").read_text()
        assert "chi2" in text.splitlines()[-2] or "t2_s,chi2" in text
        assert "interval_lo" in text


class TestCalibrateReadout:
    def _scan_csv(self, tmp_path, eps=0.015, dep=0.085, seed=5):
        ini = tmp_path / "probe.ini"
        ini.write_text(f"""
[run]
seed = {seed}
shots = 25
atoms = 2000
[noise]
sigma_b_shot = 0
[loss]
tau = inf
beta_g4m4 = 0
beta_g40 = 0
beta_g30 = 0
[readout]
eps_43 = {eps}
dep_3 = {dep}
[schedule]
name = probe_scan
bias_field = 0.6
[scan]
param = t
start = 0.05e-3
stop = 1.2e-3
points = 12
""")
        out = str(tmp_path / "probe.csv")
        assert main(["simulate", "--config", str(ini), "--out", out]) == 0
        return out

    def test_closed_loop_recovers_defaults(self, tmp_path):
        out = self._scan_csv(tmp_path)
        calib_path = str(tmp_path / "calib.txt")
        assert main(["calibrate-readout", "--data", out, "--out", calib_path]) == 0
        calib = CrosstalkCalibration.load(calib_path)
        assert calib.eps_43 == pytest.approx(0.015, abs=0.003)
        assert calib.dep_3 == pytest.approx(0.085, abs=0.01)

    def test_fig7_and_calibrate_readout_aggregate_alike(self, tmp_path, monkeypatch):
        # fig7's per-shot counts, written as simulate output, calibrate to
        # the very fits fig7 reports
        scan = {}
        run_scan = figures.run_scan

        def scattered(points, *args, **kwargs):
            records = run_scan(points, *args, **kwargs)
            for (schedule, _, _), record in zip(points, records):
                # shot-to-shot scatter above the 1e-3 error floor
                record.raw["N4"] += 3.0 * record.shot_index
                record.raw["N3"] -= 5.0 * record.shot_index
                scan[schedule.events[0].probe_duration] = record
            return records

        monkeypatch.setattr(figures, "run_scan", scattered)
        (fig7,) = figures.fig7(str(tmp_path), seed=1, shots=4)
        rows = [("t", tau, rec.shot_index, label, 0.0, rec.raw[label], float("nan"), 0)
                for tau, records in scan.items() for rec in records for label in ("N4", "N3")]
        data = write_csv(tmp_path / "probe.csv", ("scan_param", "scan_value", "shot", "measure",
                                                  "t", "raw", "calibrated", "low_confidence"),
                         rows)
        report = tmp_path / "report.txt"
        assert main(["calibrate-readout", "--data", str(data), "--out",
                     str(tmp_path / "calib.txt"), "--report", str(report)]) == 0
        assert min(float(row["n4_err"]) for row in read_csv(fig7)) > 1e-3
        comments = Path(fig7).read_text()
        fits = Path(report).read_text()
        c = re.search(r"# parabola c=(\S+)", comments).group(1)
        tau = re.search(r"# exponential tau=(\S+)", comments).group(1)
        assert f"parabola_c = {c} +- " in fits
        assert f"tau_depletion = {tau} +- " in fits

    def test_zero_crosstalk_consistent_with_zero(self, tmp_path):
        out = self._scan_csv(tmp_path, eps=1e-12, dep=0.085)
        calib_path = str(tmp_path / "calib.txt")
        report = str(tmp_path / "report.txt")
        assert main(["calibrate-readout", "--data", out, "--out", calib_path,
                     "--report", report]) == 0
        text = Path(report).read_text()
        eps_line = [l for l in text.splitlines() if l.startswith("eps_43")][0]
        value, err = (float(v) for v in eps_line.split(" = ")[1].split(" +- "))
        assert abs(value) <= max(3 * err, 1e-3)


class TestScriptConfig:
    def test_schedule_from_script_file(self, tmp_path):
        seq = tmp_path / "custom.seq"
        seq.write_text("@bias_field 0.1\n"
                       "mw pi/2 0deg\nwait 10ms\nmw pi/2 0deg\n"
                       "measure N4\nmeasure N3\nmeasure N4_mf0\nmeasure N3_mf0\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nseed = 1\nshots = 2\n[schedule]\nscript = {seq}\n")
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(ini), "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 4

    def test_script_readout_uses_schedule_timings(self, tmp_path):
        # noiseless, lossless g30 atoms: the script's readout block is timed by
        # [schedule] like the calibration, so it inverts to the atom number
        shelve = "clock pi transition=g40-m30; clock pi transition=g30-m20\n"
        seq = tmp_path / "readout.seq"
        seq.write_text("@bias_field 100mG\n@initial_state g30\nwait 10ms\n" + shelve
                       + "measure N4\nmeasure N3\n" + shelve
                       + "measure N4_mf0\nmeasure N3_mf0\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nseed = 1\nshots = 1\natoms = 5000\n"
                       "[noise]\nsigma_b_shot = 0\n"
                       "[loss]\ntau = inf\nbeta_g4m4 = 0\nbeta_g40 = 0\nbeta_g30 = 0\n"
                       "[readout]\ncamera_floor = 0\n"
                       f"[schedule]\nscript = {seq}\ndead_time = 8e-3\n")
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", str(ini), "--out", out]) == 0
        calibrated = {r["measure"]: float(r["calibrated"]) for r in read_csv(out)}
        assert calibrated["N3_mf0"] == pytest.approx(5000.0, rel=1e-9)
        assert abs(calibrated["N4_mf0"]) < 1e-6

    def test_bad_script_reports_config_error(self, tmp_path):
        seq = tmp_path / "bad.seq"
        seq.write_text("wait -5ms\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[schedule]\nscript = {seq}\n")
        assert main(["simulate", "--config", str(ini),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_script_with_unknown_transition_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "bad.seq"
        seq.write_text("mw pi/2 0deg transition=g44-g33\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[schedule]\nscript = {seq}\n")
        assert main(["simulate", "--config", str(ini),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "unknown transition 'g44-g33'" in capsys.readouterr().err


class TestFitOptions:
    def test_multistart_finds_fringe_from_poor_init(self, tmp_path):
        data = tmp_path / "d.csv"
        x = np.linspace(-12.5, 12.5, 60)
        rng = np.random.default_rng(2)
        y = 0.5 + 0.45 * np.cos(math.pi * 0.16 * x + 0.3) + rng.normal(0, 0.01, 60)
        data.write_text("x,y,sigma\n" + "\n".join(
            f"{a},{b},0.01" for a, b in zip(x, y)))
        report = str(tmp_path / "r.txt")
        assert main(["fit", "--model", "ramsey_fringe", "--data", str(data),
                     "--init", "0.5,0.5,0.05,0", "--multistart", "12",
                     "--seed", "4", "--out", report]) == 0
        values = dict(line.split(" = ")
                      for line in Path(report).read_text().splitlines(keepends=True)
                      if " = " in line and not line.startswith("#"))
        t_fit = float(values["t"].split(" +- ")[0])
        assert abs(abs(t_fit) - 0.16) < 0.005

    def test_profile_flag_on_sigma_dataset(self, tmp_path):
        data = tmp_path / "d.csv"
        x = np.linspace(0.5, 20, 12)
        rng = np.random.default_rng(6)
        y = 800 * np.exp(-x / 6.0) + rng.normal(0, 8, 12)
        data.write_text("x,y,sigma\n" + "\n".join(
            f"{a},{b},8.0" for a, b in zip(x, y)))
        report = str(tmp_path / "r.txt")
        assert main(["fit", "--model", "exponential", "--data", str(data),
                     "--init", "700,5", "--profile", "tau",
                     "--out", report]) == 0
        text = Path(report).read_text()
        assert "profile.tau = " in text
        lo, hi = (float(v) for v in
                  [l for l in text.splitlines() if l.startswith("profile.tau")][0]
                  .split(" = ")[1].split())
        assert lo < 6.0 < hi

    def test_scan_single_point(self, ramsey_config, tmp_path):
        out = str(tmp_path / "one.csv")
        assert main(["scan", "--config", ramsey_config, "--param", "detuning",
                     "--start", "2.0", "--stop", "2.0", "--points", "1",
                     "--shots", "2", "--out", out]) == 0
        rows = read_csv(out)
        assert {r["scan_value"] for r in rows} == {"2.0"}


class TestWorkersAndProtocols:
    def test_clock_coherence_contrast_decays_with_storage(self, tmp_path):
        # eta4 at resonance falls toward 1/2 as the stored arm decays
        rows_by_t = {}
        ini = tmp_path / "clock.ini"
        ini.write_text("""
[run]
seed = 2
shots = 2
[noise]
sigma_b_shot = 0
[loss]
tau = inf
beta_g4m4 = 0
beta_g40 = 0
beta_g30 = 0
[readout]
camera_floor = 0
[schedule]
name = clock_coherence
mode = single
bias_field = 0.1
[scan]
param = t
start = 0
stop = 0.2
points = 2
""")
        out = str(tmp_path / "c.csv")
        assert main(["simulate", "--config", str(ini), "--out", out]) == 0
        from tmqubit.readout import ReadoutRecord

        for row in read_csv(out):
            t = float(row["scan_value"])
            rec = rows_by_t.setdefault(t, ReadoutRecord(shot_index=0))
            rec.raw[row["measure"]] = float(row["raw"])
        etas = {t: rec.eta4() for t, rec in rows_by_t.items()}
        # the optical 2 pi pulse flips the fringe: eta4 starts near 0 and
        # relaxes toward 1/2 as the stored coherence decays
        assert etas[0.0] < 0.1
        assert abs(etas[0.2] - 0.5) < abs(etas[0.0] - 0.5)


README = Path(__file__).resolve().parents[1] / "README.md"
SCRIPT = ("@bias_field 0.1\nmw pi/2 0deg\nwait 10ms\nmw pi/2 0deg\n"
          "measure N4\nmeasure N3\nmeasure N4_mf0\nmeasure N3_mf0\n")
SCRIPT_INI = "[run]\nshots = 1\n[schedule]\nscript = {tmp}/run.seq\n"
SIMULATE = ["simulate", "--config", "{tmp}/run.ini", "--shots", "1", "--out", "{tmp}/out.csv"]
SCAN = ["scan", "--config", "{tmp}/run.ini", "--shots", "1", "--out", "{tmp}/out.csv",
        "--start", "-1", "--stop", "1"]


SCHEDULE_ONLY_INI = RAMSEY_INI.split("[scan]")[0]   # one point, no scan
CP_N_SCAN_INI = (SCHEDULE_ONLY_INI.replace("name = ramsey", "name = cp")
                 + "[scan]\nparam = n\nvalues = 1, 2.5\n")


def _ini(old="", new=""):
    return {"run.ini": RAMSEY_INI.replace(old, new, 1), "run.seq": SCRIPT}


FIT_D = ["fit", "--model", "exponential", "--data", "{tmp}/d.csv"]
CALIBRATE_D = ["calibrate-readout", "--data", "{tmp}/d.csv", "--out", "{tmp}/c.txt"]
# a noiseless probe-duration scan that both crosstalk fits accept
PROBE_SCAN_CSV = ("scan_param,scan_value,shot,measure,t,raw,calibrated,low_confidence\n" + "".join(
    f"t,{tau!r},0,N4,0.0,{3e7 * tau * tau!r},nan,0\n"
    f"t,{tau!r},0,N3,0.0,{2000 * math.exp(-tau / 4.5e-3)!r},nan,0\n"
    for tau in (0.1e-3, 0.3e-3, 0.6e-3, 0.9e-3)))

# (files to write, command line, name the error must give); "{tmp}" is the
# test's directory.  Each input was accepted and did nothing, or ended in a
# traceback, before it was deleted or rejected.
IGNORED_INPUTS = [
    *[pytest.param(_ini("[run]", f"[constants]\n{key} = {value}\n[run]"), SIMULATE, key,
                   id=f"constants_{key}")
      for key, value in (("gamma_410", "1e7"), ("i_sat_410", "100"),
                         ("delta_530_hyperfine", "6e8"), ("tau_single_atom", "0.001"),
                         ("trap_volume_mm3", "0.2"), ("lattice_depth_recoils", "50"),
                         ("recoil_energy_hz", "2e3"))],
    pytest.param(_ini("t = 0.08", "t = 0.08\nprobe_s = 3"), SIMULATE, "probe_s",
                 id="schedule_probe_s"),
    pytest.param(_ini("t = 0.08", "t = 0.08\nprep_theta = 1"), SIMULATE, "prep_theta",
                 id="schedule_prep_theta"),
    pytest.param(_ini("t = 0.08", "tfree = 0.08"), SIMULATE, "tfree", id="schedule_typo"),
    pytest.param(_ini("t = 0.08", "t = 0.08\ntheta = 1"), SIMULATE, "theta",
                 id="schedule_key_of_another_protocol"),
    pytest.param(_ini("name = ramsey", "name = ramsey\nscript = {tmp}/run.seq"), SIMULATE,
                 "script", id="schedule_name_and_script"),
    pytest.param(_ini("name = ramsey", "name = cp\nn = 2.5"), SIMULATE,
                 "config error: [schedule] n = 2.5: ", id="schedule_cp_fractional_n"),
    pytest.param({"run.ini": CP_N_SCAN_INI}, SIMULATE, "config error: [scan] n = 2.5: ",
                 id="scan_cp_fractional_n"),
    pytest.param({"run.ini": SCHEDULE_ONLY_INI.replace("name = ramsey",
                                                       "name = lifetime\nstate = g99")},
                 SIMULATE, "config error: [schedule] state = 'g99': ",
                 id="schedule_unknown_initial_state"),
    pytest.param({"run.ini": SCRIPT_INI, "run.seq": "@initial_state g99\n" + SCRIPT}, SIMULATE,
                 "schedule error: initial_state 'g99'", id="script_unknown_initial_state"),
    pytest.param({"run.ini": SCHEDULE_ONLY_INI.replace("name = ramsey\nt = 0.08",
                                                       "name = probe_scan\nt = -1e-3")},
                 SIMULATE, "config error: [schedule] t = -0.001: event 0: negative "
                 "probe_duration", id="schedule_negative_probe_length"),
    pytest.param({"run.ini": SCRIPT_INI,
                  "run.seq": SCRIPT.replace("measure N4\n", "measure N4 probe_duration=-1ms\n")},
                 SIMULATE, "negative probe_duration -0.001", id="script_negative_probe_length"),
    pytest.param({"run.ini": SCRIPT_INI + "detuning = 2\n", "run.seq": SCRIPT}, SIMULATE,
                 "detuning", id="script_with_protocol_key"),
    pytest.param({"run.ini": SCRIPT_INI, "run.seq": SCRIPT.replace("measure N4\n",
                                                                  "measure N4 s=3\n")},
                 SIMULATE, "'s'", id="script_measure_s"),
    pytest.param({"run.ini": SCRIPT_INI, "run.seq": SCRIPT.replace("measure N4\n",
                                                                  "probe 5ms\nmeasure N4\n")},
                 SIMULATE, "sequence error: line 5: '5ms'", id="script_probe_positional"),
    pytest.param({"run.ini": SCRIPT_INI, "run.seq": SCRIPT.replace("measure N3\n",
                                                                  "measure N3 target_f=3.5\n")},
                 SIMULATE, "sequence error: line 6: 'target_f=3.5'",
                 id="script_fractional_target_f"),
    pytest.param({"run.ini": SCRIPT_INI, "run.seq": SCRIPT + "measure N4\n"}, SIMULATE,
                 "schedule error: event 7: measure label 'N4' repeats event 3",
                 id="script_repeated_label"),
    pytest.param(_ini("sigma_b_shot = 0", "sigma_B = 1e-4"), SIMULATE, "sigma_b",
                 id="noise_typo"),
    pytest.param(_ini("sigma_b_shot = 0", "sigma_b_shot = 0\ndrfit = sinusoid"), SIMULATE,
                 "drfit", id="noise_drift_typo"),
    pytest.param(_ini("sigma_b_shot = 0", "sigma_b_shot = 0\ndrift = sinusoid\n"
                      "drift_step = 1e-4"), SIMULATE, "drift_step", id="noise_other_drift_key"),
    pytest.param(_ini("sigma_b_shot = 0", "sigma_b_shot = 0\ndrift_amplitude = 3e-4"),
                 SIMULATE, "drift_amplitude", id="noise_drift_key_without_drift"),
    pytest.param(_ini("sigma_b_shot = 0", "sigma_b_shot = 0\ninter_shot_dead_time = 5"),
                 SIMULATE, "inter_shot_dead_time", id="noise_dead_time_without_drift"),
    pytest.param(_ini("beta_g30 = 0", "beta_g30 = 0\nbeta_g4m3 = 1e-9"), SIMULATE,
                 "beta_g4m3", id="loss_unknown_beta"),
    pytest.param(_ini("points = 30", "points = 30\nstpo = 5"), SIMULATE, "stpo",
                 id="scan_typo"),
    pytest.param(_ini("points = 30", "points = 30\nvalues = 1, 2"), SIMULATE, "values",
                 id="scan_values_and_grid"),
    pytest.param(_ini("points = 30", "points = 2.9"), SIMULATE,
                 "config error: [scan] points: not an integer: '2.9'", id="scan_fractional_points"),
    pytest.param(_ini("tau = inf", "tau = inf\ntable_field = 5"), SIMULATE,
                 "config error: [loss] table_field = 5: not a measured field; choose from 0.1, 0.6",
                 id="loss_unmeasured_table_field"),
    pytest.param(_ini("[run]", "[noize]\nsigma_b_shot = 1\n[run]"), SIMULATE, "noize",
                 id="unknown_section"),
    pytest.param(_ini(), SCAN + ["--param", "tt", "--points", "3"], "tt",
                 id="scan_param_not_read"),
    pytest.param(_ini(), SCAN + ["--param", "detuning", "--points", "0"], "--points",
                 id="scan_zero_points"),
    pytest.param({}, ["reproduce", "--figure", "fig8", "--out", "{tmp}/f", "--shots", "7"],
                 "--shots", id="reproduce_fig8_shots"),
    pytest.param({}, ["reproduce", "--figure", "fig2e", "--out", "{tmp}/f", "--shots", "7"],
                 "--shots", id="reproduce_fig2e_shots"),
    pytest.param({"d.csv": "x,y\n0,1.0\n2,0.5\n4,0.3\n"},
                 ["fit", "--model", "gaussian_decay", "--data", "{tmp}/d.csv",
                  "--init", "1.0,3.0", "--quantity", "eta4"], "--quantity",
                 id="fit_quantity_on_plain_csv"),
    pytest.param({"d.csv": PROBE_SCAN_CSV}, FIT_D + ["--quantity", "eta4"], "--quantity eta4",
                 id="fit_quantity_not_measured"),
    pytest.param({"d.csv": ""}, FIT_D, "d.csv: empty file", id="fit_empty_file"),
    pytest.param({"d.csv": "# schema=1\nt,n\n0,1\n1,2\n2,3\n"}, FIT_D,
                 "d.csv: column 'x'", id="fit_no_x_column"),
    pytest.param({"d.csv": "x,y\n0,1\n1,abc\n2,3\n"}, FIT_D, "d.csv: column 'y'",
                 id="fit_non_numeric_cell"),
    pytest.param({"d.csv": "x,y,sigma\n0,1,0.1\n1,2,0\n2,3,0.1\n"}, FIT_D,
                 "d.csv: column 'sigma'", id="fit_zero_sigma"),
    pytest.param({"d.csv": "x,y\n0,1\n1,nan\n2,3\n"}, FIT_D,
                 "d.csv: column 'y': not a finite number: nan", id="fit_non_finite_cell"),
    pytest.param({"d.csv": "x,y\n0,1\n1,0.5\n"},
                 ["fit", "--model", "two_body_loss", "--data", "{tmp}/d.csv"],
                 "d.csv: 2 points; model two_body_loss needs at least 4", id="fit_too_few_points"),
    pytest.param({"d.csv": "x,y\n0,1\n1,2\n2,3\n3,4\n"}, CALIBRATE_D,
                 "d.csv: column 'scan_value'", id="calibrate_plain_csv"),
    pytest.param({"d.csv": "# schema=1\n"}, CALIBRATE_D, "d.csv: empty file",
                 id="calibrate_empty_file"),
    pytest.param({"d.csv": "scan_param,scan_value,shot,measure,t,raw,calibrated,low_confidence\n"
                           + "".join(f"t,{tau},0,N4_mf0,0.0,1.0,nan,0\n" for tau in range(4))},
                 CALIBRATE_D, "d.csv: column 'measure' has no N4 rows",
                 id="calibrate_without_probe_counts"),
    pytest.param({"d.csv": PROBE_SCAN_CSV + "t,0.0001,1,N4,0.0,0.3,nan,0\n"}, CALIBRATE_D,
                 "d.csv: column 'shot'", id="calibrate_shot_without_every_measure"),
    *[pytest.param({"d.csv": PROBE_SCAN_CSV}, CALIBRATE_D + ["--probe-reference", value],
                   "--probe-reference", id=f"calibrate_probe_reference_{value}")
      for value in ("0", "-0.0004", "nan", "inf")],
    pytest.param({"d.csv": "x,y\n0,1.0\n2,0.5\n4,0.3\n"}, FIT_D + ["--init", "1,abc"],
                 "--init", id="fit_init_not_numbers"),
    pytest.param({"d.csv": "x,y\n0,1.0\n2,0.5\n4,0.3\n"},
                 FIT_D + ["--multistart", "5", "--profile", "bogus"], "--profile 'bogus'",
                 id="fit_profile_unknown_parameter"),
    pytest.param(_ini(), SIMULATE[:-2] + ["--shots", "0"] + SIMULATE[-2:], "--shots",
                 id="simulate_zero_shots"),
    pytest.param(_ini(), SCAN + ["--param", "detuning", "--points", "3", "--shots", "0"],
                 "--shots", id="scan_zero_shots"),
    pytest.param({}, ["reproduce", "--figure", "fig4", "--out", "{tmp}/f", "--shots", "0"],
                 "--shots", id="reproduce_zero_shots"),
    *[pytest.param({"d.csv": "x,y\n0,1.0\n2,0.5\n4,0.3\n"},
                   FIT_D + ["--multistart", value], "--multistart",
                   id=f"fit_multistart_{value}") for value in ("0", "-5")],
]


# [run] values the run cannot honour: no atoms (NaN rows), negative counts,
# and a shot count or seed that would be truncated
BAD_RUN_VALUES = [
    pytest.param("atoms = 5000", "atoms = 0", "[run] atoms must be > 0", id="atoms_zero"),
    pytest.param("atoms = 5000", "atoms = -5", "[run] atoms must be > 0", id="atoms_negative"),
    pytest.param("shots = 20", "shots = 2.9", "[run] shots", id="shots_fraction"),
    pytest.param("seed = 7", "seed = 1.5", "[run] seed", id="seed_fraction"),
]


@pytest.mark.parametrize("old, new, message", BAD_RUN_VALUES)
def test_bad_run_value_exits_2(tmp_path, capsys, old, new, message):
    path = tmp_path / "run.ini"
    path.write_text(RAMSEY_INI.replace(old, new, 1))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_integral_run_values_load(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(RAMSEY_INI.replace("shots = 20", "shots = 1e1", 1)
                    .replace("seed = 7", "seed = 18446744073709551615", 1))
    cfg = load_config(str(path))
    assert (cfg.shots, cfg.noise.seed) == (10, 2**64 - 1)


@pytest.mark.parametrize("files, argv, name", IGNORED_INPUTS)
def test_input_that_would_not_act_exits_2(tmp_path, capsys, files, argv, name):
    for filename, text in files.items():
        (tmp_path / filename).write_text(text.replace("{tmp}", str(tmp_path)))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    assert name in capsys.readouterr().err


def test_unknown_profile_parameter_fits_nothing(tmp_path, monkeypatch):
    calls, fit = [], fitting.least_squares
    monkeypatch.setattr(fitting, "least_squares",
                        lambda *args, **kw: calls.append(args) or fit(*args, **kw))
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0,1.0\n2,0.5\n4,0.3\n")
    assert main(["fit", "--model", "exponential", "--data", str(data), "--multistart", "5",
                 "--profile", "bogus"]) == 2
    assert calls == []


class TestReadme:
    def test_examples_are_accepted(self, tmp_path):
        text = README.read_text()
        ini = tmp_path / "readme.ini"
        ini.write_text(re.search(r"```ini\n(.*?)```", text, re.S).group(1))
        cfg = load_config(ini)
        build_protocol(cfg.schedule_name,
                       {**cfg.schedule_params, cfg.scan_param: cfg.scan_values[0]})
        script = parse_sequence(re.search(r"```\n(@name .*?)```", text, re.S).group(1),
                                model=AtomModel())
        assert len(script.events) == 7
        assert parse_sequence(serialize_sequence(script), model=AtomModel()) == script

    def test_sequence_kinds_table_matches_parser(self):
        rows = re.findall(r"^\| `(\w+)` \| (none|[`\w, ]+) \| ([`\w, ]+) \|$",
                          README.read_text(), re.M)
        table = {kind: (tuple(re.findall(r"`(\w+)`", positional)),
                        tuple(re.findall(r"`(\w+)`", keywords)))
                 for kind, positional, keywords in rows}
        assert table == {kind: (_POSITIONAL.get(cls, ()),
                                tuple(_SERIAL_NAMES.get(f.name, f.name)
                                      for f in dataclasses.fields(cls)))
                         for kind, cls in _KINDS.items()}
        assert len(table) == 7

    def test_schedule_keys_table_matches_protocols(self):
        rows = re.findall(r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+) \|$", README.read_text(), re.M)
        assert {name: tuple(re.findall(r"`(\w+)`", keys)) for name, keys in rows} == \
            PROTOCOL_PARAMS
