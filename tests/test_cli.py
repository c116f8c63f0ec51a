"""Tests for the config-driven CLI: exit codes, output files, determinism."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from epdifflab.cli import main
from epdifflab.config import ConfigError, load_config
from epdifflab.grid import TorusGrid
from epdifflab.operators import sobolev_multiplier
from epdifflab.scenarios import save_symbol_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_EVOLUTION = """\
[grid]
dimension = 1
points = 64

[metric]
kind = sobolev
s = 1.5

[integrator]
dt = 0.005
t_end = 0.05
cadence = 2

[scenario]
name = gaussian_blob
amplitude = 0.2
width = 0.15

[run]
seed = 1
norms = 1.5, 2.5
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_summary(out_dir):
    items = {}
    for line in (out_dir / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(":")
        items[key.strip()] = value.strip()
    return items


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 3

    @pytest.mark.parametrize(
        "mutation",
        [
            ("dimension = 1", "dimension = 5"),
            ("points = 64", "points = 63"),
            ("s = 1.5", "s = -1"),
            ("dt = 0.005", "dt = -0.1"),
            ("name = gaussian_blob", "name = warp_drive"),
            ("t_end = 0.05", "t_end = 0.052"),
            ("dt = 0.005", "dt = inf"),  # once ran zero steps and exited 0
            ("s = 1.5", "s = nan"),  # once raised from build_elliptic (exit 1)
            ("dt = 0.005", "dt = 1e300"),  # finite, but zero steps
            ("width = 0.15", "width = 1e-300"),  # once overflowed in the bump (exit 1)
            # once a 512 GiB allocation (exit 1)
            ("dimension = 1\npoints = 64", "dimension = 3\npoints = 4096"),
            ("s = 1.5", "s = 400"),  # fails the ellipticity check: once exit 1
            ("s = 1.5", "s = 1e308"),  # likewise
            ("t_end = 0.05", "t_end = 1e300"),  # once ran until killed
            # t_end/dt overflows to inf: once an OverflowError (exit 1)
            ("dt = 0.005\nt_end = 0.05", "dt = 1e-10\nt_end = 1e300"),
            # the symbol overflows on the lattice only: once a nan inverse
            # table and a blow-up verdict at t=0 (exit 2)
            ("dimension = 1\npoints = 64", "dimension = 1\npoints = 64\nlength = 1e-110"),
        ],
    )
    def test_bad_values_exit_3(self, tmp_path, mutation):
        old, new = mutation
        cfg = write_config(tmp_path, BASE_EVOLUTION.replace(old, new))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3

    @pytest.mark.parametrize("s", ["400", "1e308"])
    def test_rejected_symbol_warns_nothing(self, tmp_path, s):
        # the certificate overflows; it must fail without a numpy warning
        cfg = write_config(tmp_path, BASE_EVOLUTION.replace("s = 1.5", f"s = {s}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3

    def test_load_config_fields(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_EVOLUTION))
        assert cfg.dimension == 1 and cfg.points == 64
        assert cfg.norms == (1.5, 2.5)
        assert cfg.scenario == "gaussian_blob"
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.ini")


class TestListScenarios:
    def test_contains_all_names(self, capsys):
        assert main(["list-scenarios"]) == 0
        text = capsys.readouterr().out
        for name in ("gaussian_blob", "conjugation_audit", "peakon_pair",
                     "symbol_audit", "consistency", "random_bandlimited"):
            assert name in text

    def test_stable_output(self, capsys):
        main(["list-scenarios"])
        first = capsys.readouterr().out
        main(["list-scenarios"])
        second = capsys.readouterr().out
        assert first == second


class TestEvolutionRuns:
    def test_smooth_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        csv_lines = (out / "diagnostics.csv").read_text().splitlines()
        header = csv_lines[0].split(",")
        assert header == ["t", "energy", "mom_1", "sup_grad_u", "h_norm_1.5", "h_norm_2.5"]
        rows = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
        assert np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 0]) > 0)  # monotone time
        summary = read_summary(out)
        assert summary["blowup"] == "none"
        assert summary["status"] == "completed"

    def test_deterministic_csv(self, tmp_path):
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
        assert main(["run", str(cfg), "--output-dir", str(out2), "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_seed_override_changes_random_data(self, tmp_path):
        text = BASE_EVOLUTION.replace("name = gaussian_blob", "name = random_bandlimited")
        text = text.replace("amplitude = 0.2", "kmax = 6").replace("width = 0.15", "target_norm = 0.5")
        cfg = write_config(tmp_path, text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--output-dir", str(out1), "--seed", "1", "--quiet"]) == 0
        assert main(["run", str(cfg), "--output-dir", str(out2), "--seed", "2", "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_text() != (out2 / "diagnostics.csv").read_text()

    def test_blowup_exit_code_and_outputs(self, tmp_path):
        text = """\
[grid]
dimension = 1
points = 64

[metric]
kind = sobolev
s = 1.0

[integrator]
dt = 0.002
t_end = 2.0
cadence = 50

[scenario]
name = peakon_pair
amplitude = 0.8
separation = 0.3
width = 0.08

[run]
blowup_threshold = 60
norms = 1.0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
        summary = read_summary(out)
        assert summary["blowup"].startswith("t=")
        t_star = float(summary["blowup"].split()[0][2:])
        assert 0 < t_star < 2.0
        assert "confirmed=True" in summary["blowup"]
        # the CSV still parses cleanly up to the declared halt
        csv_lines = (out / "diagnostics.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
        assert np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert rows[-1, 0] == pytest.approx(t_star)

    def test_quiet_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        main(["run", str(cfg), "--output-dir", str(tmp_path / "o1"), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["run", str(cfg), "--output-dir", str(tmp_path / "o2")])
        assert "energy=" in capsys.readouterr().out

    def test_2d_evolution_csv_columns(self, tmp_path):
        text = """\
[grid]
dimension = 2
points = 16

[metric]
kind = sobolev
s = 1.5

[integrator]
dt = 0.01
t_end = 0.05
cadence = 1

[scenario]
name = gaussian_blob
amplitude = 0.1
width = 0.2

[run]
norms = 1.5
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        csv_lines = (out / "diagnostics.csv").read_text().splitlines()
        assert csv_lines[0].split(",") == ["t", "energy", "mom_1", "mom_2", "sup_grad_u", "h_norm_1.5"]
        rows = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
        assert np.all(np.isfinite(rows)) and rows.shape[1] == 6

    def test_nan_abort_maps_to_exit_4(self, tmp_path, monkeypatch):
        import epdifflab.scenarios as sc
        from epdifflab.epdiff import IntegrationResult, diagnostics

        def aborting_integrate(mult, state, t_end, dt, cadence=1, norm_orders=(),
                               grad_threshold=None, callback=None):
            d = diagnostics(mult, state, norm_orders)
            if callback:
                callback(d)
            return IntegrationResult("nan_abort", state, [d], t_halt=state.t, dt=dt)

        monkeypatch.setattr(sc, "integrate", aborting_integrate)
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 4
        assert read_summary(out)["status"] == "nan_abort"


class TestCustomTable:
    def test_table_metric_matches_sobolev(self, tmp_path):
        grid = TorusGrid(1, 64)
        save_symbol_table(tmp_path / "table.npz", sobolev_multiplier(1.5, grid))
        cfg_sob = write_config(tmp_path, BASE_EVOLUTION, name="sob.ini")
        table_text = BASE_EVOLUTION.replace(
            "kind = sobolev\ns = 1.5", "kind = custom-table\ntable = table.npz"
        )
        cfg_tab = write_config(tmp_path, table_text, name="tab.ini")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_sob), "--output-dir", str(out1), "--quiet"]) == 0
        assert main(["run", str(cfg_tab), "--output-dir", str(out2), "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    def test_wrong_shape_rejected(self, tmp_path):
        grid = TorusGrid(1, 32)
        save_symbol_table(tmp_path / "table.npz", sobolev_multiplier(1.5, grid))
        table_text = BASE_EVOLUTION.replace(
            "kind = sobolev\ns = 1.5", "kind = custom-table\ntable = table.npz"
        )
        cfg = write_config(tmp_path, table_text)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3


class TestAudits:
    def test_sobolev_symbol_audit_all_pass(self, tmp_path):
        text = """\
[grid]
dimension = 1
points = 64

[metric]
kind = sobolev
s = 1.5

[scenario]
name = symbol_audit
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert read_summary(out)["all_pass"] == "True"
        cert_text = (out / "certificates.txt").read_text()
        assert "order_estimate" in cert_text and "square_root" in cert_text

    @pytest.mark.parametrize("t,expect", [(1.9, "pass"), (2.1, "fail")])
    def test_shear_family_strong_ellipticity_pair(self, tmp_path, t, expect):
        text = f"""\
[grid]
dimension = 2
points = 16

[metric]
kind = sobolev
s = 1.0

[scenario]
name = symbol_audit
symbol = shear_laplacian
shear_t = {t}
sphere_samples = 10000
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        cert_text = (out / "certificates.txt").read_text()
        block = cert_text.split("[strong_ellipticity]")[1].split("[")[0]
        assert f"verdict: {expect}" in block
        normal = cert_text.split("[normal_ellipticity]")[1].split("[")[0]
        assert "verdict: pass" in normal

    def test_conjugation_audit(self, tmp_path):
        text = """\
[grid]
dimension = 1
points = 16

[metric]
kind = sobolev
s = 1.0

[scenario]
name = conjugation_audit
draws = 3
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert read_summary(out)["all_pass"] == "True"
        cert_text = (out / "certificates.txt").read_text()
        assert "oracle_equivalence_n1" in cert_text
        assert "frozen_tensor_identity_n2" in cert_text

    def test_conjugation_audit_guard(self, tmp_path):
        text = """\
[grid]
dimension = 1
points = 64

[metric]
kind = sobolev
s = 1.0

[scenario]
name = conjugation_audit
"""
        cfg = write_config(tmp_path, text)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "o"), "--quiet"]) == 3


class TestConsistencyScenario:
    def test_runs_and_reports(self, tmp_path):
        text = """\
[grid]
dimension = 1
points = 64

[metric]
kind = sobolev
s = 1.5

[integrator]
dt = 0.002
t_end = 0.02
cadence = 5

[scenario]
name = consistency
amplitude = 0.2
width = 0.15
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        summary = read_summary(out)
        assert summary["consistency_pass"] == "True"
        assert float(summary["sup_velocity_gap"]) < 1e-6

    def test_stalled_inversion_exits_4(self, tmp_path, capsys):
        # the shipped config with a large datum: the inverse chart's Newton
        # iteration stalls, once a traceback (exit 1)
        text = (CONFIGS / "consistency.ini").read_text()
        assert "amplitude = 0.25" in text
        cfg = write_config(tmp_path, text.replace("amplitude = 0.25", "amplitude = 50"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical abort: inverse chart")
