"""Tests for the config-driven CLI: exit codes, output files, determinism."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from epdifflab.cli import main
from epdifflab.config import MAX_DRAWS, MAX_SPHERE_SAMPLES, ConfigError, load_config
from epdifflab.epdiff import step_count
from epdifflab.grid import TorusGrid
from epdifflab.operators import sobolev_multiplier
from epdifflab.scenarios import SCENARIOS

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


TINY_BOX_AUDIT = """\
[grid]
dimension = {dimension}
points = 8
length = 1e-200

[metric]
s = 0

[scenario]
name = conjugation_audit
draws = 1
"""


def save_symbol_table(path, mult):
    """A multiplier's lattice table in the custom-table npz format."""
    np.savez(
        path,
        table=mult.table,
        order=np.float64(mult.symbol.order),
        hermitian=np.bool_(mult.symbol.hermitian),
        positive_definite=np.bool_(mult.symbol.positive_definite),
    )


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
            # table and a blow-up verdict at t=0 (exit 2); the [run] norms
            # check now rejects this config first, and the lattice_overflow
            # cases of test_unusable_inputs_exit_3 reach the inverse table
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

    @pytest.mark.parametrize("text,names", [
        # np.load raised ValueError on a text file (exit 1)
        (BASE_EVOLUTION.replace("kind = sobolev\ns = 1.5", "kind = custom-table\ntable = bad.npz"),
         "bad.npz"),
        # lam**degree overflowed in the homogeneity check (OverflowError, exit 1)
        ("[grid]\ndimension = 2\npoints = 16\n[metric]\ns = 400\n[scenario]\nname = symbol_audit\n",
         "[metric] s"),
        # wrote h_norm_1e+300 = inf in every row and exited 0
        (BASE_EVOLUTION.replace("points = 64", "points = 16").replace("norms = 1.5, 2.5", "norms = 1e300"),
         "[run] norms"),
        # an energy of inf: once a blow-up verdict at t=0 (exit 2) after overflow warnings
        (BASE_EVOLUTION.replace("points = 64", "points = 16").replace("dt = 0.005", "dt = 0.01")
         .replace("amplitude = 0.2", "amplitude = 1e300"), "[scenario] gaussian_blob"),
        # a finite energy, but no substep the CFL guard accepts: likewise
        (BASE_EVOLUTION.replace("points = 64", "points = 16").replace("dt = 0.005", "dt = 0.01")
         .replace("name = gaussian_blob\namplitude = 0.2\nwidth = 0.15",
                  "name = random_bandlimited\ntarget_norm = 1e150"),
         "[scenario] random_bandlimited"),
        # below the initial gradient (about 0.72): once a blow-up verdict at t=0 (exit 2)
        (BASE_EVOLUTION + "blowup_threshold = 0.5\n", "[run] blowup_threshold"),
        # L^(-2) overflowed in the convolution oracle: once an OverflowError (exit 1)
        (TINY_BOX_AUDIT.format(dimension=1), "length 1e-200"),
        # L^2 underflowed to 0 in the padded pass: once a ZeroDivisionError (exit 1)
        (TINY_BOX_AUDIT.format(dimension=2), "[grid] length 1e-200"),
        # a misspelled key: once ignored, so the run used the default amplitude (exit 0)
        (BASE_EVOLUTION.replace("amplitude = 0.2", "amplitdue = 0.9"), "[scenario] amplitdue"),
        # misspelled keys of the fixed sections: once a run at length 1 and
        # seed 0 with no h_norm column (exit 0)
        (BASE_EVOLUTION.replace("points = 64", "points = 64\nlenght = 2.0")
         .replace("cadence = 2", "cadance = 1").replace("seed = 1\nnorms = 1.5, 2.5", "seeed = 3\nnorm = 1.5"),
         "[grid] lenght"),
        (BASE_EVOLUTION + "\n[extra]\nseed = 3\n", "unknown section [extra]"),
        # read only by shear_laplacian audits: once ignored, auditing the metric (exit 0)
        ("[grid]\ndimension = 2\npoints = 16\n[metric]\ns = 1.0\n[scenario]\nname = symbol_audit\n"
         "shear_t = 5\nsphere_samples = 64\n", "[scenario] shear_t"),
        # the symbol overflows on the lattice only (inf * 0 is nan on either
        # inverse route); no [run] norms, whose weights would overflow first,
        # and at d=3 a length the cell volume allows, so s = 2
        *[(BASE_EVOLUTION.replace("norms = 1.5, 2.5\n", "").replace("dimension = 1\npoints = 64", grid)
           .replace("s = 1.5", metric), "[metric] inverse table residual nan exceeds 1e-13")
          for grid, metric in (("dimension = 1\npoints = 64\nlength = 1e-110", "s = 1.5"),
                               ("dimension = 2\npoints = 16\nlength = 1e-110", "s = 1.5"),
                               ("dimension = 3\npoints = 8\nlength = 1e-100", "s = 2"))],
    ], ids=["unreadable_table", "audit_symbol_overflow", "norm_weight_overflow", "datum_energy_overflow",
            "datum_beyond_cfl_guard", "threshold_below_initial_gradient", "box_overflows_oracle",
            "box_volume_underflows", "misspelled_scenario_key", "misspelled_fixed_keys", "unknown_section",
            "shear_t_without_shear_laplacian", "lattice_overflow_d1", "lattice_overflow_d2",
            "lattice_overflow_d3"])
    def test_unusable_inputs_exit_3(self, tmp_path, capsys, text, names):
        (tmp_path / "bad.npz").write_text("not an archive\n")
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and names in err[0]

    @pytest.mark.parametrize("cap", [15, 20])
    def test_step_cap_covers_the_confirmation_rerun(self, tmp_path, capsys, monkeypatch, cap):
        # 10 steps of dt, and 20 in the dt/2 rerun that confirms a blow-up:
        # under a cap of 15 that rerun once raised a ValueError (exit 1)
        monkeypatch.setattr("epdifflab.epdiff.MAX_STEPS", cap)
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        if cap < 20:
            with pytest.raises(ConfigError, match="dt/2 rerun"):
                load_config(cfg)
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
            assert capsys.readouterr().err.startswith("config error: [integrator]")
        else:
            assert load_config(cfg).dt == 0.005

    @pytest.mark.parametrize("t_end, steps", [("0.0500000005", 10), ("0.0500001", None)])
    def test_config_and_integrator_share_the_step_rule(self, tmp_path, t_end, steps):
        # 0.0500000005 is 10 steps of 0.005 within the integrators' tolerance
        cfg = write_config(tmp_path, BASE_EVOLUTION.replace("t_end = 0.05", f"t_end = {t_end}"))
        out = tmp_path / "out"
        if steps is None:
            with pytest.raises(ValueError):
                step_count(0.0, float(t_end), 0.005)
            with pytest.raises(ConfigError):
                load_config(cfg)
            assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 3
            return
        assert step_count(0.0, float(t_end), 0.005) == steps
        loaded = load_config(cfg)
        assert step_count(0.0, loaded.t_end, loaded.dt) == steps
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert float(read_summary(out)["t_final"]) == pytest.approx(steps * 0.005, abs=0)

    def test_load_config_fields(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_EVOLUTION))
        assert cfg.dimension == 1 and cfg.points == 64
        assert cfg.norms == (1.5, 2.5)
        assert cfg.scenario == "gaussian_blob"
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.ini")


class TestScenarioRegistry:
    MINIMAL = """\
[grid]
dimension = 1
points = 16

[metric]
kind = sobolev
s = 1.0

[scenario]
name = {name}
"""
    INTEGRATOR = "\n[integrator]\ndt = 0.01\nt_end = 0.1\n"

    def test_every_listed_name_loads(self, tmp_path, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line for line in lines[2:] if line and not line.startswith(" ")]
        assert names == list(SCENARIOS)
        for name in names:
            cfg = write_config(tmp_path, self.MINIMAL.format(name=name) + self.INTEGRATOR)
            assert load_config(cfg).scenario == name
        # the exit code of an unknown name is a case of test_bad_values_exit_3
        cfg = write_config(tmp_path, self.MINIMAL.format(name="warp_drive") + self.INTEGRATOR)
        with pytest.raises(ConfigError, match="unknown scenario 'warp_drive'; choose one of gaussian_blob,"):
            load_config(cfg)

    def test_integrator_required_exactly_when_flagged(self, tmp_path):
        for name, entry in SCENARIOS.items():
            cfg = write_config(tmp_path, self.MINIMAL.format(name=name))
            if entry.initial is not None:
                with pytest.raises(ConfigError, match=r"needs an \[integrator\] section"):
                    load_config(cfg)
            else:
                assert load_config(cfg).scenario == name
        needing = {name for name, entry in SCENARIOS.items() if entry.initial is not None}
        assert needing == {"gaussian_blob", "random_bandlimited", "peakon_pair", "consistency"}

    def test_scenario_keys_are_exactly_the_listed_ones(self, tmp_path):
        every = {key for entry in SCENARIOS.values() for key in entry.keys}
        for name, entry in SCENARIOS.items():
            text = self.MINIMAL.format(name=name) + "".join(f"{key} = 1\n" for key in entry.keys)
            cfg = write_config(tmp_path, text + self.INTEGRATOR)
            assert load_config(cfg).scenario_params == dict.fromkeys(entry.keys, "1")
            for key in sorted(every - set(entry.keys)):
                cfg = write_config(tmp_path, text + f"{key} = 1\n" + self.INTEGRATOR)
                with pytest.raises(ConfigError, match=rf"\[scenario\] {key}: not read by '{name}'"):
                    load_config(cfg)


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
            d = diagnostics(state, norm_orders)
            if callback:
                callback(d)
            return IntegrationResult("nan_abort", state, [d], t_halt=state.t)

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

    def test_table_breaking_conjugate_symmetry_rejected(self, tmp_path, capsys):
        # a real field's momentum is read through bins 0..n/2 only, and the
        # step rebuilds bin -3 from bin 3, so the entry at k = -3 would act
        # only where the run never looks
        save_symbol_table(tmp_path / "table.npz", sobolev_multiplier(1.5, TorusGrid(1, 64)))
        arrays = dict(np.load(tmp_path / "table.npz"))
        arrays["table"][-3] *= 1.5
        np.savez(tmp_path / "table.npz", **arrays)
        cfg = write_config(tmp_path, BASE_EVOLUTION.replace(
            "kind = sobolev\ns = 1.5", "kind = custom-table\ntable = table.npz"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "a(-k) = conj(a(k))" in err[0] and "k=[3]" in err[0]

    def test_singular_table_rejected(self, tmp_path, capsys):
        # zero at k = +-20: the certificate passes, and np.linalg.inv once
        # raised LinAlgError, a numerical abort (exit 4)
        save_symbol_table(tmp_path / "table.npz", sobolev_multiplier(1.0, TorusGrid(1, 64)))
        arrays = dict(np.load(tmp_path / "table.npz"))
        arrays["table"][[20, -20]] = 0.0
        np.savez(tmp_path / "table.npz", **arrays)
        cfg = write_config(tmp_path, BASE_EVOLUTION.replace(
            "kind = sobolev\ns = 1.5", "kind = custom-table\ntable = table.npz"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "singular at k=[20]" in err[0]

    @pytest.mark.parametrize("matrix,flag", [
        ([[1.0, 0.05], [0.0, 1.0]], "Hermitian"),
        ([[1.0, 0.0], [0.0, -1.0]], "positive definite"),
    ])
    def test_table_contradicting_its_flags_rejected(self, tmp_path, capsys, matrix, flag):
        # no flags in the file, so both default to true; the table breaks one
        grid = TorusGrid(2, 64)
        k2 = np.sum((2 * np.pi * grid.frequency_points()) ** 2, axis=-1)
        weight = ((1 + k2) ** 1.5).reshape(grid.shape)
        np.savez(tmp_path / "table.npz", table=weight[..., None, None] * np.array(matrix),
                 order=np.float64(3))
        cfg = write_config(tmp_path, """\
[grid]
dimension = 2
points = 64

[metric]
kind = custom-table
table = table.npz

[scenario]
name = symbol_audit
""")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and f"not {flag}" in err[0]


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

    def test_symbol_audit_certifies_ellipticity_once_per_symbol(self, tmp_path, monkeypatch):
        # the gate on the Sobolev metric and the report share one certificate:
        # one call for the symbol, one for its square root
        import epdifflab.operators as operators
        import epdifflab.scenarios as scenarios

        calls = []
        check = scenarios.check_ellipticity

        def counted(symbol, *args, **kwargs):
            calls.append(symbol.name)
            return check(symbol, *args, **kwargs)

        monkeypatch.setattr(scenarios, "check_ellipticity", counted)
        monkeypatch.setattr(operators, "check_ellipticity", counted)
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "symbol_audit.ini"), "--output-dir", str(out), "--quiet"]) == 0
        assert calls == ["sobolev(s=1.5)", "sqrt(sobolev(s=1.5))"]
        assert "[ellipticity]\nkind: elliptic\nverdict: pass" in (out / "certificates.txt").read_text()

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

    def test_conjugation_audit_guard(self, tmp_path, capsys):
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
        assert "cost guard" in capsys.readouterr().err


class TestAuditGuards:
    @pytest.mark.parametrize(
        "config,line,value",
        [
            # once a 745 GiB allocation in the sphere sampler (exit 1)
            ("symbol_audit.ini", "name = symbol_audit", "sphere_samples = 100000000000"),
            ("symbol_audit.ini", "name = symbol_audit", f"sphere_samples = {MAX_SPHERE_SAMPLES + 1}"),
            ("shear_audit.ini", "sphere_samples = 10000", f"sphere_samples = {MAX_SPHERE_SAMPLES + 1}"),
            # once ran until killed
            ("conjugation_audit.ini", "draws = 10", "draws = 100000000000"),
            ("conjugation_audit.ini", "draws = 10", f"draws = {MAX_DRAWS + 1}"),
        ],
    )
    def test_unbounded_keys_exit_3(self, tmp_path, capsys, config, line, value):
        text = (CONFIGS / config).read_text()
        assert line in text
        if line.startswith("name"):
            value = f"{line}\n{value}"
        cfg = write_config(tmp_path, text.replace(line, value))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: [scenario]") and "must be <=" in err

    @pytest.mark.parametrize("config", ["symbol_audit.ini", "shear_audit.ini", "conjugation_audit.ini"])
    def test_shipped_audits_within_bounds(self, tmp_path, config):
        assert main(["run", str(CONFIGS / config), "--output-dir", str(tmp_path), "--quiet"]) == 0


class TestExitZeroIsNotAVerdict:
    """Exit 0 says the run finished; a failing verdict lives in summary.txt."""

    def test_failing_audit_exits_0(self, tmp_path):
        text = (CONFIGS / "shear_audit.ini").read_text()
        assert "shear_t = 1.9" in text
        cfg = write_config(tmp_path, text.replace("shear_t = 1.9", "shear_t = 2.1"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert read_summary(out)["all_pass"] == "False"

    def test_failing_consistency_exits_0(self, tmp_path):
        text = (CONFIGS / "consistency.ini").read_text()
        assert "points = 256" in text and "tolerance = 1e-6" in text
        text = text.replace("points = 256", "points = 32").replace("tolerance = 1e-6", "tolerance = 1e-300")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert read_summary(out)["consistency_pass"] == "False"


class TestErrorsRaisedInARun:
    """A ValueError or LinAlgError raised while a scenario computes exits 4
    with one stderr line, not a traceback; a ConfigError, also a ValueError,
    still exits 3."""

    @pytest.mark.parametrize("error, code, line", [
        (ValueError("operands could not be\nbroadcast"), 4,
         "numerical abort: ValueError: operands could not be broadcast"),
        (np.linalg.LinAlgError("Singular matrix"), 4, "numerical abort: LinAlgError: Singular matrix"),
        (ConfigError("[scenario] width must be positive"), 3, "config error: [scenario] width must be positive"),
    ])
    def test_raising_scenario(self, tmp_path, capsys, monkeypatch, error, code, line):
        import epdifflab.scenarios as sc

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setitem(sc.SCENARIOS, "gaussian_blob", sc.SCENARIOS["gaussian_blob"]._replace(run=raising))
        cfg = write_config(tmp_path, BASE_EVOLUTION)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == code
        assert capsys.readouterr().err.splitlines() == [line]


class TestOutputDirectory:
    """An output directory that cannot be created exits 3 with one stderr
    line, once a FileExistsError or NotADirectoryError traceback (exit 1)."""

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("source", ["--output-dir", "[run] output"])
    def test_a_file_on_the_path_exits_3(self, tmp_path, capsys, source, below):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        text = (CONFIGS / "symbol_audit.ini").read_text()
        assert "output = out/symbol_audit" in text
        args = ["run"]
        if source == "--output-dir":
            args += [str(write_config(tmp_path, text)), "--output-dir", str(out)]
        else:
            args.append(str(write_config(tmp_path, text.replace("output = out/symbol_audit", f"output = {out}"))))
        assert main(args + ["--quiet"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: output directory {out} cannot be created")


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

    def test_bad_tolerance_exits_3_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # both solvers once ran before the tolerance was read
        import epdifflab.scenarios as sc

        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran before the config was validated")

        monkeypatch.setattr(sc, "integrate", no_solve)
        monkeypatch.setattr(sc, "integrate_geodesic", no_solve)
        text = (CONFIGS / "consistency.ini").read_text()
        assert "tolerance = 1e-6" in text
        cfg = write_config(tmp_path, text.replace("tolerance = 1e-6", "tolerance = -1"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("config error: [scenario] tolerance")

    def test_stalled_inversion_exits_4(self, tmp_path, capsys):
        # the shipped config with a large datum: the inverse chart's Newton
        # iteration stalls, once a traceback (exit 1)
        text = (CONFIGS / "consistency.ini").read_text()
        assert "amplitude = 0.25" in text
        cfg = write_config(tmp_path, text.replace("amplitude = 0.25", "amplitude = 50"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical abort: inverse chart")
        # the aborted run still says what it did
        assert (out / "summary.txt").read_text() == "scenario: consistency\nstatus: inversion_abort\n"
