"""Experiment orchestration, configuration files, and the command line."""
import numpy as np
import pytest

import lslimaging.forward
from lslimaging import (
    ExperimentError,
    GaussianPotential,
    Grid,
    StepPotential,
    ZeroPotential,
    assemble_operator,
    load_dataset,
    operator_eigenvalues,
    read_summary,
    run_experiment,
)
from lslimaging.cli import main
from lslimaging.experiment import (
    OUTPUT_FILES,
    config_from_mapping,
    default_internal_lambda,
    parse_config_text,
    preset_config,
    preset_potential,
    write_table,
)

FAST = dict(n=401, N=3, f=3)  # keeps orchestration tests quick


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        text = "# a comment\nL = 2.0\nn = 101  # trailing\n\npotential = gaussian\n"
        mapping = parse_config_text(text)
        assert mapping == {"L": "2.0", "n": "101", "potential": "gaussian"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("frequency = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_mapping_builds_each_potential_kind(self):
        cfg = config_from_mapping({"potential": "zero"})
        assert isinstance(cfg.potential, ZeroPotential)
        cfg = config_from_mapping(
            {"potential": "gaussian", "gaussian_amplitude": "2.5", "gaussian_width": "0.2"}
        )
        assert cfg.potential == GaussianPotential(2.5, 0.5, 0.2)
        cfg = config_from_mapping({"potential": "step", "step_pieces": "0.1:0.3:2;0.5:0.7:-1"})
        assert cfg.potential == StepPotential(((0.1, 0.3, 2.0), (0.5, 0.7, -1.0)))

    def test_overrides_win(self):
        cfg = config_from_mapping({"f": "3", "n": "2001"}, f=5, methods="lsl")
        assert cfg.f == 5
        assert cfg.methods == ("lsl",)

    def test_validation_happens_at_construction(self):
        with pytest.raises(ValueError):
            config_from_mapping({"rel_threshold": "2.0"})
        with pytest.raises(ValueError):
            config_from_mapping({"methods": "born,magic"})

    def test_presets(self):
        assert isinstance(preset_potential("gaussian"), GaussianPotential)
        assert isinstance(preset_potential("step"), StepPotential)
        assert isinstance(preset_potential("zero"), ZeroPotential)
        with pytest.raises(ValueError):
            preset_potential("ramp")
        cfg = preset_config("gaussian", f=5, outdir="/tmp/x")
        assert cfg.f == 5 and cfg.label == "gaussian"


class TestWriteTable:
    def test_header_and_full_precision_rows(self, tmp_path):
        path = tmp_path / "table.txt"
        x = np.array([0.0, 1.0 / 3.0])
        y = np.array([np.pi, np.nan])
        write_table(path, ("x", "y"), (x, y))
        lines = path.read_text().splitlines()
        assert lines[0] == "x y"
        parsed = [float(tok) for tok in lines[1].split()] + [float(lines[2].split()[0])]
        assert parsed[0] == 0.0 and parsed[1] == np.pi and parsed[2] == 1.0 / 3.0
        assert np.isnan(float(lines[2].split()[1]))


class TestRunExperiment:
    def test_zero_preset_outputs(self, tmp_path):
        config = preset_config("zero", outdir=tmp_path, **FAST)
        paths = run_experiment(config)
        for name in OUTPUT_FILES:
            assert (tmp_path / name).exists()
        summary = read_summary(paths["summary"])
        assert float(summary["err_born"]) < 1e-6
        assert float(summary["err_lsl"]) < 1e-6
        assert summary["m"] == "9"
        # reconstruction columns are ~0 for zero-contrast data
        rows = np.loadtxt(paths["reconstruction"], skiprows=1)
        assert np.max(np.abs(rows[:, 2])) < 1e-6
        assert np.max(np.abs(rows[:, 3])) < 1e-6

    def test_dataset_files_reload(self, tmp_path):
        paths = run_experiment(preset_config("zero", outdir=tmp_path, **FAST))
        data = load_dataset(paths["dataset_true"])
        data0 = load_dataset(paths["dataset_background"])
        assert np.array_equal(data.lambdas, data0.lambdas)
        assert data.label.endswith("-true")

    def test_gaussian_preset_summary_ordering(self, tmp_path):
        config = preset_config("gaussian", outdir=tmp_path, **FAST)
        summary = read_summary(run_experiment(config)["summary"])
        assert float(summary["err_lsl"]) < float(summary["err_born"])
        assert float(summary["err_internal_lsl"]) < float(summary["err_internal_background"])
        assert summary["singular_values_lsl"].count(" ") == int(summary["m"]) - 1

    def test_single_method_fills_sentinels(self, tmp_path):
        config = preset_config("gaussian", outdir=tmp_path, methods=("born",), **FAST)
        paths = run_experiment(config)
        rows = np.loadtxt(paths["reconstruction"], skiprows=1)
        assert np.all(np.isnan(rows[:, 3]))  # p_lsl column
        assert not np.any(np.isnan(rows[:, 2]))
        summary = read_summary(paths["summary"])
        assert summary["err_lsl"] == "nan"

    def test_reproducible_byte_identical(self, tmp_path):
        config_a = preset_config("gaussian", outdir=tmp_path / "a", **FAST)
        config_b = preset_config("gaussian", outdir=tmp_path / "b", **FAST)
        paths_a = run_experiment(config_a)
        paths_b = run_experiment(config_b)
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes(), name

    def test_one_forward_sweep_per_medium(self, tmp_path, monkeypatch):
        # m solves per medium for the data, plus the two internal-solution fields
        solves = []
        resolvent_apply = lslimaging.forward.resolvent_apply

        def counting(*args, **kwargs):
            solves.append(args[2])
            return resolvent_apply(*args, **kwargs)

        monkeypatch.setattr(lslimaging.forward, "resolvent_apply", counting)
        run_experiment(preset_config("gaussian", outdir=tmp_path, **FAST))
        m = FAST["N"] * FAST["f"]
        assert len(solves) == 2 * m + 2

    def test_stage_failure_is_named(self, tmp_path):
        grid = Grid(1.0, FAST["n"])
        mu1 = operator_eigenvalues(assemble_operator(ZeroPotential(), grid), grid)[1]
        config = preset_config("zero", outdir=tmp_path, internal_lambda=-mu1, **FAST)
        with pytest.raises(ExperimentError) as excinfo:
            run_experiment(config)
        assert excinfo.value.stage == "internal-solution"

    def test_default_internal_lambda_between_middle_samples(self):
        lams = np.array([-9.0, -7.0, -4.0, -1.0])
        assert default_internal_lambda(lams) == -5.5


class TestCli:
    def _write_config(self, path, potential="zero"):
        path.write_text(
            f"potential = {potential}\nL = 1.0\nn = {FAST['n']}\n"
            f"N = {FAST['N']}\nf = {FAST['f']}\n"
        )

    def test_simulate_reconstruct_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "gaussian.cfg"
        self._write_config(cfg, "gaussian")
        cfg0 = tmp_path / "background.cfg"
        self._write_config(cfg0, "zero")
        out, out0 = tmp_path / "true.txt", tmp_path / "bg.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg0), "--out", str(out0)]) == 0
        recon = tmp_path / "recon.txt"
        code = main([
            "reconstruct", "--data", str(out), "--background", str(out0),
            "--method", "lsl", "--out", str(recon), "--nodes", str(FAST["n"]),
        ])
        assert code == 0
        rows = np.loadtxt(recon, skiprows=1)
        assert rows.shape == (FAST["n"], 4)
        assert np.all(np.isnan(rows[:, 1]))  # p_true unknown to the CLI
        assert np.all(np.isnan(rows[:, 2]))  # born not requested
        assert np.all(np.isfinite(rows[:, 3]))

    def test_simulate_is_reproducible(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        self._write_config(cfg, "gaussian")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        self._write_config(cfg)
        out = tmp_path / "d.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--set", "f=1"]) == 0
        assert load_dataset(out).m == FAST["N"]

    def test_experiment_subcommand(self, tmp_path, capsys):
        code = main([
            "experiment", "zero", "--f", "3", "--outdir", str(tmp_path / "run"),
            "--intervals", "3", "--nodes", str(FAST["n"]),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "err_lsl" in captured.out
        for name in OUTPUT_FILES:
            assert (tmp_path / "run" / name).exists()

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "reconstruct", "--data", str(tmp_path / "absent.txt"),
            "--background", str(tmp_path / "absent0.txt"),
            "--method", "born", "--out", str(tmp_path / "o.txt"),
        ])
        assert code == 1
        assert "load-data" in capsys.readouterr().err

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "load-config" in capsys.readouterr().err
