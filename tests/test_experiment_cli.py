"""Experiment orchestration, configuration files, and the command line."""
import codecs
import re
import sys

import numpy as np
import pytest

import lslimaging.forward
import lslimaging.rom
from lslimaging import (
    ExperimentConfig,
    ExperimentError,
    GaussianPotential,
    ImagingError,
    Grid,
    StepPotential,
    TabulatedPotential,
    ZeroPotential,
    assemble_operator,
    load_dataset,
    operator_eigenvalues,
    read_summary,
    reconstruct,
    run_experiment,
)
from lslimaging.cli import main
from lslimaging.errors import stage
from lslimaging.experiment import (
    OUTPUT_FILES,
    PRESETS,
    config_from_mapping,
    default_internal_lambda,
    load_config,
    parse_config_text,
    preset_config,
    preset_potential,
    write_table,
)
from lslimaging.transfer import _Text

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

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ValueError, match=r"^config line 3: key 'n' repeats line 1$"):
            parse_config_text("n = 401\n# a comment\nn = 2001\n")

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

    def test_typed_overrides_are_taken_as_they_are(self, tmp_path):
        cfg = config_from_mapping({"methods": "born"}, methods=("lsl",), internal_lambda=None,
                                  L=2, outdir=tmp_path)
        assert cfg.methods == ("lsl",) and cfg.internal_lambda is None
        assert cfg.L == 2 and cfg.outdir == tmp_path

    def test_unknown_keyword_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("potential = zero\n")
        with pytest.raises(ValueError, match="unknown key 'nodes'"):
            config_from_mapping({}, nodes=5)
        with pytest.raises(ValueError, match="unknown key 'nodes'"):
            load_config(path, nodes="5")
        with pytest.raises(ValueError, match="unknown key 'gaussian_foo'"):
            preset_config("gaussian", gaussian_foo=1.0)

    @pytest.mark.parametrize("key, value", [("N", "0"), ("f", 2.5)])
    def test_sampling_checked_by_weyl_sample(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
            config_from_mapping({}, **{key: value})

    def test_empty_method_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"empty method list; choose from \('born', 'lsl'\)"):
            config_from_mapping({"methods": ""})
        path = tmp_path / "c.cfg"
        path.write_text("potential = zero\nmethods =\n")
        with pytest.raises(ValueError, match="empty method list"):
            load_config(path)

    def test_config_with_a_byte_order_mark_builds_the_plain_config(self, tmp_path):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("L = 2.0\npotential = gaussian\nn = 101\n", encoding="utf-8")
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_config(bom) == load_config(plain)

    def test_config_that_is_not_utf8_names_file_and_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"L = 1\n\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: byte offset 6: not utf-8 text ") as excinfo:
            load_config(bad)
        assert not isinstance(excinfo.value, UnicodeError)

    @pytest.mark.parametrize("label", ["a\nb", "a\x1cb", "a\u2028b"])
    def test_label_with_a_line_break_rejected(self, label):
        with pytest.raises(ValueError, match="label must be one line"):
            ExperimentConfig(potential=ZeroPotential(), label=label)
        with pytest.raises(ValueError, match="label must be one line"):
            config_from_mapping({"potential": "zero"}, label=label)

    def test_typed_medium_keys_are_taken_as_they_are(self):
        cfg = config_from_mapping({"potential": "step"}, step_pieces=((0.1, 0.3, 2.0),))
        assert cfg.potential == StepPotential(((0.1, 0.3, 2.0),))
        cfg = config_from_mapping({"potential": "gaussian", "gaussian_width": "0.2"}, gaussian_amplitude=3.0)
        assert cfg.potential == GaussianPotential(3.0, 0.5, 0.2)

    def test_typed_potential_is_taken_as_it_is(self):
        medium = GaussianPotential(3.0, 0.4, 0.1)
        cfg = preset_config("gaussian", potential=medium)
        assert cfg.potential is medium and cfg.label == "gaussian"
        cfg = config_from_mapping({}, potential=medium)
        assert cfg.potential is medium and cfg.label == medium.label
        for key, value in (("gaussian_width", 0.2), ("step_pieces", "0:1:2")):
            with pytest.raises(ValueError, match=f"{key} cannot modify it"):
                config_from_mapping({key: value}, potential=medium)

    def test_keys_of_another_medium_are_ignored(self):
        cfg = config_from_mapping({"potential": "zero", "gaussian_width": "0.2", "step_pieces": "0:1:2"})
        assert cfg.potential == ZeroPotential()

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

    def test_empty_mapping_gives_the_dataclass_defaults(self):
        cfg = config_from_mapping({})
        ref = ExperimentConfig(potential=ZeroPotential())
        for name in ExperimentConfig.__dataclass_fields__:
            assert getattr(cfg, name) == getattr(ref, name), name

    @pytest.mark.parametrize("kind", PRESETS)
    def test_mapping_kind_alone_gives_the_preset(self, kind):
        assert config_from_mapping({"potential": kind}).potential == preset_potential(kind)

    @pytest.mark.parametrize("kind", ["gaussian", "step"])
    def test_preset_config_scales_the_medium_with_L(self, kind):
        from_file = config_from_mapping({"potential": kind, "L": "2"}).potential
        assert preset_config(kind, L=2.0).potential == from_file == preset_potential(kind, 2.0)

    def test_unknown_potential_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown potential kind 'ramp'"):
            config_from_mapping({"potential": "ramp"})

    @pytest.mark.parametrize("key, text", [("N", "ten"), ("gaussian_width", "abc"), ("step_pieces", "0:x:1"),
                                           ("L", "")])
    def test_a_value_that_does_not_parse_names_its_key(self, key, text):
        with pytest.raises(ValueError, match=f"^config key '{key}': "):
            config_from_mapping({"potential": "gaussian"}, **{key: text})

    @pytest.mark.parametrize("kind", PRESETS)
    @pytest.mark.parametrize("L", ["-1", "0", "nan"])
    def test_a_bad_L_is_reported_as_the_domain_length(self, kind, L):
        message = f"^domain length must be positive and finite, got {float(L)}$"
        with pytest.raises(ValueError, match=message):
            config_from_mapping({"potential": kind, "L": L})
        with pytest.raises(ValueError, match=message):
            preset_config(kind, L=float(L))

    @pytest.mark.parametrize("name, value, message", [
        ("potential", "gaussian", "^potential must be a Potential, got 'gaussian'$"),
        ("internal_lambda", "-30", "^internal_lambda must be a number, got '-30'$"),
    ])
    def test_a_field_that_is_not_its_type_is_named(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"potential": ZeroPotential(), name: value})

    def test_a_medium_that_does_not_fit_the_grid_is_rejected(self):
        with pytest.raises(ValueError, match=r"^tabulated potential has \(400,\) values, grid has 401 nodes$"):
            ExperimentConfig(TabulatedPotential(np.zeros(400)), n=401)
        assert ExperimentConfig(TabulatedPotential(np.zeros(401)), n=401).n == 401

    def test_a_plan_whose_resonances_overflow_is_rejected(self):
        with pytest.raises(ValueError, match="^domain length must be long enough for 10 finite resonances, got 1e-160$"):
            ExperimentConfig(ZeroPotential(), L=1e-160)

    def test_methods_given_as_one_string_rejected(self):
        with pytest.raises(ValueError, match="^methods must be a sequence of method names, got the string 'lsl'$"):
            ExperimentConfig(potential=ZeroPotential(), methods="lsl")
        assert ExperimentConfig(potential=ZeroPotential(), methods=["lsl"]).methods == ("lsl",)


class TestStage:
    @pytest.mark.parametrize("exc", [ValueError("v"), OSError("o"), ImagingError("i")])
    def test_wraps_pipeline_failures(self, exc):
        with pytest.raises(ExperimentError) as excinfo:
            with stage("outer"):
                raise exc
        assert excinfo.value.stage == "outer"
        assert excinfo.value.cause is exc

    def test_inner_stage_name_passes_through(self):
        with pytest.raises(ExperimentError) as excinfo:
            with stage("outer"):
                with stage("inner"):
                    raise ValueError("v")
        assert excinfo.value.stage == "inner"

    def test_other_exceptions_are_not_wrapped(self):
        with pytest.raises(KeyError):
            with stage("outer"):
                raise KeyError("k")


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

    def test_bytes_match_the_per_value_format(self, tmp_path):
        # reference: each value formatted on its own, as the writer did before
        path = tmp_path / "table.txt"
        cols = (np.array([0.0, -0.0, 1e-310, 1.0 / 3.0]),
                np.array([np.nan, np.inf, -np.inf, 123456789012345678.0]),
                np.array([-2.5e300, 7, 1e-5, -np.pi]))
        write_table(path, ("a", "b", "c"), cols)
        rows = [" ".join("{:.17g}".format(v) for v in row) for row in zip(*cols)]
        assert path.read_text() == "\n".join(["a b c"] + rows) + "\n"

    @pytest.mark.parametrize("names, columns", [
        (("x", "y"), (np.zeros(3), np.zeros(2))),
        (("x",), (np.zeros(3), np.zeros(3))),
        (("x", "y", "z"), (np.zeros(3), np.zeros(3))),
        (("x", "y"), (_Text(np.zeros(2)), np.zeros(3))),  # a text column of the wrong length
    ])
    def test_ragged_or_misnamed_columns_rejected(self, tmp_path, names, columns):
        path = tmp_path / "table.txt"
        with pytest.raises(ValueError):
            write_table(path, names, columns)
        assert not path.exists()

    def test_empty_columns_write_the_header_alone(self, tmp_path):
        write_table(tmp_path / "table.txt", ("a", "b"), (np.zeros(0), _Text(np.zeros(0))))
        assert (tmp_path / "table.txt").read_text() == "a b\n"

    def test_text_column_writes_the_bytes_of_its_array(self, tmp_path):
        cols = (np.array([0.0, -0.0, 1e-310, np.nan]), np.array([np.pi, -np.inf, 7.0, 1.0 / 3.0]))
        write_table(tmp_path / "array.txt", ("a", "b"), cols)
        write_table(tmp_path / "text.txt", ("a", "b"), (_Text(cols[0]), cols[1]))
        assert (tmp_path / "text.txt").read_bytes() == (tmp_path / "array.txt").read_bytes()


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

    def test_summary_with_a_byte_order_mark_reads_as_the_plain_file(self, tmp_path):
        paths = run_experiment(preset_config("zero", outdir=tmp_path, **FAST))
        bom = tmp_path / "bom-summary.txt"
        bom.write_bytes(codecs.BOM_UTF8 + paths["summary"].read_bytes())
        assert read_summary(bom) == read_summary(paths["summary"])

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

    def test_summary_writes_every_number_as_17_significant_digits(self, tmp_path):
        config = preset_config("gaussian", outdir=tmp_path, L=2.5, rel_threshold=1e-3, **FAST)
        paths = run_experiment(config)
        summary = read_summary(paths["summary"])
        data, data0 = load_dataset(paths["dataset_true"]), load_dataset(paths["dataset_background"])
        numbers = {"L": 2.5, "rel_threshold": 1e-3, "truncation_tol": config.truncation_tol,
                   "internal_lambda": default_internal_lambda(data.lambdas)}
        for key, value in numbers.items():
            assert summary[key] == "%.17g" % value, key
        for method in ("lsl", "born"):
            result = reconstruct(data, data0, method, grid=Grid(2.5, FAST["n"]), rel_threshold=1e-3,
                                 truncation_tol=config.truncation_tol)
            assert summary[f"singular_values_{method}"] == " ".join("%.17g" % v for v in result.singular_values)

    def test_single_method_fills_sentinels(self, tmp_path):
        config = preset_config("gaussian", outdir=tmp_path, methods=("born",), **FAST)
        paths = run_experiment(config)
        rows = np.loadtxt(paths["reconstruction"], skiprows=1)
        assert np.all(np.isnan(rows[:, 3]))  # p_lsl column
        assert not np.any(np.isnan(rows[:, 2]))
        summary = read_summary(paths["summary"])
        assert summary["err_lsl"] == "nan"
        assert summary["singular_values_lsl"] == ""

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

    def test_lanczos_once_per_medium(self, tmp_path, monkeypatch):
        calls = []
        lanczos = lslimaging.rom.lanczos

        def counting(*args, **kwargs):
            calls.append(args)
            return lanczos(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("lslimaging.") and getattr(module, "lanczos", None) is lanczos:
                monkeypatch.setattr(module, "lanczos", counting)
        run_experiment(preset_config("gaussian", outdir=tmp_path, **FAST))
        assert len(calls) == 2

    def test_integral_float_counts_write_the_summary_of_config_text(self, tmp_path):
        typed = preset_config("zero", outdir=tmp_path / "typed", n=401.0, N=2.0, f=2.0)
        (tmp_path / "zero.cfg").write_text("potential = zero\nlabel = zero\nn = 401\nN = 2\nf = 2\n")
        text = load_config(tmp_path / "zero.cfg", outdir=tmp_path / "text")
        assert [type(getattr(typed, name)) for name in ("n", "N", "f")] == [int] * 3
        summaries = [run_experiment(config)["summary"].read_bytes() for config in (typed, text)]
        assert summaries[0] == summaries[1]

    def test_stage_failure_is_named(self, tmp_path):
        grid = Grid(1.0, FAST["n"])
        mu1 = operator_eigenvalues(assemble_operator(ZeroPotential(), grid), grid)[1]
        config = preset_config("zero", outdir=tmp_path, internal_lambda=-mu1, **FAST)
        with pytest.raises(ExperimentError) as excinfo:
            run_experiment(config)
        assert excinfo.value.stage == "internal-solution"

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_internal_lambda_is_named(self, tmp_path, lam):
        with pytest.raises(ValueError, match=f"finite, got {lam}"):
            preset_config("zero", outdir=tmp_path, internal_lambda=lam, **FAST)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_internal_lambda_fails_before_any_solve(self, tmp_path, monkeypatch, lam):
        solves = []
        resolvent_apply = lslimaging.forward.resolvent_apply

        def counting(*args, **kwargs):
            solves.append(args[2])
            return resolvent_apply(*args, **kwargs)

        monkeypatch.setattr(lslimaging.forward, "resolvent_apply", counting)
        with pytest.raises(ValueError, match="internal_lambda must be finite"):
            preset_config("zero", outdir=tmp_path, internal_lambda=lam, **FAST)
        assert solves == []

    @pytest.mark.parametrize("lams, expected", [
        ([-4.0], -2.0),
        ([-9.0, -1.0], -5.0),
        ([-9.0, -7.0, -1.0], -8.0),
        ([-9.0, -7.0, -4.0, -1.0], -5.5),
    ], ids=["m1", "m2", "m3", "m4"])
    def test_default_internal_lambda_between_middle_samples(self, lams, expected):
        assert default_internal_lambda(np.array(lams)) == expected


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

    @pytest.mark.parametrize("method", ["born", "lsl"])
    def test_reconstruct_prints_the_method_rank_and_residual(self, reconstruct_args, tmp_path, capsys, method):
        args = list(reconstruct_args)
        args[args.index("--method") + 1] = method
        out = tmp_path / "o.txt"
        assert main(args + ["--out", str(out)]) == 0
        data, data0 = (load_dataset(args[args.index(flag) + 1]) for flag in ("--data", "--background"))
        r = reconstruct(data, data0, method, grid=Grid(data.L, int(args[args.index("--nodes") + 1])))
        assert capsys.readouterr().out == f"method={method} rank={r.rank} residual={r.residual_norm:.6e} -> {out}\n"

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

    def test_experiment_methods_parsed_as_in_a_config_file(self, tmp_path):
        code = main([
            "experiment", "zero", "--methods", "lsl,", "--outdir", str(tmp_path / "run"),
            "--f", str(FAST["f"]), "--intervals", str(FAST["N"]), "--nodes", str(FAST["n"]),
        ])
        assert code == 0
        assert read_summary(tmp_path / "run" / "summary.txt")["methods"] == "lsl"

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "reconstruct", "--data", str(tmp_path / "absent.txt"),
            "--background", str(tmp_path / "absent0.txt"),
            "--method", "born", "--out", str(tmp_path / "o.txt"),
        ])
        assert code == 1
        assert "load-data" in capsys.readouterr().err

    @pytest.mark.parametrize("args, expected, message", [
        (["reconstruct", "--data", "absent.txt", "--background", "bg.txt", "--method", "born",
          "--out", "o.txt"], "load-data", "[Errno 2] No such file or directory: 'absent.txt'"),
        (["reconstruct", "--data", "true.txt", "--background", "bg.txt", "--method", "lsl",
          "--nodes", "2", "--out", "o.txt"], "reconstruct", "node count must be an integer >= 3"),
        (["reconstruct", "--data", "true.txt", "--background", "bg.txt", "--method", "lsl",
          "--nodes", "401", "--out", "missing/o.txt"], "write-output", "[Errno 2] No such file or directory"),
        (["reconstruct", "--data", "true.txt", "--background", "bg.txt", "--method", "born",
          "--truncation-tol", "5", "--nodes", "401", "--out", "o.txt"], "reconstruct",
         "truncation_tol must lie in (0, 1), got 5.0"),
        (["simulate", "--config", "bad.cfg", "--out", "o.txt"], "load-config",
         "config line 1: unknown key 'no_such_key'"),
        (["simulate", "--config", "true.cfg", "--out", "missing/o.txt"], "write-output",
         "[Errno 2] No such file or directory"),
        (["experiment", "zero", "--nodes", "2", "--outdir", "run"], "configure", "node count must be an integer >= 3"),
        (["experiment", "zero", "--internal-lambda", "nan", "--outdir", "run"], "configure",
         "internal_lambda must be finite, got nan"),
        (["experiment", "zero", "--internal-lambda", "0", "--nodes", "401", "--intervals", "3",
          "--f", "3", "--outdir", "run"], "internal-solution", "lambda = 0 is within"),
        (["simulate", "--config", "true.cfg", "--set", "nodes=5", "--out", "o.txt"], "load-config",
         "unknown key 'nodes'"),
        (["experiment", "zero", "--methods", "", "--outdir", "run"], "configure", "empty method list"),
        (["simulate", "--config", "true.cfg", "--set", "methods=", "--out", "o.txt"], "load-config",
         "empty method list"),
        (["simulate", "--config", "true.cfg", "--set", "foo", "--out", "o.txt"], "load-config",
         "--set expects key=value, got 'foo'"),
        (["experiment", "zero", "--methods", "lsl,lsl", "--outdir", "run"], "configure",
         "duplicate entries in method list"),
        (["simulate", "--config", "ten.cfg", "--out", "o.txt"], "load-config",
         "config key 'N': invalid literal for int() with base 10: 'ten'"),
        (["simulate", "--config", "true.cfg", "--set", "gaussian_width=abc", "--out", "o.txt"], "load-config",
         "config key 'gaussian_width': could not convert string to float: 'abc'"),
        (["experiment", "gaussian", "--intervals", "x", "--outdir", "run"], "configure",
         "config key 'N': invalid literal for int() with base 10: 'x'"),
    ], ids=["reconstruct-load-data", "reconstruct-reconstruct", "reconstruct-write-output",
            "reconstruct-born-truncation-tol",
            "simulate-load-config", "simulate-write-output", "experiment-configure",
            "experiment-nan-lambda", "experiment-resonance", "simulate-set-unknown-key",
            "experiment-empty-methods", "simulate-empty-methods", "simulate-set-without-equals",
            "experiment-duplicate-methods", "simulate-config-value", "simulate-set-value",
            "experiment-flag-value"])
    def test_failure_names_its_stage(self, tmp_path, monkeypatch, capsys, args, expected, message):
        monkeypatch.chdir(tmp_path)
        self._write_config(tmp_path / "true.cfg", "gaussian")
        self._write_config(tmp_path / "bg.cfg", "zero")
        (tmp_path / "bad.cfg").write_text("no_such_key = 1\n")
        (tmp_path / "ten.cfg").write_text("potential = zero\nN = ten\n")
        assert main(["simulate", "--config", "true.cfg", "--out", "true.txt"]) == 0
        assert main(["simulate", "--config", "bg.cfg", "--out", "bg.txt"]) == 0
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error in stage '{expected}': ")
        assert captured.err.startswith(f"error in stage '{expected}': {message}")
        assert captured.out == ""

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "load-config" in capsys.readouterr().err
