"""End-to-end CLI behaviour: every subcommand, config precedence, artifact
files, and the exit-code contract (0 ok, 1 runtime, 2 config/usage)."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tqnet
from tqnet.analysis import make_covariate_table, run_covariate_study
from tqnet.checkpoint import load_checkpoint, save_checkpoint
from tqnet.cli import (
    COMMANDS,
    NOT_RUN_FIELDS,
    RunConfig,
    build_parser,
    main,
    run_fields,
    resolve_config,
)
from tqnet.data import SplitSpec, SynthSpec, generate_synthetic, write_csv
from tqnet.errors import ConfigError, NumericError
from tqnet.model import ModelConfig, TQNet
from tqnet.tensor import gradient_check
from tqnet.training import TrainPlan, check_model_gradients, config_hash

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

MICRO_ARGS = [
    "--lookback", "16", "--horizon", "8", "--period", "8", "--hidden", "12",
    "--heads", "2", "--attn-dropout", "0.0", "--out-dropout", "0.0",
    "--max-epochs", "2", "--patience", "2", "--lr", "0.003",
    "--train-frac", "0.6", "--val-frac", "0.2", "--test-frac", "0.2",
]

# a covariate study's data is generated; its horizon must cover the smoothing
COVARIATE_ARGS = [
    "--n-covariates", "2", "--timesteps", "420",
    "--lookback", "16", "--horizon", "16", "--period", "8", "--hidden", "8",
    "--heads", "2", "--attn-dropout", "0.0", "--out-dropout", "0.0",
    "--max-epochs", "2", "--patience", "2",
    "--train-frac", "0.6", "--val-frac", "0.2", "--test-frac", "0.2",
]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    rc = main([
        "synth", "--out", str(path), "--channels", "4", "--timesteps", "360",
        "--period", "8", "--latents", "2", "--seed", "1",
    ])
    assert rc == 0
    return path


class TestResolveConfig:
    def test_precedence_defaults_file_flags(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"lr": 0.5, "hidden": 32}))
        cfg = resolve_config(cfg_file, {"lr": 0.25})
        assert cfg.lr == 0.25  # flag beats file
        assert cfg.hidden == 32  # file beats default
        assert cfg.heads == 4  # default survives

    def test_a_utf16_file_is_read(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"lr": 0.5}), encoding="utf-16")
        assert resolve_config(cfg_file).lr == 0.5

    def test_unknown_key_in_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.5}))
        with pytest.raises(ConfigError, match="learning_rate"):
            resolve_config(cfg_file, {})

    def test_type_mismatch(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"hidden": "big"}))
        with pytest.raises(ConfigError, match="hidden"):
            resolve_config(cfg_file, {})

    def test_bool_keys_strict(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"hidden": True}))
        with pytest.raises(ConfigError, match="hidden"):
            resolve_config(cfg_file, {})

    def test_int_accepted_for_float(self):
        cfg = resolve_config(None, {"lr": 1})
        assert cfg.lr == 1.0 and isinstance(cfg.lr, float)

    def test_run_config_defaults_match_the_dataclasses(self, tmp_path):
        cfg = RunConfig()
        assert cfg.parts(7) == (ModelConfig(7), TrainPlan(), SplitSpec())
        ref = tmp_path / "ref.csv"
        write_csv(generate_synthetic(SynthSpec())[0], ref)
        assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == ref.read_bytes()


class TestRunConfigDerivation:
    def test_fields_are_the_run_keys_and_the_library_configs(self):
        names = {"data", "dataset", "out_dir", "variant"}
        for cls in (ModelConfig, TrainPlan, SplitSpec):
            names |= {f.name for f in fields(cls)}
        assert {f.name for f in fields(RunConfig)} == names - NOT_RUN_FIELDS

    @pytest.mark.parametrize("other,message", [
        ("x: int = 2", "x: B declares ('int', 2), an earlier source ('int', 1)"),
        ("x: float = 1", "x: B declares ('float', 1), an earlier source ('int', 1)"),
    ], ids=["default", "annotation"])
    def test_sources_that_disagree_raise(self, other, message):
        space = {}
        exec("from __future__ import annotations\n"
             "from dataclasses import dataclass\n"
             "@dataclass\nclass A:\n    x: int = 1\n"
             f"@dataclass\nclass B:\n    {other}\n", space)
        with pytest.raises(TypeError, match=re.escape(message)):
            run_fields(space["A"], space["B"])
        (name, typ, spec), = run_fields(space["A"], space["A"])
        assert (name, typ, spec.default) == ("x", "int", 1)


def _model_config(**kw):
    return ModelConfig(**{"channels": 2, "lookback": 8, "horizon": 2, "period": 4,
                          "heads": 2, **kw})


class TestFieldTypes:
    """Every config dataclass holds its fields to their annotations."""

    @pytest.mark.parametrize("build,field,value", [
        (TrainPlan, "batch_size", True),
        (TrainPlan, "max_epochs", 2.0),
        (TrainPlan, "target_rows", [0]),
        pytest.param(TrainPlan, "lr", 10**400, id="TrainPlan-lr-beyond-float"),
        (SplitSpec, "max_rows", 2.5),
        (SynthSpec, "channels", 3.5),
        (RunConfig, "data", 5),
        # None only where the annotation says ``X | None``
        (TrainPlan, "lr", None),
        (SplitSpec, "train_frac", None),
        (SynthSpec, "seed", None),
        (RunConfig, "variant", None),
        (_model_config, "dtype", None),
        (_model_config, "variant", 1),
    ])
    def test_wrong_type_names_the_field(self, build, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be of type"):
            build(**{field: value})

    def test_none_where_optional(self):
        assert TrainPlan(target_rows=None).target_rows is None
        assert SplitSpec(max_rows=None).max_rows is None
        assert RunConfig(data=None, dataset=None, out_dir=None,
                         max_rows=None) == RunConfig()

    def test_int_is_stored_as_float(self):
        assert type(TrainPlan(lr=1).lr) is float
        assert type(_model_config(attn_dropout=0).attn_dropout) is float
        assert type(SynthSpec(noise_sigma=0).noise_sigma) is float
        assert type(RunConfig(val_frac=0).val_frac) is float


# the builder of each range case, by name; the covariate counts are
# make_covariate_table's
RANGE_BUILDS = {
    "ModelConfig": _model_config, "TrainPlan": TrainPlan,
    "SplitSpec": SplitSpec, "SynthSpec": SynthSpec,
    "covariates": partial(make_covariate_table, covariates=2, timesteps=100,
                          horizon=12, seed=0),
}
NAN = float("nan")


@pytest.mark.parametrize("build,field,value,rule", [
    *(("ModelConfig", f, 0, "a positive integer")
      for f in ("channels", "lookback", "horizon", "period", "hidden", "heads")),
    ("ModelConfig", "seed", -1, "a non-negative integer"),
    ("ModelConfig", "attn_dropout", 1.0, "in [0, 1)"),
    ("ModelConfig", "attn_dropout", NAN, "in [0, 1)"),
    ("ModelConfig", "out_dropout", -0.1, "in [0, 1)"),
    ("ModelConfig", "out_dropout", NAN, "in [0, 1)"),
    ("TrainPlan", "lr", 0.0, "finite and positive"),
    ("TrainPlan", "lr", NAN, "finite and positive"),
    ("TrainPlan", "lr", float("inf"), "finite and positive"),
    ("TrainPlan", "batch_size", 0, "a positive integer"),
    ("TrainPlan", "max_epochs", 0, "a positive integer"),
    ("TrainPlan", "seed", -2, "a non-negative integer"),
    ("SplitSpec", "max_rows", 0, "a positive integer"),
    ("SynthSpec", "channels", 0, "a positive integer"),
    ("SynthSpec", "latents", -1, "a positive integer"),
    ("SynthSpec", "seed", -1, "a non-negative integer"),
    ("SynthSpec", "noise_sigma", -1.0, "finite and non-negative"),
    ("SynthSpec", "noise_sigma", NAN, "finite and non-negative"),
    ("SynthSpec", "missing_rate", 1.5, "in [0, 1)"),
    ("SynthSpec", "missing_rate", NAN, "in [0, 1)"),
    ("covariates", "covariates", 0, "a positive integer"),
    ("covariates", "timesteps", -5, "a positive integer"),
])
def test_a_value_out_of_range_names_field_rule_and_value(build, field, value,
                                                         rule):
    with pytest.raises(ConfigError) as exc:
        RANGE_BUILDS[build](**{field: value})
    assert str(exc.value) == f"{field} must be {rule}, got {value!r}"


@pytest.mark.parametrize("build", [_model_config, TrainPlan, SynthSpec])
def test_a_negative_seed_names_seed(build):
    with pytest.raises(ConfigError, match="^seed must be a non-negative integer, got -1$"):
        build(seed=-1)


class TestSynthAndACF:
    def test_synth_writes_truth(self, synth_csv):
        truth = str(synth_csv) + ".truth.csv"
        from tqnet.data import load_csv, read_matrix_csv

        table = load_csv(synth_csv)
        assert table.channels == 4 and table.timesteps == 360
        names, m = read_matrix_csv(truth)
        assert names == table.names
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-9)

    def test_acf_suggests_generator_period(self, synth_csv, capsys, tmp_path):
        out = tmp_path / "acf.csv"
        rc = main(["acf", "--data", str(synth_csv), "--max-lag", "60",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "suggested period" in printed
        assert "lag     8" in printed
        header = out.read_text().splitlines()[0]
        assert header.startswith("lag,mean_acf,")

    def test_corr_against_truth(self, synth_csv, capsys, tmp_path):
        rc = main([
            "corr", "--data", str(synth_csv),
            "--truth", str(synth_csv) + ".truth.csv",
            "--out", str(tmp_path / "corr.csv"),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        r = float(printed.rsplit(":", 1)[1])
        assert r > 0.95

    def test_corr_needs_exactly_one_source(self, capsys):
        assert main(["corr"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_corr_refuses_a_checkpoint_without_a_bank(
            self, synth_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_csv), "--out-dir", str(out),
                     "--variant", "self_attention", *MICRO_ARGS]) == 0
        capsys.readouterr()
        assert main(["corr", "--checkpoint", str(out / "model.ckpt")]) == 2
        assert capsys.readouterr().err == (
            "error: variant 'self_attention' has no query bank\n")


@pytest.fixture(scope="module")
def run_dir(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(synth_csv), "--out-dir", str(out),
               *MICRO_ARGS])
    assert rc == 0
    return out


class TestTrainEvaluate:
    def test_artifacts_exist(self, run_dir):
        for name in ("config.json", "results.jsonl", "model.ckpt",
                     "train_log.csv"):
            assert (run_dir / name).exists(), name
        rec = json.loads((run_dir / "results.jsonl").read_text().splitlines()[0])
        assert list(rec) == ["dataset", "L", "H", "W", "variant", "seed",
                             "mse", "mae", "best_epoch", "wall_time_s"]

    def test_config_echo_has_hash(self, run_dir):
        echo = json.loads((run_dir / "config.json").read_text())
        assert echo["lookback"] == 16
        assert len(echo["config_hash"]) == 12

    def test_evaluate_reproduces_test_metrics(self, run_dir, synth_csv, capsys):
        rc = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(synth_csv), *MICRO_ARGS])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        eval_rec = json.loads(line)
        train_rec = json.loads(
            (run_dir / "results.jsonl").read_text().splitlines()[0]
        )
        assert eval_rec["mse"] == train_rec["mse"]
        assert eval_rec["mae"] == train_rec["mae"]

    @pytest.mark.parametrize("flags,message", [
        (["--lookback", "200"], "lookback is 200, but {} has 16"),
        (["--heads", "4"], "heads is 4, but {} has 2"),
        (["--dtype", "float64"], "dtype is 'float64', but {} has 'float32'"),
        (["--variant", "pure_mlp"], "variant is 'pure_mlp', but {} has 'default'"),
        ({"dtype": "float64"}, "dtype is 'float64', but {} has 'float32'"),
    ], ids=["lookback", "heads", "dtype", "variant", "config-key"])
    def test_evaluate_refuses_a_model_setting_the_checkpoint_lacks(
            self, flags, message, run_dir, synth_csv, tmp_path, capsys):
        if isinstance(flags, dict):
            (tmp_path / "c.json").write_text(json.dumps(flags))
            flags = ["--config", str(tmp_path / "c.json")]
        ckpt = run_dir / "model.ckpt"
        rc = main(["evaluate", "--checkpoint", str(ckpt),
                   "--data", str(synth_csv), *MICRO_ARGS, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(f'the checkpoint {ckpt}')}\n"

    def test_evaluate_accepts_training_settings_that_differ(
            self, run_dir, synth_csv, tmp_path, capsys):
        # two model settings of the checkpoint stated again, the others left
        # to it; dropouts, seed and optimizer keys only shaped the training,
        # so even values a training run refuses are accepted as given
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "lookback": 16, "variant": "default",
            "attn_dropout": 1.5, "out_dropout": 0.2, "seed": 5, "lr": 0.5,
            "batch_size": 3, "max_epochs": 9, "patience": 0,
            "train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
        }))
        rc = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(synth_csv), "--config", str(cfg_file)])
        assert rc == 0
        eval_rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        train_rec = json.loads(
            (run_dir / "results.jsonl").read_text().splitlines()[0])
        assert eval_rec["mse"] == train_rec["mse"]

    def test_checkpoint_loads_as_model(self, run_dir):
        model = load_checkpoint(run_dir / "model.ckpt")
        assert model.config.lookback == 16

    def test_evaluate_channel_mismatch_is_runtime_error(self, synth_csv,
                                                        tmp_path, capsys):
        cfg = ModelConfig(channels=9, lookback=16, horizon=8, period=8,
                          hidden=12, heads=2, attn_dropout=0.0)
        save_checkpoint(tmp_path / "other.ckpt", TQNet(cfg))
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "other.ckpt"),
                   "--data", str(synth_csv), *MICRO_ARGS])
        assert rc == 1
        assert "channels" in capsys.readouterr().err


def _data_flag(command, csv):
    """``--data csv`` for a command that reads data; ``covariates`` makes its own."""
    return [] if command[0] == "covariates" else ["--data", str(csv)]


def _actions(name):
    """The argparse actions of subcommand ``name``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]._actions


def _options(name):
    """The option strings of subcommand ``name``."""
    return {o for a in _actions(name) for o in a.option_strings}


def _readme_commands():
    """Every ``tqnet`` command line in README's ``sh`` blocks, as an argv."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tqnet ")]


README_COMMANDS = _readme_commands()


# every RunConfig field and its annotation string
RUN_FIELD_TYPES = {
    "data": "str | None", "dataset": "str | None", "out_dir": "str | None",
    "variant": "str", "lookback": "int", "horizon": "int", "period": "int",
    "hidden": "int", "heads": "int", "attn_dropout": "float",
    "out_dropout": "float", "dtype": "str", "lr": "float",
    "batch_size": "int", "max_epochs": "int", "patience": "int",
    "seed": "int", "train_frac": "float", "val_frac": "float",
    "test_frac": "float", "max_rows": "int | None",
}
RUN_OPTIONS = {"-h", "--help", "--config"} | {
    "--" + name.replace("_", "-") for name in RUN_FIELD_TYPES}


class TestCliSurface:
    """The flags, the echoed config and the config hashes a run produces;
    saved configs, scripts and run directory names depend on them."""

    @pytest.mark.parametrize("command,extra", [
        ("train", set()),
        ("evaluate", {"--checkpoint"}),
        ("ablate", {"--variants", "--seeds"}),
        ("sweep-w", {"--periods"}),
        ("covariates", {"--sizes", "--n-covariates", "--timesteps"}),
    ])
    def test_run_commands_take_one_flag_per_run_setting(self, command, extra):
        assert _options(command) == RUN_OPTIONS | extra

    @pytest.mark.parametrize("command,options", [
        ("acf", {"--data", "--max-lag", "--out"}),
        ("corr", {"--data", "--checkpoint", "--truth", "--out"}),
        ("synth", {"--out", "--channels", "--timesteps", "--period",
                   "--latents", "--noise-sigma", "--missing-rate", "--seed"}),
        ("gradcheck", {"--channels", "--lookback", "--horizon", "--period",
                       "--hidden", "--heads", "--variant", "--eps", "--tol",
                       "--seed"}),
    ])
    def test_other_commands_keep_their_flags(self, command, options):
        assert _options(command) == {"-h", "--help"} | options

    def test_flag_defaults_are_the_library_defaults(self):
        study = inspect.signature(run_covariate_study).parameters
        covariates = {a.dest: a.default for a in _actions("covariates")}
        assert covariates["n_covariates"] == study["covariates"].default
        assert covariates["timesteps"] == study["timesteps"].default
        gradcheck = {a.dest: a.default for a in _actions("gradcheck")}
        assert gradcheck["seed"] == ModelConfig.seed
        assert gradcheck["variant"] == ModelConfig.variant

    def test_gradcheck_tolerances_are_gradient_checks_defaults(self):
        # stated once, in gradient_check; check_model_gradients restates none
        library = inspect.signature(gradient_check).parameters
        gradcheck = {a.dest: a.default for a in _actions("gradcheck")}
        assert (gradcheck["eps"], gradcheck["tol"]) == (
            library["eps"].default, library["tol"].default) == (1e-5, 1e-4)
        assert "eps" not in inspect.signature(check_model_gradients).parameters

    @pytest.mark.parametrize("argv", README_COMMANDS,
                             ids=[argv[0] for argv in README_COMMANDS])
    def test_readme_commands_parse(self, argv):
        build_parser().parse_args(argv)

    def test_readme_shows_every_command(self):
        assert {argv[0] for argv in README_COMMANDS} == set(COMMANDS)

    def test_run_config_fields_and_defaults(self):
        assert {f.name: f.type for f in fields(RunConfig)} == RUN_FIELD_TYPES
        assert config_hash(asdict(RunConfig())) == "f6beaa628849"

    def test_train_echoes_every_run_setting(self, run_dir):
        echo = json.loads((run_dir / "config.json").read_text())
        assert set(echo) == set(RUN_FIELD_TYPES) | {"config_hash"}

    @pytest.mark.parametrize("name,digest", [("etth1", "a56831fe088d"),
                                             ("etth2", "8d57a0f7f2e8")])
    def test_preset_config_hashes(self, name, digest):
        cfg = resolve_config(CONFIGS / f"{name}.json")
        assert config_hash(asdict(cfg)) == digest


class TestExitCodes:
    def test_missing_data_is_config_error(self, capsys):
        assert main(["train"]) == 2
        assert "no input data" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys, synth_csv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        rc = main(["train", "--data", str(synth_csv), "--config", str(bad)])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_a_config_that_is_not_utf8_exits_2_naming_the_file(
            self, tmp_path, capsys, synth_csv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"lr": 0.5}')
        rc = main(["train", "--data", str(synth_csv), "--config", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: invalid JSON ('utf-8' codec can't decode byte 0xff")

    def test_a_config_key_given_twice_exits_2_naming_it(
            self, tmp_path, capsys, synth_csv):
        # json.loads would keep the last value and train with lr 0.5
        dup = tmp_path / "dup.json"
        dup.write_text('{"lr": 0.1, "max_epochs": 1, "lr": 0.5}')
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_csv), "--config", str(dup),
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {dup}: key 'lr' is given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("use_instance_norm", True), ("norm_eps", 1e-5),
        ("scale_by_head_dim", False), ("shuffle", True), ("border_context", True),
    ])
    def test_a_removed_setting_is_an_unknown_config_key(
            self, key, value, tmp_path, capsys, synth_csv):
        # each is a constant now, so even its one value is refused
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_csv), "--config", str(bad),
                   "--out-dir", str(out), *MICRO_ARGS])
        assert rc == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["acf", "--out", ""], ["corr", "--out", ""], ["corr", "--truth", ""]])
    def test_an_empty_path_is_opened_and_exits_1(self, argv, synth_csv, capsys):
        # an empty path names no file; it is not a path left out
        assert main([*argv, "--data", str(synth_csv)]) == 1
        assert "No such file or directory: ''" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,message", [
        (["acf", "--data", "two.csv"], 1,
         "two.csv: series too short for autocorrelation (T=2)"),
        (["corr", "--data", "one.csv"], 1,
         "one.csv: need (timesteps >= 2, channels), got (1, 3)"),
        (["corr", "--data", "two.csv", "--truth", "eye.csv"], 1,
         "truth eye.csv vs data two.csv: degenerate (constant) upper triangle"),
        (["corr", "--data", "ab.csv", "--truth", "t2.csv"], 2,
         "truth t2.csv vs data ab.csv: "
         "need at least 3 channels for a meaningful comparison"),
        (["train", "--data", "two.csv", "--out-dir", "run"], 1,
         "two.csv: split of 2 rows gives empty part: (1, 1, 0)"),
        (["ablate", "--data", "two.csv", "--out-dir", "run"], 1,
         "two.csv: split of 2 rows gives empty part: (1, 1, 0)"),
        (["sweep-w", "--data", "two.csv", "--periods", "8", "--out-dir", "run"], 1,
         "two.csv: split of 2 rows gives empty part: (1, 1, 0)"),
        (["evaluate", "--data", "two.csv", "--checkpoint", "m.ckpt"], 1,
         "two.csv: split of 2 rows gives empty part: (1, 1, 0)"),
        # a refused setting is named alone, with its value
        (["train", "--data", "two.csv", "--batch-size", "0", "--out-dir", "run"],
         2, "batch_size must be a positive integer, got 0"),
        (["synth", "--out", "run", "--latents", "0"], 2,
         "latents must be a positive integer, got 0"),
        (["synth", "--out", "run", "--missing-rate", "1.5"], 2,
         "missing_rate must be in [0, 1), got 1.5"),
        (["train", "--data", "two.csv", "--max-rows", "0", "--out-dir", "run"],
         2, "max_rows must be a positive integer, got 0"),
        (["train", "--data", "two.csv", "--patience", "40", "--out-dir", "run"],
         2, "patience must be in [1, max_epochs = 30], got 40"),
    ], ids=["acf-2-rows", "corr-1-row", "corr-identity-truth", "corr-2x2-truth",
            "train-2-rows", "ablate-2-rows", "sweep-w-2-rows", "evaluate-2-rows",
            "train-batch-size-0", "synth-latents-0", "synth-missing-rate-1.5",
            "train-max-rows-0", "train-patience-40"])
    def test_a_refused_data_or_truth_file_is_named(
            self, argv, code, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("two.csv").write_text("date,a,b,c\n1,0.5,1.0,2.0\n2,0.7,0.1,3.0\n")
        Path("one.csv").write_text("date,a,b,c\n1,0.5,1.0,2.0\n")
        Path("ab.csv").write_text("date,a,b\n1,0.5,1.0\n2,0.7,0.1\n")
        Path("eye.csv").write_text("a,b,c\n1,0,0\n0,1,0\n0,0,1\n")
        Path("t2.csv").write_text("a,b\n1,0.5\n0.5,1\n")
        save_checkpoint("m.ckpt", TQNet(ModelConfig(
            channels=3, lookback=8, horizon=4, period=4, hidden=4, heads=2)))
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("run").exists()

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a\n1,xyz\n")
        rc = main(["train", "--data", str(bad), *MICRO_ARGS])
        assert rc == 1
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b"date,a\n1," + b"9" * 200_000 + b"\n",  # over csv's field limit
        b"date,a\n1,\xff\n",  # not UTF-8
    ], ids=["field-limit", "not-utf8"])
    @pytest.mark.parametrize("command", ["acf", "corr"])
    def test_unreadable_csv_exits_1_naming_the_file(
            self, command, body, synth_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        argv = (["acf", "--data", str(bad)] if command == "acf" else
                ["corr", "--data", str(synth_csv), "--truth", str(bad)])
        assert main(argv) == 1
        assert f"{bad}: row 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,full", [
        (["train"], "--hid", "--hidden"),
        (["train"], "--pat", "--patience"),
        (["synth", "--out", "s.csv"], "--latent", "--latents"),
    ])
    def test_flag_abbreviations_exit_2_naming_the_flag(self, command, flag, full,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert getattr(build_parser().parse_args([*command, full, "3"]), full[2:]) == 3

    def test_missing_checkpoint_exits_1(self, synth_csv, capsys):
        rc = main(["evaluate", "--checkpoint", "no-such.ckpt",
                   "--data", str(synth_csv)])
        assert rc == 1

    def test_gradcheck_exits_0(self, capsys):
        rc = main(["gradcheck", "--hidden", "4", "--lookback", "8",
                   "--horizon", "2", "--period", "4"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


    @pytest.mark.parametrize("command", [
        ["train"], ["ablate", "--variants", "default"],
        ["sweep-w", "--periods", "8"], ["gradcheck"],
    ])
    def test_an_allocation_failure_exits_1_without_a_traceback(
            self, command, synth_csv, tmp_path, monkeypatch, capsys):
        def refuse(self, *args, **kwargs):
            # what numpy raises for a request the host cannot back
            raise MemoryError("Unable to allocate 3.35 TiB for an array")

        monkeypatch.setattr(TQNet, "__init__", refuse)
        argv = command if command == ["gradcheck"] else [
            *command, "--data", str(synth_csv),
            "--out-dir", str(tmp_path / "run"), *MICRO_ARGS]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 3.35 TiB")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--eps", "0"), ("--eps", "nan"),
                                            ("--tol", "-1"), ("--tol", "inf")])
    def test_gradcheck_rejects_a_non_positive_step_or_tolerance(
            self, flag, value, capsys):
        assert main(["gradcheck", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: gradient_check: {flag[2:]} must be finite "
                              "and positive, got ")
        assert "Traceback" not in err

    def test_synth_rejects_an_infinite_scale(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["synth", "--out", str(out), "--noise-sigma", "inf",
                   "--channels", "2", "--timesteps", "30", "--period", "8",
                   "--latents", "1"])
        assert rc == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["ablate"], ["covariates", "--sizes", "1"],
        ["sweep-w", "--periods", "4"],
    ])
    def test_a_nan_learning_rate_exits_2_before_any_artifact(
            self, command, synth_csv, tmp_path, capsys):
        args = [a if a != "0.003" else "nan" for a in MICRO_ARGS]
        rc = main([*command, *_data_flag(command, synth_csv),
                   "--out-dir", str(tmp_path / "run"), *args])
        assert rc == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,message", [
        (["ablate", "--variants", "nope"], "unknown variant 'nope'"),
        (["covariates", "--sizes", "99"], "subset sizes must lie in [0, 8]"),
        (["sweep-w", "--periods", "0,8"], "period must be a positive integer"),
        (["ablate", "--variant", "pure_mlp"],
         "ablate trains the variants of --variants, not variant 'pure_mlp'"),
        (["covariates", "--sizes", "0", "--n-covariates", "0"],
         "covariates must be a positive integer, got 0"),
        (["covariates", "--sizes", "1"],
         "horizon (8) must be >= smoothing width (12)"),
        (["ablate", "--seeds", "1,1,2"], "seed 1 is listed twice"),
        (["ablate", "--seeds", "1", "--seed", "5"],
         "ablate trains the seeds of --seeds, not seed 5"),
        (["sweep-w", "--periods", "8,8"], "period 8 is listed twice"),
        (["covariates", "--sizes", "1,1"], "subset size 1 is listed twice"),
        (["covariates", "--sizes", "1", "--data", "x.csv"],
         "covariates generates its own data, not data 'x.csv'"),
    ], ids=["unknown-variant", "covariates-out-of-range", "zero-period",
            "ablate-variant", "no-covariates", "horizon-below-smoothing",
            "ablate-repeated-seed", "ablate-seed", "sweep-repeated-period",
            "covariates-repeated-size", "covariates-data"])
    def test_a_bad_study_list_exits_2_before_any_artifact(
            self, command, message, synth_csv, tmp_path, capsys):
        rc = main([*command, *_data_flag(command, synth_csv),
                   "--out-dir", str(tmp_path / "run"), *MICRO_ARGS])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("variant", ["self_attention", "pure_mlp"])
    def test_sweep_w_refuses_a_variant_without_a_bank(
            self, variant, synth_csv, tmp_path, monkeypatch, capsys):
        # only the bank reads the period: each row would be one model
        calls = []
        monkeypatch.setattr("tqnet.analysis.run_experiment",
                            lambda *args, **kwargs: calls.append(args))
        rc = main(["sweep-w", "--data", str(synth_csv), "--periods", "4,8",
                   "--variant", variant, "--out-dir", str(tmp_path / "run"),
                   *MICRO_ARGS])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: variant '{variant}' has no query bank, so every period "
            "would train the same model\n")
        assert calls == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"], ["ablate", "--seeds", "1,-2"],
        ["synth", "--seed", "-3"], ["gradcheck", "--seed", "-1"],
    ], ids=["train", "ablate", "synth", "gradcheck"])
    def test_a_negative_seed_exits_2_before_any_artifact(
            self, argv, synth_csv, tmp_path, capsys):
        # numpy would refuse it only once a generator is seeded, and as exit 1
        if argv[0] == "synth":
            argv = [*argv, "--out", str(tmp_path / "run")]
        elif argv[0] != "gradcheck":
            argv = [*argv, "--data", str(synth_csv),
                    "--out-dir", str(tmp_path / "run"), *MICRO_ARGS]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer, got -")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--timesteps", "-5", "timesteps"), ("--n-covariates", "0", "covariates"),
        ("--n-covariates", "-1", "covariates"),
    ])
    def test_covariates_names_a_count_below_one(self, flag, value, name,
                                                tmp_path, capsys):
        # checked before the sizes, which would blame the split or the sizes
        assert main(["covariates", "--sizes", "0", flag, value,
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} must be a positive integer, got {value}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--out-dir", ""), ("train", "--dataset", ""),
        ("train", "--dataset", "a/b"), ("train", "--dataset", "../x"),
        ("ablate", "--dataset", "a/b"), ("sweep-w", "--out-dir", ""),
    ])
    def test_a_run_key_that_would_misplace_the_run_exits_2(
            self, command, flag, value, synth_csv, tmp_path, monkeypatch, capsys):
        # an empty out_dir would write into the working directory, and a
        # dataset with a path separator outside runs/ or below a subdirectory
        monkeypatch.chdir(tmp_path)
        extra = ["--periods", "8"] if command == "sweep-w" else []
        assert main([command, "--data", str(synth_csv), flag, value, *extra,
                     *MICRO_ARGS]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {key} must ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [("data", "x.csv")])
    def test_covariates_refuses_a_data_config_key(
            self, key, value, tmp_path, capsys):
        # it makes its own data; the key would be echoed in config.json and
        # never read.  A variant key is trained, as
        # test_covariates_trains_the_configured_variant shows.
        (tmp_path / "c.json").write_text(json.dumps({key: value}))
        rc = main(["covariates", "--sizes", "0", "--config", str(tmp_path / "c.json"),
                   "--out-dir", str(tmp_path / "run"), *COVARIATE_ARGS])
        assert rc == 2
        assert f"not {key} {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["ablate", "--covariates", "0,1"],
        ["covariates", "--sizes", "0", "--seeds", "1"],
        ["covariates", "--sizes", "0", "--variants", "default"],
    ], ids=["ablate-covariates", "covariates-seeds", "covariates-variants"])
    def test_a_flag_of_the_other_study_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["ablate", "--variants", "default"],
        ["covariates", "--sizes", "0"], ["sweep-w", "--periods", "8"],
    ], ids=["train", "ablate", "covariates", "sweep-w"])
    def test_a_run_that_fails_in_training_leaves_no_run_directory(
            self, command, synth_csv, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise NumericError("non-finite training loss at epoch 5")

        monkeypatch.setattr(tqnet.training, "fit", diverge)
        args = COVARIATE_ARGS if command[0] == "covariates" else MICRO_ARGS
        rc = main([*command, *_data_flag(command, synth_csv),
                   "--out-dir", str(tmp_path / "run"), *args])
        assert rc == 1
        assert "epoch 5" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--variants", "--seeds"])
    def test_ablate_rejects_an_empty_list(self, flag, synth_csv, tmp_path, capsys):
        rc = main(["ablate", "--data", str(synth_csv), flag, ",",
                   "--out-dir", str(tmp_path / "ablate"), *MICRO_ARGS])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "ablate").exists()


def _cell(text):
    """A CSV cell as an int, else a float, else the text."""
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def _results(out):
    """The records of ``out``'s results.jsonl, in order."""
    return [json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()]


def _check_study(out, printed, table, header, row_format, rows):
    """A study's run directory and stdout: ``config.json``; the CSV ``table``
    with ``header`` and ``rows`` rows; one ``results.jsonl`` line per row, in
    row order; and one ``row_format`` line per row, then ``artifacts in``."""
    assert (out / "config.json").is_file()
    lines = (out / table).read_text().splitlines()
    assert lines[0] == header
    cells = [dict(zip(header.split(","), map(_cell, line.split(","))))
             for line in lines[1:]]
    assert len(cells) == rows
    assert [r["mse"] for r in _results(out)] == [c["mse"] for c in cells]
    assert printed.splitlines() == [
        *(row_format.format(**c) for c in cells), f"artifacts in {out}"]
    return cells


class TestSweepAndAblate:
    def test_sweep_w_writes_table(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep-w", "--data", str(synth_csv), "--periods", "4,8",
                   "--out-dir", str(out), *MICRO_ARGS])
        assert rc == 0
        cells = _check_study(
            out, capsys.readouterr().out, "period_sweep.csv",
            "period,mse,mae,best_epoch",
            "period {period:4d}  mse {mse:.6f}  mae {mae:.6f}  "
            "best epoch {best_epoch}", rows=2)
        assert [c["period"] for c in cells] == [4, 8]

    def test_sweep_w_trains_the_configured_variant(self, synth_csv, tmp_path,
                                                   capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-w", "--data", str(synth_csv), "--periods", "4,8",
                     "--variant", "global_only", "--out-dir", str(out),
                     *MICRO_ARGS]) == 0
        assert [(r["W"], r["variant"]) for r in _results(out)] == [
            (4, "global_only"), (8, "global_only")]

    def test_covariates_trains_the_configured_variant(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"variant": "pure_mlp"}))
        out = tmp_path / "cov"
        assert main(["covariates", "--sizes", "0,2", "--config",
                     str(tmp_path / "c.json"), "--out-dir", str(out),
                     *COVARIATE_ARGS]) == 0
        results = _results(out)
        assert [r["variant"] for r in results] == ["pure_mlp", "pure_mlp"]
        # pure_mlp mixes no channels, so covariates cannot change its target
        # forecast: the rows are bitwise equal across sizes
        assert results[0]["mse"] == results[1]["mse"]
        assert results[0]["mae"] == results[1]["mae"]

    def test_runs_that_differ_only_in_a_list_get_two_directories(
            self, synth_csv, tmp_path, monkeypatch, capsys):
        # a study's lists join its config in config.json and in the hash
        monkeypatch.chdir(tmp_path)
        for seeds in ("3", "4"):
            assert main(["ablate", "--data", str(synth_csv), "--variants",
                         "pure_mlp", "--seeds", seeds, *MICRO_ARGS]) == 0
        seeds = set()
        for run in Path("runs").iterdir():
            echo = json.loads((run / "config.json").read_text())
            assert run.name == f"synth-{echo['config_hash']}"
            assert echo["variants"] == ["pure_mlp"]
            assert [r["seed"] for r in _results(run)] == echo["seeds"]
            seeds.add(tuple(echo["seeds"]))
        assert seeds == {(3,), (4,)}

    def test_ablate_variants(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "ablate"
        rc = main(["ablate", "--data", str(synth_csv),
                   "--variants", "default,pure_mlp", "--seeds", "7",
                   "--out-dir", str(out), *MICRO_ARGS])
        assert rc == 0
        cells = _check_study(
            out, capsys.readouterr().out, "variants.csv", "variant,mse,mae",
            "{variant:>20s}  mse {mse:.6f}  mae {mae:.6f}", rows=2)
        assert [c["variant"] for c in cells] == ["default", "pure_mlp"]

    def test_ablate_covariate_study(self, tmp_path, capsys):
        out = tmp_path / "cov"
        rc = main(["covariates", "--sizes", "2,0", "--out-dir", str(out),
                   *COVARIATE_ARGS])
        assert rc == 0
        cells = _check_study(
            out, capsys.readouterr().out, "covariate_study.csv",
            "covariates,mse,mae",
            "covariates {covariates:3d}  mse {mse:.6f}  mae {mae:.6f}", rows=2)
        assert [c["covariates"] for c in cells] == [0, 2]  # ascending
        echo = json.loads((out / "config.json").read_text())
        assert echo["dataset"] is None and echo["data"] is None
        results = (out / "results.jsonl").read_text().splitlines()
        assert [json.loads(r)["dataset"] for r in results] == [
            "covariates-n0", "covariates-n2"]

    def test_covariates_names_its_run_after_the_dataset_key(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = [a if a != "2" else "1" for a in COVARIATE_ARGS]  # one epoch
        assert main(["covariates", "--sizes", "0", "--dataset", "mix", *args]) == 0
        out, = Path("runs").iterdir()
        echo = json.loads((out / "config.json").read_text())
        assert out.name == f"mix-{echo['config_hash']}"
        result = json.loads((out / "results.jsonl").read_text())
        assert result["dataset"] == "mix-n0"

    def test_a_covariate_study_hashes_the_sizes_it_trains(
            self, tmp_path, monkeypatch, capsys):
        # it trains the sizes in ascending order, so "2,0" and "0,2" are one
        # study in one run directory
        monkeypatch.chdir(tmp_path)
        for sizes in ("2,0", "0,2"):
            assert main(["covariates", "--sizes", sizes, *COVARIATE_ARGS]) == 0
        out, = Path("runs").iterdir()
        echo = json.loads((out / "config.json").read_text())
        assert (echo["sizes"], echo["n_covariates"], echo["timesteps"]) == (
            [0, 2], 2, 420)


# Runs in a fresh interpreter in which importing scipy fails, so a scipy
# import anywhere on these paths, at import time or lazily, exits non-zero.
NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused: {name}")

sys.meta_path.insert(0, RefuseScipy())
from tqnet.cli import main

work = sys.argv[1]
rc = main(["gradcheck", "--hidden", "4", "--lookback", "8", "--horizon", "2",
           "--period", "4"])
rc = rc or main(["synth", "--out", work + "/s.csv", "--channels", "3",
                 "--timesteps", "120", "--period", "6", "--latents", "2"])
rc = rc or main(["train", "--data", work + "/s.csv", "--out-dir", work + "/run",
                 "--lookback", "8", "--horizon", "4", "--period", "6",
                 "--hidden", "8", "--heads", "2", "--max-epochs", "1",
                 "--patience", "1"])
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
sys.exit(rc)
"""


def test_commands_run_without_scipy(tmp_path):
    src = str(Path(tqnet.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "run" / "results.jsonl").exists()
