"""End-to-end CLI behaviour: every subcommand, config precedence, artifact
files, and the exit-code contract (0 ok, 1 runtime, 2 config/usage)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tqnet
from tqnet.checkpoint import load_checkpoint, save_checkpoint
from tqnet.cli import RunConfig, main, resolve_config
from tqnet.data import SplitSpec, SynthSpec, generate_synthetic, write_csv
from tqnet.errors import ConfigError
from tqnet.model import ModelConfig, TQNet, VariantSpec
from tqnet.training import TrainPlan

MICRO_ARGS = [
    "--lookback", "16", "--horizon", "8", "--period", "8", "--hidden", "12",
    "--heads", "2", "--attn-dropout", "0.0", "--out-dropout", "0.0",
    "--max-epochs", "2", "--patience", "2", "--lr", "0.003",
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
        cfg_file.write_text(json.dumps({"shuffle": 1}))
        with pytest.raises(ConfigError, match="shuffle"):
            resolve_config(cfg_file, {})

    def test_int_accepted_for_float(self):
        cfg = resolve_config(None, {"lr": 1})
        assert cfg.lr == 1.0 and isinstance(cfg.lr, float)

    def test_run_config_defaults_match_the_dataclasses(self, tmp_path):
        cfg = RunConfig()
        assert cfg.train_plan() == TrainPlan()
        assert cfg.split_spec() == SplitSpec()
        assert cfg.model_config(7) == ModelConfig(7, 96, 96, 24)
        ref = tmp_path / "ref.csv"
        write_csv(generate_synthetic(SynthSpec())[0], ref)
        assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == ref.read_bytes()


def _model_config(**kw):
    return ModelConfig(channels=2, lookback=8, horizon=2, period=4, heads=2, **kw)


class TestFieldTypes:
    """Every config dataclass holds its fields to their annotations."""

    @pytest.mark.parametrize("build,field,value", [
        (TrainPlan, "batch_size", True),
        (TrainPlan, "shuffle", "false"),
        (TrainPlan, "target_rows", [0]),
        pytest.param(TrainPlan, "lr", 10**400, id="TrainPlan-lr-beyond-float"),
        (SplitSpec, "border_context", "false"),
        (SplitSpec, "max_rows", 2.5),
        (SynthSpec, "channels", 3.5),
        (RunConfig, "data", 5),
        (VariantSpec, "query_source", 1),
        # None only where the annotation says ``X | None``
        (TrainPlan, "lr", None),
        (SplitSpec, "border_context", None),
        (SynthSpec, "seed", None),
        (RunConfig, "variant", None),
        (_model_config, "dtype", None),
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
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_synth_rejects_an_infinite_scale(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["synth", "--out", str(out), "--mixing-scale", "inf",
                   "--channels", "2", "--timesteps", "30", "--period", "8",
                   "--latents", "1"])
        assert rc == 2
        assert "mixing_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["ablate"], ["ablate", "--covariates", "1"],
        ["sweep-w", "--periods", "4"],
    ])
    def test_a_nan_learning_rate_exits_2_before_any_artifact(
            self, command, synth_csv, tmp_path, capsys):
        args = [a if a != "0.003" else "nan" for a in MICRO_ARGS]
        rc = main([*command, "--data", str(synth_csv),
                   "--out-dir", str(tmp_path / "run"), *args])
        assert rc == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,message", [
        (["ablate", "--variants", "nope"], "unknown variant 'nope'"),
        (["ablate", "--covariates", "99"], "subset sizes must lie in [0, 8]"),
        (["sweep-w", "--periods", "0,8"], "period must be a positive integer"),
    ], ids=["unknown-variant", "covariates-out-of-range", "zero-period"])
    def test_a_bad_study_list_exits_2_before_any_artifact(
            self, command, message, synth_csv, tmp_path, capsys):
        rc = main([*command, "--data", str(synth_csv),
                   "--out-dir", str(tmp_path / "run"), *MICRO_ARGS])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--variants", "--seeds"])
    def test_ablate_rejects_an_empty_list(self, flag, synth_csv, tmp_path, capsys):
        rc = main(["ablate", "--data", str(synth_csv), flag, ",",
                   "--out-dir", str(tmp_path / "ablate"), *MICRO_ARGS])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "ablate").exists()


class TestSweepAndAblate:
    def test_sweep_w_writes_table(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep-w", "--data", str(synth_csv), "--periods", "4,8",
                   "--include-disabled", "--out-dir", str(out), *MICRO_ARGS])
        assert rc == 0
        lines = (out / "period_sweep.csv").read_text().splitlines()
        assert lines[0] == "period,mse,mae,best_epoch"
        assert len(lines) == 4  # 2 periods + disabled + header
        assert lines[-1].startswith("off,")

    def test_ablate_variants(self, synth_csv, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["ablate", "--data", str(synth_csv),
                   "--variants", "default,pure_mlp", "--seeds", "7",
                   "--out-dir", str(out), *MICRO_ARGS])
        assert rc == 0
        lines = (out / "variants.csv").read_text().splitlines()
        assert len(lines) == 3
        results = (out / "results.jsonl").read_text().splitlines()
        assert len(results) == 2

    def test_ablate_covariate_study(self, tmp_path):
        out = tmp_path / "cov"
        rc = main(["ablate", "--covariates", "0,2", "--n-covariates", "2",
                   "--timesteps", "420", "--out-dir", str(out),
                   "--lookback", "16", "--horizon", "16", "--period", "8",
                   "--hidden", "8", "--heads", "2", "--attn-dropout", "0.0",
                   "--out-dropout", "0.0", "--max-epochs", "2",
                   "--patience", "2",
                   "--train-frac", "0.6", "--val-frac", "0.2",
                   "--test-frac", "0.2"])
        assert rc == 0
        lines = (out / "covariate_study.csv").read_text().splitlines()
        assert lines[0] == "covariates,mse,mae"
        assert len(lines) == 3


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
