"""Property tests of the CLI's exit-code contract: any argv for the fast
subcommands and the studies ends in exit 0, 1 or 2, never in an uncaught
exception, and any JSON object as a ``--config`` file ends in exit 1 or 2
before training.

Sizes are drawn from small ranges, so no example allocates a large array or
runs a long gradient check.  A study's runs are stubbed out, so no example
trains; an argv that exits 2 must not reach them.
"""

import json
from dataclasses import fields
from unittest import mock

import pytest

from tqnet.checkpoint import save_checkpoint
from tqnet.cli import RunConfig, main
from tqnet.model import ModelConfig, TQNet
from tqnet.training import ExperimentResult, MetricsReport

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SMALL_INT = st.integers(-2, 64).map(str)
TINY_INT = st.integers(-1, 6).map(str)  # gradcheck cost grows with each size
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr),
    st.sampled_from(["0", "-1", "1e9", "abc", ""]),
)
# a comma-separated study list: empty items, repeats, negatives, non-integers
INT_LIST = st.lists(
    st.sampled_from([*map(str, range(-2, 10)), "", " ", "1.5", "x", "True"]),
    max_size=4,
).map(",".join)
VARIANT_LIST = st.lists(
    st.sampled_from(["default", "pure_mlp", "self_attention", "nope", "", " "]),
    max_size=3,
).map(",".join)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths the drawn argv can name: good inputs, bad inputs, outputs."""
    d = tmp_path_factory.mktemp("prop")
    assert main(["synth", "--out", str(d / "good.csv"), "--channels", "3",
                 "--timesteps", "120", "--period", "6", "--latents", "2"]) == 0
    (d / "bad.csv").write_text("date,a\n1,xyz\n")
    (d / "empty.csv").write_text("")
    (d / "junk.ckpt").write_bytes(b"TQNT\x00junk")
    save_checkpoint(d / "model.ckpt", TQNet(ModelConfig(
        channels=3, lookback=8, horizon=4, period=6, hidden=4, heads=2)))
    return {
        "good.csv": d / "good.csv",
        "truth.csv": d / "good.csv.truth.csv",
        "bad.csv": d / "bad.csv",
        "empty.csv": d / "empty.csv",
        "junk.ckpt": d / "junk.ckpt",
        "model.ckpt": d / "model.ckpt",
        "missing": d / "no-such-file",
        "out": d / "out.csv",
        "outdir": d / "study",
    }


# subcommand -> flag -> value strategy; a value of a file name is a key of
# ``files``
FLAGS = {
    "gradcheck": {
        "--channels": TINY_INT, "--lookback": TINY_INT, "--horizon": TINY_INT,
        "--period": TINY_INT, "--hidden": TINY_INT, "--heads": TINY_INT,
        "--variant": st.sampled_from(["default", "pure_mlp", "global_only",
                                      "channel_identifier", "nope"]),
        "--eps": NUMBER, "--tol": NUMBER, "--seed": SMALL_INT,
    },
    "acf": {
        "--data": st.sampled_from(["good.csv", "bad.csv", "empty.csv", "missing"]),
        "--max-lag": SMALL_INT,
        "--out": st.just("out"),
    },
    "synth": {
        "--out": st.just("out"),
        "--channels": SMALL_INT, "--timesteps": SMALL_INT, "--period": SMALL_INT,
        "--latents": SMALL_INT, "--noise-sigma": NUMBER, "--spike-rate": NUMBER,
        "--spike-scale": NUMBER, "--missing-rate": NUMBER,
        "--mixing-scale": NUMBER, "--seed": SMALL_INT,
    },
    "corr": {
        "--data": st.sampled_from(["good.csv", "bad.csv", "missing"]),
        "--checkpoint": st.sampled_from(["model.ckpt", "junk.ckpt", "missing"]),
        "--truth": st.sampled_from(["truth.csv", "good.csv", "bad.csv", "missing"]),
        "--out": st.just("out"),
    },
    "ablate": {"--variants": VARIANT_LIST, "--seeds": INT_LIST},
    "sweep-w": {"--periods": INT_LIST},
    "covariates": {"--sizes": INT_LIST},
}
# flags every argv of a command carries: a study reads the good data, unless
# it makes its own, and writes to a scratch directory, never to runs/
FIXED = {
    "ablate": ["--data", "good.csv", "--out-dir", "outdir"],
    "sweep-w": ["--data", "good.csv", "--out-dir", "outdir"],
    "covariates": ["--out-dir", "outdir"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True))
    argv = [command, *FIXED.get(command, [])]
    for flag in chosen:
        argv += [flag, draw(flags[flag])]
    if draw(st.booleans()) and chosen:  # a flag without its value
        argv.append(chosen[0])
    return argv


def _no_training(table, config, plan, split, dataset="series", log=None):
    """``run_experiment``'s result, untrained."""
    report = MetricsReport(
        dataset=dataset, lookback=config.lookback, horizon=config.horizon,
        period=config.period, variant=config.variant,
        seed=plan.seed, mse=1.0, mae=1.0, best_epoch=1, wall_time_s=0.0)
    return ExperimentResult(model=None, fit=None, report=report)


# seven commands share the examples, so each draws about fifty
@hypothesis.settings(max_examples=350, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(argv=argvs())
def test_any_argv_exits_0_1_or_2(files, argv):
    argv = [str(files[a]) if a in files else a for a in argv]
    with mock.patch("tqnet.analysis.run_experiment",
                    side_effect=_no_training) as run:
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    assert rc in (0, 1, 2), argv
    assert rc != 2 or not run.called, argv  # a bad argument trains nothing


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(config=st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)]), JSON, max_size=6))
def test_any_config_object_exits_1_or_2(files, config):
    path = files["out"].with_name("config.json")
    path.write_text(json.dumps(config))
    with mock.patch("tqnet.cli.run_experiment",
                    side_effect=AssertionError("trained")):
        rc = main(["train", "--data", str(files["missing"]),
                   "--config", str(path)])
    assert rc in (1, 2), config
