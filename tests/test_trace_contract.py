"""The contract the benchmark's trace mode relies on.

``perfbench/instrument.py`` (read here, never edited) wraps the first
argument of ``Tape.record``, the node's backward, in a ``tensor.bwd.<op>``
span.  A traced run must therefore record those spans and still train to
the same bits as an untraced one.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import tqnet
from tqnet import analysis, checkpoint, cli, data, kernels, model, tensor, training  # noqa: F401
from tqnet.data import SplitSpec, SynthSpec, generate_synthetic
from tqnet.model import ModelConfig
from tqnet.training import TrainPlan, run_experiment

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def _instrument(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _train_one_epoch():
    table, _ = generate_synthetic(SynthSpec(channels=3, timesteps=96, period=8,
                                            seed=3))
    config = ModelConfig(channels=3, lookback=8, horizon=4, period=8, hidden=8,
                         heads=2, attn_dropout=0.5, out_dropout=0.5, seed=3)
    plan = TrainPlan(batch_size=8, max_epochs=1, patience=1, seed=3)
    res = run_experiment(table, config, plan, SplitSpec(0.6, 0.2, 0.2))
    return res.model.snapshot()


def test_traced_run_spans_each_backward_and_trains_to_the_same_bits(monkeypatch):
    untraced = _train_one_epoch()
    record = tqnet.tensor.Tape.record
    tracer = _instrument(monkeypatch).Tracer(tqnet)
    try:
        tracer.install()
        traced = _train_one_epoch()
    finally:
        tracer.uninstall()
    assert tqnet.tensor.Tape.record is record
    spans = {name for name, _ in tracer.agg["spans"]}
    ops = ("linear", "dropout", "gather_cols", "mse_loss")
    assert {f"tensor.bwd.{op}" for op in ops} <= spans
    assert tracer.agg["nodes"] > 0
    np.testing.assert_array_equal(traced, untraced)
