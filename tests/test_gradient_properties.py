"""Property test: the finite-difference gradient check of the training
forward pass holds at tol 1e-4 off the fixed shapes too: random tiny float64
configs of every variant, random window starts, repeated loss rows, dropout
on or off, and a bank off its zero init."""

import numpy as np
import pytest

from tqnet.model import VARIANTS, ModelConfig, TQNet
from tqnet.tensor import Tape, gradient_check, mse_loss

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DROPOUTS = st.sampled_from([0.0, 0.3])


@st.composite
def configs(draw, variant):
    heads = draw(st.integers(1, 3), label="heads")
    return ModelConfig(
        channels=draw(st.integers(1, 4), label="channels"),
        lookback=heads * draw(st.integers(1, 3), label="head_dim"),
        horizon=draw(st.integers(1, 3), label="horizon"),
        period=draw(st.integers(1, 5), label="period"),
        hidden=draw(st.integers(1, 5), label="hidden"),
        heads=heads,
        attn_dropout=draw(DROPOUTS, label="attn_dropout"),
        out_dropout=draw(DROPOUTS, label="out_dropout"),
        dtype="float64",
        variant=variant,
    )


@pytest.mark.parametrize("variant", VARIANTS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_gradient_check_holds_on_random_tiny_configs(variant, data):
    config = data.draw(configs(variant), label="config")
    starts = data.draw(st.lists(st.integers(0, 100), min_size=1, max_size=3),
                       label="window starts")
    rows = data.draw(st.lists(st.integers(0, config.channels - 1), min_size=1,
                              max_size=3), label="loss rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    model = TQNet(config)
    rng = np.random.default_rng(seed)
    t = np.array(starts)
    x = rng.normal(size=(len(t), config.channels, config.lookback))
    y = rng.normal(size=(len(t), config.channels, config.horizon))
    if model.bank is not None:
        model.bank.values[...] = rng.normal(size=model.bank.shape, scale=0.1)

    def closure():
        # the same dropout masks on every pass
        dropout_rng = np.random.default_rng(seed)
        tape = Tape()
        pred = model.forward(x, t, tape, mode="train", rng=dropout_rng)
        return mse_loss(tape, pred, y, rows=tuple(rows)), tape

    result = gradient_check(closure, model.parameters(), tol=1e-4)
    assert result.passed, result.summary()
