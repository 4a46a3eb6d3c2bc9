"""Model-level behaviour: bank indexing, attention wiring across variants,
instance-norm boundary, hand-constructed forecasters, and gradient flow."""

import math

import numpy as np
import pytest

from tqnet.errors import ConfigError, NumericError, ShapeError
from tqnet.kernels import row_norm_stats
from tqnet.model import (
    ModelConfig,
    VARIANTS,
    TQNet,
    parameter_shapes,
    segment_indices,
)
from tqnet.tensor import DiffTensor, Tape, gradient_check, mse_loss, row_affine
from tqnet.training import check_model_gradients

TINY = ModelConfig(
    channels=2, lookback=8, horizon=2, period=4, hidden=4, heads=2,
    attn_dropout=0.0, out_dropout=0.0, seed=2024, dtype="float64",
)


def tiny_model(variant="default", **overrides):
    from dataclasses import replace

    return TQNet(replace(TINY, variant=variant, **overrides))


class TestConfig:
    def test_lookback_must_divide_by_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(channels=2, lookback=10, horizon=2, period=4, heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=1, lookback=4, horizon=1, period=2,
                        heads=2, attn_dropout=1.0)

    def test_unknown_variant_name(self):
        with pytest.raises(ConfigError, match="unknown variant 'nope'; known: "):
            ModelConfig(channels=2, lookback=8, horizon=2, period=4, heads=2,
                        variant="nope")


class TestBankIndexing:
    def test_frozen_example(self):
        np.testing.assert_array_equal(
            segment_indices(t=3, length=6, period=4), [3, 0, 1, 2, 3, 0]
        )

    def test_periodicity_over_random_starts(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(0, 10_000))
            k = int(rng.integers(1, 50))
            a = segment_indices(t, 96, 24)
            b = segment_indices(t + k * 24, 96, 24)
            np.testing.assert_array_equal(a, b)

    def test_negative_start_rejected(self):
        model, x = tiny_model(), np.zeros((2, 2, 8))
        with pytest.raises(ValueError, match="^t must"):
            model.predict(x[0], -1)
        with pytest.raises(ValueError, match=r"^t must .* got \[3, -1\]"):
            model.predict(x, np.array([3, -1]))

    def test_array_of_starts_gives_one_row_each(self):
        starts = np.array([3, 0, 6])
        np.testing.assert_array_equal(
            segment_indices(starts, 6, 4),
            [segment_indices(t, 6, 4) for t in starts],
        )

    def test_zero_bank_gives_uniform_attention(self):
        model = tiny_model()
        x = np.random.default_rng(1).normal(size=(2, 8))
        for w in model.attention_weights(x, t=5):
            np.testing.assert_allclose(w, np.full((2, 2), 0.5), atol=1e-6)


class TestInstanceNorm:
    def test_round_trip_including_constant_channels(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 32), scale=4.0).astype(np.float32)
        x[2, :] = 7.25  # constant channel
        x[4, :] = 0.0
        xn, mu, std = row_norm_stats(x, 1e-5)
        back = row_affine(None, DiffTensor(xn), std, mu).values
        assert np.abs(back - x).max() < 1e-5

    def test_constant_channel_normalizes_to_zero(self):
        x = np.full((1, 16), 3.0)
        xn, mu, std = row_norm_stats(x, 1e-5)
        np.testing.assert_array_equal(xn, np.zeros((1, 16)))
        assert mu[0] == 3.0 and std[0] == np.sqrt(1e-5)


class TestForward:
    def test_output_shape_and_determinism(self):
        model = tiny_model()
        x = np.random.default_rng(3).normal(size=(2, 8))
        a = model.predict(x, t=0)
        b = model.predict(x, t=0)
        assert a.shape == (2, 2)
        np.testing.assert_array_equal(a, b)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            tiny_model().predict(np.zeros((3, 8)), t=0)

    @pytest.mark.parametrize("x_shape,t", [
        ((2, 8), [0]),           # one window, a stack of starts
        ((3, 2, 8), 0),          # a stack, one start
        ((3, 2, 8), [0, 1]),     # a start missing
        ((1, 3, 2, 8), [[0]]),   # rank 4
        ((8,), 0),
    ])
    def test_window_and_start_shapes_must_agree(self, x_shape, t):
        t_shape = np.asarray(t).shape
        with pytest.raises(ShapeError, match=rf"x \({x_shape[0]},.*t \(") as err:
            tiny_model().predict(np.zeros(x_shape), t)
        assert str(t_shape) in str(err.value)

    @pytest.mark.parametrize("t", [2.9, True, -1], ids=["float", "bool", "negative"])
    @pytest.mark.parametrize("vname", list(VARIANTS))
    def test_window_start_must_be_a_non_negative_int(self, vname, t):
        # 2.9 would read phase 2 and True phase 1, with or without a bank
        model, x = tiny_model(vname), np.zeros((2, 2, 8))
        with pytest.raises(ValueError, match=f"^t must .* got {t!r}$"):
            model.predict(x[0], t)
        with pytest.raises(ValueError, match="^t must"):
            model.predict(x, np.full(2, t))

    @pytest.mark.parametrize("vname", list(VARIANTS))
    def test_stack_matches_window_by_window(self, vname):
        model = tiny_model(vname)
        rng = np.random.default_rng(12)
        if model.bank is not None:
            model.bank.values[...] = rng.normal(size=(2, 4))
        x = rng.normal(size=(5, 2, 8))
        t = np.array([0, 3, 5, 2, 9])
        stacked = model.predict(x, t)
        assert stacked.shape == (5, 2, 2)
        for i in range(5):
            np.testing.assert_allclose(stacked[i], model.predict(x[i], t[i]),
                                       rtol=1e-12, atol=1e-12)

    def test_non_finite_input_rejected(self):
        x = np.zeros((2, 8))
        x[0, 0] = np.nan
        with pytest.raises(NumericError, match="input window"):
            tiny_model().predict(x, t=0)

    def test_non_finite_intermediate_names_stage(self):
        model = tiny_model()
        model.params["proj_out.w"].values[0, 0] = np.inf
        with pytest.raises(NumericError, match="output projection"):
            model.predict(np.random.default_rng(0).normal(size=(2, 8)), t=0)

    def test_train_mode_needs_rng_when_dropout_active(self):
        model = tiny_model(attn_dropout=0.5)
        with pytest.raises(ValueError, match="rng"):
            model.forward(np.zeros((2, 8)), 0, Tape(), mode="train")

    def test_constant_input_zero_weights_predicts_constant(self):
        model = tiny_model()
        for p in model.parameters():
            p.values[...] = 0.0
        x = np.full((2, 8), 5.5)
        x[1, :] = -3.0
        pred = model.predict(x, t=0)
        np.testing.assert_allclose(pred[0], 5.5, atol=1e-9)
        np.testing.assert_allclose(pred[1], -3.0, atol=1e-9)

    def test_hand_built_persistence_model(self):
        # route the last normalized input value straight to every horizon step
        model = tiny_model()
        for p in model.parameters():
            p.values[...] = 0.0
        model.params["proj_in.w"].values[TINY.lookback - 1, 0] = 1.0
        model.params["proj_out.w"].values[0, :] = 1.0
        x = np.random.default_rng(4).normal(size=(2, 8), scale=2.0)
        pred = model.predict(x, t=0)
        # de-normalization maps the normalized last value back to x[:, -1]
        np.testing.assert_allclose(pred, np.tile(x[:, -1:], (1, 2)), atol=1e-9)


class TestVariants:
    def test_default_variant_equals_base_model(self):
        a = TQNet(TINY)
        b = tiny_model("default")
        x = np.random.default_rng(5).normal(size=(2, 8))
        np.testing.assert_array_equal(a.predict(x, 1), b.predict(x, 1))

    def test_parameter_lists_per_variant(self):
        names = {v: [n for n, _ in tiny_model(v).named_parameters()]
                 for v in VARIANTS}
        assert any("attn" in n for n in names["default"])
        assert "bank.theta" in names["default"]
        assert "bank.theta" in names["channel_identifier"]
        assert not any("attn" in n for n in names["channel_identifier"])
        assert "bank.theta" not in names["pure_mlp"]
        assert not any("attn" in n for n in names["pure_mlp"])

    def test_a_variant_has_a_bank_exactly_when_a_source_is_the_bank(self):
        with_bank = set()
        for name, wiring in VARIANTS.items():
            model = tiny_model(name)
            has = "bank" in (wiring.query_source, wiring.key_source)
            assert ("bank.theta" in dict(parameter_shapes(model.config))) == has, name
            assert (model.bank is None) != has, name
            with_bank |= {name} if has else set()
        assert with_bank == {"default", "global_only", "channel_identifier"}

    def test_raw_self_attention_never_touches_bank(self):
        model = tiny_model("self_attention")
        assert model.bank is None and "bank.theta" not in model.params
        x = np.random.default_rng(6).normal(size=(2, 8))
        y = np.random.default_rng(7).normal(size=(2, 2))
        tape = Tape()
        loss = mse_loss(tape, model.forward(x, 2, tape, mode="train"), y)
        tape.backward(loss)
        assert all(p.grad is not None for p in model.parameters())

    def test_channel_identifier_adds_bank_segment(self):
        model = tiny_model("channel_identifier")
        rng = np.random.default_rng(8)
        model.bank.values[...] = rng.normal(size=(2, 4))
        x = rng.normal(size=(2, 8))
        base = model.predict(x, t=0)
        shifted = model.predict(x, t=1)  # different phase, different identity mix
        assert not np.allclose(base, shifted)

    def test_variant_names_round_trip(self):
        for name in VARIANTS:
            assert tiny_model(name).wiring == VARIANTS[name]

    @pytest.mark.parametrize("vname", list(VARIANTS))
    def test_gradients_per_variant(self, vname):
        model = tiny_model(vname)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 8))
        y = rng.normal(size=(2, 2))
        if model.bank is not None:
            model.bank.values[...] = rng.normal(size=(2, 4), scale=0.1)

        def closure():
            tape = Tape()
            return mse_loss(tape, model.forward(x, 3, tape, "train"), y), tape

        res = gradient_check(closure, model.parameters(), tol=1e-4)
        assert res.passed, res.summary()

    @pytest.mark.parametrize("vname", list(VARIANTS))
    def test_masked_batch_gradients_per_variant(self, vname):
        res = check_model_gradients(tiny_model(vname), data_seed=13)
        assert res.passed, res.summary()


def head_block(model, w, h):
    """Head ``h``'s (lookback x lookback/heads) column block of ``attn.{w}``."""
    d = model.config.lookback // model.config.heads
    return model.params[f"attn.{w}"].values[:, h * d : (h + 1) * d]


def per_head_weights(model, q_src, k_src):
    """Each head's softmax weights from its own narrow Q and K projections:
    the reference for the one-stack attention."""
    cfg = model.config
    weights = []
    for h in range(cfg.heads):
        q = q_src @ head_block(model, "wq", h)
        k = k_src @ head_block(model, "wk", h)
        scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(cfg.lookback))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights.append(e / e.sum(axis=-1, keepdims=True))
    return weights


def per_head_attention(model, q_src, k_src, v_src, p, rng):
    """The attention block head by head, with one dropout mask per head."""
    heads = []
    for h, w in enumerate(per_head_weights(model, q_src, k_src)):
        if p:
            keep = (rng.random(w.shape) >= p).astype(w.dtype)
            w = w * (keep / w.dtype.type(1.0 - p))
        heads.append(w @ (v_src @ head_block(model, "wv", h)))
    return np.concatenate(heads, axis=-1) @ model.params["attn.wo"].values + v_src


def attention_sources(vname, dtype, x, t):
    model = tiny_model(vname, dtype=dtype, channels=3, lookback=12, heads=4,
                       attn_dropout=0.5)
    if model.bank is not None:
        model.bank.values[...] = np.random.default_rng(14).normal(
            size=model.bank.shape)
    xt, seg, _ = model._inputs(x, t, None)
    return model, xt, *model._qk_sources(xt, seg)


ATTENTION_VARIANTS = ["default", "self_attention", "global_only"]


class TestBatchedAttention:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("vname", ATTENTION_VARIANTS)
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_matches_per_head_reference(self, vname, dtype, mode):
        x = np.random.default_rng(17).normal(size=(5, 3, 12))
        model, xt, q_src, k_src = attention_sources(
            vname, dtype, x, np.array([0, 3, 5, 2, 9]))
        drop_a, drop_b = np.random.default_rng(7), np.random.default_rng(7)
        p = model.config.attn_dropout if mode == "train" else 0.0
        got = model._attention(None, q_src, k_src, xt, p, drop_a).values
        want = per_head_attention(model, q_src.values, k_src.values, xt.values,
                                  p, drop_b)
        assert got.dtype == want.dtype == model.config.dtype
        tol = 1e-12 if dtype == "float64" else 1e-5
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        assert drop_a.bit_generator.state == drop_b.bit_generator.state

    @pytest.mark.parametrize("vname", ATTENTION_VARIANTS)
    def test_weights_are_the_per_head_slices_of_one_stack(self, vname):
        x = np.random.default_rng(18).normal(size=(3, 12))
        model, _, q_src, k_src = attention_sources(vname, "float64", x, 5)
        got = model.attention_weights(x, 5)
        want = per_head_weights(model, q_src.values, k_src.values)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.shape == (3, 3)
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("vname", list(VARIANTS))
    def test_weights_draw_from_the_seed_in_parameter_order(self, vname, dtype):
        # each ``.w*`` weight is U(+-1/sqrt(rows)), drawn in parameter_shapes
        # order from default_rng(seed); biases and the bank are zero
        model = tiny_model(vname, heads=4, dtype=dtype)
        rng = np.random.default_rng(model.config.seed)
        for name, (rows, cols) in parameter_shapes(model.config):
            got = model.params[name].values
            want = np.zeros((rows, cols), dtype=dtype)
            if name.rpartition(".")[2].startswith("w"):
                bound = 1.0 / math.sqrt(rows)
                want = rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)
            assert got.tobytes() == want.tobytes(), name

    def test_tape_length_does_not_grow_with_heads(self):
        # a train forward plus its loss: the attention core is one node
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 2))
        # self_attention reads no bank, so it records no bank gather
        for vname, nodes in [("default", 15), ("global_only", 15),
                             ("self_attention", 14), ("channel_identifier", 10),
                             ("pure_mlp", 8)]:
            for heads in (1, 4):
                for attn_dropout in (0.5, 0.0):
                    model = tiny_model(vname, heads=heads, attn_dropout=attn_dropout)
                    tape = Tape()
                    pred = model.forward(x, np.array([0, 1, 2]), tape, "train",
                                         np.random.default_rng(0))
                    mse_loss(tape, pred, y)
                    assert len(tape) == nodes, (vname, heads, attn_dropout)

