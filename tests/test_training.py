"""Optimization behaviour: Adam stepping, the early-stopping contract,
masked losses, evaluation, determinism, and the results-line schema."""

import gc
import json
from dataclasses import replace

import numpy as np
import pytest

from tqnet import kernels, training
from tqnet.checkpoint import load_checkpoint, save_checkpoint
from tqnet.data import (
    SeriesTable,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    make_windows,
    split_and_scale,
)
from tqnet.errors import ConfigError, NumericError
from tqnet.model import VARIANTS, ModelConfig, TQNet, flat_views, parameter_shapes
from tqnet.tensor import DiffTensor, Tape, mse_loss
from tqnet.training import (
    ADAM_BETAS,
    ADAM_EPS,
    Adam,
    MetricsReport,
    TrainPlan,
    evaluate,
    fit,
    run_experiment,
)

MICRO = ModelConfig(
    channels=4, lookback=16, horizon=8, period=8, hidden=16, heads=2,
    attn_dropout=0.0, out_dropout=0.0, seed=2024,
)
MICRO64 = replace(MICRO, dtype="float64")
MICRO_PLAN = TrainPlan(lr=3e-3, batch_size=16, max_epochs=3, patience=3,
                       seed=2024)


def micro_table():
    table, _ = generate_synthetic(
        SynthSpec(channels=4, timesteps=400, period=8, latents=2, seed=0)
    )
    return table


class TestAdam:
    def test_first_step_magnitude(self):
        model = TQNet(MICRO64)
        init = model.snapshot()
        grad = np.resize([0.4, -0.4, 2.0], init.shape)
        opt = Adam(model, TrainPlan(lr=1e-3))
        params = model.parameters()
        for p, g in zip(params, flat_views(grad, [p.shape for p in params])):
            p.grad = g.copy()  # assigned by hand, so the step copies it in
        opt.step()
        np.testing.assert_allclose(
            model.values, init - 1e-3 * np.sign(grad), atol=1e-6
        )
        assert all(p.grad is None for p in model.parameters())  # cleared

    def test_converges_on_quadratic(self):
        model = TQNet(MICRO64)
        model.values[...] = 5.0
        opt = Adam(model, TrainPlan(lr=0.1))
        for _ in range(300):
            for p in model.parameters():
                p.grad = 2.0 * (p.values - 3.0)
            opt.step()
        assert np.abs(model.values - 3.0).max() < 1e-3

    def test_parameter_without_gradient_stays_put(self):
        model = TQNet(MICRO64)
        before = {name: p.values.copy() for name, p in model.named_parameters()}
        used = model.params["mlp.w1"]
        opt = Adam(model, TrainPlan(lr=0.01))
        used.grad = np.ones_like(used.values)
        opt.step()
        for name, p in model.named_parameters():
            if p is used:
                assert (p.values != before[name]).all()
            else:
                np.testing.assert_array_equal(p.values, before[name])


def adam_reference(p, g, m, v, lr, beta1, beta2, eps, t):
    """Adam as one expression per line on whole arrays: the formula the
    packed, chunked step must reproduce bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


class TestPackedAdam:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_equal_to_per_parameter_reference(self, dtype):
        rng = np.random.default_rng(5)
        model = TQNet(replace(MICRO, dtype=dtype))
        named = model.named_parameters()
        ref = [p.values.copy() for _, p in named]
        ref_m = [np.zeros_like(v) for v in ref]
        ref_v = [np.zeros_like(v) for v in ref]
        plan = TrainPlan(lr=3e-3)
        opt = Adam(model, plan)
        for t in range(1, 6):
            grads = {name: rng.normal(size=p.shape).astype(dtype)
                     for name, p in named}
            grads["attn.wk"] = None  # this parameter never gets a gradient
            if t % 2 == 0:
                grads["proj_in.b"] = None  # and this one only on odd steps
            for name, p in named:
                p.grad = None if grads[name] is None else grads[name].copy()
            opt.step()
            for i, (name, _) in enumerate(named):
                g = grads[name]
                adam_reference(
                    ref[i], np.zeros_like(ref[i]) if g is None else g,
                    ref_m[i], ref_v[i],
                    plan.lr, *ADAM_BETAS, ADAM_EPS, t,
                )
        for (_, p), r in zip(named, ref):
            assert p.values.shape == r.shape and p.dtype == dtype
            np.testing.assert_array_equal(p.values, r)
            assert p.grad is None

    def test_kernel_chunks_equal_the_unchunked_formula(self):
        n = 2 * kernels.ADAM_CHUNK + 123
        rng = np.random.default_rng(6)
        p, g = (rng.normal(size=n).astype(np.float32) for _ in range(2))
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        state = [a.copy() for a in (p, g, m, v)]
        for t in (1, 2, 3):
            kernels.adam_update(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, t)
            adam_reference(*state, 1e-3, 0.9, 0.999, 1e-8, t)
        for got, want in zip((p, m, v), (state[0], state[2], state[3])):
            np.testing.assert_array_equal(got, want)

    def test_in_place_writes_are_what_the_next_step_trains(self, tmp_path):
        model = TQNet(MICRO)
        # off every seed's init, so only a write can make the targets equal
        model.values[...] = np.random.default_rng(3).normal(size=model.values.shape)
        save_checkpoint(tmp_path / "m.ckpt", model)
        trained = TQNet(replace(MICRO, seed=7))
        plan = TrainPlan(lr=0.1)
        for source in ("restore", "load_checkpoint"):
            if source == "restore":
                opt = Adam(trained, plan)
                trained.restore(model.snapshot())
                target = trained
            else:
                target = load_checkpoint(tmp_path / "m.ckpt")
                opt = Adam(target, plan)
            want = {name: p.values.copy() for name, p in model.named_parameters()}
            for name, p in target.named_parameters():
                np.testing.assert_array_equal(p.values, want[name])
                p.grad = np.ones_like(p.values)
            opt.step()
            for name, p in target.named_parameters():
                g, m, v = (np.ones_like(want[name]), np.zeros_like(want[name]),
                           np.zeros_like(want[name]))
                adam_reference(want[name], g, m, v, plan.lr, *ADAM_BETAS,
                               ADAM_EPS, 1)
                np.testing.assert_array_equal(p.values, want[name])


def _train_backward(model):
    """One train-mode backward with both dropouts and a row mask with a
    repeat, on fixed inputs; returns the prediction and the loss."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 4, 16))
    y = rng.normal(size=(5, 4, 8))
    tape = Tape()
    pred = model.forward(x, np.array([0, 3, 5, 8, 13]), tape, mode="train",
                         rng=np.random.default_rng(4))
    loss = mse_loss(tape, pred, y, rows=(0, 3, 3))
    tape.backward(loss)
    return pred, loss


class TestGradientOwnership:
    """Backward writes each gradient once: a parameter's lands in its slice
    of ``Adam.g``, and no two live tensors share gradient memory."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_train_step_writes_gradients_into_adam_g(self, variant):
        cfg = replace(MICRO, attn_dropout=0.3, out_dropout=0.2, variant=variant)
        plain = TQNet(cfg)
        _train_backward(plain)
        want = {name: p.grad for name, p in plain.named_parameters()}

        gc.collect()
        before = {id(o) for o in gc.get_objects() if isinstance(o, DiffTensor)}
        model = TQNet(cfg)
        opt = Adam(model, MICRO_PLAN)
        opt.g.fill(np.nan)  # what a slice no gradient reached would keep
        pred, loss = _train_backward(model)
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, DiffTensor)
                and id(o) not in before and o.grad is not None]
        assert any(o is pred for o in live) and any(o is loss for o in live)
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad), (a, b)

        offset = 0
        base = opt.g.__array_interface__["data"][0]
        for name, p in model.named_parameters():
            # every parameter the variant has is read by its forward, so each
            # gets its own slice of ``g``, holding the plain tape's bits
            assert want[name] is not None and p.grad is not None, name
            assert p.grad.shape == p.shape and np.shares_memory(p.grad, opt.g)
            start = p.grad.__array_interface__["data"][0] - base
            assert start == offset * opt.g.itemsize, name
            np.testing.assert_array_equal(p.grad, want[name])
            offset += p.values.size
        opt.step()
        assert np.isfinite(opt.g).all() and np.isfinite(model.values).all()
        assert all(p.grad is None for p in model.parameters())


class TestParameterBuffer:
    """The model owns one flat buffer of weights: each parameter is a view
    of it, and training does not move them (``restore`` and
    ``load_checkpoint`` writing through: see ``TestPackedAdam``)."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parameters_are_consecutive_views_of_values(self, variant, dtype):
        cfg = replace(MICRO, dtype=dtype, variant=variant)
        model = TQNet(cfg)
        shapes = parameter_shapes(cfg)
        assert [name for name, _ in model.named_parameters()] == [
            name for name, _ in shapes]
        assert model.values.ndim == 1 and model.values.dtype == cfg.dtype
        base = model.values.__array_interface__["data"][0]
        offset = 0
        for (name, p), (_, shape) in zip(model.named_parameters(), shapes):
            assert p.shape == shape and p.values.flags.c_contiguous, name
            assert np.shares_memory(p.values, model.values), name
            start = p.values.__array_interface__["data"][0] - base
            assert start == offset * model.values.itemsize, name
            offset += p.values.size
        assert offset == model.values.size
        assert model.bank is model.params.get("bank.theta")

    def test_adam_and_fit_leave_the_buffer_in_place(self):
        model = TQNet(MICRO)
        buffer, init = model.values, model.snapshot()
        views = [p.values for p in model.parameters()]
        assert Adam(model, MICRO_PLAN).values is buffer
        splits = split_and_scale(micro_table(), SplitSpec(0.6, 0.2, 0.2), 16)
        fit(model, make_windows(splits.train, 16, 8),
            make_windows(splits.val, 16, 8),
            replace(MICRO_PLAN, max_epochs=1, patience=1))
        assert model.values is buffer
        assert all(p.values is v for p, v in zip(model.parameters(), views))
        assert not np.array_equal(buffer, init)  # trained where it lives


def frozen_fit(monkeypatch, val_mses, patience):
    """``fit`` a micro model, one step per epoch, with ``evaluate`` returning
    ``val_mses`` in turn.  Returns the model, the fit result, the weights
    each epoch was validated with, and the epoch of each ``snapshot`` call
    (0 before the first validation)."""
    splits = split_and_scale(micro_table(), SplitSpec(0.6, 0.2, 0.2), 16)
    model = TQNet(MICRO)
    validated, snapshot_epochs = [], []

    def frozen_evaluate(m, windows, target_rows=None):
        validated.append(m.values.copy())
        return val_mses[len(validated) - 1], 0.0

    def counted_snapshot():
        snapshot_epochs.append(len(validated))
        return TQNet.snapshot(model)

    monkeypatch.setattr(training, "evaluate", frozen_evaluate)
    monkeypatch.setattr(model, "snapshot", counted_snapshot)
    plan = TrainPlan(lr=3e-3, batch_size=16, max_epochs=len(val_mses),
                     patience=patience, seed=1)
    res = fit(model, make_windows(splits.train, 16, 8)[:16],
              make_windows(splits.val, 16, 8), plan)
    return model, res, validated, snapshot_epochs


class TestEarlyStopper:
    """Early stopping as ``fit`` runs it, and the plan settings it reads."""

    def test_frozen_sequence_stops_after_epoch_8(self, monkeypatch):
        losses = [5.0, 4.0, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 99.0, 99.0]
        _, res, _, _ = frozen_fit(monkeypatch, losses, patience=5)
        assert res.epochs_run == 8
        assert res.best_epoch == 3
        assert res.best_val_mse == 3.0
        assert res.val_curve == losses[:8]

    def test_tie_is_not_an_improvement(self, monkeypatch):
        _, res, _, snapshot_epochs = frozen_fit(monkeypatch, [1.0, 1.0, 1.0, 0.5],
                                                patience=2)
        assert res.epochs_run == 3
        assert res.best_epoch == 1
        assert snapshot_epochs == [1]

    def test_snapshot_once_per_improving_epoch(self, monkeypatch):
        losses = [5.0, 4.0, 4.5, 3.0, 3.0, 3.5]
        _, res, _, snapshot_epochs = frozen_fit(monkeypatch, losses, patience=6)
        assert res.epochs_run == 6
        assert snapshot_epochs == [1, 2, 4]  # none before epoch 1

    def test_restores_the_best_epochs_weights(self, monkeypatch):
        losses = [5.0, 4.0, 3.0, 3.1, 3.2]
        model, res, validated, _ = frozen_fit(monkeypatch, losses, patience=2)
        assert res.epochs_run == 5 and res.best_epoch == 3
        assert not np.array_equal(validated[2], validated[-1])  # it trained on
        np.testing.assert_array_equal(model.values, validated[2])

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0),
    ])
    def test_step_sizes_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainPlan(**{field: value})

    @pytest.mark.parametrize("rows", [(), ("a",), (True,), (1.5,), (-1,)],
                             ids=["empty", "str", "bool", "float", "negative"])
    def test_target_rows_must_be_non_negative_ints(self, rows):
        with pytest.raises(ConfigError, match="^target_rows must be a non-empty"):
            TrainPlan(target_rows=rows)

    def test_patience_validation(self):
        with pytest.raises(ConfigError):
            TrainPlan(patience=0)
        with pytest.raises(ConfigError):
            TrainPlan(patience=31, max_epochs=30)


class TestLosses:
    def test_masked_loss_matches_manual_row(self):
        rng = np.random.default_rng(0)
        pred = DiffTensor(rng.normal(size=(3, 5)), requires_grad=True)
        target = rng.normal(size=(3, 5))
        tape = Tape()
        loss = mse_loss(tape, pred, target, rows=(1,))
        d = pred.values[1] - target[1]
        assert loss.item() == pytest.approx(np.mean(d * d))
        tape.backward(loss)
        expected = np.zeros((3, 5))
        expected[1] = 2.0 * d / d.size
        np.testing.assert_allclose(pred.grad, expected)

    def test_evaluate_is_uniform_over_windows(self):
        model = TQNet(MICRO)
        splits = split_and_scale(micro_table(), SplitSpec(0.6, 0.2, 0.2), lookback=16)
        windows = make_windows(splits.val, 16, 8)
        chunk = training.EVAL_BATCH
        # part of a chunk; two full chunks and a part; a row mask with a repeat
        for count, rows in ((7, None), (2 * chunk + 5, None), (chunk + 1, (2, 0, 2))):
            assert len(windows) >= count
            mse, mae = evaluate(model, windows[:count], target_rows=rows)
            sel = slice(None) if rows is None else list(rows)
            per = [
                (np.mean((model.predict(w.x, w.t) - w.y)[sel] ** 2),
                 np.mean(np.abs(model.predict(w.x, w.t) - w.y)[sel]))
                for w in windows[:count]
            ]
            assert mse == pytest.approx(np.mean([p[0] for p in per]), rel=1e-6)
            assert mae == pytest.approx(np.mean([p[1] for p in per]), rel=1e-6)


@pytest.fixture(scope="module")
def fitted():
    return run_experiment(
        micro_table(), MICRO, MICRO_PLAN, SplitSpec(0.6, 0.2, 0.2),
        dataset="micro",
    )


class TestFit:
    def test_training_reduces_validation_loss(self, fitted):
        curve = fitted.fit.val_curve
        assert min(curve) < curve[0] or len(curve) == 1
        assert fitted.fit.best_val_mse == min(curve)
        assert np.isfinite(fitted.report.mse) and np.isfinite(fitted.report.mae)

    def test_the_trained_model_releases_adams_gradient_buffer(self, fitted):
        assert all(p.grad_home is None for p in fitted.model.parameters())

    def test_best_epoch_consistent(self, fitted):
        assert fitted.fit.val_curve[fitted.fit.best_epoch - 1] == (
            fitted.fit.best_val_mse
        )

    def test_deterministic_rerun(self, fitted):
        res2 = run_experiment(
            micro_table(), MICRO, MICRO_PLAN, SplitSpec(0.6, 0.2, 0.2),
            dataset="micro",
        )
        assert res2.report.mse == fitted.report.mse
        assert res2.report.mae == fitted.report.mae
        assert res2.fit.val_curve == fitted.fit.val_curve
        for (_, a), (_, b) in zip(
            fitted.model.named_parameters(), res2.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.values, b.values)

    def test_restores_best_parameters(self):
        # force max_epochs past the optimum; final params must equal the best
        table = micro_table()
        snaps = []
        model_cfg = MICRO
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), 16)
        train_w = make_windows(splits.train, 16, 8)
        val_w = make_windows(splits.val, 16, 8)
        model = TQNet(model_cfg)
        plan = TrainPlan(lr=3e-3, batch_size=16, max_epochs=4, patience=2,
                         seed=1)

        def log(epoch, train_mse, val_mse, improved):
            if improved:
                snaps.append(model.snapshot())

        res = fit(model, train_w, val_w, plan, log=log)
        params = model.parameters()
        best = flat_views(snaps[-1], [p.shape for p in params])
        for p, b in zip(params, best):
            np.testing.assert_array_equal(p.values, b)
        assert res.best_epoch >= 1

    def test_non_finite_loss_raises_with_location(self):
        table = micro_table()
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), 16)
        train_w = make_windows(splits.train, 16, 8)
        val_w = make_windows(splits.val, 16, 8)
        model = TQNet(MICRO)
        model.params["mlp.w1"].values[0, 0] = np.nan
        with pytest.raises(NumericError, match="training loss at epoch 1"):
            fit(model, train_w, val_w, TrainPlan(max_epochs=1, patience=1))
        assert all(p.grad_home is None for p in model.parameters())

    def test_non_finite_validation_loss_raises(self):
        table = micro_table()
        spec = SplitSpec(0.6, 0.2, 0.2)
        n_train, n_val, _ = spec.boundaries(table.timesteps)
        data = table.data.copy()
        data[n_train + n_val - 1, 0] = np.nan  # the last validation row
        table = SeriesTable(names=table.names, timestamps=table.timestamps,
                            data=data)
        splits = split_and_scale(table, spec, 16)
        train_w = make_windows(splits.train, 16, 8)
        val_w = make_windows(splits.val, 16, 8)
        model = TQNet(MICRO)
        with pytest.raises(NumericError, match="validation loss at epoch 1$"):
            fit(model, train_w, val_w, TrainPlan(max_epochs=2, patience=1))
        assert all(p.grad_home is None for p in model.parameters())

    def test_one_tape_per_minibatch(self, monkeypatch):
        tapes = []

        class CountingTape(Tape):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(training, "Tape", CountingTape)
        splits = split_and_scale(micro_table(), SplitSpec(0.6, 0.2, 0.2), 16)
        train_w = make_windows(splits.train, 16, 8)
        val_w = make_windows(splits.val, 16, 8)
        plan = TrainPlan(batch_size=16, max_epochs=1, patience=1)
        fit(TQNet(MICRO), train_w, val_w, plan)
        assert len(tapes) == -(-len(train_w) // plan.batch_size)
        assert len(train_w) % plan.batch_size  # the last batch is a part one

    def test_each_window_runs_with_its_own_start(self, monkeypatch):
        splits = split_and_scale(micro_table(), SplitSpec(0.6, 0.2, 0.2), 16)
        train_w = make_windows(splits.train, 16, 8)
        val_w = make_windows(splits.val, 16, 8)
        # a start names one span of the scaled series, whichever part holds it
        by_start = {w.t: w for w in [*train_w, *val_w]}
        model = TQNet(MICRO)
        forward, seen = model.forward, []

        def checked(x, t, *args, **kwargs):
            for xi, ti in zip(x, t):
                np.testing.assert_array_equal(by_start[int(ti)].x, xi)
            seen.append(len(t))
            return forward(x, t, *args, **kwargs)

        monkeypatch.setattr(model, "forward", checked)
        fit(model, train_w, val_w, TrainPlan(batch_size=16, max_epochs=1, patience=1))
        assert len(val_w) > training.EVAL_BATCH  # evaluate runs several chunks
        assert sum(seen) == len(train_w) + len(val_w)

    def test_empty_windows_rejected(self):
        with pytest.raises(ConfigError):
            fit(TQNet(MICRO), [], [], MICRO_PLAN)


class TestResultsLine:
    def test_schema_keys_exact_and_ordered(self):
        report = MetricsReport(
            dataset="x", lookback=96, horizon=96, period=24,
            variant="default", seed=2024, mse=0.5, mae=0.4,
            best_epoch=7, wall_time_s=12.345678,
        )
        line = report.results_line()
        rec = json.loads(line)
        assert list(rec) == [
            "dataset", "L", "H", "W", "variant", "seed",
            "mse", "mae", "best_epoch", "wall_time_s",
        ]
        assert rec["L"] == 96 and rec["W"] == 24
        assert rec["wall_time_s"] == 12.346
