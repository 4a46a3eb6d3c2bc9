"""The benchmark's two workloads.

Each workload is a closed loop with one caller: its constructor is the
set-up (everything before the first timed call), ``run_pass`` is one fixed
unit of work that the runner repeats until the run's time is spent, and
``checks`` verifies the outputs after the timed phase.  Every input comes
from the workload seed.  All calls into tqnet go through module attributes
(``tq.training.fit``, not a bound import), so the runner's hooks see them.

Shapes:

- ``etth1_fit_forecast``: the ``configs/etth1.json`` model (7 channels,
  L = H = 96, hidden 512, 4 heads, dropout 0.5/0.5, batch 32) on a
  4000 x 7 synthetic stand-in for the ETTh1 CSV, which is not shipped.
  One pass is one epoch of ``training.fit`` from the same initial
  parameters, then the forecast side: checkpoint save, CSV load,
  checkpoint load, ``evaluate`` over the test windows, one ``predict`` per
  test window, the bank correlation and one ``tqnet evaluate`` CLI call.
- ``grid_ablate``: ``analysis.run_variant_matrix`` over all five variants
  at the acceptance-grid shape (8 channels, 1440 steps, 30 % missing,
  L = 12, H = 24, hidden 64), one seed, one epoch each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np

ETT_LOOKBACK = ETT_HORIZON = 96
# the ETT preset trains 30 epochs with patience 5; the benchmark fixes the
# epoch count instead, so the work done does not depend on the loss curve
ETT_EPOCHS = 1
GRID_EPOCHS = 1
GRID_VARIANTS = (
    "default", "self_attention", "global_only", "channel_identifier", "pure_mlp",
)


def zeros_mse(windows):
    """MSE of an all-zeros forecast, averaged per window like ``evaluate``."""
    return float(np.mean([np.mean(np.square(w.y, dtype=np.float64)) for w in windows]))


def _windows(tq, splits, part):
    return tq.data.make_windows(getattr(splits, part), ETT_LOOKBACK, ETT_HORIZON)


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _same_fits(passes):
    first = [(f.train_curve, f.val_curve, f.param_sha256) for f in passes[0].fits]
    return all(
        [(f.train_curve, f.val_curve, f.param_sha256) for f in p.fits] == first
        for p in passes
    )


class Etth1FitForecast:
    name = "etth1_fit_forecast"

    def __init__(self, tq, seed, workdir):
        self.tq = tq
        spec = tq.data.SynthSpec(channels=7, timesteps=4000, period=24, seed=seed)
        self.split = tq.data.SplitSpec(0.6, 0.2, 0.2, max_rows=14400)
        config = tq.model.ModelConfig(
            channels=7, lookback=ETT_LOOKBACK, horizon=ETT_HORIZON, period=24,
            hidden=512, heads=4, attn_dropout=0.5, out_dropout=0.5, seed=seed,
        )
        self.plan = tq.training.TrainPlan(
            lr=1e-3, batch_size=32, max_epochs=ETT_EPOCHS, patience=ETT_EPOCHS, seed=seed,
        )
        table, _ = tq.data.generate_synthetic(spec)
        self.csv = workdir / "ett_standin.csv"
        self.ckpt = workdir / "ett.ckpt"
        tq.data.write_csv(table, self.csv)
        splits = tq.data.split_and_scale(table, self.split, lookback=ETT_LOOKBACK)
        self.train_w = _windows(tq, splits, "train")
        self.val_w = _windows(tq, splits, "val")
        self.model = tq.model.TQNet(config)
        self.init_state = self.model.snapshot()
        self.cli_argv = [
            "evaluate", "--data", str(self.csv), "--checkpoint", str(self.ckpt),
            "--train-frac", "0.6", "--val-frac", "0.2", "--test-frac", "0.2",
            "--max-rows", "14400",
        ]
        self.checkpoint_bytes = 0
        self.first = None

    def run_pass(self):
        tq = self.tq
        self.model.restore(self.init_state)
        tq.training.fit(self.model, self.train_w, self.val_w, self.plan)
        tq.checkpoint.save_checkpoint(self.ckpt, self.model)
        self.checkpoint_bytes = self.ckpt.stat().st_size

        table = tq.data.load_csv(self.csv)
        splits = tq.data.split_and_scale(table, self.split, lookback=ETT_LOOKBACK)
        test_w = _windows(tq, splits, "test")
        model = tq.checkpoint.load_checkpoint(self.ckpt)
        mse, _ = tq.training.evaluate(model, test_w)
        predict_ms = []
        preds = []
        for w in test_w:
            t0 = time.perf_counter()
            pred = model.predict(w.x, w.t)
            predict_ms.append((time.perf_counter() - t0) * 1e3)
            preds.append(pred)
        corr = tq.analysis.bank_correlation(model)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tq.cli.main(self.cli_argv)
        cli_ms = (time.perf_counter() - t0) * 1e3
        preds = np.stack(preds)
        if self.first is None:  # kept once, so memory does not grow with the run
            self.first = {"test_w": test_w, "preds": preds, "corr": corr,
                          "cli_stdout": out.getvalue(), "cli_stderr": err.getvalue()}
        return {
            "test_mse": mse,
            "predict_ms": predict_ms,
            "preds_sha256": hashlib.sha256(preds.tobytes()).hexdigest(),
            "nonfinite_preds": int((~np.isfinite(preds)).any(axis=(1, 2)).sum()),
            "cli_rc": rc,
            "cli_ms": cli_ms,
        }

    def quality(self, passes, outs):
        return {"val_mse": (passes[0].fits[0].best_val_mse, "mse", len(passes)),
                "test_mse": (outs[0]["test_mse"], "mse", len(outs))}

    def checks(self, passes, outs):
        first = self.first
        test_w, preds = first["test_w"], first["preds"]
        val, mse = passes[0].fits[0].best_val_mse, outs[0]["test_mse"]
        val_zero, test_zero = zeros_mse(self.val_w), zeros_mse(test_w)
        # every pass ends with the same parameters (passes_bit_identical)
        in_memory = np.stack([self.model.predict(w.x, w.t) for w in test_w])
        per_window = [
            float(np.mean(np.square(p.astype(np.float64) - w.y.astype(np.float64))))
            for p, w in zip(preds, test_w)
        ]
        mean_predict = float(np.mean(per_window))
        corr = first["corr"]
        C = self.model.config.channels
        try:
            cli_mse = json.loads(first["cli_stdout"].strip().splitlines()[-1])["mse"]
        except (ValueError, IndexError, KeyError, TypeError):
            cli_mse = None
        return [
            _check("val_mse_beats_zeros", math.isfinite(val) and val < val_zero,
                   f"val_mse {val!r} vs all-zeros {val_zero!r}"),
            _check("test_mse_beats_zeros", math.isfinite(mse) and mse < test_zero,
                   f"test_mse {mse!r} vs all-zeros {test_zero!r}"),
            _check("checkpoint_predictions_bitwise", np.array_equal(preds, in_memory),
                   f"{len(test_w)} windows, loaded vs in-memory model"),
            _check("evaluate_matches_predict",
                   math.isclose(mse, mean_predict, rel_tol=1e-6),
                   f"evaluate {mse!r} vs mean per-window predict mse {mean_predict!r}"),
            _check("bank_correlation_finite",
                   corr.shape == (C, C) and bool(np.isfinite(corr).all()),
                   f"shape {corr.shape}"),
            _check("cli_evaluate", outs[0]["cli_rc"] == 0 and cli_mse == mse,
                   f"exit {outs[0]['cli_rc']}, mse {cli_mse!r}; "
                   f"stderr {first['cli_stderr'].strip()!r}"),
            _check("passes_bit_identical",
                   _same_fits(passes)
                   and all(o["preds_sha256"] == outs[0]["preds_sha256"]
                           and o["test_mse"] == mse for o in outs),
                   f"{len(passes)} passes, same curves, parameter SHA-256, "
                   f"predictions and test mse"),
        ]


class GridAblate:
    name = "grid_ablate"

    def __init__(self, tq, seed, workdir):
        self.tq = tq
        self.seed = seed
        spec = tq.data.SynthSpec(
            channels=8, timesteps=1440, period=24, latents=3,
            noise_sigma=0.1, missing_rate=0.3, seed=seed,
        )
        self.table, _ = tq.data.generate_synthetic(spec)
        self.split = tq.data.SplitSpec(0.6, 0.2, 0.2)
        self.config = tq.model.ModelConfig(
            channels=8, lookback=12, horizon=24, period=24, hidden=64, heads=4,
            attn_dropout=0.0, out_dropout=0.0, seed=seed,
        )
        self.plan = tq.training.TrainPlan(
            lr=3e-3, batch_size=32, max_epochs=GRID_EPOCHS, patience=GRID_EPOCHS,
            seed=seed,
        )

    def run_pass(self):
        rows, _ = self.tq.analysis.run_variant_matrix(
            self.table, self.config, self.plan, self.split,
            variants=GRID_VARIANTS, seeds=[self.seed], dataset="grid",
        )
        return {"test_mse": [r["mse"] for r in rows]}

    def _val_mse(self, stats):
        return float(np.mean([f.best_val_mse for f in stats.fits]))

    def quality(self, passes, outs):
        return {"val_mse": (self._val_mse(passes[0]), "mse", len(passes))}

    def checks(self, passes, outs):
        splits = self.tq.data.split_and_scale(self.table, self.split, self.config.lookback)
        val_w = self.tq.data.make_windows(splits.val, self.config.lookback, self.config.horizon)
        zero = zeros_mse(val_w)
        val = self._val_mse(passes[0])
        tests = outs[0]["test_mse"]
        return [
            _check("val_mse_beats_zeros", math.isfinite(val) and val < zero,
                   f"mean val_mse over {len(GRID_VARIANTS)} variants {val!r} "
                   f"vs all-zeros {zero!r}"),
            _check("variants_ran", len(passes[0].fits) == len(GRID_VARIANTS)
                   and all(math.isfinite(m) for m in tests),
                   f"{len(passes[0].fits)} fits, test mse {tests}"),
            _check("passes_bit_identical",
                   _same_fits(passes) and all(o == outs[0] for o in outs),
                   f"{len(passes)} passes, same curves, parameter SHA-256 and test mse"),
        ]


WORKLOADS = {w.name: w for w in (Etth1FitForecast, GridAblate)}
