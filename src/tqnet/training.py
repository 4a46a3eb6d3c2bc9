"""Optimization loop: Adam, patience-based early stopping, evaluation, and
the JSONL results log.

Each epoch visits the training windows in a fresh random order drawn from
the plan's seed.  Each minibatch is one index array into them, run through
one forward pass on one tape; the batch-mean L2 loss's ``backward``
leaves the minibatch gradient in the parameters for one fused Adam step.
The model owns one flat buffer of weights and Adam one of gradients, laid
out alike: each parameter's gradient is written straight into its slice of
Adam's, so the step copies no gradient and updates the weights in place.
Validation runs after every epoch; when ``patience`` epochs have passed
since the best one, training stops and the best epoch's weights are
restored.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import kernels
from .data import make_windows, split_and_scale
from .errors import ConfigError, NumericError, check_field_types
from .model import TQNet, flat_views
from .tensor import Tape, gradient_check, mse_loss

# windows per forward pass in ``evaluate``; bounds its working set
EVAL_BATCH = 32

# Adam's moment decay rates and the epsilon of its denominator
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainPlan:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    seed: int = 2024
    target_rows: tuple | None = None  # restrict loss/metrics to these channels

    def __post_init__(self):
        check_field_types(self)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr!r}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError(
                f"patience must be in [1, max_epochs], got {self.patience}"
            )
        rows = self.target_rows
        if rows is not None and not (rows and all(
                isinstance(r, int) and not isinstance(r, bool) and r >= 0
                for r in rows)):
            raise ConfigError("target_rows must be a non-empty tuple of "
                              f"non-negative ints, got {rows!r}")


class Adam:
    """Bias-corrected Adam over a model's parameter buffer.

    The model owns the weights (``TQNet.values``); a step updates that
    buffer in place with one ``kernels.adam_update`` call over the whole
    model.  Adam owns the gradient ``g`` and the moments ``m`` and ``v``,
    each laid out like ``model.values``.  Each parameter's ``grad_home`` is
    its slice of ``g``, so a backward pass writes the gradients where the
    step reads them.
    """

    def __init__(self, model, plan):
        self.values = model.values
        self.params = model.parameters()
        self.plan = plan
        self.g = np.empty_like(self.values)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self._grads = flat_views(self.g, [p.shape for p in self.params])
        for p, g in zip(self.params, self._grads):
            p.grad_home = g
        self.t = 0

    def step(self):
        """Apply one update from accumulated grads, then clear them.

        A gradient a backward pass left is already in ``g``; one assigned to
        ``p.grad`` by hand is copied in, and a parameter without one gets
        zeros.
        """
        self.t += 1
        for p, g in zip(self.params, self._grads):
            if p.grad is None:
                g.fill(0)
            elif p.grad is not g:
                g[...] = p.grad
            p.zero_grad()
        kernels.adam_update(self.values, self.g, self.m, self.v,
                            self.plan.lr, *ADAM_BETAS, ADAM_EPS, self.t)


def _rows(a, target_rows):
    return a if target_rows is None else a[..., list(target_rows), :]


def evaluate(model, windows, target_rows=None):
    """Mean per-window MSE/MAE in eval mode, uniform over windows."""
    if not windows:
        raise ConfigError("evaluate needs at least one window")
    mse_sum = 0.0
    mae_sum = 0.0
    for start in range(0, len(windows), EVAL_BATCH):
        chunk = windows[start : start + EVAL_BATCH]
        pred = model.predict(chunk.x, chunk.t)
        mse, mae = kernels.mse_mae(_rows(pred, target_rows),
                                   _rows(chunk.y.astype(pred.dtype), target_rows))
        # windows are equal in size: a chunk's mean is that of its windows' means
        mse_sum += mse * len(chunk)
        mae_sum += mae * len(chunk)
    n = len(windows)
    return mse_sum / n, mae_sum / n


@dataclass
class FitResult:
    best_epoch: int
    epochs_run: int
    best_val_mse: float
    train_curve: list = field(default_factory=list)
    val_curve: list = field(default_factory=list)


def fit(model, train_windows, val_windows, plan, log=None):
    """Train in place; returns the fit trace.  Deterministic per plan seed.

    An epoch improves when its validation MSE is below the best so far; a
    tie does not.  A non-finite training or validation loss raises
    ``NumericError``."""
    if not train_windows or not val_windows:
        raise ConfigError("fit needs non-empty train and val windows")
    shuffle_rng = np.random.default_rng([plan.seed, 0])
    dropout_rng = np.random.default_rng([plan.seed, 1])
    opt = Adam(model, plan)
    result = FitResult(best_epoch=0, epochs_run=0, best_val_mse=float("inf"))

    n = len(train_windows)
    try:
        for epoch in range(1, plan.max_epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_mse = 0.0
            for b_start in range(0, n, plan.batch_size):
                b = train_windows[order[b_start : b_start + plan.batch_size]]
                tape = Tape()
                pred = model.forward(b.x, b.t, tape, mode="train", rng=dropout_rng)
                loss = mse_loss(tape, pred, b.y, rows=plan.target_rows)
                mse = loss.item()
                if not np.isfinite(mse):
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, "
                        f"batch starting at sample {b_start}"
                    )
                tape.backward(loss)
                opt.step()
                epoch_mse += mse * len(b)
            epoch_mse /= n

            val_mse, _ = evaluate(model, val_windows, plan.target_rows)
            if not np.isfinite(val_mse):
                raise NumericError(f"non-finite validation loss at epoch {epoch}")
            # a finite loss beats the initial inf, so epoch 1 sets best_state
            improved = val_mse < result.best_val_mse
            if improved:
                result.best_epoch, result.best_val_mse = epoch, val_mse
                best_state = model.snapshot()
            result.train_curve.append(epoch_mse)
            result.val_curve.append(val_mse)
            result.epochs_run = epoch
            if log is not None:
                log(epoch, epoch_mse, val_mse, improved)
            if epoch - result.best_epoch >= plan.patience:
                break
    finally:
        for p in opt.params:  # the model keeps no hold on Adam's gradients
            p.grad_home = None

    model.restore(best_state)
    return result


# ---------------------------------------------------------------------------
# whole-experiment orchestration and the results log
# ---------------------------------------------------------------------------

# the results.jsonl schema: one key per MetricsReport field, in field order
RESULT_KEYS = (
    "dataset", "L", "H", "W", "variant", "seed",
    "mse", "mae", "best_epoch", "wall_time_s",
)


@dataclass(frozen=True)
class MetricsReport:
    dataset: str
    lookback: int
    horizon: int
    period: int
    variant: str
    seed: int
    mse: float
    mae: float
    best_epoch: int
    wall_time_s: float

    @classmethod
    def of(cls, config, dataset, seed, mse, mae, best_epoch=0, wall_time_s=0.0):
        """The report of the model ``config`` scored on ``dataset``."""
        return cls(dataset=dataset, lookback=config.lookback, horizon=config.horizon,
                   period=config.period, variant=config.variant, seed=seed,
                   mse=mse, mae=mae, best_epoch=best_epoch, wall_time_s=wall_time_s)

    def results_line(self):
        rec = dict(zip(RESULT_KEYS, astuple(self), strict=True))
        rec["wall_time_s"] = round(rec["wall_time_s"], 3)
        return json.dumps(rec)


def config_hash(*dicts):
    blob = json.dumps(dicts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ExperimentResult:
    model: TQNet
    fit: FitResult
    report: MetricsReport


def run_experiment(table, config, plan, split, dataset="series", log=None):
    """Split, train, and score on the test part.  One results-line per call."""
    splits = split_and_scale(table, split, lookback=config.lookback)
    train_w = make_windows(splits.train, config.lookback, config.horizon)
    val_w = make_windows(splits.val, config.lookback, config.horizon)
    test_w = make_windows(splits.test, config.lookback, config.horizon)

    model = TQNet(config)
    t0 = time.perf_counter()
    fit_res = fit(model, train_w, val_w, plan, log=log)
    mse, mae = evaluate(model, test_w, plan.target_rows)
    wall = time.perf_counter() - t0

    report = MetricsReport.of(config, dataset, plan.seed, mse, mae,
                              fit_res.best_epoch, wall)
    return ExperimentResult(model=model, fit=fit_res, report=report)


def check_model_gradients(model, data_seed, **tolerances):
    """``gradient_check`` of a float64, dropout-free ``model`` on the training
    path: three windows at phases 3, 0 and 6, loss rows ``(0, C-1, C-1)``.
    x, y and a bank off its zero init are drawn in that order from
    ``default_rng(data_seed)``; the bank keeps the drawn values.
    ``tolerances`` (``eps``, ``tol``) go to ``gradient_check``, whose
    defaults hold for one not given."""
    c = model.config
    rng = np.random.default_rng(data_seed)
    t = np.array([3, 0, 6])
    x = rng.normal(size=(len(t), c.channels, c.lookback))
    y = rng.normal(size=(len(t), c.channels, c.horizon))
    rows = (0, c.channels - 1, c.channels - 1)
    if model.bank is not None:
        model.bank.values[...] = rng.normal(size=model.bank.shape, scale=0.1)

    def closure():
        tape = Tape()
        pred = model.forward(x, t, tape=tape, mode="train")
        return mse_loss(tape, pred, y, rows=rows), tape

    return gradient_check(closure, model.parameters(), **tolerances)


def append_results(path, reports):
    with open(path, "a") as fh:
        for r in reports:
            fh.write(r.results_line() + "\n")


def reseeded(config, plan, seed):
    """Same experiment under a different seed (init + shuffle + dropout)."""
    return replace(config, seed=seed), replace(plan, seed=seed)
