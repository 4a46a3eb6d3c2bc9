"""Optimization loop: Adam, patience-based early stopping, evaluation, and
the JSONL results log.

Each minibatch is one index array into the training windows, run through
one forward pass on one tape; the batch-mean L2 loss's ``backward``
leaves the minibatch gradient in the parameters for one fused Adam step.
Each parameter's gradient is written straight into its slice of Adam's
packed gradient buffer, so the step copies no gradient.
Validation runs after every epoch; when the patience budget of consecutive
non-improving epochs is spent, training stops and the best-validation
parameter snapshot is restored.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .data import make_windows, split_and_scale
from .errors import ConfigError, NumericError, check_field_types
from .model import TQNet
from .tensor import Tape, mse_loss

# windows per forward pass in ``evaluate``; bounds its working set
EVAL_BATCH = 32


@dataclass(frozen=True)
class TrainPlan:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    shuffle: bool = True
    seed: int = 2024
    target_rows: tuple | None = None  # restrict loss/metrics to these channels

    def __post_init__(self):
        check_field_types(self)
        for name in ("lr", "adam_eps"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v!r}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError(
                f"patience must be in [1, max_epochs], got {self.patience}"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("adam betas must be in [0, 1)")
        rows = self.target_rows
        if rows is not None and not (rows and all(
                isinstance(r, int) and not isinstance(r, bool) and r >= 0
                for r in rows)):
            raise ConfigError("target_rows must be a non-empty tuple of "
                              f"non-negative ints, got {rows!r}")


class Adam:
    """Bias-corrected Adam over the model's parameter list.

    On construction the parameters are packed: their values are copied into
    one flat buffer and each ``p.values`` becomes a view of its slice, so a
    step is one ``kernels.adam_update`` call over the whole model.  The
    values are unchanged; code that writes parameters must write in place
    (``p.values[...] = ...``), as ``TQNet.restore`` and ``load_checkpoint``
    do, because a rebound ``p.values`` would no longer be trained.

    Gradients are packed the same way: each parameter's ``grad_home`` is its
    slice of the flat ``g``, so a backward pass writes the gradients where
    the step reads them.
    """

    def __init__(self, params, plan):
        self.params = list(params)
        self.plan = plan
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ConfigError(
                f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        sizes = [p.values.size for p in self.params]
        self.values = np.empty(sum(sizes), dtype=dtypes.pop())
        self.g = np.empty_like(self.values)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self._grads = []  # each parameter's slice of ``g``, in its shape
        offset = 0
        for p, size in zip(self.params, sizes):
            view = self.values[offset : offset + size].reshape(p.shape)
            view[...] = p.values
            p.values = view
            p.grad_home = self.g[offset : offset + size].reshape(p.shape)
            self._grads.append(p.grad_home)
            offset += size
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
        plan = self.plan
        kernels.adam_update(
            self.values, self.g, self.m, self.v,
            plan.lr, plan.beta1, plan.beta2, plan.adam_eps, self.t,
        )


class EarlyStopper:
    """Counts consecutive epochs without a new best validation loss."""

    def __init__(self, patience):
        self.patience = patience
        self.best = float("inf")
        self.best_epoch = 0
        self.streak = 0

    def update(self, value, epoch):
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.streak = 0
            return True
        self.streak += 1
        return False

    @property
    def should_stop(self):
        return self.streak >= self.patience


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
    wall_time_s: float = 0.0


def fit(model, train_windows, val_windows, plan, log=None):
    """Train in place; returns the fit trace.  Deterministic per plan seed."""
    if not train_windows or not val_windows:
        raise ConfigError("fit needs non-empty train and val windows")
    t_start = time.perf_counter()
    shuffle_rng = np.random.default_rng([plan.seed, 0])
    dropout_rng = np.random.default_rng([plan.seed, 1])
    opt = Adam(model.parameters(), plan)
    stopper = EarlyStopper(plan.patience)
    best_state = model.snapshot()
    result = FitResult(best_epoch=0, epochs_run=0, best_val_mse=float("inf"))

    n = len(train_windows)
    for epoch in range(1, plan.max_epochs + 1):
        order = shuffle_rng.permutation(n) if plan.shuffle else np.arange(n)
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
        improved = stopper.update(val_mse, epoch)
        if improved:
            best_state = model.snapshot()
        result.train_curve.append(epoch_mse)
        result.val_curve.append(val_mse)
        result.epochs_run = epoch
        if log is not None:
            log(epoch, epoch_mse, val_mse, improved)
        if stopper.should_stop:
            break

    model.restore(best_state)
    for p in opt.params:  # the trained model keeps no hold on Adam's gradients
        p.grad_home = None
    result.best_epoch = stopper.best_epoch
    result.best_val_mse = stopper.best
    result.wall_time_s = time.perf_counter() - t_start
    return result


# ---------------------------------------------------------------------------
# whole-experiment orchestration and the results log
# ---------------------------------------------------------------------------

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
    config_hash: str

    def results_line(self):
        rec = {
            "dataset": self.dataset,
            "L": self.lookback,
            "H": self.horizon,
            "W": self.period,
            "variant": self.variant,
            "seed": self.seed,
            "mse": self.mse,
            "mae": self.mae,
            "best_epoch": self.best_epoch,
            "wall_time_s": round(self.wall_time_s, 3),
        }
        return json.dumps(rec, sort_keys=False)


def config_hash(*dicts):
    blob = json.dumps(dicts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ExperimentResult:
    model: TQNet
    fit: FitResult
    mse: float
    mae: float
    report: MetricsReport


def run_experiment(table, config, plan, split, variant=None, dataset="series",
                   log=None):
    """Split, train, and score on the test part.  One results-line per call."""
    splits = split_and_scale(table, split, lookback=config.lookback)
    train_w = make_windows(splits.train, config.lookback, config.horizon)
    val_w = make_windows(splits.val, config.lookback, config.horizon)
    test_w = make_windows(splits.test, config.lookback, config.horizon)

    model = TQNet(config, variant=variant)
    t0 = time.perf_counter()
    fit_res = fit(model, train_w, val_w, plan, log=log)
    mse, mae = evaluate(model, test_w, plan.target_rows)
    wall = time.perf_counter() - t0

    report = MetricsReport(
        dataset=dataset,
        lookback=config.lookback,
        horizon=config.horizon,
        period=config.period,
        variant=model.variant.name,
        seed=plan.seed,
        mse=mse,
        mae=mae,
        best_epoch=fit_res.best_epoch,
        wall_time_s=wall,
        config_hash=config_hash(asdict(config), asdict(plan), asdict(split)),
    )
    return ExperimentResult(model=model, fit=fit_res, mse=mse, mae=mae, report=report)


def append_results(path, reports):
    with open(path, "a") as fh:
        for r in reports:
            fh.write(r.results_line() + "\n")


def reseeded(config, plan, seed):
    """Same experiment under a different seed (init + shuffle + dropout)."""
    return replace(config, seed=seed), replace(plan, seed=seed)
