"""Component and sensitivity studies, each a scriptable procedure returning
plain rows that the CLI renders as CSV.

Included: the attention-wiring variant matrix (what feeds Q/K, attention on
or off), the period-length sweep, correlation read-outs (learned query bank
vs. data vs. a known ground truth), and a covariate-dependency experiment on
constructed data where the target is a delayed mixture of the covariates —
so a model that sees the covariates can read the future off the observed
window, while a target-only model has to extrapolate.

Each study builds its list of runs for one runner, ``_train_runs``.  All runs
are built, so all checked, before the first trains.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import SeriesTable, channel_correlation
from .errors import ConfigError, DataError
from .model import VARIANTS
from .training import reseeded, run_experiment


def _once_each(items, what, ints=False):
    """``items`` as a list, checked, not coerced: an item listed twice, or
    with ``ints`` one that is no int (a bool is none), raises ConfigError
    naming it."""
    items = list(items)
    for i, item in enumerate(items):
        if ints and (isinstance(item, bool) or not isinstance(item, int)):
            raise ConfigError(f"{what} {item!r} is not an integer")
        if item in items[:i]:
            raise ConfigError(f"{what} {item!r} is listed twice")
    return items


def _train_runs(key, runs, split):
    """Train ``runs``, ``(label, table, config, plan, dataset)`` tuples, in
    order.  Returns (rows, reports): a row per label, in first-seen order,
    holds the label under ``key``, the mean MSE/MAE of its runs and their
    ``(seed, mse, mae)`` under ``"runs"``; reports holds every run's
    MetricsReport."""
    per_label, reports = {}, []
    for label, table, config, plan, dataset in runs:
        rep = run_experiment(table, config, plan, split, dataset=dataset).report
        per_label.setdefault(label, []).append((plan.seed, rep.mse, rep.mae))
        reports.append(rep)
    return [{key: label, "mse": float(np.mean([r[1] for r in done])),
             "mae": float(np.mean([r[2] for r in done])), "runs": done}
            for label, done in per_label.items()], reports


def run_variant_matrix(table, config, plan, split, variants=None, seeds=None,
                       dataset="series"):
    """Train every (variant, seed) pair on identical splits; a row per
    variant, as ``_train_runs`` gives it.  A variant or seed listed twice is
    refused: it would run again and weigh twice.
    """
    variants = _once_each(VARIANTS if variants is None else variants, "variant")
    seeds = _once_each([plan.seed] if seeds is None else seeds, "seed", ints=True)
    if not variants or not seeds:
        raise ConfigError("run_variant_matrix needs at least one variant "
                          f"and one seed, got {variants} and {seeds}")
    return _train_runs("variant", [
        (name, table, *reseeded(replace(config, variant=name), plan, seed), dataset)
        for name in variants for seed in seeds], split)


def run_period_sweep(table, config, plan, split, periods, include_disabled=False,
                     dataset="series"):
    """Retrain with each candidate period; optionally add a no-bank baseline.

    The no-bank baseline (period column "off") is the raw self-attention
    wiring — architecture unchanged, queries taken from the window instead of
    the bank.  A period listed twice, or one that is no int, is refused.
    """
    periods = _once_each(periods, "period", ints=True)
    if not periods:
        raise ConfigError("period sweep needs at least one period")
    runs = [(w, table, replace(config, period=w), plan, dataset) for w in periods]
    if include_disabled:
        runs.append(("off", table, replace(config, variant="self_attention"), plan,
                     dataset))
    rows, reports = _train_runs("period", runs, split)
    for row, report in zip(rows, reports):  # one run, so one report, per row
        del row["runs"]
        row["best_epoch"] = report.best_epoch
    return rows, reports


# ---------------------------------------------------------------------------
# correlation read-outs
# ---------------------------------------------------------------------------

def bank_correlation(model):
    """Channel-by-channel Pearson correlation of the learned query vectors.

    Each channel's bank row is its signature over one period; correlating the
    rows asks which channels learned similar periodic behaviour.  An untrained
    (all-zero) bank is degenerate and rejected.
    """
    if model.bank is None:
        raise ConfigError("model variant has no query bank")
    theta = model.bank.theta.values
    if not np.any(theta):
        raise DataError("query bank is all zeros (untrained); nothing to correlate")
    return channel_correlation(theta.T.astype(np.float64))


def upper_triangle_pearson(a, b):
    """Pearson correlation between the strict upper triangles of two matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(
            f"need two equal square matrices, got {a.shape} and {b.shape}"
        )
    if a.shape[0] < 3:
        raise ConfigError("need at least 3 channels for a meaningful comparison")
    iu = np.triu_indices(a.shape[0], k=1)
    va, vb = a[iu], b[iu]
    if va.std() <= 1e-12 or vb.std() <= 1e-12:
        raise DataError("degenerate (constant) upper triangle")
    return float(np.corrcoef(va, vb)[0, 1])


# ---------------------------------------------------------------------------
# covariate dependency
# ---------------------------------------------------------------------------

SMOOTH = 12  # moving-average width of the covariates; a horizon must cover it


def make_covariate_table(covariates, timesteps, horizon, seed, noise_sigma=0.05,
                         smooth=SMOOTH):
    """Series whose channel 0 is a delayed mixture of the other channels.

    Covariates are moving-average-smoothed noise (autocorrelation vanishes
    beyond the smoothing width); the target equals a fixed near-uniform
    positive mixture of the covariates ``horizon`` steps earlier, plus a
    little noise.  Within any observed window the covariate values that
    determine the next ``horizon`` target steps are already visible, so
    dropping covariate channels removes exactly that information.  The mixing
    weights are kept positive and close to equal on purpose: softmax
    attention over channels mixes with non-negative weights, so this target
    is reachable by the attention block while staying invisible to any
    single-channel extrapolation.
    """
    if covariates < 1:
        raise ConfigError("need at least one covariate channel")
    if smooth < 1 or horizon < smooth:
        raise ConfigError(
            f"horizon ({horizon}) must be >= smoothing width ({smooth}) so the "
            "target's own past cannot explain the full horizon"
        )
    rng = np.random.default_rng(seed)
    total = timesteps + horizon
    kernel = np.ones(smooth) / smooth
    cov = np.empty((total, covariates))
    for j in range(covariates):
        raw = rng.normal(size=total + smooth - 1)
        cov[:, j] = np.convolve(raw, kernel, mode="valid")
    cov /= cov.std(axis=0, keepdims=True)
    weights = rng.uniform(0.8, 1.2, size=covariates)
    weights /= np.linalg.norm(weights)
    target = np.empty(total)
    target[horizon:] = cov[:-horizon] @ weights
    target[:horizon] = cov[:horizon] @ weights  # warm-up rows, never predicted
    target += noise_sigma * rng.normal(size=total)

    data = np.column_stack([target[horizon:], cov[horizon:]])
    names = ("target",) + tuple(f"cov{j}" for j in range(covariates))
    return SeriesTable(
        names=names,
        timestamps=tuple(str(i) for i in range(timesteps)),
        data=data,
    )


def run_covariate_study(config, plan, split, subset_sizes, covariates=8,
                        timesteps=2400, data_seed=7, dataset="covariates"):
    """Train with the first n covariate channels for each n in subset_sizes,
    in ascending order; each n must be an int in [0, covariates], listed once.

    Loss and metrics are restricted to the target channel in every run, so
    n = 0 is exactly the plain single-channel experiment.
    """
    sizes = sorted(_once_each(subset_sizes, "subset size", ints=True))
    if not sizes or sizes[0] < 0 or sizes[-1] > covariates:
        raise ConfigError(
            f"subset sizes must lie in [0, {covariates}], got {subset_sizes}"
        )
    full = make_covariate_table(
        covariates, timesteps, config.horizon, seed=data_seed
    )
    plan = replace(plan, target_rows=(0,))
    rows, reports = _train_runs("covariates", [
        (n, full.select_channels(range(n + 1)), replace(config, channels=n + 1),
         plan, f"{dataset}-n{n}") for n in sizes], split)
    for row in rows:
        del row["runs"]
    return rows, reports
