"""Component and sensitivity studies, each a scriptable procedure returning
plain rows that the CLI renders as CSV.

Included: the attention-wiring variant matrix (what feeds Q/K, attention on
or off), the period-length sweep, correlation read-outs (learned query bank
vs. data vs. a known ground truth), and a covariate-dependency experiment on
constructed data where the target is a delayed mixture of the covariates —
so a model that sees the covariates can read the future off the observed
window, while a target-only model has to extrapolate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import SeriesTable, channel_correlation
from .errors import ConfigError, DataError
from .model import VariantSpec
from .training import reseeded, run_experiment


def _once_each(items, what):
    """``items`` as a list; an item listed twice raises ConfigError naming it."""
    items = list(items)
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{what} {item!r} is listed twice")
    return items


def run_variant_matrix(table, config, plan, split, variants=None, seeds=None,
                       dataset="series"):
    """Train every (variant, seed) pair on identical splits.

    Returns (rows, reports): rows are dicts with per-variant mean MSE/MAE
    across seeds plus the per-seed values; reports is the flat list of
    per-run MetricsReport entries in execution order.  A variant or seed
    listed twice is refused: it would run again and weigh twice.
    """
    variants = _once_each(VariantSpec.NAMED if variants is None else variants,
                          "variant")
    seeds = _once_each([plan.seed] if seeds is None else seeds, "seed")
    if not variants or not seeds:
        raise ConfigError("run_variant_matrix needs at least one variant "
                          f"and one seed, got {variants} and {seeds}")
    specs = [VariantSpec.named(vname) for vname in variants]
    rows = []
    reports = []
    for vname, spec in zip(variants, specs):
        per_seed = []
        for seed in seeds:
            cfg_s, plan_s = reseeded(config, plan, seed)
            res = run_experiment(
                table, cfg_s, plan_s, split, variant=spec, dataset=dataset
            )
            per_seed.append((seed, res.report.mse, res.report.mae))
            reports.append(res.report)
        rows.append(
            {
                "variant": vname,
                "mse": float(np.mean([m for _, m, _ in per_seed])),
                "mae": float(np.mean([a for _, _, a in per_seed])),
                "runs": per_seed,
            }
        )
    return rows, reports


def run_period_sweep(table, config, plan, split, periods, include_disabled=False,
                     dataset="series"):
    """Retrain with each candidate period; optionally add a no-bank baseline.

    The no-bank baseline (period column "off") is the raw self-attention
    wiring — architecture unchanged, queries taken from the window instead of
    the bank.  A period listed twice is refused.
    """
    periods = _once_each(map(int, periods), "period")
    if not periods:
        raise ConfigError("period sweep needs at least one period")
    runs = [(w, replace(config, period=w), None) for w in periods]
    if include_disabled:
        runs.append(("off", config, VariantSpec.named("self_attention")))
    rows = []
    reports = []
    for label, cfg, variant in runs:
        res = run_experiment(table, cfg, plan, split, variant=variant,
                             dataset=dataset)
        rows.append({"period": label, "mse": res.report.mse, "mae": res.report.mae,
                     "best_epoch": res.fit.best_epoch})
        reports.append(res.report)
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
    in ascending order; each n must lie in [0, covariates] and appear once.

    Loss and metrics are restricted to the target channel in every run, so
    n = 0 is exactly the plain single-channel experiment.
    """
    sizes = sorted(_once_each(map(int, subset_sizes), "subset size"))
    if not sizes or sizes[0] < 0 or sizes[-1] > covariates:
        raise ConfigError(
            f"subset sizes must lie in [0, {covariates}], got {subset_sizes}"
        )
    full = make_covariate_table(
        covariates, timesteps, config.horizon, seed=data_seed
    )
    rows = []
    reports = []
    for n in sizes:
        sub = full.select_channels(range(n + 1))  # target + first n covariates
        cfg = replace(config, channels=n + 1)
        plan_n = replace(plan, target_rows=(0,))
        res = run_experiment(
            sub, cfg, plan_n, split, dataset=f"{dataset}-n{n}"
        )
        rows.append({"covariates": n, "mse": res.report.mse, "mae": res.report.mae})
        reports.append(res.report)
    return rows, reports
