"""Command-line front end.

Configuration precedence: built-in defaults < JSON config file (``--config``)
< explicit command-line flags.  The config file is a flat object whose keys
mirror the flag names; unknown keys are rejected rather than ignored.  The
annotations of ``RunConfig`` (and of ``SynthSpec`` for ``synth``) type both
the flags and the file's values, through :mod:`tqnet.errors`.

Exit codes: 0 success, 1 runtime failure (numeric problems, bad checkpoint,
missing files, out of memory), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (
    bank_correlation,
    covariate_sizes,
    run_covariate_study,
    run_period_sweep,
    run_variant_matrix,
    upper_triangle_pearson,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    SplitSpec,
    SynthSpec,
    channel_correlation,
    compute_acf,
    generate_synthetic,
    load_csv,
    make_windows,
    read_matrix_csv,
    split_and_scale,
    write_csv,
    write_matrix_csv,
)
from .errors import ConfigError, DataError, check_field_types, field_type
from .model import ModelConfig, TQNet, VariantSpec
from .tensor import Tape, gradient_check, mse_loss
from .training import (
    MetricsReport,
    TrainPlan,
    append_results,
    config_hash,
    evaluate,
    run_experiment,
)


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every tunable a data-driven run needs."""

    data: str | None = None
    dataset: str | None = None
    out_dir: str | None = None
    variant: str = "default"
    # model
    lookback: int = 96
    horizon: int = 96
    period: int = 24
    hidden: int = 512
    heads: int = 4
    attn_dropout: float = 0.5
    out_dropout: float = 0.0
    use_instance_norm: bool = True
    norm_eps: float = 1e-5
    scale_by_head_dim: bool = False
    dtype: str = "float32"
    # optimization
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    shuffle: bool = True
    seed: int = 2024
    # splitting
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    border_context: bool = True
    max_rows: int | None = None

    def __post_init__(self):
        check_field_types(self)

    def model_config(self, channels):
        return self._build(ModelConfig, channels=channels)

    def train_plan(self):
        return self._build(TrainPlan)

    def split_spec(self):
        return self._build(SplitSpec, _SPLIT_FIELDS)

    def _build(self, cls, renames=None, **given):
        """``cls`` from the fields it shares with this config (looked up
        under ``renames`` where the names differ) plus ``given``; fields this
        config lacks keep ``cls``'s defaults."""
        renames = renames or {}
        for f in fields(cls):
            src = renames.get(f.name, f.name)
            if src in _RUN_KEYS:
                given.setdefault(f.name, getattr(self, src))
        return cls(**given)


_RUN_KEYS = tuple(f.name for f in fields(RunConfig))

# SplitSpec field -> RunConfig field; the ratios carry a suffix as flags.
_SPLIT_FIELDS = {"train": "train_frac", "val": "val_frac", "test": "test_frac"}


def resolve_config(config_path=None, overrides=None):
    """defaults < file < overrides; unknown keys are rejected, and
    ``RunConfig`` checks the types."""
    values = asdict(RunConfig())
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        for key in loaded:
            if key not in _RUN_KEYS:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")
        values.update(loaded)
    overrides = overrides or {}
    for key in overrides:
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    values.update(overrides)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p, cls):
    """One flag per field of the dataclass ``cls``, typed by its annotation.
    An absent flag reads None."""
    for f in fields(cls):
        typ, _ = field_type(f)
        flag = "--" + f.name.replace("_", "-")
        if typ is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, type=typ)


def _positive_float(text):
    """argparse type: a finite number above zero (argparse names the flag)."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above zero, got {text!r}")
    return val


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tqnet",
        description="Multivariate forecaster with a periodic learnable-query "
        "attention block.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def runish(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        _add_config_flags(p, RunConfig)
        return p

    runish("train", "train one model and score it on the test part")

    p = runish("evaluate", "score a saved checkpoint on a dataset's test part")
    p.add_argument("--checkpoint", required=True)

    p = runish("ablate", "attention-wiring variant matrix, or covariate study")
    p.add_argument("--variants", default=",".join(VariantSpec.NAMED),
                   help="comma-separated variant names")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds (default: the configured seed)")
    p.add_argument("--covariates", default=None,
                   help="comma-separated covariate subset sizes; switches to "
                   "the covariate-dependency study on generated data")
    p.add_argument("--n-covariates", type=int, default=8)
    p.add_argument("--timesteps", type=int, default=2400)

    p = runish("sweep-w", "retrain across candidate period lengths")
    p.add_argument("--periods", required=True,
                   help="comma-separated period lengths")
    p.add_argument("--include-disabled", action="store_true",
                   help="add a bank-off (raw self-attention) baseline row")

    p = sub.add_parser("acf", help="autocorrelation period suggestion")
    p.add_argument("--data", required=True)
    p.add_argument("--max-lag", type=int, default=None)
    p.add_argument("--out", default=None, help="write the curve as CSV")

    p = sub.add_parser("corr", help="channel correlation of data or of a "
                       "trained query bank")
    p.add_argument("--data", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--truth", default=None,
                   help="matrix CSV to compare against (prints upper-triangle "
                   "Pearson)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate synthetic data with known "
                       "channel correlation")
    p.add_argument("--out", required=True)
    _add_config_flags(p, SynthSpec)

    p = sub.add_parser("gradcheck", help="finite-difference check of the "
                       "full model's gradients on a batch of three windows")
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--lookback", type=int, default=8)
    p.add_argument("--horizon", type=int, default=2)
    p.add_argument("--period", type=int, default=4)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--variant", default="default")
    p.add_argument("--eps", type=_positive_float, default=1e-5)
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.add_argument("--seed", type=int, default=2024)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _flag_values(args, cls):
    """The fields of the dataclass ``cls`` that were given as flags."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name) is not None}


def _prepare_run(args, need_data=True):
    cfg = resolve_config(args.config, _flag_values(args, RunConfig))
    if need_data and cfg.data is None:
        raise ConfigError("no input data: pass --data or set it in the config")
    table = load_csv(cfg.data) if need_data else None
    dataset = cfg.dataset or (Path(cfg.data).stem if cfg.data else "series")
    return cfg, table, dataset


def _out_dir(cfg, dataset):
    if cfg.out_dir is not None:
        path = Path(cfg.out_dir)
    else:
        tag = config_hash(asdict(cfg))
        path = Path("runs") / f"{dataset}-{tag}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg, path):
    rec = asdict(cfg)
    rec["config_hash"] = config_hash(asdict(cfg))
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows_csv(path, rows):
    if not rows:
        return
    keys = [k for k in rows[0] if k != "runs"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])


def _run_parts(cfg, channels):
    """The model config, train plan and split of ``cfg``.  Commands build
    them before they write any artifact, so a rejected value leaves none."""
    return cfg.model_config(channels), cfg.train_plan(), cfg.split_spec()


def cmd_train(args):
    cfg, table, dataset = _prepare_run(args)
    variant = VariantSpec.named(cfg.variant)
    config, plan, split = _run_parts(cfg, table.channels)
    out = _out_dir(cfg, dataset)
    _echo_config(cfg, out / "config.json")
    log_rows = []

    def log(epoch, train_mse, val_mse, improved):
        log_rows.append((epoch, train_mse, val_mse, int(improved)))
        print(
            f"epoch {epoch:3d}  train mse {train_mse:.6f}  "
            f"val mse {val_mse:.6f}{'  *' if improved else ''}"
        )

    res = run_experiment(table, config, plan, split, variant=variant,
                         dataset=dataset, log=log)
    with open(out / "train_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "train_mse", "val_mse", "improved"))
        writer.writerows(log_rows)
    save_checkpoint(out / "model.ckpt", res.model)
    append_results(out / "results.jsonl", [res.report])
    print(res.report.results_line())
    print(f"artifacts in {out}")
    return 0


def cmd_evaluate(args):
    cfg, table, dataset = _prepare_run(args)
    model = load_checkpoint(args.checkpoint)
    mc = model.config
    if table.channels != mc.channels:
        raise DataError(
            f"checkpoint expects {mc.channels} channels, data has "
            f"{table.channels}"
        )
    splits = split_and_scale(table, cfg.split_spec(), lookback=mc.lookback)
    test_w = make_windows(splits.test, mc.lookback, mc.horizon)
    mse, mae = evaluate(model, test_w)
    report = MetricsReport(
        dataset=dataset, lookback=mc.lookback, horizon=mc.horizon,
        period=mc.period, variant=model.variant.name, seed=mc.seed,
        mse=mse, mae=mae, best_epoch=0, wall_time_s=0.0,
        config_hash=config_hash(asdict(cfg)),
    )
    print(report.results_line())
    if cfg.out_dir:
        out = _out_dir(cfg, dataset)
        append_results(out / "results.jsonl", [report])
    return 0


def _name_list(text, flag):
    """The non-empty items of a comma-separated flag value; none is an error."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise ConfigError(f"{flag} lists nothing, got {text!r}")
    return items


def _int_list(text, flag):
    try:
        return [int(x) for x in _name_list(text, flag)]
    except ValueError:
        raise ConfigError(
            f"{flag}: expected a comma-separated integer list, got {text!r}"
        ) from None


def cmd_ablate(args):
    if args.covariates is not None:
        cfg = resolve_config(args.config, _flag_values(args, RunConfig))
        sizes = covariate_sizes(_int_list(args.covariates, "--covariates"),
                                args.n_covariates)
        config, plan, split = _run_parts(cfg, 1)
        out = _out_dir(cfg, "covariates")
        _echo_config(cfg, out / "config.json")
        rows, reports = run_covariate_study(
            config, plan, split, sizes, covariates=args.n_covariates,
            timesteps=args.timesteps,
        )
        _write_rows_csv(out / "covariate_study.csv", rows)
        append_results(out / "results.jsonl", reports)
        for row in rows:
            print(f"covariates {row['covariates']:3d}  mse {row['mse']:.6f}  "
                  f"mae {row['mae']:.6f}")
        print(f"artifacts in {out}")
        return 0

    cfg, table, dataset = _prepare_run(args)
    variants = _name_list(args.variants, "--variants")
    for name in variants:
        VariantSpec.named(name)  # an unknown name fails before any artifact
    seeds = [cfg.seed] if args.seeds is None else _int_list(args.seeds, "--seeds")
    config, plan, split = _run_parts(cfg, table.channels)
    out = _out_dir(cfg, dataset)
    _echo_config(cfg, out / "config.json")
    rows, reports = run_variant_matrix(
        table, config, plan, split, variants=variants, seeds=seeds, dataset=dataset,
    )
    _write_rows_csv(out / "variants.csv", rows)
    append_results(out / "results.jsonl", reports)
    for row in rows:
        print(f"{row['variant']:>20s}  mse {row['mse']:.6f}  mae {row['mae']:.6f}")
    print(f"artifacts in {out}")
    return 0


def cmd_sweep_w(args):
    cfg, table, dataset = _prepare_run(args)
    periods = _int_list(args.periods, "--periods")
    config, plan, split = _run_parts(cfg, table.channels)
    for w in periods:
        replace(config, period=w)  # a bad period fails before any artifact
    out = _out_dir(cfg, dataset)
    _echo_config(cfg, out / "config.json")
    rows, reports = run_period_sweep(
        table, config, plan, split, periods,
        include_disabled=args.include_disabled, dataset=dataset,
    )
    _write_rows_csv(out / "period_sweep.csv", rows)
    append_results(out / "results.jsonl", reports)
    for row in rows:
        print(f"period {row['period']!s:>4}  mse {row['mse']:.6f}  "
              f"mae {row['mae']:.6f}  best epoch {row['best_epoch']}")
    print(f"artifacts in {out}")
    return 0


def cmd_acf(args):
    table = load_csv(args.data)
    res = compute_acf(table.data, max_lag=args.max_lag)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("lag", "mean_acf") + tuple(table.names))
            for k in res.lags:
                writer.writerow(
                    (int(k), "%.10g" % res.mean[k])
                    + tuple("%.10g" % v for v in res.per_channel[k])
                )
    print(f"noise threshold 2/sqrt(T) = {res.threshold:.4f}")
    if not res.candidates:
        print("no periodic structure found above the noise threshold")
    else:
        for lag, val in res.candidates[:10]:
            marker = "  <- suggested period" if lag == res.suggestion else ""
            print(f"lag {lag:5d}  acf {val:+.4f}{marker}")
    return 0


def cmd_corr(args):
    if (args.data is None) == (args.checkpoint is None):
        raise ConfigError("corr needs exactly one of --data or --checkpoint")
    if args.data is not None:
        table = load_csv(args.data)
        names = table.names
        corr = channel_correlation(table.data)
        source = f"data {args.data}"
    else:
        model = load_checkpoint(args.checkpoint)
        corr = bank_correlation(model)
        names = tuple(f"ch{c}" for c in range(corr.shape[0]))
        source = f"query bank of {args.checkpoint}"
    print(f"channel correlation from {source}: {corr.shape[0]} channels")
    if args.out:
        write_matrix_csv(args.out, names, corr)
        print(f"wrote {args.out}")
    if args.truth:
        _, truth = read_matrix_csv(args.truth)
        if truth.shape != corr.shape:
            raise DataError(
                f"truth matrix is {truth.shape}, computed is {corr.shape}"
            )
        r = upper_triangle_pearson(corr, truth)
        print(f"upper-triangle Pearson vs truth: {r:+.4f}")
    return 0


def cmd_synth(args):
    table, truth = generate_synthetic(SynthSpec(**_flag_values(args, SynthSpec)))
    write_csv(table, args.out)
    truth_path = str(args.out) + ".truth.csv"
    write_matrix_csv(truth_path, table.names, truth)
    print(f"wrote {args.out} ({table.timesteps} steps x {table.channels} "
          f"channels) and {truth_path}")
    return 0


def cmd_gradcheck(args):
    config = ModelConfig(
        channels=args.channels, lookback=args.lookback, horizon=args.horizon,
        period=args.period, hidden=args.hidden, heads=args.heads,
        attn_dropout=0.0, out_dropout=0.0, seed=args.seed, dtype="float64",
    )
    model = TQNet(config, variant=VariantSpec.named(args.variant))
    rng = np.random.default_rng(args.seed + 1)
    # the training path: windows at distinct phases, a row mask with a repeat
    t = np.array([3, 0, 6])
    x = rng.normal(size=(len(t), config.channels, config.lookback))
    y = rng.normal(size=(len(t), config.channels, config.horizon))
    rows = (0, config.channels - 1, config.channels - 1)
    # give the zero-initialized bank a gradient path worth checking
    if model.bank is not None:
        model.bank.theta.values[...] = rng.normal(
            size=model.bank.theta.shape, scale=0.1
        )

    def closure():
        tape = Tape()
        pred = model.forward(x, t, tape=tape, mode="train")
        return mse_loss(tape, pred, y, rows=rows), tape

    result = gradient_check(
        closure, model.parameters(), eps=args.eps, tol=args.tol
    )
    print(result.summary())
    return 0 if result.passed else 1


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "sweep-w": cmd_sweep_w,
    "acf": cmd_acf,
    "corr": cmd_corr,
    "synth": cmd_synth,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc or 'an allocation failed'}); "
              "a smaller model or batch needs less", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
