"""Command-line front end.

Configuration precedence: built-in defaults < JSON config file (``--config``)
< explicit command-line flags.  The config file is a flat object whose keys
mirror the flag names; unknown keys are rejected rather than ignored.  The
annotations of ``RunConfig`` (and of ``SynthSpec`` for ``synth``) type both
the flags and the file's values, through :mod:`tqnet.errors`.

``RunConfig`` declares only the run keys ``data``, ``dataset`` and
``out_dir``; its other fields are those of ``ModelConfig`` (``variant``
among them), ``TrainPlan`` and ``SplitSpec`` with their names, annotations
and defaults, less ``NOT_RUN_FIELDS``, and ``RunConfig.parts`` builds the
three.  ``evaluate`` builds only the split, so it accepts training-only keys
as given.  The defaults of ``covariates --n-covariates``/``--timesteps`` and
``gradcheck --seed``/``--variant`` are read from ``run_covariate_study`` and
``ModelConfig``, and those of ``gradcheck --eps``/``--tol`` from
``gradient_check``.  ``ablate`` picks the variants it trains, so it refuses
a ``variant`` other than the default, and with ``--seeds`` a ``seed`` other
than the default; ``covariates``, which makes its data, refuses ``data``.
``train`` and the studies make their run directory only after the library
call returns, so a failed run leaves none; a study's lists join its config in
``config.json`` and in the hash.

Exit codes: 0 success, 1 runtime failure (numeric problems, bad checkpoint,
missing files, out of memory), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, make_dataclass
from functools import partial
from pathlib import Path

from .analysis import (
    bank_correlation,
    run_covariate_study,
    run_period_sweep,
    run_variant_matrix,
    upper_triangle_pearson,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    FLOAT_FMT,
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
    write_rows,
)
from .errors import ConfigError, DataError, check_field_types, field_type
from .model import VARIANTS, ModelConfig, TQNet
from .tensor import gradient_check
from .training import (
    MetricsReport,
    TrainPlan,
    append_results,
    check_model_gradients,
    config_hash,
    evaluate,
    run_experiment,
)


# Library fields a run does not set: the channel count comes from the data,
# and the loss rows keep TrainPlan's default.
NOT_RUN_FIELDS = {"channels", "target_rows"}


def run_fields(*sources):
    """``make_dataclass`` specs of the fields of the dataclasses ``sources``
    outside ``NOT_RUN_FIELDS``, with their annotation strings and defaults.
    Two sources that give one name two annotations or two defaults raise
    ``TypeError``."""
    specs = {}
    for cls in sources:
        for f in fields(cls):
            spec = (f.type, f.default)
            if specs.setdefault(f.name, spec) != spec:
                raise TypeError(f"{f.name}: {cls.__name__} declares {spec}, "
                                f"an earlier source {specs[f.name]}")
    return [(name, typ, field(default=default))
            for name, (typ, default) in specs.items()
            if name not in NOT_RUN_FIELDS]


@dataclass(frozen=True)
class _RunKeys:
    """The run settings no library config holds; the base of RunConfig."""

    data: str | None = None
    dataset: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.out_dir == "":
            raise ConfigError("out_dir must name a directory, got ''")
        if self.dataset is not None and (
                not self.dataset or Path(self.dataset).name != self.dataset):
            raise ConfigError(f"dataset must be a name without a path separator, "
                              f"got {self.dataset!r}")

    def build(self, cls, **given):
        """``cls`` from this config's values of its fields plus ``given``;
        the ``NOT_RUN_FIELDS`` that ``given`` lacks keep ``cls``'s defaults."""
        for f in fields(cls):
            if f.name not in NOT_RUN_FIELDS:
                given[f.name] = getattr(self, f.name)
        return cls(**given)

    def parts(self, channels):
        """The ModelConfig for ``channels`` channels, TrainPlan and SplitSpec."""
        model = self.build(ModelConfig, channels=channels)
        return model, self.build(TrainPlan), self.build(SplitSpec)


# Flat bag of every tunable a data-driven run needs: the run keys, then the
# fields of ModelConfig, TrainPlan and SplitSpec (one seed serves the first two).
RunConfig = make_dataclass(
    "RunConfig", run_fields(_RunKeys, ModelConfig, TrainPlan, SplitSpec),
    bases=(_RunKeys,), frozen=True, namespace={"__module__": __name__})

_RUN_KEYS = tuple(f.name for f in fields(RunConfig))


def _keys_once(path, pairs):
    """The ``pairs`` of a JSON object in the file ``path`` as a dict; a key
    given twice is refused, where ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{path}: key {key!r} is given twice")
        obj[key] = value
    return obj


def resolve_config(config_path=None, overrides=None, base=None):
    """defaults < ``base`` < file < overrides; unknown and repeated keys are
    rejected, and ``RunConfig`` checks the types."""
    values = dict(base or {})
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_bytes(),
                                object_pairs_hook=partial(_keys_once, config_path))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        p.add_argument("--" + f.name.replace("_", "-"), type=field_type(f)[0])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tqnet",
        description="Multivariate forecaster with a periodic learnable-query "
        "attention block.",
        allow_abbrev=False,
    )
    # no flag prefixes: ``--hid`` is not ``--hidden``
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    def runish(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        _add_config_flags(p, RunConfig)
        return p

    runish("train", "train one model and score it on the test part")

    p = runish("evaluate", "score a saved checkpoint on a dataset's test part")
    p.add_argument("--checkpoint", required=True)

    p = runish("ablate", "attention-wiring variant matrix")
    p.add_argument("--variants", default=",".join(VARIANTS),
                   help="comma-separated variant names")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds (default: the configured seed)")

    p = runish("covariates", "covariate-dependency study on generated data")
    p.add_argument("--sizes", required=True,
                   help="comma-separated covariate subset sizes")
    study = inspect.signature(run_covariate_study).parameters
    p.add_argument("--n-covariates", type=int, default=study["covariates"].default)
    p.add_argument("--timesteps", type=int, default=study["timesteps"].default)

    p = runish("sweep-w", "retrain across candidate period lengths")
    p.add_argument("--periods", required=True,
                   help="comma-separated period lengths")

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
    p.add_argument("--variant", default=ModelConfig.variant)
    tolerances = inspect.signature(gradient_check).parameters
    p.add_argument("--eps", type=float, default=tolerances["eps"].default)
    p.add_argument("--tol", type=float, default=tolerances["tol"].default)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _flag_values(args, cls):
    """The fields of the dataclass ``cls`` that were given as flags."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name) is not None}


def _prepare_run(args, base=None):
    cfg = resolve_config(args.config, _flag_values(args, RunConfig), base)
    if cfg.data is None:
        raise ConfigError("no input data: pass --data or set it in the config")
    return cfg, load_csv(cfg.data), cfg.dataset or Path(cfg.data).stem


def _open_run(cfg, dataset, **lists):
    """Make the run directory of ``cfg`` and a study's ``lists``, runs/<dataset>-
    <their hash> unless ``out_dir`` names one, and echo both to its config.json."""
    rec = {**asdict(cfg), **lists}
    rec["config_hash"] = config_hash(rec)
    out = (Path("runs", f"{dataset}-{rec['config_hash']}") if cfg.out_dir is None
           else Path(cfg.out_dir))
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    return out


def _close_study(cfg, dataset, table, rows, reports, row_format, **lists):
    """Open the run directory of a finished study and its ``lists``, write
    its CSV ``table`` and results.jsonl, and print its rows."""
    out = _open_run(cfg, dataset, **lists)
    keys = list(rows[0])
    write_rows(out / table, keys, ([row[k] for k in keys] for row in rows))
    append_results(out / "results.jsonl", reports)
    for row in rows:
        print(row_format.format(**row))
    print(f"artifacts in {out}")
    return 0


@contextmanager
def _naming(what, errors=(ConfigError, DataError)):
    """Put ``what``, the file a library call in the block refuses, before
    the message of an ``errors`` exception it raises; the type, so the exit
    code, stays."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{what}: {exc}") from None


def _refuse_keys(cfg, command, variant=None, data=None, seed=None):
    """``ablate`` picks its variants, as ``variant`` says, ``covariates`` its
    data, as ``data`` says, and ``ablate --seeds`` its seeds, as ``seed``
    says; a value set for any would be echoed, not used."""
    for key, how in (("variant", variant), ("data", data), ("seed", seed)):
        if how and getattr(cfg, key) != getattr(RunConfig, key):
            raise ConfigError(f"{command} {how}, not {key} {getattr(cfg, key)!r}")


def cmd_train(args):
    cfg, table, dataset = _prepare_run(args)
    config, plan, split = cfg.parts(table.channels)
    log_rows = []

    def log(epoch, train_mse, val_mse, improved):
        log_rows.append((epoch, train_mse, val_mse, int(improved)))
        print(
            f"epoch {epoch:3d}  train mse {train_mse:.6f}  "
            f"val mse {val_mse:.6f}{'  *' if improved else ''}"
        )

    with _naming(cfg.data):
        res = run_experiment(table, config, plan, split, dataset=dataset, log=log)
    out = _open_run(cfg, dataset)
    write_rows(out / "train_log.csv", ("epoch", "train_mse", "val_mse", "improved"),
               log_rows)
    save_checkpoint(out / "model.ckpt", res.model)
    append_results(out / "results.jsonl", [res.report])
    print(res.report.results_line())
    print(f"artifacts in {out}")
    return 0


def cmd_evaluate(args):
    model = load_checkpoint(args.checkpoint)
    # the checkpoint's model settings replace the defaults, and a stated one
    # must equal them; the dropouts and the seed only shaped training
    stored = {key: value for key, value in asdict(model.config).items()
              if key in _RUN_KEYS
              and key not in ("attn_dropout", "out_dropout", "seed")}
    cfg, table, dataset = _prepare_run(args, stored)
    for key, value in stored.items():
        if getattr(cfg, key) != value:
            raise ConfigError(f"{key} is {getattr(cfg, key)!r}, but the "
                              f"checkpoint {args.checkpoint} has {value!r}")
    mc = model.config
    with _naming(cfg.data):
        if table.channels != mc.channels:
            raise DataError(f"checkpoint expects {mc.channels} channels, data "
                            f"has {table.channels}")
        splits = split_and_scale(table, cfg.build(SplitSpec), lookback=mc.lookback)
        test_w = make_windows(splits.test, mc.lookback, mc.horizon)
    mse, mae = evaluate(model, test_w)
    report = MetricsReport.of(mc, dataset, mc.seed, mse, mae)
    print(report.results_line())
    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        append_results(Path(cfg.out_dir, "results.jsonl"), [report])
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
    cfg, table, dataset = _prepare_run(args)
    _refuse_keys(cfg, "ablate", variant="trains the variants of --variants",
                 seed=None if args.seeds is None else "trains the seeds of --seeds")
    variants = _name_list(args.variants, "--variants")
    seeds = [cfg.seed] if args.seeds is None else _int_list(args.seeds, "--seeds")
    config, plan, split = cfg.parts(table.channels)
    with _naming(cfg.data, DataError):
        rows, reports = run_variant_matrix(
            table, config, plan, split, variants=variants, seeds=seeds,
            dataset=dataset)
    return _close_study(cfg, dataset, "variants.csv", rows, reports,
                        "{variant:>20s}  mse {mse:.6f}  mae {mae:.6f}",
                        variants=variants, seeds=seeds)


def cmd_covariates(args):
    cfg = resolve_config(args.config, _flag_values(args, RunConfig))
    _refuse_keys(cfg, "covariates", data="generates its own data")
    dataset = cfg.dataset or "covariates"
    config, plan, split = cfg.parts(1)
    rows, reports = run_covariate_study(
        config, plan, split, _int_list(args.sizes, "--sizes"),
        covariates=args.n_covariates, timesteps=args.timesteps, dataset=dataset,
    )
    # the sizes it trained, which it sorts: "2,0" and "0,2" are one study
    return _close_study(
        cfg, dataset, "covariate_study.csv", rows, reports,
        "covariates {covariates:3d}  mse {mse:.6f}  mae {mae:.6f}",
        sizes=[row["covariates"] for row in rows], n_covariates=args.n_covariates,
        timesteps=args.timesteps)


def cmd_sweep_w(args):
    cfg, table, dataset = _prepare_run(args)
    config, plan, split = cfg.parts(table.channels)
    periods = _int_list(args.periods, "--periods")
    with _naming(cfg.data, DataError):
        rows, reports = run_period_sweep(table, config, plan, split, periods,
                                         dataset=dataset)
    return _close_study(
        cfg, dataset, "period_sweep.csv", rows, reports,
        "period {period:4d}  mse {mse:.6f}  mae {mae:.6f}  best epoch {best_epoch}",
        periods=periods)


def cmd_acf(args):
    table = load_csv(args.data)
    with _naming(args.data):
        res = compute_acf(table.data, max_lag=args.max_lag)
    if args.out is not None:
        write_rows(args.out, ("lag", "mean_acf") + tuple(table.names), (
            [int(k), *(FLOAT_FMT % v for v in (res.mean[k], *res.per_channel[k]))]
            for k in res.lags))
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
        with _naming(args.data):
            corr = channel_correlation(table.data)
        source = f"data {args.data}"
    else:
        model = load_checkpoint(args.checkpoint)
        corr = bank_correlation(model)
        names = tuple(f"ch{c}" for c in range(corr.shape[0]))
        source = f"query bank of {args.checkpoint}"
    print(f"channel correlation from {source}: {corr.shape[0]} channels")
    if args.out is not None:
        write_matrix_csv(args.out, names, corr)
        print(f"wrote {args.out}")
    if args.truth is not None:
        _, truth = read_matrix_csv(args.truth)
        with _naming(f"truth {args.truth} vs {source}"):
            if truth.shape != corr.shape:
                raise DataError(
                    f"truth matrix is {truth.shape}, computed is {corr.shape}")
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
        variant=args.variant,
    )
    result = check_model_gradients(TQNet(config), args.seed + 1,
                                   eps=args.eps, tol=args.tol)
    print(result.summary())
    return 0 if result.passed else 1


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "covariates": cmd_covariates,
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
