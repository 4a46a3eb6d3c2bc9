"""Analysis procedures: variant matrix wiring, period sweep, correlation
read-outs, and the covariate-dependency construction."""

from dataclasses import replace

import numpy as np
import pytest

from tqnet.analysis import (
    DATA_SEED,
    bank_correlation,
    make_covariate_table,
    run_covariate_study,
    run_period_sweep,
    run_variant_matrix,
    upper_triangle_pearson,
)
from tqnet.data import SplitSpec, SynthSpec, channel_correlation, generate_synthetic
from tqnet.errors import ConfigError, DataError
from tqnet.model import VARIANTS, ModelConfig, TQNet
from tqnet.training import TrainPlan, reseeded, run_experiment

MICRO = ModelConfig(
    channels=4, lookback=16, horizon=8, period=8, hidden=12, heads=2,
    attn_dropout=0.0, out_dropout=0.0, seed=2024,
)
PLAN = TrainPlan(lr=3e-3, batch_size=32, max_epochs=2, patience=2, seed=2024)
SPLIT = SplitSpec(0.6, 0.2, 0.2)


def micro_table(seed=0):
    table, _ = generate_synthetic(
        SynthSpec(channels=4, timesteps=360, period=8, latents=2, seed=seed)
    )
    return table


class TestBankCorrelation:
    def test_zero_bank_is_degenerate(self):
        with pytest.raises(DataError, match="all zeros"):
            bank_correlation(TQNet(MICRO))

    def test_matches_channel_correlation_of_rows(self):
        model = TQNet(MICRO)
        rng = np.random.default_rng(4)
        model.bank.values[...] = rng.normal(size=(4, 8))
        corr = bank_correlation(model)
        expected = channel_correlation(model.bank.values.T)
        np.testing.assert_allclose(corr, expected, atol=1e-7)

    def test_variant_without_bank_rejected(self):
        model = TQNet(replace(MICRO, variant="pure_mlp"))
        with pytest.raises(ConfigError, match="bank"):
            bank_correlation(model)


class TestUpperTrianglePearson:
    def test_identical_matrices(self):
        m = channel_correlation(np.random.default_rng(0).normal(size=(100, 5)))
        assert upper_triangle_pearson(m, m) == pytest.approx(1.0)

    def test_sign_flip(self):
        m = channel_correlation(np.random.default_rng(1).normal(size=(100, 5)))
        flipped = -m + 2 * np.eye(5) * np.diag(m)
        assert upper_triangle_pearson(m, flipped) == pytest.approx(-1.0)

    def test_needs_enough_channels(self):
        with pytest.raises(ConfigError):
            upper_triangle_pearson(np.eye(2), np.eye(2))


class TestVariantMatrix:
    def test_all_variants_and_seeds_run(self):
        rows, reports = run_variant_matrix(
            micro_table(), MICRO, PLAN, SPLIT,
            variants=["default", "pure_mlp"], seeds=[1, 2],
        )
        assert [r["variant"] for r in rows] == ["default", "pure_mlp"]
        assert len(reports) == 4
        assert [(rep.variant, rep.seed) for rep in reports] == [
            ("default", 1), ("default", 2), ("pure_mlp", 1), ("pure_mlp", 2)]
        for row in rows:
            runs = [rep for rep in reports if rep.variant == row["variant"]]
            assert row == {"variant": row["variant"],
                           "mse": np.mean([rep.mse for rep in runs]),
                           "mae": np.mean([rep.mae for rep in runs])}

    def test_reports_carry_variant_names(self):
        _, reports = run_variant_matrix(
            micro_table(), MICRO, PLAN, SPLIT, variants=VARIANTS, seeds=[PLAN.seed],
        )
        assert [rep.variant for rep in reports] == list(VARIANTS)


    @pytest.mark.parametrize("empty", ["variants", "seeds"])
    def test_empty_variant_or_seed_list_rejected(self, empty):
        kwargs = {"variants": ["default"], "seeds": [1], empty: []}
        with pytest.raises(ConfigError, match="at least one variant"):
            run_variant_matrix(micro_table(), MICRO, PLAN, SPLIT, **kwargs)

    @pytest.mark.parametrize("key,items,message", [
        ("variants", ["default", "pure_mlp", "default"], "variant 'default'"),
        ("seeds", [1, 1, 2], "seed 1"),
    ])
    def test_an_item_listed_twice_is_rejected(self, key, items, message):
        # it would train again, and a repeated seed would weigh twice in the mean
        kwargs = {"variants": ["default"], "seeds": [1], key: items}
        with pytest.raises(ConfigError, match=f"^{message} is listed twice$"):
            run_variant_matrix(micro_table(), MICRO, PLAN, SPLIT, **kwargs)


class TestPeriodSweep:
    def test_rows_and_disabled_baseline(self):
        rows, reports = run_period_sweep(
            micro_table(), MICRO, PLAN, SPLIT, periods=[4, 8])
        assert [r["period"] for r in rows] == [4, 8]
        assert [(rep.period, rep.variant) for rep in reports] == [
            (4, "default"), (8, "default")]
        assert all(np.isfinite(r["mse"]) for r in rows)
        # the bank-off baseline is the variant matrix's self_attention row,
        # which reads no period: one row serves every sweep
        baselines = [run_variant_matrix(
            micro_table(), replace(MICRO, period=w), PLAN, SPLIT,
            variants=["self_attention"], seeds=[PLAN.seed])[0] for w in (4, 8)]
        assert baselines[0] == baselines[1]

    def test_empty_period_list_rejected(self):
        with pytest.raises(ConfigError):
            run_period_sweep(micro_table(), MICRO, PLAN, SPLIT, periods=[])

    @pytest.mark.parametrize("variant", ["self_attention", "pure_mlp"])
    def test_a_variant_without_a_bank_trains_nothing(self, variant, monkeypatch):
        # only the bank reads the period: each period would train one model
        calls = []
        monkeypatch.setattr("tqnet.analysis.run_experiment",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match=f"^variant '{variant}' has no "
                           "query bank, so every period would train the same model$"):
            run_period_sweep(micro_table(), replace(MICRO, variant=variant),
                             PLAN, SPLIT, periods=[4, 8])
        assert calls == []

    @pytest.mark.parametrize("periods,message", [
        ([8, 4, 8], "period 8 is listed twice"),
        ([8.7], "period 8.7 is not an integer"),  # not trained as W = 8
        ([True], "period True is not an integer"),  # not trained as W = 1
    ], ids=["twice", "float", "bool"])
    def test_a_period_twice_or_no_int_is_rejected(self, periods, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_period_sweep(micro_table(), MICRO, PLAN, SPLIT, periods=periods)


class TestCovariateConstruction:
    def test_target_is_delayed_mixture(self):
        table = make_covariate_table(covariates=5, timesteps=600, horizon=24, seed=3)
        target = table.data[:, 0]
        cov = table.data[:, 1:]
        # target[t] should be linearly explained by covariates at t - horizon
        y = target[24:]
        x = cov[:-24]
        coef, res, *_ = np.linalg.lstsq(x, y, rcond=None)
        r2 = 1 - res[0] / (y.var() * y.size)
        assert r2 > 0.98
        # ...but NOT by the contemporaneous covariates
        coef2, res2, *_ = np.linalg.lstsq(cov[24:], y, rcond=None)
        r2_same_time = 1 - res2[0] / (y.var() * y.size)
        assert r2_same_time < 0.5

    def test_horizon_must_cover_smoothing(self):
        with pytest.raises(ConfigError, match="smoothing"):
            make_covariate_table(3, 500, horizon=6, seed=0)

    @pytest.mark.parametrize("counts,message", [
        ({"covariates": 0}, "covariates must be a positive integer, got 0"),
        ({"covariates": -1}, "covariates must be a positive integer, got -1"),
        ({"timesteps": 0}, "timesteps must be a positive integer, got 0"),
    ], ids=["no-covariates", "negative-covariates", "no-timesteps"])
    def test_a_count_below_one_is_named_before_the_sizes(self, counts, message):
        # size 1 lies outside [0, covariates] for both covariate counts
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_covariate_study(MICRO, PLAN, SPLIT, subset_sizes=[1], **counts)

    def test_subset_sizes_validated(self):
        with pytest.raises(ConfigError):
            run_covariate_study(MICRO, PLAN, SPLIT, subset_sizes=[9],
                                covariates=4)

    @pytest.mark.parametrize("sizes,message", [
        ([2, 0, 2], "subset size 2 is listed twice"),
        ([0, 1.5], "subset size 1.5 is not an integer"),  # not trained as n = 1
    ], ids=["twice", "float"])
    def test_a_size_twice_or_no_int_is_rejected(self, sizes, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_covariate_study(MICRO, PLAN, SPLIT, subset_sizes=sizes,
                                covariates=4)


def _variant_row():
    """A two-seed variant row with its per-seed reports, and two runs by hand."""
    rows, reports = run_variant_matrix(micro_table(), MICRO, PLAN, SPLIT,
                                       variants=["pure_mlp"], seeds=[1, 2])
    runs = [run_experiment(micro_table(),
                           *reseeded(replace(MICRO, variant="pure_mlp"), PLAN, seed),
                           SPLIT).report for seed in (1, 2)]

    def per_seed(reps):
        return [(rep.seed, rep.mse, rep.mae) for rep in reps]

    return (rows[0], per_seed(reports)), (
        {"variant": "pure_mlp",
         "mse": float(np.mean([rep.mse for rep in runs])),
         "mae": float(np.mean([rep.mae for rep in runs]))},
        per_seed(runs))


def _sweep_off_row():
    """The sweep's no-bank baseline, the variant matrix's ``self_attention``
    row at the plan's seed, and a ``self_attention`` run by hand."""
    rows, _ = run_variant_matrix(micro_table(), MICRO, PLAN, SPLIT,
                                 variants=["self_attention"], seeds=[PLAN.seed])
    rep = run_experiment(micro_table(), replace(MICRO, variant="self_attention"),
                         PLAN, SPLIT).report
    return rows[0], {"variant": "self_attention", "mse": rep.mse, "mae": rep.mae}


def _sweep_period_row():
    """The sweep's W = 4 row and a run at that period by hand."""
    rows, _ = run_period_sweep(micro_table(), MICRO, PLAN, SPLIT, periods=[8, 4])
    rep = run_experiment(micro_table(), replace(MICRO, period=4), PLAN, SPLIT).report
    return rows[1], {"period": 4, "mse": rep.mse, "mae": rep.mae,
                     "best_epoch": rep.best_epoch}


def _covariate_n0_row():
    """The covariate study's n = 0 row and a plain single-channel run."""
    cfg = ModelConfig(
        channels=1, lookback=16, horizon=16, period=8, hidden=8, heads=2,
        attn_dropout=0.0, out_dropout=0.0, seed=3,
    )
    plan = TrainPlan(lr=3e-3, batch_size=32, max_epochs=2, patience=2,
                     seed=3, target_rows=(0,))
    rows, _ = run_covariate_study(
        cfg, plan, SPLIT, subset_sizes=[0], covariates=3, timesteps=420,
    )
    table = make_covariate_table(3, 420, cfg.horizon, seed=DATA_SEED)
    rep = run_experiment(
        table.select_channels([0]), cfg, plan, SPLIT, dataset="manual"
    ).report
    return rows[0], {"covariates": 0, "mse": rep.mse, "mae": rep.mae}


@pytest.mark.parametrize("case", [_variant_row, _sweep_off_row, _sweep_period_row,
                                  _covariate_n0_row],
                         ids=["variant-two-seeds", "sweep-off", "sweep-period",
                              "covariates-n0"])
def test_a_study_row_is_run_experiment_by_hand(case):
    row, by_hand = case()
    assert row == by_hand  # bitwise: the same code path


@pytest.mark.parametrize("study,message", [
    (lambda: run_variant_matrix(micro_table(), MICRO, PLAN, SPLIT,
                                variants=["default"], seeds=[1, 1.5]),
     "seed 1.5 is not an integer"),
    (lambda: run_period_sweep(micro_table(), MICRO, PLAN, SPLIT, periods=[8, 0]),
     "period must be a positive integer, got 0"),
    (lambda: run_covariate_study(MICRO, PLAN, SPLIT, subset_sizes=[0, 1.5],
                                 covariates=4),
     "subset size 1.5 is not an integer"),
], ids=["seed", "period", "size"])
def test_a_bad_item_at_the_end_of_a_list_trains_nothing(study, message,
                                                        monkeypatch):
    calls = []
    monkeypatch.setattr("tqnet.analysis.run_experiment",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match=message):
        study()
    assert calls == []
