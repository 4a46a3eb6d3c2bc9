"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints (and registers with the conftest scoreboard) a single
``criterion N: PASS/FAIL`` line summarizing the measured quantity against its
threshold, then asserts on it.  Criteria 5-7 share one grid of trained models
built by the module-scope fixture; criterion 4 needs the ETTh1/ETTh2 CSVs on
disk and skips with instructions when they are absent.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record_verdict
from tqnet.analysis import (
    bank_correlation,
    run_covariate_study,
    upper_triangle_pearson,
)
from tqnet.cli import main as cli_main
from tqnet.data import SplitSpec, SynthSpec, generate_synthetic, load_csv
from tqnet.kernels import row_norm_stats
from tqnet.model import ModelConfig, TQNet, segment_indices
from tqnet.tensor import DiffTensor, gather_cols, row_affine
from tqnet.training import (
    TrainPlan,
    check_model_gradients,
    reseeded,
    run_experiment,
)


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


def _skip(num, reason):
    line = f"criterion {num}: SKIP - {reason}"
    record_verdict(line)
    print(line)
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# shared synthetic grid for criteria 5-7
#
# The generator settings follow the correlated-periodic recipe (8 channels,
# 3 latents, period 24, noise 0.1) with a key twist that separates the
# architectures: the look-back is held to half a cycle and 30% of readings
# are dropped to zero.  A 12-step window of a 24-periodic signal is phase
# ambiguous on its own, so a model must know *where in the cycle* the window
# starts to forecast well -- exactly the information the query bank indexes.

SYNTH_SPEC = SynthSpec(
    channels=8, timesteps=1440, period=24, latents=3,
    noise_sigma=0.1, missing_rate=0.3, seed=42,
)
SYNTH_CONFIG = ModelConfig(
    channels=8, lookback=12, horizon=24, period=24, hidden=64, heads=4,
    attn_dropout=0.0, out_dropout=0.0, seed=2024,
)
SYNTH_PLAN = TrainPlan(
    lr=3e-3, batch_size=32, max_epochs=20, patience=6, seed=2024,
)
SYNTH_SPLIT = SplitSpec(0.6, 0.2, 0.2)
SEEDS = (2024, 2025, 2026)


@pytest.fixture(scope="module")
def synth_runs():
    table, truth = generate_synthetic(SYNTH_SPEC)
    variant_mse = {}
    models = {}
    for name in ("default", "self_attention", "pure_mlp"):
        for seed in SEEDS:
            cfg, plan = reseeded(replace(SYNTH_CONFIG, variant=name), SYNTH_PLAN, seed)
            res = run_experiment(table, cfg, plan, SYNTH_SPLIT, dataset="synth")
            variant_mse[(name, seed)] = res.report.mse
            if seed == SEEDS[0]:
                models[name] = res.model
    sweep_mse = {SYNTH_CONFIG.period: variant_mse[("default", SEEDS[0])]}
    for w in (23, 48, 1):
        res = run_experiment(
            table, replace(SYNTH_CONFIG, period=w), SYNTH_PLAN, SYNTH_SPLIT,
            dataset="synth",
        )
        sweep_mse[w] = res.report.mse
    return {
        "truth": truth,
        "variant_mse": variant_mse,
        "sweep_mse": sweep_mse,
        "models": models,
    }


def _mean_mse(runs, name):
    return sum(runs["variant_mse"][(name, s)] for s in SEEDS) / len(SEEDS)


# ---------------------------------------------------------------------------
# 1. full-model gradients match finite differences

def test_criterion_1_gradient_fidelity():
    config = ModelConfig(
        channels=3, lookback=8, horizon=2, period=4, hidden=4, heads=2,
        attn_dropout=0.0, out_dropout=0.0, seed=2024, dtype="float64",
    )
    model = TQNet(config)
    # the training path: one stack of windows at distinct phases, with a
    # row mask that repeats a row, and the bank moved off its zero init
    t0 = time.perf_counter()
    result = check_model_gradients(model, data_seed=7, eps=1e-5, tol=1e-4)
    wall = time.perf_counter() - t0
    ok = result.passed and result.max_rel_err < 1e-4 and wall < 60.0
    _verdict(1, ok, (
        f"max relative gradient error {result.max_rel_err:.2e} over "
        f"{len(result.per_param)} parameter groups on a masked batch of "
        f"3 windows (tolerance 1e-4) in {wall:.1f}s (limit 60s)"
    ))


# ---------------------------------------------------------------------------
# 2. query segments repeat with the period; a zero bank attends uniformly

def test_criterion_2_query_bank_periodicity():
    period = 24
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t = int(rng.integers(0, 100_000))
        i = int(rng.integers(1, 500))
        a = segment_indices(t, 17, period)
        b = segment_indices(t + i * period, 17, period)
        assert np.array_equal(a, b), (t, i)

    config = ModelConfig(
        channels=5, lookback=8, horizon=2, period=4, hidden=8, heads=2,
        attn_dropout=0.0, out_dropout=0.0, seed=5, dtype="float64",
    )
    model = TQNet(config)  # fresh bank stays all-zero
    x = np.random.default_rng(6).normal(size=(5, 8))
    weight_dev = max(
        float(np.abs(w - 1.0 / config.channels).max())
        for w in model.attention_weights(x, t=2)
    )
    xt = DiffTensor(x)
    seg = gather_cols(None, model.bank,
                      segment_indices(2, config.lookback, config.period))
    pre_residual = model._attention(None, seg, xt, xt, 0.0, None).values - x
    row_spread = float(np.abs(pre_residual - pre_residual[0]).max())
    ok = weight_dev < 1e-6 and row_spread < 1e-6
    _verdict(2, ok, (
        f"1000 period-shifted segments identical; zero-bank attention "
        f"uniform (weight deviation {weight_dev:.1e}, pre-residual row "
        f"spread {row_spread:.1e}, both < 1e-6)"
    ))


# ---------------------------------------------------------------------------
# 3. the normalization boundary is invertible

def test_criterion_3_normalization_round_trip():
    rng = np.random.default_rng(9)
    eps = 1e-5
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(6, 32)) * rng.uniform(0.1, 100.0, size=(6, 1))
        x[0, :] = 0.0                      # constant channels: zero variance
        x[1, :] = rng.uniform(-5.0, 5.0)
        xn, mu, std = row_norm_stats(x, eps)
        back = row_affine(None, DiffTensor(xn), std, mu).values
        worst = max(worst, float(np.abs(back - x).max()))
    x32 = rng.normal(size=(4, 16)).astype(np.float32)
    xn, mu, std = row_norm_stats(x32, eps)
    back32 = row_affine(None, DiffTensor(xn), std, mu).values
    worst32 = float(np.abs(back32 - x32).max())
    ok = worst <= 1e-5 and worst32 <= 1e-5
    _verdict(3, ok, (
        f"denorm(norm(x)) max deviation {worst:.1e} float64 / "
        f"{worst32:.1e} float32 (limit 1e-5), constant channels included"
    ))


# ---------------------------------------------------------------------------
# 4. desk-scale benchmark reproduction on the ETT hourly sets

ETT_TARGETS = {"ETTh1": (0.371, 0.393), "ETTh2": (0.295, 0.343)}


def _ett_path(name):
    candidates = []
    env_dir = os.environ.get("TQNET_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / name)
    candidates.append(Path(__file__).resolve().parents[1] / "data" / name)
    for p in candidates:
        if p.is_file():
            return p
    return None


def _run_ett(path, dataset):
    table = load_csv(path)
    config = ModelConfig(
        channels=len(table.names), lookback=96, horizon=96, period=24,
        hidden=512, heads=4, attn_dropout=0.5, out_dropout=0.5, seed=2024,
    )
    plan = TrainPlan(lr=1e-3, batch_size=32, max_epochs=30, patience=5,
                     seed=2024)
    split = SplitSpec(0.6, 0.2, 0.2, max_rows=14400)
    return run_experiment(table, config, plan, split, dataset=dataset)


def test_criterion_4_benchmark_reproduction():
    path = _ett_path("ETTh1.csv")
    if path is None:
        _skip(4, "ETTh1.csv not found; set TQNET_DATA_DIR or place the CSV "
                 "under data/ to enable the benchmark reproduction run")
    t0 = time.perf_counter()
    res = _run_ett(path, "ETTh1")
    wall = time.perf_counter() - t0
    mse_t, mae_t = ETT_TARGETS["ETTh1"]
    ok = (abs(res.report.mse - mse_t) <= 0.025 and abs(res.report.mae - mae_t) <= 0.025
          and wall <= 1800.0)
    detail = (
        f"ETTh1/96 mse {res.report.mse:.3f} (target {mse_t}+-0.025), "
        f"mae {res.report.mae:.3f} (target {mae_t}+-0.025), {wall / 60:.1f} min"
    )
    path2 = _ett_path("ETTh2.csv")
    if path2 is not None:
        res2 = _run_ett(path2, "ETTh2")
        mse_t2, mae_t2 = ETT_TARGETS["ETTh2"]
        ok = (ok and abs(res2.report.mse - mse_t2) <= 0.025
              and abs(res2.report.mae - mae_t2) <= 0.025)
        detail += (
            f"; ETTh2/96 mse {res2.report.mse:.3f} (target {mse_t2}+-0.025), "
            f"mae {res2.report.mae:.3f} (target {mae_t2}+-0.025)"
        )
    _verdict(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. the bank-queried model beats its ablations by a clear margin

def test_criterion_5_variant_ordering(synth_runs):
    default = _mean_mse(synth_runs, "default")
    raw = _mean_mse(synth_runs, "self_attention")
    mlp = _mean_mse(synth_runs, "pure_mlp")
    margin_raw = 1.0 - default / raw
    margin_mlp = 1.0 - default / mlp
    ok = margin_raw >= 0.10 and margin_mlp >= 0.10
    _verdict(5, ok, (
        f"mean test mse over {len(SEEDS)} seeds: default {default:.4f} vs "
        f"self_attention {raw:.4f} ({margin_raw:+.1%}) and pure_mlp "
        f"{mlp:.4f} ({margin_mlp:+.1%}); both margins must be >= 10%"
    ))


# ---------------------------------------------------------------------------
# 6. forecasting quality tracks alignment of W with the true period

def test_criterion_6_period_alignment(synth_runs):
    sw = synth_runs["sweep_mse"]
    disabled = synth_runs["variant_mse"][("self_attention", SEEDS[0])]
    harmonic_drift = abs(sw[48] - sw[24]) / sw[24]
    ok = (sw[24] < sw[23] and harmonic_drift <= 0.05 and sw[1] < disabled)
    _verdict(6, ok, (
        f"mse W=24 {sw[24]:.4f} < W=23 {sw[23]:.4f}; W=48 {sw[48]:.4f} "
        f"within {harmonic_drift:.1%} of W=24 (limit 5%); W=1 {sw[1]:.4f} "
        f"< bank disabled {disabled:.4f}"
    ))


# ---------------------------------------------------------------------------
# 7. the trained bank recovers the generator's channel correlation

def test_criterion_7_correlation_recovery(synth_runs):
    learned = bank_correlation(synth_runs["models"]["default"])
    r = upper_triangle_pearson(learned, synth_runs["truth"])
    _verdict(7, r >= 0.6, (
        f"pearson between learned-bank and generator correlation upper "
        f"triangles {r:+.3f} (need >= 0.6)"
    ))


# ---------------------------------------------------------------------------
# 8. training is bit-reproducible through the command line

def test_criterion_8_bitwise_determinism(tmp_path):
    data = tmp_path / "series.csv"
    rc = cli_main([
        "synth", "--out", str(data), "--channels", "4", "--timesteps", "360",
        "--period", "8", "--latents", "2", "--seed", "1",
    ])
    assert rc == 0
    train_args = [
        "--lookback", "16", "--horizon", "8", "--period", "8",
        "--hidden", "12", "--heads", "2", "--attn-dropout", "0.5",
        "--out-dropout", "0.0", "--max-epochs", "3", "--patience", "3",
        "--lr", "0.003", "--train-frac", "0.6", "--val-frac", "0.2",
        "--test-frac", "0.2",
    ]
    lines = []
    for run in ("first", "second"):
        out = tmp_path / run
        rc = cli_main(["train", "--data", str(data), "--out-dir", str(out),
                       *train_args])
        assert rc == 0
        rec = json.loads((out / "results.jsonl").read_text().splitlines()[0])
        rec.pop("wall_time_s")  # the one legitimately run-dependent field
        lines.append(json.dumps(rec))
    _verdict(8, lines[0] == lines[1], (
        "two identically-seeded train runs wrote bit-identical metric lines "
        "(wall_time_s excluded)"
    ))


# ---------------------------------------------------------------------------
# 9. covariates the target depends on must earn their keep
#
# The constructed target is a smoothed positive mixture of the covariates
# delayed by exactly one horizon, so with covariates in view the answer sits
# inside the look-back window; without them the target is an unpredictable
# smoothed-noise process.

COVARIATE_CONFIG = ModelConfig(
    channels=1, lookback=24, horizon=24, period=24, hidden=32, heads=4,
    attn_dropout=0.0, out_dropout=0.0, seed=2024,
)
COVARIATE_PLAN = TrainPlan(
    lr=3e-3, batch_size=32, max_epochs=20, patience=6, seed=2024,
)


def test_criterion_9_covariate_dependency():
    rows, _ = run_covariate_study(
        COVARIATE_CONFIG, COVARIATE_PLAN, SYNTH_SPLIT,
        subset_sizes=[0, 8], covariates=8, timesteps=1800, data_seed=7,
    )
    none, full = rows[0]["mse"], rows[1]["mse"]
    margin = 1.0 - full / none
    _verdict(9, margin >= 0.10, (
        f"target-channel mse with no covariates {none:.4f} vs all eight "
        f"{full:.4f} ({margin:+.1%} improvement, need >= 10%)"
    ))
