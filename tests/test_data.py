"""Data pipeline: CSV parsing errors with coordinates, frozen split/window
counts, window views and indexing, train-only scaling, ACF period ranking,
and the synthetic generator's closed-form correlation."""

import csv
import math
import re

import numpy as np
import pytest

from tqnet.data import (
    Scaler,
    SeriesTable,
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
from tqnet.errors import ConfigError, DataError


def toy_table(T=100, C=3, seed=0):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-1, 2, size=C)
    shifts = rng.normal(size=C, scale=3.0)
    return SeriesTable(
        names=tuple(f"s{i}" for i in range(C)),
        timestamps=tuple(str(t) for t in range(T)),
        data=rng.normal(size=(T, C)) * scales + shifts,
    )


class TestCSV:
    def test_round_trip(self, tmp_path):
        t = toy_table(20)
        write_csv(t, tmp_path / "a.csv")
        back = load_csv(tmp_path / "a.csv")
        assert back.names == t.names
        assert back.timestamps == t.timestamps
        np.testing.assert_allclose(back.data, t.data, rtol=1e-9)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("date,a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "n.csv"
        for cell in ("oops", "nan", "inf", "-Infinity"):
            p.write_text(f"date,a,b\n1,1.0,2.0\n2,{cell},4.0\n")
            with pytest.raises(DataError, match=r"row 3, column 'a'"):
                load_csv(p)

    def test_blank_cell_rejected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("date,a,b\n1,1.0,\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_table_is_immutable(self):
        t = toy_table()
        with pytest.raises(ValueError):
            t.data[0, 0] = 99.0

    def test_matrix_csv_bad_cell_names_file_and_row(self, tmp_path):
        p = tmp_path / "m.csv"
        for body in ("1.0,0.5\n0.5,x\n", "1.0,0.5\n0.5\n", "1.0,nan\n0.5,1.0\n"):
            p.write_text("a,b\n" + body)
            with pytest.raises(DataError, match=rf"{p}: row [23]"):
                read_matrix_csv(p)

    @pytest.mark.parametrize("body,row", [
        (b"date,a\n1,1.0\n2," + b"9" * 200_000 + b"\n", 3),  # over csv's field limit
        (b"date,a\n1,1.0\n2,\xff\n", 3),  # not UTF-8
        (b"date,a\n1,1\x002\n", 2),  # a NUL byte
    ], ids=["field-limit", "not-utf8", "nul"])
    def test_unreadable_csv_names_file_and_row(self, tmp_path, body, row):
        p = tmp_path / "u.csv"
        p.write_bytes(body)
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}: row {row}\b"):
            load_csv(p)

    @pytest.mark.parametrize("body,row", [
        (b"a\n" + b"9" * 200_000 + b"\n", 2),
        (b"a,b\n1.0,0.5\n0.5,\xff\n", 3),
    ], ids=["field-limit", "not-utf8"])
    def test_unreadable_matrix_csv_names_file_and_row(self, tmp_path, body, row):
        p = tmp_path / "u.csv"
        p.write_bytes(body)
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}: row {row}\b"):
            read_matrix_csv(p)

    @pytest.mark.parametrize("reader,header,label", [
        (load_csv, b"date,a,b\n", b"1,"), (read_matrix_csv, b"a,b\n", b""),
    ], ids=["load_csv", "read_matrix_csv"])
    @pytest.mark.parametrize("rows,message", [
        (None, "file is empty"),
        ([], "no data rows"),
        ([b"1.0,0.5", b"0.5"], r"row 3 has \d fields, expected \d"),
        ([b"1.0,0.5", b"0.5,x"], "row 3, column 'b': non-numeric value 'x'"),
        ([b"1.0,0.5", b"0.5,-inf"], "row 3, column 'b': non-finite value '-inf'"),
        ([b"1.0,0.5", b"0.5,\xff"], r"row 3: not UTF-8 text \(byte 0xff\)"),
        ([b"1.0,0.5", b"9" * 200_000 + b",1"],
         r"row 3: field larger than field limit \(\d+\)"),
    ], ids=["empty", "header-only", "ragged", "non-numeric", "non-finite",
            "not-utf8", "field-limit"])
    def test_both_readers_refuse_a_bad_file_alike(self, tmp_path, reader, header,
                                                  label, rows, message):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"" if rows is None else
                      header + b"".join(label + row + b"\n" for row in rows))
        with pytest.raises(DataError) as exc:
            reader(p)
        assert re.fullmatch(f"{re.escape(str(p))}: {message}", str(exc.value))

    def test_write_rows_round_trips_commas_quotes_and_newlines(self, tmp_path):
        header = ("k", "v,w", '"q"')
        rows = [["a,b", 'say "hi"', "1.5"], ["", "two\nlines", 'x",y']]
        write_rows(tmp_path / "w.csv", header, rows)
        with open(tmp_path / "w.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [list(header), *rows]

    def test_matrix_csv_round_trip(self, tmp_path):
        m = np.array([[1.0, 0.25], [0.25, 1.0]])
        write_matrix_csv(tmp_path / "m.csv", ("a", "b"), m)
        names, back = read_matrix_csv(tmp_path / "m.csv")
        assert names == ("a", "b")
        np.testing.assert_allclose(back, m, atol=1e-9)


class TestSplits:
    def test_622_of_14400(self):
        spec = SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2)
        assert spec.boundaries(14400) == (8640, 2880, 2880)

    def test_row_cap_applies_before_ratios(self):
        spec = SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2, max_rows=14400)
        assert spec.boundaries(17420) == (8640, 2880, 2880)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2)

    def test_window_counts_with_border_context(self):
        T, L, H = 14400, 96, 96
        table = toy_table(T, 2)
        splits = split_and_scale(
            table, SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2), lookback=L
        )
        train_w = make_windows(splits.train, L, H)
        val_w = make_windows(splits.val, L, H)
        test_w = make_windows(splits.test, L, H)
        assert len(train_w) == 8449  # 8640 - 96 - 96 + 1
        assert len(val_w) == 2880 - H + 1  # context supplies the lookback
        assert len(test_w) == 2880 - H + 1

    def test_first_val_window_starts_lookback_before_boundary(self):
        table = toy_table(1000, 2)
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), lookback=24)
        val_w = make_windows(splits.val, 24, 12)
        assert val_w[0].t == 600 - 24  # forecast origin exactly at the boundary
        train_w = make_windows(splits.train, 24, 12)
        assert train_w[0].t == 0

    def test_windows_are_views_not_copies(self):
        table = toy_table(300, 2)
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), lookback=16)
        ws = make_windows(splits.train, 16, 8)
        # the whole set, one window and a run of them
        for w in (ws, ws[5], ws[3:9]):
            assert np.shares_memory(w.x, splits.train.series)
            assert np.shares_memory(w.y, splits.train.series)
            assert w.x.shape[-2:] == (2, 16) and w.y.shape[-2:] == (2, 8)

    @pytest.mark.parametrize("index", [
        0, 5, -1, slice(3, 9), slice(None, None, 7), np.array([7, 0, 7, 2]),
    ], ids=["first", "int", "negative", "slice", "strided", "gather"])
    def test_window_access_matches_reference_slices(self, index):
        L, H = 16, 8
        splits = split_and_scale(toy_table(300, 3), SplitSpec(0.6, 0.2, 0.2), L)
        part = splits.val  # t0 > 0: starts are absolute, not part-relative
        ws = make_windows(part, L, H)
        w = ws[index]
        s = np.arange(len(ws))[index]
        if np.ndim(s) == 0:
            np.testing.assert_array_equal(w.x, part.series[:, s : s + L])
            np.testing.assert_array_equal(w.y, part.series[:, s + L : s + L + H])
        else:
            assert len(w) == len(s)
            for i, si in enumerate(s):
                np.testing.assert_array_equal(w.x[i], part.series[:, si : si + L])
                np.testing.assert_array_equal(
                    w.y[i], part.series[:, si + L : si + L + H])
        np.testing.assert_array_equal(w.t, part.t0 + s)
        assert np.shape(w.t) == np.shape(s)

    def test_window_index_out_of_range_raises(self):
        splits = split_and_scale(toy_table(300, 2), SplitSpec(0.6, 0.2, 0.2), 16)
        ws = make_windows(splits.train, 16, 8)
        for i in (len(ws), -len(ws) - 1):
            with pytest.raises(IndexError):
                ws[i]

    def test_iteration_yields_every_window_in_order(self):
        splits = split_and_scale(toy_table(300, 2), SplitSpec(0.6, 0.2, 0.2), 16)
        ws = make_windows(splits.test, 16, 8)
        items = list(ws)
        assert len(items) == len(ws)
        assert [int(w.t) for w in items] == list(splits.test.t0 + np.arange(len(ws)))
        assert all(w.x.shape == (2, 16) and w.y.shape == (2, 8) for w in items)

    def test_scaler_fitted_on_train_rows_only(self):
        table = toy_table(500, 3)
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), lookback=8)
        train_rows = table.data[:300]
        np.testing.assert_allclose(splits.scaler.mean, train_rows.mean(axis=0))
        np.testing.assert_allclose(
            splits.scaler.std, train_rows.std(axis=0), rtol=1e-12
        )
        # train part standardized: per-channel mean ~0, std ~1
        assert np.abs(splits.train.series.mean(axis=1)).max() < 1e-5
        np.testing.assert_allclose(
            splits.train.series.std(axis=1), 1.0, atol=1e-5
        )

    def test_scaler_handles_constant_channel(self):
        data = np.ones((50, 2))
        data[:, 1] = np.arange(50)
        s = Scaler.fit(data)
        out = s.transform(data)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(s.inverse(out), data, atol=1e-9)

    def test_too_short_part_raises(self):
        table = toy_table(60, 2)
        splits = split_and_scale(table, SplitSpec(0.6, 0.2, 0.2), lookback=4)
        with pytest.raises(DataError, match="too short"):
            make_windows(splits.val, 24, 24)


class TestACF:
    def test_composite_periods_ranked_by_strength(self):
        # 24-periodic + 168-periodic mix: lag 168 realigns both components,
        # lag 24 only the first, so 168 must outrank 24.
        t = np.arange(24 * 168 * 2)
        sig = np.sin(2 * np.pi * t / 24) + np.sin(2 * np.pi * t / 168)
        res = compute_acf(sig[:, None], max_lag=400)
        assert res.suggestion == 168
        top_lags = [lag for lag, _ in res.candidates[:8]]
        assert 24 in top_lags

    def test_pure_period_detected(self):
        t = np.arange(2400)
        rng = np.random.default_rng(0)
        sig = np.sin(2 * np.pi * t / 24)[:, None] + 0.1 * rng.normal(
            size=(2400, 1)
        )
        res = compute_acf(sig, max_lag=100)
        assert res.suggestion == 24

    def test_threshold_value(self):
        res = compute_acf(np.random.default_rng(1).normal(size=(400, 2)))
        assert res.threshold == pytest.approx(2.0 / math.sqrt(400))

    def test_constant_channel_contributes_zero(self):
        data = np.ones((200, 1))
        res = compute_acf(data, max_lag=10)
        np.testing.assert_array_equal(res.per_channel, np.zeros((11, 1)))
        assert res.suggestion is None

    def test_lag_zero_is_one(self):
        res = compute_acf(np.random.default_rng(2).normal(size=(300, 3)), 20)
        np.testing.assert_allclose(res.per_channel[0], 1.0, atol=1e-12)

    def test_bad_max_lag(self):
        with pytest.raises(ConfigError):
            compute_acf(np.zeros((50, 1)) + np.arange(50)[:, None], max_lag=50)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a, ca = generate_synthetic(SynthSpec(seed=5))
        b, cb = generate_synthetic(SynthSpec(seed=5))
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(ca, cb)
        c, _ = generate_synthetic(SynthSpec(seed=6))
        assert not np.array_equal(a.data, c.data)

    def test_empirical_matches_closed_form(self):
        spec = SynthSpec(channels=8, latents=3, period=24, timesteps=2400,
                         noise_sigma=0.1, seed=3)
        table, truth = generate_synthetic(spec)
        emp = channel_correlation(table.data)
        assert np.abs(emp - truth).mean() < 0.05

    def test_truth_matrix_properties(self):
        _, truth = generate_synthetic(SynthSpec(seed=9))
        np.testing.assert_allclose(np.diag(truth), 1.0, atol=1e-12)
        np.testing.assert_allclose(truth, truth.T, atol=1e-12)
        assert np.abs(truth).max() <= 1.0 + 1e-12

    def test_missing_rate_zeroes_points(self):
        spec = SynthSpec(missing_rate=0.2, noise_sigma=0.0, seed=1)
        table, _ = generate_synthetic(spec)
        frac = np.mean(table.data == 0.0)
        assert 0.17 < frac < 0.23

    def test_more_latents_than_channels_allowed(self):
        table, truth = generate_synthetic(
            SynthSpec(channels=2, latents=5, period=16, timesteps=320)
        )
        assert table.channels == 2 and truth.shape == (2, 2)

    def test_harmonics_capped_by_period(self):
        with pytest.raises(ConfigError, match="harmonic"):
            SynthSpec(period=6, latents=3)

    def test_period_lower_bound(self):
        with pytest.raises(ConfigError):
            SynthSpec(period=1)

    @pytest.mark.parametrize("field", ["noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_scales_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("spec", [
        SynthSpec(channels=8, timesteps=1440, period=24, latents=3,
                  noise_sigma=0.1, missing_rate=0.3, seed=42),
        SynthSpec(channels=7, timesteps=4000, period=24, seed=1),
    ], ids=["criteria-5-7", "ett-stand-in"])
    def test_draw_order_is_pinned(self, spec):
        # phases, mixing, sines, noise, missing mask: a reordered draw would
        # change every dataset the criteria and the benchmark train on
        rng = np.random.default_rng(spec.seed)
        C, T, W, K = spec.channels, spec.timesteps, spec.period, spec.latents
        phases = rng.uniform(0.0, 2.0 * math.pi, size=K)
        mixing = rng.normal(0.0, 1.0, size=(C, K))
        t = np.arange(T, dtype=np.float64)
        x = np.sin(2.0 * math.pi * np.outer(t, np.arange(1, K + 1)) / W
                   + phases) @ mixing.T
        x = x + rng.normal(0.0, spec.noise_sigma, size=(T, C))
        if spec.missing_rate > 0:
            x = np.where(rng.random((T, C)) < spec.missing_rate, 0.0, x)
        cov = mixing @ mixing.T
        d = np.sqrt(np.diag(cov))
        truth = cov / np.outer(d, d)
        np.fill_diagonal(truth, 1.0)
        table, got = generate_synthetic(spec)
        np.testing.assert_array_equal(table.data, x)
        np.testing.assert_array_equal(got, truth)


class TestChannelCorrelation:
    def test_perfect_and_anti_correlation(self):
        t = np.linspace(0, 10, 200)
        data = np.column_stack([t, 2 * t + 1, -t])
        corr = channel_correlation(data)
        assert corr[0, 1] == pytest.approx(1.0)
        assert corr[0, 2] == pytest.approx(-1.0)

    def test_constant_channel_zeroed(self):
        data = np.column_stack([np.arange(100.0), np.full(100, 3.0)])
        corr = channel_correlation(data)
        assert corr[0, 1] == 0.0 and corr[1, 1] == 1.0

    def test_ground_truth_normalization(self):
        # latents with orthogonal, equal-norm, zero-mean columns give a
        # mixture whose covariance is M @ M.T, so this is normalize(M @ M.T),
        # the rule the generator's truth goes through
        latents = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        truth = channel_correlation(latents @ m.T)
        assert truth[0, 1] == pytest.approx(1.0)  # same latent, same sign
        assert truth[0, 2] == pytest.approx(0.0)  # disjoint latents
        assert truth[3].tolist() == [0.0, 0.0, 0.0, 1.0]  # a zero mixing row
