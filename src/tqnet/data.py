"""Dataset handling: CSV ingestion, chronological splits, per-channel
standardization, sliding windows, periodicity detection, and a synthetic
generator with a known ground-truth channel correlation.

One reader and one writer carry the CSV format: both readers go through
``_read_header`` and ``_read_rows``, so they refuse a bad file alike, and every
table the package writes goes through ``write_rows``.  The series, correlation
and ACF tables spell floats as ``FLOAT_FMT``; the training log and the study
tables keep ``repr``'s shortest round-trip form, as ``results.jsonl`` does.

Layout conventions: a :class:`SeriesTable` stores the file layout (rows =
timesteps, columns = channels).  Split parts flip to channels x time so all
windows are slices of one strided view.  Splits are chronological;
validation/test parts include ``lookback`` context rows from the
preceding part so their first prediction target starts exactly at the split
boundary (the usual long-horizon benchmark convention).  Window start indices
``t`` are absolute positions in the original table — the model's query bank
phase depends on them, so they must agree across splits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_field_types, require

FLOAT_FMT = "%.10g"  # how the series, correlation and ACF tables spell a float

@dataclass(frozen=True)
class SeriesTable:
    """Immutable multivariate series: data[t, c] plus channel/time labels."""

    names: tuple
    timestamps: tuple
    data: np.ndarray  # (timesteps, channels) float64

    def __post_init__(self):
        d = self.data
        if d.ndim != 2:
            raise DataError(f"series data must be 2-D, got shape {d.shape}")
        if d.shape != (len(self.timestamps), len(self.names)):
            raise DataError(
                f"data shape {d.shape} does not match {len(self.timestamps)} "
                f"timestamps x {len(self.names)} channels"
            )
        d.setflags(write=False)

    @property
    def timesteps(self):
        return self.data.shape[0]

    @property
    def channels(self):
        return self.data.shape[1]

    def select_channels(self, indices):
        idx = list(indices)
        return SeriesTable(
            names=tuple(self.names[i] for i in idx),
            timestamps=self.timestamps,
            data=self.data[:, idx].copy(),
        )


def load_csv(path):
    """Read a header + timestamp-column UTF-8 CSV into a :class:`SeriesTable`.

    Column 1 is a timestamp label (kept verbatim), the rest must be numeric.
    Ragged rows, blank cells, and non-numeric or non-finite cells raise
    :class:`DataError` naming the offending row and column; bytes that are
    not UTF-8 and oversized fields raise it naming the row.
    """
    header, records = _read_header(path)
    if len(header) < 2:
        raise DataError(f"{path}: need a timestamp column plus >=1 channel")
    names = tuple(h.strip() for h in header[1:])
    timestamps, data = _read_rows(path, records, names, labelled=True)
    return SeriesTable(names=names, timestamps=tuple(timestamps), data=data)


def read_matrix_csv(path):
    """(names, matrix) of a square labelled matrix, as ``write_matrix_csv``
    writes it."""
    names, records = _read_header(path)
    _, matrix = _read_rows(path, records, names)
    if matrix.shape != (len(names), len(names)):
        raise DataError(
            f"{path}: expected a {len(names)}x{len(names)} matrix, "
            f"got shape {matrix.shape}"
        )
    return names, matrix


def _read_header(path):
    """The header of the CSV ``path`` and an iterator over its other records."""
    records = _csv_records(path)
    try:
        return tuple(next(records)[1]), records
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None


def _read_rows(path, records, names, labelled=False):
    """Each record's first field (with ``labelled``) and its cells of the
    columns ``names`` as a float64 array.  A ragged record, a cell
    ``_parse_cell`` refuses, or no record at all raises :class:`DataError`."""
    lead = int(labelled)
    width = lead + len(names)
    labels, rows = [], []
    for lineno, row in records:
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} fields, "
                            f"expected {width}")
        if lead:
            labels.append(row[0])
        rows.append([_parse_cell(path, lineno, names[c], cell)
                     for c, cell in enumerate(row[lead:])])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return labels, np.array(rows, dtype=np.float64)


def _csv_records(path):
    """Yield ``(row, fields)`` for each non-blank CSV record of the UTF-8
    file ``path``, where ``row`` is the file line the record ends on.  Bytes
    that are not UTF-8, and records the csv module refuses (such as a field
    over its size limit), raise :class:`DataError` naming the file and the
    row."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{path}: row {row}: not UTF-8 text (byte {raw[exc.start]:#04x})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for fields in reader:
            if fields:
                yield reader.line_num, fields
    except csv.Error as exc:
        raise DataError(f"{path}: row {reader.line_num}: {exc}") from None


def _parse_cell(path, lineno, column, cell):
    try:
        val = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {lineno}, column {column!r}: non-numeric value {cell!r}"
        ) from None
    if not math.isfinite(val):
        raise DataError(
            f"{path}: row {lineno}, column {column!r}: non-finite value {cell!r}"
        )
    return val


def write_rows(path, header, rows):
    """Write ``header``, then each of ``rows``, as a CSV record of ``path``;
    a cell is written as ``str`` gives it, so a float the caller did not
    format with ``FLOAT_FMT`` comes as ``repr`` spells it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(table, path):
    """``table`` as ``load_csv`` reads it: a ``date`` column, then the channels."""
    write_rows(path, ("date",) + tuple(table.names), (
        (ts, *(FLOAT_FMT % v for v in row))
        for ts, row in zip(table.timestamps, table.data.tolist())))


def write_matrix_csv(path, names, matrix):
    """Square labelled matrix (correlations): header row of names, then rows."""
    write_rows(path, names, ([FLOAT_FMT % v for v in row]
                             for row in np.asarray(matrix).tolist()))


# ---------------------------------------------------------------------------
# splitting, scaling, windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Chronological split ratios and an optional cap on the rows used."""

    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    max_rows: int | None = None

    def __post_init__(self):
        check_field_types(self)
        ratios = (self.train_frac, self.val_frac, self.test_frac)
        if min(ratios) < 0 or not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
            raise ConfigError(
                f"split ratios must be non-negative and sum to 1, got {ratios}"
            )
        require("a positive integer", max_rows=self.max_rows)

    def boundaries(self, timesteps):
        """(n_train, n_val, n_test) row counts after the optional row cap."""
        n = timesteps if self.max_rows is None else min(timesteps, self.max_rows)
        n_train = int(n * self.train_frac)
        n_test = int(n * self.test_frac)
        n_val = n - n_train - n_test
        if min(n_train, n_val, n_test) <= 0:
            raise DataError(
                f"split of {n} rows gives empty part: "
                f"({n_train}, {n_val}, {n_test})"
            )
        return n_train, n_val, n_test


@dataclass(frozen=True)
class Scaler:
    """Per-channel affine standardization fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        return cls(mean=mean, std=np.maximum(std, 1e-8))

    def transform(self, rows):
        return (rows - self.mean) / self.std

    def inverse(self, rows):
        return rows * self.std + self.mean


@dataclass(frozen=True)
class SplitPart:
    """One chronological part, channels-major, with its absolute offset."""

    name: str
    series: np.ndarray  # (channels, part_timesteps) float32, standardized
    t0: int  # absolute table index of series[:, 0]


@dataclass(frozen=True)
class DataSplits:
    train: SplitPart
    val: SplitPart
    test: SplitPart
    scaler: Scaler


def split_and_scale(table, spec, lookback):
    """Split chronologically, standardize with train statistics.

    The val/test parts are extended backwards by ``lookback`` rows so the
    first forecast origin sits at the boundary.
    """
    n_train, n_val, n_test = spec.boundaries(table.timesteps)
    n = n_train + n_val + n_test
    raw = table.data[:n]
    scaler = Scaler.fit(raw[:n_train])
    std_all = np.ascontiguousarray(scaler.transform(raw).T, dtype=np.float32)

    bounds = {
        "train": (0, n_train),
        "val": (n_train - lookback, n_train + n_val),
        "test": (n_train + n_val - lookback, n),
    }
    parts = {}
    for name, (lo, hi) in bounds.items():
        if lo < 0:
            raise DataError(
                f"{name} part needs {lookback} context rows but only "
                f"{lo + lookback} exist"
            )
        parts[name] = SplitPart(name=name, series=std_all[:, lo:hi], t0=lo)
    return DataSplits(
        train=parts["train"],
        val=parts["val"],
        test=parts["test"],
        scaler=scaler,
    )


@dataclass(frozen=True, eq=False)
class Windows:
    """Samples x (n, C, L), y (n, C, H), absolute starts t (n,).  An int
    index gives one window, a slice or an index array a stack of them."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        return Windows(self.x[i], self.y[i], self.t[i])


def make_windows(part, lookback, horizon):
    """Every maximal sliding window of the part, in chronological order."""
    total = part.series.shape[1]
    n = total - lookback - horizon + 1
    if n <= 0:
        raise DataError(
            f"{part.name} part has {total} steps, too short for "
            f"lookback {lookback} + horizon {horizon}"
        )
    view = np.lib.stride_tricks.sliding_window_view(
        part.series, lookback + horizon, axis=1
    ).transpose(1, 0, 2)  # (n, C, L + H)
    return Windows(
        x=view[:, :, :lookback],
        y=view[:, :, lookback:],
        t=part.t0 + np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# periodicity detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACFResult:
    lags: np.ndarray
    per_channel: np.ndarray  # (max_lag + 1, channels)
    mean: np.ndarray  # (max_lag + 1,)
    threshold: float
    candidates: tuple  # ((lag, value), ...) ranked by value, descending
    suggestion: int | None


def compute_acf(data, max_lag=None):
    """Mean-over-channels autocorrelation and ranked period candidates.

    Uses the biased per-channel estimator (normalized by the lag-0 term).
    Candidates are local maxima of the mean curve above the 2/sqrt(T) noise
    band, ranked by height; the top one is the suggested period.  Constant
    channels contribute zero correlation rather than NaN.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError(f"compute_acf expects (timesteps, channels), got {data.shape}")
    T, C = data.shape
    if T < 3:
        raise DataError(f"series too short for autocorrelation (T={T})")
    if max_lag is None:
        max_lag = min(T // 2, 512)
    max_lag = int(max_lag)
    if not 1 <= max_lag < T:
        raise ConfigError(f"max_lag must be in [1, {T - 1}], got {max_lag}")

    centered = data - data.mean(axis=0)
    nfft = 1 << int(math.ceil(math.log2(2 * T)))
    spec = np.fft.rfft(centered, n=nfft, axis=0)
    acov = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=0)[: max_lag + 1]
    denom = acov[0].copy()
    degenerate = denom <= 1e-12 * T
    denom[degenerate] = 1.0
    per_channel = acov / denom
    per_channel[:, degenerate] = 0.0
    per_channel[0, :] = np.where(degenerate, 0.0, 1.0)

    mean = per_channel.mean(axis=1)
    threshold = 2.0 / math.sqrt(T)
    cands = []
    for k in range(1, max_lag):
        if mean[k] > mean[k - 1] and mean[k] >= mean[k + 1] and mean[k] > threshold:
            cands.append((k, float(mean[k])))
    cands.sort(key=lambda kv: (-kv[1], kv[0]))
    return ACFResult(
        lags=np.arange(max_lag + 1),
        per_channel=per_channel,
        mean=mean,
        threshold=threshold,
        candidates=tuple(cands),
        suggestion=cands[0][0] if cands else None,
    )


# ---------------------------------------------------------------------------
# synthetic data with known channel structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Periodic mixture generator.

    ``latents`` sinusoids at harmonics 1..K of the base period are mixed into
    ``channels`` series by a random matrix M.  Harmonics at distinct integer
    multiples of the base frequency are orthogonal over whole periods, so the
    noiseless channel correlation is exactly normalize(M @ M.T), by
    ``channel_correlation``'s rule; that matrix is returned as the ground
    truth.  Optional iid noise and zeroed-out (missing) points are applied
    after mixing.
    """

    channels: int = 8
    timesteps: int = 2400
    period: int = 24
    latents: int = 3
    noise_sigma: float = 0.1
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.period < 2:
            raise ConfigError(f"period must be >= 2, got {self.period}")
        require("a positive integer", channels=self.channels, latents=self.latents)
        require("a non-negative integer", seed=self.seed)
        if self.timesteps < 2 * self.period:
            raise ConfigError(
                f"timesteps ({self.timesteps}) must cover at least two periods"
            )
        if 2 * self.latents >= self.period:
            raise ConfigError(
                f"latents ({self.latents}) too many for period {self.period}: "
                "highest harmonic must stay below the foldover frequency"
            )
        require("finite and non-negative", noise_sigma=self.noise_sigma)
        require("in [0, 1)", missing_rate=self.missing_rate)


def generate_synthetic(spec):
    """Deterministic per seed; returns (table, ground-truth correlation)."""
    rng = np.random.default_rng(spec.seed)
    C, T, W, K = spec.channels, spec.timesteps, spec.period, spec.latents
    phases = rng.uniform(0.0, 2.0 * math.pi, size=K)
    mixing = rng.normal(0.0, 1.0, size=(C, K))

    t = np.arange(T, dtype=np.float64)
    latents = np.sin(
        2.0 * math.pi * np.outer(t, np.arange(1, K + 1)) / W + phases
    )  # (T, K)
    x = latents @ mixing.T
    if spec.noise_sigma > 0:
        x = x + rng.normal(0.0, spec.noise_sigma, size=(T, C))
    if spec.missing_rate > 0:
        x = np.where(rng.random((T, C)) < spec.missing_rate, 0.0, x)

    table = SeriesTable(
        names=tuple(f"ch{c}" for c in range(C)),
        timestamps=tuple(str(i) for i in range(T)),
        data=x,
    )
    return table, _normalize(mixing @ mixing.T)


def channel_correlation(data):
    """Empirical Pearson correlation between channels (columns).

    Constant channels get zero correlation with everything and one with
    themselves instead of NaN.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError(f"need (timesteps >= 2, channels), got {data.shape}")
    centered = data - data.mean(axis=0)
    return _normalize(centered.T @ centered / data.shape[0])


def _normalize(cov):
    """The correlation matrix of the covariance ``cov``, constant channels
    (standard deviation <= 1e-12) as ``channel_correlation`` says."""
    d = np.sqrt(np.diag(cov))
    degenerate = d <= 1e-12
    d = np.where(degenerate, 1.0, d)
    corr = cov / np.outer(d, d)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr
