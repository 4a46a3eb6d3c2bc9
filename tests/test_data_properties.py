"""Property tests: the CSV readers' contract (any bytes in a file give a
parsed result or a :class:`DataError`, never another exception), and
windows that equal the reference slices of their part."""

import numpy as np
import pytest

from tqnet.data import (
    SeriesTable,
    SplitPart,
    load_csv,
    make_windows,
    read_matrix_csv,
)
from tqnet.errors import DataError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# CSV-ish text, so that examples reach the cell and row checks, besides raw
# bytes that are mostly not UTF-8
CSV_TEXT = st.text(alphabet='0123456789.,-+e"\n\r \tnaifx\x00\xe9', max_size=80)
CONTENTS = st.one_of(st.binary(max_size=80), CSV_TEXT.map(str.encode),
                     st.text(max_size=40).map(str.encode))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "any.csv"


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(raw=CONTENTS)
def test_any_bytes_parse_or_raise_data_error(path, raw):
    path.write_bytes(raw)
    try:
        table = load_csv(path)
    except DataError:
        pass
    else:
        assert isinstance(table, SeriesTable)
        assert np.isfinite(table.data).all()
    try:
        names, matrix = read_matrix_csv(path)
    except DataError:
        pass
    else:
        assert matrix.shape == (len(names), len(names))
        assert np.isfinite(matrix).all()


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(C=st.integers(1, 4), extra=st.integers(0, 12),
                  t0=st.integers(0, 10_000), L=st.integers(1, 8),
                  H=st.integers(1, 8), data=st.data())
def test_windows_are_the_reference_slices(C, extra, t0, L, H, data):
    T = L + H + extra
    series = np.arange(C * T, dtype=np.float32).reshape(C, T)
    ws = make_windows(SplitPart(name="part", series=series, t0=t0), L, H)
    n = T - L - H + 1
    assert len(ws) == n
    assert np.shares_memory(ws.x, series) and np.shares_memory(ws.y, series)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=6)))
    run = np.arange(min(len(idx), n))
    for w, starts in ((ws[idx], idx), (ws[: len(run)], run)):
        np.testing.assert_array_equal(w.t, t0 + starts)
        assert w.x.shape == (len(starts), C, L) and w.y.shape == (len(starts), C, H)
        for xi, yi, s in zip(w.x, w.y, starts):
            np.testing.assert_array_equal(xi, series[:, s : s + L])
            np.testing.assert_array_equal(yi, series[:, s + L : s + L + H])
    with pytest.raises(IndexError):
        ws[n]
