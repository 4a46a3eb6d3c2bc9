"""Property test of the CSV readers' contract: any bytes in a file give a
parsed result or a :class:`DataError`, never another exception."""

import numpy as np
import pytest

from tqnet.data import SeriesTable, load_csv, read_matrix_csv
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
