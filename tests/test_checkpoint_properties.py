"""Property test: a checkpoint with one byte overwritten, or cut short, is
refused with a :class:`CheckpointError` or loads as the model it was saved
from, for every variant in both dtypes; never another exception, and never
a different model."""

import pytest

from tqnet.checkpoint import load_checkpoint, save_checkpoint
from tqnet.errors import CheckpointError
from tqnet.model import VARIANTS, ModelConfig, TQNet

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
@hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_a_damaged_checkpoint_is_refused_or_loads_unchanged(work, variant, dtype,
                                                            data):
    model = TQNet(ModelConfig(channels=2, lookback=4, horizon=2, period=3,
                              hidden=4, heads=2, dtype=dtype, variant=variant))
    path = work / f"{variant}-{dtype}.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob)), label="length")]
    else:
        # a mask of 0 leaves the file whole
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        mask = data.draw(st.integers(0, 255), label="xor mask")
        blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    path.write_bytes(blob)
    try:
        loaded = load_checkpoint(path)
    except CheckpointError:
        return
    assert loaded.config == model.config
    assert loaded.values.tobytes() == model.values.tobytes()
