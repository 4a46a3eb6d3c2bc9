"""Checkpoint format: byte-exact round trips, corruption detection, and
header schema validation."""

import hashlib
import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from tqnet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from tqnet.cli import main
from tqnet.errors import CheckpointError
from tqnet.model import VARIANTS, ModelConfig, TQNet


def _model(dtype="float32"):
    cfg = ModelConfig(channels=3, lookback=8, horizon=4, period=5, hidden=6,
                      heads=2, attn_dropout=0.0, seed=11, dtype=dtype)
    m = TQNet(cfg)
    m.bank.values[...] = np.random.default_rng(1).normal(size=m.bank.shape)
    return m


@pytest.fixture
def model():
    return _model()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_round_trip_is_bit_exact(tmp_path, dtype):
    model = _model(dtype)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.values.tobytes() == model.values.tobytes()
    x = np.random.default_rng(2).normal(size=(3, 8))
    np.testing.assert_array_equal(model.predict(x, 4), loaded.predict(x, 4))


@pytest.mark.parametrize("variant,dtype,digest", [
    ("default", "float32",
     "460764bfdb3d0fe993e7326db750467f63ae728e69b65c6515c7e3bf35ee3d17"),
    ("pure_mlp", "float64",
     "687da37c8af913ecc0c705bc4464076a4df54aeccea49eb29f4b953cea8c4cb9"),
    ("self_attention", "float32",
     "2590fece5761ef9aa0dab7ae713ed8e2f23dbea6d2d1b70051c7cf42634e0966"),
    ("global_only", "float32",
     "e0dbd1c4c702fb67033ae4a36e8af88d1052649615b58a767a4d7bf67fab4357"),
    ("channel_identifier", "float32",
     "e983a1ef130cb5ad4a59dbc54613dbf27ad276b1a035e2d1dcc2f2af7707de3b"),
])
def test_fresh_seeded_model_saves_pinned_bytes(tmp_path, variant, dtype, digest):
    """The init draw order and the version 3 layout, pinned: a change
    to either changes these digests."""
    cfg = ModelConfig(channels=3, lookback=8, horizon=4, period=5, hidden=6,
                      heads=2, seed=11, dtype=dtype, variant=variant)
    save_checkpoint(tmp_path / "m.ckpt", TQNet(cfg))
    got = hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
    assert got == digest


def test_load_draws_no_init_weights(tmp_path, model, monkeypatch):
    """The payload fills the buffer; drawing weights only to overwrite
    them would be waste."""
    save_checkpoint(tmp_path / "m.ckpt", model)

    def refuse(*args):
        raise AssertionError("load_checkpoint drew init weights")

    monkeypatch.setattr("tqnet.model._uniform_init", refuse)
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    x = np.random.default_rng(2).normal(size=(3, 8))
    np.testing.assert_array_equal(loaded.predict(x, 4), model.predict(x, 4))


def _failing_crc(*args):
    raise OSError("no space left on device")


def test_a_failed_save_leaves_the_previous_checkpoint_whole(tmp_path, model,
                                                            monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    before = path.read_bytes()
    model.params["proj_out.w"].values[...] += 1.0
    # the checksum is the last thing written: the save fails partway
    monkeypatch.setattr("tqnet.checkpoint.zlib.crc32", _failing_crc)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, model)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]
    save_checkpoint(path, model)  # a save that succeeds replaces it
    assert path.read_bytes() != before
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def test_train_exits_1_when_its_checkpoint_save_fails(tmp_path, monkeypatch,
                                                      capsys):
    data, out = tmp_path / "s.csv", tmp_path / "run"
    assert main(["synth", "--out", str(data), "--channels", "3",
                 "--timesteps", "200", "--period", "8", "--latents", "1"]) == 0
    argv = ["train", "--data", str(data), "--out-dir", str(out),
            "--lookback", "8", "--horizon", "4", "--period", "8",
            "--hidden", "6", "--heads", "2", "--max-epochs", "1",
            "--patience", "1"]
    assert main(argv) == 0
    before = (out / "model.ckpt").read_bytes()
    capsys.readouterr()
    monkeypatch.setattr("tqnet.checkpoint.zlib.crc32", _failing_crc)
    assert main([*argv, "--seed", "5"]) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert "no space left" in err and "Traceback" not in err
    assert (out / "model.ckpt").read_bytes() == before
    assert not [f for f in out.iterdir() if f.name.endswith(".tmp")]


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_survives_round_trip(tmp_path, variant):
    cfg = ModelConfig(channels=2, lookback=4, horizon=2, period=3, hidden=4,
                      heads=2, attn_dropout=0.0, variant=variant)
    model = TQNet(cfg)
    save_checkpoint(tmp_path / "v.ckpt", model)
    loaded = load_checkpoint(tmp_path / "v.ckpt")
    assert loaded.config == model.config and loaded.wiring == model.wiring


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_truncation_detected(tmp_path, model):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 20])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_flipped_payload_byte_fails_checksum(tmp_path, model):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    blob = bytearray(p.read_bytes())
    blob[-40] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(p)


def _rewrite_header(path, mutate):
    """Parse, edit, and re-checksum a checkpoint header (to fake mismatches)."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    body = blob[len(MAGIC) + 4 : -4]
    header = json.loads(body[:hlen].decode())
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    new_body = new_header + body[hlen:]
    path.write_bytes(
        MAGIC
        + struct.pack("<I", len(new_header))
        + new_body
        + struct.pack("<I", zlib.crc32(new_body) & 0xFFFFFFFF)
    )


def _entry(header, name):
    """The manifest entry of the parameter ``name``."""
    return next(m for m in header["params"] if m["name"] == name)


def test_manifest_and_payload_must_agree(tmp_path, model):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)

    # a consistent config and manifest, but no payload to back them
    def grow_hidden(header):
        header["config"]["hidden"] = 1_000_000
        for m in header["params"]:
            for key in ("rows", "cols"):
                if m[key] == 6:
                    m[key] = 1_000_000

    _rewrite_header(p, grow_hidden)
    with pytest.raises(CheckpointError, match="payload has .* bytes"):
        load_checkpoint(p)


def test_shape_mismatch_names_parameter(tmp_path, model):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)

    def grow_theta(header):
        header["params"][0]["cols"] += 1

    _rewrite_header(p, grow_theta)
    with pytest.raises(CheckpointError, match="bank.theta"):
        load_checkpoint(p)


def test_unsupported_version(tmp_path, model, capsys):
    # earlier versions are refused, not read: their models must be retrained
    for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):
        p = tmp_path / f"v{version}.ckpt"
        save_checkpoint(p, model)
        _rewrite_header(p, lambda h: h.update(format_version=version))
        message = f"version {version} not supported (expected {FORMAT_VERSION})"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(p)
        for argv in (["corr"], ["evaluate", "--data", str(tmp_path / "s.csv")]):
            assert main([*argv, "--checkpoint", str(p)]) == 1
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err


@pytest.mark.parametrize("mutate,key", [
    pytest.param(lambda h: h.pop("config"), "config", id="no-config"),
    pytest.param(lambda h: h["config"].update(colour=1), "colour",
                 id="unknown-config-key"),
    pytest.param(lambda h: h["config"].pop("channels"), "channels",
                 id="missing-config-key"),
    pytest.param(lambda h: h["config"].update(seed="x"), "config",
                 id="bad-config-value"),
    pytest.param(lambda h: h["config"].update(variant="bank_only"), "variant",
                 id="unknown-variant"),
    pytest.param(lambda h: h.update(params={}), "params", id="params-not-list"),
    pytest.param(lambda h: h["params"][0].pop("rows"), "params",
                 id="params-entry-incomplete"),
    # shapes from this config would need terabytes; nothing may be allocated
    pytest.param(lambda h: h["config"].update(hidden=1_000_000), "config",
                 id="oversized-config"),
    # wrongly typed fields would load as a different model, not fail
    pytest.param(lambda h: h["config"].update(heads=True), "heads",
                 id="int-field-bool"),
    pytest.param(lambda h: h["config"].update(attn_dropout="0.5"),
                 "attn_dropout", id="float-field-str"),
    # JSON's true is not 1: a manifest entry compares as typed
    pytest.param(lambda h: _entry(h, "proj_in.b").update(rows=True), "params",
                 id="params-rows-true"),
])
def test_malformed_header_is_checkpoint_error(tmp_path, model, capsys, mutate, key):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    _rewrite_header(p, mutate)
    with pytest.raises(CheckpointError, match=f"{p}.*{key}"):
        load_checkpoint(p)
    assert main(["corr", "--checkpoint", str(p)]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_checkpoint_error_naming_the_parameter(
        tmp_path, capsys, value, dtype):
    # saved as trained, checksum valid: a load must not hand on a NaN or inf
    model = _model(dtype)
    model.params["mlp.w1"].values[2, 3] = value
    model.params["proj_out.b"].values[0, 1] = value
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model)
    message = f"{p}: parameter 'mlp.w1' holds a non-finite value"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(p)
    for argv in (["corr", "--truth", str(tmp_path / "t.csv")],
                 ["evaluate", "--data", str(tmp_path / "s.csv")]):
        assert main([*argv, "--checkpoint", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def _traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_allocates_no_copy_of_the_payload(tmp_path):
    model = TQNet(ModelConfig(channels=7))  # the ETTh1 preset: a 2.6 MB payload
    _, peak = _traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", model))
    assert peak < 0.5 * model.values.nbytes, peak / model.values.nbytes


def test_load_allocates_only_the_file_and_the_model_buffer(tmp_path):
    model = TQNet(ModelConfig(channels=7))  # the ETTh1 preset: a 2.6 MB payload
    save_checkpoint(tmp_path / "m.ckpt", model)
    loaded, peak = _traced_peak(lambda: load_checkpoint(tmp_path / "m.ckpt"))
    assert loaded.values.tobytes() == model.values.tobytes()
    assert peak < 2.5 * model.values.nbytes, peak / model.values.nbytes
