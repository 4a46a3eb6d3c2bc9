"""Checkpoint format: byte-exact round trips, corruption detection, and
header schema validation."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from tqnet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from tqnet.cli import main
from tqnet.errors import CheckpointError
from tqnet.model import VARIANTS, ModelConfig, TQNet


@pytest.fixture
def model():
    cfg = ModelConfig(channels=3, lookback=8, horizon=4, period=5, hidden=6,
                      heads=2, attn_dropout=0.0, seed=11)
    m = TQNet(cfg)
    m.bank.theta.values[...] = np.random.default_rng(1).normal(
        size=m.bank.theta.shape
    ).astype(np.float32)
    return m


def test_round_trip_is_bit_exact(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (na, pa), (nb, pb) in zip(
        model.named_parameters(), loaded.named_parameters()
    ):
        assert na == nb
        np.testing.assert_array_equal(pa.values, pb.values)
    x = np.random.default_rng(2).normal(size=(3, 8))
    np.testing.assert_array_equal(model.predict(x, 4), loaded.predict(x, 4))


@pytest.mark.parametrize("variant,dtype,digest", [
    ("default", "float32",
     "b8d844326ea26fe6f302f86992ca8e638f3512d0eff9fcb4ec6c74c5128dc93f"),
    ("pure_mlp", "float64",
     "1083d68410b701e60dc813ed6984a45779db0317af0139251ed7758c7a7de3d8"),
    ("self_attention", "float32",
     "f661143973188a8db620ed7c88624d961670f1745d898d42fc5afefbcd86c254"),
    ("global_only", "float32",
     "bbef1a3dc66a712ca5f8a7d16f41e1af6bd182c4962d894ea596789e2a5d72f3"),
    ("channel_identifier", "float32",
     "e5b13b828fd6fdf1dcabb30c9ae68f683b67ad509d531548bb509c2b99f4ca72"),
])
def test_fresh_seeded_model_saves_pinned_bytes(tmp_path, variant, dtype, digest):
    """The init draw order and the version 2 byte layout, pinned: a change
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
    # the previous version stored per-head attention weights: refused, not read
    for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):
        p = tmp_path / f"v{version}.ckpt"
        save_checkpoint(p, model)
        _rewrite_header(p, lambda h: h.update(format_version=version))
        message = f"version {version} not supported \\(expected {FORMAT_VERSION}\\)"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)
        assert main(["corr", "--checkpoint", str(p)]) == 1
        err = capsys.readouterr().err
        assert f"version {version}" in err and "Traceback" not in err


@pytest.mark.parametrize("mutate,key", [
    pytest.param(lambda h: h.pop("config"), "config", id="no-config"),
    pytest.param(lambda h: h["config"].update(colour=1), "colour",
                 id="unknown-config-key"),
    pytest.param(lambda h: h["config"].pop("channels"), "channels",
                 id="missing-config-key"),
    pytest.param(lambda h: h["config"].update(seed="x"), "config",
                 id="bad-config-value"),
    pytest.param(lambda h: h.update(variant="default"), "variant",
                 id="variant-not-object"),
    pytest.param(lambda h: h.update(params={}), "params", id="params-not-list"),
    pytest.param(lambda h: h["params"][0].pop("rows"), "params",
                 id="params-entry-incomplete"),
    # shapes from this config would need terabytes; nothing may be allocated
    pytest.param(lambda h: h["config"].update(hidden=1_000_000), "config",
                 id="oversized-config"),
    # wrongly typed fields would load as a different model, not fail
    pytest.param(lambda h: h["config"].update(use_instance_norm="false"),
                 "use_instance_norm", id="bool-field-str"),
    pytest.param(lambda h: h["config"].update(scale_by_head_dim=1),
                 "scale_by_head_dim", id="bool-field-int"),
    pytest.param(lambda h: h["config"].update(heads=True), "heads",
                 id="int-field-bool"),
    pytest.param(lambda h: h["config"].update(attn_dropout="0.5"),
                 "attn_dropout", id="float-field-str"),
    pytest.param(lambda h: h["config"].update(norm_eps=True), "norm_eps",
                 id="float-field-bool"),
    pytest.param(lambda h: h["variant"].update(attention="false"), "attention",
                 id="variant-bool-field-str"),
    pytest.param(lambda h: h["variant"].update(bank=1), "bank",
                 id="variant-bool-field-int"),
    # a wiring that no variant has
    pytest.param(lambda h: h["variant"].update(query_source="window",
                                               key_source="bank"), "variant",
                 id="variant-unnamed-wiring"),
    # the variant is stored once, as its wiring
    pytest.param(lambda h: h["config"].update(variant="default"), "variant",
                 id="config-with-variant"),
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
