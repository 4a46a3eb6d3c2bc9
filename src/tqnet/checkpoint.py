"""Binary model checkpoints.

Layout (all integers little-endian uint32):

    8 bytes   magic ``TQNETCK1``
    4 bytes   header length N
    N bytes   UTF-8 JSON header: format_version; config, the model's
              ModelConfig less its variant name; variant, the wiring of the
              config's variant name; and params, the parameter manifest
              [{name, rows, cols}, ...] in parameter_shapes(config) order
    payload   the model's flat parameter buffer as float32 little-endian:
              per manifest entry in order, rows*cols values, row-major
    4 bytes   CRC-32 of header+payload

Format version 2 stores each attention projection (``attn.wq``, ``attn.wk``,
``attn.wv``) as one (lookback x lookback) weight; version 1 files, which
stored them per head, are refused like any other version.  Format 2's config
also holds three settings that are now model constants, ``FORMAT2_FIXED``: a
save writes them, and a load checks them, not reads them.

A save writes a temporary file next to the target and renames it over the
target, so a save that fails partway leaves the previous checkpoint intact.

The payload is ``TQNet.values`` cast once to ``<f4``, whatever the model's
working dtype, so a float64 model round-trips with float32 precision; a load
fills the new model's buffer with one assignment.  Loading validates magic,
version, the header schema, the variant section (which must be one of the
``VARIANTS`` wirings, compared as typed JSON), the manifest (which must
equal the one the stored config derives), payload length, and the checksum,
raising :class:`~tqnet.errors.CheckpointError` with the offending detail.  The
manifest and the payload length are checked before any parameter array is
allocated.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import asdict, fields
from itertools import zip_longest

import numpy as np

from .errors import CheckpointError
from .model import NORM_EPS, VARIANTS, ModelConfig, TQNet, parameter_shapes

MAGIC = b"TQNETCK1"
FORMAT_VERSION = 2

# the config keys format 2 stores for the model constants, each with its one value
FORMAT2_FIXED = {"use_instance_norm": True, "norm_eps": NORM_EPS,
                 "scale_by_head_dim": False}


def _manifest(config):
    return [{"name": name, "rows": rows, "cols": cols}
            for name, (rows, cols) in parameter_shapes(config)]


def _json_text(obj):
    """``obj`` as JSON text: equal texts are equal values, and unlike
    ``==`` the text tells ``true`` from ``1``."""
    return json.dumps(obj, sort_keys=True)


# each variant's name, keyed by the JSON text of its wiring
_VARIANT_NAMES = {_json_text(w._asdict()): name for name, w in VARIANTS.items()}


def save_checkpoint(path, model):
    config = {**asdict(model.config), **FORMAT2_FIXED}
    del config["variant"]  # stored as its wiring
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": config,
            "variant": model.wiring._asdict(),
            "params": _manifest(model.config),
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = model.values.astype("<f4", copy=False).tobytes()
    body = header + payload
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8 or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    body_start = len(MAGIC) + 4
    body = blob[body_start:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if len(body) < header_len:
        raise CheckpointError(f"{path}: truncated header")
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    try:
        header = json.loads(body[:header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')!r} "
            f"not supported (expected {FORMAT_VERSION})"
        )

    wiring = _json_text(header.get("variant"))
    variant = _VARIANT_NAMES.get(wiring)
    if variant is None:
        raise CheckpointError(
            f"{path}: header key 'variant' is the wiring of no variant: {wiring}")
    section = header.get("config")
    if not isinstance(section, dict):
        raise CheckpointError(f"{path}: header key 'config' must be an object")
    for key, value in FORMAT2_FIXED.items():
        stored, want = _json_text(section.pop(key, None)), _json_text(value)
        if stored != want:
            raise CheckpointError(f"{path}: header key 'config' has {key} {stored}, "
                                  f"but only {want} is supported")
    unknown = sorted(set(section) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise CheckpointError(
            f"{path}: header key 'config' has unknown field {unknown[0]!r}")
    try:
        config = ModelConfig(**section, variant=variant)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: header key 'config' is invalid ({exc})") from None
    want, got = _manifest(config), header.get("params")
    if not isinstance(got, list):
        raise CheckpointError(f"{path}: header key 'params' must be a list")
    diff = next(((i, g, w) for i, (g, w) in enumerate(zip_longest(got, want))
                 if _json_text(g) != _json_text(w)), None)
    if diff:
        raise CheckpointError(
            f"{path}: header key 'params' differs from the manifest of the stored "
            f"config at entry {diff[0]}: {diff[1]!r}, expected {diff[2]!r}")
    have = len(body) - header_len
    needed = sum(m["rows"] * m["cols"] * 4 for m in want)
    if have != needed:
        raise CheckpointError(
            f"{path}: payload has {have} bytes, the manifest needs {needed}"
        )

    payload = np.frombuffer(body, dtype="<f4", offset=header_len)
    try:
        return TQNet(config, values=payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: header key 'config' does not build a model ({exc})"
        ) from None

