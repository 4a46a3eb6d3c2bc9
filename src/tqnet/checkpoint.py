"""Binary model checkpoints.

Layout (all integers little-endian uint32):

    8 bytes   magic ``TQNETCK1``
    4 bytes   header length N
    N bytes   UTF-8 JSON header: format_version, config, variant, and the
              ordered parameter manifest [{name, rows, cols}, ...]
    payload   the model's flat parameter buffer as float32 little-endian:
              per manifest entry in order, rows*cols values, row-major
    4 bytes   CRC-32 of header+payload

Format version 2 stores each attention projection (``attn.wq``, ``attn.wk``,
``attn.wv``) as one (lookback x lookback) weight; version 1 files, which
stored them per head, are refused like any other version.

A save writes a temporary file next to the target and renames it over the
target, so a save that fails partway leaves the previous checkpoint intact.

The payload is ``TQNet.values`` cast once to ``<f4``, whatever the model's
working dtype, so a float64 model round-trips with float32 precision; a load
fills the new model's buffer with one assignment.  Loading validates magic,
version, the header schema, manifest-vs-model shape agreement, payload
length, and the checksum, raising :class:`~tqnet.errors.CheckpointError`
with the offending detail.  The shapes and the payload length are checked
against the stored config before any parameter array is allocated.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import asdict, fields

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, TQNet, VariantSpec, parameter_shapes

MAGIC = b"TQNETCK1"
FORMAT_VERSION = 2


def save_checkpoint(path, model):
    manifest = [
        {"name": name, "rows": p.rows, "cols": p.cols}
        for name, p in model.named_parameters()
    ]
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": asdict(model.config),
            "variant": asdict(model.variant),
            "params": manifest,
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

    config = _header_section(path, header, "config", ModelConfig)
    variant = _header_section(path, header, "variant", VariantSpec)
    manifest = header.get("params")
    if not isinstance(manifest, list) or not all(
        isinstance(m, dict)
        and isinstance(m.get("name"), str)
        and type(m.get("rows")) is int
        and type(m.get("cols")) is int
        for m in manifest
    ):
        raise CheckpointError(
            f"{path}: header key 'params' must be a list of "
            "{name, rows, cols} entries"
        )
    expected = parameter_shapes(config, variant)
    if [m["name"] for m in manifest] != [name for name, _ in expected]:
        raise CheckpointError(
            f"{path}: parameter manifest does not match the model built from "
            "the stored config"
        )
    for m, (name, shape) in zip(manifest, expected):
        if (m["rows"], m["cols"]) != shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape ({m['rows']}, {m['cols']}) "
                f"in the manifest, the stored config gives {shape}"
            )
    have = len(body) - header_len
    needed = sum(rows * cols * 4 for _, (rows, cols) in expected)
    if have != needed:
        raise CheckpointError(
            f"{path}: payload has {have} bytes, the manifest needs {needed}"
        )

    payload = np.frombuffer(body, dtype="<f4", offset=header_len)
    try:
        return TQNet(config, variant=variant, values=payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: header key 'config' does not build a model ({exc})"
        ) from None


def _header_section(path, header, key, cls):
    """Build ``cls`` from the header object under ``key``; every schema
    fault becomes a :class:`CheckpointError` naming the file and the key."""
    section = header.get(key)
    if not isinstance(section, dict):
        raise CheckpointError(f"{path}: header key {key!r} must be an object")
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(
            f"{path}: header key {key!r} has unknown field {unknown[0]!r}"
        )
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: header key {key!r} is invalid ({exc})"
        ) from None
