"""Binary model checkpoints.

Layout (all integers little-endian uint32):

    8 bytes   magic ``TQNETCK1``
    4 bytes   header length N
    N bytes   UTF-8 JSON header: format_version; config, the model's
              ModelConfig with its variant name; and params, the parameter
              manifest [{name, rows, cols}, ...] in parameter_shapes(config)
              order
    payload   the model's flat parameter buffer ``TQNet.values`` as is, in
              the config's dtype, little-endian: per manifest entry in order,
              rows*cols values, row-major
    4 bytes   CRC-32 of header+payload

So float32 and float64 models both round-trip bitwise.  Versions 1 and 2
(per-head attention weights; the variant as its wiring and a float32
payload) are refused like any other version: their models must be retrained.

A save writes a temporary file next to the target and renames it over the
target, so a save that fails partway leaves the previous checkpoint intact.

Loading validates magic, checksum, version and the config, which
``ModelConfig`` itself checks (an unknown, missing or mistyped key, or a
variant no ``VARIANTS`` entry has).  It then checks the stored manifest,
which must equal the one the config derives (so a layout change made
without a version bump is caught), and the payload length, both before any
parameter array is allocated.  Every failure raises
:class:`~tqnet.errors.CheckpointError` naming the file and the detail.  A
load reads the file into one bytes object, checks it through views, and
fills the new model's buffer with one assignment; a save writes the
model's buffer through a view, so neither copies the payload once more.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, TQNet, parameter_shapes

MAGIC = b"TQNETCK1"
FORMAT_VERSION = 3


def _manifest(config):
    return [{"name": name, "rows": rows, "cols": cols}
            for name, (rows, cols) in parameter_shapes(config)]


def _json_text(obj):
    """``obj`` as JSON text: equal texts are equal values, and unlike
    ``==`` the text tells ``true`` from ``1``."""
    return json.dumps(obj, sort_keys=True)


def _payload_dtype(config):
    return np.dtype(config.dtype).newbyteorder("<")


def save_checkpoint(path, model):
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": asdict(model.config),
            "params": _manifest(model.config),
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = memoryview(
        model.values.astype(_payload_dtype(model.config), copy=False)).cast("B")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(payload)
            crc = zlib.crc32(payload, zlib.crc32(header))
            fh.write(struct.pack("<I", crc & 0xFFFFFFFF))
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
    body = memoryview(blob)[body_start:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if len(body) < header_len:
        raise CheckpointError(f"{path}: truncated header")
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    try:
        header = json.loads(str(body[:header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')!r} "
            f"not supported (expected {FORMAT_VERSION})"
        )

    try:
        config = ModelConfig(**header.get("config"))
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
    dtype = _payload_dtype(config)
    have = len(body) - header_len
    needed = sum(m["rows"] * m["cols"] for m in want) * dtype.itemsize
    if have != needed:
        raise CheckpointError(
            f"{path}: payload has {have} bytes, the manifest needs {needed}"
        )

    return TQNet(config, values=np.frombuffer(body, dtype=dtype, offset=header_len))
