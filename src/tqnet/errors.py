"""Shared exception types, and the one field-type rule of the config
dataclasses.

Everything user-facing raises one of these (or a stdlib error where that is
the established idiom) so the CLI can map failures onto exit codes: config
and usage problems exit 2, runtime failures exit 1.

Every config dataclass (``ModelConfig``, ``TrainPlan``, ``SplitSpec``,
``SynthSpec``, ``RunConfig``) calls :func:`check_field_types` first in its
``__post_init__``, and the CLI types its flags by :func:`field_type`, so a
field's annotation is the only statement of what it accepts.  ``RunConfig``
restates no field: ``tqnet.cli`` builds it from those of ``ModelConfig``,
``TrainPlan`` and ``SplitSpec`` less ``cli.NOT_RUN_FIELDS``, plus three run
keys: ``data``, ``dataset`` and ``out_dir``.
"""

from dataclasses import fields


class ShapeError(ValueError):
    """Operand shapes are incompatible; message names both shapes."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class DataError(ValueError):
    """Malformed input data (CSV parse problems, degenerate series, ...)."""


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required; message names the stage."""


class TapeError(RuntimeError):
    """Misuse of the autodiff tape (e.g. backward with nothing recorded)."""


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt, truncated, or does not match the model."""


_TYPES = {"int": int, "float": float, "str": str, "tuple": tuple}


def field_type(f):
    """``(type, optional)`` of a dataclass field annotated ``T`` or
    ``T | None``, read from the annotation string (config modules use
    ``from __future__ import annotations``)."""
    name, _, none = f.type.partition(" | ")
    return _TYPES[name], none == "None"


def check_field_types(obj):
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``obj`` whose value lacks its annotated type.  An ``int`` field takes an
    int; a ``float`` field an int or a float, and stores it as a float;
    ``str`` and ``tuple`` fields their type; a bool is no number; ``T |
    None`` also takes None.  Otherwise ``True`` would be a batch size of 1."""
    for f in fields(obj):
        typ, optional = field_type(f)
        v = getattr(obj, f.name)
        if v is None and optional:
            continue
        ok = not isinstance(v, bool) and isinstance(
            v, (int, float) if typ is float else typ)
        if ok and typ is float:
            try:
                object.__setattr__(obj, f.name, float(v))
            except OverflowError:  # an int beyond the float range
                ok = False
        if not ok:
            raise ConfigError(f"{f.name} must be of type {f.type}, got {v!r}")
