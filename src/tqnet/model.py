"""Forecasting model: periodically indexed learnable queries feeding
multi-head attention over channels, followed by a residual MLP trunk.

Data layout convention: one sample is a (channels x lookback) window ``x``
whose absolute start position ``t`` is known; a minibatch is a stack
(B x channels x lookback) with one start per window, run in one pass.  Each
channel owns a learnable query vector of length ``period`` (one slot per
position of the assumed cycle).  For a window starting at ``t``, slot
``(t + j) mod period`` is read for offset ``j`` (``segment_indices``), so
two windows whose starts differ by a whole number of periods read
byte-identical query segments — the query bank is a phase-locked
description of each channel, not of any single window.

Attention mixes *channels* (rows): queries come from the bank segment, keys
and values from the observed window, so a channel attends to the raw channels
most useful for predicting it.  All heads run in one pass: ``attn.wq``,
``attn.wk`` and ``attn.wv`` are each one (lookback x lookback) weight with
head ``h`` in columns ``h*L/heads : (h+1)*L/heads``, so Q, K and V are one
``linear`` each.  One ``channel_attention`` node takes the three and gives
back the head outputs side by side for the ``attn.wo`` ``linear``: inside
it, every head's scores, softmax and dropout form a single (heads, B,
channels, channels) stack.  ``ModelConfig.variant`` names one of the
``VARIANTS`` of the component study, which rewire the block (bankless
self-attention, bank-only attention, additive channel identifiers, plain
MLP); ``ModelConfig.wiring`` is that name's row of the table, which both
the forward pass and the parameter list read.

Every input row is instance-normalized (``NORM_EPS``) and the output mapped
back by a ``row_affine``; attention scores are scaled by ``1/sqrt(lookback)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError, check_field_types, require
from .tensor import (
    DiffTensor,
    add,
    attention_probs,
    channel_attention,
    check_finite,
    dropout,
    gather_cols,
    gelu,
    linear,
    row_affine,
)

NORM_EPS = 1e-5  # added to each input row's variance before its square root


@dataclass(frozen=True)
class ModelConfig:
    channels: int
    lookback: int = 96
    horizon: int = 96
    period: int = 24
    hidden: int = 512
    heads: int = 4
    attn_dropout: float = 0.5
    out_dropout: float = 0.0
    seed: int = 2024
    dtype: str = "float32"
    variant: str = "default"

    def __post_init__(self):
        check_field_types(self)
        require("a positive integer", channels=self.channels, lookback=self.lookback,
                horizon=self.horizon, period=self.period, hidden=self.hidden,
                heads=self.heads)
        require("a non-negative integer", seed=self.seed)
        if self.lookback % self.heads != 0:
            raise ConfigError(
                f"lookback ({self.lookback}) must be divisible by heads ({self.heads})"
            )
        require("in [0, 1)", attn_dropout=self.attn_dropout,
                out_dropout=self.out_dropout)
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"known: {', '.join(sorted(VARIANTS))}")

    @property
    def wiring(self):
        return VARIANTS[self.variant]


class Wiring(NamedTuple):
    """The attention-block wiring of one of the ``VARIANTS``.

    ``query_source``/``key_source`` say what feeds Q and K ("bank" or
    "window"); values always come from the observed window.  With
    ``attention=False`` the bank segment is added to the window elementwise
    (an additive channel identifier); with no bank the model is the bare MLP trunk.
    """

    query_source: str
    key_source: str
    attention: bool

    @property
    def has_bank(self):
        """A variant has a query bank exactly when a source is "bank"."""
        return "bank" in (self.query_source, self.key_source)


# The component study's variants, each name with its wiring.
VARIANTS = {
    "default": Wiring("bank", "window", True),
    "self_attention": Wiring("window", "window", True),
    "global_only": Wiring("bank", "bank", True),
    "channel_identifier": Wiring("bank", "window", False),
    "pure_mlp": Wiring("window", "window", False),
}


def segment_indices(t, length, period):
    """Bank columns of a window of ``length`` starting at ``t``: offset ``j``
    reads slot ``(t + j) mod period``.  An array of starts gives one row of
    indices per start."""
    t = np.asarray(t, dtype=np.int64)
    return (t[..., None] + np.arange(length, dtype=np.int64)) % period


def _uniform_init(rng, shape, dtype):
    bound = 1.0 / math.sqrt(shape[-2])
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def parameter_shapes(config):
    """``(name, (rows, cols))`` of every parameter of ``TQNet(config)``, in
    ``named_parameters`` order, without allocating any."""
    C, L, H, d = config.channels, config.lookback, config.horizon, config.hidden
    shapes = [("bank.theta", (C, config.period))] if config.wiring.has_bank else []
    if config.wiring.attention:
        shapes += [(f"attn.{w}", (L, L)) for w in ("wq", "wk", "wv", "wo")]
    return shapes + [
        ("proj_in.w", (L, d)), ("proj_in.b", (1, d)),
        ("mlp.w1", (d, d)), ("mlp.b1", (1, d)),
        ("mlp.w2", (d, d)), ("mlp.b2", (1, d)),
        ("proj_out.w", (d, H)), ("proj_out.b", (1, H)),
    ]


def flat_views(flat, shapes):
    """Views of consecutive slices of the 1-D ``flat``, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


class TQNet:
    """The forecaster of ``config``, wired as ``config.variant`` says.  See
    the module docstring for the block layout.

    The model owns its weights: ``values`` is one flat array of the working
    dtype, and each parameter's ``values`` is a view of its slice, at
    consecutive offsets in ``parameter_shapes`` order.  Code that changes
    the weights writes into that buffer, as ``restore`` and ``Adam`` do.
    Each ``.w*`` weight draws ``U(±1/sqrt(rows))`` from ``default_rng(seed)``
    in that order; biases and the bank start at zero.  ``load_checkpoint``
    passes ``values``, the buffer's copy source in place of those draws.
    """

    def __init__(self, config, values=None):
        self.config = config
        self.wiring = config.wiring
        rng = np.random.default_rng(config.seed)
        dt = config.dtype
        shapes = parameter_shapes(config)
        self.values = (np.zeros(sum(math.prod(s) for _, s in shapes), dtype=dt)
                       if values is None else np.array(values, dtype=dt))

        self.params = {}  # name -> DiffTensor, in parameter_shapes order
        views = flat_views(self.values, [shape for _, shape in shapes])
        for (name, shape), view in zip(shapes, views):
            self.params[name] = DiffTensor(view, requires_grad=True, name=name)
            if values is None and name.rpartition(".")[2].startswith("w"):
                view[...] = _uniform_init(rng, shape, dt)
        self.bank = self.params.get("bank.theta")  # None without a bank

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self):
        return list(self.params.items())

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def snapshot(self):
        return self.values.copy()

    def restore(self, state):
        self.values[...] = state

    # -- forward --------------------------------------------------------------

    def forward(self, x, t, tape=None, mode="eval", rng=None):
        """Map a (channels x lookback) window to (channels x horizon), or a
        stack of B windows (B, channels, lookback) to (B, channels, horizon).

        ``t`` is the window's absolute start index in its series, a scalar
        for one window and shape (B,) for a stack; the bank is read at phase
        ``t mod period``.  ``mode`` is "train" or "eval"; eval drops nothing
        and guards against non-finite intermediates.  ``rng`` drives dropout
        and must be given in train mode when any dropout is active.
        """
        cfg = self.config
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        attn_p, out_p = ((cfg.attn_dropout, cfg.out_dropout) if mode == "train"
                         else (0.0, 0.0))
        xt, seg, denorm = self._inputs(x, t, tape)

        if self.wiring.attention:
            h = self._attention(tape, *self._qk_sources(xt, seg), xt, attn_p, rng)
        elif seg is not None:
            h = add(tape, xt, seg)
        else:
            h = xt
        if mode == "eval":
            check_finite(h, "attention block")

        p = self.params
        h1 = linear(tape, h, p["proj_in.w"], p["proj_in.b"])
        z = linear(tape, h1, p["mlp.w1"], p["mlp.b1"])
        z = gelu(tape, z)
        z = linear(tape, z, p["mlp.w2"], p["mlp.b2"])
        h2 = add(tape, z, h1)
        if mode == "eval":
            check_finite(h2, "mlp block")
        h2 = dropout(tape, h2, out_p, rng)
        y = linear(tape, h2, p["proj_out.w"], p["proj_out.b"])

        y = row_affine(tape, y, *denorm)
        if mode == "eval":
            check_finite(y, "output projection")
        return y

    def _inputs(self, x, t, tape):
        """Validate a window or a stack; return it as a normalized tensor,
        the bank segment at phase ``t`` (None without a bank), and the
        per-row ``(scale, shift)`` of the output denorm."""
        cfg = self.config
        x = np.asarray(x, dtype=cfg.dtype)
        t = np.asarray(t)
        window = (cfg.channels, cfg.lookback)
        if x.ndim not in (2, 3) or x.shape[-2:] != window or t.shape != x.shape[:-2]:
            raise ShapeError(
                f"expected x {window} with a scalar t, or x (B, {window[0]}, "
                f"{window[1]}) with t (B,); got x {x.shape} and t {t.shape}")
        if t.dtype.kind not in "iu" or (t < 0).any():
            raise ValueError(f"t must hold non-negative integer window starts, "
                             f"got {t.tolist()!r}")
        check_finite(x, "input window")
        x, mu, std = kernels.row_norm_stats(x, NORM_EPS)
        seg = None
        if self.bank is not None:
            seg = gather_cols(tape, self.bank,
                              segment_indices(t, cfg.lookback, cfg.period))
        return DiffTensor(x, name="window"), seg, (std, mu)

    def _qk_sources(self, xt, seg):
        pick = {"bank": seg, "window": xt}
        return pick[self.wiring.query_source], pick[self.wiring.key_source]

    def _projections(self, tape, *sources):
        """Each source times its ``attn`` weight, in ``wq``, ``wk``, ``wv``
        order."""
        return [linear(tape, src, self.params[f"attn.{w}"])
                for src, w in zip(sources, ("wq", "wk", "wv"))]

    def _attention(self, tape, q_src, k_src, v_src, p, rng):
        mixed = channel_attention(tape, *self._projections(tape, q_src, k_src, v_src),
                                  self.config.heads, p, rng)
        return add(tape, linear(tape, mixed, self.params["attn.wo"]), v_src)

    def attention_weights(self, x, t):
        """Eval-mode softmax weights, one array per head: (channels x
        channels) for one window, (B, channels, channels) for a stack of B."""
        if not self.wiring.attention:
            raise ConfigError("variant has no attention block")
        xt, seg, _ = self._inputs(x, t, None)
        q, k = self._projections(None, *self._qk_sources(xt, seg))
        return list(attention_probs(q.values, k.values, self.config.heads))

    def predict(self, x, t):
        return self.forward(x, t, tape=None, mode="eval").values
