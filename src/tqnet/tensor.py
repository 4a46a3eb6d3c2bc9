"""Reverse-mode automatic differentiation on stacks of matrices.

A deliberately small engine: every value is a float array of rank >= 2
wrapped in :class:`DiffTensor`, every differentiable operation records one
node on a :class:`Tape`, and ``Tape.backward`` replays the nodes in reverse
recording order.  Ops act on the last two axes (rows and columns); any
leading axes are a batch, so one tape records a whole minibatch.  ``linear``
shares a 2-D weight with every matrix of the batch, and its gradient is the
sum over the batch; ``channel_attention`` runs the whole multi-head
attention core (scores, softmax, dropout, weights times values) as one node.
Gradients accumulate additively, so a parameter used in several places ends
up with the sum of all contributions.

The tape owns the node protocol, so an op states only its forward and
backward math: it computes its output values and a ``backward(g)`` that
hands the gradient ``g`` of its output to its inputs.  ``_node`` makes the
output, which needs a gradient when any input does, and records the node
``(backward, out)`` only when there is a tape and the output needs a
gradient; ``Tape.backward`` calls a node only when ``out`` got a gradient.

Gradients are written once.  A backward hands each input either a fresh
array or a view of its own output's gradient, which nothing reads after the
node has run, so the input may keep it: a tensor's first gradient becomes
its ``grad`` without a copy when it has the tensor's shape and dtype, and
later ones are added into it in place.  ``add``, the one op that hands one
array to two inputs, gives its second input a copy.  A tensor with a
``grad_home`` takes its first gradient in that array instead: ``Adam``
points each parameter's at its slice of ``Adam.g``, the flat gradient
buffer Adam owns (the model owns the weights, ``TQNet.values``).  ``linear``
computes its weight gradient straight into it (every weight, the attention
projections included), ``gather_cols`` scatters into it zeroed, and any
other gradient is copied in.

Ops take the tape as their first argument; passing ``tape=None`` runs the
same math without recording anything (cheap inference path).  Dropout is
``(p, rng)``: ``p == 0`` is the identity and draws nothing, ``p > 0`` needs an
``rng``; ``TQNet.forward`` passes 0 in eval mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError, ShapeError, TapeError


class DiffTensor:
    """An array of rank >= 2 (``rows`` and ``cols`` are its last two axes)
    plus an optional, lazily allocated gradient buffer.

    ``grad_home``, when set, is an array of the tensor's shape and dtype
    that the first gradient is written into, so ``grad`` becomes a view of
    memory its owner keeps (``Adam`` sets each parameter's slice of its
    flat gradient buffer ``g``).
    """

    __slots__ = ("values", "grad", "requires_grad", "name", "grad_home")

    def __init__(self, values, requires_grad=False, name=None):
        values = np.asarray(values)
        if values.ndim < 2:
            raise ShapeError(f"DiffTensor needs rank >= 2, got shape {values.shape}")
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.grad_home = None

    @property
    def rows(self):
        return self.values.shape[-2]

    @property
    def cols(self):
        return self.values.shape[-1]

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def new_grad(self):
        """An unfilled array for the first gradient: ``grad_home`` when set,
        else a new one like ``values``."""
        if self.grad_home is None:
            return np.empty_like(self.values)
        return self.grad_home

    def accumulate(self, g):
        """Add ``g`` to the gradient; the tensor may keep ``g`` itself (see
        the module docstring for who owns what)."""
        if self.grad is not None:
            self.grad += g
        elif (self.grad_home is None and g.shape == self.values.shape
              and g.dtype == self.values.dtype):
            self.grad = g
        else:  # broadcast or cast, or write into the home
            self.grad = self.new_grad()
            np.copyto(self.grad, g)

    def zero_grad(self):
        self.grad = None

    def item(self):
        if self.values.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.values.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"DiffTensor(shape={self.values.shape}, dtype={self.values.dtype}{tag})"


class Tape:
    """Ordered log of ``(backward, out)`` nodes, replayed last-recorded-first
    and once; a node runs as ``backward(out.grad)``, and not at all when
    ``out`` got no gradient."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, backward, out):
        self._nodes.append((backward, out))

    def backward(self, out):
        """Seed ``out.grad`` with one and propagate to every input.

        Each node is dropped as it runs, which frees the activations and
        intermediate gradients it holds; so a tape runs backward only once.
        """
        if not self._nodes:
            raise TapeError("backward on an empty tape: nothing was recorded, "
                            "or backward already ran on it")
        out.grad = np.ones_like(out.values) if out.grad is None else out.grad + 1
        while self._nodes:
            backward, node_out = self._nodes.pop()
            if node_out.grad is not None:
                backward(node_out.grad)


def _node(tape, values, inputs, backward):
    """An op's output: a tensor of ``values`` that needs a gradient when any
    of ``inputs`` does, with ``backward`` recorded on the tape when there is
    one and the output needs a gradient."""
    out = DiffTensor(values, requires_grad=any(t.requires_grad for t in inputs))
    if tape is not None and out.requires_grad:
        tape.record(backward, out)
    return out


def _mm(x, w):
    """``x @ w`` for a 2-D ``w``: one GEMM over the flattened leading axes."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _weight_grad(x, g, out=None):
    """Gradient of a 2-D ``w`` in ``x @ w``, summed over the leading axes."""
    return np.matmul(x.reshape(-1, x.shape[-1]).T, g.reshape(-1, g.shape[-1]),
                     out=out)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def linear(tape, x, w, bias=None):
    """x @ w + bias for a 2-D ``w`` shared by every matrix of ``x``, bias
    broadcast across rows (shape 1 x cols)."""
    if x.cols != w.rows:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    xv, wv = x.values, w.values
    vals = _mm(xv, wv)
    inputs = (x, w)
    if bias is not None:
        if bias.shape != (1, w.cols):
            raise ShapeError(
                f"linear: bias must be (1, {w.cols}), got {bias.shape}"
            )
        vals = vals + bias.values
        inputs = (x, w, bias)

    def backward(g):
        if x.requires_grad:
            x.accumulate(_mm(g, wv.T))
        if w.requires_grad:
            if w.grad is None:  # the GEMM writes the first one in place
                w.grad = _weight_grad(xv, g, out=w.new_grad())
            else:
                w.grad += _weight_grad(xv, g)
        if bias is not None and bias.requires_grad:
            bias.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0, keepdims=True))

    return _node(tape, vals, inputs, backward)


def add(tape, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:  # its own array: ``a`` may keep ``g``
            b.accumulate(g.copy() if a.requires_grad else g)

    return _node(tape, a.values + b.values, (a, b), backward)


def gelu(tape, x):
    """Exact (erf-based) gaussian error linear unit; the backward reuses the
    forward's ``erf``."""
    erf = kernels.gelu_erf(x.values)

    def backward(g):
        grad = kernels.gelu_grad(x.values, erf)
        grad *= g
        x.accumulate(grad)

    return _node(tape, kernels.gelu(x.values, erf), (x,), backward)


def _dropout_mask(a, p, rng):
    """Inverted dropout's mask for an array like ``a``: the boolean
    ``rng.random(a.shape) >= p`` and the scale ``1 / (1 - p)`` in ``a``'s
    dtype.  None at ``p == 0``, which draws nothing."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout with p > 0 needs an rng")
    return rng.random(a.shape) >= p, a.dtype.type(1.0) / a.dtype.type(1.0 - p)


def _drop(a, mask, out=None):
    """``a`` through ``mask``: zero where dropped, ``a / (1 - p)`` where
    kept; ``a`` itself when there is no mask."""
    if mask is None:
        return a
    keep, inv = mask
    out = np.multiply(a, keep, out=out)
    out *= inv
    return out


def dropout(tape, x, p, rng=None):
    """Inverted dropout: keeps with prob 1-p and rescales by 1/(1-p); at
    p == 0 it is the identity and consumes no randomness."""
    mask = _dropout_mask(x.values, p, rng)
    if mask is None:
        return x

    def backward(g):
        x.accumulate(_drop(g, mask))

    return _node(tape, _drop(x.values, mask), (x,), backward)


def _merge(v):
    """``(heads, ..., d)`` -> ``(..., heads * d)``, head ``h`` in columns
    ``h*d : (h+1)*d``."""
    n = v.ndim
    return v.transpose(*range(1, n - 1), 0, n - 1).reshape(*v.shape[1:-1], -1)


def _split(v, heads):
    """Inverse of ``_merge``: a view, no copy."""
    v = v.reshape(*v.shape[:-1], heads, -1)
    n = v.ndim
    return v.transpose(n - 2, *range(n - 2), n - 1)


def _score_scale(q):  # one over the square root of the projection width
    return 1.0 / math.sqrt(q.shape[-1])


def attention_probs(q, k, heads):
    """Row softmax of each head's scaled scores ``q_h @ k_h^T / sqrt(heads *
    d)``, stacked as ``(heads, ..., C, C)``; ``q`` and ``k`` are ``(..., C,
    heads * d)`` arrays with head ``h`` in columns ``h*d : (h+1)*d``."""
    scores = _split(q, heads) @ np.swapaxes(_split(k, heads), -1, -2)
    scores *= _score_scale(q)
    return kernels.softmax_rows(scores)


def channel_attention(tape, q, k, v, heads, p, rng=None):
    """Multi-head attention over the rows (channels) of ``(..., C, L)``
    projections: head ``h`` mixes the rows of its columns of ``v`` by
    ``attention_probs`` under inverted dropout (``p`` and ``rng`` as in
    ``dropout``, one draw for the whole stack), and the head outputs
    sit side by side again.  The node keeps the softmax and a boolean keep
    mask; the backward rebuilds the dropped weights from them.
    """
    if not q.shape == k.shape == v.shape or heads < 1 or q.cols % heads:
        raise ShapeError(
            f"channel_attention: q {q.shape}, k {k.shape} and v {v.shape} must "
            f"share one shape whose columns split into {heads} heads")
    probs = attention_probs(q.values, k.values, heads)
    mask = _dropout_mask(probs, p, rng)
    vh = _split(v.values, heads)

    def backward(g):
        gh = _split(g, heads)
        if v.requires_grad:
            v.accumulate(_merge(np.swapaxes(_drop(probs, mask), -1, -2) @ gh))
        dw = gh @ np.swapaxes(vh, -1, -2)
        ds = kernels.softmax_rows_grad(probs, _drop(dw, mask, out=dw))
        ds *= _score_scale(q.values)
        if q.requires_grad:
            q.accumulate(_merge(ds @ _split(k.values, heads)))
        if k.requires_grad:
            dk = np.swapaxes(_split(q.values, heads), -1, -2) @ ds
            k.accumulate(_merge(np.swapaxes(dk, -1, -2)))

    return _node(tape, _merge(_drop(probs, mask) @ vh), (q, k, v), backward)


def gather_cols(tape, x, idx):
    """Select columns ``idx`` of a 2-D ``x`` (repeats allowed); backward
    scatter-adds.  A ``(B, L)`` index gives one ``(rows, L)`` matrix per
    index row, stacked as ``(B, rows, L)``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim not in (1, 2):
        raise ShapeError(f"gather_cols: index must be 1-D or 2-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.cols):
        raise ShapeError(
            f"gather_cols: index out of range for {x.cols} columns"
        )

    def backward(g):
        if x.grad is None:
            x.grad = x.new_grad()
            x.grad.fill(0)
        kernels.scatter_add_cols(x.grad, idx, np.moveaxis(g, -2, 0))

    # x[:, idx] is (rows, L) or (rows, B, L); the rows axis moves to -2
    return _node(tape, np.moveaxis(x.values[:, idx], 0, -2), (x,), backward)


def row_affine(tape, x, scale_vec, shift_vec):
    """Per-row ``x * scale + shift`` with constant (non-learned) arrays of
    shape ``x.shape[:-1]``."""
    scale_vec = np.asarray(scale_vec, dtype=x.dtype)
    shift_vec = np.asarray(shift_vec, dtype=x.dtype)
    if scale_vec.shape != x.shape[:-1] or shift_vec.shape != x.shape[:-1]:
        raise ShapeError(
            f"row_affine: need per-row constants of shape {x.shape[:-1]}, got "
            f"{scale_vec.shape} scales / {shift_vec.shape} shifts"
        )

    def backward(g):
        x.accumulate(g * scale_vec[..., None])

    return _node(tape, x.values * scale_vec[..., None] + shift_vec[..., None],
                 (x,), backward)


def mse_loss(tape, pred, target, rows=None):
    """Mean squared error against a constant target, as a 1x1 tensor;
    ``rows`` restricts it to those rows of every matrix, a repeat counting twice."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise ShapeError(
            f"mse_loss: target {target.shape} does not match prediction {pred.shape}"
        )
    diff = pred.values - target
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or not rows.size or rows.min() < 0 or rows.max() >= pred.rows:
            raise ShapeError(f"mse_loss: rows {rows.tolist()} out of range "
                             f"for {pred.rows} rows")
        diff = diff[..., rows, :]

    def backward(g):
        grad = (2.0 * g[0, 0] / diff.size) * diff
        if rows is not None:
            grad, scattered = np.zeros_like(pred.values), grad
            np.add.at(grad, (..., rows, slice(None)), scattered)
        pred.accumulate(grad)

    return _node(tape, np.array([[np.mean(diff * diff)]], dtype=pred.dtype),
                 (pred,), backward)


def check_finite(x, stage):
    """Raise NumericError naming ``stage`` if ``x`` holds NaN or inf."""
    vals = x.values if isinstance(x, DiffTensor) else x
    if not np.isfinite(vals).all():
        raise NumericError(f"non-finite value produced at stage {stage!r}")
    return x


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckResult:
    """Outcome of a finite-difference check over named parameter groups."""

    eps: float
    tol: float
    per_param: dict = field(default_factory=dict)

    @property
    def max_rel_err(self):
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self):
        return self.max_rel_err < self.tol

    def summary(self):
        lines = [
            f"{name}: max rel err {err:.3e}"
            for name, err in sorted(self.per_param.items(), key=lambda kv: -kv[1])
        ]
        lines.append(
            f"overall max rel err {self.max_rel_err:.3e} "
            f"({'PASS' if self.passed else 'FAIL'} at tol {self.tol:g})"
        )
        return "\n".join(lines)


def gradient_check(closure, params, eps=1e-5, tol=1e-4):
    """Compare tape gradients against central finite differences.

    ``closure`` must rebuild the forward pass from the parameters' *current*
    values and return ``(loss, tape)`` with a 1x1 loss.  It has to be
    deterministic; the check runs it twice up front and refuses to proceed if
    the two losses differ bitwise.  Parameters must be float64 — float32
    differencing noise would drown the signal.

    Relative error per element is |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-6).  A non-finite analytic or numeric value is an
    error of ``inf``, so it fails at any ``tol``.
    """
    for label, value in (("eps", eps), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                f"gradient_check: {label} must be finite and positive, got {value!r}")
    named = []
    for i, p in enumerate(params):
        if p.dtype != np.float64:
            raise ValueError(
                f"gradient_check needs float64 parameters, {p.name or i} is {p.dtype}"
            )
        named.append((p.name or f"param{i}", p))

    l1, _ = closure()
    l2, _ = closure()
    if not np.array_equal(l1.values, l2.values, equal_nan=True):
        raise RuntimeError(
            "closure is not deterministic: two forward passes disagree "
            f"({l1.values[0, 0]!r} vs {l2.values[0, 0]!r}); disable dropout "
            "or fix the rng before gradient checking"
        )

    for _, p in named:
        p.zero_grad()
    loss, tape = closure()
    tape.backward(loss)

    result = GradCheckResult(eps=eps, tol=tol)
    for name, p in named:
        analytic = np.zeros_like(p.values) if p.grad is None else p.grad.copy()
        worst = 0.0
        flat = p.values.reshape(-1)
        aflat = analytic.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = closure()[0].values[0, 0]
            flat[j] = orig - eps
            fm = closure()[0].values[0, 0]
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(aflat[j]), abs(numeric), 1e-6)
            err = abs(aflat[j] - numeric) / denom
            if not (math.isfinite(aflat[j]) and math.isfinite(numeric)
                    and math.isfinite(err)):
                err = math.inf
            worst = max(worst, err)
        result.per_param[name] = worst
    for _, p in named:
        p.zero_grad()
    return result
