"""Reverse-mode automatic differentiation on stacks of matrices.

A deliberately small engine: every value is a float array of rank >= 2
wrapped in :class:`DiffTensor`, every differentiable operation appends one
backward closure to a :class:`Tape`, and ``Tape.backward`` replays the
closures in reverse recording order.  Ops act on the last two axes (rows and
columns); any leading axes are a batch, so one tape records a whole
minibatch.  A 2-D weight is shared by every matrix of the batch, and its
gradient is the sum over the batch.  Gradients accumulate additively, so a
parameter used in several places ends up with the sum of all contributions.

Ops take the tape as their first argument; passing ``tape=None`` runs the
same math without recording anything (cheap inference path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError, ShapeError, TapeError


class DiffTensor:
    """An array of rank >= 2 (``rows`` and ``cols`` are its last two axes)
    plus an optional, lazily allocated gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad", "name")

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

    def accumulate(self, g):
        if self.grad is None:
            # a copy, not ``g`` itself: callers pass views and shared arrays
            self.grad = np.empty_like(self.values)
            np.copyto(self.grad, g)
        else:
            self.grad += g

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
    """Ordered log of backward closures; replayed last-recorded-first, once."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, fn):
        self._nodes.append(fn)

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
            self._nodes.pop()()


def _needs(*tensors):
    return any(t.requires_grad for t in tensors)


def _mm(x, w):
    """``x @ w`` for a 2-D ``w``: one GEMM over the flattened leading axes."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _weight_grad(x, g):
    """Gradient of a 2-D ``w`` in ``x @ w``, summed over the leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def matmul(tape, a, b, transpose_b=False):
    """``a @ b`` on the last two axes; a 2-D ``b`` is shared by the batch,
    otherwise ``b`` has the same leading axes as ``a``."""
    bv = np.swapaxes(b.values, -1, -2) if transpose_b else b.values
    shared = bv.ndim == 2
    if a.cols != bv.shape[-2] or not (shared or bv.shape[:-2] == a.shape[:-2]):
        raise ShapeError(
            f"matmul: shapes do not match, {a.shape} @ "
            f"{b.shape}{'^T' if transpose_b else ''}"
        )
    out = DiffTensor(_mm(a.values, bv) if shared else a.values @ bv,
                     requires_grad=_needs(a, b))
    if tape is not None and out.requires_grad:
        av = a.values

        def backward():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                bt = np.swapaxes(bv, -1, -2)
                a.accumulate(_mm(g, bt) if shared else g @ bt)
            if b.requires_grad:
                gb = _weight_grad(av, g) if shared else np.swapaxes(av, -1, -2) @ g
                b.accumulate(np.swapaxes(gb, -1, -2) if transpose_b else gb)

        tape.record(backward)
    return out


def linear(tape, x, w, bias=None):
    """x @ w + bias for a 2-D ``w``, bias broadcast across rows (shape 1 x cols)."""
    if x.cols != w.rows:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    vals = _mm(x.values, w.values)
    if bias is not None:
        if bias.shape != (1, w.cols):
            raise ShapeError(
                f"linear: bias must be (1, {w.cols}), got {bias.shape}"
            )
        vals = vals + bias.values
    out = DiffTensor(
        vals, requires_grad=_needs(x, w) or (bias is not None and bias.requires_grad)
    )
    if tape is not None and out.requires_grad:
        xv, wv = x.values, w.values

        def backward():
            g = out.grad
            if g is None:
                return
            if x.requires_grad:
                x.accumulate(_mm(g, wv.T))
            if w.requires_grad:
                w.accumulate(_weight_grad(xv, g))
            if bias is not None and bias.requires_grad:
                bias.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0, keepdims=True))

        tape.record(backward)
    return out


def add(tape, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
    out = DiffTensor(a.values + b.values, requires_grad=_needs(a, b))
    if tape is not None and out.requires_grad:

        def backward():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                a.accumulate(g)
            if b.requires_grad:
                b.accumulate(g)

        tape.record(backward)
    return out


def scale(tape, x, c):
    c = float(c)
    out = DiffTensor(x.values * c, requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(out.grad * c)

        tape.record(backward)
    return out


def softmax_rows(tape, x):
    """Row-wise softmax, max-shifted for stability; rows sum to one."""
    y = kernels.softmax_rows(x.values)
    out = DiffTensor(y, requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(kernels.softmax_rows_grad(y, out.grad))

        tape.record(backward)
    return out


def gelu(tape, x):
    """Exact (erf-based) gaussian error linear unit; the backward reuses the
    forward's ``erf``."""
    erf = kernels.gelu_erf(x.values)
    out = DiffTensor(kernels.gelu(x.values, erf), requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                grad = kernels.gelu_grad(x.values, erf)
                grad *= out.grad
                x.accumulate(grad)

        tape.record(backward)
    return out


def dropout(tape, x, p, mode, rng=None):
    """Inverted dropout: train-mode keeps with prob 1-p and rescales by 1/(1-p).

    Eval mode (or p == 0) is the identity and consumes no randomness.
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout with p > 0 needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(
        1.0 - p, dtype=x.dtype
    )
    out = DiffTensor(x.values * keep, requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(out.grad * keep)

        tape.record(backward)
    return out


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


def split_heads(tape, x, heads):
    """Cut the last axis into ``heads`` equal column blocks and stack them
    on a new leading axis: ``(..., heads * d)`` -> ``(heads, ..., d)``."""
    if heads < 1 or x.cols % heads:
        raise ShapeError(f"split_heads: {x.cols} columns do not split into "
                         f"{heads} heads")
    out = DiffTensor(_split(x.values, heads), requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(_merge(out.grad))

        tape.record(backward)
    return out


def merge_heads(tape, x):
    """Inverse of ``split_heads``: ``(heads, ..., d)`` -> ``(..., heads * d)``."""
    if x.values.ndim < 3:
        raise ShapeError(f"merge_heads needs a leading heads axis, got {x.shape}")
    heads = x.shape[0]
    out = DiffTensor(_merge(x.values), requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(_split(out.grad, heads))

        tape.record(backward)
    return out


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
    # x[:, idx] is (rows, L) or (rows, B, L); the rows axis moves to -2
    vals = np.moveaxis(x.values[:, idx], 0, -2)
    out = DiffTensor(vals, requires_grad=x.requires_grad)
    if tape is not None and out.requires_grad:

        def backward():
            g = out.grad
            if g is None:
                return
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
            kernels.scatter_add_cols(x.grad, idx, np.moveaxis(g, -2, 0))

        tape.record(backward)
    return out


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
    out = DiffTensor(
        x.values * scale_vec[..., None] + shift_vec[..., None],
        requires_grad=x.requires_grad,
    )
    if tape is not None and out.requires_grad:

        def backward():
            if out.grad is not None:
                x.accumulate(out.grad * scale_vec[..., None])

        tape.record(backward)
    return out


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
    out = DiffTensor(
        np.array([[np.mean(diff * diff)]], dtype=pred.dtype),
        requires_grad=pred.requires_grad,
    )
    if tape is not None and out.requires_grad:
        n = diff.size

        def backward():
            g = out.grad
            if g is None:
                return
            grad = (2.0 * g[0, 0] / n) * diff
            if rows is not None:
                grad, scattered = np.zeros_like(pred.values), grad
                np.add.at(grad, (..., rows, slice(None)), scattered)
            pred.accumulate(grad)

        tape.record(backward)
    return out


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
    frozen: tuple = ()

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


def gradient_check(closure, params, eps=1e-5, tol=1e-4, rel_floor=1e-6):
    """Compare tape gradients against central finite differences.

    ``closure`` must rebuild the forward pass from the parameters' *current*
    values and return ``(loss, tape)`` with a 1x1 loss.  It has to be
    deterministic; the check runs it twice up front and refuses to proceed if
    the two losses differ bitwise.  Parameters must be float64 — float32
    differencing noise would drown the signal.

    Relative error per element is |analytic - numeric| / max(|analytic|,
    |numeric|, rel_floor).  Parameters with ``requires_grad=False`` are
    reported as frozen (gradient identically zero) and not differenced.
    A non-finite analytic or numeric value is an error of ``inf``, so it
    fails at any ``tol``.
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
    frozen = []
    for name, p in named:
        if not p.requires_grad:
            if p.grad is not None and np.any(p.grad):
                raise RuntimeError(f"frozen parameter {name} received gradient")
            frozen.append(name)
            continue
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
            denom = max(abs(aflat[j]), abs(numeric), rel_floor)
            err = abs(aflat[j] - numeric) / denom
            if not (math.isfinite(aflat[j]) and math.isfinite(numeric)
                    and math.isfinite(err)):
                err = math.inf
            worst = max(worst, err)
        result.per_param[name] = worst
    result.frozen = tuple(frozen)
    for _, p in named:
        p.zero_grad()
    return result
