"""Hot numeric kernels, written in plain numpy.

Kernels stay dtype-generic: float32 in, float32 out (ditto float64).  The
row kernels reduce over the last axis, so leading axes are a batch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

# Recorded in run metadata; numpy is the only kernel implementation.
ACTIVE_BACKEND = "numpy"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# elements per pass of ``adam_update``: the six chunk-sized arrays it
# touches (768 KiB in float32) stay in a core's L2 cache
ADAM_CHUNK = 1 << 15


def gelu_erf(x):
    """``erf(x / sqrt 2)``, the costly part of ``gelu``; pass it back to
    ``gelu`` and ``gelu_grad`` to evaluate it once for both."""
    return _erf(x * _INV_SQRT2)


def gelu(x, erf=None):
    if erf is None:
        erf = gelu_erf(x)
    return (0.5 * x * (1.0 + erf)).astype(x.dtype, copy=False)


def gelu_grad(x, erf=None):
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x), exact (erf) formulation;
    # the expression of ``cdf + x * phi`` evaluated into two buffers
    if erf is None:
        erf = gelu_erf(x)
    phi = -0.5 * x
    phi *= x
    np.exp(phi, out=phi)
    phi *= _INV_SQRT_2PI
    phi *= x
    cdf = 1.0 + erf
    cdf *= 0.5
    cdf += phi
    return cdf.astype(x.dtype, copy=False)


def softmax_rows(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_grad(y, g):
    # y = softmax(x) rowwise; dx = y * (g - <g, y>_row)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def row_norm_stats(x, eps):
    mu = x.mean(axis=-1)
    var = x.var(axis=-1)  # population variance, matches the biased estimator
    inv = 1.0 / np.sqrt(var + eps)
    xn = (x - mu[..., None]) * inv[..., None]
    return xn.astype(x.dtype, copy=False), mu, var


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """One bias-corrected Adam step on flat buffers, in place; ``t`` is the
    1-based step count.  It evaluates, element by element and in this order,

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    through two scratch buffers of ``ADAM_CHUNK`` elements, so a step
    allocates nothing of the buffers' size and its working set stays in cache.
    """
    c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    n = p.size
    scratch = np.empty((2, min(n, ADAM_CHUNK)), dtype=p.dtype)
    for lo in range(0, n, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, n)
        ps, gs, ms, vs = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0, : hi - lo], scratch[1, : hi - lo]
        ms *= beta1
        np.multiply(gs, 1.0 - beta1, out=a)
        ms += a
        vs *= beta2
        np.multiply(gs, gs, out=a)
        a *= 1.0 - beta2
        vs += a
        np.divide(ms, c1, out=a)
        a *= lr
        np.divide(vs, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        ps -= a


def scatter_add_cols(grad, idx, g):
    # grad[:, idx[j]] += g[:, j], repeats accumulating; g is shaped like grad[:, idx]
    np.add.at(grad, (slice(None), idx), g)


def mse_mae(a, b):
    d = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    return float(np.mean(d * d)), float(np.mean(np.abs(d)))
