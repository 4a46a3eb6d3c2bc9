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


def gelu(x):
    return (0.5 * x * (1.0 + _erf(x * _INV_SQRT2))).astype(x.dtype, copy=False)


def gelu_grad(x):
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x), exact (erf) formulation
    phi = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return (cdf + x * phi).astype(x.dtype, copy=False)


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
    # in-place fused step; t is the 1-based step count
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


def scatter_add_cols(grad, idx, g):
    # grad[:, idx[j]] += g[:, j], repeats accumulating; g is shaped like grad[:, idx]
    np.add.at(grad, (slice(None), idx), g)


def mse_mae(a, b):
    d = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    return float(np.mean(d * d)), float(np.mean(np.abs(d)))
