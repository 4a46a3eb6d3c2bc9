"""Hot numeric kernels, written in plain numpy.

Kernels stay dtype-generic: float32 in, float32 out (ditto float64), and
``erf`` does its arithmetic in the input's dtype too.  The row kernels reduce
over the last axis, so leading axes are a batch.
"""

from __future__ import annotations

import math

import numpy as np

# Recorded in run metadata; numpy is the only kernel implementation.
ACTIVE_BACKEND = "numpy"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# elements per pass of ``adam_update``: the six chunk-sized arrays it
# touches (768 KiB in float32) stay in a core's L2 cache
ADAM_CHUNK = 1 << 15

# Cephes (ndtr.c) rational approximations, highest power first: erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 < x < 8.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x, coefs):
    # coefs[0] x^n + ... + coefs[n] by Horner's rule, in x's dtype
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def erf(x):
    """The error function of a float array, elementwise, in its dtype.

    The cephes algorithm that ``scipy.special.erf`` runs: measured within
    3 ulp of ``math.erf`` in float64 (1 ulp of scipy), and within 2 ulp of
    the correctly rounded float32 value.  ``erf(±0) = ±0``, ``erf(±inf) =
    ±1``, and NaN stays NaN.
    """
    shape = np.shape(x)
    x = np.reshape(x, -1)  # C order: a view, or a copy of a strided input
    # the |x| <= 1 rational on every element; the clip keeps it finite elsewhere
    z = np.clip(x, -1.0, 1.0)
    z2 = z * z
    out = _polevl(z2, _ERF_T)
    out *= z
    out /= _polevl(z2, _ERF_U)
    # 1 - erfc(|x|), signed, only where |x| > 1: a small share of GELU inputs
    idx = np.flatnonzero(np.abs(x) > 1.0)
    if idx.size:
        xs = x[idx]
        a = np.minimum(np.abs(xs), 8.0)  # erfc(8) < 2e-29: 1 - erfc is 1 beyond
        erfc = -a * a
        np.exp(erfc, out=erfc)
        erfc *= _polevl(a, _ERFC_P)
        erfc /= _polevl(a, _ERFC_Q)
        out[idx] = np.copysign(1.0 - erfc, xs)
    return out.reshape(shape)


def gelu_erf(x):
    """``erf(x / sqrt 2)``, the costly part of ``gelu``; ``gelu`` and
    ``gelu_grad`` take it as an argument, so it is evaluated once for both."""
    return erf(x * _INV_SQRT2)


def gelu(x, erf):
    return (0.5 * x * (1.0 + erf)).astype(x.dtype, copy=False)


def gelu_grad(x, erf):
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x), exact (erf) formulation;
    # the expression of ``cdf + x * phi`` evaluated into two buffers
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
    e = x - x.max(axis=-1, keepdims=True)  # the one buffer it allocates
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_rows_grad(y, g):
    # y = softmax(x) rowwise; dx = y * (g - <g, y>_row)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def row_norm_stats(x, eps):
    """Row mean, population variance and the standardized rows.

    The arithmetic of ``x.mean(axis=-1)`` and ``x.var(axis=-1)``, bit for
    bit (a sum, then a division by the count as an ``intp``), with the mean
    computed once and one deviation ``x - mean`` serving the variance and
    the output.
    """
    n = np.intp(x.shape[-1])
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(mu, n, out=mu, casting="unsafe")
    dev = x - mu
    var = np.add.reduce(np.square(dev), axis=-1, keepdims=True)
    np.true_divide(var, n, out=var, casting="unsafe")
    dev *= 1.0 / np.sqrt(var + eps)
    return dev.astype(x.dtype, copy=False), mu[..., 0], var[..., 0]


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
    # grad[:, idx[j]] += g[:, j], repeats accumulating; g is shaped like
    # grad[:, idx].  One 1-D add.at over the flat positions c * cols + idx
    # makes the additions of the 2-D form in its order, several times faster.
    rows, cols = grad.shape
    flat = np.arange(0, rows * cols, cols)[:, None] + np.reshape(idx, (1, -1))
    target = grad.reshape(-1)  # a view of a C-contiguous grad, else a copy
    np.add.at(target, flat.reshape(-1), np.reshape(g, -1))
    if not grad.flags.c_contiguous:
        grad[...] = target.reshape(grad.shape)


def mse_mae(a, b):
    d = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    return float(np.mean(d * d)), float(np.mean(np.abs(d)))
