"""Kernel-level checks: frozen scalar values and finite-difference oracles
for the gradient kernels."""

import math

import numpy as np
import pytest

from tqnet import kernels

RNG = np.random.default_rng(42)


def _gelu(x):
    return kernels.gelu(x, kernels.gelu_erf(x))


def test_gelu_frozen_points():
    x = np.array([[0.0, 1.0, -1.0, 10.0, -10.0]])
    y = _gelu(x)
    assert y[0, 0] == 0.0
    assert y[0, 1] == pytest.approx(0.8413447461, abs=1e-9)
    assert y[0, 2] == pytest.approx(-0.1586552539, abs=1e-9)
    assert y[0, 3] == pytest.approx(10.0, abs=1e-6)
    assert abs(y[0, 4]) < 1e-9


def test_gelu_grad_matches_central_difference():
    x = RNG.normal(size=(4, 7))
    eps = 1e-6
    numeric = (_gelu(x + eps) - _gelu(x - eps)) / (2 * eps)
    np.testing.assert_allclose(kernels.gelu_grad(x, kernels.gelu_erf(x)), numeric,
                               atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_with_a_cached_erf_is_bitwise_the_plain_expression(dtype):
    x = (RNG.normal(size=(3, 5, 7)) * 3).astype(dtype)
    erf = kernels.gelu_erf(x)
    # the expressions as written before the erf was shared
    phi = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    cdf = 0.5 * (1.0 + erf)
    grad = kernels.gelu_grad(x, erf)
    assert grad.dtype == dtype
    np.testing.assert_array_equal(grad, cdf + x * phi)
    y = kernels.gelu(x, erf)
    assert y.dtype == dtype
    np.testing.assert_array_equal(y, 0.5 * x * (1.0 + erf))


def _ulps(got, ref):
    """|got - ref| in units of the spacing at ``ref`` in ``got``'s dtype."""
    ref = ref.astype(got.dtype)
    return np.abs(got.astype(np.float64) - ref) / np.spacing(np.abs(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_within_3_ulp_of_math_erf(dtype):
    tiny = np.logspace(-30, 0, 3001)
    x = np.concatenate([np.linspace(-7.0, 7.0, 140001), tiny, -tiny]).astype(dtype)
    got = kernels.erf(x)
    assert got.dtype == dtype
    # math.erf rounded to the dtype: the correctly rounded value, give or take 1 ulp
    ref = np.array([math.erf(v) for v in x.tolist()])
    assert _ulps(got, ref).max() <= 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_special_values_and_the_branch_point(dtype):
    big = np.finfo(dtype).max
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y = kernels.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, big, -big],
                                 dtype=dtype))
    np.testing.assert_array_equal(y, [0.0, -0.0, 1.0, -1.0, np.nan, 1.0, -1.0])
    assert np.signbit(y[1]) and not np.signbit(y[0])
    # |x| = 1 exactly takes the |x| <= 1 rational; its neighbours straddle both
    one = np.array(1.0, dtype=dtype)
    x = np.array([np.nextafter(one, 0), one, np.nextafter(one, 2)], dtype=dtype)
    x = np.concatenate([x, -x])
    ref = np.array([math.erf(v) for v in x.tolist()])
    assert _ulps(kernels.erf(x), ref).max() <= 3
    assert kernels.erf(np.empty((0, 3), dtype)).shape == (0, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_of_a_strided_view_equals_its_contiguous_copy(dtype):
    x = (RNG.normal(size=(2, 3, 4, 5)) * 2).astype(dtype)  # about 60% have |x| > 1
    view = x.transpose(2, 0, 3, 1)
    got = kernels.erf(view)
    assert got.shape == view.shape and got.dtype == dtype
    np.testing.assert_array_equal(got, kernels.erf(np.ascontiguousarray(view)))


def test_erf_float64_within_1_ulp_of_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-7.0, 7.0, 140001)
    assert _ulps(kernels.erf(x), special.erf(x)).max() <= 1


def test_softmax_rows_frozen_and_stable():
    y = kernels.softmax_rows(np.array([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(y, [[2 / 3, 1 / 3]], atol=1e-12)
    big = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
    np.testing.assert_allclose(big, [[1.0, 0.0]], atol=1e-300)
    rows = kernels.softmax_rows(RNG.normal(size=(5, 9)))
    np.testing.assert_allclose(rows.sum(axis=1), np.ones(5), atol=1e-12)
    assert (rows > 0).all()


def test_softmax_grad_matches_central_difference():
    x = RNG.normal(size=(3, 5))
    g = RNG.normal(size=(3, 5))
    eps = 1e-6
    numeric = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            fp = (kernels.softmax_rows(xp) * g).sum()
            fm = (kernels.softmax_rows(xm) * g).sum()
            numeric[i, j] = (fp - fm) / (2 * eps)
    analytic = kernels.softmax_rows_grad(kernels.softmax_rows(x), g)
    np.testing.assert_allclose(analytic, numeric, atol=1e-8)


def test_row_norm_stats_frozen_example():
    xn, mu, var = kernels.row_norm_stats(np.array([[1.0, 2.0, 3.0]]), 0.0)
    assert mu[0] == pytest.approx(2.0)
    assert var[0] == pytest.approx(2.0 / 3.0)
    np.testing.assert_allclose(
        xn, [[-1.2247448714, 0.0, 1.2247448714]], atol=1e-9
    )


def test_row_norm_round_trip_with_eps():
    x = RNG.normal(size=(6, 40), scale=3.0) + RNG.normal(size=(6, 1))
    eps = 1e-5
    xn, mu, var = kernels.row_norm_stats(x, eps)
    back = xn * np.sqrt(var + eps)[:, None] + mu[:, None]
    np.testing.assert_allclose(back, x, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(32, 8, 12), (32, 7, 96), (3, 5, 1), (5, 13),
                                   (4, 2, 321, 321)])
def test_row_norm_stats_bitwise_equal_to_mean_and_var(dtype, shape):
    rng = np.random.default_rng(7)
    x = (rng.normal(size=shape) * 3.0 + rng.normal(size=shape[:-1] + (1,))).astype(dtype)
    eps = 1e-5
    # the expression the kernel replaces, which computes the mean twice
    mu = x.mean(axis=-1)
    var = x.var(axis=-1)
    xn = ((x - mu[..., None]) * (1.0 / np.sqrt(var + eps))[..., None]).astype(dtype)
    for got, want in zip(kernels.row_norm_stats(x, eps), (xn, mu, var)):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_adam_first_step_is_signed_lr():
    p = np.zeros(4)
    g = np.array([0.3, -0.2, 1.7, -0.001])
    m = np.zeros(4)
    v = np.zeros(4)
    kernels.adam_update(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 1)
    np.testing.assert_allclose(p, -1e-3 * np.sign(g), atol=1e-6)


def test_adam_zero_grad_never_moves_fresh_state():
    p = np.full(3, 0.5)
    z = np.zeros(3)
    kernels.adam_update(p, z, z.copy(), z.copy(), 1e-2, 0.9, 0.999, 1e-8, 1)
    np.testing.assert_array_equal(p, np.full(3, 0.5))


def test_scatter_add_cols_accumulates_repeats():
    grad = np.zeros((2, 4))
    idx = np.array([3, 0, 1, 2, 3, 0], dtype=np.int64)  # period-4 walk from t=3
    g = RNG.normal(size=(2, 6))
    kernels.scatter_add_cols(grad, idx, g)
    expected = np.zeros((2, 4))
    for j, w in enumerate(idx):
        expected[:, w] += g[:, j]
    np.testing.assert_allclose(grad, expected, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("idx_shape", [(40,), (5, 12)], ids=["1-D", "2-D"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_scatter_add_cols_adds_in_index_order_bitwise(dtype, idx_shape, layout):
    rng = np.random.default_rng(7)
    rows, cols = 3, 6  # far fewer columns than indices: many repeats
    base = rng.normal(size=(rows, cols)).astype(dtype)
    idx = rng.integers(0, cols, size=idx_shape)
    g = rng.normal(scale=1e3, size=(rows, *idx_shape)).astype(dtype)
    expected = base.copy()
    for c in range(rows):
        for j, w in zip(np.ndindex(idx_shape), idx.reshape(-1)):
            expected[c, w] += g[(c, *j)]
    grad = base.copy() if layout == "contiguous" else base.T.copy().T
    kernels.scatter_add_cols(grad, idx, g)
    assert grad.dtype == dtype
    np.testing.assert_array_equal(grad, expected)


def test_mse_mae_frozen_example():
    mse, mae = kernels.mse_mae(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]))
    assert mse == pytest.approx(2.5)
    assert mae == pytest.approx(1.5)
