"""Tape/op tests.  Every differentiable op gets a finite-difference oracle
via gradient_check; structural behaviour (accumulation, freezing, dropout
semantics, error paths) is checked directly."""

import inspect
import zlib

import numpy as np
import pytest

from tqnet import kernels, tensor
from tqnet.errors import ConfigError, ShapeError, TapeError
from tqnet.tensor import (
    DiffTensor,
    Tape,
    _merge,
    _split,
    add,
    channel_attention,
    dropout,
    gather_cols,
    gelu,
    gradient_check,
    linear,
    mse_loss,
    row_affine,
)


def param(values, name=None):
    return DiffTensor(np.asarray(values, dtype=np.float64),
                      requires_grad=True, name=name)


def scale(tape, x, c):
    """``c * x`` for a 2-D ``x``, as a ``row_affine`` node."""
    return row_affine(tape, x, np.full(x.rows, c), np.zeros(x.rows))


def run_last_node(tape, g):
    """Run the most recently recorded node's backward on the gradient ``g``."""
    backward, _ = tape._nodes.pop()
    backward(g)


# every op: a public function of ``tqnet.tensor`` whose first parameter is the tape
TAPE_OPS = sorted(
    name for name, fn in vars(tensor).items()
    if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
    and not name.startswith("_")
    and list(inspect.signature(fn).parameters)[:1] == ["tape"]
)
# op -> the finite-difference cases that run it
FD_CASES = {
    "linear": ("batched_linear",),
    "add": ("scale_add",),
    "gelu": ("gelu",),
    "dropout": ("dropout",),
    "channel_attention": ("attention_1_head_train", "attention_3_heads_eval",
                          "attention_shared_qkv"),
    "gather_cols": ("gather", "batched_gather"),
    "row_affine": ("row_affine", "batched_row_affine"),
    "mse_loss": ("mse_rows",),
}


def test_every_op_has_a_case_and_every_case_an_op():
    assert set(FD_CASES) == set(TAPE_OPS)


class TestStructure:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            DiffTensor(np.zeros(3))

    def test_matmul_shape_error_names_both(self):
        # ``linear`` is the tape's one GEMM against a weight; its error
        # names the input and the weight, 2-D or batched
        for x_shape in [(2, 3), (4, 2, 3)]:
            x, w = param(np.zeros(x_shape)), param(np.zeros((4, 5)))
            pattern = r"\(" + ", ".join(map(str, x_shape)) + r"\).*\(4, 5\)"
            with pytest.raises(ShapeError, match=pattern):
                linear(None, x, w)

    def test_backward_on_empty_tape(self):
        with pytest.raises(TapeError):
            Tape().backward(param(np.zeros((1, 1))))

    def test_gradients_accumulate_across_uses_and_tapes(self):
        p = param([[1.0, 2.0]])
        tape = Tape()
        out = add(tape, p, p)
        loss = mse_loss(tape, out, np.zeros((1, 2)))
        tape.backward(loss)
        first = p.grad.copy()
        # same forward again on a fresh tape: contributions add
        tape2 = Tape()
        loss2 = mse_loss(tape2, add(tape2, p, p), np.zeros((1, 2)))
        tape2.backward(loss2)
        np.testing.assert_allclose(p.grad, 2 * first)

    def test_backward_runs_once_per_tape(self):
        p = param([[3.0, -1.0]])
        tape = Tape()
        loss = mse_loss(tape, scale(tape, p, 2.0), np.zeros((1, 2)))
        tape.backward(loss)
        first = p.grad.copy()
        with pytest.raises(TapeError, match="backward already ran"):
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, first)

    def test_batched_linear_shares_a_2d_weight(self):
        rng = np.random.default_rng(3)
        x = DiffTensor(rng.normal(size=(4, 3, 5)))
        w = param(rng.normal(size=(5, 2)))
        tape = Tape()
        out = linear(tape, x, w)
        np.testing.assert_allclose(out.values, x.values @ w.values)
        tape.backward(mse_loss(tape, out, np.zeros(out.shape)))
        # d/dw of mean((x w)^2), summed over the batch
        expected = np.einsum("bij,bik->jk", x.values, 2 * out.values) / out.values.size
        np.testing.assert_allclose(w.grad, expected)

    def test_batched_operands_must_share_leading_shape(self):
        # channel_attention's q, k and v share one shape, split into heads
        for shapes, heads, message in [
            (((2, 3, 4), (3, 3, 4), (2, 3, 4)), 2,
             r"q \(2, 3, 4\), k \(3, 3, 4\) and v \(2, 3, 4\)"),
            (((2, 3, 4), (2, 3, 4), (3, 4)), 2, r"v \(3, 4\)"),
            (((3, 6), (3, 6), (3, 6)), 4, r"\(3, 6\).*into 4 heads"),
            (((3, 6), (3, 6), (3, 6)), 0, r"\(3, 6\).*into 0 heads"),
        ]:
            q, k, v = (param(np.zeros(shape)) for shape in shapes)
            with pytest.raises(ShapeError, match=message):
                channel_attention(None, q, k, v, heads, 1.0, 0.0)

    @pytest.mark.parametrize("rows", [[0, 3], [-1], []])
    def test_mse_loss_rejects_bad_rows(self, rows):
        p = param(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match="out of range for 3 rows"):
            mse_loss(None, p, np.zeros((2, 3, 4)), rows=rows)

    def test_frozen_leaf_gets_no_gradient(self):
        x = DiffTensor(np.ones((2, 2)))  # data, requires_grad=False
        w = param(np.eye(2))
        tape = Tape()
        loss = mse_loss(tape, linear(tape, x, w), np.zeros((2, 2)))
        tape.backward(loss)
        assert x.grad is None
        assert w.grad is not None

    def test_head_blocks_move_to_a_leading_axis_and_back(self):
        x = np.arange(2 * 3 * 8.0).reshape(2, 3, 8)
        heads = _split(x, 4)
        assert heads.shape == (4, 2, 3, 2) and np.shares_memory(heads, x)
        for h in range(4):
            np.testing.assert_array_equal(heads[h], x[..., 2 * h : 2 * h + 2])
        np.testing.assert_array_equal(_merge(heads), x)

    def test_a_node_whose_output_got_no_gradient_is_not_called(self):
        p = param([[1.0, 2.0]])
        tape = Tape()
        unused = gather_cols(tape, p, [1, 0])  # recorded, then never used
        calls = []
        tape.record(calls.append, unused)
        loss = mse_loss(tape, scale(tape, p, 2.0), np.zeros((1, 2)))
        assert len(tape) == 4
        tape.backward(loss)
        assert calls == [] and unused.grad is None
        np.testing.assert_array_equal(p.grad, [[4.0, 8.0]])

    def test_eval_path_records_nothing(self):
        p = param(np.ones((2, 2)))
        out = gelu(None, linear(None, p, p))
        assert out.grad is None and out.shape == (2, 2)


    def test_first_accumulate_copies_in_the_tensor_shape_and_dtype(self):
        t = DiffTensor(np.zeros((2, 3), dtype=np.float32))
        g = np.ones((1, 3))
        t.accumulate(g)
        assert t.grad.shape == (2, 3) and t.grad.dtype == np.float32
        g[...] = 5.0  # the tensor holds a copy, not the caller's array
        t.accumulate(np.ones((2, 3), dtype=np.float32))
        np.testing.assert_array_equal(t.grad, np.full((2, 3), 2.0))

    def test_first_accumulate_keeps_an_array_of_the_tensor_shape_and_dtype(self):
        t = DiffTensor(np.zeros((2, 3)))
        g = np.ones((2, 3))
        t.accumulate(g)
        assert t.grad is g
        row = np.ones((1, 3))  # same dtype, another shape: broadcast into a copy
        t = DiffTensor(np.zeros((2, 3)))
        t.accumulate(row)
        assert t.grad.shape == (2, 3) and not np.shares_memory(t.grad, row)
        home = np.full((2, 3), np.nan)
        t = DiffTensor(np.zeros((2, 3)))
        t.grad_home = home
        t.accumulate(g)
        assert t.grad is home and (home == 1.0).all() and (g == 1.0).all()

    def test_add_of_a_tensor_to_itself_doubles_the_gradient(self):
        x = param([[1.0, -2.0, 0.5]])
        tape = Tape()
        out = add(tape, x, x)
        g = np.array([[0.25, 3.0, -1.0]])
        out.grad = g.copy()
        tape.backward(out)  # seeds out.grad + 1
        np.testing.assert_array_equal(x.grad, 2 * (g + 1))

    def test_a_residual_input_with_a_second_gradient_leaves_its_sibling_alone(self):
        rng = np.random.default_rng(8)
        a, b = param(rng.normal(size=(3, 4))), param(rng.normal(size=(3, 4)))
        target = rng.normal(size=(3, 4))
        tape = Tape()
        u = scale(tape, a, 3.0)  # recorded first: ``a``'s second gradient comes last
        s = add(tape, a, b)
        loss = mse_loss(tape, add(tape, s, u), target)
        tape.backward(loss)
        ds = 2.0 * (a.values + b.values + 3.0 * a.values - target) / target.size
        np.testing.assert_allclose(b.grad, ds, rtol=1e-12)
        np.testing.assert_allclose(a.grad, 4.0 * ds, rtol=1e-12)

    def test_a_weight_used_twice_sums_both_gradients_into_its_home(self):
        rng = np.random.default_rng(9)
        xs = [DiffTensor(rng.normal(size=(2, 3, 4))) for _ in range(2)]
        init, target = rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 5))
        grads = []
        for home in (None, np.full((4, 5), np.nan)):
            w = param(init)
            w.grad_home = home
            tape = Tape()
            y = add(tape, linear(tape, xs[0], w), linear(tape, xs[1], w))
            tape.backward(mse_loss(tape, y, target))
            assert home is None or w.grad is home
            grads.append(w.grad)
        dy = 2.0 * (xs[0].values @ init + xs[1].values @ init - target) / target.size
        expected = sum(np.einsum("bij,bik->jk", x.values, dy) for x in xs)
        np.testing.assert_allclose(grads[0], expected, rtol=1e-12)
        np.testing.assert_array_equal(grads[1], grads[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_backward_is_bitwise_upstream_times_gelu_grad(self, dtype):
        rng = np.random.default_rng(3)
        x = DiffTensor(rng.normal(size=(2, 4, 6)).astype(dtype), requires_grad=True)
        upstream = rng.normal(size=x.shape).astype(dtype)
        tape = Tape()
        gelu(tape, x)
        run_last_node(tape, upstream.copy())
        np.testing.assert_array_equal(x.grad, upstream * kernels.gelu_grad(
            x.values, kernels.gelu_erf(x.values)))


class TestDropout:
    def test_validates_probability(self):
        x = param(np.ones((2, 2)))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                dropout(None, x, bad, np.random.default_rng(0))

    def test_eval_is_identity_object(self):
        # eval mode is a rate of zero: the identity, with no draw
        x = param(np.ones((2, 2)))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert dropout(None, x, 0.0) is x
        assert dropout(None, x, 0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_train_keeps_expected_fraction_and_mean(self):
        rng = np.random.default_rng(123)
        x = DiffTensor(np.ones((250, 400)))  # 1e5 elements
        out = dropout(None, x, 0.5, rng)
        kept = np.count_nonzero(out.values) / out.values.size
        assert 0.49 < kept < 0.51
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_backward_mask_matches_forward(self):
        rng = np.random.default_rng(5)
        x = param(np.full((10, 10), 2.0))
        tape = Tape()
        out = dropout(tape, x, 0.3, rng)
        loss = mse_loss(tape, out, np.zeros((10, 10)))
        tape.backward(loss)
        dropped = out.values == 0
        assert (x.grad[dropped] == 0).all()
        assert (x.grad[~dropped] != 0).all()


class TestGradientCheck:
    def test_linear_mse_is_tight_at_float64(self):
        rng = np.random.default_rng(0)
        x = DiffTensor(rng.normal(size=(5, 4)))
        w = param(rng.normal(size=(4, 3)), "w")
        b = param(np.zeros((1, 3)), "b")
        y = rng.normal(size=(5, 3))

        def closure():
            tape = Tape()
            return mse_loss(tape, linear(tape, x, w, b), y), tape

        res = gradient_check(closure, [w, b], eps=1e-5, tol=1e-7)
        assert res.passed, res.summary()

    # an op without a case runs as a case of its own name, which fails
    @pytest.mark.parametrize("case", list(dict.fromkeys(
        case for op in TAPE_OPS for case in FD_CASES.get(op, (op,)))))
    def test_each_op_against_central_differences(self, case):
        # a fixed seed per case: ``hash`` of a str is salted per process
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        p = param(rng.normal(size=(3, 6)), "p")
        y = rng.normal(size=(2, 3, 12))
        xs = DiffTensor(rng.normal(size=(2, 3, 3)))  # a stack of two matrices
        bias = param(rng.normal(size=(1, 6)), "bias")

        def build(tape):
            if case == "gelu":
                return gelu(tape, p)
            if case == "gather":
                idx = (3 + np.arange(6)) % 4  # reuses columns 3,0,1,2,3,0
                return gather_cols(tape, p, idx)
            if case == "row_affine":
                return row_affine(tape, p, [2.0, 0.5, -1.0], [1.0, 0.0, 3.0])
            if case == "mse_rows":
                return p
            if case == "scale_add":
                return add(tape, scale(tape, p, 1.5), p)
            if case == "dropout":  # the same mask on every call
                return dropout(tape, p, 0.3, np.random.default_rng(0))
            # two stacked matrices sharing ``p``
            if case == "batched_linear":
                return linear(tape, xs, p, bias)
            if case == "batched_gather":
                idx = (np.array([[3], [1]]) + np.arange(6)) % 4
                return gather_cols(tape, p, idx)
            if case == "batched_row_affine":
                seg = gelu(tape, gather_cols(tape, p, [[0, 1], [5, 4]]))
                return row_affine(tape, seg, [[2.0, 0.5, -1.0], [1.0, 1.5, 0.5]],
                                  np.zeros((2, 3)))
            if case == "attention_1_head_train":  # the same mask on every call
                return channel_attention(tape, p, gelu(tape, p), scale(tape, p, -2.0),
                                         1, 0.7, 0.3, np.random.default_rng(0))
            if case == "attention_3_heads_eval":  # two stacked (3, 6) matrices
                z = linear(tape, xs, p)
                return channel_attention(tape, gelu(tape, z), z, add(tape, z, z),
                                         3, 1.3, 0.0)
            if case == "attention_shared_qkv":  # one node, three gradients to p
                return channel_attention(tape, p, p, p, 3, 0.9, 0.5,
                                         np.random.default_rng(1))
            raise AssertionError(f"no finite-difference case for op {case!r}")

        def closure():
            tape = Tape()
            out = build(tape)
            t = y[:, : out.rows, : out.cols]
            t = t if out.values.ndim == 3 else t[0]
            rows = [2, 0, 2] if case == "mse_rows" else None
            return mse_loss(tape, out, t, rows=rows), tape

        params = [p, bias] if case == "batched_linear" else [p]
        res = gradient_check(closure, params, eps=1e-5, tol=1e-6)
        assert res.passed, f"{case}: {res.summary()}"

    def test_gather_scatter_adds_into_reused_columns(self):
        # L > period: columns visited twice must receive both contributions
        theta = param(np.arange(8.0).reshape(2, 4), "theta")
        idx = np.array([3, 0, 1, 2, 3, 0])
        g_out = np.random.default_rng(1).normal(size=(2, 6))
        tape = Tape()
        gather_cols(tape, theta, idx)
        run_last_node(tape, g_out.copy())
        expected = np.zeros((2, 4))
        for j, w in enumerate(idx):
            expected[:, w] += g_out[:, j]
        np.testing.assert_allclose(theta.grad, expected)

    def test_nondeterministic_closure_is_rejected(self):
        w = param(np.ones((2, 2)), "w")
        rng = np.random.default_rng(0)

        def closure():
            tape = Tape()
            x = DiffTensor(rng.normal(size=(2, 2)))
            return mse_loss(tape, linear(tape, x, w), np.zeros((2, 2))), tape

        with pytest.raises(RuntimeError, match="deterministic"):
            gradient_check(closure, [w])

    @pytest.mark.parametrize("bad", [{"eps": 0.0}, {"eps": -1e-5},
                                     {"eps": float("nan")}, {"tol": float("inf")},
                                     {"tol": 0.0}])
    def test_eps_and_tol_must_be_finite_and_positive(self, bad):
        w = param(np.ones((1, 1)), "w")
        with pytest.raises(ConfigError, match=next(iter(bad))):
            gradient_check(lambda: None, [w], **bad)

    @pytest.mark.parametrize("poison", ["analytic", "numeric", "loss"])
    def test_non_finite_values_fail_with_infinite_error(self, poison):
        rng = np.random.default_rng(2)
        x = DiffTensor(rng.normal(size=(3, 2)))
        w = param(np.ones((2, 2)), "w")

        def closure():
            tape = Tape()
            out = linear(tape, x, w)
            # "numeric": a perturbation above w[0, 0] = 1 makes the loss NaN
            bad = poison == "loss" or (poison == "numeric" and w.values[0, 0] > 1.0)
            loss = mse_loss(tape, out, np.full(out.shape, np.nan if bad else 0.0))
            if poison == "analytic":  # recorded last, so it runs first
                tape.record(lambda g: w.accumulate(np.full(w.shape, np.nan)), loss)
            return loss, tape

        res = gradient_check(closure, [w])
        assert res.per_param["w"] == np.inf
        assert not res.passed
        assert "inf" in res.summary() and "FAIL" in res.summary()

    def test_requires_float64_parameters(self):
        w = DiffTensor(np.ones((1, 1), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            gradient_check(lambda: None, [w])
