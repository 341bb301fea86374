"""Tensor ops: forward values, finite-difference gradients, the library's
exported surface, and the AdamW optimizer's closed-form behavior."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from meshseg import autodiff as ad
from meshseg.autodiff import ShapeMismatchError, Tensor
from meshseg.optim import AdamW

from conftest import finite_difference
from dense_model import (
    _linear as oracle_linear,
    concat_last,
    masked_softmax,
    reduce_mean,
    relu,
    slice_last,
    transpose,
)

# ops the dense oracle (tests/dense_model.py) adds for its unfused linear
# layers and its per-head attention
ORACLE_OPS = {"relu", "transpose", "concat_last", "slice_last", "reduce_mean", "masked_softmax"}


def check_grad(build, *arrays, tol=1e-6):
    """Compare backward gradients of a scalar graph against central
    differences for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    ad.backward(loss)
    for t, a in zip(tensors, arrays):
        fd = finite_difference(lambda: float(build(*tensors).data), a)
        scale_ref = max(1.0, np.abs(fd).max())
        assert np.abs(t.grad - fd).max() / scale_ref <= tol, (
            f"gradient mismatch: max err {np.abs(t.grad - fd).max()}"
        )


class TestForwardValues:
    def test_matmul_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(m, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, m.data)

    def test_relu_values_and_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        out = relu(x)
        np.testing.assert_array_equal(out.data, [0.0, 2.0])
        ad.backward(ad.reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_mean_over_axis(self):
        out = reduce_mean(Tensor(np.array([[1.0, 3.0]])), axis=1)
        np.testing.assert_array_equal(out.data, [2.0])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeMismatchError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_sum_x_squared_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        assert unused.grad is None

    def test_embedding_lookup_forward_and_scatter(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.embedding_lookup(table, [0, 0, 1])
        np.testing.assert_array_equal(out.data, [[0, 1], [0, 1], [2, 3]])
        ad.backward(ad.reduce_sum(out))
        np.testing.assert_array_equal(table.grad, [[2, 2], [1, 1], [0, 0]])

    def test_embedding_id_overflow(self):
        with pytest.raises(IndexError):
            ad.embedding_lookup(Tensor(np.zeros((2, 3))), [0, 2])

    def test_gather_rows(self):
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.gather_rows(m, [1, 0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", [False, True])
    def test_matches_unfused_oracle_bit_for_bit(self, rng, dtype, activation):
        """The fused op gives the values and the three gradients of the
        oracle's matmul, bias add and ReLU nodes bit for bit, also where
        the ReLU input is exactly zero."""
        x = rng.normal(size=(6, 4)).astype(dtype)
        w = rng.normal(size=(4, 5)).astype(dtype)
        b = rng.normal(size=5).astype(dtype)
        x[0] = 0.0
        b[:2] = 0.0
        assert ((x @ w + b) == 0).any()
        weight = Tensor(rng.normal(size=(6, 5)).astype(dtype))
        runs = []
        for layer in (
            lambda p, xt: ad.linear(xt, p["l.w"], p["l.b"], relu=activation),
            lambda p, xt: oracle_linear(p, "l", xt, activation=activation),
        ):
            p = {"l.w": Tensor(w.copy(), requires_grad=True),
                 "l.b": Tensor(b.copy(), requires_grad=True)}
            xt = Tensor(x.copy(), requires_grad=True)
            out = layer(p, xt)
            ad.backward(ad.reduce_sum(ad.mul(out, weight)))
            runs.append((out.data, xt.grad, p["l.w"].grad, p["l.b"].grad))
        for fused, unfused in zip(*runs):
            assert fused.dtype == unfused.dtype == dtype
            np.testing.assert_array_equal(fused, unfused)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


class TestMaskedSoftmax:
    def test_symmetric_with_masked_middle(self):
        out = masked_softmax(
            Tensor(np.zeros((1, 3))), np.array([[0.0, -np.inf, 0.0]])
        )
        np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]])

    def test_all_masked_row_is_exact_zeros(self):
        out = masked_softmax(
            Tensor(np.ones((1, 2))), np.full((1, 2), -np.inf)
        )
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_sigmoid_identity(self):
        out = masked_softmax(Tensor(np.array([[1.0, 2.0]])), np.zeros((1, 2)))
        e = np.e
        np.testing.assert_allclose(out.data, [[1 / (1 + e), e / (1 + e)]], atol=1e-12)

    def test_rows_sum_to_one_and_masked_exact_zero(self, rng):
        scores = rng.normal(size=(8, 8))
        mask = np.where(rng.random((8, 8)) < 0.4, -np.inf, 0.0)
        mask[:, 0] = 0.0  # keep every row at least one allowed column
        out = masked_softmax(Tensor(scores), mask).data
        assert (out >= 0).all()
        np.testing.assert_array_equal(out[np.isinf(mask)], 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_all_masked_backward_is_zero(self):
        x = Tensor(np.ones((1, 2)), requires_grad=True)
        out = masked_softmax(x, np.full((1, 2), -np.inf))
        ad.backward(ad.reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_log_count_bias_equals_repeated_keys(self, rng):
        # attending over a key/value row repeated n times equals attending
        # over one copy whose score carries a bias of log n
        counts = np.array([3, 1, 5])
        keys = rng.normal(size=(3, 4))
        values = rng.normal(size=(3, 2))
        queries = rng.normal(size=(2, 4))
        repeated = np.repeat(np.arange(3), counts)
        wide = masked_softmax(
            Tensor(queries @ keys[repeated].T), np.zeros((2, counts.sum()))
        ).data @ values[repeated]
        bias = np.tile(np.log(counts), (2, 1))
        narrow = masked_softmax(Tensor(queries @ keys.T), bias).data @ values
        np.testing.assert_allclose(narrow, wide, atol=1e-14)

    def test_extreme_scores_stable(self):
        out = masked_softmax(Tensor(np.array([[1000.0, 0.0]])), np.zeros((1, 2)))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)


def per_head_attention(q, k, v, bias, num_heads, scale):
    """Plain numpy reference: one softmax(scale Q_h K_h^T + bias) V_h per
    head, heads side by side."""
    outs = []
    for cols in np.split(np.arange(q.shape[1]), num_heads):
        z = scale * q[:, cols] @ k[:, cols].T + bias
        e = np.exp(z - z.max(axis=1, keepdims=True))
        outs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.hstack(outs)


class TestAttention:
    def test_matches_per_head_reference(self, rng):
        q, k, v = rng.normal(size=(3, 6)), rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        bias = np.log(rng.uniform(0.5, 2.0, size=(3, 5)))
        bias[1, 3] = -np.inf
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), bias, 3, 0.4).data
        np.testing.assert_allclose(out, per_head_attention(q, k, v, bias, 3, 0.4), atol=1e-14)

    def test_blocked_row_is_zero(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        bias = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
        out = ad.attention(x, x, x, bias, 2, 1.0).data
        np.testing.assert_array_equal(out[1], 0.0)

    def test_neighbor_table_equals_dense_bias(self, rng):
        # the table lists a subset of keys per row; the dense bias blocks
        # the others. Empty slots point anywhere and are ignored.
        q, k, v = rng.normal(size=(4, 6)), rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        table = np.array([[0, 1, 4], [1, 2, 0], [3, 3, 3], [4, 0, 2]])
        slot_bias = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, -np.inf],
                              [0.0, -np.inf, -np.inf], [0.0, -1.0, 0.0]])
        dense = np.full((4, 5), -np.inf)
        for r, c in zip(*np.nonzero(np.isfinite(slot_bias))):
            dense[r, table[r, c]] = slot_bias[r, c]
        out = ad.neighbor_attention(Tensor(q), Tensor(k), Tensor(v), table, slot_bias, 2, 0.4)
        np.testing.assert_allclose(out.data, per_head_attention(q, k, v, dense, 2, 0.4),
                                   atol=1e-14)

    def test_repeated_key_gradients_add_up(self, rng):
        # a key listed twice in one row weighs as its log 2 bias and
        # receives the gradient of both slots
        q, k, v = rng.normal(size=(1, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        kt, vt = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
        twice = ad.neighbor_attention(Tensor(q), kt, vt, [[0, 0, 1]], np.zeros((1, 3)), 1, 1.0)
        ad.backward(ad.reduce_sum(twice))
        k2, v2 = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
        once = ad.neighbor_attention(Tensor(q), k2, v2, [[0, 1]], [[np.log(2.0), 0.0]], 1, 1.0)
        ad.backward(ad.reduce_sum(once))
        np.testing.assert_allclose(twice.data, once.data, atol=1e-14)
        np.testing.assert_allclose(kt.grad, k2.grad, atol=1e-14)
        np.testing.assert_allclose(vt.grad, v2.grad, atol=1e-14)

    def test_neighbor_index_out_of_range(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(IndexError):
            ad.neighbor_attention(x, x, x, [[0], [2]], np.zeros((2, 1)), 1, 1.0)

    def test_heads_must_divide_width(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ShapeMismatchError):
            ad.attention(x, x, x, np.zeros((2, 2)), 2, 1.0)


class TestLayerNorm:
    def test_constant_row_zero(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-10)

    def test_two_point_row(self):
        x = Tensor(np.array([[-1.0, 1.0]]))
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [[-expected, expected]], atol=1e-12)

    def test_beta_shift(self):
        x = Tensor(np.full((1, 3), 2.0))
        out = ad.layer_norm(x, Tensor(np.ones(3)), Tensor(np.full(3, 5.0)))
        np.testing.assert_allclose(out.data, 5.0, atol=1e-10)


class TestDropout:
    def test_p_zero_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert ad.dropout(x, 0.0, training=True, rng=rng) is x

    def test_eval_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert ad.dropout(x, 0.5, training=False) is x

    def test_montecarlo_mean(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_requires_rng_in_training(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 0.5, training=True)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, training=True)


class TestFiniteDifference:
    """Central-difference checks for every differentiable primitive."""

    def test_matmul(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        check_grad(lambda x, y: ad.reduce_sum(ad.mul(m := ad.matmul(x, y), m)), a, b)

    def test_add_and_bias(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        check_grad(lambda x, y: ad.reduce_sum(ad.mul(s := ad.add(x, y), s)), a, b)

    def test_mul(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        check_grad(lambda x, y: ad.reduce_sum(ad.mul(ad.mul(x, y), x)), a, b)

    def test_scale_relu_transpose(self, rng):
        a = rng.normal(size=(4, 3))
        check_grad(
            lambda x: ad.reduce_sum(relu(ad.scale(transpose(x), 2.5))), a
        )

    def test_concat_and_slice(self, rng):
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))

        def build(x, y):
            cat = concat_last([x, y])
            piece = slice_last(cat, 1, 4)
            return ad.reduce_sum(ad.mul(piece, piece))

        check_grad(build, a, b)

    def test_reduce_ops(self, rng):
        a = rng.normal(size=(3, 5))
        check_grad(lambda x: ad.reduce_sum(ad.mul(m := reduce_mean(x, axis=1), m)), a)
        check_grad(lambda x: ad.reduce_sum(ad.mul(s := ad.reduce_sum(x, axis=0), s)), a)

    def test_embedding_lookup(self, rng):
        table = rng.normal(size=(5, 3))
        ids = np.array([0, 2, 2, 4])
        check_grad(
            lambda t: ad.reduce_sum(
                ad.mul(e := ad.embedding_lookup(t, ids), e)
            ),
            table,
        )

    def test_masked_softmax(self, rng):
        scores = rng.normal(size=(4, 4))
        mask = np.where(rng.random((4, 4)) < 0.3, -np.inf, 0.0)
        mask[:, 0] = 0.0
        weight = rng.normal(size=(4, 4))
        check_grad(
            lambda x: ad.reduce_sum(ad.mul(masked_softmax(x, mask), Tensor(weight))),
            scores,
        )

    def test_attention(self, rng):
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        bias = np.where(rng.random((3, 4)) < 0.3, -np.inf, 0.0)
        bias[:, 0] = 0.5
        w = rng.normal(size=(3, 4))
        check_grad(
            lambda a, b, c: ad.reduce_sum(ad.mul(ad.attention(a, b, c, bias, 2, 0.8), Tensor(w))),
            q, k, v,
        )

    def test_neighbor_attention(self, rng):
        q, k, v = rng.normal(size=(4, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        table = np.array([[0, 1, 2], [1, 0, 0], [2, 2, 1], [0, 1, 1]])
        slot_bias = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, -np.inf],
                              [0.0, 0.0, 0.0], [0.0, -np.inf, -np.inf]])
        w = rng.normal(size=(4, 4))
        check_grad(
            lambda a, b, c: ad.reduce_sum(ad.mul(
                ad.neighbor_attention(a, b, c, table, slot_bias, 2, 0.8), Tensor(w))),
            q, k, v,
        )

    def test_log_softmax_and_gather(self, rng):
        scores = rng.normal(size=(5, 3))
        cols = rng.integers(0, 3, size=5)
        w = rng.normal(size=5)
        check_grad(
            lambda x: ad.reduce_sum(
                ad.mul(ad.gather_rows(ad.log_softmax(x), cols), Tensor(w))
            ),
            scores,
        )

    def test_layer_norm_all_inputs(self, rng):
        x, g, b = rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=6)
        check_grad(
            lambda xx, gg, bb: ad.reduce_sum(
                ad.mul(ln := ad.layer_norm(xx, gg, bb), ln)
            ),
            x, g, b,
            tol=1e-5,
        )

    def test_composite_relu_linear(self, rng):
        # f(x) = sum(relu(W x)) vs central differences
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 2))
        check_grad(lambda ww, xx: ad.reduce_sum(relu(ad.matmul(ww, xx))), w, x)

    def test_randomized_shapes_all_ops(self, rng):
        """Spec property: randomized shape sweep, max rel err <= 1e-4."""
        for _ in range(25):
            rows = int(rng.integers(1, 6))
            inner = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            a = rng.normal(size=(rows, inner))
            b = rng.normal(size=(inner, cols))
            g = rng.normal(size=cols)
            check_grad(
                lambda x, y, gg: ad.reduce_sum(
                    relu(ad.add(ad.matmul(x, y), gg))
                ),
                a, b, g,
                tol=1e-4,
            )


def test_library_exports_only_what_the_pipeline_calls():
    """Every public autodiff function is exported and called as ``ad.<op>(``
    by another module of the package, and no package module imports from
    the test suite, whose oracles must stay out of the library."""
    package = Path(ad.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    public = {
        name for name, obj in vars(ad).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == ad.__name__
    }
    assert public == set(ad.__all__)
    for op in set(ad.__all__) - {"Tensor", "ShapeMismatchError"}:
        callers = [name for name, text in sources.items()
                   if name != "autodiff.py" and re.search(rf"\bad\.{op}\(", text)]
        assert callers, f"autodiff.{op} is exported but no module of the package calls it"
    test_modules = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            for module in imported:
                assert module.split(".")[0] not in test_modules, f"{name} imports {module}"


class TestBackwardMechanics:
    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        for _ in range(2):
            ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.scale(x, 3.0)
        loss = ad.reduce_sum(ad.add(ad.mul(y, y), y))  # 9x^2 + 3x
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [18 * 2.0 + 3.0])

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.scale(x, 3.0)
        z = ad.mul(y, y)
        loss = ad.reduce_sum(z)
        ad.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [36.0])  # d(9x^2)/dx at x = 2

    def test_backward_fns_leave_read_only_gradient_untouched(self, rng):
        """backward() hands one gradient array to several parents without
        copying, so no op's backward may write into the gradient it gets."""
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        bias = np.zeros((3, 5))
        bias[0, 2] = -np.inf
        ops = {
            "matmul": lambda a: ad.matmul(a, transpose(a)),
            "add": lambda a: ad.add(a, a),
            "add bias": lambda a: ad.add(a, Tensor(y[0], requires_grad=True)),
            "mul": lambda a: ad.mul(a, a),
            "scale": lambda a: ad.scale(a, 2.0),
            "linear": lambda a: ad.linear(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True)),
            "linear relu": lambda a: ad.linear(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True), relu=True),
            "relu": relu,
            "transpose": transpose,
            "concat_last": lambda a: concat_last([a, a]),
            "slice_last": lambda a: slice_last(a, 1, 3),
            "reduce_sum": ad.reduce_sum,
            "reduce_sum axis": lambda a: ad.reduce_sum(a, axis=0),
            "reduce_mean": lambda a: reduce_mean(a, axis=1),
            "embedding_lookup": lambda a: ad.embedding_lookup(a, [0, 2, 2]),
            "masked_softmax": lambda a: masked_softmax(a, np.where(x > 1.0, -np.inf, 0.0)),
            "attention": lambda a: ad.attention(
                a, Tensor(k, requires_grad=True), Tensor(k, requires_grad=True), bias, 2, 0.5),
            "neighbor_attention": lambda a: ad.neighbor_attention(
                a, a, a, [[0, 1], [1, 1], [2, 0]], [[0.0, 0.0], [0.0, -np.inf], [0.0, 0.0]],
                2, 0.5),
            "log_softmax": ad.log_softmax,
            "gather_rows": lambda a: ad.gather_rows(a, [3, 0, 1]),
            "layer_norm": lambda a: ad.layer_norm(
                a, Tensor(y[1], requires_grad=True), Tensor(y[2], requires_grad=True)),
            "dropout": lambda a: ad.dropout(a, 0.5, training=True, rng=np.random.default_rng(0)),
        }
        covered = {name.split()[0] for name in ops}
        library_ops = set(ad.__all__) - {"Tensor", "ShapeMismatchError", "backward"}
        assert covered == library_ops | ORACLE_OPS
        for name, op in ops.items():
            out = op(Tensor(x.copy(), requires_grad=True))
            g = rng.normal(size=out.shape)
            g.flags.writeable = False
            before = g.copy()
            out._backward_fn(g)
            np.testing.assert_array_equal(g, before, err_msg=name)

    def test_leaves_own_their_gradient(self):
        # add() passes its upstream gradient to both parents as one array
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.add(x, y)))
        assert x.grad is not y.grad
        x.grad += 1.0
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_determinism_bit_identical(self, rng):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            y = Tensor(b.copy(), requires_grad=True)
            loss = ad.reduce_sum(relu(ad.matmul(x, y)))
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy(), y.grad.copy()

        l1, gx1, gy1 = run()
        l2, gx2, gy2 = run()
        assert (l1 == l2).all() and (gx1 == gx2).all() and (gy1 == gy2).all()


class TestAdamW:
    def test_decoupled_decay_only(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=5e-5, weight_decay=0.01)
        p.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 5e-7], atol=1e-15)

    def test_first_step_unit_size(self):
        p = Tensor(np.array([0.3]), requires_grad=True)
        opt = AdamW({"p": p}, lr=5e-5, weight_decay=0.0)
        p.grad = np.array([2.0])
        opt.step()
        # first bias-corrected step is lr * g / (|g| + eps') ~ lr
        np.testing.assert_allclose(p.data, [0.3 - 5e-5], atol=1e-9)

    def test_zero_grad_param_unchanged_without_decay(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW({"p": p, "q": q}, lr=1e-3, weight_decay=0.0)
        p.grad = np.array([1.0])
        q.grad = None
        opt.step()
        np.testing.assert_array_equal(q.data, [2.0])
        assert p.data[0] != 1.5

    def test_param_without_gradient_is_skipped(self):
        """A parameter without a gradient keeps its bits under weight decay
        and gets no moment buffers."""
        p = Tensor(np.array([1.5]), requires_grad=True)
        q = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        opt = AdamW({"p": p, "q": q}, lr=1e-2, weight_decay=0.1)
        for _ in range(3):
            p.grad = np.array([1.0])
            q.grad = None
            opt.step()
        np.testing.assert_array_equal(q.data, [2.0, -3.0])
        assert set(opt.m) == set(opt.v) == {"p"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_matches_out_of_place_formula(self, rng, dtype):
        """Three steps agree bit for bit with the out-of-place AdamW update,
        and each parameter keeps its array."""
        lr, wd, b1, b2, eps = 1e-2, 0.05, 0.9, 0.999, 1e-8
        params = {name: Tensor(rng.normal(size=(7, 5)).astype(dtype), requires_grad=True)
                  for name in ("a", "b")}
        arrays = {name: p.data for name, p in params.items()}
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(x) for name, x in ref.items()}
        v = {name: np.zeros_like(x) for name, x in ref.items()}
        opt = AdamW(params, lr=lr, weight_decay=wd)
        for t in range(1, 4):
            for p in params.values():
                p.grad = rng.normal(size=p.data.shape).astype(dtype)
            opt.step()
            for name, p in params.items():
                g = p.grad
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                update = (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
                ref[name] = ref[name] - lr * update - lr * wd * ref[name]
                np.testing.assert_array_equal(p.data, ref[name])
                assert p.data is arrays[name]

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p})
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None
