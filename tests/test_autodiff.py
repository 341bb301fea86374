"""Tensor ops: forward values, finite-difference gradients, the library's
exported surface, and the AdamW optimizer's closed-form behavior."""

import ast
import gc
import inspect
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from meshseg import autodiff as ad
from meshseg.autodiff import ShapeMismatchError, Tensor, _op_output
from meshseg.optim import AdamW
from meshseg.preprocess import read_archive, write_archive

import test_acceptance
from conftest import finite_difference
from dense_model import (
    _linear as oracle_linear,
    add_bias,
    concat_last,
    masked_softmax,
    reduce_mean,
    relu,
    slice_last,
    transpose,
)
from op_oracles import (
    add,
    cluster_attention_oracle,
    embedding_lookup_oracle,
    feed_forward_oracle,
    gather_rows,
    layer_norm_oracle,
    log_softmax,
    matmul,
    mul,
    neighbor_attention_oracle,
    reduce_sum,
    scale,
    scatter_add_map,
    segment_attention_oracle,
    table_listing,
    weighted_nll_oracle,
)

# ops the dense oracle (tests/dense_model.py) adds for its unfused linear
# layers and its per-head attention, and the unfused projection and
# residual and the loss's former five-op chain (tests/op_oracles.py)
ORACLE_OPS = {
    "add_bias", "relu", "transpose", "concat_last", "slice_last", "reduce_mean",
    "masked_softmax", "matmul", "add", "mul", "scale", "reduce_sum", "log_softmax",
    "gather_rows",
}


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
        out = ad.linear(m, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, m.data)

    def test_relu_values_and_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        out = relu(x)
        np.testing.assert_array_equal(out.data, [0.0, 2.0])
        ad.backward(reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ad.backward(reduce_sum(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_mean_over_axis(self):
        out = reduce_mean(Tensor(np.array([[1.0, 3.0]])), axis=1)
        np.testing.assert_array_equal(out.data, [2.0])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeMismatchError) as exc:
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_sum_x_squared_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.backward(reduce_sum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        ad.backward(reduce_sum(mul(x, x)))
        assert unused.grad is None

    def test_embedding_lookup_forward_and_scatter(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.embedding_lookup(table, [0, 0, 1])
        np.testing.assert_array_equal(out.data, [[0, 1], [0, 1], [2, 3]])
        ad.backward(reduce_sum(out))
        np.testing.assert_array_equal(table.grad, [[2, 2], [1, 1], [0, 0]])

    def test_embedding_id_overflow(self):
        with pytest.raises(IndexError):
            ad.embedding_lookup(Tensor(np.zeros((2, 3))), [0, 2])

    def test_gather_rows(self):
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = gather_rows(m, [1, 0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])


def run_op(op, dtype, weight, *arrays):
    """The output and the input gradients of ``sum(op(*inputs) * weight)``,
    where each input array becomes a leaf."""
    leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(*leaves)
    ad.backward(reduce_sum(mul(out, Tensor(weight.astype(dtype)))))
    return (out.data, *(t.grad for t in leaves))


def listing_attention(q, k, v, keys, ptr, num_heads, scale):
    """``ad.segment_attention`` over the plan of the listing (keys, ptr)."""
    return ad.segment_attention(q, k, v, ad.ListingPlan(keys, ptr, k.shape[0], num_heads), scale)


def assert_bit_identical(runs, dtype):
    for new, old in zip(*runs):
        assert new.dtype == old.dtype == dtype
        np.testing.assert_array_equal(new, old)


class TestEmbeddingLookup:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids_shape", [(300,), (60, 5)])
    def test_sparse_scatter_matches_add_at_oracle_bit_for_bit(self, rng, dtype, ids_shape):
        """Each table row sums its lookups' gradients in ascending order,
        as ``np.add.at`` does: many repeats of few rows, values of mixed
        magnitude, and a row that is never looked up."""
        table = rng.normal(size=(6, 5))
        ids = rng.integers(0, 5, size=ids_shape)
        weight = rng.normal(size=(*ids_shape, 5)) * 10.0 ** rng.integers(-6, 7, size=(*ids_shape, 1))
        runs = [run_op(lambda t: op(t, ids), dtype, weight, table)
                for op in (ad.embedding_lookup, embedding_lookup_oracle)]
        assert_bit_identical(runs, dtype)
        np.testing.assert_array_equal(runs[0][1][5], 0.0)
        # the scipy matrix product that the backward used to run
        g = weight.astype(dtype).reshape(-1, 5)
        np.testing.assert_array_equal(runs[0][1], scatter_add_map(ids, 6, dtype) @ g)


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
            ad.backward(reduce_sum(mul(out, weight)))
            runs.append((out.data, xt.grad, p["l.w"].grad, p["l.b"].grad))
        for fused, unfused in zip(*runs):
            assert fused.dtype == unfused.dtype == dtype
            np.testing.assert_array_equal(fused, unfused)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_without_bias_matches_matmul_oracle_bit_for_bit(self, rng, dtype):
        """Without a bias the op is the unfused matmul: the same values and
        the same two gradients, bit for bit."""
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(4, 5))
        weight = rng.normal(size=(6, 5))
        runs = [run_op(op, dtype, weight, x, w) for op in (ad.linear, matmul)]
        assert_bit_identical(runs, dtype)

    @pytest.mark.parametrize("activation", [False, True])
    def test_closure_keeps_output_only_for_relu_mask(self, rng, activation):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = ad.linear(x, w, Tensor(np.zeros(2)), relu=activation)
        alive = weakref.ref(out.data)
        node = out._node
        del out
        assert (alive() is not None) == activation and node._parents is not None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


class TestFeedForward:
    @staticmethod
    def inputs(rng, dtype, rows=6, width=4, hidden=7, out=3):
        """Leaves' arrays with exactly zero ReLU inputs (a zero row of x
        under zero biases) and zero output biases."""
        x = rng.normal(size=(rows, width)).astype(dtype)
        w1 = rng.normal(size=(width, hidden)).astype(dtype)
        b1 = rng.normal(size=hidden).astype(dtype)
        w2 = rng.normal(size=(hidden, out)).astype(dtype)
        b2 = rng.normal(size=out).astype(dtype)
        x[0] = 0.0
        b1[:2] = 0.0
        b2[0] = 0.0
        assert ((x @ w1 + b1) == 0).any()
        return x, w1, b1, w2, b2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("drop, training", [(0.0, False), (0.3, True), (0.3, False)],
                             ids=["plain", "dropout", "eval"])
    def test_matches_the_chain_oracle_bit_for_bit(self, rng, dtype, drop, training):
        """One node gives the values and all five gradients of the
        ``linear`` → ``dropout`` → ``linear`` chain, with the same rng draw."""
        arrays = self.inputs(rng, dtype)
        weight = rng.normal(size=(6, 3))
        runs = [run_op(lambda *t: op(*t, drop, training, np.random.default_rng(5)),
                       dtype, weight, *arrays)
                for op in (ad.feed_forward, feed_forward_oracle)]
        assert_bit_identical(runs, dtype)
        assert len(runs[0]) == 6

    def test_dropout_draws_where_the_chain_draws(self, rng):
        """The mask is drawn inside the op, at the chain's place in the
        rng stream: a draw after the op continues the same stream."""
        arrays = [Tensor(a) for a in self.inputs(rng, np.float64)]
        after = []
        for op in (ad.feed_forward, feed_forward_oracle):
            draws = np.random.default_rng(4)
            op(*arrays, 0.5, True, draws)
            after.append(draws.random(3))
        np.testing.assert_array_equal(*after)

    @pytest.mark.parametrize("drop", [0.0, 0.3], ids=["plain", "dropout"])
    def test_backward_frees_the_hidden_activation_first(self, rng, drop):
        """The backward of a block whose hidden width dominates adds under
        1.5 hidden-sized arrays to what was allocated when it started: the
        hidden gradient and a bool mask, not also the hidden activation's
        masked copy. The two-node chain reads above 2."""
        x, w1, b1, w2, b2 = (rng.normal(size=shape)
                             for shape in ((512, 32), (32, 512), 512, (512, 32), 32))
        g = rng.normal(size=(512, 32))

        def peak_in_hidden_arrays(op):
            leaves = [Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
            out = op(*leaves, drop, True, np.random.default_rng(1))
            # a loss node that sends g to the block and allocates nothing
            loss = _op_output(np.zeros(()), (out,), lambda _: (g,))
            del out
            tracemalloc.start()
            try:
                ad.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak / (512 * 512 * 8)

        assert peak_in_hidden_arrays(ad.feed_forward) < 1.5
        assert peak_in_hidden_arrays(feed_forward_oracle) > 2

    def test_validates_shapes_and_dropout(self):
        x, w1, b1 = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        w2, b2 = Tensor(np.ones((4, 2))), Tensor(np.ones(2))
        with pytest.raises(ShapeMismatchError):
            ad.feed_forward(x, w1, b1, Tensor(np.ones((3, 2))), b2)
        with pytest.raises(ShapeMismatchError):
            ad.feed_forward(x, w1, b1, w2, Tensor(np.ones(4)))
        with pytest.raises(ValueError, match="probability"):
            ad.feed_forward(x, w1, b1, w2, b2, 1.0)
        with pytest.raises(ValueError, match="rng"):
            ad.feed_forward(x, w1, b1, w2, b2, 0.5, training=True)


@pytest.mark.parametrize("op", [
    lambda x, w, b: ad.linear(x, w, b, relu=True),
    lambda x, w, b: ad.feed_forward(x, w, b, Tensor(w.data.T.copy(), requires_grad=True),
                                    Tensor(np.ones(4), requires_grad=True),
                                    0.3, True, np.random.default_rng(2)),
], ids=["linear", "feed_forward"])
def test_input_that_needs_no_gradient_gets_none(rng, op):
    """An input that requires no gradient, like the model's feature tensor,
    gets None instead of a product that nothing reads; the other
    gradients are those of a run where it requires one, bit for bit."""
    x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    grads = []
    for needs in (False, True):
        out = op(Tensor(x, requires_grad=needs), Tensor(w, requires_grad=True),
                 Tensor(b, requires_grad=True))
        grads.append(out._backward_fn(np.random.default_rng(9).normal(size=out.shape)))
    assert grads[0][0] is None and grads[1][0].shape == x.shape
    for without, with_ in zip(grads[0][1:], grads[1][1:]):
        np.testing.assert_array_equal(without, with_)


class TestWeightedNll:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [210, 2412])
    def test_matches_five_op_chain_bit_for_bit(self, rng, dtype, rows):
        """The loss and the score gradient have the bytes of the
        log_softmax, gather_rows, mul, reduce_sum and scale chain that the
        loss was built from, with padding rows as weighted_cross_entropy
        passes them: class 0 and weight 0."""
        classes = 8
        scores = rng.normal(size=(rows, classes)) * 3.0
        labels = rng.integers(0, classes, size=rows)
        weights = rng.random(rows)
        pad = rng.random(rows) < 0.05
        assert pad.any()
        labels[pad], weights[pad] = 0, 0.0
        weights /= weights.sum()
        runs = []
        for op in (ad.weighted_nll, weighted_nll_oracle):
            x = Tensor(scores.astype(dtype), requires_grad=True)
            loss = op(x, labels, weights.astype(dtype))
            ad.backward(loss)
            runs.append((loss.data, x.grad))
        assert_bit_identical(runs, dtype)
        for new, old in zip(*runs):  # also the sign of each zero
            assert new.tobytes() == old.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.weighted_nll(Tensor(np.zeros((2, 3))), [0, 1, 2], [0.5, 0.5])


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
        ad.backward(reduce_sum(out))
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
        # the listing of a table's live slots names a subset of keys per
        # row; the dense bias blocks the others
        q, k, v = rng.normal(size=(4, 6)), rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        table = np.array([[0, 1, 4], [1, 2, 0], [3, 3, 3], [4, 0, 2]])
        slot_bias = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf],
                              [0.0, -np.inf, -np.inf], [0.0, 0.0, 0.0]])
        dense = np.full((4, 5), -np.inf)
        for r, c in zip(*np.nonzero(np.isfinite(slot_bias))):
            dense[r, table[r, c]] = slot_bias[r, c]
        out = listing_attention(Tensor(q), Tensor(k), Tensor(v),
                                *table_listing(table, slot_bias), 2, 0.4)
        np.testing.assert_allclose(out.data, per_head_attention(q, k, v, dense, 2, 0.4),
                                   atol=1e-14)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_neighbor_table_oracle(self, rng, dtype, tol):
        """Values and gradients equal those of the padded-table op that the
        triangle stream ran before, on a table with keys repeated within
        and across rows, single-key rows and an empty row."""
        rows, m, keys, width = 40, 5, 12, 16
        q, k, v, weight = (rng.normal(size=(n, width)) for n in (rows, keys, keys, rows))
        index = rng.integers(0, keys, size=(rows, m))
        index[3, :] = 7
        bias = np.where(rng.random((rows, m)) < 0.3, -np.inf, 0.0)
        bias[5] = -np.inf  # an empty segment
        bias[6, 1:] = -np.inf  # a single key
        listing = table_listing(index, bias)
        got = run_op(lambda a, b, c: listing_attention(a, b, c, *listing, 4, 0.3),
                     dtype, weight, q, k, v)
        want = run_op(lambda a, b, c: neighbor_attention_oracle(a, b, c, index, bias, 4, 0.3),
                      dtype, weight, q, k, v)
        for a, b in zip(got, want):
            assert a.dtype == dtype
            assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())
        np.testing.assert_array_equal(got[0][5], 0.0)

    def test_repeated_key_gradients_add_up(self, rng):
        # a key listed twice in one row weighs as its log 2 bias and
        # receives the gradient of both pairs
        q, k, v = rng.normal(size=(1, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        kt, vt = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
        twice = listing_attention(Tensor(q), kt, vt, [0, 0, 1], [0, 3], 1, 1.0)
        ad.backward(reduce_sum(twice))
        k2, v2 = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
        once = ad.attention(Tensor(q), k2, v2, [[np.log(2.0), 0.0]], 1, 1.0)
        ad.backward(reduce_sum(once))
        np.testing.assert_allclose(twice.data, once.data, atol=1e-14)
        np.testing.assert_allclose(kt.grad, k2.grad, atol=1e-14)
        np.testing.assert_allclose(vt.grad, v2.grad, atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_key_value_gradients_match_add_at_bit_for_bit(self, rng, dtype):
        """Each key row sums its pairs' gradients in listing order, as
        ``np.add.at`` does: keys listed in many rows and twice in one, and
        values of mixed magnitude."""
        rows, m, keys, width = 60, 5, 7, 8
        q, k, v = (rng.normal(size=(n, width)) for n in (rows, keys, keys))
        index = rng.integers(0, keys, size=(rows, m))
        bias = np.where(rng.random((rows, m)) < 0.3, -np.inf, 0.0)
        listed, ptr = table_listing(index, bias)
        weight = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-6, 7, size=(rows, 1))

        def run(ids, k_rows, v_rows):
            op = lambda a, b, c: listing_attention(a, b, c, ids, ptr, 2, 0.3)
            return run_op(op, dtype, weight, q, k_rows, v_rows)[2:]

        dk, dv = run(listed, k, v)
        # one key row per pair: each row's gradient is that pair's alone
        per_pair = run(np.arange(listed.size), k[listed], v[listed])
        for got, pair_grads in zip((dk, dv), per_pair):
            expected = np.zeros_like(got)
            np.add.at(expected, listed, pair_grads)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, expected)

    def test_neighbor_backward_holds_one_gathered_array(self, rng):
        """One backward call allocates at most its three outputs and half
        of one (pairs, d) array: its pairwise dot products gather their
        rows in blocks, so it never holds a gathered copy of a whole side.
        Gathering both sides whole reads about 1.3 here."""
        rows, m, width, heads = 600, 4, 64, 4
        q, k, v = (Tensor(rng.normal(size=(rows, width)), requires_grad=True)
                   for _ in range(3))
        index = rng.integers(0, rows, size=(rows, m))
        bias = np.zeros((rows, m))
        bias[::3, -1] = -np.inf
        plan = ad.ListingPlan(*table_listing(index, bias), rows, heads)
        out = ad.segment_attention(q, k, v, plan, 0.125)
        listed = plan.keys
        g = rng.normal(size=out.shape)
        pair_bytes = listed.size * width * 8
        tracemalloc.start()
        try:
            grads = out._backward_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in grads)
        assert outputs == 3 * rows * width * 8
        assert peak <= outputs + pair_bytes // 2, peak

    def test_neighbor_index_out_of_range(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(IndexError):
            listing_attention(x, x, x, [0, 2], [0, 1, 2], 1, 1.0)

    def test_heads_must_divide_width(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ShapeMismatchError):
            ad.attention(x, x, x, np.zeros((2, 2)), 2, 1.0)


class TestListingPlan:
    """The op over a plan against ``segment_attention_oracle``, the op as it
    ran before its plan, building the map's indices and scipy matrices on
    every call: equal bits in the output and all three gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", range(1, 9))
    def test_matches_the_per_call_oracle_bit_for_bit(self, rng, dtype, heads):
        for _ in range(6):
            rows, cols = (int(n) for n in rng.integers(2, 40, size=2))
            head_width = int(rng.integers(1, 5))  # 1: each head is one column
            sizes = rng.integers(0, 7, size=rows)
            sizes[rng.random(rows) < 0.2] = 0
            sizes[0] = 0  # an empty segment
            sizes[-1] = max(2, sizes[-1])
            ptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(sizes, out=ptr[1:])
            keys = rng.integers(0, cols, size=ptr[-1])  # keys repeat across segments
            keys[ptr[-2] + 1] = keys[ptr[-2]]  # and one twice in the last segment
            q, weight = (rng.normal(size=(rows, heads * head_width)) for _ in range(2))
            k, v = (rng.normal(size=(cols, heads * head_width)) for _ in range(2))
            plan = ad.ListingPlan(keys, ptr, cols, heads)
            runs = [
                run_op(lambda a, b, c: ad.segment_attention(a, b, c, plan, 0.3), dtype,
                       weight, q, k, v),
                run_op(lambda a, b, c: segment_attention_oracle(a, b, c, keys, ptr, heads, 0.3),
                       dtype, weight, q, k, v),
            ]
            assert_bit_identical(runs, dtype)

    def test_one_plan_serves_many_calls(self, rng):
        """Calls share a plan's arrays and leave them untouched."""
        keys, ptr = [0, 2, 2, 1, 0, 1], [0, 3, 3, 6]
        plan = ad.ListingPlan(keys, ptr, 3, 2)
        before = {name: getattr(plan, name).copy() for name in plan.__slots__
                  if isinstance(getattr(plan, name), np.ndarray)}
        for _ in range(3):
            weight, q, k, v = (rng.normal(size=(n, 4)) for n in (3, 3, 3, 3))
            got = run_op(lambda a, b, c: ad.segment_attention(a, b, c, plan, 0.5),
                         np.float64, weight, q, k, v)
            want = run_op(lambda a, b, c: segment_attention_oracle(a, b, c, keys, ptr, 2, 0.5),
                          np.float64, weight, q, k, v)
            assert_bit_identical((got, want), np.float64)
        for name, array in before.items():
            np.testing.assert_array_equal(getattr(plan, name), array)

    def test_index_width_and_bytes(self):
        plan = ad.ListingPlan([0, 2, 2, 1], [0, 3, 4], 3, 4)
        assert plan.indices.dtype == plan.indptr.dtype == np.int32
        assert plan.keys.dtype == plan.ptr.dtype == np.int64
        arrays = (plan.keys, plan.ptr, plan.owner, plan.order, plan.indices, plan.indptr,
                  plan.starts, plan.live_sizes)
        assert plan.nbytes == sum(a.nbytes for a in arrays) > 0


def cluster_listing(ids, k):
    """The CSR listing of ``ids``: keys sorted by segment, then segment starts."""
    member_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=k), out=member_ptr[1:])
    return np.argsort(ids, kind="stable"), member_ptr


class TestClusterAttention:
    """Attention of each cluster over the segment of its member rows
    agrees with ``ad.attention`` under the dense membership mask that the
    listing replaced."""

    @staticmethod
    def run(op, dtype, q, k, v, listing, upstream, heads=4):
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in (q, k, v)]
        out = op(*tensors, *listing, heads, 0.3)
        ad.backward(reduce_sum(mul(out, Tensor(upstream.astype(dtype)))))
        return [out.data] + [t.grad for t in tensors]

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_dense_oracle(self, rng, dtype, tol):
        # a large last segment, as pad_sample gives the padding faces,
        # singletons, and segments interleaved across the key order
        k, n, d = 9, 80, 16
        ids = rng.integers(0, k - 3, size=n)
        ids[rng.permutation(n)[:30]] = k - 1
        ids[[5, 17]] = [k - 3, k - 2]
        listing = cluster_listing(ids, k)
        q, keys, values, upstream = (rng.normal(size=(m, d)) for m in (k, n, n, k))
        got = self.run(listing_attention, dtype, q, keys, values, listing, upstream)
        want = self.run(cluster_attention_oracle, dtype, q, keys, values, listing, upstream)
        for a, b in zip(got, want):
            assert a.dtype == dtype
            assert np.abs(a - b).max() <= tol

    def test_empty_segment_is_a_zero_row_with_finite_gradients(self, rng):
        """A cluster id that no face carries gives the zero row that the
        dense mask's all-blocked row gives, and no NaN gradient."""
        ids = np.array([0, 2, 2, 0, 3, 2])  # cluster 1 is empty
        listing = cluster_listing(ids, 4)
        q, keys, values, upstream = (rng.normal(size=(m, 4)) for m in (4, 6, 6, 4))
        got = self.run(listing_attention, np.float64, q, keys, values, listing, upstream, 2)
        want = self.run(cluster_attention_oracle, np.float64, q, keys, values, listing,
                        upstream, 2)
        assert all(np.isfinite(a).all() for a in got)
        np.testing.assert_array_equal(got[0][1], 0.0)
        np.testing.assert_array_equal(got[1][1], 0.0)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_scores_stable(self):
        # scores of 2e4 overflow exp unless each segment's max comes off first
        q = Tensor(np.full((2, 2), 100.0))
        keys = Tensor(np.array([[100.0, 100.0], [99.0, 99.0], [1.0, 1.0]]))
        out = listing_attention(q, keys, keys, [0, 1, 2], [0, 2, 3], 1, 1.0)
        np.testing.assert_allclose(out.data, [[100.0, 100.0], [1.0, 1.0]], atol=1e-12)

    def test_holds_a_few_key_sized_arrays(self, rng):
        """One forward and backward at the raw-mesh size (N=2412, K=151,
        d=64) peak under four (N, d) arrays, two of them the key and value
        gradients: no (heads, K, N) score array exists."""
        k, n, d = 151, 2412, 64
        ids = rng.integers(0, k - 1, size=n)
        ids[1200:] = k - 1
        listing = cluster_listing(ids, k)
        q, keys, values = (Tensor(rng.normal(size=(m, d)), requires_grad=True)
                           for m in (k, n, n))
        g = rng.normal(size=(k, d))
        plan = ad.ListingPlan(*listing, n, 4)
        tracemalloc.start()
        try:
            out = ad.segment_attention(q, keys, values, plan, 0.125)
            grads = out._backward_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [a.shape for a in grads] == [(k, d), (n, d), (n, d)]
        assert peak <= 4 * n * d * 8, peak

    def test_listing_is_validated(self, rng):
        q, keys = Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(3, 2)))
        # a key may be listed twice or not at all
        ad.segment_attention(q, keys, keys, ad.ListingPlan([0, 1, 1], [0, 1, 3], 3, 1), 1.0)
        with pytest.raises(IndexError):
            ad.ListingPlan([0, 1, 3], [0, 1, 3], 3, 1)
        with pytest.raises(IndexError):
            ad.ListingPlan([0, -1], [0, 1, 2], 3, 1)
        with pytest.raises(ShapeMismatchError):
            ad.ListingPlan([0, 1], [0, 1, 3], 3, 1)
        with pytest.raises(ShapeMismatchError):
            ad.ListingPlan([0, 1, 2], [0, 4, 3], 3, 1)
        with pytest.raises(ShapeMismatchError):
            ad.ListingPlan([0, 1], [0, 2], 3, 0)
        # a valid plan whose query or key count differs from the call's
        with pytest.raises(ShapeMismatchError):
            ad.segment_attention(q, keys, keys, ad.ListingPlan([0, 1, 2], [0, 3], 3, 1), 1.0)
        with pytest.raises(ShapeMismatchError):
            ad.segment_attention(q, keys, keys, ad.ListingPlan([0, 1], [0, 1, 2], 4, 1), 1.0)
        # and a plan for more heads than the width splits into
        with pytest.raises(ShapeMismatchError):
            ad.segment_attention(q, keys, keys, ad.ListingPlan([0, 1], [0, 1, 2], 3, 3), 1.0)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_op_matches_oracle_bit_for_bit(self, rng, dtype):
        """The output and all three gradients equal those of the version
        built from full-size temporaries with ``np.mean``, a constant row
        included, also at widths that are no power of two, where the
        division of each row sum by the width rounds."""
        for width in (16, 12, 28, 100, 3, 257):
            x = rng.normal(size=(9, width)) * 3.0 + 1.0
            x[4] = 2.5
            gamma, beta = rng.normal(size=width), rng.normal(size=width)
            weight = rng.normal(size=(9, width))
            runs = [run_op(op, dtype, weight, x, gamma, beta)
                    for op in (ad.layer_norm, layer_norm_oracle)]
            assert_bit_identical(runs, dtype)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    def test_residual_matches_add_oracle_bit_for_bit(self, rng, dtype, training):
        """Dropout with a residual is one node that gives the values and
        both gradients of the unfused ``add(dropout(u), x)``, with the same
        draws from the rng."""
        u, x = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
        weight = rng.normal(size=(7, 6))
        runs = [
            run_op(lambda a, b: ad.dropout(a, 0.3, training, np.random.default_rng(5),
                                           residual=b), dtype, weight, u, x),
            run_op(lambda a, b: add(ad.dropout(a, 0.3, training, np.random.default_rng(5)), b),
                   dtype, weight, u, x),
        ]
        assert_bit_identical(runs, dtype)

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.dropout(Tensor(np.ones((2, 3))), 0.5, training=False, residual=Tensor(np.ones(3)))

    @pytest.mark.parametrize("shape", [(7, 3), (210, 64), (2, ad.MASK_BLOCK), (151, 1024),
                                       (2412, 512)])
    def test_block_drawn_mask_equals_the_full_draw(self, shape):
        """The mask, and where it leaves the rng's stream, equal those of
        one ``rng.random(shape) >= p``, below one block and above it, with
        a last block that is full or partial."""
        drawn, full = np.random.default_rng(3), np.random.default_rng(3)
        keep, _ = ad._dropout_mask(shape, np.dtype(np.float32), 0.3, True, drawn)
        np.testing.assert_array_equal(keep, full.random(shape) >= 0.3)
        np.testing.assert_array_equal(drawn.random(5), full.random(5))

    def test_training_dropout_draws_no_full_size_float64(self):
        """One training dropout of a paper-width float32 activation peaks
        below the float64 uniform draw of its shape alone: 9.9 MB."""
        x = Tensor(np.ones((2412, 512), dtype=np.float32))
        tracemalloc.start()
        try:
            out = ad.dropout(x, 0.1, True, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.dtype == np.float32
        assert peak < 2412 * 512 * 8


class TestFiniteDifference:
    """Central-difference checks for every differentiable primitive."""

    def test_matmul(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        check_grad(lambda x, y: reduce_sum(mul(m := matmul(x, y), m)), a, b)
        check_grad(lambda x, y: reduce_sum(mul(m := ad.linear(x, y), m)), a, b)

    def test_add_and_bias(self, rng):
        a, b, c = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=4)
        check_grad(lambda x, y: reduce_sum(mul(s := add(x, y), s)), a, b)
        for training in (True, False):
            check_grad(lambda x, y: reduce_sum(mul(s := ad.dropout(
                x, 0.3, training, np.random.default_rng(7), residual=y), s)), a, b)
        check_grad(lambda x, y: reduce_sum(mul(s := add_bias(x, y), s)), a, c)

    def test_mul(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        check_grad(lambda x, y: reduce_sum(mul(mul(x, y), x)), a, b)

    def test_scale_relu_transpose(self, rng):
        a = rng.normal(size=(4, 3))
        check_grad(
            lambda x: reduce_sum(relu(scale(transpose(x), 2.5))), a
        )

    def test_concat_and_slice(self, rng):
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))

        def build(x, y):
            cat = concat_last([x, y])
            piece = slice_last(cat, 1, 4)
            return reduce_sum(mul(piece, piece))

        check_grad(build, a, b)

    def test_reduce_ops(self, rng):
        a = rng.normal(size=(3, 5))
        check_grad(lambda x: reduce_sum(mul(m := reduce_mean(x, axis=1), m)), a)
        check_grad(lambda x: reduce_sum(mul(s := reduce_sum(x, axis=0), s)), a)

    def test_embedding_lookup(self, rng):
        table = rng.normal(size=(5, 3))
        ids = np.array([0, 2, 2, 4])
        check_grad(
            lambda t: reduce_sum(
                mul(e := ad.embedding_lookup(t, ids), e)
            ),
            table,
        )

    def test_masked_softmax(self, rng):
        scores = rng.normal(size=(4, 4))
        mask = np.where(rng.random((4, 4)) < 0.3, -np.inf, 0.0)
        mask[:, 0] = 0.0
        weight = rng.normal(size=(4, 4))
        check_grad(
            lambda x: reduce_sum(mul(masked_softmax(x, mask), Tensor(weight))),
            scores,
        )

    def test_attention(self, rng):
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        bias = np.where(rng.random((3, 4)) < 0.3, -np.inf, 0.0)
        bias[:, 0] = 0.5
        w = rng.normal(size=(3, 4))
        check_grad(
            lambda a, b, c: reduce_sum(mul(ad.attention(a, b, c, bias, 2, 0.8), Tensor(w))),
            q, k, v,
        )

    def test_neighbor_attention(self, rng):
        # a table's live slots: a key twice in one row, a single-key row
        q, k, v = rng.normal(size=(4, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        table = np.array([[0, 1, 2], [1, 0, 0], [2, 2, 1], [0, 1, 1]])
        slot_bias = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf],
                              [0.0, 0.0, 0.0], [0.0, -np.inf, -np.inf]])
        listing = table_listing(table, slot_bias)
        w = rng.normal(size=(4, 4))
        check_grad(
            lambda a, b, c: reduce_sum(mul(
                listing_attention(a, b, c, *listing, 2, 0.8), Tensor(w))),
            q, k, v,
        )

    def test_cluster_attention(self, rng):
        # three heads; a padding-like segment of five keys, two singleton
        # segments and one of two keys, listed out of key order
        ids = np.array([4, 0, 4, 2, 4, 1, 4, 1, 4, 3])
        members, member_ptr = cluster_listing(ids, 5)
        q, k, v = rng.normal(size=(5, 6)), rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
        w = rng.normal(size=(5, 6))
        check_grad(
            lambda a, b, c: reduce_sum(mul(
                listing_attention(a, b, c, members, member_ptr, 3, 0.8), Tensor(w))),
            q, k, v,
        )

    def test_log_softmax_and_gather(self, rng):
        scores = rng.normal(size=(5, 3))
        cols = rng.integers(0, 3, size=5)
        w = rng.normal(size=5)
        check_grad(
            lambda x: reduce_sum(
                mul(gather_rows(log_softmax(x), cols), Tensor(w))
            ),
            scores,
        )

    def test_layer_norm_all_inputs(self, rng):
        x, g, b = rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=6)
        check_grad(
            lambda xx, gg, bb: reduce_sum(
                mul(ln := ad.layer_norm(xx, gg, bb), ln)
            ),
            x, g, b,
            tol=1e-5,
        )

    def test_composite_relu_linear(self, rng):
        # f(x) = sum(relu(W x)) vs central differences
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 2))
        check_grad(lambda ww, xx: reduce_sum(relu(matmul(ww, xx))), w, x)

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
                lambda x, y, gg: reduce_sum(
                    relu(add_bias(matmul(x, y), gg))
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


def test_every_library_op_has_a_finite_difference_check_in_criterion_04():
    """Criterion 04 calls every differentiable op of the library as
    ``ad.<op>``, so a new op cannot land without its finite-difference
    check."""
    source = inspect.getsource(test_acceptance.test_criterion_04_autodiff_finite_differences)
    ops = set(ad.__all__) - {"Tensor", "ShapeMismatchError", "backward"}
    unchecked = sorted(op for op in ops if not re.search(rf"\bad\.{op}\b", source))
    assert not unchecked, f"criterion 04 has no finite-difference check of {unchecked}"


def test_one_module_touches_zip_files():
    """Only the module holding ``write_archive`` and ``read_archive`` imports
    zipfile or zlib: samples and checkpoints share one container."""
    package = Path(ad.__file__).parent
    owner = Path(inspect.getsourcefile(write_archive)).name
    assert Path(inspect.getsourcefile(read_archive)).name == owner
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            if {module.split(".")[0] for module in imported} & {"zipfile", "zlib"}:
                importers.add(path.name)
    assert importers == {owner}


class TestBackwardMechanics:
    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(mul(x, x))

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        for _ in range(2):
            ad.backward(reduce_sum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = scale(x, 3.0)
        loss = reduce_sum(add(mul(y, y), y))  # 9x^2 + 3x
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [18 * 2.0 + 3.0])

    def test_backward_frees_intermediates(self):
        """backward() consumes the graph, so an intermediate's array dies
        while the loss, which keeps its value, is still referenced."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        h = ad.linear(x, w, Tensor(np.zeros(2), requires_grad=True), relu=True)
        alive = weakref.ref(h.data)
        loss = reduce_sum(mul(h, h))
        del h
        ad.backward(loss)
        assert alive() is None
        assert loss.item() == 2 * 3.0**2 + 2 * 12.0**2
        np.testing.assert_array_equal(w.grad, [[72.0, 72.0], [102.0, 102.0], [132.0, 132.0]])

    def test_closure_gradient_dies_with_the_closure_argument(self):
        """backward() keeps no reference to the gradient it hands a
        closure, so the array is freed as soon as the closure drops it."""
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = scale(x, 2.0)
        inner = y._backward_fn
        freed = []

        def probe(g):
            alive = weakref.ref(g)
            shape = g.shape
            del g
            freed.append(alive() is None)
            return inner(np.ones(shape))

        y._backward_fn = probe
        ad.backward(reduce_sum(mul(y, Tensor(np.ones(4)))))
        assert freed == [True]
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_second_backward_raises(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = mul(x, x)
        loss = reduce_sum(y)
        ad.backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(loss)
        # a new graph over a consumed node is refused before any gradient
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(reduce_sum(add(y, x)))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_gradient_free_ops_record_nothing(self):
        a = Tensor(np.ones((2, 3)))
        outs = [
            ad.linear(a, Tensor(np.ones((3, 2)))),
            scale(a, 2.0),
            ad.layer_norm(a, Tensor(np.ones(3)), Tensor(np.zeros(3))),
            ad.dropout(a, 0.5, training=True, rng=np.random.default_rng(0)),
            *(ad.feed_forward(a, Tensor(np.ones((3, 4))), Tensor(np.zeros(4)),
                              Tensor(np.ones((4, 2))), Tensor(np.zeros(2)), 0.5, training,
                              np.random.default_rng(0)) for training in (False, True)),
        ]
        for out in outs:
            assert out._node is None
            assert out._parents == () and out._backward_fn is None
            assert not out.requires_grad
        # one input that requires gradients makes a graph node; the leaf is
        # its own node and the constant input a shared value-less one
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ad.linear(a, w)
        assert out._node is not None and out._backward_fn is out._node._backward_fn
        const, leaf = out._parents
        assert leaf is w and w._node is None and w._parents == ()
        assert not const.requires_grad and const.data.size == 0 and const._parents == ()
        assert ad.linear(Tensor(np.ones((2, 3))), w)._parents[0] is const

    def test_value_no_closure_reads_dies_with_its_caller(self, rng):
        """An embedding lookup under dropout, which is also the residual of
        a dropout over a linear layer, and that linear layer's output are
        read by no closure: dropping them frees their arrays while the graph
        is alive, and backward gives the same gradients as when the caller
        keeps them."""
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def build():
            drop = np.random.default_rng(3)
            looked_up = ad.embedding_lookup(table, [0, 3, 3, 1, 4, 2])
            dropped = ad.dropout(looked_up, 0.5, training=True, rng=drop)
            h = ad.linear(dropped, w)
            summed = ad.dropout(h, 0.5, training=True, rng=drop, residual=looked_up)
            return reduce_sum(mul(summed, summed)), (looked_up, h)

        loss, unread = build()
        values = [weakref.ref(t.data) for t in unread]
        del unread
        assert all(v() is None for v in values) and loss._parents is not None
        ad.backward(loss)
        grads = [t.grad for t in (table, w)]
        for t in (table, w):
            t.zero_grad()
        loss, unread = build()  # this time the caller keeps them
        ad.backward(loss)
        for t, g in zip((table, w), grads):
            np.testing.assert_array_equal(t.grad, g)

    @pytest.mark.parametrize("op", [
        reduce_sum,
        lambda a: reduce_sum(a, axis=0),
        lambda a: ad.embedding_lookup(a, [2, 0, 2]),
        lambda a: gather_rows(a, [1, 0, 1]),
    ], ids=["reduce_sum", "reduce_sum axis", "embedding_lookup", "gather_rows"])
    def test_closures_that_read_only_a_shape_keep_no_input(self, op):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        a = scale(x, 2.0)
        out = op(a)
        alive = weakref.ref(a.data)
        del a
        assert alive() is None and out._parents is not None

    def test_graph_has_no_reference_cycles(self, rng):
        """Dropping a graph, consumed or not, frees its parameters' old
        arrays at once, without waiting for the cyclic collector."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for consume in (False, True):
                w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
                b = Tensor(rng.normal(size=3), requires_grad=True)
                x = Tensor(rng.normal(size=(2, 3)))
                loss = reduce_sum(log_softmax(ad.layer_norm(ad.linear(x, w), b, b)))
                if consume:
                    ad.backward(loss)
                alive = [weakref.ref(t.data) for t in (w, b, x)]
                del w, b, x, loss
                assert all(ref() is None for ref in alive)
        finally:
            if was_enabled:
                gc.enable()

    def test_graph_walk_hooks(self):
        """The two hooks an outside profiler uses: every ``_parents`` entry
        reachable from a loss carries ``.data`` and ``._parents``, and a
        reassigned ``_backward_fn`` is the closure that backward runs."""
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        w = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        hidden = add_bias(matmul(Tensor(np.eye(2)), x), w)
        calls = []
        inner = hidden._backward_fn

        def counted(g):
            calls.append(g.shape)
            return inner(g)

        hidden._backward_fn = counted
        assert hidden._backward_fn is counted
        loss = reduce_sum(mul(hidden, hidden))
        seen, stack, nbytes = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            nbytes += node.data.nbytes
            for parent in node._parents:
                assert parent is not None
                assert isinstance(parent.data, np.ndarray) and parent._parents is not None
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        # loss, mul, add_bias, matmul, the constant, x and w; values of leaves and loss only
        assert len(seen) == 7
        assert nbytes == loss.data.nbytes + x.data.nbytes + w.data.nbytes
        ad.backward(loss)
        assert calls == [(2, 2)]
        np.testing.assert_array_equal(w.grad, 2 * hidden.data.sum(axis=0))

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = scale(x, 3.0)
        z = mul(y, y)
        loss = reduce_sum(z)
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
            "matmul": lambda a: matmul(a, transpose(a)),
            "add": lambda a: add(a, a),
            "add_bias": lambda a: add_bias(a, Tensor(y[0], requires_grad=True)),
            "mul": lambda a: mul(a, a),
            "scale": lambda a: scale(a, 2.0),
            "linear": lambda a: ad.linear(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True)),
            "linear relu": lambda a: ad.linear(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True), relu=True),
            "linear without bias": lambda a: ad.linear(a, Tensor(k.T, requires_grad=True)),
            "feed_forward": lambda a: ad.feed_forward(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True),
                Tensor(k, requires_grad=True), Tensor(y[0], requires_grad=True)),
            "feed_forward dropout": lambda a: ad.feed_forward(
                a, Tensor(k.T, requires_grad=True), Tensor(k[:, 0], requires_grad=True),
                Tensor(k, requires_grad=True), Tensor(y[0], requires_grad=True),
                0.5, True, np.random.default_rng(0)),
            "relu": relu,
            "transpose": transpose,
            "concat_last": lambda a: concat_last([a, a]),
            "slice_last": lambda a: slice_last(a, 1, 3),
            "reduce_sum": reduce_sum,
            "reduce_sum axis": lambda a: reduce_sum(a, axis=0),
            "reduce_mean": lambda a: reduce_mean(a, axis=1),
            "embedding_lookup": lambda a: ad.embedding_lookup(a, [0, 2, 2]),
            "masked_softmax": lambda a: masked_softmax(a, np.where(x > 1.0, -np.inf, 0.0)),
            "attention": lambda a: ad.attention(
                a, Tensor(k, requires_grad=True), Tensor(k, requires_grad=True), bias, 2, 0.5),
            "segment_attention neighbors": lambda a: listing_attention(
                a, a, a, [0, 1, 1, 2, 0], [0, 2, 3, 5], 2, 0.5),
            "segment_attention clusters": lambda a: listing_attention(
                a, Tensor(k, requires_grad=True), Tensor(k, requires_grad=True),
                [3, 0, 4, 1, 2], [0, 2, 2, 5], 2, 0.5),
            "log_softmax": log_softmax,
            "gather_rows": lambda a: gather_rows(a, [3, 0, 1]),
            "weighted_nll": lambda a: ad.weighted_nll(a, [3, 0, 1], y[:, 3]),
            "layer_norm": lambda a: ad.layer_norm(
                a, Tensor(y[1], requires_grad=True), Tensor(y[2], requires_grad=True)),
            "dropout": lambda a: ad.dropout(a, 0.5, training=True, rng=np.random.default_rng(0)),
            "dropout residual": lambda a: ad.dropout(
                a, 0.5, training=True, rng=np.random.default_rng(0),
                residual=Tensor(y, requires_grad=True)),
            "dropout residual eval": lambda a: ad.dropout(
                a, 0.5, training=False, residual=Tensor(y, requires_grad=True)),
        }
        covered = {name.split()[0] for name in ops}
        library_ops = set(ad.__all__) - {"Tensor", "ShapeMismatchError", "ListingPlan", "backward"}
        assert covered == library_ops | ORACLE_OPS
        for name, op in ops.items():
            out = op(Tensor(x.copy(), requires_grad=True))
            g = rng.normal(size=out.shape)
            g.flags.writeable = False
            before = g.copy()
            out._backward_fn(g)
            np.testing.assert_array_equal(g, before, err_msg=name)

    def test_leaves_own_their_gradient(self):
        # the residual add passes its upstream gradient to both parents as one array
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        ad.backward(reduce_sum(ad.dropout(x, 0.5, training=False, residual=y)))
        assert x.grad is not y.grad
        x.grad += 1.0
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_determinism_bit_identical(self, rng):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            y = Tensor(b.copy(), requires_grad=True)
            loss = reduce_sum(relu(matmul(x, y)))
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
            # step() drops p.grad, so the test keeps its own reference
            grads = {}
            for name, p in params.items():
                p.grad = grads[name] = rng.normal(size=p.data.shape).astype(dtype)
            opt.step()
            for name, p in params.items():
                g = grads[name]
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                update = (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
                ref[name] = ref[name] - lr * update - lr * wd * ref[name]
                np.testing.assert_array_equal(p.data, ref[name])
                assert p.data is arrays[name]

    def test_step_consumes_gradients(self):
        """A step leaves every ``.grad`` None and frees each gradient it
        applied."""
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        q = Tensor(np.array([3.0]), requires_grad=True)
        opt = AdamW({"p": p, "q": q})
        p.grad = np.array([0.5, -0.5])
        alive = weakref.ref(p.grad)
        opt.step()
        assert p.grad is None and q.grad is None
        assert alive() is None

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p})
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None
