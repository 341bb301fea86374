"""Minimal dense tensor library with reverse-mode automatic differentiation.

A :class:`Tensor` is a value: a numpy array, plus a link to the graph node
that made it when it is an op output that requires gradients. A graph node
holds only its parents' nodes and its backward closure, never the value, so
an op output's array lives only as long as the caller or some closure holds
it. A leaf that requires gradients, such as a parameter, is its own node;
constant inputs are represented by one shared value-less constant.

An op output records a node only when some input requires gradients, so a
forward over gradient-free tensors builds no graph and keeps no array past
its last reader. ``backward`` walks the nodes in reverse topological order
with a deterministic accumulation order and consumes them as it goes: a
graph can be backpropagated once. Only the primitives the segmentation
network and its loss need are provided: addition of same-shape operands
only, no views, no in-place math on live graph values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "matmul",
    "add",
    "linear",
    "embedding_lookup",
    "attention",
    "segment_attention",
    "weighted_nll",
    "layer_norm",
    "dropout",
    "backward",
]

LAYER_NORM_EPS = 1e-5


class ShapeMismatchError(ValueError):
    pass


def _check(cond: bool, op: str, *shapes):
    if not cond:
        raise ShapeMismatchError(f"{op}: incompatible shapes {' and '.join(map(str, shapes))}")


class Tensor:
    """A dense array, with the graph node of the op that made it.

    ``grad`` is populated (or accumulated into) by :func:`backward` on
    leaves, tensors that require gradients and were made by no op. A leaf
    is its own graph node. An op output that requires gradients links to a
    :class:`_Node`; ``_parents`` and ``_backward_fn`` read through to it,
    and ``_parents`` is None once :func:`backward` has consumed it. A tensor
    that does not require gradients (a constant, or an op output whose
    inputs need none) has no parents and no backward closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """The graph node of an op output: its parents' nodes and the closure
    that maps the output gradient to one gradient per parent. It keeps no
    value; ``data`` is empty so that a graph walk may read every node's
    ``data`` alike."""

    __slots__ = ("_parents", "_backward_fn")
    data = np.empty(0)
    requires_grad = True

    def __init__(self, parents: tuple, backward_fn):
        self._parents = parents
        self._backward_fn = backward_fn


# the node of every input that requires no gradient: no value, no parents
_CONSTANT = Tensor(np.empty(0))


def _graph_node(t: Tensor):
    if t._node is not None:
        return t._node
    return t if t.requires_grad else _CONSTANT


def _op_output(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """An op output: linked to a new graph node when some parent requires
    gradients, else a constant that keeps neither its parents nor
    ``backward_fn``."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_graph_node(p) for p in parents), backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check(
        a.data.ndim == 2 and b.data.ndim == 2 and a.shape[1] == b.shape[0],
        "matmul",
        a.shape,
        b.shape,
    )

    def backward_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _op_output(a.data @ b.data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check(a.shape == b.shape, "add", a.shape, b.shape)
    return _op_output(a.data + b.data, (a, b), lambda g: (g, g))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b``, optionally followed by ReLU, as one graph node.

    The bias and the ReLU are applied in place on the product, so the node
    keeps no pre-bias or pre-activation copy; the backward pass masks by
    ``out > 0``, which takes the subgradient at 0 as 0. Without the ReLU
    the backward closure keeps no reference to ``out``.
    """
    _check(
        x.data.ndim == 2 and w.data.ndim == 2 and x.shape[1] == w.shape[0]
        and b.shape == (w.shape[1],),
        "linear",
        x.shape,
        w.shape,
        b.shape,
    )
    y = x.data @ w.data
    y += b.data
    if relu:
        np.maximum(y, 0, out=y)

    # the closure keeps the output only when the ReLU mask needs it
    active = y if relu else None

    def backward_fn(g):
        if active is not None:
            g = g * (active > 0)
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _op_output(y, (x, w, b), backward_fn)


def _scatter_add_map(ids: np.ndarray, rows: int, dtype) -> sp.csr_matrix:
    """(rows, ids.size) map of ones whose product with an (ids.size, w)
    array adds row i into row ``ids.flat[i]``. Sorting the distinct keys
    target · ids.size + slot lists each row's slots in ascending order, so
    each row sums them in the order np.add.at would; on large maps a plain
    sort of the keys beats a stable argsort of the targets several times."""
    targets = ids.reshape(-1)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=rows), out=indptr[1:])
    cols = np.sort(targets * ids.size + np.arange(ids.size)) % ids.size
    return sp.csr_matrix((np.ones(ids.size, dtype=dtype), cols, indptr), shape=(rows, ids.size))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row gather from an embedding table; gradients scatter-add back
    through one sparse map."""
    ids = np.asarray(ids, dtype=np.int64)
    _check(table.data.ndim == 2, "embedding_lookup", table.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range: max {ids.max()} for table of {table.shape[0]} rows"
        )

    (rows, width), dtype = table.shape, table.dtype

    def backward_fn(g):
        # lookup i sends its gradient to table row ids[i]
        return (_scatter_add_map(ids, rows, dtype) @ g.reshape(ids.size, width),)

    return _op_output(table.data[ids], (table,), backward_fn)


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``; -inf entries get weight 0, and a row that is
    -inf throughout is all zeros (not NaN)."""
    row_max = np.max(z, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(row_max), row_max, 0.0)
    with np.errstate(invalid="ignore"):
        e = np.exp(z - shift)
    e = np.where(np.isfinite(z), e, 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    return np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0).astype(z.dtype)


def _check_heads(op, q, k, v, num_heads):
    _check(
        q.data.ndim == 2 and k.data.ndim == 2 and k.shape == v.shape
        and q.shape[1] == k.shape[1] and num_heads >= 1 and q.shape[1] % num_heads == 0,
        op,
        q.shape,
        k.shape,
        v.shape,
    )


def attention(q: Tensor, k: Tensor, v: Tensor, bias, num_heads: int, scale: float) -> Tensor:
    """Multi-head attention with all heads in one op.

    ``q`` is (R, d); ``k`` and ``v`` are (C, d). Each of ``num_heads``
    heads takes d / num_heads consecutive columns and computes
    ``softmax(scale * Q_h K_h^T + bias) V_h``; the head outputs are
    concatenated back to (R, d). ``bias`` is an additive (R, C) mask shared
    by the heads: -inf blocks a key, a finite value is added to its score.
    Rows that are entirely blocked output zeros.
    """
    _check_heads("attention", q, k, v, num_heads)
    rows, width = q.shape
    bias = np.asarray(bias, dtype=q.dtype)
    _check(bias.shape == (rows, k.shape[0]), "attention", q.shape, k.shape, bias.shape)
    s = q.dtype.type(scale)

    def heads(x):  # (n, d) -> (h, n, d / h) view
        return x.reshape(x.shape[0], num_heads, -1).transpose(1, 0, 2)

    def merge(x):  # (h, n, d / h) -> (n, d)
        return x.transpose(1, 0, 2).reshape(x.shape[1], width)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    w = _softmax(np.matmul(qh, kh.transpose(0, 2, 1)) * s + bias)  # (h, R, C)

    def backward_fn(g):
        gh = heads(g)
        dw = np.matmul(gh, vh.transpose(0, 2, 1))
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * s
        return (
            merge(np.matmul(ds, kh)),
            merge(np.matmul(ds.transpose(0, 2, 1), qh)),
            merge(np.matmul(w.transpose(0, 2, 1), gh)),
        )

    return _op_output(merge(np.matmul(w, vh)), (q, k, v), backward_fn)


# entries per gathered block of a pairwise dot product: two blocks stay in
# cache, and no (pairs, d) copy of either side exists
_GATHER_BLOCK = 1 << 16


def _pair_dots(a: np.ndarray, a_rows, b: np.ndarray, b_rows, num_heads: int) -> np.ndarray:
    """(P, num_heads) dot products of row ``a_rows[p]`` of ``a`` with row
    ``b_rows[p]`` of ``b``, one per head's columns, gathered in blocks."""
    pairs, width = len(a_rows), a.shape[1]
    out = np.empty((pairs, num_heads), dtype=a.dtype)
    step = max(1, _GATHER_BLOCK // width)
    for i in range(0, pairs, step):
        block = slice(i, i + step)
        out[block] = np.einsum("phd,phd->ph",
                               a[a_rows[block]].reshape(-1, num_heads, width // num_heads),
                               b[b_rows[block]].reshape(-1, num_heads, width // num_heads))
    return out


def segment_attention(
    q: Tensor, k: Tensor, v: Tensor, keys, ptr, num_heads: int, scale: float
) -> Tensor:
    """Multi-head attention of each query row over its own list of key rows.

    Row r of ``q`` (R, d) attends only to the key/value rows
    ``keys[ptr[r]:ptr[r + 1]]`` of ``k`` and ``v`` (C, d), a listing in CSR
    form (compressed sparse rows) of P pairs. A key row may be listed in
    many segments, and a key listed twice in one segment weighs as much as
    two copies of it. The heads split the columns as in :func:`attention`;
    a row whose segment is empty outputs zeros.

    The weights are the data of one sparse (R·h, C·h) map whose row
    r·h + j holds query r's weights in head j, so the output is that map
    times the (C·h, d / h) view of ``v``, and the transposed maps send the
    key and value gradients back, each key row summing its pairs in listing
    order. Scores and their per-segment max and sum live on narrow arrays
    of one entry per pair and head. Forward and backward cost O(P·d); no
    (R, C) array and no (P, d) copy is made.
    """
    _check_heads("segment_attention", q, k, v, num_heads)
    keys = np.asarray(keys, dtype=np.int64)
    ptr = np.asarray(ptr, dtype=np.int64)
    (rows, width), cols, h = q.shape, k.shape[0], num_heads
    sizes = np.diff(ptr)
    _check(keys.ndim == 1 and ptr.shape == (rows + 1,) and ptr[0] == 0
           and ptr[-1] == keys.size and (sizes >= 0).all(),
           "segment_attention", q.shape, k.shape, keys.shape, ptr.shape)
    if keys.size and (keys.min() < 0 or keys.max() >= cols):
        raise IndexError(f"segment key out of range for {cols} key rows")
    pairs = keys.size
    owner = np.repeat(np.arange(rows), sizes)  # the query row of each pair
    # map row r·h + j holds query r's pairs in head j, in listing order,
    # from entry start[r, j] = ptr[r]·h + j·sizes[r] on
    start = ptr[:-1, np.newaxis] * h + np.arange(h) * sizes[:, np.newaxis]
    entry = start[owner] + (np.arange(pairs) - ptr[owner])[:, np.newaxis]  # (P, h)
    order = np.empty(pairs * h, dtype=np.int64)  # map entry -> (pair, head) entry
    order[entry.reshape(-1)] = np.arange(pairs * h)
    indices = (keys[:, np.newaxis] * h + np.arange(h)).reshape(-1)[order]
    indptr = np.append(start.reshape(-1), pairs * h)
    row_sizes = np.repeat(sizes, h)
    starts, live_sizes = indptr[:-1][row_sizes > 0], row_sizes[row_sizes > 0]
    s = q.dtype.type(scale)

    def per_row(reduce, x):  # each entry's reduction over its map row
        return np.repeat(reduce.reduceat(x, starts), live_sizes)

    def weight_map(data):
        return sp.csr_matrix((data, indices, indptr), shape=(rows * h, cols * h))

    def by_head(x):  # (n, d) -> (n·h, d / h) view, row n·h + j holding head j
        return x.reshape(-1, width // h)

    # softmax over each map row of the scores, in place
    w = _pair_dots(q.data, owner, k.data, keys, h).reshape(-1)[order]
    w *= s
    w -= per_row(np.maximum, w)
    np.exp(w, out=w)
    w /= per_row(np.add, w)
    weights = weight_map(w)
    merged = (weights @ by_head(v.data)).reshape(rows, width)

    def backward_fn(g):
        dw = _pair_dots(g, owner, v.data, keys, h).reshape(-1)[order]
        ds = dw - per_row(np.add, dw * w)
        ds *= w
        ds *= s
        dscores = weight_map(ds)
        return (
            (dscores @ by_head(k.data)).reshape(rows, width),
            (dscores.T @ by_head(q.data)).reshape(cols, width),
            (weights.T @ by_head(g)).reshape(cols, width),
        )

    return _op_output(merged, (q, k, v), backward_fn)


def weighted_nll(scores: Tensor, labels, weights) -> Tensor:
    """Weighted negative log-likelihood as one graph node:
    ``-sum_i weights[i] * log_softmax(scores)[i, labels[i]]``.

    ``scores`` is (N, C), and every label must lie in [0, C); ``weights`` is
    cast to the scores' dtype. The closure keeps the (N, C) log-softmax, the
    labels and the weights. The backward pass puts each row's weighted
    gradient in its label's column and subtracts the softmax times the row
    sum.
    """
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=scores.dtype)
    _check(scores.data.ndim == 2 and labels.shape == weights.shape == (scores.shape[0],),
           "weighted_nll", scores.shape, labels.shape, weights.shape)
    classes = scores.shape[1]
    out_of_range = (labels < 0) | (labels >= classes)
    if out_of_range.any():
        raise ValueError(f"label {labels[out_of_range][0]} out of range for {classes} classes")
    shift = scores.data - scores.data.max(axis=-1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    logp = logp.astype(scores.dtype, copy=False)

    def backward_fn(g):
        dlogp = np.zeros(logp.shape, dtype=logp.dtype)
        dlogp[np.arange(labels.size), labels] = weights * -g
        return (dlogp - np.exp(logp) * dlogp.sum(axis=-1, keepdims=True),)

    loss = -(logp[np.arange(labels.size), labels] * weights).sum()
    return _op_output(loss, (scores,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalization over the last axis with learnable gain and shift.

    Uses the population variance of each row plus ``LAYER_NORM_EPS``, the
    default of ``torch.nn.LayerNorm``. The backward pass recomputes
    the normalized input from the kept row mean and inverse deviation.
    """
    width = x.shape[-1]
    _check(gamma.shape == (width,) and beta.shape == (width,), "layer_norm", x.shape, gamma.shape)
    mean = x.data.mean(axis=-1, keepdims=True)
    out = x.data - mean
    var = (out**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    # normalize, scale and shift the centered array in place
    out *= inv_std
    out *= gamma.data
    out += beta.data

    def backward_fn(g):
        xhat = x.data - mean
        xhat *= inv_std
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std,
        # built in the dxhat buffer, with xhat turned into the last term
        dx = g * gamma.data
        dx_mean = dx.mean(axis=-1, keepdims=True)
        xhat *= (dx * xhat).mean(axis=-1, keepdims=True)
        dx -= dx_mean
        dx -= xhat
        dx *= inv_std
        return dx, dgamma, dbeta

    return _op_output(out, (x, gamma, beta), backward_fn)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at training time; identity in eval mode."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= p
    # one scale rounded to the dtype, so values equal those of a float mask
    # holding 0 and 1/(1-p)
    s = x.dtype.type(1.0) / x.dtype.type(1.0 - p)
    out_data = x.data * keep
    out_data *= s

    def backward_fn(g):
        gx = g * keep
        gx *= s
        return (gx,)

    return _op_output(out_data, (x,), backward_fn)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad`` of leaves.

    Walks the graph nodes under ``loss``. Leaves are reachable tensors that
    require gradients and were made by no op, such as parameters; their
    gradients add onto any existing ``.grad``, so per-sample losses in a
    batch can be accumulated by repeated calls on separate graphs. Op
    outputs keep ``.grad`` None. No op's backward writes into the gradient
    it receives, so one gradient array may be handed to several parents
    uncopied; only a leaf takes its own copy.

    The graph is consumed: right after a node's closure has run, the node
    drops the closure and its parent links, so each array the closure read
    is freed as soon as the traversal has passed it (unless the caller holds
    it). A node's gradient leaves the traversal's bookkeeping as it is passed
    to the closure, so it dies as soon as the closure stops using it. A
    second call that reaches a consumed node raises ValueError before any
    gradient is computed.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = _graph_node(loss)
    # iterative post-order over the nodes that require gradients
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise ValueError("backward: the graph was already consumed by an earlier backward")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    # popping walks the reverse post-order and drops the list's reference
    while topo:
        node = topo.pop()
        if node._parents:
            # backward keeps no reference to the gradient it hands the closure
            _accumulate(grads, node._parents, node._backward_fn(grads.pop(id(node))))
            node._parents = node._backward_fn = None
        else:
            g = grads.pop(id(node))
            node.grad = g.copy() if node.grad is None else node.grad + g


def _accumulate(grads: dict[int, np.ndarray], parents, parent_grads) -> None:
    """Add each parent's gradient into ``grads``, parents in order; the
    received arrays die with this call unless ``grads`` keeps them."""
    for parent, pg in zip(parents, parent_grads):
        if parent.requires_grad:
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
