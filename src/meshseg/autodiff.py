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
network and its loss need are provided, each one graph node for a whole
step of the network: a projection with its optional bias and ReLU, a
feed-forward block of two projections around a ReLU and an optional
dropout, an attention with all its heads, a dropout with its optional
residual addition, the loss. There are no views. An op may change in place
only arrays that it alone holds: its own temporaries, and a value that no
other node reads, such as the feed-forward block's hidden activation,
which its backward frees before it allocates the hidden gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "linear",
    "feed_forward",
    "embedding_lookup",
    "attention",
    "ListingPlan",
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ w``, plus the bias ``b`` when given, optionally followed by
    ReLU, as one graph node.

    The bias and the ReLU are applied in place on the product, so the node
    keeps no pre-bias or pre-activation copy; the backward pass masks by
    ``out > 0``, which takes the subgradient at 0 as 0. Without the ReLU
    the backward closure keeps no reference to ``out``. An ``x`` that
    requires no gradient gets None, and its product is never computed.
    """
    has_bias = b is not None
    _check(
        x.data.ndim == 2 and w.data.ndim == 2 and x.shape[1] == w.shape[0]
        and (not has_bias or b.shape == (w.shape[1],)),
        "linear",
        x.shape,
        w.shape,
        *((b.shape,) if has_bias else ()),
    )
    y = x.data @ w.data
    if has_bias:
        y += b.data
    if relu:
        np.maximum(y, 0, out=y)

    # the closure keeps the output only when the ReLU mask needs it
    active = y if relu else None
    needs_dx = x.requires_grad

    def backward_fn(g):
        if active is not None:
            g = g * (active > 0)
        grads = (g @ w.data.T if needs_dx else None, x.data.T @ g)
        return (*grads, g.sum(axis=0)) if has_bias else grads

    return _op_output(y, (x, w, b) if has_bias else (x, w), backward_fn)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, p: float = 0.0,
                 training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """``relu(x @ w1 + b1)``, then inverted dropout with probability ``p``
    at training time, then ``@ w2 + b2``, as one graph node.

    The float operations, and the rng draw of the dropout mask, are those
    of ``linear(x, w1, b1, relu=True)``, ``dropout`` and ``linear(·, w2,
    b2)`` in turn, so values and gradients equal that chain's bit for bit.
    No other node reads the hidden activation, so the closure keeps it in a
    one-slot holder that the backward empties: it reads the hidden array
    for the ``w2`` gradient and its ``> 0`` mask, and drops it before it
    allocates the hidden gradient, which it then masks in place by the
    dropout mask, the dropout scale and that mask. After dropout, ``> 0``
    is the ReLU mask and the dropout mask together, and the hidden gradient
    already carries the dropout mask's zeros. An ``x`` that requires no
    gradient gets None.
    """
    _check(
        x.data.ndim == 2 and w1.data.ndim == 2 and w2.data.ndim == 2
        and x.shape[1] == w1.shape[0] and b1.shape == (w1.shape[1],)
        and w2.shape[0] == w1.shape[1] and b2.shape == (w2.shape[1],),
        "feed_forward",
        x.shape, w1.shape, b1.shape, w2.shape, b2.shape,
    )
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    drops = training and p > 0.0
    if drops and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0, out=hidden)
    keep = s = None
    if drops:
        keep = rng.random(hidden.shape) >= p
        # the scale of ``dropout``, rounded to the dtype
        s = hidden.dtype.type(1.0) / hidden.dtype.type(1.0 - p)
        hidden *= keep
        hidden *= s
    out = hidden @ w2.data
    out += b2.data
    held = [hidden]
    needs_dx = x.requires_grad

    def backward_fn(g):
        hidden = held.pop()
        dw2 = hidden.T @ g
        active = hidden > 0
        del hidden
        db2 = g.sum(axis=0)
        dh = g @ w2.data.T
        if keep is not None:
            dh *= keep
            dh *= s
        dh *= active
        del active
        return (dh @ w1.data.T if needs_dx else None, x.data.T @ dh, dh.sum(axis=0), dw2, db2)

    return _op_output(out, (x, w1, b1, w2, b2), backward_fn)


def _csr_product(kernel, shape, indptr, indices, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sparse map of ``shape`` with entries ``data`` at ``indptr`` and
    ``indices``, read by ``kernel`` (scipy's ``csr_matvecs`` or
    ``csc_matvecs``), times the 2-D array ``x``: the kernel that a scipy
    sparse matrix times a dense array runs, with no matrix object."""
    dtype = np.result_type(data, x)
    out = np.zeros((shape[0], x.shape[1]), dtype=dtype)
    # the kernel reads its arrays through raw pointers
    kernel(*shape, x.shape[1], indptr, indices, data.astype(dtype, copy=False),
           np.ascontiguousarray(x, dtype=dtype).ravel(), out.ravel())
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row gather from an embedding table; gradients scatter-add back
    through one sparse map of ones, whose row t lists the lookups of table
    row t in ascending order, so each row sums them in the order
    ``np.add.at`` would. The backward builds the map's row starts and a
    stable sort of the lookups by row, int32 when they fit, and runs
    scipy's kernel on them directly."""
    ids = np.asarray(ids, dtype=np.int64)
    _check(table.data.ndim == 2, "embedding_lookup", table.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range: max {ids.max()} for table of {table.shape[0]} rows"
        )

    (rows, width), dtype = table.shape, table.dtype

    def backward_fn(g):
        # lookup i sends its gradient to table row ids[i]
        targets = ids.reshape(-1)
        index = np.int32 if max(rows, ids.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(rows + 1, dtype=index)
        np.cumsum(np.bincount(targets, minlength=rows), out=indptr[1:])
        slots = np.argsort(targets, kind="stable").astype(index, copy=False)
        return (_csr_product(_sparsetools.csr_matvecs, (rows, ids.size), indptr, slots,
                             np.ones(ids.size, dtype=dtype), g.reshape(ids.size, width)),)

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


class ListingPlan:
    """The fixed index structure of attention over one CSR listing.

    A listing (``keys``, ``ptr``) of P pairs lets query row r see the key
    rows ``keys[ptr[r]:ptr[r + 1]]`` of ``key_count`` key rows. The plan
    checks it once and builds what every :func:`segment_attention` call over
    it reuses, for ``num_heads`` heads:

    - ``order``: for each entry of the sparse (R·h, C·h) weight map, its
      (pair, head) entry. Map row r·h + j holds query r's pairs in head j,
      in listing order.
    - ``indices`` and ``indptr``: the map's CSR column indices and row
      starts, int32 when they fit. Read column by column (CSC), the same
      arrays are the map's transpose, each of whose rows sums its entries
      in map order.
    - ``starts`` and ``live_sizes``: the first entry and the entry count of
      each nonempty map row, for the per-row reductions of the softmax.

    A call fills the map with its weights and runs scipy's sparse kernels
    on it directly, with no per-call index building and no matrix object.
    """

    __slots__ = ("keys", "ptr", "num_heads", "rows", "cols", "owner", "order",
                 "indices", "indptr", "starts", "live_sizes")

    def __init__(self, keys, ptr, key_count: int, num_heads: int):
        keys = np.asarray(keys, dtype=np.int64)
        ptr = np.asarray(ptr, dtype=np.int64)
        sizes = np.diff(ptr)
        _check(keys.ndim == 1 and ptr.ndim == 1 and ptr.size >= 1 and ptr[0] == 0
               and ptr[-1] == keys.size and (sizes >= 0).all() and num_heads >= 1,
               "ListingPlan", keys.shape, ptr.shape)
        if keys.size and (keys.min() < 0 or keys.max() >= key_count):
            raise IndexError(f"segment key out of range for {key_count} key rows")
        rows, h, pairs = ptr.size - 1, num_heads, keys.size
        self.keys, self.ptr, self.num_heads, self.rows, self.cols = keys, ptr, h, rows, key_count
        self.owner = np.repeat(np.arange(rows), sizes)  # the query row of each pair
        # map row r·h + j holds query r's pairs in head j, in listing order,
        # from entry start[r, j] = ptr[r]·h + j·sizes[r] on
        start = ptr[:-1, np.newaxis] * h + np.arange(h) * sizes[:, np.newaxis]
        entry = start[self.owner] + (np.arange(pairs) - ptr[self.owner])[:, np.newaxis]
        self.order = np.empty(pairs * h, dtype=np.int64)  # map entry -> (pair, head) entry
        self.order[entry.reshape(-1)] = np.arange(pairs * h)
        fits = max(rows * h, key_count * h, pairs * h) <= np.iinfo(np.int32).max
        index = np.int32 if fits else np.int64
        self.indices = (keys[:, np.newaxis] * h + np.arange(h)).reshape(-1)[self.order].astype(index)
        self.indptr = np.append(start.reshape(-1), pairs * h).astype(index)
        row_sizes = np.repeat(sizes, h)
        live = row_sizes > 0
        self.starts, self.live_sizes = start.reshape(-1)[live], row_sizes[live]

    @property
    def nbytes(self) -> int:
        """Bytes of the plan's arrays."""
        return sum(getattr(self, name).nbytes for name in self.__slots__
                   if isinstance(getattr(self, name), np.ndarray))

    def per_row(self, reduce, x: np.ndarray) -> np.ndarray:
        """Each map entry's ``reduce`` over its map row."""
        return np.repeat(reduce.reduceat(x, self.starts), self.live_sizes)

    def product(self, data: np.ndarray, x: np.ndarray, transposed: bool = False) -> np.ndarray:
        """The map with entries ``data`` (map order), or its transpose,
        times the (C·h, w) or (R·h, w) array ``x``."""
        shape = (self.rows * self.num_heads, self.cols * self.num_heads)
        kernel = _sparsetools.csr_matvecs
        if transposed:
            shape, kernel = shape[::-1], _sparsetools.csc_matvecs
        _check(data.shape == self.indices.shape and x.ndim == 2 and x.shape[0] == shape[1],
               "ListingPlan.product", data.shape, x.shape, shape)
        return _csr_product(kernel, shape, self.indptr, self.indices, data, x)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, plan: ListingPlan, scale: float) -> Tensor:
    """Multi-head attention of each query row over its own list of key rows.

    Row r of ``q`` (R, d) attends only to the key/value rows
    ``keys[ptr[r]:ptr[r + 1]]`` of ``k`` and ``v`` (C, d), where ``plan``
    is the :class:`ListingPlan` of the listing (``keys``, ``ptr``) for C key
    rows and h heads. A key row may be listed in many segments, and a key
    listed twice in one segment weighs as much as two copies of it. The
    heads split the columns as in :func:`attention`; a row whose segment is
    empty outputs zeros.

    The weights fill the plan's (R·h, C·h) map, whose row r·h + j holds
    query r's weights in head j, so the output is that map times the
    (C·h, d / h) view of ``v``, and the transposed maps send the key and
    value gradients back, each key row summing its pairs in listing order.
    Scores and their per-segment max and sum live on narrow arrays of one
    entry per pair and head. Forward and backward cost O(P·d); no (R, C)
    array and no (P, d) copy is made.
    """
    h = plan.num_heads
    _check_heads("segment_attention", q, k, v, h)
    (rows, width), cols = q.shape, k.shape[0]
    _check(rows == plan.rows and cols == plan.cols,
           "segment_attention", q.shape, k.shape, (plan.rows, plan.cols))
    s = q.dtype.type(scale)

    def by_head(x):  # (n, d) -> (n·h, d / h) view, row n·h + j holding head j
        return x.reshape(-1, width // h)

    # softmax over each map row of the scores, in place
    w = _pair_dots(q.data, plan.owner, k.data, plan.keys, h).reshape(-1)[plan.order]
    w *= s
    w -= plan.per_row(np.maximum, w)
    np.exp(w, out=w)
    w /= plan.per_row(np.add, w)
    merged = plan.product(w, by_head(v.data)).reshape(rows, width)

    def backward_fn(g):
        dw = _pair_dots(g, plan.owner, v.data, plan.keys, h).reshape(-1)[plan.order]
        ds = dw - plan.per_row(np.add, dw * w)
        ds *= w
        ds *= s
        return (
            plan.product(ds, by_head(k.data)).reshape(rows, width),
            plan.product(ds, by_head(q.data), transposed=True).reshape(cols, width),
            plan.product(w, by_head(g), transposed=True).reshape(cols, width),
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
    Row means are ``np.add.reduce`` sums divided in place by the width,
    the float operations of ``np.mean`` without its Python wrapper.
    """
    width = x.shape[-1]
    _check(gamma.shape == (width,) and beta.shape == (width,), "layer_norm", x.shape, gamma.shape)
    mean = np.add.reduce(x.data, axis=-1, keepdims=True)
    mean /= width
    out = x.data - mean
    inv_std = np.add.reduce(np.square(out), axis=-1, keepdims=True)
    inv_std /= width
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    # normalize, scale and shift the centered array in place
    out *= inv_std
    out *= gamma.data
    out += beta.data

    def backward_fn(g):
        xhat = x.data - mean
        xhat *= inv_std
        lead = tuple(range(g.ndim - 1))
        dgamma = np.add.reduce(g * xhat, axis=lead)
        dbeta = np.add.reduce(g, axis=lead)
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std,
        # built in the dxhat buffer, with xhat turned into the last term
        dx = g * gamma.data
        dx_mean = np.add.reduce(dx, axis=-1, keepdims=True)
        dx_mean /= width
        proj = np.add.reduce(dx * xhat, axis=-1, keepdims=True)
        proj /= width
        xhat *= proj
        dx -= dx_mean
        dx -= xhat
        dx *= inv_std
        return dx, dgamma, dbeta

    return _op_output(out, (x, gamma, beta), backward_fn)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None,
            residual: Tensor | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at training time; identity in eval mode. With a ``residual`` of
    the shape of ``x``, ``dropout(x) + residual`` as one graph node, in
    eval mode too."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if residual is not None:
        _check(residual.shape == x.shape, "dropout", x.shape, residual.shape)
    if not training or p == 0.0:
        if residual is None:
            return x
        return _op_output(x.data + residual.data, (x, residual), lambda g: (g, g))
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= p
    # one scale rounded to the dtype, so values equal those of a float mask
    # holding 0 and 1/(1-p)
    s = x.dtype.type(1.0) / x.dtype.type(1.0 - p)
    out_data = x.data * keep
    out_data *= s
    # the closure must not capture ``residual``: it would keep its array alive
    fused = residual is not None
    if fused:
        out_data += residual.data

    def backward_fn(g):
        gx = g * keep
        gx *= s
        return (gx, g) if fused else (gx,)

    return _op_output(out_data, (x, residual) if fused else (x,), backward_fn)


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
