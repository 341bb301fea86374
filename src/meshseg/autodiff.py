"""Minimal dense tensor library with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record their provenance; ``backward`` walks
the graph in reverse topological order with a deterministic accumulation
order. Only the primitives the segmentation network needs are provided:
no general broadcasting beyond bias addition, no views, no in-place math
on live graph nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "matmul",
    "add",
    "mul",
    "scale",
    "linear",
    "reduce_sum",
    "embedding_lookup",
    "attention",
    "neighbor_attention",
    "log_softmax",
    "gather_rows",
    "layer_norm",
    "dropout",
    "backward",
]


class ShapeMismatchError(ValueError):
    pass


def _check(cond: bool, op: str, *shapes):
    if not cond:
        raise ShapeMismatchError(f"{op}: incompatible shapes {' and '.join(map(str, shapes))}")


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation.

    ``grad`` is populated (or accumulated into) by :func:`backward` on
    leaves, tensors without parents; constants built from plain arrays do
    not require gradients and are pruned from the traversal.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)

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


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check(
        a.data.ndim == 2 and b.data.ndim == 2 and a.shape[1] == b.shape[0],
        "matmul",
        a.shape,
        b.shape,
    )
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def backward_fn(g):
        return g @ b.data.T, a.data.T @ g

    out._backward_fn = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition; the second operand may be a 1-D bias broadcast
    over the last axis."""
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    bias = b.data.ndim == 1 and a.data.ndim > 1
    _check(
        a.shape == b.shape or (bias and a.shape[-1] == b.shape[0]),
        "add",
        a.shape,
        b.shape,
    )
    out = Tensor(a.data + b.data, _parents=(a, b))

    def backward_fn(g):
        gb = g.sum(axis=tuple(range(g.ndim - 1))) if bias else g
        return g, gb

    out._backward_fn = backward_fn
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check(a.shape == b.shape, "mul", a.shape, b.shape)
    out = Tensor(a.data * b.data, _parents=(a, b))

    def backward_fn(g):
        return g * b.data, g * a.data

    out._backward_fn = backward_fn
    return out


def scale(a: Tensor, s: float) -> Tensor:
    a = _as_tensor(a)
    s = a.dtype.type(s)
    out = Tensor(a.data * s, _parents=(a,))
    out._backward_fn = lambda g: (g * s,)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b``, optionally followed by ReLU, as one graph node.

    The bias and the ReLU are applied in place on the product, so the node
    keeps no pre-bias or pre-activation copy; the backward pass masks by
    ``out > 0``, which takes the subgradient at 0 as 0.
    """
    x, w, b = _as_tensor(x), _as_tensor(w, like=x), _as_tensor(b, like=x)
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
    out = Tensor(y, _parents=(x, w, b))

    def backward_fn(g):
        if relu:
            g = g * (y > 0)
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    out._backward_fn = backward_fn
    return out


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis), _parents=(a,))

    def backward_fn(g):
        if axis is None:
            return (np.full_like(a.data, 1.0) * g,)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    out._backward_fn = backward_fn
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row gather from an embedding table; gradients scatter-add back."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    _check(table.data.ndim == 2, "embedding_lookup", table.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range: max {ids.max()} for table of {table.shape[0]} rows"
        )
    out = Tensor(table.data[ids], _parents=(table,))

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    out._backward_fn = backward_fn
    return out


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
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
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
    out = Tensor(merge(np.matmul(w, vh)), _parents=(q, k, v))

    def backward_fn(g):
        gh = heads(g)
        dw = np.matmul(gh, vh.transpose(0, 2, 1))
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * s
        return (
            merge(np.matmul(ds, kh)),
            merge(np.matmul(ds.transpose(0, 2, 1), qh)),
            merge(np.matmul(w.transpose(0, 2, 1), gh)),
        )

    out._backward_fn = backward_fn
    return out


def neighbor_attention(
    q: Tensor, k: Tensor, v: Tensor, index, bias, num_heads: int, scale: float
) -> Tensor:
    """Multi-head attention over a padded neighbor table.

    Row r of ``q`` (R, d) attends only to the key/value rows
    ``index[r, j]`` of ``k`` and ``v`` (C, d), with the additive bias
    ``bias[r, j]``; -inf marks an empty slot, whose index is ignored. The
    heads split the columns as in :func:`attention`. Costs O(R·m·d) for m
    slots per row instead of O(R·C·d). The backward pass gathers the slot
    rows again and scatter-adds their key and value gradients through one
    sparse map.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_heads("neighbor_attention", q, k, v, num_heads)
    index = np.asarray(index, dtype=np.int64)
    bias = np.asarray(bias, dtype=q.dtype)
    rows, width = q.shape
    _check(index.ndim == 2 and index.shape[0] == rows and bias.shape == index.shape,
           "neighbor_attention", q.shape, index.shape, bias.shape)
    if index.size and (index.min() < 0 or index.max() >= k.shape[0]):
        raise IndexError(f"neighbor index out of range for {k.shape[0]} key rows")
    m = index.shape[1]
    s = q.dtype.type(scale)
    qh = q.data.reshape(rows, num_heads, -1)  # (R, h, dh)

    def gather(x):  # (C, d) -> (R, m, h, dh) copy of the slots' rows
        return x.data[index].reshape(rows, m, num_heads, -1)

    w = _softmax(np.einsum("nhd,nmhd->nmh", qh, gather(k)) * s + bias[:, :, np.newaxis], axis=1)
    merged = np.einsum("nmh,nmhd->nhd", w, gather(v)).reshape(rows, width)
    out = Tensor(merged, _parents=(q, k, v))

    def backward_fn(g):
        # gathering again costs less than keeping two (R, m, d) copies alive
        kg, vg = gather(k), gather(v)
        gh = g.reshape(rows, num_heads, -1)
        dw = np.einsum("nhd,nmhd->nmh", gh, vg)
        ds = w * (dw - (dw * w).sum(axis=1, keepdims=True)) * s
        # slot (r, j) sends its gradient to key row index[r, j]
        live = np.flatnonzero(np.isfinite(bias).reshape(-1))
        scatter = sp.csr_matrix(
            (np.ones(live.size, dtype=q.dtype), (index.reshape(-1)[live], live)),
            shape=(k.shape[0], rows * m),
        )
        dkg = ds[..., np.newaxis] * qh[:, np.newaxis]
        dvg = w[..., np.newaxis] * gh[:, np.newaxis]
        return (
            np.einsum("nmh,nmhd->nhd", ds, kg).reshape(rows, width),
            scatter @ dkg.reshape(rows * m, width),
            scatter @ dvg.reshape(rows * m, width),
        )

    out._backward_fn = backward_fn
    return out


def log_softmax(a: Tensor) -> Tensor:
    """Numerically stable log-softmax over the last axis."""
    a = _as_tensor(a)
    shift = a.data - a.data.max(axis=-1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    logp = logp.astype(a.dtype, copy=False)
    out = Tensor(logp, _parents=(a,))

    def backward_fn(g):
        return (g - np.exp(logp) * g.sum(axis=-1, keepdims=True),)

    out._backward_fn = backward_fn
    return out


def gather_rows(a: Tensor, cols) -> Tensor:
    """Pick one entry per row of a matrix: ``out[i] = a[i, cols[i]]``."""
    a = _as_tensor(a)
    cols = np.asarray(cols, dtype=np.int64)
    _check(a.data.ndim == 2 and cols.shape == (a.shape[0],), "gather_rows", a.shape, cols.shape)
    rows = np.arange(a.shape[0])
    out = Tensor(a.data[rows, cols].copy(), _parents=(a,))

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[rows, cols] = g
        return (ga,)

    out._backward_fn = backward_fn
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain and shift.

    Uses the population variance of each row. The backward pass recomputes
    the normalized input from the kept row mean and inverse deviation.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    width = x.shape[-1]
    _check(gamma.shape == (width,) and beta.shape == (width,), "layer_norm", x.shape, gamma.shape)
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Tensor((xhat * gamma.data + beta.data).astype(x.dtype, copy=False),
                 _parents=(x, gamma, beta))

    def backward_fn(g):
        xhat = (x.data - mean) * inv_std
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return dx, dgamma, dbeta

    out._backward_fn = backward_fn
    return out


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at training time; identity in eval mode."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
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
    out = Tensor(out_data, _parents=(x,))

    def backward_fn(g):
        gx = g * keep
        gx *= s
        return (gx,)

    out._backward_fn = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad`` of leaves.

    Leaves are reachable tensors without parents, such as parameters; their
    gradients add onto any existing ``.grad``, so per-sample losses in a
    batch can be accumulated by repeated calls. Intermediate tensors keep
    ``.grad`` None. No op's backward writes into the gradient it receives,
    so one gradient array may be handed to several parents uncopied; only
    a leaf takes its own copy.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # iterative post-order over the subgraph that requires gradients
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is not None:
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        if not node._parents:
            node.grad = g.copy() if node.grad is None else node.grad + g
