"""Reference implementations of autodiff ops, kept as the oracles of
``meshseg.autodiff``, and the small ops the tests build graphs from.

The five ops ``mul``, ``scale``, ``reduce_sum``, ``log_softmax`` and
``gather_rows`` are the ones the area-weighted loss was built from before
it became ``autodiff.weighted_nll``. ``weighted_nll_oracle`` chains them
as the loss did, and the fused op must agree with it bit for bit. The
tests also use them to turn an op's output into a scalar loss.

Two oracles are ops whose memory use was cut, each as it was before:

- ``layer_norm_oracle`` builds its output and its input gradient from
  full-size temporaries, where ``autodiff.layer_norm`` works in place.
- ``embedding_lookup_oracle`` scatters its gradient with ``np.add.at``,
  where ``autodiff.embedding_lookup`` uses one sparse product.

Both must agree with the library ops bit for bit.

The two oracles of ``autodiff.segment_attention`` sum in other orders, so
they agree with it to rounding, not bit for bit:

- ``neighbor_attention_oracle`` is the triangle self-attention as the model
  ran it before: attention over a padded (R, m) table of key rows, with
  -inf on the empty slots, whose key and value gradients scatter back with
  ``np.add.at``.
- ``cluster_attention_oracle`` is the cluster-from-triangle attention as
  the model ran it before its CSR op: ``ad.attention`` under a dense
  (K, N) membership mask, which makes (heads, K, N) scores.
"""

from __future__ import annotations

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor, _check, _check_heads, _op_output, _softmax


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check(a.shape == b.shape, "mul", a.shape, b.shape)

    def backward_fn(g):
        return g * b.data, g * a.data

    return _op_output(a.data * b.data, (a, b), backward_fn)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    return _op_output(a.data * s, (a,), lambda g: (g * s,))


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape, dtype = a.shape, a.dtype

    def backward_fn(g):
        if axis is None:
            return (np.full(shape, 1.0, dtype=dtype) * g,)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _op_output(a.data.sum(axis=axis), (a,), backward_fn)


def log_softmax(a: Tensor) -> Tensor:
    """Numerically stable log-softmax over the last axis."""
    shift = a.data - a.data.max(axis=-1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    logp = logp.astype(a.dtype, copy=False)

    def backward_fn(g):
        return (g - np.exp(logp) * g.sum(axis=-1, keepdims=True),)

    return _op_output(logp, (a,), backward_fn)


def gather_rows(a: Tensor, cols) -> Tensor:
    """Pick one entry per row of a matrix: ``out[i] = a[i, cols[i]]``."""
    cols = np.asarray(cols, dtype=np.int64)
    _check(a.data.ndim == 2 and cols.shape == (a.shape[0],), "gather_rows", a.shape, cols.shape)
    rows = np.arange(a.shape[0])
    shape, dtype = a.shape, a.dtype

    def backward_fn(g):
        ga = np.zeros(shape, dtype=dtype)
        ga[rows, cols] = g
        return (ga,)

    return _op_output(a.data[rows, cols].copy(), (a,), backward_fn)


def weighted_nll_oracle(scores: Tensor, labels, weights) -> Tensor:
    """The area-weighted loss as the five-op chain that ``train`` ran
    before ``autodiff.weighted_nll``; labels must lie in [0, C)."""
    w = Tensor(np.asarray(weights, dtype=scores.dtype))
    return scale(reduce_sum(mul(gather_rows(log_softmax(scores), labels), w)), -1.0)


def layer_norm_oracle(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out = (centered * inv_std * gamma.data + beta.data).astype(x.dtype, copy=False)

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

    return _op_output(out, (x, gamma, beta), backward_fn)


def embedding_lookup_oracle(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    shape, dtype = table.shape, table.dtype

    def backward_fn(g):
        gt = np.zeros(shape, dtype=dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _op_output(table.data[ids], (table,), backward_fn)


def membership_mask(members, member_ptr, keys) -> np.ndarray:
    """The dense (K, C) additive mask of a CSR listing: 0 where key row i is
    listed in segment r, -inf elsewhere."""
    member_ptr = np.asarray(member_ptr)
    segment = np.repeat(np.arange(member_ptr.size - 1), np.diff(member_ptr))
    membership = np.zeros((member_ptr.size - 1, keys), dtype=bool)
    membership[segment, members] = True
    return np.where(membership, 0.0, -np.inf)


def cluster_attention_oracle(q, k, v, members, member_ptr, num_heads, scale) -> Tensor:
    mask = membership_mask(members, member_ptr, k.shape[0])
    return ad.attention(q, k, v, mask, num_heads, scale)


def neighbor_attention_oracle(q, k, v, index, bias, num_heads, scale) -> Tensor:
    """Row r of ``q`` attends to the key/value rows ``index[r, j]`` under
    the additive bias ``bias[r, j]``; -inf marks an empty slot."""
    _check_heads("neighbor_attention", q, k, v, num_heads)
    index = np.asarray(index, dtype=np.int64)
    bias = np.asarray(bias, dtype=q.dtype)
    (rows, width), m = q.shape, index.shape[1]
    s = q.dtype.type(scale)
    qh = q.data.reshape(rows, num_heads, -1)  # (R, h, dh)

    def gather(x):  # (C, d) -> (R, m, h, dh) copy of the slots' rows
        return x.data[index].reshape(rows, m, num_heads, -1)

    w = _softmax(np.einsum("nhd,nmhd->nmh", qh, gather(k)) * s + bias[:, :, np.newaxis], axis=1)
    merged = np.einsum("nmh,nmhd->nhd", w, gather(v)).reshape(rows, width)

    def backward_fn(g):
        gh = g.reshape(rows, num_heads, -1)
        dw = np.einsum("nhd,nmhd->nmh", gh, gather(v))
        ds = w * (dw - (dw * w).sum(axis=1, keepdims=True)) * s
        dq = np.einsum("nmh,nmhd->nhd", ds, gather(k)).reshape(rows, width)
        live = np.isfinite(bias)
        dk, dv = np.zeros(k.shape, dtype=q.dtype), np.zeros(v.shape, dtype=q.dtype)
        np.add.at(dk, index[live], (ds[..., np.newaxis] * qh[:, np.newaxis])[live].reshape(-1, width))
        np.add.at(dv, index[live], (w[..., np.newaxis] * gh[:, np.newaxis])[live].reshape(-1, width))
        return dq, dk, dv

    return _op_output(merged, (q, k, v), backward_fn)


def table_listing(index, bias):
    """The CSR listing (keys, ptr) of a padded table's live slots, each
    row's slots in table order."""
    live = np.isfinite(np.asarray(bias))
    ptr = np.zeros(live.shape[0] + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=ptr[1:])
    return np.asarray(index)[live], ptr
