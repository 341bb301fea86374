"""Reference implementations of autodiff ops whose memory use was cut:
each op as it was before, kept as the oracle for ``meshseg.autodiff``.

- ``layer_norm_oracle`` builds its output and its input gradient from
  full-size temporaries, where ``autodiff.layer_norm`` works in place.
- ``embedding_lookup_oracle`` scatters its gradient with ``np.add.at``,
  where ``autodiff.embedding_lookup`` uses one sparse product.

Both must agree with the library ops bit for bit.

- ``cluster_attention_oracle`` is the cluster-from-triangle attention as
  the model ran it before ``autodiff.cluster_attention``: ``ad.attention``
  under a dense (K, N) membership mask, which makes (heads, K, N) scores.
  It sums in another order, so the two agree to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor, _as_tensor, _op_output


def layer_norm_oracle(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
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
    table = _as_tensor(table)
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
    mask = membership_mask(members, member_ptr, _as_tensor(k).shape[0])
    return ad.attention(q, k, v, mask, num_heads, scale)
