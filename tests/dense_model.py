"""Reference two-stream network with the cluster stream held densely.

This is the original formulation of the paper, kept as the oracle for
``meshseg.model``: the cluster stream carries one row per triangle (N
copies of each cluster token), the triangle-from-cluster update is an
N x N cluster-average matmul, and every attention, triangle
self-attention included, is an N x N masked attention computed one head
at a time. In eval mode it computes the same scores as the model's
K-token cluster stream and neighbor-table triangle attention; it is slow
and memory-hungry, so it is only run on the small test samples.
"""

from dataclasses import dataclass

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor, _as_tensor, _check, _softmax
from meshseg.errors import ConfigError
from meshseg.model import _dropout, _layer_norm, _masked_features

from conftest import dense_adjacency


def co_membership(ids) -> np.ndarray:
    """Binary matrix with 1 where two triangles share a cluster id (J J^T)."""
    ids = np.asarray(ids)
    return (ids[:, np.newaxis] == ids[np.newaxis, :]).astype(np.float64)


# ---------------------------------------------------------------------------
# autodiff ops used only by this oracle: ReLU for its unfused linear layers,
# the rest for its per-head attention


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0), _parents=(a,))
    # subgradient at 0 is taken as 0
    out._backward_fn = lambda g: (g * (a.data > 0),)
    return out


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    _check(a.data.ndim == 2, "transpose", a.shape)
    out = Tensor(a.data.T.copy(), _parents=(a,))
    out._backward_fn = lambda g: (g.T,)
    return out


def concat_last(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    widths = [t.shape[-1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1), _parents=tuple(tensors))

    def backward_fn(g):
        return tuple(np.split(g, np.cumsum(widths)[:-1], axis=-1))

    out._backward_fn = backward_fn
    return out


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data[..., start:stop].copy(), _parents=(a,))

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[..., start:stop] = g
        return (ga,)

    out._backward_fn = backward_fn
    return out


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.shape[axis]
    return ad.scale(ad.reduce_sum(a, axis=axis), 1.0 / count)


def masked_softmax(scores: Tensor, mask) -> Tensor:
    """Row softmax of ``scores + mask`` for an additive mask.

    A mask entry of -inf blocks its column; a finite entry is a bias added
    to the score (0 leaves it unchanged). Rows that are entirely blocked
    produce all zeros (not NaN) and contribute zero gradient.
    """
    scores = _as_tensor(scores)
    mask = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=scores.dtype)
    _check(mask.shape == scores.shape, "masked_softmax", scores.shape, mask.shape)
    y = _softmax(scores.data + mask)
    out = Tensor(y, _parents=(scores,))

    def backward_fn(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    out._backward_fn = backward_fn
    return out


def _linear(p, name, x, activation=False):
    """Linear layer as separate matmul, bias add and ReLU nodes."""
    out = ad.add(ad.matmul(x, p[f"{name}.w"]), p[f"{name}.b"])
    return relu(out) if activation else out


def multi_head_attention(p, name, q_in, k_in, v_in, mask, num_heads):
    """Masked multi-head attention, one head at a time, with per-head width
    d / num_heads and a dense additive (rows, keys) mask."""
    q = ad.matmul(q_in, p[f"{name}.wq"])
    k = ad.matmul(k_in, p[f"{name}.wk"])
    v = ad.matmul(v_in, p[f"{name}.wv"])
    d = q.shape[-1]
    head_dim = d // num_heads
    scale = 1.0 / np.sqrt(head_dim)
    heads = []
    for h in range(num_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh = slice_last(q, lo, hi)
        kh = slice_last(k, lo, hi)
        vh = slice_last(v, lo, hi)
        scores = ad.scale(ad.matmul(qh, transpose(kh)), scale)
        weights = masked_softmax(scores, mask)
        heads.append(ad.matmul(weights, vh))
    merged = heads[0] if num_heads == 1 else concat_last(heads)
    return ad.matmul(merged, p[f"{name}.wo"])


@dataclass(frozen=True)
class DenseMasks:
    """Additive masks (0 allowed, -inf blocked) plus the row-normalized
    co-membership used for cluster averaging."""

    adjacency: np.ndarray  # self plus dual-graph neighbors
    cluster: np.ndarray  # same-cluster pairs (diagonal allowed)
    cluster_avg: np.ndarray  # row-normalized co-membership
    real: np.ndarray  # real columns (plus self) for the cluster stream


def dense_masks(sample, dtype=np.float64) -> DenseMasks:
    n = sample.n_total
    neg_inf = -np.inf
    eye = np.eye(n, dtype=bool)

    allowed_adj = eye | (dense_adjacency(sample.adjacency) > 0)
    adjacency = np.where(allowed_adj, 0.0, neg_inf).astype(dtype)

    co = co_membership(sample.cluster_ids) > 0
    cluster = np.where(co, 0.0, neg_inf).astype(dtype)
    cluster_avg = (co / co.sum(axis=1, keepdims=True)).astype(dtype)

    # the cluster stream attends over real faces only; padding rows keep a
    # self-loop so their residual path stays finite
    allowed_real = sample.real_mask[np.newaxis, :] | eye
    real = np.where(allowed_real, 0.0, neg_inf).astype(dtype)
    return DenseMasks(adjacency=adjacency, cluster=cluster, cluster_avg=cluster_avg, real=real)


def dense_layer(p, prefix, e_tok, p_tok, masks, cfg, training, rng):
    """One two-stream layer; both cross-stream updates read the layer input."""
    if not cfg.use_cluster_stream:
        sa = multi_head_attention(
            p, f"{prefix}.sa_t", *([_layer_norm(p, f"{prefix}.sa_t.ln", e_tok)] * 3),
            masks.adjacency, cfg.num_heads,
        )
        e_mid = ad.add(_dropout(sa, cfg, training, rng), e_tok)
        e_out = ad.add(
            _dropout(
                _linear(p, f"{prefix}.res_t.ff2",
                        _linear(p, f"{prefix}.res_t.ff1",
                                _layer_norm(p, f"{prefix}.res_t.ln", e_mid), activation=True)),
                cfg, training, rng,
            ),
            e_mid,
        )
        return e_out, p_tok

    # triangle-from-cluster update: normalized tokens plus a projection of
    # the per-cluster average (or literal sum) of cluster tokens
    if cfg.tc_sum:
        cp = (masks.cluster_avg > 0).astype(masks.cluster_avg.dtype)
    else:
        cp = masks.cluster_avg
    cluster_mix = ad.matmul(Tensor(cp), p_tok)
    tc = ad.add(
        _layer_norm(p, f"{prefix}.tc.ln", e_tok),
        _dropout(_linear(p, f"{prefix}.tc.ff", cluster_mix, activation=True), cfg, training, rng),
    )

    # cluster-from-triangle update: queries from normalized cluster tokens,
    # keys/values from the raw triangle tokens, same-cluster mask
    ct_attn = multi_head_attention(
        p, f"{prefix}.ct", _layer_norm(p, f"{prefix}.ct.ln", p_tok), e_tok, e_tok,
        masks.cluster, cfg.num_heads,
    )
    ct = ad.add(_dropout(ct_attn, cfg, training, rng), p_tok)

    sa_t_in = _layer_norm(p, f"{prefix}.sa_t.ln", tc)
    sa_t = multi_head_attention(
        p, f"{prefix}.sa_t", sa_t_in, sa_t_in, sa_t_in, masks.adjacency, cfg.num_heads
    )
    e_mid = ad.add(_dropout(sa_t, cfg, training, rng), tc)

    sa_p_in = _layer_norm(p, f"{prefix}.sa_p.ln", ct)
    sa_p = multi_head_attention(
        p, f"{prefix}.sa_p", sa_p_in, sa_p_in, sa_p_in, masks.real, cfg.num_heads
    )
    p_mid = ad.add(_dropout(sa_p, cfg, training, rng), ct)

    e_out = ad.add(
        _dropout(
            _linear(p, f"{prefix}.res_t.ff2",
                    _linear(p, f"{prefix}.res_t.ff1",
                            _layer_norm(p, f"{prefix}.res_t.ln", e_mid), activation=True)),
            cfg, training, rng,
        ),
        e_mid,
    )
    p_out = ad.add(
        _dropout(
            _linear(p, f"{prefix}.res_p.ff2",
                    _linear(p, f"{prefix}.res_p.ff1",
                            _layer_norm(p, f"{prefix}.res_p.ln", p_mid), activation=True)),
            cfg, training, rng,
        ),
        p_mid,
    )
    return e_out, p_out


def dense_forward(sample, params, cfg, training=False, rng=None) -> Tensor:
    """Per-triangle class scores, shape (n_total, num_classes)."""
    if sample.features.shape[1] != cfg.feature_width:
        raise ConfigError(
            f"feature width {sample.features.shape[1]} != configured {cfg.feature_width}"
        )
    dtype = params["embed.w"].dtype
    masks = dense_masks(sample, dtype=dtype)

    t = Tensor(_masked_features(sample, cfg, dtype))
    e_tok = _dropout(_linear(params, "embed", t, activation=True), cfg, training, rng)
    p_tok = ad.embedding_lookup(params["cluster_embed"], sample.cluster_ids)

    for i in range(cfg.num_layers):
        e_tok, p_tok = dense_layer(params, f"layers.{i}", e_tok, p_tok, masks, cfg, training, rng)

    hidden = _dropout(_linear(params, "head.ff1", e_tok, activation=True), cfg, training, rng)
    return _linear(params, "head.ff2", hidden)
