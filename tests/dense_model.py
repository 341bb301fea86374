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
from meshseg.autodiff import Tensor, _check, _op_output, _softmax
from meshseg.errors import ConfigError
from meshseg.model import _dropout, _layer_norm, _masked_features

from conftest import dense_adjacency
from op_oracles import add, matmul, reduce_sum, scale


def co_membership(ids) -> np.ndarray:
    """Binary matrix with 1 where two triangles share a cluster id (J J^T)."""
    ids = np.asarray(ids)
    return (ids[:, np.newaxis] == ids[np.newaxis, :]).astype(np.float64)


# ---------------------------------------------------------------------------
# autodiff ops used only by this oracle: the bias addition and ReLU for its
# unfused linear layers, the rest for its per-head attention


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Addition of a 1-D bias broadcast over the last axis."""
    _check(
        b.data.ndim == 1 and a.data.ndim > 1 and a.shape[-1] == b.shape[0],
        "add_bias",
        a.shape,
        b.shape,
    )

    def backward_fn(g):
        return g, g.sum(axis=tuple(range(g.ndim - 1)))

    return _op_output(a.data + b.data, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is taken as 0
    return _op_output(np.maximum(a.data, 0), (a,), lambda g: (g * (a.data > 0),))


def transpose(a: Tensor) -> Tensor:
    _check(a.data.ndim == 2, "transpose", a.shape)
    return _op_output(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat_last(tensors) -> Tensor:
    widths = [t.shape[-1] for t in tensors]

    def backward_fn(g):
        return tuple(np.split(g, np.cumsum(widths)[:-1], axis=-1))

    data = np.concatenate([t.data for t in tensors], axis=-1)
    return _op_output(data, tuple(tensors), backward_fn)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[..., start:stop] = g
        return (ga,)

    return _op_output(a.data[..., start:stop].copy(), (a,), backward_fn)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return scale(reduce_sum(a, axis=axis), 1.0 / count)


def masked_softmax(scores: Tensor, mask) -> Tensor:
    """Row softmax of ``scores + mask`` for an additive mask.

    A mask entry of -inf blocks its column; a finite entry is a bias added
    to the score (0 leaves it unchanged). Rows that are entirely blocked
    produce all zeros (not NaN) and contribute zero gradient.
    """
    mask = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=scores.dtype)
    _check(mask.shape == scores.shape, "masked_softmax", scores.shape, mask.shape)
    y = _softmax(scores.data + mask)

    def backward_fn(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _op_output(y, (scores,), backward_fn)


def _linear(p, name, x, activation=False):
    """Linear layer as separate matmul, bias add and ReLU nodes."""
    out = add_bias(matmul(x, p[f"{name}.w"]), p[f"{name}.b"])
    return relu(out) if activation else out


def multi_head_attention(p, name, q_in, k_in, v_in, mask, num_heads):
    """Masked multi-head attention, one head at a time, with per-head width
    d / num_heads and a dense additive (rows, keys) mask."""
    q = matmul(q_in, p[f"{name}.wq"])
    k = matmul(k_in, p[f"{name}.wk"])
    v = matmul(v_in, p[f"{name}.wv"])
    d = q.shape[-1]
    head_dim = d // num_heads
    factor = 1.0 / np.sqrt(head_dim)
    heads = []
    for h in range(num_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh = slice_last(q, lo, hi)
        kh = slice_last(k, lo, hi)
        vh = slice_last(v, lo, hi)
        scores = scale(matmul(qh, transpose(kh)), factor)
        weights = masked_softmax(scores, mask)
        heads.append(matmul(weights, vh))
    merged = heads[0] if num_heads == 1 else concat_last(heads)
    return matmul(merged, p[f"{name}.wo"])


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


def dense_layer(p, prefix, e_tok, p_tok, masks, cfg, training, rng, last):
    """One two-stream layer; both cross-stream updates read the layer input.
    Only the triangle stream feeds the head, so the ``last`` layer skips the
    cluster-stream update, as does the cluster-stream ablation."""
    e_in = e_tok
    if cfg.use_cluster_stream:
        # triangle-from-cluster update: normalized tokens plus a projection
        # of C·P, the average of the cluster tokens over each triangle's
        # cluster (the N x N row-normalized co-membership times P)
        cluster_mix = matmul(Tensor(masks.cluster_avg), p_tok)
        e_in = add(
            _layer_norm(p, f"{prefix}.tc.ln", e_tok),
            _dropout(_linear(p, f"{prefix}.tc.ff", cluster_mix, activation=True),
                     cfg, training, rng),
        )

    sa_t_in = _layer_norm(p, f"{prefix}.sa_t.ln", e_in)
    sa_t = multi_head_attention(
        p, f"{prefix}.sa_t", sa_t_in, sa_t_in, sa_t_in, masks.adjacency, cfg.num_heads
    )
    e_mid = add(_dropout(sa_t, cfg, training, rng), e_in)
    e_out = add(
        _dropout(
            _linear(p, f"{prefix}.res_t.ff2",
                    _linear(p, f"{prefix}.res_t.ff1",
                            _layer_norm(p, f"{prefix}.res_t.ln", e_mid), activation=True)),
            cfg, training, rng,
        ),
        e_mid,
    )
    if last or not cfg.use_cluster_stream:
        return e_out, p_tok

    # cluster-from-triangle update: queries from normalized cluster tokens,
    # keys/values from the raw triangle tokens, same-cluster mask
    ct_attn = multi_head_attention(
        p, f"{prefix}.ct", _layer_norm(p, f"{prefix}.ct.ln", p_tok), e_tok, e_tok,
        masks.cluster, cfg.num_heads,
    )
    ct = add(_dropout(ct_attn, cfg, training, rng), p_tok)

    sa_p_in = _layer_norm(p, f"{prefix}.sa_p.ln", ct)
    sa_p = multi_head_attention(
        p, f"{prefix}.sa_p", sa_p_in, sa_p_in, sa_p_in, masks.real, cfg.num_heads
    )
    p_mid = add(_dropout(sa_p, cfg, training, rng), ct)
    p_out = add(
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
    p_tok = None
    if cfg.use_cluster_stream:
        p_tok = ad.embedding_lookup(params["cluster_embed"], sample.cluster_ids)

    for i in range(cfg.num_layers):
        e_tok, p_tok = dense_layer(params, f"layers.{i}", e_tok, p_tok, masks, cfg, training,
                                   rng, last=i == cfg.num_layers - 1)

    hidden = _dropout(_linear(params, "head.ff1", e_tok, activation=True), cfg, training, rng)
    return _linear(params, "head.ff2", hidden)
