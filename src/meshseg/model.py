"""The two-stream mesh transformer.

One stream carries N per-triangle tokens. Each triangle attends to
itself and its dual-graph neighbors only: triangle self-attention runs
over the listing of each face's closed neighborhood, about four keys per
row, O(N·d), instead of over an N x N mask. The other stream carries one
token per cluster, plus one for the padding cluster when the sample is
padded. Each layer exchanges information across the streams: every
triangle token receives a projection of its cluster's token (the paper's
C·P read as the average over the cluster's per-triangle copies, not their
sum), and each cluster token attends over its member triangles, a listing
of the faces sorted by cluster, in O(N·d) instead of over a K x N mask.
Both are one sparse attention op, a softmax over each query's own list of
keys. Every attention computes all of its heads in one op.

The paper holds the cluster stream as N rows, one copy of the cluster's
token per triangle. Attending over n_c identical key/value rows equals
attending over one row whose score carries a bias of +log n_c, so cluster
self-attention runs on the K cluster tokens under that bias and gives the
same eval-mode scores at a fraction of the cost. Only the triangle stream
feeds the classification head, so the last layer skips its cluster-stream
update and owns no parameters for it; the cluster-stream ablation owns no
cluster-stream parameters at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.errors import ConfigError, check_config
from meshseg.preprocess import (
    COORD_COLS,
    NORMAL_COLS,
    SPECTRAL_COLS,
    Sample,
    read_archive,
    write_archive,
)

__all__ = [
    "ModelConfig",
    "AttentionMasks",
    "init_params",
    "build_masks",
    "met_forward",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters plus the ablation switches."""

    num_classes: int
    eigen_count: int = 16
    d_t: int = 512
    d_p: int = 1024
    num_layers: int = 4
    num_heads: int = 8
    ff_multiplier: int = 4
    max_clusters: int = 256
    dropout: float = 0.1
    use_coords: bool = True
    use_normals: bool = True
    use_laplacian: bool = True
    use_cluster_stream: bool = True

    def __post_init__(self):
        check_config(self, {"num_classes": 1, "eigen_count": 0, "d_t": 1, "d_p": 1,
                            "num_layers": 1, "num_heads": 1, "ff_multiplier": 1,
                            "max_clusters": 1})
        if self.d_t % self.num_heads or self.d_p % self.num_heads:
            raise ConfigError(
                f"token widths d_t={self.d_t}, d_p={self.d_p} must be divisible by "
                f"num_heads={self.num_heads}"
            )
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def feature_width(self) -> int:
        return 12 + self.eigen_count

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:  # a required key is missing
            raise ConfigError(f"model config: {exc}") from exc


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int | str]]:
    """(name, shape, init) of every parameter a forward reads, in
    initialization order; init is the fan-in of a uniform draw, or
    "normal", "ones" or "zeros"."""
    specs = []

    def linear(name, d_in, d_out):
        specs.append((f"{name}.w", (d_in, d_out), d_in))
        specs.append((f"{name}.b", (d_out,), d_in))

    def layernorm(name, d):
        specs.append((f"{name}.g", (d,), "ones"))
        specs.append((f"{name}.b", (d,), "zeros"))

    def attention(name, d_q_in, d_kv_in, d):
        for key, d_in in (("wq", d_q_in), ("wk", d_kv_in), ("wv", d_kv_in)):
            specs.append((f"{name}.{key}", (d_in, d), d_in))
        specs.append((f"{name}.wo", (d, d), d))

    d_t, d_p = cfg.d_t, cfg.d_p
    linear("embed", cfg.feature_width, d_t)
    if cfg.use_cluster_stream:
        specs.append(("cluster_embed", (cfg.max_clusters, d_p), "normal"))
    for i in range(cfg.num_layers):
        pre = f"layers.{i}"
        # every layer reads the cluster tokens; all but the last update them
        updates_clusters = cfg.use_cluster_stream and i < cfg.num_layers - 1
        if cfg.use_cluster_stream:
            layernorm(f"{pre}.tc.ln", d_t)
            linear(f"{pre}.tc.ff", d_p, d_t)
        if updates_clusters:
            layernorm(f"{pre}.ct.ln", d_p)
            attention(f"{pre}.ct", d_p, d_t, d_p)
        layernorm(f"{pre}.sa_t.ln", d_t)
        attention(f"{pre}.sa_t", d_t, d_t, d_t)
        if updates_clusters:
            layernorm(f"{pre}.sa_p.ln", d_p)
            attention(f"{pre}.sa_p", d_p, d_p, d_p)
        layernorm(f"{pre}.res_t.ln", d_t)
        linear(f"{pre}.res_t.ff1", d_t, cfg.ff_multiplier * d_t)
        linear(f"{pre}.res_t.ff2", cfg.ff_multiplier * d_t, d_t)
        if updates_clusters:
            layernorm(f"{pre}.res_p.ln", d_p)
            linear(f"{pre}.res_p.ff1", d_p, cfg.ff_multiplier * d_p)
            linear(f"{pre}.res_p.ff2", cfg.ff_multiplier * d_p, d_p)
    linear("head.ff1", d_t, d_t)
    linear("head.ff2", d_t, cfg.num_classes)
    return specs


def init_params(
    cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    """Fresh learnable parameters: uniform 1/sqrt(fan_in) for projections,
    normal(0, 0.02) for the cluster embedding table, unit layer-norm gains."""
    params = {}
    for name, shape, init in _param_specs(cfg):
        if init == "ones":
            arr = np.ones(shape, dtype=dtype)
        elif init == "zeros":
            arr = np.zeros(shape, dtype=dtype)
        elif init == "normal":
            arr = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        else:
            arr = _uniform(rng, init, shape, dtype)
        params[name] = Tensor(arr, requires_grad=True)
    return params


@dataclass(frozen=True)
class AttentionMasks:
    """Which keys each attention of one forward may see. The sparse
    attentions each get the :class:`~meshseg.autodiff.ListingPlan` of a
    listing in CSR form (compressed sparse rows), under which query row r
    sees the key rows ``keys[ptr[r]:ptr[r + 1]]``; every layer and every
    backward pass of the forward reuse it. The clusters' listing names
    every face once; a cluster id that no face carries is an empty segment.
    K counts the cluster tokens: one per cluster, and one more for the
    padding cluster when padded. The cluster bias is additive: 0 allows,
    -inf blocks, a finite value biases the score."""

    neighbors: ad.ListingPlan  # face i's keys: itself, then its neighbors, ascending
    members: ad.ListingPlan  # cluster c's keys: its faces in id order
    cluster_bias: np.ndarray  # (K, K) cluster-to-cluster, log n_c per key


def build_masks(sample: Sample, num_heads: int, dtype=np.float32) -> AttentionMasks:
    """The masks of one forward of ``sample`` with ``num_heads`` heads:
    the plans of the neighbor and member listings, built once and shared
    by the ``sa_t`` and ``ct`` calls of every layer and their backward
    passes, and the cluster bias in ``dtype``."""
    k = sample.num_clusters + (1 if sample.has_padding else 0)
    sizes = np.bincount(sample.cluster_ids, minlength=k)
    member_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=member_ptr[1:])

    # one key with bias log n_c weighs as much as n_c identical keys. Real
    # clusters never attend to the padding cluster; the padding cluster
    # attends to the real ones and to one copy of itself, as each padding
    # face attended to the real faces and to itself alone
    with np.errstate(divide="ignore"):  # a cluster with no face is no key
        bias = np.tile(np.log(sizes), (k, 1))
    if sample.has_padding:
        bias[:-1, -1] = -np.inf
        bias[-1, -1] = 0.0
    neighbor_ptr, neighbor_ids = sample.adjacency.closed_neighborhoods()
    n = sample.n_total
    return AttentionMasks(
        neighbors=ad.ListingPlan(neighbor_ids, neighbor_ptr, n, num_heads),
        members=ad.ListingPlan(np.argsort(sample.cluster_ids, kind="stable"), member_ptr, n,
                               num_heads),
        cluster_bias=bias.astype(dtype),
    )


def _linear(p, name, x, activation=False):
    return ad.linear(x, p[f"{name}.w"], p[f"{name}.b"], relu=activation)


def _layer_norm(p, name, x):
    return ad.layer_norm(x, p[f"{name}.g"], p[f"{name}.b"])


def multi_head_attention(p, name, q_in, k_in, v_in, mask, num_heads):
    """Multi-head attention of the ``q_in`` rows over the ``k_in``/``v_in``
    rows, per-head width d / num_heads, all heads in one op.

    ``mask`` is either an additive bias of shape (rows, keys), or the
    :class:`~meshseg.autodiff.ListingPlan`, built for ``num_heads`` heads,
    of a CSR listing (ids, ptr) under which row r attends to the key rows
    ``ids[ptr[r]:ptr[r + 1]]``.
    """
    q = ad.linear(q_in, p[f"{name}.wq"])
    k = ad.linear(k_in, p[f"{name}.wk"])
    v = ad.linear(v_in, p[f"{name}.wv"])
    scale = 1.0 / np.sqrt(q.shape[-1] // num_heads)
    if isinstance(mask, ad.ListingPlan):
        merged = ad.segment_attention(q, k, v, mask, scale)
    else:
        merged = ad.attention(q, k, v, mask, num_heads, scale)
    return ad.linear(merged, p[f"{name}.wo"])


def _dropout(x, cfg, training, rng):
    return ad.dropout(x, cfg.dropout, training, rng)


def _residual(x, update, cfg, training, rng):
    return ad.dropout(update, cfg.dropout, training, rng, residual=x)


def _self_attention(p, name, x, mask, cfg):
    h = _layer_norm(p, f"{name}.ln", x)
    return multi_head_attention(p, name, h, h, h, mask, cfg.num_heads)


def _two_layer(p, name, x, drop=0.0, training=False, rng=None):
    """The ``{name}.ff1`` → ReLU → dropout → ``{name}.ff2`` block, one node."""
    return ad.feed_forward(x, p[f"{name}.ff1.w"], p[f"{name}.ff1.b"], p[f"{name}.ff2.w"],
                           p[f"{name}.ff2.b"], drop, training, rng)


def _feed_forward(p, name, x):
    return _two_layer(p, name, _layer_norm(p, f"{name}.ln", x))


def met_layer(p, prefix, e_tok, p_tok, masks, cluster_ids, cfg, training, rng, last):
    """One two-stream layer on N triangle tokens and K cluster tokens.

    Both cross-stream updates read the layer input. Only the triangle
    stream feeds the head, so the ``last`` layer returns ``p_tok``
    unchanged, as does the cluster-stream ablation, whose ``p_tok`` is None.
    """
    e_in = e_tok
    if cfg.use_cluster_stream:
        # triangle-from-cluster: the paper's average C·P over per-triangle
        # copies is the triangle's own cluster token
        tc_ff = _linear(p, f"{prefix}.tc.ff", p_tok, activation=True)
        e_in = _residual(
            _layer_norm(p, f"{prefix}.tc.ln", e_tok),
            ad.embedding_lookup(tc_ff, cluster_ids), cfg, training, rng,
        )
    sa_t = _self_attention(p, f"{prefix}.sa_t", e_in, masks.neighbors, cfg)
    e_mid = _residual(e_in, sa_t, cfg, training, rng)
    e_out = _residual(e_mid, _feed_forward(p, f"{prefix}.res_t", e_mid), cfg, training, rng)
    if last or not cfg.use_cluster_stream:
        return e_out, p_tok

    # cluster-from-triangle: queries from normalized cluster tokens,
    # keys/values from the raw tokens of the cluster's own triangles
    ct_attn = multi_head_attention(
        p, f"{prefix}.ct", _layer_norm(p, f"{prefix}.ct.ln", p_tok), e_tok, e_tok,
        masks.members, cfg.num_heads,
    )
    ct = _residual(p_tok, ct_attn, cfg, training, rng)
    p_mid = _residual(
        ct, _self_attention(p, f"{prefix}.sa_p", ct, masks.cluster_bias, cfg), cfg, training, rng
    )
    p_out = _residual(p_mid, _feed_forward(p, f"{prefix}.res_p", p_mid), cfg, training, rng)
    return e_out, p_out


def _masked_features(sample: Sample, cfg: ModelConfig, dtype) -> np.ndarray:
    """Zero out ablated feature blocks; widths stay unchanged."""
    t = sample.features.astype(dtype)
    if not cfg.use_coords:
        t[:, COORD_COLS] = 0
    if not cfg.use_normals:
        t[:, NORMAL_COLS] = 0
    if not cfg.use_laplacian:
        t[:, SPECTRAL_COLS] = 0
    return t


def met_forward(
    sample: Sample,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
    masks: AttentionMasks | None = None,
) -> Tensor:
    """Per-triangle class scores, shape (n_total, num_classes).

    ``masks`` are the sample's :func:`build_masks` in the parameters'
    dtype; they depend only on its adjacency, cluster ids and padding, so a
    caller that runs several forwards of one sample can build them once.
    When None, the call builds them. Padding rows produce scores too;
    downstream consumers drop them via the sample's real mask.
    """
    if sample.features.shape[1] != cfg.feature_width:
        raise ConfigError(
            f"feature width {sample.features.shape[1]} != configured {cfg.feature_width}"
        )
    dtype = params["embed.w"].dtype
    if masks is None:
        masks = build_masks(sample, cfg.num_heads, dtype=dtype)
    k = masks.cluster_bias.shape[0]
    if cfg.use_cluster_stream and k > cfg.max_clusters:
        raise ConfigError(f"sample needs {k} cluster embeddings, table has {cfg.max_clusters}")

    t = Tensor(_masked_features(sample, cfg, dtype))
    e_tok = _dropout(_linear(params, "embed", t, activation=True), cfg, training, rng)
    p_tok = None
    if cfg.use_cluster_stream:
        p_tok = ad.embedding_lookup(params["cluster_embed"], np.arange(k))

    for i in range(cfg.num_layers):
        e_tok, p_tok = met_layer(
            params, f"layers.{i}", e_tok, p_tok, masks, sample.cluster_ids, cfg, training, rng,
            last=i == cfg.num_layers - 1,
        )

    return _two_layer(params, "head", e_tok, cfg.dropout, training, rng)


def save_checkpoint(path, params: dict[str, Tensor], cfg: ModelConfig) -> None:
    """Zip of one little-endian float32 ``<name>.npy`` per parameter, in
    name order, plus a JSON manifest holding the config; the same
    parameters and config always give the same bytes."""
    arrays = {name: np.asarray(params[name].data, dtype="<f4") for name in sorted(params)}
    write_archive(path, arrays, {"format_version": CHECKPOINT_FORMAT_VERSION,
                                 "config": asdict(cfg)})


def load_checkpoint(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Parameters and config of a checkpoint. Its arrays must be float32
    and have exactly the names and shapes that ``init_params`` gives the
    stored config; otherwise, or when ``read_archive`` refuses the file or
    the manifest lacks the config, ConfigError."""
    manifest, arrays = read_archive(
        path, "checkpoint", CHECKPOINT_FORMAT_VERSION, ConfigError,
        "retrain the model with meshseg train",
    )
    if not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"checkpoint {path}: manifest lacks 'config' or it is not an object")
    cfg = ModelConfig.from_dict(manifest["config"])
    expected = {name: shape for name, shape, _ in _param_specs(cfg)}
    problems = [f"missing {name}" for name in sorted(expected.keys() - arrays.keys())]
    problems += [f"unexpected {name}" for name in sorted(arrays.keys() - expected.keys())]
    problems += [
        f"{name} has shape {arrays[name].shape}, expected {expected[name]}"
        for name in sorted(expected.keys() & arrays.keys())
        if arrays[name].shape != expected[name]
    ]
    problems += [f"{name} is {arr.dtype}, not float32"
                 for name, arr in arrays.items() if arr.dtype != np.float32]
    if problems:
        raise ConfigError(f"checkpoint {path} does not match its config: {'; '.join(problems)}")
    return {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}, cfg
