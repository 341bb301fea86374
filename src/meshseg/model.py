"""The two-stream mesh transformer.

One stream carries N per-triangle tokens. Each triangle attends to
itself and its dual-graph neighbors only, so triangle self-attention runs
over a padded neighbor table of about four slots per row, O(N·m·d),
instead of over an N x N mask. The other stream carries one token per
cluster, plus one for the padding cluster when the sample is padded. Each
layer exchanges information across the streams: every triangle token
receives a projection of its cluster's token, and each cluster token
attends over its member triangles through masked cross-attention. Every
attention computes all of its heads in one op.

The paper holds the cluster stream as N rows, one copy of the cluster's
token per triangle. Attending over n_c identical key/value rows equals
attending over one row whose score carries a bias of +log n_c, so cluster
self-attention runs on the K cluster tokens under that bias and gives the
same eval-mode scores at a fraction of the cost. Only the triangle stream
feeds the classification head, so the last layer skips its cluster-stream
update.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.errors import ConfigError
from meshseg.preprocess import COORD_COLS, NORMAL_COLS, SPECTRAL_COLS, Sample

__all__ = [
    "ModelConfig",
    "AttentionMasks",
    "init_params",
    "build_masks",
    "met_forward",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1


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
    tc_sum: bool = False  # literal C*P sum instead of the cluster average

    def __post_init__(self):
        if self.d_t % self.num_heads or self.d_p % self.num_heads:
            raise ConfigError(
                f"token widths d_t={self.d_t}, d_p={self.d_p} must be divisible by "
                f"num_heads={self.num_heads}"
            )
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
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
    """(name, shape, init) of every parameter in initialization order; init
    is the fan-in of a uniform draw, or "normal", "ones" or "zeros"."""
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
    specs.append(("cluster_embed", (cfg.max_clusters, d_p), "normal"))
    for i in range(cfg.num_layers):
        pre = f"layers.{i}"
        layernorm(f"{pre}.tc.ln", d_t)
        linear(f"{pre}.tc.ff", d_p, d_t)
        layernorm(f"{pre}.ct.ln", d_p)
        attention(f"{pre}.ct", d_p, d_t, d_p)
        layernorm(f"{pre}.sa_t.ln", d_t)
        attention(f"{pre}.sa_t", d_t, d_t, d_t)
        layernorm(f"{pre}.sa_p.ln", d_p)
        attention(f"{pre}.sa_p", d_p, d_p, d_p)
        layernorm(f"{pre}.res_t.ln", d_t)
        linear(f"{pre}.res_t.ff1", d_t, cfg.ff_multiplier * d_t)
        linear(f"{pre}.res_t.ff2", cfg.ff_multiplier * d_t, d_t)
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
    """Which keys each attention may see. Biases are additive: 0 allows,
    -inf blocks, a finite value biases the score. K counts the cluster
    tokens: one per cluster, and one more for the padding cluster when
    padded. m is 1 plus the largest dual-graph degree."""

    neighbors: np.ndarray  # (N, m) int64 key rows: self and neighbors, in id order
    neighbor_bias: np.ndarray  # (N, m) 0 on self and each neighbor, -inf on empty slots
    membership: np.ndarray  # (K, N) bool, True where the triangle is in the cluster
    cluster_bias: np.ndarray  # (K, K) cluster-to-cluster, log n_c per key
    cluster_sizes: np.ndarray  # (K,) member count n_c


def _neighbor_table(sample: Sample, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Padded rows of self plus dual-graph neighbors, in ascending id order;
    an empty slot points at the row itself under bias -inf."""
    n = sample.n_total
    pairs = sample.adjacency.pairs
    rows = np.concatenate([np.arange(n), pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(n), pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n)
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.repeat(np.arange(n)[:, np.newaxis], counts.max(), axis=1)
    index[rows, slots] = cols
    bias = np.full(index.shape, -np.inf, dtype=dtype)
    bias[rows, slots] = 0.0
    return index, bias


def build_masks(sample: Sample, dtype=np.float32) -> AttentionMasks:
    k = sample.num_clusters + (1 if sample.has_padding else 0)
    member = np.arange(k)[:, np.newaxis] == sample.cluster_ids[np.newaxis, :]
    sizes = member.sum(axis=1)

    # one key with bias log n_c weighs as much as n_c identical keys. Real
    # clusters never attend to the padding cluster; the padding cluster
    # attends to the real ones and to one copy of itself, as each padding
    # face attended to the real faces and to itself alone
    bias = np.tile(np.log(sizes), (k, 1))
    if sample.has_padding:
        bias[:-1, -1] = -np.inf
        bias[-1, -1] = 0.0
    neighbors, neighbor_bias = _neighbor_table(sample, dtype)
    return AttentionMasks(
        neighbors=neighbors,
        neighbor_bias=neighbor_bias,
        membership=member,
        cluster_bias=bias.astype(dtype),
        cluster_sizes=sizes.astype(dtype),
    )


def _linear(p, name, x, activation=False):
    return ad.linear(x, p[f"{name}.w"], p[f"{name}.b"], relu=activation)


def _layer_norm(p, name, x):
    return ad.layer_norm(x, p[f"{name}.g"], p[f"{name}.b"])


def multi_head_attention(p, name, q_in, k_in, v_in, mask, num_heads, neighbors=None):
    """Multi-head attention of the ``q_in`` rows over the ``k_in``/``v_in``
    rows, per-head width d / num_heads, all heads in one op.

    ``mask`` is an additive bias of shape (rows, keys), or, when the
    (rows, m) table ``neighbors`` is given, of shape (rows, m) over the key
    rows that the table lists.
    """
    q = ad.matmul(q_in, p[f"{name}.wq"])
    k = ad.matmul(k_in, p[f"{name}.wk"])
    v = ad.matmul(v_in, p[f"{name}.wv"])
    scale = 1.0 / np.sqrt(q.shape[-1] // num_heads)
    if neighbors is None:
        merged = ad.attention(q, k, v, mask, num_heads, scale)
    else:
        merged = ad.neighbor_attention(q, k, v, neighbors, mask, num_heads, scale)
    return ad.matmul(merged, p[f"{name}.wo"])


def _dropout(x, cfg, training, rng):
    return ad.dropout(x, cfg.dropout, training, rng)


def _residual(x, update, cfg, training, rng):
    return ad.add(_dropout(update, cfg, training, rng), x)


def _self_attention(p, name, x, mask, cfg, neighbors=None):
    h = _layer_norm(p, f"{name}.ln", x)
    return multi_head_attention(p, name, h, h, h, mask, cfg.num_heads, neighbors)


def _feed_forward(p, name, x):
    h = _linear(p, f"{name}.ff1", _layer_norm(p, f"{name}.ln", x), activation=True)
    return _linear(p, f"{name}.ff2", h)


def met_layer(p, prefix, e_tok, p_tok, masks, cluster_ids, cfg, training, rng, last):
    """One two-stream layer on N triangle tokens and K cluster tokens.

    Both cross-stream updates read the layer input. Only the triangle
    stream feeds the head, so the ``last`` layer returns ``p_tok``
    unchanged, as does the cluster-stream ablation.
    """
    e_in = e_tok
    if cfg.use_cluster_stream:
        # triangle-from-cluster: the paper's average C·P over per-triangle
        # copies is the triangle's own cluster token; the sum is n_c times it
        mix = p_tok
        if cfg.tc_sum:
            sizes = np.broadcast_to(masks.cluster_sizes[:, np.newaxis], p_tok.shape)
            mix = ad.mul(p_tok, Tensor(sizes))
        tc_ff = _linear(p, f"{prefix}.tc.ff", mix, activation=True)
        e_in = _residual(
            _layer_norm(p, f"{prefix}.tc.ln", e_tok),
            ad.embedding_lookup(tc_ff, cluster_ids), cfg, training, rng,
        )
    sa_t = _self_attention(
        p, f"{prefix}.sa_t", e_in, masks.neighbor_bias, cfg, neighbors=masks.neighbors
    )
    e_mid = _residual(e_in, sa_t, cfg, training, rng)
    e_out = _residual(e_mid, _feed_forward(p, f"{prefix}.res_t", e_mid), cfg, training, rng)
    if last or not cfg.use_cluster_stream:
        return e_out, p_tok

    # cluster-from-triangle: queries from normalized cluster tokens,
    # keys/values from the raw tokens of the cluster's own triangles
    ct_attn = multi_head_attention(
        p, f"{prefix}.ct", _layer_norm(p, f"{prefix}.ct.ln", p_tok), e_tok, e_tok,
        np.where(masks.membership, 0.0, -np.inf), cfg.num_heads,
    )
    ct = _residual(p_tok, ct_attn, cfg, training, rng)
    p_mid = _residual(
        ct, _self_attention(p, f"{prefix}.sa_p", ct, masks.cluster_bias, cfg), cfg, training, rng
    )
    p_out = _residual(p_mid, _feed_forward(p, f"{prefix}.res_p", p_mid), cfg, training, rng)
    return e_out, p_out


def _masked_features(sample: Sample, cfg: ModelConfig, dtype) -> np.ndarray:
    """Zero out ablated feature blocks; widths stay unchanged."""
    t = sample.features.astype(dtype).copy()
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

    Padding rows produce scores too; downstream consumers drop them via
    the sample's real mask.
    """
    if sample.features.shape[1] != cfg.feature_width:
        raise ConfigError(
            f"feature width {sample.features.shape[1]} != configured {cfg.feature_width}"
        )
    pad_clusters = sample.num_clusters + (1 if sample.has_padding else 0)
    if pad_clusters > cfg.max_clusters:
        raise ConfigError(
            f"sample needs {pad_clusters} cluster embeddings, table has {cfg.max_clusters}"
        )
    dtype = params["embed.w"].dtype
    if masks is None:
        masks = build_masks(sample, dtype=dtype)

    t = Tensor(_masked_features(sample, cfg, dtype))
    e_tok = _dropout(_linear(params, "embed", t, activation=True), cfg, training, rng)
    p_tok = ad.embedding_lookup(params["cluster_embed"], np.arange(pad_clusters))

    for i in range(cfg.num_layers):
        e_tok, p_tok = met_layer(
            params, f"layers.{i}", e_tok, p_tok, masks, sample.cluster_ids, cfg, training, rng,
            last=i == cfg.num_layers - 1,
        )

    hidden = _dropout(_linear(params, "head.ff1", e_tok, activation=True), cfg, training, rng)
    return _linear(params, "head.ff2", hidden)


def save_checkpoint(path, params: dict[str, Tensor], cfg: ModelConfig) -> None:
    """Zip of a flat little-endian float32 blob plus a JSON manifest
    mapping parameter names to shape and offset."""
    manifest_params = {}
    blob = io.BytesIO()
    offset = 0
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].data.astype("<f4"))
        blob.write(arr.tobytes())
        manifest_params[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.size
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dtype": "<f4",
        "params": manifest_params,
        "config": asdict(cfg),
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("params.bin", blob.getvalue())
        zf.writestr("manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def load_checkpoint(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Parameters and config of a checkpoint. The parameter names and
    shapes must be those ``init_params`` gives the stored config, and
    ``params.bin`` must hold exactly their values; otherwise, or when the
    file is not a zip with a JSON manifest, or when the manifest lacks a
    field, ConfigError."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            blob = zf.read("params.bin")
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path}: {exc.args[0]}") from exc
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format version {version}")

    def field(mapping, key, kind, where="manifest"):
        if key not in mapping:
            raise ConfigError(f"checkpoint {path}: {where} lacks {key!r}")
        value = mapping[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"checkpoint {path}: {where} field {key!r} is not a {kind.__name__}")
        return value

    cfg = ModelConfig.from_dict(field(manifest, "config", dict))
    entries = field(manifest, "params", dict)
    for name, meta in entries.items():
        if not isinstance(meta, dict):
            raise ConfigError(f"checkpoint {path}: manifest entry {name!r} is not a dict")
        field(meta, "shape", list, f"manifest entry {name!r}")
        field(meta, "offset", int, f"manifest entry {name!r}")
    expected = {name: shape for name, shape, _ in _param_specs(cfg)}
    stored = {name: tuple(meta["shape"]) for name, meta in entries.items()}
    if stored != expected:
        problems = [f"missing {name}" for name in sorted(expected.keys() - stored.keys())]
        problems += [f"unexpected {name}" for name in sorted(stored.keys() - expected.keys())]
        problems += [
            f"{name} has shape {stored[name]}, expected {expected[name]}"
            for name in sorted(expected.keys() & stored.keys())
            if stored[name] != expected[name]
        ]
        raise ConfigError(f"checkpoint {path} does not match its config: {'; '.join(problems)}")
    try:
        dtype = np.dtype(field(manifest, "dtype", str))
    except TypeError as exc:
        raise ConfigError(f"checkpoint {path}: unknown dtype: {exc}") from exc
    sizes = {name: math.prod(shape) for name, shape in expected.items()}
    total = sum(sizes.values())
    if len(blob) != total * dtype.itemsize:
        raise ConfigError(
            f"checkpoint {path}: params.bin holds {len(blob)} bytes, "
            f"its {len(sizes)} parameters need {total * dtype.itemsize}"
        )
    flat = np.frombuffer(blob, dtype=dtype)
    params = {}
    for name, meta in entries.items():
        offset, size = meta["offset"], sizes[name]
        if not 0 <= offset <= total - size:
            raise ConfigError(f"checkpoint {path}: parameter {name} lies outside params.bin")
        arr = flat[offset : offset + size].reshape(expected[name]).copy()
        params[name] = Tensor(arr, requires_grad=True)
    return params, cfg
