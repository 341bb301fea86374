"""The two-stream network: masks, attention, forward properties,
ablations, and checkpointing."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.errors import ConfigError
from meshseg.model import (
    ModelConfig,
    _param_specs,
    build_masks,
    init_params,
    load_checkpoint,
    met_forward,
    multi_head_attention,
    save_checkpoint,
)
from meshseg.preprocess import pad_sample

from conftest import (
    dense_adjacency,
    neighbor_lists,
    permute_sample,
    small_model_config,
    small_sample,
)
from dense_model import dense_forward, dense_masks
from dense_model import multi_head_attention as dense_attention
from loop_oracles import neighbor_listing_oracle
from op_oracles import mul, reduce_sum


def make_model(sample, dtype=np.float64, seed=0, **overrides):
    cfg = small_model_config(eigen_count=sample.eigen_count, **overrides)
    params = init_params(cfg, np.random.default_rng(seed), dtype=dtype)
    return cfg, params


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(num_classes=2, d_t=10, d_p=16, num_heads=4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"num_classes": 2, "bogus": 1})

    def test_feature_width(self):
        assert ModelConfig(num_classes=2, eigen_count=16).feature_width == 28


class TestParameters:
    """The parameter set follows the forward: the last layer owns no
    cluster-stream update, the cluster-stream ablation no cluster stream."""

    @pytest.mark.parametrize(
        "num_layers, use_cluster_stream, total",
        [(1, True, 4_217_860), (4, True, 62_466_052), (1, False, 3_429_892),
         (4, False, 12_880_900)],
        ids=["1-layer", "4-layer", "1-layer-ablated", "4-layer-ablated"],
    )
    def test_count_at_paper_widths(self, num_layers, use_cluster_stream, total):
        cfg = ModelConfig(num_classes=4, num_layers=num_layers,
                          use_cluster_stream=use_cluster_stream)
        assert sum(math.prod(shape) for _, shape, _ in _param_specs(cfg)) == total

    def test_last_layer_owns_no_cluster_update(self):
        cfg = small_model_config(num_layers=3)
        params = init_params(cfg, np.random.default_rng(0))
        blocks = [{name.split(".")[2] for name in params if name.startswith(f"layers.{i}.")}
                  for i in range(3)]
        assert blocks[0] == blocks[1] == {"tc", "ct", "sa_t", "sa_p", "res_t", "res_p"}
        assert blocks[2] == {"tc", "sa_t", "res_t"}
        assert "cluster_embed" in params


def assert_lists_clusters(masks, cluster_ids, k):
    """The CSR listing names every face once: segment c holds exactly the
    faces of cluster c, in ascending id order, as plain int64 arrays."""
    members, member_ptr = masks.members.keys, masks.members.ptr
    assert members.dtype == member_ptr.dtype == np.int64
    assert member_ptr.shape == (k + 1,) and member_ptr[0] == 0
    np.testing.assert_array_equal(np.sort(members), np.arange(cluster_ids.size))
    for c in range(k):
        segment = members[member_ptr[c]:member_ptr[c + 1]]
        np.testing.assert_array_equal(segment, np.flatnonzero(cluster_ids == c))


class TestBuildMasks:
    def test_structure(self):
        sample = small_sample(target_faces=24)
        masks = build_masks(sample, 2, dtype=np.float64)
        n = sample.n_total
        k = sample.num_clusters + 1  # plus the padding cluster
        # the neighbor listing names exactly self plus the dual-graph
        # neighbors of each face, in ascending id order
        neighbors = neighbor_lists(sample.adjacency)
        ids, ptr = masks.neighbors.keys, masks.neighbors.ptr
        assert ids.dtype == ptr.dtype == np.int64 and ptr.shape == (n + 1,)
        for i in range(n):
            assert ids[ptr[i]:ptr[i + 1]].tolist() == sorted([i, *neighbors[i]])
        for i in np.flatnonzero(~sample.real_mask):  # padding rows see themselves only
            assert ids[ptr[i]:ptr[i + 1]].tolist() == [i]
        # each triangle is listed once, in the segment of its own cluster
        sizes = np.bincount(sample.cluster_ids, minlength=k)
        assert_lists_clusters(masks, sample.cluster_ids, k)
        # every query cluster weighs a real key cluster by log n_c
        assert masks.cluster_bias.shape == (k, k)
        real = slice(0, sample.num_clusters)
        np.testing.assert_allclose(
            masks.cluster_bias[:, real], np.tile(np.log(sizes[real]), (k, 1)), atol=1e-15
        )
        # real clusters never see the padding cluster; it sees itself once
        assert np.isneginf(masks.cluster_bias[real, -1]).all()
        assert masks.cluster_bias[-1, -1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_neighbor_table_equals_the_lexsort_build(self, dtype):
        """The neighbor listing from the adjacency's closed neighborhoods
        equals the concat-and-lexsort build, on padded, unpadded and
        non-manifold samples, whatever the dtype of the masks."""
        samples = [small_sample(target_faces=24), small_sample(subdivisions=2), fin_sample()]
        for sample in samples:
            want_ptr, want_ids = neighbor_listing_oracle(sample.adjacency)
            masks = build_masks(sample, 2, dtype=dtype)
            np.testing.assert_array_equal(masks.neighbors.ptr, want_ptr)
            np.testing.assert_array_equal(masks.neighbors.keys, want_ids)
            assert masks.neighbors.keys.dtype == masks.neighbors.ptr.dtype == np.int64
            assert masks.cluster_bias.dtype == dtype

    def test_unpadded_has_no_padding_cluster(self):
        sample = small_sample()
        masks = build_masks(sample, 2, dtype=np.float64)
        k = sample.num_clusters
        assert_lists_clusters(masks, sample.cluster_ids, k)
        assert np.isfinite(masks.cluster_bias).all()
        sizes = np.bincount(sample.cluster_ids)
        np.testing.assert_array_equal(masks.cluster_bias, np.tile(np.log(sizes), (k, 1)))

    def test_dense_oracle_structure(self):
        sample = small_sample(target_faces=24)
        masks = dense_masks(sample, dtype=np.float64)
        n = sample.n_total
        # diagonal always allowed in all additive masks
        assert (np.diag(masks.adjacency) == 0).all()
        assert (np.diag(masks.cluster) == 0).all()
        # adjacency mask allows exactly self plus dual-graph neighbors, the
        # keys of the model's neighbor table
        dense = dense_adjacency(sample.adjacency) + np.eye(n)
        np.testing.assert_array_equal(masks.adjacency == 0, dense > 0)
        listing = build_masks(sample, 2, np.float64).neighbors
        scattered = np.full((n, n), -np.inf)
        rows = np.repeat(np.arange(n), np.diff(listing.ptr))
        scattered[rows, listing.keys] = 0.0
        np.testing.assert_array_equal(masks.adjacency, scattered)
        # co-membership rows of cluster_avg sum to 1
        np.testing.assert_allclose(masks.cluster_avg.sum(axis=1), 1.0, atol=1e-12)
        # padding columns blocked for real rows in the cluster-stream mask
        real = sample.real_mask
        assert np.isneginf(masks.real[np.ix_(real, ~real)]).all()
        assert (masks.real[:, real] == 0).all()


class TestDenseOracle:
    """Eval-mode scores equal those of the dense per-triangle cluster
    stream of the paper, on every row, padding rows included."""

    @pytest.mark.parametrize("target_faces", [None, 31])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"num_layers": 3},
            {"num_layers": 1},
            {"use_cluster_stream": False},
        ],
        ids=["2-layer", "3-layer", "1-layer", "ablated"],
    )
    def test_eval_scores_match(self, target_faces, overrides):
        sample = small_sample(target_faces=target_faces)
        cfg, params = make_model(sample, seed=4, **overrides)
        scores = met_forward(sample, params, cfg).data
        expected = dense_forward(sample, params, cfg).data
        assert scores.shape == (sample.n_total, cfg.num_classes)
        assert np.abs(scores - expected).max() <= 1e-6

    def test_eval_scores_match_on_permuted_clusters(self, rng):
        # cluster ids interleaved across the face order, padded
        sample = small_sample(target_faces=26, lam=2.0)
        sample = permute_sample(sample, rng.permutation(sample.n_total))
        cfg, params = make_model(sample, num_layers=3, max_clusters=16)
        scores = met_forward(sample, params, cfg).data
        assert np.abs(scores - dense_forward(sample, params, cfg).data).max() <= 1e-6


    def test_empty_cluster_is_valid_and_matches(self, rng):
        """A sample whose real cluster ids skip one passes ``validate``. The
        skipped cluster's token attends over no face and feeds no triangle,
        so the scores still match the oracle, and a backward pass through
        its zero cross-attention row gives finite gradients."""
        sample = small_sample(target_faces=24)
        ids = sample.cluster_ids.copy()
        ids[ids >= 1] += 1  # no face in cluster 1; the padding id moves up too
        sample = replace(sample, cluster_ids=ids, num_clusters=sample.num_clusters + 1)
        sample.validate()
        masks = build_masks(sample, 2, dtype=np.float64)
        assert masks.members.ptr[1] == masks.members.ptr[2]
        cfg, params = make_model(sample, seed=4, num_layers=3, max_clusters=16)
        scores = met_forward(sample, params, cfg)
        assert np.abs(scores.data - dense_forward(sample, params, cfg).data).max() <= 1e-6
        weight = Tensor(rng.normal(size=scores.shape))
        ad.backward(reduce_sum(mul(scores, weight)))
        assert all(np.isfinite(p.grad).all() for p in params.values())


def attend(path, params, x, mask, num_heads):
    """Self-attention of x under a dense mask of 0 and -inf, given to the
    model either as that bias or as the plan of the listing of its allowed
    keys."""
    if path == "dense":
        return multi_head_attention(params, "a", x, x, x, mask, num_heads)
    allowed = np.isfinite(mask)
    ptr = np.concatenate([[0], np.cumsum(allowed.sum(axis=1))])
    plan = ad.ListingPlan(np.nonzero(allowed)[1], ptr, x.shape[0], num_heads)
    return multi_head_attention(params, "a", x, x, x, plan, num_heads)


class TestMultiHeadAttention:
    path = "dense"

    def test_singleton_softmax_is_identity_weight(self, rng):
        d = 4
        params = {
            "a.wq": Tensor(rng.normal(size=(d, d))),
            "a.wk": Tensor(rng.normal(size=(d, d))),
            "a.wv": Tensor(rng.normal(size=(d, d))),
            "a.wo": Tensor(rng.normal(size=(d, d))),
        }
        x = Tensor(rng.normal(size=(1, d)))
        out = attend(self.path, params, x, np.zeros((1, 1)), 2)
        expected = (x.data @ params["a.wv"].data) @ params["a.wo"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_all_masked_row_outputs_zero(self, rng):
        d = 4
        params = {
            f"a.{k}": Tensor(rng.normal(size=(d, d))) for k in ("wq", "wk", "wv", "wo")
        }
        x = Tensor(rng.normal(size=(2, d)))
        mask = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
        out = attend(self.path, params, x, mask, 1)
        np.testing.assert_array_equal(out.data[1], 0.0)

    def test_hand_computed_two_by_two(self):
        # h=1, identity projections, Q=K=V=I2: row i mixes with weights
        # softmax applied to scores/sqrt(d) of row i of Q K^T = I
        d = 2
        eye = Tensor(np.eye(d))
        params = {f"a.{k}": eye for k in ("wq", "wk", "wv", "wo")}
        x = Tensor(np.eye(d))
        out = attend(self.path, params, x, np.zeros((2, 2)), 1)
        s = 1.0 / np.sqrt(d)
        w_same = np.exp(s) / (np.exp(s) + 1.0)
        expected = np.array([[w_same, 1 - w_same], [1 - w_same, w_same]])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_training_step_builds_no_sparse_matrix_inside_attention(monkeypatch):
    """A training forward and backward at the acceptance size (N=210, d=64,
    2 layers, 4 heads) constructs no scipy sparse matrix anywhere: the
    listing plans of ``build_masks`` serve every ``segment_attention``
    call, and ``embedding_lookup`` scatters its gradient through an index
    it builds itself."""
    import scipy.sparse._base

    from meshseg.preprocess import PreprocessConfig, build_sample
    from meshseg.train import area_weights, weighted_cross_entropy

    from conftest import hemisphere_labeled_sphere
    from test_acceptance import OVERFIT_MODEL

    mesh, labels = hemisphere_labeled_sphere(subdivisions=2, jitter=0.01, seed=0)
    sample = build_sample(mesh, labels, PreprocessConfig(
        target_vertices=102, target_faces=210, eigen_count=8, clustering_lambda=8))
    cfg = ModelConfig(num_classes=2, **OVERFIT_MODEL)
    params = init_params(cfg, np.random.default_rng(0))

    built = []
    construct = scipy.sparse._base._spbase.__init__

    def counted_construct(self, *args, **kwargs):
        built.append(type(self).__name__)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counted_construct)
    scores = met_forward(sample, params, cfg, training=True, rng=np.random.default_rng(1))
    ad.backward(weighted_cross_entropy(scores, sample.labels,
                                       area_weights(sample.areas, sample.real_mask)))
    assert sample.n_total == 210
    assert all(p.grad is not None for p in params.values())
    assert built == []


class TestNeighborTableAttention(TestMultiHeadAttention):
    """The same hand-computed cases through a listing of the allowed keys,
    the path of the triangle stream's neighbor listing."""

    path = "neighbors"


def fin_sample():
    """Padded 21-face sample: the icosahedron plus a fin face on edge
    (0, 11), which makes that edge non-manifold. The two icosahedron faces
    on it have dual degree 4, the fin degree 2, the other faces degree 3,
    and the three padding faces degree 0."""
    from meshseg.mesh_io import Mesh
    from meshseg.preprocess import PreprocessConfig, build_sample

    from conftest import icosahedron

    ico = icosahedron()
    mesh = Mesh(
        vertices=np.vstack([ico.vertices, [[-0.2, 0.9, 0.9]]]),
        faces=np.vstack([ico.faces, [[0, 11, 12]]]),
    )
    cfg = PreprocessConfig(target_faces=24, eigen_count=4, clustering_lambda=4.0,
                           simplify=False)
    return build_sample(mesh, None, cfg)


class TestTriangleAttention:
    def test_matches_dense_oracle_attention(self, rng):
        """Self-attention over the neighbor listing equals the oracle's
        dense per-head attention under the N x N adjacency mask, values and
        gradients."""
        sample = fin_sample()
        degrees = sample.adjacency.degrees()
        assert degrees[~sample.real_mask].max() == 0
        assert (degrees == 3).sum() >= 10 and degrees.max() > 3
        d, heads = 8, 2
        masks = build_masks(sample, heads, dtype=np.float64)
        oracle_mask = dense_masks(sample).adjacency
        weights = {f"a.{k}": rng.normal(size=(d, d)) for k in ("wq", "wk", "wv", "wo")}
        x0 = rng.normal(size=(sample.n_total, d))
        upstream = rng.normal(size=(sample.n_total, d))

        def run(attention):
            params = {k: Tensor(w, requires_grad=True) for k, w in weights.items()}
            x = Tensor(x0, requires_grad=True)
            out = attention(params, x)
            ad.backward(reduce_sum(mul(out, Tensor(upstream))))
            return out.data, x.grad, {k: p.grad for k, p in params.items()}

        out, gx, gp = run(lambda p, x: multi_head_attention(
            p, "a", x, x, x, masks.neighbors, heads))
        ref, ref_gx, ref_gp = run(lambda p, x: dense_attention(
            p, "a", x, x, x, oracle_mask, heads))
        assert np.abs(out - ref).max() <= 1e-12
        assert np.abs(gx - ref_gx).max() <= 1e-12
        for k in gp:
            assert np.abs(gp[k] - ref_gp[k]).max() <= 1e-12


class TestForward:
    def test_output_shape(self):
        sample = small_sample(target_faces=24)
        cfg, params = make_model(sample)
        scores = met_forward(sample, params, cfg)
        assert scores.shape == (24, 2)

    def test_eval_determinism_bit_identical(self):
        sample = small_sample()
        cfg, params = make_model(sample)
        a = met_forward(sample, params, cfg).data
        b = met_forward(sample, params, cfg).data
        assert (a == b).all()

    def test_feature_width_mismatch(self):
        sample = small_sample(eigen_count=4)
        cfg, params = make_model(sample)
        bad_cfg = small_model_config(eigen_count=6)
        with pytest.raises(ConfigError, match="feature width"):
            met_forward(sample, params, bad_cfg)

    def test_max_clusters_overflow(self):
        sample = small_sample(target_faces=24)
        cfg, params = make_model(sample, max_clusters=2)
        with pytest.raises(ConfigError, match="cluster embeddings"):
            met_forward(sample, params, cfg)

    def test_max_clusters_not_checked_without_cluster_stream(self):
        sample = small_sample()  # 3 clusters
        cfg, params = make_model(sample, max_clusters=1, use_cluster_stream=False)
        assert sample.num_clusters > cfg.max_clusters
        scores = met_forward(sample, params, cfg)
        assert scores.shape == (sample.n_total, cfg.num_classes)

    def test_permutation_equivariance(self, rng):
        sample = small_sample(target_faces=24)
        cfg, params = make_model(sample)
        base = met_forward(sample, params, cfg).data
        for _ in range(5):
            perm = rng.permutation(sample.n_total)
            permuted = permute_sample(sample, perm)
            scores = met_forward(permuted, params, cfg).data
            assert np.abs(scores - base[perm]).max() <= 1e-6

    def test_padding_invariance(self):
        sample = small_sample()  # unpadded, 20 faces
        cfg, params = make_model(sample)
        base = met_forward(sample, params, cfg).data
        padded = pad_sample(sample, sample.n_total + 13)
        scores = met_forward(padded, params, cfg).data
        assert np.abs(scores[: sample.n_total] - base).max() <= 1e-6

    def test_single_layer_locality(self):
        """Perturbing a face that is neither adjacent to face i nor in its
        cluster leaves face i's single-layer score unchanged."""
        sample = small_sample()
        cfg, params = make_model(sample, num_layers=1)
        base = met_forward(sample, params, cfg).data
        neighbors = neighbor_lists(sample.adjacency)
        i = 0
        same_cluster = set(
            np.flatnonzero(sample.cluster_ids == sample.cluster_ids[i]).tolist()
        )
        excluded = {i, *neighbors[i], *same_cluster}
        far = next(j for j in range(sample.n_total) if j not in excluded)
        bumped = sample.features.copy()
        bumped[far] += 0.37
        from dataclasses import replace

        perturbed = replace(sample, features=bumped)
        scores = met_forward(perturbed, params, cfg).data
        assert np.abs(scores[i] - base[i]).max() <= 1e-6
        assert np.abs(scores[far] - base[far]).max() > 1e-6  # sanity

    def test_training_dropout_changes_output_and_is_seeded(self):
        sample = small_sample()
        cfg, params = make_model(sample)
        eval_scores = met_forward(sample, params, cfg).data
        t1 = met_forward(
            sample, params, cfg, training=True, rng=np.random.default_rng(3)
        ).data
        t2 = met_forward(
            sample, params, cfg, training=True, rng=np.random.default_rng(3)
        ).data
        assert (t1 == t2).all()
        assert np.abs(t1 - eval_scores).max() > 0

    def test_training_forward_has_one_node_per_block(self):
        """Each feed-forward block is one ``feed_forward`` node (``res_t``
        in both layers, ``res_p`` in the first and the head, with its
        dropout), each other projection one ``linear`` node and each
        residual one ``dropout`` node: 9 residuals (6 in the first layer, 3
        in the last, which skips the cluster update) plus the dropout after
        the embedding; 49 op nodes in all."""
        sample = small_sample()
        cfg, params = make_model(sample)
        scores = met_forward(sample, params, cfg, training=True, rng=np.random.default_rng(3))
        ops, stack, seen = Counter(), [scores._node], {id(scores._node)}
        while stack:
            node = stack.pop()
            if not isinstance(node, Tensor):  # an op node, not a leaf or the constant
                ops[node._backward_fn.__qualname__.split(".")[0]] += 1
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert ops == {"linear": 19, "feed_forward": 4, "dropout": 9 + 1, "layer_norm": 9,
                       "embedding_lookup": 3, "segment_attention": 3, "attention": 1}
        assert sum(ops.values()) == 49

    def test_unused_cluster_embedding_rows_get_zero_gradient(self):
        sample = small_sample()
        cfg, params = make_model(sample)
        scores = met_forward(sample, params, cfg)
        ad.backward(reduce_sum(mul(scores, scores)))
        grad = params["cluster_embed"].grad
        used = set(sample.cluster_ids.tolist())
        for row in range(cfg.max_clusters):
            if row not in used:
                np.testing.assert_array_equal(grad[row], 0.0)


class TestAblations:
    def test_feature_ablation_equals_manual_zeroing(self):
        from dataclasses import replace

        from meshseg.preprocess import COORD_COLS

        sample = small_sample()
        cfg, params = make_model(sample, use_coords=False)
        ablated = met_forward(sample, params, cfg).data

        zeroed = sample.features.copy()
        zeroed[:, COORD_COLS] = 0
        manual_sample = replace(sample, features=zeroed)
        full_cfg = small_model_config(eigen_count=sample.eigen_count)
        manual = met_forward(manual_sample, params, full_cfg).data
        np.testing.assert_array_equal(ablated, manual)

    def test_cluster_stream_ablation_runs_without_cluster_params(self):
        sample = small_sample()
        cfg, params = make_model(sample, use_cluster_stream=False)
        scores = met_forward(sample, params, cfg)
        assert scores.shape == (sample.n_total, 2)
        # the ablated model owns no cluster-path parameters at all
        assert "cluster_embed" not in params
        blocks = {name.split(".")[2] for name in params if name.startswith("layers.")}
        assert blocks == {"sa_t", "res_t"}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        sample = small_sample()
        cfg, params = make_model(sample, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_forward_bit_identical_after_round_trip(self, tmp_path):
        sample = small_sample()
        cfg, params = make_model(sample, dtype=np.float32)
        base = met_forward(sample, params, cfg).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        again = met_forward(sample, loaded, loaded_cfg).data
        assert (base == again).all()

    def test_manifest_self_describing(self, tmp_path):
        import io
        import json
        import zipfile

        sample = small_sample()
        cfg, params = make_model(sample, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        with zipfile.ZipFile(path) as zf:
            names = zf.namelist()
            manifest = json.loads(zf.read("manifest.json"))
            embed = np.load(io.BytesIO(zf.read("embed.w.npy")))
        assert names == [f"{name}.npy" for name in sorted(params)] + ["manifest.json"]
        assert set(manifest) == {"format_version", "config"}
        assert manifest["format_version"] == 4
        assert manifest["config"]["d_t"] == cfg.d_t
        assert manifest["config"]["use_cluster_stream"] is True
        assert embed.dtype.str == "<f4"
        assert embed.shape == (cfg.feature_width, cfg.d_t)

    def test_unknown_version_rejected(self, tmp_path):
        import json
        import zipfile

        sample = small_sample()
        cfg, params = make_model(sample, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        with zipfile.ZipFile(path) as zf:
            payload = {name: zf.read(name) for name in zf.namelist()}
        manifest = json.loads(payload["manifest.json"])
        manifest["format_version"] = 42
        payload["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in payload.items():
                zf.writestr(name, blob)
        with pytest.raises(ConfigError, match="format version"):
            load_checkpoint(path)

    def test_load_holds_the_parameters_and_one_entry(self, tmp_path):
        """Loading decodes one entry at a time: beyond the parameters it
        returns, it holds at most one entry's bytes and its compressed
        copy, where a loader of one flat blob held every parameter twice."""
        import tracemalloc

        cfg = small_model_config(d_t=64, d_p=64, num_layers=2)
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        largest = max(p.data.nbytes for p in params.values())
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = sum(p.data.nbytes for p in loaded.values())
        assert total == sum(p.data.nbytes for p in params.values())
        assert peak <= total + 2 * largest + 256 * 1024, (peak, total, largest)
