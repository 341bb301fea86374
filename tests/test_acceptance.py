"""Acceptance suite: nine end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose report gives
one pass/fail line per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.cli import ABLATIONS
from meshseg.clustering import ward_constrained
from meshseg.mesh_io import (
    LabelVec,
    Mesh,
    parse_obj,
    parse_off,
    parse_ply,
    write_ply_colored,
)
from meshseg.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    met_forward,
    save_checkpoint,
)
from meshseg.preprocess import PreprocessConfig, build_sample, pad_sample
from meshseg.spectral import (
    AdjacencyMatrix,
    build_dual_adjacency,
    normalized_laplacian,
    smallest_eigenpairs,
)
from meshseg.train import (
    TrainConfig,
    area_weights,
    evaluate,
    train,
    weighted_cross_entropy,
)

import dense_model as oracle
from conftest import (
    area_accuracy,
    finite_difference,
    hemisphere_labeled_sphere,
    jacobi_eigh,
    small_model_config,
    small_sample,
    tetrahedron,
    trajectory,
    ward_oracle,
)
from op_oracles import add, gather_rows, log_softmax, matmul, mul, reduce_sum, scale
from test_clustering import random_connected_adjacency
from test_spectral import projector_for_groups


# ---------------------------------------------------------------------------
# shared inputs


def random_sphere_mesh(rng: np.random.Generator, n_points: int) -> Mesh:
    """Closed triangulated surface with exactly 2*n_points - 4 faces.

    Points on the unit sphere are all hull vertices, so the face count is
    controlled exactly (Euler's formula for a triangulated sphere).
    """
    points = rng.normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    hull = ConvexHull(points)
    return Mesh(vertices=points, faces=hull.simplices)


@pytest.fixture(scope="module")
def spectral_meshes():
    """200 random closed meshes with dual graphs spanning 4..64 nodes."""
    rng = np.random.default_rng(2024)
    meshes = []
    for _ in range(200):
        n_points = int(rng.integers(4, 35))  # faces = 2p - 4 in [4, 66-2]
        meshes.append(random_sphere_mesh(rng, n_points))
    return meshes


@pytest.fixture(scope="module")
def overfit_samples():
    """Four ~200-face jittered spheres with hemispheric 2-class labels."""
    samples = []
    for i in range(4):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=2, jitter=0.01, seed=i)
        cfg = PreprocessConfig(
            target_vertices=102,
            target_faces=210,
            eigen_count=8,
            clustering_lambda=8,
            simplify=True,
        )
        samples.append(build_sample(mesh, labels, cfg))
    assert all(s.n_real == 200 for s in samples)
    return samples


OVERFIT_MODEL = dict(
    eigen_count=8,
    d_t=64,
    d_p=64,
    num_layers=2,
    num_heads=4,
    ff_multiplier=4,
    max_clusters=32,
    dropout=0.1,
)

# base rate 5e-5 scaled x10, as the learning-check budget allows
OVERFIT_TRAIN = dict(
    lr=5e-4, batch_size=4, seed=0, validation_fraction=0.0, augment=False
)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_spectral_oracle(spectral_meshes):
    """Full spectra of 200 random dual graphs match an independent cyclic
    Jacobi eigensolver: eigenvalues to 1e-7, degenerate-subspace
    projectors to 1e-6; K4 spectrum is (0, 4/3, 4/3, 4/3) +- 1e-8."""
    start = time.monotonic()
    for mesh in spectral_meshes:
        lap = normalized_laplacian(build_dual_adjacency(mesh))
        n = lap.shape[0]
        values, vectors, _ = smallest_eigenpairs(lap, n)
        ref_values, ref_vectors = jacobi_eigh(lap.toarray())
        assert np.abs(values - ref_values).max() <= 1e-7
        got = projector_for_groups(ref_values, vectors, gap=1e-6)
        want = projector_for_groups(ref_values, ref_vectors, gap=1e-6)
        for (_, p_got), (_, p_want) in zip(got, want):
            assert np.abs(p_got - p_want).max() <= 1e-6

    k4 = normalized_laplacian(build_dual_adjacency(tetrahedron()))
    values, _, _ = smallest_eigenpairs(k4, 4)
    np.testing.assert_allclose(values, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-8)
    assert time.monotonic() - start < 60


def test_criterion_02_laplacian_structure(spectral_meshes):
    """Eigenvalues lie in [-1e-8, 2+1e-8]; the zero-eigenvalue count equals
    the number of dual-graph connected components with at least one edge."""

    def edged_components(adj: AdjacencyMatrix) -> int:
        parent = list(range(adj.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in adj.pairs:
            parent[find(int(i))] = find(int(j))
        touched = {int(v) for pair in adj.pairs for v in pair}
        return len({find(i) for i in touched})

    # two disjoint edge-sharing pairs plus one isolated triangle: two zero
    # modes, and the isolated dual node contributes eigenvalue 1, not 0
    disjoint = Mesh(
        vertices=np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
             [3, 0, 0], [4, 0, 0], [3, 1, 0], [4, 1, 0],
             [6, 0, 0], [7, 0, 0], [6, 1, 0]],
            dtype=float,
        ),
        faces=[[0, 1, 2], [1, 3, 2], [4, 5, 6], [5, 7, 6], [8, 9, 10]],
    )

    single = Mesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        faces=[[0, 1, 2]],
    )

    for mesh in [*spectral_meshes, tetrahedron(), disjoint, single]:
        adj = build_dual_adjacency(mesh)
        lap = normalized_laplacian(adj)
        values, _, _ = smallest_eigenpairs(lap, lap.shape[0])
        assert values.min() >= -1e-8
        assert values.max() <= 2 + 1e-8
        assert int((values < 1e-8).sum()) == edged_components(adj)


def test_criterion_03_ward_oracle():
    """500 random point sets (N <= 8) with random connected adjacency:
    the greedy merge sequence equals the exhaustive-recompute oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        adj = random_connected_adjacency(rng, n)
        m = int(rng.integers(1, n + 1))
        result = ward_constrained(points, adj, m, return_merges=True)
        assert list(result.merges) == ward_oracle(points, adj.pairs, m)
    assert time.monotonic() - start < 60


def test_criterion_04_autodiff_finite_differences():
    """Every primitive op passes a 64-bit central finite-difference check
    at max relative error 1e-4; the full forward pass plus loss on a
    20-face sample passes at 1e-3."""
    start = time.monotonic()
    rng = np.random.default_rng(11)

    def check_op(build, *arrays, tol=1e-4):
        params = [Tensor(a.astype(np.float64), requires_grad=True) for a in arrays]
        weight = None

        def scalar():
            nonlocal weight
            out = build(*params)
            if weight is None:
                weight = rng.normal(size=out.shape)
            if out.shape != ():
                out = reduce_sum(mul(out, Tensor(weight)))
            return out

        loss = scalar()
        ad.backward(loss)
        for p, a in zip(params, arrays):
            fd = finite_difference(lambda: scalar().item(), p.data)
            denom = np.maximum(np.abs(fd), 1.0)
            assert (np.abs(p.grad - fd) / denom).max() <= tol

    a34 = rng.normal(size=(3, 4))
    b42 = rng.normal(size=(4, 2))
    c34 = rng.normal(size=(3, 4))

    # the unfused projection and residual, kept as oracles of the fused
    # forms checked at the end
    check_op(matmul, a34, b42)
    check_op(add, a34, c34)
    check_op(mul, a34, c34)
    check_op(lambda x: scale(x, 1.7), a34)
    # keep relu inputs away from the kink
    check_op(oracle.relu, a34 + 0.3 * np.sign(a34))
    # the dense oracle's per-head ops keep their place in this order, so
    # the rng draws of every later check stay the same
    check_op(oracle.transpose, a34)
    check_op(lambda x, y: oracle.concat_last([x, y]), a34, c34)
    check_op(lambda x: oracle.slice_last(x, 1, 3), a34)
    check_op(reduce_sum, a34)
    check_op(lambda x: reduce_sum(x, axis=0), a34)
    check_op(oracle.reduce_mean, a34)
    check_op(lambda x: oracle.reduce_mean(x, axis=1), a34)
    check_op(lambda t: ad.embedding_lookup(t, np.array([0, 2, 2, 4])),
             rng.normal(size=(5, 3)))
    mask = np.zeros((3, 4))
    mask[0, 2] = mask[2, 0] = -np.inf
    check_op(lambda x: oracle.masked_softmax(x, mask), a34)
    check_op(log_softmax, a34)
    check_op(lambda x: gather_rows(log_softmax(x), np.array([1, 0, 3])), a34)
    check_op(ad.layer_norm, a34, rng.normal(size=4), rng.normal(size=4))
    check_op(
        lambda x: ad.dropout(x, 0.3, training=True, rng=np.random.default_rng(7)),
        a34,
    )

    # full network forward plus area-weighted cross-entropy
    sample = small_sample()  # 20 faces
    cfg = small_model_config(eigen_count=sample.eigen_count, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    weights = area_weights(sample.areas, sample.real_mask)

    def loss_value():
        scores = met_forward(sample, params, cfg)
        return weighted_cross_entropy(scores, sample.labels, weights)

    loss = loss_value()
    ad.backward(loss)
    # the model owns only the parameters a forward reads, so each has a gradient
    names = list(params)
    assert all(params[n].grad is not None for n in names)
    worst = 0.0
    for name in rng.choice(names, size=8, replace=False):
        flat = params[name].data.reshape(-1)
        grad_flat = params[name].grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            h = 1e-6 * max(1.0, abs(orig))
            flat[idx] = orig + h
            up = loss_value().item()
            flat[idx] = orig - h
            down = loss_value().item()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(grad_flat[idx] - fd) / max(abs(fd), 1e-4))
    assert worst <= 1e-3

    # the model's attention ops: two heads under a dense bias with a
    # blocked key and a log-count bias, and over a neighbor listing (the
    # live slots of a table with one empty slot) with a key listed twice
    # in one row
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    bias = np.zeros((3, 5))
    bias[0, 1] = -np.inf
    bias[2, :] = np.log([1.0, 2.0, 3.0, 1.0, 5.0])
    check_op(lambda a, b, c: ad.attention(a, b, c, bias, 2, 0.7), q, k, v)
    neighbors = ad.ListingPlan([0, 2, 4, 1, 3, 2, 4, 2], [0, 3, 5, 8], 5, 2)
    check_op(lambda a, b, c: ad.segment_attention(a, b, c, neighbors, 0.7), q, k, v)

    # the model's fused linear layer, without and with its ReLU, whose
    # inputs take both signs away from the kink
    x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
    check_op(ad.linear, x, w, b)
    pre = x @ w + b
    assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 0.01
    check_op(lambda a, ww, bb: ad.linear(a, ww, bb, relu=True), x, w, b)

    # the same op over the clusters' listing of the key rows: one segment
    # of a single key, an empty one, and one of the other four
    members = ad.ListingPlan([3, 0, 2, 4, 1], [0, 1, 1, 5], 5, 2)
    check_op(lambda a, b, c: ad.segment_attention(a, b, c, members, 0.7), q, k, v)

    # the fused loss op, with a zero-weight row as a padding face has
    nll_weights = rng.random(5)
    nll_weights[4] = 0.0
    nll_labels = np.array([2, 0, 1, 1, 0])
    check_op(lambda x: ad.weighted_nll(x, nll_labels, nll_weights), rng.normal(size=(5, 3)))

    # the fused forms of the model's bias-free projections and residuals:
    # a linear layer without a bias, and dropout plus a residual in
    # training and in eval mode
    check_op(ad.linear, x, w)
    for training in (True, False):
        check_op(lambda u, r: ad.dropout(u, 0.3, training, np.random.default_rng(7), residual=r),
                 a34, c34)

    # the model's feed-forward block, one node, whose ReLU inputs take both
    # signs away from the kink; with dropout, each evaluation draws the
    # same mask
    w1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
    w2, b2 = rng.normal(size=(5, 2)), rng.normal(size=2)
    pre = a34 @ w1 + b1
    assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 0.01
    check_op(ad.feed_forward, a34, w1, b1, w2, b2)
    check_op(lambda *t: ad.feed_forward(*t, 0.3, True, np.random.default_rng(7)),
             a34, w1, b1, w2, b2)
    assert time.monotonic() - start < 120


def test_criterion_05_permutation_equivariance():
    """20 random joint face permutations permute the eval-mode scores with
    max absolute deviation 1e-6 (64-bit)."""
    from conftest import permute_sample

    rng = np.random.default_rng(3)
    sample = small_sample(target_faces=24)
    cfg = small_model_config(eigen_count=sample.eigen_count)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    base = met_forward(sample, params, cfg).data
    for _ in range(20):
        perm = rng.permutation(sample.n_total)
        scores = met_forward(permute_sample(sample, perm), params, cfg).data
        assert np.abs(scores - base[perm]).max() <= 1e-6


def test_criterion_06_padding_invariance():
    """Adding 50 padding faces moves no real-face score by more than 1e-6,
    and the padding rows contribute exactly zero to loss and accuracy."""
    sample = small_sample()  # unpadded, 20 real faces
    cfg = small_model_config(eigen_count=sample.eigen_count)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)

    base = met_forward(sample, params, cfg).data
    padded = pad_sample(sample, sample.n_total + 50)
    scores = met_forward(padded, params, cfg)
    assert np.abs(scores.data[: sample.n_total] - base).max() <= 1e-6

    # loss: padding rows carry exactly-zero weight and the sentinel label,
    # so even wildly different padding scores change the value by 0 exactly
    weights = area_weights(padded.areas, padded.real_mask)
    assert (weights[sample.n_total:] == 0.0).all()
    full = weighted_cross_entropy(scores, padded.labels, weights)
    tampered = scores.data.copy()
    tampered[sample.n_total:] = [[1e6, -1e6]]
    retry = weighted_cross_entropy(Tensor(tampered), padded.labels, weights)
    assert full.item() == retry.item()

    # accuracy: zero-area masked-out padding rows change nothing
    pred = np.argmax(scores.data, axis=1)
    acc_full = area_accuracy(pred, padded.labels, padded.areas, padded.real_mask)
    flipped = pred.copy()
    flipped[sample.n_total:] = 1 - flipped[sample.n_total:]
    acc_retry = area_accuracy(flipped, padded.labels, padded.areas, padded.real_mask)
    assert acc_full == acc_retry
    # and it equals the unpadded metric computed over the real rows alone
    acc_real = area_accuracy(
        pred[: sample.n_total],
        padded.labels[: sample.n_total],
        padded.areas[: sample.n_total],
        padded.real_mask[: sample.n_total],
    )
    assert acc_full == acc_real


def test_criterion_07_overfit_smoke(overfit_samples):
    """Four ~200-face labeled spheres, reduced model (d_t=64, d_p=64,
    2 layers, 4 heads, E=8): training area accuracy reaches 0.99 within
    the 500-step AdamW budget, deterministically given the seed."""
    start = time.monotonic()
    model_cfg = small_model_config(**OVERFIT_MODEL)
    train_cfg = TrainConfig(max_steps=300, eval_every=50, **OVERFIT_TRAIN)
    _, history = train(overfit_samples, model_cfg, train_cfg)
    final = [h for h in history if h["split"] == "train"][-1]
    assert final["accuracy"] >= 0.99

    # same seed, same trajectory
    short = TrainConfig(max_steps=50, eval_every=25, **OVERFIT_TRAIN)
    _, h1 = train(overfit_samples, model_cfg, short)
    _, h2 = train(overfit_samples, model_cfg, short)
    assert trajectory(h1) == trajectory(h2)
    assert time.monotonic() - start < 600


def test_criterion_08_cluster_module_ablation(overfit_samples):
    """The cluster-modules ablation exposed by the CLI still trains on the
    overfit setup to area accuracy 0.90 or better."""
    overrides = ABLATIONS["cluster-modules"]
    assert overrides == {"use_cluster_stream": False}
    model_cfg = small_model_config(**OVERFIT_MODEL, **overrides)
    train_cfg = TrainConfig(max_steps=150, eval_every=50, **OVERFIT_TRAIN)
    _, history = train(overfit_samples, model_cfg, train_cfg)
    final = [h for h in history if h["split"] == "train"][-1]
    assert final["accuracy"] >= 0.90


def test_criterion_09_format_round_trips(tmp_path):
    """OFF and OBJ inputs survive Mesh -> colored PLY -> parse with faces
    exact and coordinates at 9 significant digits; a checkpoint reload
    reproduces evaluation scores bit-identically."""
    rng = np.random.default_rng(5)

    def nine_digits(values):
        return np.array(
            [[float(f"{x:.9g}") for x in row] for row in np.asarray(values)]
        )

    def assert_ply_round_trip(mesh):
        labels = LabelVec(
            labels=rng.integers(0, 2, size=mesh.num_faces), num_classes=2
        )
        text = write_ply_colored(mesh, labels, [(255, 0, 0), (0, 255, 0)])
        back, colors = parse_ply(text)
        assert [list(f) for f in back.faces] == [list(f) for f in mesh.faces]
        np.testing.assert_array_equal(back.vertices, nine_digits(mesh.vertices))
        assert colors is not None and len(colors) == mesh.num_faces

    # OFF -> Mesh -> PLY
    hull = random_sphere_mesh(rng, 12)
    off_lines = ["OFF", f"{hull.num_vertices} {hull.num_faces} 0"]
    off_lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in hull.vertices]
    off_lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in hull.faces]
    from_off = parse_off("\n".join(off_lines) + "\n")
    np.testing.assert_array_equal(from_off.vertices, hull.vertices)
    assert_ply_round_trip(from_off)

    # OBJ -> Mesh -> PLY
    obj_lines = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in hull.vertices]
    obj_lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in hull.faces]
    from_obj = parse_obj("\n".join(obj_lines) + "\n")
    np.testing.assert_array_equal(from_obj.vertices, hull.vertices)
    assert_ply_round_trip(from_obj)

    # checkpoint reload reproduces evaluation bit-for-bit
    sample = small_sample()
    cfg = small_model_config(eigen_count=sample.eigen_count)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = load_checkpoint(path)

    before = met_forward(sample, params, cfg).data
    after = met_forward(sample, loaded, loaded_cfg).data
    assert (before == after).all()
    m1 = evaluate([sample], params, cfg)
    m2 = evaluate([sample], loaded, loaded_cfg)
    assert m1.area_accuracy == m2.area_accuracy
    assert m1.per_class == m2.per_class
