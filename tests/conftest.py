"""Shared mesh generators and numerical oracles for the test suite."""

import multiprocessing

import numpy as np
import pytest

from meshseg.mesh_io import LabelVec, Mesh

# ---------------------------------------------------------------------------
# mesh generators


def tetrahedron() -> Mesh:
    return Mesh(
        vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        faces=[[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]],
    )


def icosahedron() -> Mesh:
    phi = (1 + np.sqrt(5)) / 2
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    return Mesh(vertices=verts, faces=faces)


def icosphere(subdivisions: int = 1) -> Mesh:
    """Subdivided icosahedron projected onto the unit sphere.

    Vertex counts: 12, 42, 162, 642 for subdivisions 0..3.
    """
    mesh = icosahedron()
    verts = [v for v in mesh.vertices]
    faces = [list(f) for f in mesh.faces]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = new_faces
    return Mesh(vertices=np.array(verts), faces=faces)


def random_hull_mesh(rng: np.random.Generator, n_points: int) -> Mesh:
    """Closed, outward-wound triangulated surface from the convex hull of
    random points."""
    from scipy.spatial import ConvexHull

    points = rng.normal(size=(n_points, 3))
    hull = ConvexHull(points)
    simplices = hull.simplices.copy()
    a, b, c = points[simplices[:, 0]], points[simplices[:, 1]], points[simplices[:, 2]]
    # hull.equations[:, :3] is each facet's outward normal
    inward = (np.cross(b - a, c - a) * hull.equations[:, :3]).sum(axis=1) < 0
    simplices[inward] = simplices[inward][:, [0, 2, 1]]
    used = np.unique(simplices)
    remap = {old: new for new, old in enumerate(used)}
    faces = np.vectorize(remap.get)(simplices)
    return Mesh(vertices=points[used], faces=faces)


def bumpy_sphere_mesh(rng: np.random.Generator, n_points: int, bump: float) -> Mesh:
    """Outward-wound hull of random unit-sphere points, each then moved
    radially by up to ``bump``; the dents make collapses fold faces over."""
    from scipy.spatial import ConvexHull

    points = rng.normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    faces = ConvexHull(points).simplices
    a, b, c = points[faces[:, 0]], points[faces[:, 1]], points[faces[:, 2]]
    inward = (np.cross(b - a, c - a) * (a + b + c)).sum(axis=1) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    radii = 1 + bump * rng.uniform(-1, 1, size=(n_points, 1))
    return Mesh(vertices=points * radii, faces=faces)


def seven_vertex_torus() -> Mesh:
    """The 7-vertex torus: every two vertices share an edge, so each edge
    has common neighbors off its two faces and no collapse is legal."""
    faces = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    faces += [[i, (i + 3) % 7, (i + 2) % 7] for i in range(7)]
    t = 2 * np.pi * np.arange(7) / 7
    ring = 2 + np.cos(3 * t)
    vertices = np.column_stack([ring * np.cos(t), ring * np.sin(t), np.sin(3 * t)])
    return Mesh(vertices=vertices, faces=np.array(faces))


def hemisphere_labeled_sphere(subdivisions=2, jitter=0.0, seed=0):
    """Sphere with 2-class labels split at the equator of face centroids."""
    mesh = icosphere(subdivisions)
    if jitter:
        rng = np.random.default_rng(seed)
        verts = mesh.vertices + rng.normal(scale=jitter, size=mesh.vertices.shape)
        mesh = Mesh(vertices=verts, faces=mesh.faces)
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    labels = (centroids[:, 2] >= 0).astype(np.int64)
    return mesh, LabelVec(labels=labels, num_classes=2)


def shared_edge_count(mesh: Mesh) -> dict:
    """Map edge -> number of incident faces, by enumeration."""
    counts = {}
    for a, b, c in mesh.faces:
        for u, v in ((a, b), (b, c), (a, c)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# adjacency views built from the (i, j) pairs, for checks only


def dense_adjacency(adj) -> np.ndarray:
    """Dense symmetric 0/1 matrix of an AdjacencyMatrix."""
    a = np.zeros((adj.n, adj.n), dtype=np.float64)
    if adj.pairs.size:
        a[adj.pairs[:, 0], adj.pairs[:, 1]] = 1.0
        a[adj.pairs[:, 1], adj.pairs[:, 0]] = 1.0
    return a


def neighbor_lists(adj) -> list[list[int]]:
    """Neighbors of each node, in pair order."""
    out: list[list[int]] = [[] for _ in range(adj.n)]
    for i, j in adj.pairs:
        out[i].append(int(j))
        out[j].append(int(i))
    return out


def connected_components(adj) -> int:
    """Number of connected components, counting isolated nodes."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as components

    i, j = adj.pairs[:, 0], adj.pairs[:, 1]
    graph = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(adj.n, adj.n))
    n_comp, _ = components(graph, directed=False)
    return int(n_comp)


# ---------------------------------------------------------------------------
# cluster and area views of a sample, for checks only


def one_hot(ids, width: int) -> np.ndarray:
    """(len(ids), width) 0/1 matrix with a 1 in column ids[i] of row i."""
    j = np.zeros((len(ids), width), dtype=np.float64)
    j[np.arange(len(ids)), ids] = 1.0
    return j


def sample_area_weights(sample) -> np.ndarray:
    """Face areas over the sample's total area (0 on padding faces)."""
    return sample.areas / sample.areas.sum()


def area_accuracy(
    predicted: np.ndarray,
    true_labels: np.ndarray,
    areas: np.ndarray,
    real_mask: np.ndarray,
) -> float:
    """Correctly classified surface area over total real surface area."""
    real = np.asarray(real_mask, dtype=bool)
    total = areas[real].sum()
    if total <= 0:
        raise ValueError("total face area is zero")
    correct = areas[real & (np.asarray(predicted) == np.asarray(true_labels))].sum()
    return float(correct / total)


# ---------------------------------------------------------------------------
# numerical oracles


def round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brent-Luk parallel ordering of the pairs of n indices (n even): n - 1
    rounds of n / 2 disjoint pairs (p, q), p < q, covering every pair once.
    Index 0 stays put while the others turn one place per round."""
    others = np.arange(1, n)
    rounds = []
    for r in range(n - 1):
        ring = np.concatenate([[0], np.roll(others, r)])
        left, right = ring[: n // 2], ring[::-1][: n // 2]
        rounds.append((np.minimum(left, right), np.maximum(left, right)))
    return rounds


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 100):
    """Jacobi eigensolver for symmetric matrices, in round-robin order.

    Independent of numpy.linalg.eigh and of any LAPACK or ARPACK routine;
    used as the brute-force oracle for the spectral module. Each round
    applies n / 2 rotations on disjoint index pairs at once; their angles
    read only their own rows and columns, so a round equals the same
    rotations applied one after another. An odd-sized matrix gets one
    decoupled zero row and column, whose rotations are all skipped. Returns
    ascending eigenvalues and the matching orthonormal eigenvector columns.
    """
    given = np.array(matrix, dtype=np.float64)
    n = len(given)
    size = n + n % 2
    a = np.zeros((size, size))
    a[:n, :n] = given
    v = np.eye(size)
    rounds = round_robin_pairs(size)
    for _ in range(sweeps):
        off = np.sqrt((np.tril(a, -1) ** 2).sum())
        if off < 1e-13:
            break
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) >= 1e-16
            theta = (a[q, q] - a[p, p]) / (2 * np.where(active, apq, 1.0))
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1))
            t = np.where(active, np.where(theta == 0, 1.0, t), 0.0)
            c = 1.0 / np.sqrt(t * t + 1)
            s = t * c
            for m in (a, v):
                mp, mq = m[:, p], m[:, q]
                m[:, p], m[:, q] = c * mp - s * mq, s * mp + c * mq
            ap, aq = a[p, :], a[q, :]
            a[p, :] = c[:, np.newaxis] * ap - s[:, np.newaxis] * aq
            a[q, :] = s[:, np.newaxis] * ap + c[:, np.newaxis] * aq
    values = np.diag(a)[:n].copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:n, :n][:, order]


def ward_oracle(points, adj_pairs, num_clusters):
    """Exhaustive-recompute Ward merge sequence with the same tie rule.

    Every step recomputes all pairwise merge costs from the raw member
    points. Returns the list of merged member tuples.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    edges = {(int(i), int(j)) for i, j in adj_pairs}
    clusters = [frozenset([i]) for i in range(n)]
    merges = []

    def connected(ca, cb):
        return any(
            ((i, j) in edges or (j, i) in edges) for i in ca for j in cb
        )

    def delta(ca, cb):
        mu_a = points[sorted(ca)].mean(axis=0)
        mu_b = points[sorted(cb)].mean(axis=0)
        d = mu_a - mu_b
        return len(ca) * len(cb) / (len(ca) + len(cb)) * float(d @ d)

    while len(clusters) > num_clusters:
        candidates = [
            (a, b)
            for ai, a in enumerate(clusters)
            for b in clusters[ai + 1 :]
            if connected(a, b)
        ]
        if not candidates:
            candidates = [
                (a, b)
                for ai, a in enumerate(clusters)
                for b in clusters[ai + 1 :]
            ]
        best = min(
            candidates,
            key=lambda pair: (
                delta(*pair),
                tuple(sorted((min(pair[0]), min(pair[1])))),
            ),
        )
        a, b = best
        merges.append((tuple(sorted(a)), tuple(sorted(b))))
        clusters = [c for c in clusters if c not in (a, b)] + [a | b]
    return merges


def transfer_labels_oracle(original, original_labels, simplified) -> np.ndarray:
    """Per-face bucket form of label transfer: majority label over the
    original faces whose centroids map nearest to each simplified face,
    smallest class on ties, nearest original face for a face no centroid
    maps to."""
    from scipy.spatial import cKDTree

    from meshseg.preprocess import triangle_centroids

    src_centroids = triangle_centroids(original)
    dst_centroids = triangle_centroids(simplified)
    tree = cKDTree(dst_centroids)
    _, nearest = tree.query(src_centroids)
    out = np.full(simplified.num_faces, -1, dtype=np.int64)
    buckets: dict[int, list[int]] = {}
    for src, dst in enumerate(nearest):
        buckets.setdefault(int(dst), []).append(int(original_labels[src]))
    for dst, labs in buckets.items():
        counts = np.bincount(labs)
        out[dst] = int(counts.argmax())  # argmax picks the smallest index on ties
    orphans = np.flatnonzero(out < 0)
    if orphans.size:
        back = cKDTree(src_centroids)
        _, src_for = back.query(dst_centroids[orphans])
        out[orphans] = original_labels[np.atleast_1d(src_for)]
    return out


def finite_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(orig))
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        out[i] = (up - down) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# small network fixtures


def small_sample(eigen_count=4, target_faces=None, lam=4.0, subdivisions=0):
    """Labeled 20-face sphere sample with a tiny feature width."""
    from meshseg.preprocess import PreprocessConfig, build_sample

    mesh, labels = hemisphere_labeled_sphere(subdivisions=subdivisions)
    cfg = PreprocessConfig(
        target_faces=target_faces or mesh.num_faces,
        eigen_count=eigen_count,
        clustering_lambda=lam,
        simplify=False,
    )
    return build_sample(mesh, labels, cfg)


def small_model_config(**overrides):
    from meshseg.model import ModelConfig

    base = dict(
        num_classes=2,
        eigen_count=4,
        d_t=16,
        d_p=16,
        num_layers=2,
        num_heads=2,
        ff_multiplier=2,
        max_clusters=8,
        dropout=0.1,
    )
    base.update(overrides)
    return ModelConfig(**base)


# fields of a training record that measure the run (time, throughput,
# memory) rather than follow from the seed
RUN_MEASUREMENTS = ("forward_s", "backward_s", "optim_s", "samples_per_s", "peak_rss_mb",
                    "worker_peak_rss_mb")


def trajectory(history):
    """A training history without its run measurements: what one seed fixes."""
    return [{k: v for k, v in h.items() if k not in RUN_MEASUREMENTS} for h in history]


def permute_sample(sample, perm):
    """Apply a joint face permutation to every per-face field of a sample."""
    from dataclasses import replace

    from meshseg.spectral import AdjacencyMatrix

    perm = np.asarray(perm)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    old_pairs = sample.adjacency.pairs
    if old_pairs.size:
        mapped = inverse[old_pairs]
        pairs = np.sort(mapped, axis=1)
    else:
        pairs = old_pairs
    return replace(
        sample,
        features=sample.features[perm],
        adjacency=AdjacencyMatrix(n=sample.n_total, pairs=pairs),
        cluster_ids=sample.cluster_ids[perm],
        labels=sample.labels[perm],
        areas=sample.areas[perm],
        real_mask=sample.real_mask[perm],
    )


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process of this one still runs."""
    yield
    children = multiprocessing.active_children()
    if children:
        pytest.fail(f"child processes left running: {children}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
