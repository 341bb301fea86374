"""Reference per-element loops for vertex merging, the dual graph, the
normalized Laplacian, the positional features, the attention neighbor
listing and Ward clustering: the implementations that the numpy passes and
plain-float loops in ``meshseg`` replaced. Also the shift-invert Lanczos
solve on scipy's default factorization, which the symmetric-mode factor in
``meshseg.spectral.smallest_eigenpairs`` replaced.

The parity tests hold ``meshseg.mesh_io.merge_duplicate_vertices``,
``meshseg.spectral.build_dual_adjacency``,
``meshseg.spectral.normalized_laplacian``,
``meshseg.spectral.laplacian_positional_features``,
``meshseg.spectral.smallest_eigenpairs``' sparse path,
``meshseg.model.build_masks``' neighbor listing and
``meshseg.clustering.ward_constrained`` to these. QEM's reference is
``qem_oracle.py``. The union-find ``component_count_oracle`` is the
component count that scipy's ``connected_components`` replaced in
``meshseg.spectral.laplacian_positional_features``.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from meshseg.clustering import ClusterAssignment
from meshseg.mesh_io import Mesh
from meshseg.spectral import (
    ZERO_EIGENVALUE_TOL,
    AdjacencyMatrix,
    SpectralFeatures,
    smallest_eigenpairs,
)


def merge_duplicate_vertices_oracle(mesh: Mesh, eps: float = 0.0, return_face_mask=False):
    """Per-vertex merge: a dict of coordinate bytes for ``eps == 0``, one
    ball query per vertex otherwise."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    v = mesh.vertices
    n = len(v)
    remap = np.arange(n)
    if n:
        if eps == 0.0:
            seen: dict[bytes, int] = {}
            for i in range(n):
                key = v[i].tobytes()
                rep = seen.setdefault(key, i)
                remap[i] = rep
        else:
            from scipy.spatial import cKDTree

            tree = cKDTree(v)
            for i in range(n):
                target = i
                for j in sorted(tree.query_ball_point(v[i], eps)):
                    if j < i and remap[j] == j:
                        target = j
                        break
                remap[i] = target
    keep = np.flatnonzero(remap == np.arange(n))
    new_index = np.full(n, -1, dtype=np.int64)
    new_index[keep] = np.arange(len(keep))
    faces = new_index[remap[mesh.faces]]
    nondegenerate = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 0] != faces[:, 2])
    )
    merged = Mesh(vertices=v[keep], faces=faces[nondegenerate])
    if return_face_mask:
        return merged, nondegenerate
    return merged


def build_dual_adjacency_oracle(mesh: Mesh) -> AdjacencyMatrix:
    """Per-face dict of edge -> incident faces, then every face pair per edge."""
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fi, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (a, c)):
            key = (int(u), int(v)) if u < v else (int(v), int(u))
            edge_faces.setdefault(key, []).append(fi)
    pairs = set()
    for faces in edge_faces.values():
        if len(faces) > 1:
            for x in range(len(faces)):
                for y in range(x + 1, len(faces)):
                    i, j = faces[x], faces[y]
                    pairs.add((i, j) if i < j else (j, i))
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return AdjacencyMatrix(n=mesh.num_faces, pairs=arr)


def normalized_laplacian_oracle(adj: AdjacencyMatrix) -> sp.csr_matrix:
    """Degrees by ``np.add.at``, both directions of every pair as COO
    triples, plus a sparse identity."""
    deg = np.zeros(adj.n, dtype=np.int64)
    if adj.pairs.size:
        np.add.at(deg, adj.pairs[:, 0], 1)
        np.add.at(deg, adj.pairs[:, 1], 1)
    dinv = np.zeros(adj.n, dtype=np.float64)
    nz = deg > 0
    dinv[nz] = 1.0 / np.sqrt(deg[nz])
    eye = sp.identity(adj.n, format="csr")
    if not adj.pairs.size:
        return eye
    i = np.concatenate([adj.pairs[:, 0], adj.pairs[:, 1]])
    j = np.concatenate([adj.pairs[:, 1], adj.pairs[:, 0]])
    off = sp.csr_matrix((-dinv[i] * dinv[j], (i, j)), shape=(adj.n, adj.n))
    return (eye + off).tocsr()


def arpack_eigenpairs_oracle(lap: sp.csr_matrix, k: int):
    """The k smallest eigenpairs, ascending, from shift-invert Lanczos at
    sigma = -0.1 on the factor that ``eigsh`` builds itself: SuperLU of
    ``L + 0.1 I`` with its default column ordering and partial pivoting."""
    n = lap.shape[0]
    v0 = np.random.default_rng(12021).standard_normal(n)
    ncv = min(n, max(2 * k + 1, 40))
    values, vectors = spla.eigsh(lap.tocsc(), k=k, sigma=-0.1, which="LM", v0=v0, ncv=ncv)
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def laplacian_positional_features_oracle(
    lap: sp.csr_matrix, count: int, tol: float = ZERO_EIGENVALUE_TOL
) -> SpectralFeatures:
    """Grow-and-retry: solve for ``count + 1`` pairs, and again with more
    while fewer than ``count`` nonzero eigenvalues came back; sign-fix one
    column at a time. Components are counted by scipy's csgraph."""
    n = lap.shape[0]
    k = min(n, count + 1)
    while True:
        values, vectors, residual = smallest_eigenpairs(lap, k)
        nonzero = values >= tol
        if nonzero.sum() >= count or k == n:
            break
        k = min(n, count + int((~nonzero).sum()))
        if k <= len(values):
            k = min(n, len(values) + 1)
    keep = np.flatnonzero(nonzero)[:count]
    feats = np.zeros((n, count), dtype=np.float64)
    for out_col, src_col in enumerate(keep):
        column = vectors[:, src_col]
        feats[:, out_col] = -column if column[np.argmax(np.abs(column))] < 0 else column
    components = connected_components(lap, directed=False)[0]
    return SpectralFeatures(features=feats, residual=residual, components=int(components))


def component_count_oracle(adj: AdjacencyMatrix) -> int:
    """Connected components by union-find, an isolated node counting as one."""
    root = np.arange(adj.n)
    i, j = adj.pairs[:, 0], adj.pairs[:, 1]
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return int((root == np.arange(adj.n)).sum())
        # hang each larger root under the smallest root it is linked
        # to, then point every node straight at its root
        np.minimum.at(root, np.maximum(ri, rj)[cross], np.minimum(ri, rj)[cross])
        while (root[root] != root).any():
            root = root[root]


def neighbor_listing_oracle(adj: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Self and both directions of every pair, ordered by ``np.lexsort``,
    as the CSR listing (indptr, ids) of each node's closed neighborhood."""
    n = adj.n
    pairs = adj.pairs
    rows = np.concatenate([np.arange(n), pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(n), pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order]


def _ward_delta(size_a, centroid_a, size_b, centroid_b) -> float:
    diff = centroid_a - centroid_b
    return size_a * size_b / (size_a + size_b) * float(diff @ diff)


def ward_constrained_oracle(points, adj: AdjacencyMatrix, num_clusters: int,
                            return_merges: bool = False) -> ClusterAssignment:
    """Heap-driven Ward agglomeration with numpy centroids and ``diff @ diff``
    squared distances."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = len(points)
    if adj.n != n:
        raise ValueError(f"adjacency size {adj.n} != point count {n}")
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cluster count {num_clusters} outside [1, {n}]")

    size = {i: 1 for i in range(n)}
    centroid = {i: points[i].copy() for i in range(n)}
    min_member = {i: i for i in range(n)}
    members = {i: [i] for i in range(n)}
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}

    def entry(a: int, b: int):
        ma, mb = min_member[a], min_member[b]
        key = (ma, mb) if ma < mb else (mb, ma)
        return (_ward_delta(size[a], centroid[a], size[b], centroid[b]), key, a, b)

    heap = []
    for a, b in adj.pairs.tolist():
        neighbors[a].add(b)
        neighbors[b].add(a)
        heap.append(entry(a, b))
    heapq.heapify(heap)

    merges = []
    next_id = n
    while len(size) > num_clusters:
        if not heap:
            ids = sorted(size)
            neighbors.update({x: set(ids) - {x} for x in ids})
            heap = [entry(x, y) for xi, x in enumerate(ids) for y in ids[xi + 1 :]]
            heapq.heapify(heap)
        _, _, a, b = heapq.heappop(heap)
        if a not in size or b not in size:
            continue
        if return_merges:
            merges.append((tuple(sorted(members[a])), tuple(sorted(members[b]))))
        new = next_id
        next_id += 1
        total = size[a] + size[b]
        centroid[new] = (size[a] * centroid[a] + size[b] * centroid[b]) / total
        size[new] = total
        min_member[new] = min(min_member[a], min_member[b])
        members[new] = members[a] + members[b]
        neighbors[new] = (neighbors[a] | neighbors[b]) - {a, b}
        for old in (a, b):
            for k in neighbors[old]:
                neighbors[k].discard(old)
            del size[old], centroid[old], min_member[old], members[old], neighbors[old]
        for k in neighbors[new]:
            neighbors[k].add(new)
            heapq.heappush(heap, entry(k, new))

    order = sorted(size, key=lambda c: min_member[c])
    assignment = np.empty(n, dtype=np.int64)
    for cid, cluster in enumerate(order):
        assignment[members[cluster]] = cid
    return ClusterAssignment(
        assignment=assignment, num_clusters=len(order), merges=tuple(merges)
    )
