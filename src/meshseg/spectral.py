"""Dual-graph adjacency, normalized Laplacian, and eigenvector positional features.

The dual graph has one node per triangle; two nodes are linked when their
triangles share a mesh edge. Positional features for each triangle are the
components of the eigenvectors of the symmetric normalized Laplacian with
the smallest nonzero eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshseg.errors import EigensolverError
from meshseg.mesh_io import Mesh

__all__ = [
    "AdjacencyMatrix",
    "LaplacianMatrix",
    "SpectralFeatures",
    "build_dual_adjacency",
    "normalized_laplacian",
    "smallest_eigenpairs",
    "laplacian_positional_features",
]

#: Absolute tolerance below which a Laplacian eigenvalue counts as zero.
ZERO_EIGENVALUE_TOL = 1e-8

#: Matrix sizes up to which a dense symmetric solve is used directly.
DENSE_SOLVE_THRESHOLD = 512


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric binary adjacency stored as sorted (i, j) pairs with i < j."""

    n: int
    pairs: np.ndarray  # (K, 2) int64, lexicographically sorted, i < j

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if p.size:
            if p.min() < 0 or p.max() >= self.n:
                raise ValueError("adjacency index out of range")
            if (p[:, 0] >= p[:, 1]).any():
                raise ValueError("pairs must satisfy i < j")
            p = np.unique(p, axis=0)
        object.__setattr__(self, "pairs", p)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        if self.pairs.size:
            np.add.at(d, self.pairs[:, 0], 1)
            np.add.at(d, self.pairs[:, 1], 1)
        return d

    def component_count(self) -> int:
        """Connected components, an isolated node counting as one."""
        root = np.arange(self.n)
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        while True:
            ri, rj = root[i], root[j]
            cross = ri != rj
            if not cross.any():
                return int((root == np.arange(self.n)).sum())
            # hang each larger root under the smallest root it is linked
            # to, then point every node straight at its root
            np.minimum.at(root, np.maximum(ri, rj)[cross], np.minimum(ri, rj)[cross])
            while (root[root] != root).any():
                root = root[root]

    def with_n(self, n: int) -> "AdjacencyMatrix":
        """Same edge set on a larger node count (extra nodes isolated)."""
        if n < self.n:
            raise ValueError(f"cannot shrink adjacency from {self.n} to {n}")
        return AdjacencyMatrix(n=n, pairs=self.pairs)


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric normalized Laplacian of an adjacency matrix.

    ``L = I - D^{-1/2} A D^{-1/2}``, with the convention that
    ``D^{-1/2}_{ii} = 0`` for isolated nodes (which therefore carry a plain
    1 on the diagonal and eigenvalue 1).
    """

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def frobenius_norm(self) -> float:
        return float(np.sqrt((self.matrix.data**2).sum()))


def build_dual_adjacency(mesh: Mesh) -> AdjacencyMatrix:
    """Adjacency of the triangle dual graph: faces sharing a mesh edge.

    An edge shared by more than two faces links every incident face pair.
    The face corners' edge keys are sorted once; each run of equal keys
    lists the faces at one edge in ascending order.
    """
    faces = mesh.faces
    corners = faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
    keys = corners.min(axis=1) * (mesh.num_vertices + 1) + corners.max(axis=1)
    order = np.argsort(keys, kind="stable")
    keys, face_of = keys[order], order // 3
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    runs = np.diff(np.r_[starts, len(keys)])
    # faces after each one in its run; the k-th later face is k rows down
    later = np.repeat(starts + runs, runs) - np.arange(len(keys)) - 1
    pairs = []
    for k in range(1, later.max(initial=0) + 1):
        first = np.flatnonzero(later >= k)
        pairs.append(np.column_stack([face_of[first], face_of[first + k]]))
    arr = np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
    return AdjacencyMatrix(n=mesh.num_faces, pairs=arr)


def normalized_laplacian(adj: AdjacencyMatrix) -> LaplacianMatrix:
    """Build ``L = I - D^{-1/2} A D^{-1/2}`` from adjacency-list degrees."""
    deg = adj.degrees()
    dinv = np.zeros(adj.n, dtype=np.float64)
    nz = deg > 0
    dinv[nz] = 1.0 / np.sqrt(deg[nz])
    eye = sp.identity(adj.n, format="csr")
    if adj.pairs.size:
        i = np.concatenate([adj.pairs[:, 0], adj.pairs[:, 1]])
        j = np.concatenate([adj.pairs[:, 1], adj.pairs[:, 0]])
        off = sp.csr_matrix((-dinv[i] * dinv[j], (i, j)), shape=(adj.n, adj.n))
        lap = (eye + off).tocsr()
    else:
        lap = eye
    return LaplacianMatrix(matrix=lap)


def _worst_residual(lap: LaplacianMatrix, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest ``|L u - lam u|`` over the eigenpairs (0 for none)."""
    residual = lap.matrix @ vectors - vectors * values[np.newaxis, :]
    return float(np.linalg.norm(residual, axis=0).max(initial=0.0))


def smallest_eigenpairs(lap: LaplacianMatrix, k: int, tol: float = 1e-8):
    """The k algebraically smallest eigenpairs of L.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors orthonormal in columns. Dense symmetric solve up to
    ``DENSE_SOLVE_THRESHOLD`` nodes; shift-invert Lanczos above. The
    per-pair residual must satisfy ``|L u - lam u| <= tol * |L|_F`` or an
    :class:`EigensolverError` is raised.
    """
    n = lap.n
    if k > n:
        raise ValueError(f"k={k} exceeds matrix size {n}")
    if k == 0:
        return np.empty(0), np.empty((n, 0))
    if n <= DENSE_SOLVE_THRESHOLD or k >= n - 1:
        values, vectors = np.linalg.eigh(lap.to_dense())
        values, vectors = values[:k], vectors[:, :k]
    else:
        # shift-invert around a point left of the spectrum keeps the
        # factorized operator positive definite; the start vector is a
        # fixed-seed random draw (a constant v0 coincides with the zero-mode
        # eigenvector on regular graphs and starves degenerate multiplets)
        v0 = np.random.default_rng(12021).standard_normal(n)
        ncv = min(n, max(2 * k + 1, 40))
        try:
            values, vectors = spla.eigsh(
                lap.matrix.tocsc(), k=k, sigma=-0.1, which="LM", v0=v0, ncv=ncv
            )
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    worst = _worst_residual(lap, values, vectors)
    limit = tol * max(lap.frobenius_norm(), 1.0)
    if worst > limit:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {limit:.3e}", residual=worst
        )
    return values, vectors


@dataclass(frozen=True)
class SpectralFeatures:
    """Per-triangle components of the retained Laplacian eigenvectors."""

    features: np.ndarray  # (N, E)
    residual: float  # worst residual of the eigenpairs solved for


def _canonical_sign(column: np.ndarray) -> np.ndarray:
    """Flip a column so its largest-magnitude entry (lowest index on ties)
    is positive."""
    if not column.size:
        return column
    idx = int(np.argmax(np.abs(column)))
    if column[idx] < 0:
        return -column
    return column


def laplacian_positional_features(
    lap: LaplacianMatrix, count: int, tol: float = ZERO_EIGENVALUE_TOL
) -> SpectralFeatures:
    """Positional features from the ``count`` smallest nonzero-eigenvalue
    eigenvectors.

    Eigenpairs with eigenvalue below ``tol`` (the zero modes, one per
    connected component with edges) are discarded. Columns are
    sign-canonicalized deterministically and zero-padded when fewer than
    ``count`` nontrivial modes exist.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = lap.n
    k = min(n, count + 1)
    while True:
        values, vectors = smallest_eigenpairs(lap, k)
        nonzero = values >= tol
        if nonzero.sum() >= count or k == n:
            break
        k = min(n, count + int((~nonzero).sum()))
        if k <= len(values):
            k = min(n, len(values) + 1)
    keep = np.flatnonzero(nonzero)[:count]
    feats = np.zeros((n, count), dtype=np.float64)
    for out_col, src_col in enumerate(keep):
        feats[:, out_col] = _canonical_sign(vectors[:, src_col])
    return SpectralFeatures(features=feats, residual=_worst_residual(lap, values, vectors))
