"""Dual-graph adjacency, normalized Laplacian, and eigenvector positional features.

The dual graph has one node per triangle; two nodes are linked when their
triangles share a mesh edge. Positional features for each triangle are the
components of the eigenvectors of the symmetric normalized Laplacian with
the smallest nonzero eigenvalues.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshseg.errors import EigensolverError
from meshseg.mesh_io import Mesh

__all__ = [
    "AdjacencyMatrix",
    "SpectralFeatures",
    "build_dual_adjacency",
    "normalized_laplacian",
    "smallest_eigenpairs",
    "laplacian_positional_features",
]

logger = logging.getLogger(__name__)

#: Absolute tolerance below which a Laplacian eigenvalue counts as zero.
ZERO_EIGENVALUE_TOL = 1e-8

#: Matrix sizes up to which a dense symmetric solve is used directly.
DENSE_SOLVE_THRESHOLD = 512

#: Largest eigenpair residual accepted, relative to ``max(|L|_F, 1)``.
EIGEN_RESIDUAL_TOL = 1e-8

#: Shift-invert Lanczos factors ``L + EIGEN_SHIFT I``. A point just left of
#: the spectrum spreads the wanted eigenvalues (0 to a few hundredths on
#: simplified meshes) far apart under ``1 / (lam + EIGEN_SHIFT)``, so Lanczos
#: restarts less often than it would at a wider shift.
EIGEN_SHIFT = 1e-3


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric binary adjacency stored as sorted (i, j) pairs with i < j."""

    n: int
    pairs: np.ndarray  # (K, 2) int64, lexicographically sorted, i < j

    def __post_init__(self):
        p = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        if p.size:
            if p.min() < 0 or p.max() >= self.n:
                raise ValueError("adjacency index out of range")
            if (p[:, 0] >= p[:, 1]).any():
                raise ValueError("pairs must satisfy i < j")
            # the keys i * n + j ascend strictly exactly when the pairs are
            # sorted and unique, as they are when they come from an adjacency
            keys = p[:, 0] * self.n + p[:, 1]
            if (np.diff(keys) <= 0).any():
                p = np.column_stack(np.divmod(np.unique(keys), self.n))
        object.__setattr__(self, "pairs", p)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)

    def closed_neighborhoods(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, ids)`` of A + I: row i lists node i and its
        neighbors in ascending order.

        The pairs are sorted with i < j, so a stable sort by row puts the
        smaller neighbors (ascending i of the pairs (i, r)) before r itself
        and the larger ones (ascending j of the pairs (r, j)) after it.
        """
        i, j, node = self.pairs[:, 0], self.pairs[:, 1], np.arange(self.n)
        rows = np.concatenate([j, node, i])
        ids = np.concatenate([i, node, j])[np.argsort(rows, kind="stable")]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return indptr, ids

    def with_n(self, n: int) -> "AdjacencyMatrix":
        """Same edge set on a larger node count (extra nodes isolated)."""
        if n < self.n:
            raise ValueError(f"cannot shrink adjacency from {self.n} to {n}")
        return AdjacencyMatrix(n=n, pairs=self.pairs)


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


def normalized_laplacian(adj: AdjacencyMatrix) -> sp.csr_matrix:
    """``L = I - D^{-1/2} A D^{-1/2}`` on the pattern of A + I.

    The diagonal is 1 and entry (i, j) of an edge is ``-d_i^{-1/2} d_j^{-1/2}``;
    an isolated node keeps a plain 1 on the diagonal and eigenvalue 1.
    """
    indptr, ids = adj.closed_neighborhoods()
    size = np.diff(indptr)
    # an isolated node's row holds only its diagonal, so its dinv is unread
    dinv = 1.0 / np.sqrt(np.maximum(size - 1, 1))
    rows = np.repeat(np.arange(adj.n), size)
    data = -dinv[rows] * dinv[ids]
    data[rows == ids] = 1.0
    return sp.csr_matrix((data, ids, indptr), shape=(adj.n, adj.n))


def smallest_eigenpairs(lap: sp.csr_matrix, k: int):
    """The k algebraically smallest eigenpairs of L.

    Returns ``(eigenvalues, eigenvectors, residual)`` with eigenvalues
    ascending, eigenvectors orthonormal in columns and ``residual`` the
    largest ``|L u - lam u|`` over the pairs (0 for none). Dense symmetric
    solve up to ``DENSE_SOLVE_THRESHOLD`` nodes; shift-invert Lanczos above.
    Unless ``residual <= EIGEN_RESIDUAL_TOL * max(|L|_F, 1)``, an
    :class:`EigensolverError` is raised.
    """
    n = lap.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds matrix size {n}")
    if k == 0:
        return np.empty(0), np.empty((n, 0)), 0.0
    if n <= DENSE_SOLVE_THRESHOLD or k >= n - 1:
        values, vectors = np.linalg.eigh(lap.toarray())
        values, vectors = values[:k], vectors[:, :k]
    else:
        # shift-invert around a point left of the spectrum keeps the
        # factorized operator L + EIGEN_SHIFT I symmetric positive definite, so it
        # needs no pivoting: SuperLU factors it on a symmetric ordering of
        # its pattern with the diagonal as pivots, which fills in less than
        # the default column ordering with partial pivoting. The start vector
        # is a fixed-seed random draw (a constant v0 coincides with the
        # zero-mode eigenvector on regular graphs and starves degenerate
        # multiplets)
        factor = spla.splu(
            sp.csc_matrix(lap + EIGEN_SHIFT * sp.identity(n)),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        solves = 0

        def solve(x):
            nonlocal solves
            solves += 1
            return factor.solve(x)

        v0 = np.random.default_rng(12021).standard_normal(n)
        ncv = min(n, max(2 * k + 1, 40))
        try:
            values, vectors = spla.eigsh(
                lap, k=k, sigma=-EIGEN_SHIFT, which="LM", v0=v0, ncv=ncv,
                OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=np.float64),
            )
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
        logger.debug(
            "eigensolve: n=%d, k=%d, factor nonzeros %d, %d solves", n, k, factor.nnz, solves
        )
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    worst = float(np.linalg.norm(lap @ vectors - vectors * values, axis=0).max(initial=0.0))
    limit = EIGEN_RESIDUAL_TOL * max(np.linalg.norm(lap.data), 1.0)
    if worst > limit:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {limit:.3e}", residual=worst
        )
    return values, vectors, worst


@dataclass(frozen=True)
class SpectralFeatures:
    """Per-triangle components of the retained Laplacian eigenvectors."""

    features: np.ndarray  # (N, E)
    residual: float  # worst residual of the eigenpairs solved for
    components: int  # connected components of the graph, isolated nodes included


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (lowest index on
    ties) is positive."""
    if not vectors.size:
        return vectors
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(top < 0, -vectors, vectors)


def laplacian_positional_features(adj: AdjacencyMatrix, count: int) -> SpectralFeatures:
    """Positional features from the ``count`` smallest nonzero-eigenvalue
    eigenvectors of the normalized Laplacian of ``adj``.

    Each connected component with an edge has one zero mode; an isolated
    node has eigenvalue 1. So one solve for ``count`` plus the number of
    zero modes covers the wanted columns. Eigenpairs below
    ``ZERO_EIGENVALUE_TOL`` are discarded; columns are sign-canonicalized
    deterministically and zero-padded when fewer than ``count`` nontrivial
    modes exist.
    """
    # imported here: processes that never preprocess skip its ~1 MB of RSS
    from scipy.sparse.csgraph import connected_components

    if count < 1:
        raise ValueError("count must be >= 1")
    lap = normalized_laplacian(adj)
    # the Laplacian's pattern is A + I, so an isolated node is a component
    components = int(connected_components(lap, directed=False)[0])
    zero_modes = components - int((adj.degrees() == 0).sum())
    values, vectors, residual = smallest_eigenpairs(lap, min(adj.n, count + zero_modes))
    keep = np.flatnonzero(values >= ZERO_EIGENVALUE_TOL)[:count]
    feats = np.zeros((adj.n, count), dtype=np.float64)
    feats[:, : keep.size] = _canonical_sign(vectors[:, keep])
    return SpectralFeatures(features=feats, residual=residual, components=components)
