"""Connectivity-constrained Ward agglomerative clustering of triangles.

Starting from singletons, the pair of clusters joined by at least one
dual-graph edge whose merge least increases total within-cluster variance
is merged, until the requested cluster count is reached. Deterministic:
ties are broken by the smallest (min-member-index) pair, and no RNG is
involved.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from meshseg.spectral import AdjacencyMatrix

__all__ = [
    "ClusterAssignment",
    "cluster_count",
    "ward_constrained",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterAssignment:
    """Triangle-to-cluster assignment with canonical ids.

    Ids are 0..M-1 in ascending order of each cluster's smallest member
    index. ``merges``, when recorded, lists the merged member tuples in
    order.
    """

    assignment: np.ndarray  # (N,) int64
    num_clusters: int
    merges: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.size:
            present = np.unique(a)
            if present[0] < 0 or present[-1] >= self.num_clusters:
                raise ValueError("cluster id out of range")
            if len(present) != self.num_clusters:
                raise ValueError("empty cluster id")


def cluster_count(num_vertices: int, lam: float) -> int:
    """Number of clusters for a mesh with the given vertex count: at least
    one, otherwise the floor of vertices / lambda."""
    if num_vertices < 1:
        raise ValueError("vertex count must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return max(1, int(num_vertices // lam))


def _squared_distances(left, right) -> list[float]:
    """``|l - r|^2`` for each row pair of two (K, D) arrays, or of a (K, D)
    array and one row, as one batch of stacked 1 x D by D x 1 products: the
    same BLAS dot as numpy's per-pair ``diff @ diff``, bit for bit."""
    diff = np.asarray(left, dtype=np.float64) - np.asarray(right, dtype=np.float64)
    return np.matmul(diff[:, np.newaxis, :], diff[:, :, np.newaxis]).reshape(-1).tolist()


def ward_constrained(
    points: np.ndarray,
    adj: AdjacencyMatrix,
    num_clusters: int,
    return_merges: bool = False,
) -> ClusterAssignment:
    """Greedy Ward agglomeration restricted to dual-graph-connected pairs.

    Merge cost for clusters a, b is ``|a||b|/(|a|+|b|) * |mu_a - mu_b|^2``,
    evaluated directly from maintained sizes and centroids (algebraically
    equal to the Lance-Williams update). Cluster state lives in lists
    indexed by cluster id: singletons are 0..n-1 and the i-th merge makes
    cluster n + i. Centroids are tuples of Python floats, merged component
    by component with the same IEEE operations numpy would use. The squared
    distances, which decide near-tie merges, are BLAS dots: one batch per
    merge for the new cluster's neighbors and one for the dual-graph pairs
    of singletons (``_squared_distances``). Candidate pairs wait in one heap
    ordered by ``(cost, ma * n + mb)``, where ``ma < mb`` are the pair's
    smallest member indices; an entry whose cluster was merged away is
    skipped when popped (lazy invalidation, Müllner, arXiv:1109.2378). Live
    entries are exact, since a live cluster's centroid never changes. Each
    pair of neighboring live clusters has exactly one live entry, so a merge
    of a and b makes ``|N(a)| + |N(b)| - 2`` entries stale; once stale entries
    outnumber live ones, the heap is rebuilt from the live ones. The heap
    always pops its least entry, so this leaves the merge order unchanged. If
    no connected pair is left before the target count, the heap is seeded
    once with every pair of the C remaining clusters (O(C^2) memory). Under
    ``MESHSEG_LOG=debug`` it logs its merges, heap pops, stale pops, heap
    rebuilds and whether it used that fallback.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = len(points)
    if adj.n != n:
        raise ValueError(f"adjacency size {adj.n} != point count {n}")
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cluster count {num_clusters} outside [1, {n}]")

    size = [1] * n
    centroid = list(map(tuple, points.tolist()))
    min_member = list(range(n))
    members: list[list[int] | None] = [[i] for i in range(n)]
    # None once the cluster is merged away
    neighbors: list[set[int] | None] = [set() for _ in range(n)]

    first, second = adj.pairs[:, 0].tolist(), adj.pairs[:, 1].tolist()
    for a, b in zip(first, second):
        neighbors[a].add(b)
        neighbors[b].add(a)
    # two singletons a < b: cost 1 * 1 / (1 + 1) * square, pair key a * n + b
    square = _squared_distances(points[adj.pairs[:, 0]], points[adj.pairs[:, 1]])
    heap = [(0.5 * sq, a * n + b, a, b) for sq, a, b in zip(square, first, second)]
    heapq.heapify(heap)

    heappop, heappush = heapq.heappop, heapq.heappush
    merges = []
    live = n
    pops = 0
    stale = 0  # entries in the heap whose cluster was merged away
    rebuilds = 0
    fallback = False
    while live > num_clusters:
        if not heap:
            # no connected pair is left: every cluster neighbors every other
            fallback = True
            ids = [c for c, nb in enumerate(neighbors) if nb is not None]
            for x in ids:
                neighbors[x] = set(ids) - {x}
            for xi, x in enumerate(ids[:-1]):
                later = ids[xi + 1 :]
                square = _squared_distances(centroid[x], [centroid[y] for y in later])
                sx, mx = size[x], min_member[x]
                for y, sq in zip(later, square):
                    my = min_member[y]
                    key = mx * n + my if mx < my else my * n + mx
                    heap.append((sx * size[y] / (sx + size[y]) * sq, key, x, y))
            heapq.heapify(heap)
        _, _, a, b = heappop(heap)
        pops += 1
        if neighbors[a] is None or neighbors[b] is None:
            stale -= 1
            continue
        if return_merges:
            merges.append((tuple(sorted(members[a])), tuple(sorted(members[b]))))
        new = len(size)
        sa, sb = size[a], size[b]
        total = sa + sb
        merged = tuple([(sa * x + sb * y) / total for x, y in zip(centroid[a], centroid[b])])
        mn = min(min_member[a], min_member[b])
        size.append(total)
        centroid.append(merged)
        min_member.append(mn)
        members.append(members[a] + members[b])
        around = neighbors[a] | neighbors[b]
        around.discard(a)
        around.discard(b)
        neighbors.append(around)
        # the entries of a's and b's other neighbors; a-b itself was popped
        stale += len(neighbors[a]) + len(neighbors[b]) - 2
        members[a] = members[b] = neighbors[a] = neighbors[b] = None
        live -= 1
        if 2 * stale > len(heap):
            heap = [e for e in heap if neighbors[e[2]] is not None and neighbors[e[3]] is not None]
            heapq.heapify(heap)
            stale = 0
            rebuilds += 1
        if not around:
            continue
        ks = list(around)
        square = _squared_distances([centroid[k] for k in ks], merged)
        for k, sq in zip(ks, square):
            nk = neighbors[k]
            nk.discard(a)
            nk.discard(b)
            nk.add(new)
            sk, mk = size[k], min_member[k]
            key = mk * n + mn if mk < mn else mn * n + mk
            heappush(heap, (sk * total / (sk + total) * sq, key, k, new))
    logger.debug("ward: %d merges, %d pops, %d stale pops, %d heap rebuilds, "
                 "disconnected fallback %s", n - live, pops, pops - (n - live), rebuilds, fallback)

    order = sorted((c for c, nb in enumerate(neighbors) if nb is not None),
                   key=min_member.__getitem__)
    assignment = np.empty(n, dtype=np.int64)
    for cid, cluster in enumerate(order):
        assignment[members[cluster]] = cid
    return ClusterAssignment(
        assignment=assignment, num_clusters=len(order), merges=tuple(merges)
    )
