"""Connectivity-constrained Ward agglomerative clustering of triangles.

Starting from singletons, the pair of clusters joined by at least one
dual-graph edge whose merge least increases total within-cluster variance
is merged, until the requested cluster count is reached. Deterministic:
ties are broken by the smallest (min-member-index) pair, and no RNG is
involved.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from meshseg.spectral import AdjacencyMatrix

__all__ = [
    "ClusterAssignment",
    "cluster_count",
    "ward_constrained",
]


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


def _ward_delta(size_a, centroid_a, size_b, centroid_b) -> float:
    diff = centroid_a - centroid_b
    return size_a * size_b / (size_a + size_b) * float(diff @ diff)


def ward_constrained(
    points: np.ndarray,
    adj: AdjacencyMatrix,
    num_clusters: int,
    return_merges: bool = False,
) -> ClusterAssignment:
    """Greedy Ward agglomeration restricted to dual-graph-connected pairs.

    Merge cost for clusters a, b is ``|a||b|/(|a|+|b|) * |mu_a - mu_b|^2``,
    evaluated directly from maintained sizes and centroids (algebraically
    equal to the Lance-Williams update). The squared distance is numpy's
    ``diff @ diff``, a BLAS dot; the costs of the dual-graph pairs of
    singletons come from one batch of stacked 1 x D by D x 1 products, which
    take the same dot and match it bit for bit. Candidate pairs wait in one
    heap ordered by ``(cost, pair_key)``; an entry whose cluster was merged
    away is skipped when popped (lazy invalidation, Müllner,
    arXiv:1109.2378). Live entries are exact, since a live cluster's
    centroid never changes. If no connected pair is left before the target
    count, the heap is seeded once with every pair of the C remaining
    clusters (O(C^2) memory).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = len(points)
    if adj.n != n:
        raise ValueError(f"adjacency size {adj.n} != point count {n}")
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cluster count {num_clusters} outside [1, {n}]")

    size = {i: 1 for i in range(n)}
    centroid = dict(enumerate(points))
    min_member = {i: i for i in range(n)}
    members = {i: [i] for i in range(n)}
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}

    def entry(a: int, b: int):
        ma, mb = min_member[a], min_member[b]
        key = (ma, mb) if ma < mb else (mb, ma)
        return (_ward_delta(size[a], centroid[a], size[b], centroid[b]), key, a, b)

    first, second = adj.pairs[:, 0], adj.pairs[:, 1]
    diff = points[first] - points[second]
    square = np.matmul(diff[:, np.newaxis, :], diff[:, :, np.newaxis]).reshape(-1)
    pairs = list(zip(first.tolist(), second.tolist()))
    for a, b in pairs:
        neighbors[a].add(b)
        neighbors[b].add(a)
    # two singletons a < b: cost 1 * 1 / (1 + 1) * square, pair key (a, b)
    heap = list(zip((0.5 * square).tolist(), pairs, first.tolist(), second.tolist()))
    heapq.heapify(heap)

    merges = []
    next_id = n
    while len(size) > num_clusters:
        if not heap:
            # no connected pair is left: every cluster neighbors every other
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
