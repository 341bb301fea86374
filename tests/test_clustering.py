"""Connectivity-constrained Ward clustering, checked against the
exhaustive-recompute oracle from conftest."""

import heapq
import logging

import numpy as np
import pytest

from meshseg.clustering import (
    ClusterAssignment,
    cluster_count,
    ward_constrained,
)
from meshseg.simplify import simplify_qem
from meshseg.spectral import AdjacencyMatrix, build_dual_adjacency

from conftest import (
    bumpy_sphere_mesh,
    connected_components,
    neighbor_lists,
    one_hot,
    ward_oracle,
)
from loop_oracles import ward_constrained_oracle
from dense_model import co_membership


def chain_adjacency(n):
    return AdjacencyMatrix(n=n, pairs=[[i, i + 1] for i in range(n - 1)])


def random_connected_adjacency(rng, n):
    """Random spanning tree plus random extra edges."""
    pairs = set()
    order = rng.permutation(n)
    for k in range(1, n):
        j = order[k]
        i = order[rng.integers(0, k)]
        pairs.add((min(i, j), max(i, j)))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return AdjacencyMatrix(n=n, pairs=sorted(pairs))


class TestClusterCount:
    def test_paper_scale(self):
        assert cluster_count(1200, 8) == 150

    def test_floor_then_clamp(self):
        assert cluster_count(5, 8) == 1

    def test_sixteen(self):
        assert cluster_count(16, 8) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            cluster_count(0, 8)
        with pytest.raises(ValueError):
            cluster_count(10, 0)


class TestWardConstrained:
    def test_chain_example(self):
        # merge cost 0-1 is 0.5, 1-2 is 2.0; the chain forbids 0-2 directly
        points = np.array([[0.0], [1.0], [3.0]])
        result = ward_constrained(points, chain_adjacency(3), 2)
        assert result.assignment.tolist() == [0, 0, 1]
        assert result.num_clusters == 2

    def test_identity_when_m_equals_n(self, rng):
        points = rng.normal(size=(6, 3))
        result = ward_constrained(points, chain_adjacency(6), 6)
        assert result.assignment.tolist() == list(range(6))

    def test_single_cluster(self, rng):
        points = rng.normal(size=(5, 2))
        result = ward_constrained(points, chain_adjacency(5), 1)
        assert result.assignment.tolist() == [0] * 5
        assert result.num_clusters == 1

    def test_canonical_relabeling(self):
        # cluster containing face 0 gets id 0 regardless of merge order
        points = np.array([[0.0], [10.0], [0.1], [10.1]])
        adj = AdjacencyMatrix(n=4, pairs=[[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]])
        result = ward_constrained(points, adj, 2)
        assert result.assignment.tolist() == [0, 1, 0, 1]

    def test_connectivity_constraint_respected(self, rng):
        """Each cluster induces a connected dual subgraph when the source
        graph is connected."""
        for _ in range(20):
            n = int(rng.integers(4, 16))
            adj = random_connected_adjacency(rng, n)
            points = rng.normal(size=(n, 3))
            m = int(rng.integers(1, n + 1))
            result = ward_constrained(points, adj, m)
            neighbor = neighbor_lists(adj)
            for cid in range(result.num_clusters):
                members = set(np.flatnonzero(result.assignment == cid).tolist())
                seen = {min(members)}
                frontier = [min(members)]
                while frontier:
                    cur = frontier.pop()
                    for nb in neighbor[cur]:
                        if nb in members and nb not in seen:
                            seen.add(nb)
                            frontier.append(nb)
                assert seen == members

    def test_matches_oracle_small_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 9))
            adj = random_connected_adjacency(rng, n)
            points = rng.normal(size=(n, int(rng.integers(1, 4))))
            m = int(rng.integers(1, n))
            result = ward_constrained(points, adj, m, return_merges=True)
            expected = ward_oracle(points, adj.pairs, m)
            assert list(result.merges) == expected

    def test_disconnected_fallback(self):
        # two components, target below component count: cheapest unconnected
        # pair merges after the connected options are used up
        points = np.array([[0.0], [1.0], [100.0], [101.0]])
        adj = AdjacencyMatrix(n=4, pairs=[[0, 1], [2, 3]])
        result = ward_constrained(points, adj, 1, return_merges=True)
        assert result.num_clusters == 1
        assert result.merges[0] == ((0,), (1,))
        assert result.merges[1] == ((2,), (3,))
        assert result.merges[2] == ((0, 1), (2, 3))

    def test_disconnected_matches_oracle(self, rng):
        """Graphs of 2-8 nodes with at least 2 components and a target below
        the component count, so the last merges join unconnected clusters."""
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 9))
            pairs = {
                (min(i, j), max(i, j))
                for i, j in rng.integers(0, n, size=(int(rng.integers(0, n)), 2))
                if i != j
            }
            adj = AdjacencyMatrix(n=n, pairs=sorted(pairs))
            components = connected_components(adj)
            if components < 2:
                continue
            points = rng.normal(size=(n, int(rng.integers(1, 4))))
            m = int(rng.integers(1, components))
            result = ward_constrained(points, adj, m, return_merges=True)
            assert list(result.merges) == ward_oracle(points, adj.pairs, m)
            checked += 1

    def test_matches_loop_oracle(self, rng):
        """The batched singleton costs against the per-pair heap loop they
        replaced: the same merges and assignment, on graphs with ties
        (repeated points), wide points and disconnected parts."""
        for trial in range(60):
            n = int(rng.integers(2, 60))
            adj = (random_connected_adjacency(rng, n) if trial % 3
                   else AdjacencyMatrix(n=n, pairs=[[i, i + 1] for i in range(0, n - 1, 2)]))
            dims = int(rng.choice([1, 3, 28]))
            points = rng.normal(size=(n, dims)) * 10.0 ** rng.integers(-3, 4)
            if trial % 2:
                points[rng.integers(0, n, size=n // 2)] = points[0]
            m = int(rng.integers(1, n + 1))
            got = ward_constrained(points, adj, m, return_merges=True)
            want = ward_constrained_oracle(points, adj, m, return_merges=True)
            assert got.merges == want.merges
            np.testing.assert_array_equal(got.assignment, want.assignment)

    def test_matches_loop_oracle_on_mesh_centroids(self):
        rng = np.random.default_rng(3)
        mesh = bumpy_sphere_mesh(rng, 400, 0.1)
        points = mesh.vertices[mesh.faces].mean(axis=1)
        adj = build_dual_adjacency(mesh)
        got = ward_constrained(points, adj, 50, return_merges=True)
        want = ward_constrained_oracle(points, adj, 50, return_merges=True)
        assert got.merges == want.merges

    @pytest.mark.parametrize("seed", [50, 1789, 1825, 2875])
    def test_matches_loop_oracle_on_exact_distance_ties(self, seed):
        """Points that are signed permutations of three base vectors, so many
        squared distances are equal in exact arithmetic and their rounding
        picks the merge. On these seeds, summing the squares in plain floats
        instead of taking the BLAS dot merges in another order wherever the
        dot rounds as a fused multiply-add chain."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        base = rng.normal(size=(3, 3))
        points = np.array([base[rng.integers(0, 3)][rng.permutation(3)]
                           * rng.choice([-1, 1], size=3) for _ in range(n)])
        points += rng.normal(size=3)
        adj = random_connected_adjacency(rng, n)
        m = int(rng.integers(1, n))
        got = ward_constrained(points, adj, m, return_merges=True)
        want = ward_constrained_oracle(points, adj, m, return_merges=True)
        assert got.merges == want.merges
        np.testing.assert_array_equal(got.assignment, want.assignment)

    def test_matches_loop_oracle_on_a_qem_output(self):
        """Paper size: a 5,120-face sphere simplified to 1,200 vertices and
        2,396 faces, clustered into 1200 // 8 = 150 clusters."""
        mesh, reached = simplify_qem(bumpy_sphere_mesh(np.random.default_rng(5), 2562, 0.1),
                                     1200)
        assert reached and mesh.num_faces == 2396
        points = mesh.vertices[mesh.faces].mean(axis=1)
        adj = build_dual_adjacency(mesh)
        got = ward_constrained(points, adj, 150, return_merges=True)
        want = ward_constrained_oracle(points, adj, 150, return_merges=True)
        assert len(got.merges) == 2396 - 150
        assert got.merges == want.merges
        np.testing.assert_array_equal(got.assignment, want.assignment)

    @pytest.mark.parametrize("connected", [True, False])
    def test_debug_log_counts_the_loop(self, connected, rng, monkeypatch, caplog):
        n = 40
        adj = (random_connected_adjacency(rng, n) if connected
               else AdjacencyMatrix(n=n, pairs=[[i, i + 1] for i in range(0, n - 1, 2)]))
        pops = []
        pop = heapq.heappop

        def counted(heap):
            pops.append(1)
            return pop(heap)

        monkeypatch.setattr(heapq, "heappop", counted)
        with caplog.at_level(logging.DEBUG, logger="meshseg.clustering"):
            result = ward_constrained(rng.normal(size=(n, 3)), adj, 5)
        (record,) = caplog.records
        merges, popped, stale, rebuilds, fallback = record.args
        assert merges == n - result.num_clusters == n - 5
        assert popped == len(pops) == merges + stale
        assert stale > 0
        assert rebuilds > 0
        assert fallback is not connected

    def test_similarity_invariance(self, rng):
        """Rotation + translation + uniform scaling preserves the merge
        sequence and assignment."""
        from meshseg.train import random_rotation

        for _ in range(10):
            n = int(rng.integers(5, 20))
            adj = random_connected_adjacency(rng, n)
            points = rng.normal(size=(n, 3))
            m = int(rng.integers(1, n + 1))
            base = ward_constrained(points, adj, m)
            rot = random_rotation(rng)
            transformed = 2.5 * (points @ rot.T) + rng.normal(size=3)
            moved = ward_constrained(transformed, adj, m)
            assert base.assignment.tolist() == moved.assignment.tolist()

    def test_invalid_cluster_count(self, rng):
        points = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            ward_constrained(points, chain_adjacency(4), 0)
        with pytest.raises(ValueError):
            ward_constrained(points, chain_adjacency(4), 5)


class TestCoMembership:
    def test_three_faces_two_clusters(self):
        a = ClusterAssignment(assignment=[0, 0, 1], num_clusters=2)
        np.testing.assert_array_equal(
            co_membership(a.assignment), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )

    def test_single_cluster_all_ones(self):
        a = ClusterAssignment(assignment=[0, 0, 0], num_clusters=1)
        np.testing.assert_array_equal(co_membership(a.assignment), np.ones((3, 3)))

    def test_singletons_identity(self):
        a = ClusterAssignment(assignment=[0, 1, 2], num_clusters=3)
        np.testing.assert_array_equal(co_membership(a.assignment), np.eye(3))

    def test_equals_j_jt_and_idempotent(self, rng):
        ids = rng.integers(0, 3, size=8)
        ids[:3] = [0, 1, 2]  # ensure all clusters nonempty
        a = ClusterAssignment(assignment=ids, num_clusters=3)
        c = co_membership(a.assignment)
        j = one_hot(a.assignment, a.num_clusters)
        np.testing.assert_array_equal(c, j @ j.T)
        # boolean idempotence of an equivalence relation
        np.testing.assert_array_equal(((c @ c) > 0).astype(float), c)
        # row sums are cluster sizes
        sizes = np.bincount(ids, minlength=3)
        np.testing.assert_array_equal(c.sum(axis=1), sizes[ids])

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            ClusterAssignment(assignment=[0, 2], num_clusters=2)  # empty id 1
        with pytest.raises(ValueError):
            ClusterAssignment(assignment=[0, -1], num_clusters=1)
