"""Dual-graph adjacency, normalized Laplacian, and eigenvector features.

Eigensolver results are cross-checked against an independent cyclic Jacobi
oracle (conftest) rather than re-running the production solver.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshseg.spectral as spectral_mod
from meshseg.mesh_io import Mesh
from meshseg.spectral import (
    DENSE_SOLVE_THRESHOLD,
    EIGEN_RESIDUAL_TOL,
    ZERO_EIGENVALUE_TOL,
    AdjacencyMatrix,
    build_dual_adjacency,
    laplacian_positional_features,
    normalized_laplacian,
    _canonical_sign,
    smallest_eigenpairs,
)

from conftest import (
    bumpy_sphere_mesh,
    connected_components,
    dense_adjacency,
    icosphere,
    jacobi_eigh,
    random_hull_mesh,
    tetrahedron,
)
from loop_oracles import (
    arpack_eigenpairs_oracle,
    build_dual_adjacency_oracle,
    component_count_oracle,
    laplacian_positional_features_oracle,
    normalized_laplacian_oracle,
)

TWO_FACES = Mesh(
    vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
    faces=[[0, 1, 2], [1, 3, 2]],
)


def projector_for_groups(values, vectors, gap=1e-6):
    """Spectral projectors per eigenvalue cluster (for degenerate subspaces)."""
    projs = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > gap:
            block = vectors[:, start:i]
            projs.append((values[start], block @ block.T))
            start = i
    return projs


class TestDualAdjacency:
    def test_two_triangles_sharing_an_edge(self):
        adj = build_dual_adjacency(TWO_FACES)
        np.testing.assert_array_equal(dense_adjacency(adj), [[0, 1], [1, 0]])

    def test_tetrahedron_is_k4(self):
        adj = build_dual_adjacency(tetrahedron())
        dense = dense_adjacency(adj)
        np.testing.assert_array_equal(dense, 1 - np.eye(4))
        assert adj.degrees().tolist() == [3, 3, 3, 3]

    def test_single_triangle(self):
        mesh = Mesh(vertices=np.eye(3), faces=[[0, 1, 2]])
        adj = build_dual_adjacency(mesh)
        assert adj.n == 1
        assert adj.pairs.size == 0

    def test_edge_shared_by_three_faces_links_all_pairs(self):
        mesh = Mesh(
            vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
            faces=[[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        )
        adj = build_dual_adjacency(mesh)
        assert adj.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_matches_enumeration_on_random_meshes(self, rng):
        for _ in range(20):
            mesh = random_hull_mesh(rng, int(rng.integers(6, 20)))
            adj = build_dual_adjacency(mesh)
            # independent enumeration over all face pairs
            expected = set()
            faces = [set(map(int, f)) for f in mesh.faces]
            for i in range(len(faces)):
                for j in range(i + 1, len(faces)):
                    if len(faces[i] & faces[j]) == 2:
                        expected.add((i, j))
            assert {tuple(p) for p in adj.pairs.tolist()} == expected

    def test_matches_loop_oracle_on_non_manifold_soups(self, rng):
        """Random triangle soups over few vertices: edges shared by one to
        many faces, faces sharing two edges, isolated faces."""
        for _ in range(50):
            n_vertices = int(rng.integers(3, 9))
            faces = [rng.choice(n_vertices, size=3, replace=False)
                     for _ in range(int(rng.integers(0, 25)))]
            mesh = Mesh(vertices=rng.normal(size=(n_vertices, 3)),
                        faces=np.array(faces, dtype=np.int64).reshape(-1, 3))
            got, want = build_dual_adjacency(mesh), build_dual_adjacency_oracle(mesh)
            assert got.n == want.n
            np.testing.assert_array_equal(got.pairs, want.pairs)

    def test_component_count_matches_csgraph(self, rng):
        """The features' component count equals the union-find oracle's and
        csgraph's on the adjacency: isolated nodes count as components, and
        a path listed backwards needs many union-find hooks."""

        def components(adj):
            return laplacian_positional_features(adj, 1).components

        empty = AdjacencyMatrix(n=3, pairs=[])
        assert components(empty) == component_count_oracle(empty) == 3
        path = AdjacencyMatrix(n=500, pairs=[[k, k + 1] for k in range(499)][::-1])
        assert components(path) == component_count_oracle(path) == 1
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pairs = {(min(a, b), max(a, b))
                     for a, b in rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
                     if a != b}
            adj = AdjacencyMatrix(n=n, pairs=sorted(pairs))
            assert components(adj) == component_count_oracle(adj) == connected_components(adj)


class TestAdjacencyPairs:
    def test_unsorted_and_duplicated_pairs_are_made_canonical(self, rng):
        pairs = np.array([[2, 5], [0, 3], [2, 5], [0, 1], [4, 5], [0, 3]])
        adj = AdjacencyMatrix(n=6, pairs=pairs)
        assert adj.pairs.dtype == np.int64
        np.testing.assert_array_equal(adj.pairs, [[0, 1], [0, 3], [2, 5], [4, 5]])
        shuffled = build_dual_adjacency(random_hull_mesh(rng, 40)).pairs
        again = np.vstack([shuffled, shuffled[:7]])[rng.permutation(len(shuffled) + 7)]
        np.testing.assert_array_equal(AdjacencyMatrix(n=76, pairs=again).pairs, shuffled)

    def test_canonical_pairs_come_back_equal(self, rng):
        adj = build_dual_adjacency(random_hull_mesh(rng, 40))
        for copy in (AdjacencyMatrix(n=adj.n, pairs=adj.pairs), adj.with_n(adj.n + 5),
                     AdjacencyMatrix(n=adj.n, pairs=adj.pairs.tolist())):
            assert copy.pairs.dtype == np.int64
            np.testing.assert_array_equal(copy.pairs, adj.pairs)


class TestNormalizedLaplacian:
    def test_single_edge_pair(self):
        lap = normalized_laplacian(AdjacencyMatrix(n=2, pairs=[[0, 1]]))
        np.testing.assert_allclose(lap.toarray(), [[1, -1], [-1, 1]])

    def test_k4(self):
        adj = build_dual_adjacency(tetrahedron())
        dense = normalized_laplacian(adj).toarray()
        expected = np.eye(4) - (1 - np.eye(4)) / 3.0
        np.testing.assert_allclose(dense, expected)

    def test_isolated_node_row(self):
        adj = AdjacencyMatrix(n=3, pairs=[[0, 1]])
        dense = normalized_laplacian(adj).toarray()
        np.testing.assert_allclose(dense[2], [0, 0, 1])
        np.testing.assert_allclose(dense[:2, :2], [[1, -1], [-1, 1]])


class TestSmallestEigenpairs:
    def test_single_edge_analytic(self):
        lap = normalized_laplacian(AdjacencyMatrix(n=2, pairs=[[0, 1]]))
        values, vectors, _ = smallest_eigenpairs(lap, 2)
        np.testing.assert_allclose(values, [0, 2], atol=1e-12)
        np.testing.assert_allclose(
            np.abs(vectors[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_k4_eigenvalues(self):
        lap = normalized_laplacian(build_dual_adjacency(tetrahedron()))
        values, _, _ = smallest_eigenpairs(lap, 4)
        np.testing.assert_allclose(values, [0, 4 / 3, 4 / 3, 4 / 3], atol=1e-8)

    def test_two_disjoint_pairs_have_two_zero_modes(self):
        adj = AdjacencyMatrix(n=4, pairs=[[0, 1], [2, 3]])
        lap = normalized_laplacian(adj)
        values, _, _ = smallest_eigenpairs(lap, 4)
        assert int((values < ZERO_EIGENVALUE_TOL).sum()) == 2

    def test_orthonormal_columns(self, rng):
        mesh = random_hull_mesh(rng, 20)
        lap = normalized_laplacian(build_dual_adjacency(mesh))
        _, vectors, _ = smallest_eigenpairs(lap, lap.shape[0])
        gram = vectors.T @ vectors
        np.testing.assert_allclose(gram, np.eye(lap.shape[0]), atol=1e-8)

    def test_k_greater_than_n_rejected(self):
        lap = normalized_laplacian(AdjacencyMatrix(n=2, pairs=[[0, 1]]))
        with pytest.raises(ValueError):
            smallest_eigenpairs(lap, 3)

    def test_matches_jacobi_oracle(self, rng):
        for _ in range(10):
            mesh = random_hull_mesh(rng, int(rng.integers(6, 24)))
            lap = normalized_laplacian(build_dual_adjacency(mesh))
            values, vectors, _ = smallest_eigenpairs(lap, lap.shape[0])
            ref_values, ref_vectors = jacobi_eigh(lap.toarray())
            np.testing.assert_allclose(values, ref_values, atol=1e-7)
            # compare subspace projectors per eigenvalue cluster, which is
            # well defined even for degenerate multiplets
            got = projector_for_groups(values, vectors)
            want = projector_for_groups(ref_values, ref_vectors)
            assert len(got) == len(want)
            for (_, p), (_, q) in zip(got, want):
                np.testing.assert_allclose(p, q, atol=1e-6)

    def test_sparse_path_matches_dense_path(self, rng):
        """The iterative solver (forced via a monkeypatched threshold) agrees
        with the dense route on the same matrix."""
        mesh = icosphere(1)  # 80 faces
        lap = normalized_laplacian(build_dual_adjacency(mesh))
        dense_vals, dense_vecs, _ = smallest_eigenpairs(lap, 10)
        original = spectral_mod.DENSE_SOLVE_THRESHOLD
        spectral_mod.DENSE_SOLVE_THRESHOLD = 10
        try:
            sparse_vals, sparse_vecs, _ = smallest_eigenpairs(lap, 10)
        finally:
            spectral_mod.DENSE_SOLVE_THRESHOLD = original
        np.testing.assert_allclose(sparse_vals, dense_vals, atol=1e-7)
        got = projector_for_groups(sparse_vals, sparse_vecs)
        want = projector_for_groups(dense_vals, dense_vecs)
        # the last group may be a degenerate multiplet truncated at k, whose
        # retained basis is arbitrary within the subspace; skip it
        for (_, p), (_, q) in zip(got[:-1], want[:-1]):
            np.testing.assert_allclose(p, q, atol=1e-6)


    def test_arpack_path_matches_the_default_factorization_at_paper_size(self):
        """A hull of 1,200 sphere points has 2,396 faces, the size that the
        preprocessing target makes, far above the dense threshold."""
        mesh = bumpy_sphere_mesh(np.random.default_rng(23), 1200, 0.15)
        assert mesh.num_vertices == 1200 and mesh.num_faces == 2396
        adj = build_dual_adjacency(mesh)
        lap = normalized_laplacian(adj)
        got = laplacian_positional_features(adj, 16)
        values, vectors = arpack_eigenpairs_oracle(lap, 17)  # 16 plus the zero mode
        want = _canonical_sign(vectors[:, values >= ZERO_EIGENVALUE_TOL][:, :16])
        np.testing.assert_allclose(got.features, want, rtol=0, atol=1e-10)
        assert got.residual <= EIGEN_RESIDUAL_TOL * max(np.linalg.norm(lap.data), 1.0)

    def test_arpack_path_logs_the_factor_and_solves(self, caplog):
        lap = normalized_laplacian(build_dual_adjacency(icosphere(3)))  # 1280 faces
        with caplog.at_level(logging.DEBUG, logger="meshseg.spectral"):
            smallest_eigenpairs(lap, 9)
        (record,) = caplog.records
        n, k, nonzeros, solves = record.args
        assert (n, k) == (1280, 9)
        # the factor holds at least the diagonal and one triangle of L + shift I
        assert nonzeros >= (lap.nnz + n) // 2
        assert solves >= 9

    def test_shift_beside_the_wanted_eigenvalues_needs_few_solves(self, caplog):
        """The wanted eigenvalues of a 2,396-face mesh lie in [0, 0.016]; the
        shift just left of 0 maps them far apart, so Lanczos converges in 79
        solves where a shift of -0.1 took 192."""
        mesh = bumpy_sphere_mesh(np.random.default_rng(23), 1200, 0.15)
        with caplog.at_level(logging.DEBUG, logger="meshseg.spectral"):
            laplacian_positional_features(build_dual_adjacency(mesh), 16)
        (record,) = caplog.records
        n, k, _, solves = record.args
        assert (n, k) == (2396, 17)  # 16 columns plus the zero mode
        assert solves <= 100


class TestSpectrumStructure:
    def test_eigenvalue_range_and_zero_count(self, rng):
        for _ in range(20):
            mesh = random_hull_mesh(rng, int(rng.integers(5, 24)))
            adj = build_dual_adjacency(mesh)
            lap = normalized_laplacian(adj)
            values, _, _ = smallest_eigenpairs(lap, lap.shape[0])
            assert values.min() >= -1e-8
            assert values.max() <= 2 + 1e-8
            zero_modes = int((values < ZERO_EIGENVALUE_TOL).sum())
            # components with at least one edge each contribute one zero mode
            isolated = int((adj.degrees() == 0).sum())
            assert zero_modes == connected_components(adj) - isolated


def rayleigh_quotients(lap, feats):
    """v^T L v of each feature column: the eigenvalue of a unit eigenvector,
    and 0 for a zero-padded column."""
    return np.einsum("ij,ij->j", feats.features, lap @ feats.features)


def test_csgraph_is_imported_only_when_preprocessing():
    """``scipy.sparse.csgraph`` loads inside ``laplacian_positional_features``,
    so a process that imports the CLI and training but never preprocesses
    does not carry it."""
    src = str(Path(spectral_mod.__file__).resolve().parents[1])
    code = ("import sys, meshseg.cli, meshseg.train; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestPositionalFeatures:
    def test_two_face_single_column_canonical(self):
        adj = build_dual_adjacency(TWO_FACES)
        feats = laplacian_positional_features(adj, 1)
        np.testing.assert_allclose(
            feats.features[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12
        )
        lap = normalized_laplacian(adj)
        np.testing.assert_allclose(rayleigh_quotients(lap, feats), [2.0], atol=1e-12)

    def test_zero_padding_when_not_enough_modes(self):
        adj = build_dual_adjacency(TWO_FACES)
        feats = laplacian_positional_features(adj, 5)
        assert feats.features.shape == (2, 5)
        np.testing.assert_array_equal(feats.features[:, 1:], 0)
        lap = normalized_laplacian(adj)
        np.testing.assert_array_equal(rayleigh_quotients(lap, feats)[1:], 0)

    def test_first_column_orthogonal_to_zero_mode(self, rng):
        mesh = random_hull_mesh(rng, 20)
        adj = build_dual_adjacency(mesh)
        values, vectors, _ = smallest_eigenpairs(normalized_laplacian(adj), 1)
        assert values[0] < ZERO_EIGENVALUE_TOL
        feats = laplacian_positional_features(adj, 3)
        for col in range(3):
            assert abs(feats.features[:, col] @ vectors[:, 0]) < 1e-6

    def test_zero_modes_discarded(self):
        # two disjoint pairs: two zero modes, then eigenvalue-2 modes
        adj = AdjacencyMatrix(n=4, pairs=[[0, 1], [2, 3]])
        feats = laplacian_positional_features(adj, 2)
        lap = normalized_laplacian(adj)
        np.testing.assert_allclose(rayleigh_quotients(lap, feats), [2, 2], atol=1e-10)

    def test_deterministic_recomputation(self, rng):
        mesh = random_hull_mesh(rng, 24)
        adj = build_dual_adjacency(mesh)
        a = laplacian_positional_features(adj, 8)
        b = laplacian_positional_features(adj, 8)
        np.testing.assert_array_equal(a.features, b.features)

    def test_canonical_sign_largest_entry_positive(self, rng):
        mesh = random_hull_mesh(rng, 16)
        feats = laplacian_positional_features(build_dual_adjacency(mesh), 4)
        for col in range(4):
            column = feats.features[:, col]
            if np.abs(column).max() > 0:
                assert column[np.argmax(np.abs(column))] > 0

    def test_canonical_sign_tie_goes_to_the_lowest_index(self):
        vectors = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.1, 0.1, 0.0]])
        np.testing.assert_array_equal(
            _canonical_sign(vectors), [[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0], [0.1, -0.1, 0.0]]
        )


def disjoint_union(*meshes: Mesh) -> Mesh:
    """The meshes side by side, vertex ids shifted, sharing no edge."""
    offsets = np.cumsum([0] + [m.num_vertices for m in meshes])
    return Mesh(
        vertices=np.vstack([m.vertices + 3.0 * k for k, m in enumerate(meshes)]),
        faces=np.vstack([m.faces + offsets[k] for k, m in enumerate(meshes)]),
    )


LONE_FACE = Mesh(vertices=np.eye(3), faces=[[0, 1, 2]])

GRAPHS = {
    "connected": lambda: build_dual_adjacency(icosphere(2)),
    "two-component": lambda: build_dual_adjacency(disjoint_union(icosphere(1), icosphere(1))),
    "isolated-face": lambda: build_dual_adjacency(disjoint_union(icosphere(1), LONE_FACE)),
    "padded": lambda: build_dual_adjacency(icosphere(1)).with_n(90),
    "edgeless": lambda: AdjacencyMatrix(n=40, pairs=[]),
}


class TestLoopOracleParity:
    """The one-listing Laplacian and the one-solve features equal the COO
    build and the grow-and-retry loop they replaced, bit for bit."""

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_laplacian_csr_arrays_equal_the_coo_build(self, graph):
        adj = GRAPHS[graph]()
        got, want = normalized_laplacian(adj), normalized_laplacian_oracle(adj)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_laplacian_equals_the_coo_build_on_soups(self, rng):
        for _ in range(50):
            n_vertices = int(rng.integers(3, 9))
            faces = [rng.choice(n_vertices, size=3, replace=False)
                     for _ in range(int(rng.integers(1, 25)))]
            adj = build_dual_adjacency(Mesh(vertices=rng.normal(size=(n_vertices, 3)),
                                            faces=np.array(faces, dtype=np.int64)))
            got, want = normalized_laplacian(adj), normalized_laplacian_oracle(adj)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_closed_neighborhoods_list_self_and_neighbors_ascending(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pairs = {(min(a, b), max(a, b))
                     for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
                     if a != b}
            adj = AdjacencyMatrix(n=n, pairs=sorted(pairs))
            indptr, ids = adj.closed_neighborhoods()
            dense = dense_adjacency(adj) + np.eye(n)
            for i in range(n):
                assert ids[indptr[i]:indptr[i + 1]].tolist() == np.flatnonzero(dense[i]).tolist()
            np.testing.assert_array_equal(np.diff(indptr) - 1, adj.degrees())

    @pytest.mark.parametrize("threshold", [DENSE_SOLVE_THRESHOLD, 10], ids=["dense", "arpack"])
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_features_and_residual_equal_the_loop(self, graph, threshold, monkeypatch):
        monkeypatch.setattr(spectral_mod, "DENSE_SOLVE_THRESHOLD", threshold)
        adj = GRAPHS[graph]()
        lap = normalized_laplacian(adj)
        for count in (4, 8, 16):
            got = laplacian_positional_features(adj, count)
            want = laplacian_positional_features_oracle(lap, count)
            np.testing.assert_array_equal(got.features, want.features)
            assert got.residual == want.residual
            assert got.components == want.components

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_features_span_the_eigenspaces_of_the_wide_shift(self, graph, monkeypatch):
        """The features against shift-invert Lanczos at sigma = -0.1. These
        graphs have degenerate eigenvalues, whose basis depends on the shift,
        so each eigenvalue group's projector is compared, and every column is
        an eigenvector of the oracle's eigenvalue; the last group may be cut
        by the count, so it is checked by the residual alone."""
        monkeypatch.setattr(spectral_mod, "DENSE_SOLVE_THRESHOLD", 10)
        adj = GRAPHS[graph]()
        lap = normalized_laplacian(adj)
        for count in (4, 8, 16):
            got = laplacian_positional_features(adj, count)
            zero_modes = got.components - int((adj.degrees() == 0).sum())
            values, vectors = arpack_eigenpairs_oracle(lap, count + zero_modes)
            keep = np.flatnonzero(values >= ZERO_EIGENVALUE_TOL)[:count]
            assert keep.size == count
            values, vectors = values[keep], vectors[:, keep]
            feats = got.features
            np.testing.assert_allclose(rayleigh_quotients(lap, got), values, rtol=0, atol=1e-10)
            assert np.abs(lap @ feats - feats * values).max() <= 1e-10
            got_groups = projector_for_groups(values, feats)
            want_groups = projector_for_groups(values, vectors)
            assert len(got_groups) == len(want_groups)
            for (_, p), (_, q) in zip(got_groups[:-1], want_groups[:-1]):
                np.testing.assert_allclose(p, q, rtol=0, atol=1e-10)

    def test_one_solve_on_a_two_component_mesh(self, monkeypatch):
        import loop_oracles

        sizes = []
        solve = spectral_mod.smallest_eigenpairs

        def counted(lap, k, *args, **kwargs):
            sizes.append(k)
            return solve(lap, k, *args, **kwargs)

        monkeypatch.setattr(spectral_mod, "smallest_eigenpairs", counted)
        monkeypatch.setattr(loop_oracles, "smallest_eigenpairs", counted)
        adj = GRAPHS["two-component"]()
        laplacian_positional_features(adj, 8)
        assert sizes == [10]  # 8 columns plus one zero mode per component
        sizes.clear()
        laplacian_positional_features_oracle(normalized_laplacian(adj), 8)
        assert sizes == [9, 10]
