"""Quadric-error-metric edge-collapse simplification."""

import logging

import numpy as np
import pytest

from meshseg import simplify
from meshseg.mesh_io import Mesh
from meshseg.preprocess import normals_and_areas
from meshseg.simplify import simplify_qem

from conftest import (
    bumpy_sphere_mesh,
    icosphere,
    random_hull_mesh,
    seven_vertex_torus,
    shared_edge_count,
    tetrahedron,
)
from qem_oracle import _face_quadric, simplify_qem_oracle


class TestSimplifyQem:
    def test_identity_when_already_small(self):
        mesh = tetrahedron()
        out, reached = simplify_qem(mesh, 10)
        assert reached
        np.testing.assert_array_equal(out.vertices, mesh.vertices)
        np.testing.assert_array_equal(out.faces, mesh.faces)

    def test_tetrahedron_target_4_identity(self):
        mesh = tetrahedron()
        out, reached = simplify_qem(mesh, 4)
        assert reached
        assert out.num_vertices == 4
        assert out.num_faces == 4

    def test_icosphere_42_to_12_topology_audit(self):
        mesh = icosphere(1)  # 42 vertices, 80 faces
        out, reached = simplify_qem(mesh, 12)
        assert out.num_vertices <= 12
        counts = shared_edge_count(out)
        assert all(c == 2 for c in counts.values())
        # no degenerate faces, and normals still computable
        assert normals_and_areas(out)[0].shape == (out.num_faces, 3)

    def test_never_increases_vertices_and_no_repeated_indices(self, rng):
        for _ in range(10):
            mesh = random_hull_mesh(rng, int(rng.integers(10, 30)))
            target = max(4, mesh.num_vertices // 2)
            out, _ = simplify_qem(mesh, target)
            assert out.num_vertices <= mesh.num_vertices
            f = out.faces
            assert not (
                (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            ).any()

    def test_target_reached_on_smooth_sphere(self):
        mesh = icosphere(2)  # 162 vertices
        out, reached = simplify_qem(mesh, 42)
        assert reached
        assert out.num_vertices <= 42

    def test_preserves_gross_shape(self):
        """Simplified sphere vertices stay near the unit sphere."""
        mesh = icosphere(2)
        out, _ = simplify_qem(mesh, 42)
        radii = np.linalg.norm(out.vertices, axis=1)
        assert radii.min() > 0.7
        assert radii.max() < 1.3

    def test_target_below_4_rejected(self):
        with pytest.raises(ValueError):
            simplify_qem(tetrahedron(), 3)

    def test_deterministic(self):
        mesh = icosphere(1)
        a, _ = simplify_qem(mesh, 20)
        b, _ = simplify_qem(mesh, 20)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)


    def test_debug_log_counts_the_loop(self, monkeypatch, caplog):
        calls = {"legal": 0, "illegal": 0, "solves": 0}
        legal = simplify._MeshState.collapse_is_legal
        solve = simplify._MeshState.collapse_target

        def counted_legal(state, u, v, new_pos):
            ok = legal(state, u, v, new_pos)
            calls["legal" if ok else "illegal"] += 1
            return ok

        def counted_solve(state, u, v):
            calls["solves"] += 1
            return solve(state, u, v)

        monkeypatch.setattr(simplify._MeshState, "collapse_is_legal", counted_legal)
        monkeypatch.setattr(simplify._MeshState, "collapse_target", counted_solve)
        mesh = creased_patch(6)  # folds along the crease are rejected
        with caplog.at_level(logging.DEBUG, logger="meshseg.simplify"):
            out, _ = simplify_qem(mesh, 4)
        (record,) = caplog.records
        collapses, rejections, pops, solves, initial = record.args
        assert collapses == calls["legal"] == mesh.num_vertices - out.num_vertices
        assert rejections == calls["illegal"] > 0
        assert pops >= collapses + rejections
        assert solves == calls["solves"] > 0
        assert initial == len(simplify._edges(mesh.faces)[0])


# ---------------------------------------------------------------------------
# parity with the per-call numpy implementation in qem_oracle.py


def simplify_recording(mesh, target, monkeypatch):
    """simplify_qem plus the (u, v) pairs it merged, in order."""
    collapses = []
    collapse = simplify._MeshState.collapse

    def recorded(state, u, v, new_pos):
        collapses.append((u, v))
        return collapse(state, u, v, new_pos)

    with monkeypatch.context() as patch:
        patch.setattr(simplify._MeshState, "collapse", recorded)
        out, reached = simplify.simplify_qem(mesh, target)
    return out, reached, collapses


def assert_matches_oracle(mesh, target, monkeypatch, atol=1e-9):
    out, reached, collapses = simplify_recording(mesh, target, monkeypatch)
    want, want_reached, want_collapses = simplify_qem_oracle(mesh, target)
    assert collapses == want_collapses
    assert reached == want_reached
    np.testing.assert_array_equal(out.faces, want.faces)
    np.testing.assert_allclose(out.vertices, want.vertices, rtol=0, atol=atol)
    return out, collapses


def grid_patch(n: int) -> Mesh:
    """Flat n x n grid of unit squares in the z = 0 plane, two triangles each."""
    xs = np.arange(n, dtype=float)
    vertices = np.array([[x, y, 0.0] for y in xs for x in xs])
    faces = []
    for j in range(n - 1):
        for i in range(n - 1):
            a = j * n + i
            faces += [[a, a + 1, a + n + 1], [a, a + n + 1, a + n]]
    return Mesh(vertices=vertices, faces=np.array(faces))


def creased_patch(n: int) -> Mesh:
    """``grid_patch`` with the part beyond x = 1 bent up along that line: a
    crease vertex's quadric holds both planes, so an edge from the flat
    side onto the crease is singular and its second endpoint costs 0."""
    mesh = grid_patch(n)
    vertices = mesh.vertices.copy()
    vertices[:, 2] = np.maximum(vertices[:, 0] - 1.0, 0.0)
    return Mesh(vertices=vertices, faces=mesh.faces)


def quadric_entries(matrix) -> tuple:
    rows, cols = np.triu_indices(4)
    return tuple(matrix[rows, cols].tolist())


def quadric_cost(matrix, p) -> float:
    h = np.append(p, 1.0)
    return float(h @ matrix @ h)


class TestOracleParity:
    def test_random_hulls_same_collapses(self, monkeypatch):
        rng = np.random.default_rng(20231)
        for _ in range(300):
            mesh = random_hull_mesh(rng, int(rng.integers(10, 81)))
            target = int(rng.integers(4, mesh.num_vertices))
            assert_matches_oracle(mesh, target, monkeypatch)

    def test_bumpy_spheres_same_collapses(self, monkeypatch):
        """Dented meshes reject collapses that fold faces, and an edge
        rejected earlier is pushed again from the rejected-edge set once a
        collapse lands next to it; some of those edges collapse later."""
        rejected = []
        legal = simplify._MeshState.collapse_is_legal

        def counted(state, u, v, new_pos):
            ok = legal(state, u, v, new_pos)
            if not ok:
                rejected.append((u, v))
            return ok

        monkeypatch.setattr(simplify._MeshState, "collapse_is_legal", counted)
        rng = np.random.default_rng(0)
        retried = 0
        for _ in range(8):
            mesh = bumpy_sphere_mesh(rng, 100, 0.15)
            target = int(rng.integers(4, 50))
            rejected.clear()
            _, collapses = assert_matches_oracle(mesh, target, monkeypatch)
            retried += len(set(rejected) & set(collapses))
        assert retried >= 1

    def test_planar_patch_keeps_input_positions(self, monkeypatch):
        """Every quadric of a flat patch is singular, so each collapse lands
        on an endpoint or a midpoint; at cost 0 the first endpoint wins."""
        mesh = grid_patch(6)
        out, _ = assert_matches_oracle(mesh, 12, monkeypatch, atol=0)
        assert out.num_vertices == 12
        inputs = {tuple(p) for p in mesh.vertices.tolist()}
        assert all(tuple(p) in inputs for p in out.vertices.tolist())

    def test_zero_area_face_adds_no_quadric(self, monkeypatch):
        rng = np.random.default_rng(7)
        mesh = random_hull_mesh(rng, 30)
        a, b, c = mesh.faces[0]
        vertices = mesh.vertices.copy()
        vertices[c] = 0.5 * (vertices[a] + vertices[b])
        mesh = Mesh(vertices=vertices, faces=mesh.faces)
        face_quadrics = [_face_quadric(*vertices[f]) for f in mesh.faces]
        assert face_quadrics[0] is None
        assert all(q is not None for q in face_quadrics[1:])
        want = np.zeros((mesh.num_vertices, 4, 4))
        for f, q in zip(mesh.faces[1:], face_quadrics[1:]):
            want[f] += q
        got = simplify._vertex_quadrics(mesh)
        np.testing.assert_allclose(got, [quadric_entries(q) for q in want], rtol=0, atol=1e-14)
        assert_matches_oracle(mesh, 12, monkeypatch)

    def test_unreachable_target(self, monkeypatch):
        mesh = seven_vertex_torus()
        out, reached, collapses = simplify_recording(mesh, 4, monkeypatch)
        assert not reached and collapses == []
        np.testing.assert_array_equal(out.faces, mesh.faces)
        assert_matches_oracle(mesh, 4, monkeypatch, atol=0)


class TestNeighborLists:
    """The neighbor lists that the collapses update hold the corners of each
    live vertex's live faces, once each, after every collapse. On an open patch a
    collapse can take the last face that joins the merged vertex to a
    shared face's third corner."""

    @pytest.mark.parametrize("make, target", [
        (lambda: grid_patch(6), 4),
        (lambda: creased_patch(6), 4),
        (lambda: bumpy_sphere_mesh(np.random.default_rng(0), 100, 0.15), 10),
    ], ids=["planar", "creased", "bumpy"])
    def test_equal_the_corners_of_live_faces(self, make, target, monkeypatch):
        collapse = simplify._MeshState.collapse
        checked = []

        def checked_collapse(state, u, v, new_pos):
            collapse(state, u, v, new_pos)
            corners = [set() for _ in state.positions]
            for face, alive in zip(state.faces, state.face_alive):
                if alive:
                    for w in face:
                        corners[w].update(face)
            for w, alive in enumerate(state.vertex_alive):
                if alive:
                    listed = state.neighbors[w]
                    assert len(set(listed)) == len(listed), (u, v, w)
                    assert set(listed) == corners[w] - {w}, (u, v, w)
            checked.append((u, v))

        monkeypatch.setattr(simplify._MeshState, "collapse", checked_collapse)
        mesh = make()
        out, _ = simplify_qem(mesh, target)
        assert len(checked) == mesh.num_vertices - out.num_vertices


class TestCollapseTargets:
    """Each collapse is tried at the position solved when its live entry
    was pushed, which equals a fresh solve of the current quadrics."""

    @pytest.mark.parametrize("make", [
        lambda: bumpy_sphere_mesh(np.random.default_rng(3), 120, 0.2),
        lambda: grid_patch(5),
        lambda: creased_patch(5),
    ], ids=["bumpy", "planar", "creased"])
    def test_initial_targets_equal_scalar_solves_bit_for_bit(self, make):
        """The numpy pass picks the scalar candidate, solved or not, and
        computes it with the same float operations."""
        mesh = make()
        quadrics = simplify._vertex_quadrics(mesh)
        a, b = simplify._edges(mesh.faces)
        positions, costs = simplify._collapse_targets(quadrics, mesh.vertices, a, b)
        p = mesh.vertices.tolist()
        for u, v, got_at, got in zip(a, b, positions.tolist(), costs.tolist()):
            q = [x + y for x, y in zip(quadrics[u].tolist(), quadrics[v].tolist())]
            want_at, want = simplify._optimal_position(q, tuple(p[u]), tuple(p[v]))
            assert tuple(got_at) == want_at and got == want

    def test_creased_patch_picks_second_endpoints(self):
        """On the crease test mesh some singular edges collapse onto their
        second endpoint, so the parity above covers a later candidate."""
        mesh = creased_patch(5)
        a, b = simplify._edges(mesh.faces)
        positions, _ = simplify._collapse_targets(
            simplify._vertex_quadrics(mesh), mesh.vertices, a, b)
        at_v = (positions == mesh.vertices[b]).all(axis=1)
        assert (at_v & ~(positions == mesh.vertices[a]).all(axis=1)).any()

    def test_popped_entry_keeps_its_solved_position(self, monkeypatch):
        legal = simplify._MeshState.collapse_is_legal
        solve = simplify._MeshState.collapse_target
        tried = []

        def checked(state, u, v, new_pos):
            assert new_pos == solve(state, u, v)[0]
            tried.append((u, v))
            return legal(state, u, v, new_pos)

        monkeypatch.setattr(simplify._MeshState, "collapse_is_legal", checked)
        mesh = bumpy_sphere_mesh(np.random.default_rng(5), 150, 0.15)
        simplify_qem(mesh, 40)
        assert len(tried) >= 110


class TestOptimalPosition:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_linalg_solve(self, rank):
        rng = np.random.default_rng(rank)
        for _ in range(200):
            planes = rng.normal(size=(rank, 4))
            quadric = planes.T @ planes
            p_u, p_v = rng.normal(size=(2, 3))
            a, b = quadric[:3, :3], -quadric[:3, 3]
            candidates = [p_u, p_v, 0.5 * (p_u + p_v)]
            if abs(np.linalg.det(a)) > 1e-10:
                candidates.insert(0, np.linalg.solve(a, b))
            costs = [quadric_cost(quadric, c) for c in candidates]
            pos, cost = simplify._optimal_position(
                quadric_entries(quadric), tuple(p_u), tuple(p_v)
            )
            scale = np.abs(quadric).max()
            np.testing.assert_allclose(pos, candidates[int(np.argmin(costs))], atol=1e-9)
            assert abs(cost - min(costs)) <= 1e-12 * scale * (1 + np.abs(pos).max()) ** 2

    @pytest.mark.parametrize("det", [1.001e-10, 0.999e-10])
    def test_determinant_threshold(self, det):
        """A = R diag(1, 1, det) R^T: the solved position is a candidate just
        above |det| = 1e-10 and dropped just below it."""
        rng = np.random.default_rng(11)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        normals = rotation.T * np.array([1.0, 1.0, np.sqrt(det)])[:, np.newaxis]
        planes = np.column_stack([normals, rng.normal(size=3)])
        quadric = planes.T @ planes
        a, b = quadric[:3, :3], -quadric[:3, 3]
        p_u, p_v = rng.normal(size=(2, 3))
        pos, cost = simplify._optimal_position(quadric_entries(quadric), tuple(p_u), tuple(p_v))
        ends = [tuple(p_u), tuple(p_v), tuple(0.5 * (p_u + p_v))]
        if det > 1e-10:
            assert abs(np.linalg.det(a)) > 1e-10
            np.testing.assert_allclose(pos, np.linalg.solve(a, b), rtol=1e-5)
            assert cost < min(quadric_cost(quadric, p) for p in ends)
        else:
            assert abs(np.linalg.det(a)) < 1e-10
            costs = [quadric_cost(quadric, p) for p in ends]
            assert pos == ends[int(np.argmin(costs))]
