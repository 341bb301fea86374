"""Reference QEM edge collapse: per-call numpy on 4x4 quadrics, 3x3
``linalg.solve``, and per-vertex versions that re-push every edge at
the merged vertex and at each of its neighbors after a collapse.

The parity tests hold ``meshseg.simplify`` to this implementation.
"""

from __future__ import annotations

import heapq

import numpy as np

from meshseg.mesh_io import Mesh

_DEGENERATE_NORM = 1e-14


def _face_quadric(p0, p1, p2) -> np.ndarray | None:
    normal = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(normal)
    if norm < _DEGENERATE_NORM:
        return None
    normal = normal / norm
    d = -normal @ p0
    plane = np.array([normal[0], normal[1], normal[2], d])
    return np.outer(plane, plane)


def _optimal_position(quadric, p_u, p_v):
    """Collapse target minimizing v^T Q v; falls back to the best of the
    endpoints and the midpoint when the quadric is near-singular."""
    a = quadric[:3, :3]
    b = -quadric[:3, 3]
    try:
        if abs(np.linalg.det(a)) > 1e-10:
            candidate = np.linalg.solve(a, b)
            candidates = [candidate, p_u, p_v, 0.5 * (p_u + p_v)]
        else:
            candidates = [p_u, p_v, 0.5 * (p_u + p_v)]
    except np.linalg.LinAlgError:
        candidates = [p_u, p_v, 0.5 * (p_u + p_v)]
    best, best_cost = None, None
    for c in candidates:
        h = np.append(c, 1.0)
        cost = float(h @ quadric @ h)
        if best_cost is None or cost < best_cost:
            best, best_cost = c, cost
    return best, best_cost


class _MeshState:
    def __init__(self, mesh: Mesh):
        self.positions = mesh.vertices.copy()
        self.faces = [list(map(int, f)) for f in mesh.faces]
        self.face_alive = [True] * len(self.faces)
        self.vertex_alive = [True] * len(self.positions)
        self.vertex_faces: list[set[int]] = [set() for _ in range(len(self.positions))]
        for fi, f in enumerate(self.faces):
            for vi in f:
                self.vertex_faces[vi].add(fi)
        self.quadrics = np.zeros((len(self.positions), 4, 4))
        for fi, f in enumerate(self.faces):
            q = _face_quadric(*(self.positions[v] for v in f))
            if q is None:
                continue
            for vi in f:
                self.quadrics[vi] += q
        self.version = [0] * len(self.positions)

    def vertex_neighbors(self, u: int) -> set[int]:
        out = set()
        for fi in self.vertex_faces[u]:
            out.update(self.faces[fi])
        out.discard(u)
        return out

    def edges(self):
        seen = set()
        for fi, alive in enumerate(self.face_alive):
            if not alive:
                continue
            a, b, c = self.faces[fi]
            for u, v in ((a, b), (b, c), (a, c)):
                key = (u, v) if u < v else (v, u)
                if key not in seen:
                    seen.add(key)
                    yield key

    def collapse_is_legal(self, u: int, v: int, new_pos: np.ndarray) -> bool:
        shared_faces = self.vertex_faces[u] & self.vertex_faces[v]
        if not shared_faces:
            return False
        # link condition: every common neighbor must lie on a shared face,
        # otherwise the collapse pinches the surface into a non-manifold fan
        opposite = set()
        for fi in shared_faces:
            opposite.update(w for w in self.faces[fi] if w not in (u, v))
        common = self.vertex_neighbors(u) & self.vertex_neighbors(v)
        if common != opposite:
            return False
        # normal-flip check over every surviving incident face
        for fi in (self.vertex_faces[u] | self.vertex_faces[v]) - shared_faces:
            corners = [self.positions[w] for w in self.faces[fi]]
            before = np.cross(corners[1] - corners[0], corners[2] - corners[0])
            moved = [
                new_pos if w in (u, v) else self.positions[w] for w in self.faces[fi]
            ]
            after = np.cross(moved[1] - moved[0], moved[2] - moved[0])
            if np.linalg.norm(after) < _DEGENERATE_NORM or before @ after < 0:
                return False
        return True

    def collapse(self, u: int, v: int, new_pos: np.ndarray):
        """Merge v into u at new_pos; returns the set of vertices whose
        neighborhood changed."""
        shared_faces = self.vertex_faces[u] & self.vertex_faces[v]
        self.positions[u] = new_pos
        self.quadrics[u] += self.quadrics[v]
        for fi in shared_faces:
            self.face_alive[fi] = False
            for w in self.faces[fi]:
                self.vertex_faces[w].discard(fi)
        for fi in list(self.vertex_faces[v]):
            self.faces[fi] = [u if w == v else w for w in self.faces[fi]]
            self.vertex_faces[v].discard(fi)
            self.vertex_faces[u].add(fi)
        self.vertex_alive[v] = False
        touched = self.vertex_neighbors(u) | {u}
        for w in touched:
            self.version[w] += 1
        return touched

    def to_mesh(self) -> Mesh:
        keep = [i for i, alive in enumerate(self.vertex_alive) if alive]
        new_index = {old: new for new, old in enumerate(keep)}
        faces = []
        for fi, alive in enumerate(self.face_alive):
            if not alive:
                continue
            a, b, c = self.faces[fi]
            if a == b or b == c or a == c:
                continue
            faces.append([new_index[a], new_index[b], new_index[c]])
        return Mesh(
            vertices=self.positions[keep],
            faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
        )


def simplify_qem_oracle(mesh: Mesh, target_vertices: int) -> tuple[Mesh, bool, list]:
    """Decimate a mesh to at most ``target_vertices`` vertices.

    Returns ``(mesh, reached_target, collapses)``, where ``collapses`` lists
    the merged ``(u, v)`` pairs in order (v merged into u). When the mesh
    runs out of legal collapses first, the best-effort mesh is returned with
    the flag False.
    """
    if target_vertices < 4:
        raise ValueError("target_vertices must be >= 4")
    if mesh.num_vertices <= target_vertices:
        return mesh, True, []

    state = _MeshState(mesh)
    heap: list[tuple[float, int, int, int, int]] = []

    def push_edge(u, v):
        q = state.quadrics[u] + state.quadrics[v]
        _, cost = _optimal_position(q, state.positions[u], state.positions[v])
        heapq.heappush(heap, (cost, u, v, state.version[u], state.version[v]))

    for u, v in state.edges():
        push_edge(u, v)

    collapses = []
    remaining = mesh.num_vertices
    while remaining > target_vertices and heap:
        cost, u, v, ver_u, ver_v = heapq.heappop(heap)
        if (
            not state.vertex_alive[u]
            or not state.vertex_alive[v]
            or state.version[u] != ver_u
            or state.version[v] != ver_v
        ):
            continue
        q = state.quadrics[u] + state.quadrics[v]
        new_pos, _ = _optimal_position(q, state.positions[u], state.positions[v])
        if not state.collapse_is_legal(u, v, new_pos):
            continue
        touched = state.collapse(u, v, new_pos)
        collapses.append((u, v))
        remaining -= 1
        seen = set()
        for w in touched:
            if not state.vertex_alive[w]:
                continue
            for x in state.vertex_neighbors(w):
                key = (w, x) if w < x else (x, w)
                if key not in seen:
                    seen.add(key)
                    push_edge(*key)
    return state.to_mesh(), remaining <= target_vertices, collapses
