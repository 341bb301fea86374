"""Greedy edge-collapse mesh decimation driven by quadric error metrics.

Each vertex accumulates the squared plane-distance quadric of its incident
faces (Garland & Heckbert, SIGGRAPH 1997); the edge whose contraction has
the lowest quadric cost is collapsed first. Collapses that would flip an
incident face normal or create a non-manifold fan are skipped.

A quadric is kept as its 10 distinct floats, ``(q00, q01, q02, q03, q11,
q12, q13, q22, q23, q33)`` of the symmetric 4x4 matrix, and positions as
3-tuples, so the collapse loop runs in plain Python floats.

Heap entries are ``(cost, a, b, stamp)`` with ``a < b``, and each edge has
at most one live entry: the one whose stamp ``live[a, b]`` holds. The
stamp also indexes the collapse position solved when the entry was pushed,
which a live entry's collapse uses as it is. A popped or superseded entry
is stale and skipped. The initial entries come from one numpy pass over
all edges, with the float operations of ``_optimal_position`` in the same
order, so their positions and costs are bit-identical to the scalar ones.
After ``v`` merges into ``u``, every edge at ``u`` gets a fresh entry,
since ``u``'s quadric and position changed. Every other edge keeps its live
entry, since neither of its endpoints changed; the only edges without one
are those popped earlier and rejected as illegal. Each of these is
recorded in a rejected-edge set at both endpoints, and pushed again, at its
unchanged cost, once a collapse leaves one of its endpoints next to the
surviving vertex. Re-pushing all edges at ``u`` and at its neighbors would
pop the same edges in the same order; it only costs more quadric solves.
"""

from __future__ import annotations

import heapq
import math
from array import array

import numpy as np

from meshseg.mesh_io import Mesh

__all__ = ["simplify_qem"]

_DEGENERATE_NORM = 1e-14
_SINGULAR_DET = 1e-10


def _optimal_position(quadric, p_u, p_v):
    """Collapse target minimizing v^T Q v over the solution of the 3x3
    system (when ``|det| > 1e-10``), the endpoints and the midpoint, in that
    order; a later candidate wins only with a strictly lower cost."""
    a, b, c, d, e, f, g, h, i, j = quadric
    mid = (0.5 * (p_u[0] + p_v[0]), 0.5 * (p_u[1] + p_v[1]), 0.5 * (p_u[2] + p_v[2]))
    candidates = [p_u, p_v, mid]
    # adjugate of the symmetric block [[a, b, c], [b, e, f], [c, f, h]]
    m00 = e * h - f * f
    m01 = c * f - b * h
    m02 = b * f - c * e
    det = a * m00 + b * m01 + c * m02
    if abs(det) > _SINGULAR_DET:
        m11 = a * h - c * c
        m12 = b * c - a * f
        m22 = a * e - b * b
        candidates.insert(0, (
            -(m00 * d + m01 * g + m02 * i) / det,
            -(m01 * d + m11 * g + m12 * i) / det,
            -(m02 * d + m12 * g + m22 * i) / det,
        ))
    best, best_cost = None, None
    for p in candidates:
        x, y, z = p
        cost = (
            x * (a * x + 2.0 * (b * y + c * z + d))
            + y * (e * y + 2.0 * (f * z + g))
            + z * (h * z + 2.0 * i)
            + j
        )
        if best_cost is None or cost < best_cost:
            best, best_cost = p, cost
    return best, best_cost


def _collapse_targets(
    quadrics: np.ndarray, positions: np.ndarray, a, b
) -> tuple[np.ndarray, np.ndarray]:
    """``_optimal_position(quadrics[a] + quadrics[b], positions[a],
    positions[b])`` for every edge (a, b) at once, as (E, 3) positions and
    (E,) costs, bit-identical: the same float operations in the same order,
    one column at a time, and the same candidate chosen."""
    qa, qb, qc, qd, qe, qf, qg, qh, qi, qj = (quadrics[a] + quadrics[b]).T
    pu, pv = positions[a], positions[b]

    def cost(x, y, z):
        return (
            x * (qa * x + 2.0 * (qb * y + qc * z + qd))
            + y * (qe * y + 2.0 * (qf * z + qg))
            + z * (qh * z + 2.0 * qi)
            + qj
        )

    m00 = qe * qh - qf * qf
    m01 = qc * qf - qb * qh
    m02 = qb * qf - qc * qe
    det = qa * m00 + qb * m01 + qc * m02
    m11 = qa * qh - qc * qc
    m12 = qb * qc - qa * qf
    m22 = qa * qe - qb * qb
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solved_at = np.column_stack([
            -(m00 * qd + m01 * qg + m02 * qi) / det,
            -(m01 * qd + m11 * qg + m12 * qi) / det,
            -(m02 * qd + m12 * qg + m22 * qi) / det,
        ])
        solved = cost(*solved_at.T)
    at_u = cost(*pu.T)
    invertible = np.abs(det) > _SINGULAR_DET
    best = np.where(invertible, solved, at_u)
    best_at = np.where(invertible[:, np.newaxis], solved_at, pu)
    mid = 0.5 * (pu + pv)
    for later, at in ((at_u, pu), (cost(*pv.T), pv), (cost(*mid.T), mid)):
        better = later < best
        best = np.where(better, later, best)
        best_at = np.where(better[:, np.newaxis], at, best_at)
    return best_at, best


def _cross(p0, p1, p2):
    """Normal (p1 - p0) x (p2 - p0), unnormalized."""
    ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def _vertex_quadrics(mesh: Mesh) -> np.ndarray:
    """(V, 10) sum of the plane quadrics of each vertex's faces, in face
    order; a face whose normal is shorter than _DEGENERATE_NORM adds none."""
    v, faces = mesh.vertices, mesh.faces
    p0 = v[faces[:, 0]]
    normal = np.cross(v[faces[:, 1]] - p0, v[faces[:, 2]] - p0)
    norm = np.linalg.norm(normal, axis=1)
    keep = norm >= _DEGENERATE_NORM
    normal = normal[keep] / norm[keep, np.newaxis]
    plane = np.column_stack([normal, -(normal * p0[keep]).sum(axis=1)])
    rows, cols = np.triu_indices(4)  # the 10 stored entries, row-major
    face_quadrics = plane[:, rows] * plane[:, cols]
    quadrics = np.zeros((len(v), len(rows)))
    np.add.at(quadrics, faces[keep].ravel(), np.repeat(face_quadrics, 3, axis=0))
    return quadrics


def _edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(a, b)``, ``a < b``, of every edge, in order of first
    appearance over the faces' (0, 1), (1, 2), (0, 2) corner pairs."""
    corners = faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
    low, high = corners.min(axis=1), corners.max(axis=1)
    _, first = np.unique(low * (faces.max(initial=0) + 1) + high, return_index=True)
    first.sort()
    return low[first], high[first]


class _MeshState:
    def __init__(self, mesh: Mesh, quadrics: np.ndarray):
        self.positions = [tuple(p) for p in mesh.vertices.tolist()]
        self.quadrics = quadrics.tolist()
        self.faces = mesh.faces.tolist()
        self.face_alive = [True] * len(self.faces)
        self.vertex_alive = [True] * len(self.positions)
        self.vertex_faces: list[set[int]] = [set() for _ in range(len(self.positions))]
        for fi, f in enumerate(self.faces):
            for vi in f:
                self.vertex_faces[vi].add(fi)

    def vertex_neighbors(self, u: int) -> set[int]:
        out = set()
        for fi in self.vertex_faces[u]:
            out.update(self.faces[fi])
        out.discard(u)
        return out

    def collapse_target(self, u: int, v: int):
        """(position, cost) of the best collapse of edge (u, v)."""
        q = [x + y for x, y in zip(self.quadrics[u], self.quadrics[v])]
        return _optimal_position(q, self.positions[u], self.positions[v])

    def collapse_is_legal(self, u: int, v: int, new_pos) -> bool:
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
        pos = self.positions
        for fi in (self.vertex_faces[u] | self.vertex_faces[v]) - shared_faces:
            corners = self.faces[fi]
            before = _cross(*(pos[w] for w in corners))
            after = _cross(*(new_pos if w in (u, v) else pos[w] for w in corners))
            dot = before[0] * after[0] + before[1] * after[1] + before[2] * after[2]
            norm = math.sqrt(after[0] * after[0] + after[1] * after[1] + after[2] * after[2])
            if norm < _DEGENERATE_NORM or dot < 0:
                return False
        return True

    def collapse(self, u: int, v: int, new_pos):
        """Merge v into u at new_pos."""
        shared_faces = self.vertex_faces[u] & self.vertex_faces[v]
        self.positions[u] = new_pos
        self.quadrics[u] = [x + y for x, y in zip(self.quadrics[u], self.quadrics[v])]
        for fi in shared_faces:
            self.face_alive[fi] = False
            for w in self.faces[fi]:
                self.vertex_faces[w].discard(fi)
        for fi in list(self.vertex_faces[v]):
            self.faces[fi] = [u if w == v else w for w in self.faces[fi]]
            self.vertex_faces[v].discard(fi)
            self.vertex_faces[u].add(fi)
        self.vertex_alive[v] = False

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
            vertices=np.array([self.positions[i] for i in keep], dtype=np.float64).reshape(-1, 3),
            faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
        )


def simplify_qem(mesh: Mesh, target_vertices: int) -> tuple[Mesh, bool]:
    """Decimate a mesh to at most ``target_vertices`` vertices.

    Returns ``(mesh, reached_target)``. When the mesh runs out of legal
    collapses first, the best-effort mesh is returned with the flag False.
    """
    if target_vertices < 4:
        raise ValueError("target_vertices must be >= 4")
    if mesh.num_vertices <= target_vertices:
        return mesh, True

    quadrics = _vertex_quadrics(mesh)
    state = _MeshState(mesh, quadrics)
    a, b = _edges(mesh.faces)
    targets, costs = _collapse_targets(quadrics, mesh.vertices, a, b)
    heap = list(zip(costs.tolist(), a.tolist(), b.tolist(), range(len(a))))
    heapq.heapify(heap)
    live = {(u, v): stamp for _, u, v, stamp in heap}
    # by stamp, the collapse position solved when the entry was pushed, as
    # three flat doubles, so that the stale entries' positions take little room
    solved = array("d", targets.tobytes())
    rejected: dict[int, set[tuple[int, int]]] = {}

    def push_edge(a, b):
        position, cost = state.collapse_target(a, b)
        stamp = live[a, b] = len(solved) // 3
        solved.extend(position)
        heapq.heappush(heap, (cost, a, b, stamp))

    remaining = mesh.num_vertices
    while remaining > target_vertices and heap:
        _, u, v, stamp = heapq.heappop(heap)
        if live.get((u, v)) != stamp:
            continue
        del live[u, v]
        if not state.vertex_alive[u] or not state.vertex_alive[v]:
            continue
        # a live entry's endpoints are unchanged since it was pushed
        new_pos = tuple(solved[3 * stamp:3 * stamp + 3])
        if not state.collapse_is_legal(u, v, new_pos):
            rejected.setdefault(u, set()).add((u, v))
            rejected.setdefault(v, set()).add((u, v))
            continue
        state.collapse(u, v, new_pos)
        remaining -= 1
        neighbors = state.vertex_neighbors(u)
        for w in neighbors:
            push_edge(*((u, w) if u < w else (w, u)))
        for w in neighbors:
            for key in rejected.pop(w, ()):
                # an edge at u, or one pushed from its other endpoint's
                # set, is live already; a dead endpoint ends the edge
                if key not in live and state.vertex_alive[key[0] + key[1] - w]:
                    push_edge(*key)
    return state.to_mesh(), remaining <= target_vertices
