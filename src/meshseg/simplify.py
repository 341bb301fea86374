"""Greedy edge-collapse mesh decimation driven by quadric error metrics.

Each vertex accumulates the squared plane-distance quadric of its incident
faces (Garland & Heckbert, SIGGRAPH 1997); the edge whose contraction has
the lowest quadric cost is collapsed first. Collapses that would flip an
incident face normal or create a non-manifold fan are skipped.

A quadric is kept as its 10 distinct floats, ``(q00, q01, q02, q03, q11,
q12, q13, q22, q23, q33)`` of the symmetric 4x4 matrix, and positions as
3-tuples, so the collapse loop runs in plain Python floats. Each vertex
keeps its neighbors, the corners of its live faces other than itself, in a
list without repeats, which each collapse updates where it changes the
faces; the link condition and the pushes after a collapse read these lists.
(A list of about six ints takes less than a fifth of the memory of a set.)

Heap entries are ``(cost, a, b, stamp)`` with ``a < b``, and each edge has
at most one live entry: the one whose stamp ``live[a * n + b]`` holds, for
``n`` input vertices. The
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
import logging
import math
from array import array

import numpy as np

from meshseg.mesh_io import Mesh

__all__ = ["simplify_qem"]

logger = logging.getLogger(__name__)

#: Cross-product norm below which a face counts as zero-area.
DEGENERATE_NORM = 1e-14
_SINGULAR_DET = 1e-10


def _optimal_position(quadric, p_u, p_v):
    """Collapse target minimizing v^T Q v over the solution of the 3x3
    system (when ``|det| > 1e-10``), the endpoints and the midpoint, in that
    order; a later candidate wins only with a strictly lower cost."""
    a, b, c, d, e, f, g, h, i, j = quadric
    # adjugate of the symmetric block [[a, b, c], [b, e, f], [c, f, h]]
    m00 = e * h - f * f
    m01 = c * f - b * h
    m02 = b * f - c * e
    det = a * m00 + b * m01 + c * m02
    best = None
    if abs(det) > _SINGULAR_DET:
        m11 = a * h - c * c
        m12 = b * c - a * f
        m22 = a * e - b * b
        best = x, y, z = (
            -(m00 * d + m01 * g + m02 * i) / det,
            -(m01 * d + m11 * g + m12 * i) / det,
            -(m02 * d + m12 * g + m22 * i) / det,
        )
        best_cost = (
            x * (a * x + 2.0 * (b * y + c * z + d))
            + y * (e * y + 2.0 * (f * z + g))
            + z * (h * z + 2.0 * i)
            + j
        )
    mid = (0.5 * (p_u[0] + p_v[0]), 0.5 * (p_u[1] + p_v[1]), 0.5 * (p_u[2] + p_v[2]))
    for p in (p_u, p_v, mid):
        x, y, z = p
        cost = (
            x * (a * x + 2.0 * (b * y + c * z + d))
            + y * (e * y + 2.0 * (f * z + g))
            + z * (h * z + 2.0 * i)
            + j
        )
        if best is None or cost < best_cost:
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


def _vertex_quadrics(mesh: Mesh) -> np.ndarray:
    """(V, 10) sum of the plane quadrics of each vertex's faces, in face
    order; a face whose normal is shorter than DEGENERATE_NORM adds none."""
    v, faces = mesh.vertices, mesh.faces
    p0 = v[faces[:, 0]]
    normal = np.cross(v[faces[:, 1]] - p0, v[faces[:, 2]] - p0)
    norm = np.linalg.norm(normal, axis=1)
    keep = norm >= DEGENERATE_NORM
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
    """Positions, quadrics and faces of the mesh being collapsed, with the
    set of faces at each vertex and the list of each vertex's neighbors: the
    corners of its live faces other than itself, kept up to date by
    ``collapse``."""

    def __init__(self, mesh: Mesh, quadrics: np.ndarray, ids: list[int], edges: list[list[int]]):
        self.positions = [tuple(p) for p in mesh.vertices.tolist()]
        self.quadrics = quadrics.tolist()
        corners = map(ids.__getitem__, mesh.faces.ravel().tolist())
        self.faces = [list(f) for f in zip(corners, corners, corners)]
        self.face_alive = [True] * len(self.faces)
        self.vertex_alive = [True] * len(self.positions)
        self.vertex_faces: list[set[int]] = [set() for _ in range(len(self.positions))]
        for fi, f in enumerate(self.faces):
            for vi in f:
                self.vertex_faces[vi].add(fi)
        # the edges are the faces' corner pairs, each once
        self.neighbors: list[list[int]] = [[] for _ in range(len(self.positions))]
        for a, b in zip(*edges):
            self.neighbors[a].append(b)
            self.neighbors[b].append(a)

    def collapse_target(self, u: int, v: int):
        """(position, cost) of the best collapse of edge (u, v)."""
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.quadrics[u]
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = self.quadrics[v]
        return _optimal_position(
            (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4,
             a5 + b5, a6 + b6, a7 + b7, a8 + b8, a9 + b9),
            self.positions[u], self.positions[v],
        )

    def collapse_is_legal(self, u: int, v: int, new_pos) -> bool:
        faces_u, faces_v = self.vertex_faces[u], self.vertex_faces[v]
        shared_faces = faces_u & faces_v
        if not shared_faces:
            return False
        # link condition: every common neighbor must lie on a shared face,
        # otherwise the collapse pinches the surface into a non-manifold fan
        faces = self.faces
        opposite = set()
        for fi in shared_faces:
            opposite.update(faces[fi])
        opposite.discard(u)
        opposite.discard(v)
        if set(self.neighbors[u]).intersection(self.neighbors[v]) != opposite:
            return False
        # normal-flip check over every surviving incident face: the normals
        # (p1 - p0) x (p2 - p0) before and after the move
        pos = self.positions
        for fi in (faces_u | faces_v) - shared_faces:
            c0, c1, c2 = faces[fi]
            p0, p1, p2 = pos[c0], pos[c1], pos[c2]
            ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
            bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            if c0 == u or c0 == v:
                p0 = new_pos
            elif c1 == u or c1 == v:
                p1 = new_pos
            else:
                p2 = new_pos
            ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
            bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
            mx, my, mz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            if (math.sqrt(mx * mx + my * my + mz * mz) < DEGENERATE_NORM
                    or nx * mx + ny * my + nz * mz < 0):
                return False
        return True

    def collapse(self, u: int, v: int, new_pos):
        """Merge v into u at new_pos."""
        faces_u, faces_v = self.vertex_faces[u], self.vertex_faces[v]
        shared_faces = faces_u & faces_v
        self.positions[u] = new_pos
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.quadrics[u]
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = self.quadrics[v]
        self.quadrics[u] = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4,
                            a5 + b5, a6 + b6, a7 + b7, a8 + b8, a9 + b9)
        for fi in shared_faces:
            self.face_alive[fi] = False
            for w in self.faces[fi]:
                self.vertex_faces[w].discard(fi)
        for fi in faces_v:
            face = self.faces[fi]
            face[face.index(v)] = u
        faces_u |= faces_v
        faces_v.clear()
        neighbors_u, neighbors_v = self.neighbors[u], self.neighbors[v]
        neighbors_u.remove(v)
        for w in neighbors_v:
            if w != u:
                neighbors_w = self.neighbors[w]
                neighbors_w.remove(v)
                if u not in neighbors_w:
                    neighbors_w.append(u)
                    neighbors_u.append(w)
        neighbors_v.clear()
        # a shared face's third corner stays next to u only through another
        # face: on an open patch its edges to u and v can be boundary edges
        for w in {w for fi in shared_faces for w in self.faces[fi]} - {u, v}:
            if faces_u.isdisjoint(self.vertex_faces[w]):
                neighbors_u.remove(w)
                self.neighbors[w].remove(u)
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
    a, b = _edges(mesh.faces)
    targets, costs = _collapse_targets(quadrics, mesh.vertices, a, b)
    # one int object per vertex, shared by the faces, neighbor lists and heap
    n = mesh.num_vertices
    ids = list(range(n))
    edges = [list(map(ids.__getitem__, x.tolist())) for x in (a, b)]
    state = _MeshState(mesh, quadrics, ids, edges)
    heap = list(zip(costs.tolist(), *edges, range(len(a))))
    heapq.heapify(heap)
    # an edge (a, b) is keyed by the int a * n + b in ``live`` and ``rejected``
    live = {u * n + v: stamp for _, u, v, stamp in heap}
    # by stamp, the collapse position solved when the entry was pushed, as
    # three flat doubles, so that the stale entries' positions take little room
    solved = array("d", targets.tobytes())
    rejected: dict[int, set[int]] = {}
    collapse_target, collapse_is_legal = state.collapse_target, state.collapse_is_legal
    alive, neighbors = state.vertex_alive, state.neighbors
    heappop, heappush = heapq.heappop, heapq.heappush

    def push_edge(a, b):
        position, cost = collapse_target(a, b)
        stamp = live[a * n + b] = len(solved) // 3
        solved.extend(position)
        heappush(heap, (cost, a, b, stamp))

    remaining, pops, rejections = n, 0, 0
    while remaining > target_vertices and heap:
        _, u, v, stamp = heappop(heap)
        pops += 1
        key = u * n + v
        if live.get(key) != stamp:
            continue
        del live[key]
        if not alive[u] or not alive[v]:
            continue
        # a live entry's endpoints are unchanged since it was pushed
        new_pos = tuple(solved[3 * stamp:3 * stamp + 3])
        if not collapse_is_legal(u, v, new_pos):
            rejections += 1
            rejected.setdefault(u, set()).add(key)
            rejected.setdefault(v, set()).add(key)
            continue
        state.collapse(u, v, new_pos)
        remaining -= 1
        for w in neighbors[u]:
            push_edge(*((u, w) if u < w else (w, u)))
        for w in neighbors[u]:
            for key in rejected.pop(w, ()):
                # an edge at u, or one pushed from its other endpoint's
                # set, is live already; a dead endpoint ends the edge
                if key not in live:
                    low, high = divmod(key, n)
                    if alive[low + high - w]:
                        push_edge(low, high)
    logger.debug(
        "qem: %d collapses, %d rejections, %d pops, %d target solves after %d initial ones",
        n - remaining, rejections, pops, len(solved) // 3 - len(a), len(a),
    )
    return state.to_mesh(), remaining <= target_vertices
