"""Seeded synthetic inputs: irregular, star-shaped, closed triangle meshes.

A mesh is the convex hull of random points on the unit sphere (every point
is a hull vertex, so a hull of ``n`` points has exactly ``2n - 4`` faces and
irregular valences), pushed radially by a few random low-frequency terms.
The radial map keeps the surface closed, genus 0 and free of
self-intersections. Labels are geometric and rotation-invariant: the
quartile of each face's radial displacement, so training with random
rotations can still learn them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

NUM_CLASSES = 4

# points closer than this share of the mean spacing are redrawn, which keeps
# slivers away from the zero-area checks of the pipeline
_MIN_SPACING_SHARE = 0.15


@dataclass(frozen=True)
class SynthMesh:
    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray  # (F, 3) int64, counter-clockwise seen from outside
    labels: np.ndarray  # (F,) int64 in [0, NUM_CLASSES)

    def stats(self) -> dict:
        valence = np.bincount(self.faces.ravel(), minlength=len(self.vertices))
        return {
            "vertices": int(len(self.vertices)),
            "faces": int(len(self.faces)),
            "valence_min": int(valence.min()),
            "valence_max": int(valence.max()),
        }


def _sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    min_dist = _MIN_SPACING_SHARE * np.sqrt(4 * np.pi / n)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    while True:
        # the later point of each close pair is redrawn
        pairs = cKDTree(pts).query_pairs(min_dist, output_type="ndarray")
        if not len(pairs):
            return pts
        redraw = np.unique(pairs.max(axis=1))
        fresh = rng.normal(size=(len(redraw), 3))
        pts[redraw] = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)


def star_mesh(rng: np.random.Generator, n_points: int, terms: int = 3) -> SynthMesh:
    """A closed mesh with ``n_points`` vertices and ``2 * n_points - 4`` faces."""
    pts = _sphere_points(rng, n_points)
    faces = ConvexHull(pts).simplices.astype(np.int64)
    # orient every face outward (hull simplices come in arbitrary order)
    a, b, c = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    inward = (np.cross(b - a, c - a) * (a + b + c)).sum(axis=1) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]

    freqs = rng.normal(size=(terms, 3))
    freqs *= rng.uniform(1.5, 3.0, size=(terms, 1)) / np.linalg.norm(freqs, axis=1, keepdims=True)
    amps = rng.uniform(0.05, 0.12, size=terms)
    phases = rng.uniform(0, 2 * np.pi, size=terms)

    def displacement(p):
        return (amps * np.cos(p @ freqs.T + phases)).sum(axis=-1)

    vertices = pts * (1.0 + displacement(pts))[:, None]
    centroid_dirs = pts[faces].mean(axis=1)
    centroid_dirs /= np.linalg.norm(centroid_dirs, axis=1, keepdims=True)
    disp = displacement(centroid_dirs)
    cuts = np.quantile(disp, [0.25, 0.5, 0.75])
    labels = np.searchsorted(cuts, disp).astype(np.int64)
    return SynthMesh(vertices=vertices, faces=faces, labels=labels)


def write_off(mesh: SynthMesh, path: Path) -> None:
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.faces.tolist()]
    path.write_text("\n".join(lines) + "\n")


def write_labels(mesh: SynthMesh, path: Path) -> None:
    path.write_text("\n".join(map(str, mesh.labels.tolist())) + "\n")
