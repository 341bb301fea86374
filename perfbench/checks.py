"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks hold references to meshseg functions taken at import time, before
the traced run wraps them, so checking adds nothing to the per-layer
figures. They use explicit comparisons, not ``assert``, so they still run
under ``python -O``.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from meshseg.data import class_palette
from meshseg.mesh_io import parse_ply
from meshseg.preprocess import PAD_LABEL, load_sample, save_sample


def sample_invariants(s, n_total: int, eigen_count: int) -> list[str]:
    """The padding invariants ``Sample.validate`` asserts, plus the sizes
    the configuration asks for."""
    problems = []
    n = s.n_total
    if n != n_total:
        problems.append(f"n_total {n} != {n_total}")
    if s.features.shape != (n, 12 + eigen_count):
        problems.append(f"features shape {s.features.shape}")
    for name in ("cluster_ids", "labels", "areas", "real_mask"):
        if len(getattr(s, name)) != n:
            problems.append(f"{name} length {len(getattr(s, name))} != {n}")
    if s.adjacency.n != n:
        problems.append(f"adjacency over {s.adjacency.n} nodes, not {n}")
    if problems:
        return problems
    real = s.real_mask
    pad = ~real
    if s.adjacency.pairs.size and not real[s.adjacency.pairs].all():
        problems.append("padding face with dual-graph edges")
    if not (s.areas[pad] == 0).all():
        problems.append("padding face with nonzero area")
    if not (s.labels[pad] == PAD_LABEL).all():
        problems.append("padding face without the ignore label")
    if not (s.features[pad] == 0).all():
        problems.append("padding face with nonzero features")
    if pad.any() and not (s.cluster_ids[pad] == s.num_clusters).all():
        problems.append("padding face outside the padding cluster")
    if not ((s.cluster_ids[real] >= 0) & (s.cluster_ids[real] < s.num_clusters)).all():
        problems.append("real face with an out-of-range cluster id")
    if not np.isfinite(s.features).all():
        problems.append("non-finite features")
    return problems


def same_sample(a, b) -> list[str]:
    """Field-by-field exact equality of two samples."""
    problems = []
    for name in ("features", "cluster_ids", "labels", "areas", "real_mask"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            problems.append(f"{name} differs")
    if a.adjacency.n != b.adjacency.n or not np.array_equal(a.adjacency.pairs, b.adjacency.pairs):
        problems.append("adjacency differs")
    for name in ("num_clusters", "num_classes", "eigen_count"):
        if getattr(a, name) != getattr(b, name):
            problems.append(f"{name} {getattr(a, name)} != {getattr(b, name)}")
    return problems


def round_trip(sample, workdir: Path) -> list[str]:
    """Save and reload a sample; the reloaded one must equal the original."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "check.sample"
        save_sample(sample, path)
        return same_sample(sample, load_sample(path))


def segmentation_ply(text: str, n_real: int, num_classes: int) -> list[str]:
    """The PLY parses back and holds one palette color per real face."""
    mesh, colors = parse_ply(text)
    if colors is None:
        return ["segment PLY has no face colors"]
    problems = []
    if mesh.num_faces != n_real or len(colors) != n_real:
        problems.append(f"{len(colors)} colors for {mesh.num_faces} faces, expected {n_real}")
    palette = {tuple(c) for c in class_palette(num_classes)[:num_classes]}
    if not {tuple(c) for c in colors.tolist()} <= palette:
        problems.append("face color outside the class palette")
    return problems


def finite(**values: float) -> list[str]:
    return [f"{name} is not finite: {v}" for name, v in values.items() if not math.isfinite(v)]
