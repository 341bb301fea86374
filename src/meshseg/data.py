"""Dataset directory loading and color palettes.

Expected layout: ``<root>/shapes/*.off`` (or ``.obj``, or ASCII ``.ply``,
whose face colors are ignored) paired with ``<root>/labels/<stem>.txt``; an
optional split file lists one stem per line.
"""

from __future__ import annotations

import colorsys
from collections import Counter
from pathlib import Path

from meshseg.errors import MeshFormatError
from meshseg.mesh_io import (LabelVec, Mesh, parse_face_labels, parse_obj, parse_off,
                              parse_ply)

__all__ = ["list_dataset", "load_mesh_file", "load_pair", "read_split_file", "class_palette", "diverging_color"]

MESH_SUFFIXES = (".off", ".obj", ".ply")

# tab10-like base colors; extended deterministically via HSV when exhausted
_BASE_PALETTE = [
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207),
]


def class_palette(n: int) -> list[tuple[int, int, int]]:
    """Deterministic palette with at least n distinct colors."""
    colors = list(_BASE_PALETTE)
    i = 0
    while len(colors) < n:
        h = (i * 0.61803398875) % 1.0
        r, g, b = colorsys.hsv_to_rgb(h, 0.85, 0.95)
        colors.append((int(r * 255), int(g * 255), int(b * 255)))
        i += 1
    return colors


def diverging_color(t: float) -> tuple[int, int, int]:
    """Linear blue-white-red map for a value already scaled into [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        f = t / 0.5
        return (int(255 * f), int(255 * f), 255)
    f = (t - 0.5) / 0.5
    return (255, int(255 * (1 - f)), int(255 * (1 - f)))


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def load_mesh_file(path: Path) -> Mesh:
    path = Path(path)
    text = _read_text(path)
    if path.suffix.lower() == ".off":
        return parse_off(text)
    if path.suffix.lower() == ".obj":
        return parse_obj(text)
    if path.suffix.lower() == ".ply":
        return parse_ply(text)[0]
    raise MeshFormatError(f"unsupported mesh format {path.suffix!r} for {path.name}")


def read_split_file(path: Path) -> list[str]:
    return [line.strip() for line in _read_text(Path(path)).splitlines() if line.strip()]


def list_dataset(root: Path, split: list[str] | None = None) -> list[tuple[Path, Path]]:
    """Pairs of (mesh file, label file) matched by stem, in mesh file name order; a split
    stem without a mesh, a shared stem or a missing label file is a FileNotFoundError."""
    root = Path(root)
    shapes_dir = root / "shapes"
    labels_dir = root / "labels"
    if not shapes_dir.is_dir():
        raise FileNotFoundError(f"no shapes/ directory under {root}")
    meshes = [p for p in sorted(shapes_dir.iterdir()) if p.suffix.lower() in MESH_SUFFIXES
              and (split is None or p.stem in split)]
    stems = Counter(p.stem for p in meshes)
    unknown = sorted(set(split or ()) - set(stems))
    if unknown:
        raise FileNotFoundError(f"split stems with no mesh under {shapes_dir}: {unknown}")
    shared = [p.name for p in meshes if stems[p.stem] > 1]
    if shared:
        raise FileNotFoundError(f"mesh files share a stem: {shared}")
    pairs = [(p, labels_dir / f"{p.stem}.txt") for p in meshes]
    for mesh_path, label_path in pairs:
        if not label_path.is_file():
            raise FileNotFoundError(f"missing label file for {mesh_path.name}")
    return pairs


def load_pair(mesh_path: Path, label_path: Path) -> tuple[Mesh, LabelVec]:
    mesh = load_mesh_file(mesh_path)
    labels = parse_face_labels(_read_text(Path(label_path)), mesh.num_faces)
    return mesh, labels
