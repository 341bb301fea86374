"""Parsing and serialization of mesh and label files (ASCII OFF/OBJ/PLY).

All parsers are pure functions over text; binary formats are rejected.
Coordinates are written back at 9 significant digits, which round-trips
float32-precision inputs exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meshseg.errors import MeshFormatError

__all__ = [
    "Mesh",
    "LabelVec",
    "parse_off",
    "parse_obj",
    "parse_ply",
    "parse_face_labels",
    "write_ply_colored",
    "merge_duplicate_vertices",
]


@dataclass(frozen=True)
class Mesh:
    """Triangular mesh: vertex coordinates plus 0-based face indices.

    Counter-clockwise winding is trusted as given.
    """

    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray  # (N, 3) int64

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshFormatError(f"faces must be (N, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise MeshFormatError("face index out of range")
        if f.size and ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])).any():
            raise MeshFormatError("face with repeated vertex index")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class LabelVec:
    """Per-face class ids, each below ``num_classes``."""

    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "labels", lab)
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        valid = lab[lab >= 0]
        if valid.size and valid.max() >= self.num_classes:
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


def _lines(text: str) -> list[str]:
    return text.split("\n")


def _vertex_record(tokens: list[str], line_no: int) -> list[float]:
    """The three finite coordinates a vertex record starts with; OFF, OBJ
    (after its ``v`` tag) and PLY vertex records all read this way."""
    if len(tokens) < 3:
        raise MeshFormatError("vertex record needs 3 coordinates", line=line_no)
    try:
        x, y, z = map(float, tokens[:3])
    except ValueError:
        raise MeshFormatError("bad vertex coordinate", line=line_no) from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise MeshFormatError("non-finite vertex coordinate", line=line_no)
    return [x, y, z]


def _face_record(tokens: list[str], line_no: int, n_vertices: int) -> list[int]:
    """The indices of an OFF or PLY face record ``3 i j k ...``, each below
    ``n_vertices``; the tokens after them (PLY colors) are the caller's."""
    try:
        arity = int(tokens[0])
        idx = [int(p) for p in tokens[1 : 1 + arity]]
    except (ValueError, IndexError):
        raise MeshFormatError("bad face record", line=line_no) from None
    if arity != 3:
        raise MeshFormatError(f"non-triangular face (arity {arity})", line=line_no)
    if len(idx) != 3:
        raise MeshFormatError("face record needs 3 indices", line=line_no)
    for j in idx:
        if not 0 <= j < n_vertices:
            raise MeshFormatError("index out of range", line=line_no)
    return idx


def parse_off(text: str) -> Mesh:
    """Parse an ASCII OFF file.

    Faces of any declared arity are read, but non-triangles are rejected.
    Blank lines and ``#`` comments are skipped. A negative count and a
    non-finite coordinate are errors. Errors carry 1-based line numbers.
    """
    lines = _lines(text)
    # (line_number, content) for non-empty, non-comment lines
    rows = [
        (i + 1, ln.strip())
        for i, ln in enumerate(lines)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise MeshFormatError("empty OFF file")
    pos = 0
    header_line, header = rows[pos]
    if header == "OFF":
        pos += 1
        if pos >= len(rows):
            raise MeshFormatError("missing counts line", line=header_line)
        counts_line, counts_text = rows[pos]
    elif header.startswith("OFF"):
        # counts on the header line ("OFF 8 6 12" variant)
        counts_line, counts_text = header_line, header[3:].strip()
    else:
        raise MeshFormatError("missing OFF header", line=header_line)
    pos += 1
    parts = counts_text.split()
    if len(parts) != 3:
        raise MeshFormatError("counts line must have 3 integers", line=counts_line)
    try:
        n_vertices, n_faces, n_edges = (int(p) for p in parts)
    except ValueError:
        raise MeshFormatError("counts line must have 3 integers", line=counts_line) from None
    if min(n_vertices, n_faces, n_edges) < 0:
        raise MeshFormatError("counts must be nonnegative", line=counts_line)
    if len(rows) - pos < n_vertices + n_faces:
        raise MeshFormatError(
            f"truncated OFF file: expected {n_vertices} vertices and {n_faces} faces"
        )
    # each record goes straight into its row, so no per-row list stays alive
    # to be scanned and promoted by the garbage collector
    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for k, (line_no, content) in enumerate(rows[pos : pos + n_vertices]):
        vertices[k] = _vertex_record(content.split(), line_no)
    pos += n_vertices
    faces = np.empty((n_faces, 3), dtype=np.int64)
    for k, (line_no, content) in enumerate(rows[pos : pos + n_faces]):
        faces[k] = _face_record(content.split(), line_no, n_vertices)
    return Mesh(vertices=vertices, faces=faces)


def parse_obj(text: str) -> Mesh:
    """Parse a Wavefront OBJ file (``v`` and ``f`` records only).

    Slashed ``v/vt/vn`` face tokens use the vertex index only; negative
    indices are resolved relative to the vertices read so far. A non-finite
    coordinate is an error that names its line.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            vertices.append(_vertex_record(parts[1:], line_no))
        elif tag == "f":
            tokens = parts[1:]
            if len(tokens) != 3:
                raise MeshFormatError(
                    f"non-triangular face ({len(tokens)} vertices)", line=line_no
                )
            idx = []
            for tok in tokens:
                head = tok.split("/")[0]
                try:
                    raw_idx = int(head)
                except ValueError:
                    raise MeshFormatError(f"bad face index {head!r}", line=line_no) from None
                if raw_idx > 0:
                    resolved = raw_idx - 1
                elif raw_idx < 0:
                    resolved = len(vertices) + raw_idx
                else:
                    raise MeshFormatError("OBJ indices are 1-based, got 0", line=line_no)
                if resolved < 0 or resolved >= len(vertices):
                    raise MeshFormatError(f"unresolvable index {raw_idx}", line=line_no)
                idx.append(resolved)
            faces.append(idx)
        # all other record types (vn, vt, o, g, s, usemtl, ...) are ignored
    return Mesh(
        vertices=np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
        faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def parse_face_labels(text: str, n_faces: int) -> LabelVec:
    """Parse one non-negative integer class id per line.

    Ids are kept as they are, so one id means one class in every file;
    ``num_classes`` is the largest id plus one.
    """
    raw: list[int] = []
    for line_no, line in enumerate(_lines(text), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise MeshFormatError(f"non-integer label {token!r}", line=line_no) from None
        if value < 0:
            raise MeshFormatError(f"negative label {value}", line=line_no)
        raw.append(value)
    if len(raw) != n_faces:
        raise MeshFormatError(f"label count mismatch: {len(raw)} labels for {n_faces} faces")
    labels = np.array(raw, dtype=np.int64)
    return LabelVec(labels=labels, num_classes=int(labels.max(initial=-1)) + 1)


def write_ply_colored(mesh: Mesh, labels: LabelVec, palette) -> str:
    """Serialize a mesh as ASCII PLY with per-face RGB colors from a palette."""
    palette = [tuple(int(c) for c in rgb) for rgb in palette]
    if len(palette) < labels.num_classes:
        raise ValueError(
            f"palette too small: {len(palette)} colors for {labels.num_classes} classes"
        )
    if len(labels) != mesh.num_faces:
        raise ValueError(f"label count {len(labels)} != face count {mesh.num_faces}")
    out = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.num_vertices}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {mesh.num_faces}",
        "property list uchar int vertex_indices",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for v in mesh.vertices:
        out.append(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for f, lab in zip(mesh.faces, labels.labels):
        r, g, b = palette[lab] if lab >= 0 else (0, 0, 0)
        out.append(f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}")
    return "\n".join(out) + "\n"


def parse_ply(text: str) -> tuple[Mesh, np.ndarray | None]:
    """Parse an ASCII PLY 1.0 file; returns the mesh and per-face RGB (or None).

    Binary PLY is rejected with a clear error. Vertex and face records read
    as in OFF, and errors carry 1-based line numbers.
    """
    lines = _lines(text)
    if not lines or lines[0].strip() != "ply":
        raise MeshFormatError("missing 'ply' magic", line=1)
    elements: list[tuple[str, int, list[str]]] = []
    body_start = None
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("comment"):
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise MeshFormatError(
                    "binary PLY is not supported, re-export as ASCII", line=line_no
                )
        elif line.startswith("element"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdecimal():
                raise MeshFormatError("element line must be 'element <name> <count>'",
                                      line=line_no)
            elements.append((parts[1], int(parts[2]), []))
        elif line.startswith("property"):
            if not elements:
                raise MeshFormatError("property before element", line=line_no)
            elements[-1][2].append(line.split()[-1])
        elif line == "end_header":
            body_start = line_no
            break
        else:
            raise MeshFormatError(f"unexpected header line {line!r}", line=line_no)
    if body_start is None:
        raise MeshFormatError("missing end_header")
    counts = {name: count for name, count, _ in elements}
    if "vertex" not in counts or "face" not in counts:
        raise MeshFormatError("PLY missing vertex or face element")
    rows = [
        (i, ln.strip()) for i, ln in enumerate(lines[body_start:], start=body_start + 1)
        if ln.strip()
    ]
    pos = 0
    colors = None
    for name, count, props in elements:
        if len(rows) - pos < count:
            raise MeshFormatError(f"truncated PLY: element {name} incomplete")
        chunk = rows[pos : pos + count]
        pos += count
        if name == "vertex":
            vertices = np.array(
                [_vertex_record(content.split(), line_no) for line_no, content in chunk],
                dtype=np.float64,
            ).reshape(count, 3)
        elif name == "face":
            face_rows = []
            color_rows = []
            has_color = {"red", "green", "blue"} <= set(props)
            for line_no, content in chunk:
                parts = content.split()
                face_rows.append(_face_record(parts, line_no, counts["vertex"]))
                if has_color:
                    rgb = parts[4:7]
                    if len(rgb) != 3 or not all(map(str.isdecimal, rgb)):
                        raise MeshFormatError("face record needs 3 color values", line=line_no)
                    color_rows.append([int(c) for c in rgb])
            faces = np.asarray(face_rows, dtype=np.int64).reshape(count, 3)
            if has_color:
                colors = np.asarray(color_rows, dtype=np.int64).reshape(count, 3)
    return Mesh(vertices=vertices, faces=faces), colors


def merge_duplicate_vertices(mesh: Mesh, eps: float = 0.0, return_face_mask: bool = False):
    """Collapse vertices within ``eps`` of an earlier vertex onto it.

    Face indices are remapped and faces that become degenerate (a repeated
    index) are dropped. Idempotent for any fixed ``eps``. With
    ``return_face_mask`` the boolean keep-mask over the original faces is
    returned as well, so per-face data can stay aligned.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    v = mesh.vertices
    n = len(v)
    remap = np.arange(n)
    if n and eps == 0.0:
        # equal bytes, so -0.0 and 0.0 stay apart and a NaN meets only its
        # own bit pattern; unique's index is each key's first occurrence
        _, first, inverse = np.unique(
            v.view(np.uint64), axis=0, return_index=True, return_inverse=True
        )
        remap = first[inverse.reshape(-1)]
    elif n:
        from scipy.spatial import cKDTree

        # a vertex goes to its lowest-index partner within eps that is not
        # merged itself; partners are visited by ascending (higher, lower)
        # index, so only the vertices with a lower partner are looked at
        pairs = cKDTree(v).query_pairs(eps, output_type="ndarray")
        pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        target = list(range(n))
        for j, i in pairs.tolist():
            if target[i] == i and target[j] == j:
                target[i] = j
        remap = np.array(target, dtype=np.int64)
    keep = np.flatnonzero(remap == np.arange(n))
    new_index = np.full(n, -1, dtype=np.int64)
    new_index[keep] = np.arange(len(keep))
    faces = new_index[remap[mesh.faces]]
    nondegenerate = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 0] != faces[:, 2])
    )
    merged = Mesh(vertices=v[keep], faces=faces[nondegenerate])
    if return_face_mask:
        return merged, nondegenerate
    return merged
