"""Reference per-record loops of the mesh and label readers and the PLY
writer: the implementations that the block conversions in
``meshseg.mesh_io`` replaced.

``parse_off_oracle``, ``parse_ply_oracle`` and ``parse_face_labels_oracle``
read one record at a time through the record readers; the parity tests hold
``meshseg.mesh_io.parse_off``, ``parse_ply`` and ``parse_face_labels`` to
their arrays and to their error messages and lines.
``write_ply_colored_oracle`` formats one numpy row at a time; the parity
tests hold ``meshseg.mesh_io.write_ply_colored`` to its bytes.
"""

from __future__ import annotations

import numpy as np

from meshseg.errors import MeshFormatError
from meshseg.mesh_io import LabelVec, Mesh, _face_record, _vertex_record


def parse_off_oracle(text: str) -> Mesh:
    lines = text.split("\n")
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
    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for k, (line_no, content) in enumerate(rows[pos : pos + n_vertices]):
        vertices[k] = _vertex_record(content.split(), line_no)
    pos += n_vertices
    faces = np.empty((n_faces, 3), dtype=np.int64)
    for k, (line_no, content) in enumerate(rows[pos : pos + n_faces]):
        faces[k] = _face_record(content.split(), line_no, n_vertices)
    return Mesh(vertices=vertices, faces=faces)


def parse_face_labels_oracle(text: str, n_faces: int) -> LabelVec:
    raw: list[int] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
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


def write_ply_colored_oracle(mesh: Mesh, labels: LabelVec, palette) -> str:
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


def parse_ply_oracle(text: str) -> tuple[Mesh, np.ndarray | None]:
    lines = text.split("\n")
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
