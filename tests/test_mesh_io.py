"""Mesh and label file parsing, PLY writing, duplicate-vertex merging."""

import numpy as np
import pytest

from meshseg.errors import MeshFormatError
from meshseg.mesh_io import (
    LabelVec,
    Mesh,
    merge_duplicate_vertices,
    parse_face_labels,
    parse_obj,
    parse_off,
    parse_ply,
    write_ply_colored,
)
from meshseg.spectral import build_dual_adjacency

from conftest import icosphere, random_hull_mesh, shared_edge_count, tetrahedron
from io_oracles import (
    parse_face_labels_oracle,
    parse_off_oracle,
    parse_ply_oracle,
    write_ply_colored_oracle,
)
from loop_oracles import merge_duplicate_vertices_oracle

TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"

INT64_MAX = int(np.iinfo(np.int64).max)

TETRA_OFF = (
    "OFF\n4 4 0\n"
    "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n"
)


class TestParseOff:
    def test_minimal_single_triangle(self):
        mesh = parse_off(TRIANGLE_OFF)
        assert mesh.num_vertices == 3
        assert mesh.num_faces == 1
        assert mesh.faces.tolist() == [[0, 1, 2]]
        np.testing.assert_array_equal(
            mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        )

    def test_index_out_of_range_with_line_number(self):
        bad = TRIANGLE_OFF.replace("3 0 1 2", "3 0 1 5")
        with pytest.raises(MeshFormatError, match="index out of range") as exc:
            parse_off(bad)
        assert "line 6" in str(exc.value)

    def test_tetrahedron_every_edge_shared_by_two_faces(self):
        mesh = parse_off(TETRA_OFF)
        assert mesh.num_faces == 4
        counts = shared_edge_count(mesh)
        assert len(counts) == 6
        assert all(c == 2 for c in counts.values())

    def test_counts_on_header_line_variant(self):
        mesh = parse_off("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert mesh.num_faces == 1

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\nOFF\n\n3 1 0\n# vertices\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        assert parse_off(text).num_faces == 1

    def test_non_triangular_face_rejected(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 2 3\n"
        with pytest.raises(MeshFormatError, match="non-triangular"):
            parse_off(text)

    def test_truncated_file(self):
        with pytest.raises(MeshFormatError, match="truncated"):
            parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n")

    def test_missing_header(self):
        with pytest.raises(MeshFormatError, match="OFF header"):
            parse_off("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_bad_counts_line(self):
        with pytest.raises(MeshFormatError, match="counts line"):
            parse_off("OFF\n3 x 0\n")

    @pytest.mark.parametrize("counts", ["-1 1 0", "3 -1 0", "3 1 -2"])
    def test_negative_count_names_its_line(self, counts):
        text = TRIANGLE_OFF.replace("3 1 0", counts)
        with pytest.raises(MeshFormatError, match="counts must be nonnegative, line 2"):
            parse_off(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_coordinate_names_its_line(self, value):
        text = TRIANGLE_OFF.replace("1 0 0", f"1 {value} 0")
        with pytest.raises(MeshFormatError, match="non-finite vertex coordinate, line 4"):
            parse_off(text)


class TestParseObj:
    def test_minimal(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert mesh.num_vertices == 3
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_slashed_face_tokens_use_vertex_index_only(self):
        mesh = parse_obj(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\nf 1/1/1 2/2/2 3/3/3\n"
        )
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_negative_relative_indices(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_other_records_ignored(self):
        text = "o thing\ng grp\ns off\nusemtl m\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
        assert parse_obj(text).num_faces == 1

    def test_non_triangular_rejected(self):
        with pytest.raises(MeshFormatError, match="non-triangular"):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")

    def test_unresolvable_index(self):
        with pytest.raises(MeshFormatError, match="unresolvable"):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")

    def test_zero_index_rejected(self):
        with pytest.raises(MeshFormatError, match="1-based"):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_coordinate_names_its_line(self, value):
        text = f"# header\nv 0 0 0\nv 1 0 {value}\nv 0 1 0\nf 1 2 3\n"
        with pytest.raises(MeshFormatError, match="non-finite vertex coordinate, line 3"):
            parse_obj(text)


class TestParseFaceLabels:
    def test_ids_kept_as_class_ids(self):
        lv = parse_face_labels("1\n1\n2\n", 3)
        assert lv.labels.tolist() == [1, 1, 2]
        assert lv.num_classes == 3

    def test_one_id_means_one_class_in_every_file(self):
        first = parse_face_labels("2\n2\n1\n3\n", 4)
        second = parse_face_labels("1\n3\n3\n2\n", 4)
        assert first.labels.tolist() == [2, 2, 1, 3]
        assert second.labels.tolist() == [1, 3, 3, 2]
        assert first.num_classes == second.num_classes == 4

    def test_negative_label_names_its_line(self):
        with pytest.raises(MeshFormatError, match="negative label -1, line 3"):
            parse_face_labels("0\n1\n-1\n", 3)

    def test_single_class(self):
        lv = parse_face_labels("0\n0\n0\n0\n", 4)
        assert lv.labels.tolist() == [0, 0, 0, 0]
        assert lv.num_classes == 1

    def test_count_mismatch(self):
        with pytest.raises(MeshFormatError, match="label count mismatch"):
            parse_face_labels("1\n2\n3\n4\n5\n", 3)

    def test_non_integer_token(self):
        with pytest.raises(MeshFormatError, match="non-integer"):
            parse_face_labels("1\nfoo\n2\n", 3)

    @pytest.mark.parametrize("text, count, line", [
        ("99999999999999999999\n", 1, 1),
        ("0\n\n9223372036854775808\n99999999999999999999\n", 3, 3),
    ])
    def test_label_beyond_int64_names_its_line(self, text, count, line):
        with pytest.raises(MeshFormatError,
                           match=rf"label too large \(above {INT64_MAX}\), line {line}$"):
            parse_face_labels(text, count)

    def test_largest_int64_label_is_kept(self):
        assert parse_face_labels(f"{INT64_MAX}\n0\n", 2).labels.tolist() == [INT64_MAX, 0]

    def test_crlf_and_blank_lines(self):
        lv = parse_face_labels("3\r\n\r\n3\r\n7\r\n", 3)
        assert lv.labels.tolist() == [3, 3, 7]


class TestPlyRoundTrip:
    def test_single_triangle_face_row(self):
        mesh = parse_off(TRIANGLE_OFF)
        text = write_ply_colored(
            mesh, LabelVec(labels=[0], num_classes=1), [(255, 0, 0)]
        )
        assert "3 0 1 2 255 0 0" in text
        assert text.startswith("ply\nformat ascii 1.0\n")

    def test_two_faces_distinct_colors(self):
        mesh = Mesh(
            vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
            faces=[[0, 1, 2], [1, 3, 2]],
        )
        text = write_ply_colored(
            mesh, LabelVec(labels=[0, 1], num_classes=2), [(255, 0, 0), (0, 255, 0)]
        )
        assert "3 0 1 2 255 0 0" in text
        assert "3 1 3 2 0 255 0" in text

    def test_round_trip_exact(self, rng):
        mesh = random_hull_mesh(rng, 20)
        labels = LabelVec(
            labels=rng.integers(0, 3, size=mesh.num_faces), num_classes=3
        )
        palette = [(255, 0, 0), (0, 255, 0), (0, 0, 255)]
        back, colors = parse_ply(write_ply_colored(mesh, labels, palette))
        assert back.faces.tolist() == mesh.faces.tolist()
        # 9 significant digits round-trips these double coordinates to 1e-9 rel
        np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-8)
        assert colors.tolist() == [list(palette[l]) for l in labels.labels]

    def test_round_trip_bit_exact_at_9_digits(self):
        # coordinates representable in 9 significant digits survive exactly
        mesh = Mesh(
            vertices=[[0.125, -3.5, 1e-4], [1.5, 0.25, 2.0], [0.0, 1.0, -0.75]],
            faces=[[0, 1, 2]],
        )
        back, _ = parse_ply(
            write_ply_colored(mesh, LabelVec(labels=[0], num_classes=1), [(1, 2, 3)])
        )
        np.testing.assert_array_equal(back.vertices, mesh.vertices)

    def test_palette_too_small(self):
        mesh = parse_off(TRIANGLE_OFF)
        with pytest.raises(ValueError, match="palette too small"):
            write_ply_colored(mesh, LabelVec(labels=[0], num_classes=2), [(1, 2, 3)])

    def test_binary_ply_rejected(self):
        text = "ply\nformat binary_little_endian 1.0\nend_header\n"
        with pytest.raises(MeshFormatError, match="binary PLY is not supported"):
            parse_ply(text)


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
    "property float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
)


class TestParsePlyErrors:
    """Malformed PLY records are MeshFormatErrors that name their line, as
    in OFF and OBJ."""

    def test_non_integer_element_count_names_its_line(self):
        text = PLY_HEADER.replace("element vertex 3", "element vertex x")
        with pytest.raises(MeshFormatError, match="element line must be .*, line 3"):
            parse_ply(text + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_bad_float_names_its_line(self):
        with pytest.raises(MeshFormatError, match="bad vertex coordinate, line 12"):
            parse_ply(PLY_HEADER + "0 0 0\n1 0 0\n0 1.2.3 0\n3 0 1 2\n")

    def test_short_vertex_row_names_its_line(self):
        with pytest.raises(MeshFormatError, match="vertex record needs 3 coordinates, line 11"):
            parse_ply(PLY_HEADER + "0 0 0\n1 0\n0 1 0\n3 0 1 2\n")

    def test_short_face_row_names_its_line(self):
        with pytest.raises(MeshFormatError, match="face record needs 3 indices, line 13"):
            parse_ply(PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1\n")

    def test_face_row_short_of_its_colors_names_its_line(self):
        text = write_ply_colored(
            parse_off(TRIANGLE_OFF), LabelVec(labels=[0], num_classes=1), [(255, 0, 0)]
        )
        with pytest.raises(MeshFormatError, match="3 color values, line 16"):
            parse_ply(text.replace("3 0 1 2 255 0 0", "3 0 1 2 255 0"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_names_its_line(self, value):
        with pytest.raises(MeshFormatError, match="non-finite vertex coordinate, line 11"):
            parse_ply(PLY_HEADER + f"0 0 0\n1 {value} 0\n0 1 0\n3 0 1 2\n")


def outcome(parse, *args):
    """A reader's arrays, or its error's type and message (which names the
    line)."""
    try:
        result = parse(*args)
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return type(exc), str(exc)
    if isinstance(result, LabelVec):
        return result.labels, result.num_classes
    mesh, colors = result if isinstance(result, tuple) else (result, None)
    return mesh.vertices, mesh.faces, colors


def label_outcome_oracle(text: str, count: int):
    """The outcome of ``parse_face_labels_oracle``, but for the one
    deliberate difference: where the oracle's int64 conversion overflows,
    the reader names the line of the first label beyond int64."""
    want = outcome(parse_face_labels_oracle, text, count)
    if want[0] is OverflowError:
        line = next(i for i, row in enumerate(text.split("\n"), start=1)
                    if row.strip() and int(row) > INT64_MAX)
        want = (MeshFormatError, f"label too large (above {INT64_MAX}), line {line}")
    return want


def assert_same_outcome(got, want):
    assert type(got) is type(want) and len(got) == len(want), (got, want)
    if isinstance(got[0], type):
        assert got == want
        return
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.dtype == b.dtype
            # equal bits, so -0.0 and 0.0 differ
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))
            assert a.shape == b.shape
        else:
            assert a == b


def coordinate_text(rng, x: float) -> str:
    return [repr, "{:.9g}".format, "{:.3e}".format, "{:+.5f}".format][rng.integers(4)](x)


def record_rows(rng, rows: list[list[str]], extras: list[str]) -> list[list[str]]:
    """Rows with no extra tokens, the same extras on every row, or extras on
    some rows only."""
    kind = rng.integers(3)
    if kind == 0:
        return rows
    if kind == 1:
        extra = extras[rng.integers(len(extras))]
        return [row + extra.split() for row in rows]
    return [row + (extras[rng.integers(len(extras))].split() if rng.random() < 0.5 else [])
            for row in rows]


def join_rows(rng, rows: list[list[str]]) -> list[str]:
    seps = [" ", "  ", "\t", " \t "]
    return [seps[rng.integers(len(seps))].join(row) for row in rows]


def sprinkle(rng, lines: list[str], comment: bool) -> list[str]:
    """Blank, whitespace-only and (for OFF) comment lines between records,
    and some lines indented or ending in a carriage return."""
    out = []
    for line in lines:
        while rng.random() < 0.1:
            choice = rng.integers(3 if comment else 2)
            out.append(["", " \t ", "# comment 1 2 3"][choice])
        out.append([line, f"  {line}", f"{line}\r", f"{line} "][rng.integers(4)])
    return out


def random_off(rng, mesh: Mesh) -> str:
    n, m = mesh.num_vertices, mesh.num_faces
    coordinates = [[coordinate_text(rng, x) for x in v] for v in mesh.vertices.tolist()]
    vertices = record_rows(rng, coordinates, ["1", "0.5 0.25 1", "255 0 0 255", "abc"])
    faces = record_rows(rng, [["3", *map(str, f)] for f in mesh.faces.tolist()],
                        ["255 0 0", "7", "x y"])
    edges = int(rng.integers(0, 3 * m))
    header = ["OFF", f"{n} {m} {edges}"] if rng.random() < 0.5 else [f"OFF {n} {m} {edges}"]
    lines = header + join_rows(rng, vertices) + join_rows(rng, faces)
    lines = ["# leading comment"] * int(rng.integers(2)) + sprinkle(rng, lines, True)
    return "\n".join(lines) + "\n"


def random_ply(rng, mesh: Mesh, colors: bool) -> str:
    n, m = mesh.num_vertices, mesh.num_faces
    normals = rng.random() < 0.5
    header = ["ply", "format ascii 1.0", "comment made by a test", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    header += ["property float nx", "property float ny", "property float nz"] * normals
    header += [f"element face {m}", "property list uchar int vertex_indices"]
    header += ["property uchar red", "property uchar green", "property uchar blue"] * colors
    header += ["element edge 1", "property int vertex1", "property int vertex2", "end_header"]
    vertices = [[coordinate_text(rng, x) for x in v] for v in mesh.vertices.tolist()]
    if normals:
        vertices = [row + ["0", "0", "1"] for row in vertices]
    faces = [["3", *map(str, f)] for f in mesh.faces.tolist()]
    if colors:
        faces = [row + [str(c) for c in rng.integers(0, 256, size=3)] for row in faces]
    body = join_rows(rng, vertices) + join_rows(rng, faces) + ["0 1"]
    return "\n".join(header + sprinkle(rng, body, False)) + "\n"


def random_labels(rng, count: int) -> str:
    lines = [str(v) for v in rng.integers(0, 12, size=count)]
    lines = [[line, f"+{line}", f" {line}", f"0{line}"][rng.integers(4)] for line in lines]
    return "\n".join(sprinkle(rng, lines, False)) + "\n" * int(rng.integers(3))


def damage(rng, text: str, bad_tokens: list[str], first_line: int) -> str:
    """``text`` with one token of a record at or after ``first_line``
    replaced by a bad one, or dropped."""
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if i >= first_line and line.split()]
    i = candidates[rng.integers(len(candidates))]
    tokens = lines[i].split()
    j = int(rng.integers(len(tokens)))
    if rng.random() < 0.2:
        del tokens[j]
    else:
        tokens[j] = bad_tokens[rng.integers(len(bad_tokens))]
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


BAD_TOKENS = ["1.2.3", "nan", "-inf", "inf", "1e999", "x", "0x1", "1.0", "4", "2", "-1", "+5",
              "1_0", "99999999999999999999", "255", "0", "\u0663"]


def fuzz(rng, text: str) -> str:
    chars = list(text)
    alphabet = list("0123456789 -+.\nOFPLYxyz#e_")
    for _ in range(rng.integers(1, 6)):
        chars[rng.integers(len(chars))] = alphabet[rng.integers(len(alphabet))]
    return "".join(chars)


class TestBlockReadersMatchRecordLoops:
    """The block-converting readers against the per-record loops they
    replaced: equal arrays for valid files, and the same error, message and
    line for malformed ones."""

    def test_valid_off_files(self, rng):
        for _ in range(150):
            text = random_off(rng, random_hull_mesh(rng, int(rng.integers(4, 30))))
            got = outcome(parse_off, text)
            assert not isinstance(got[0], type), (got, text)
            assert_same_outcome(got, outcome(parse_off_oracle, text))

    @pytest.mark.parametrize("colors", [True, False])
    def test_valid_ply_files(self, rng, colors):
        for _ in range(100):
            text = random_ply(rng, random_hull_mesh(rng, int(rng.integers(4, 30))), colors)
            got = outcome(parse_ply, text)
            assert not isinstance(got[0], type), (got, text)
            assert (got[2] is not None) == colors
            assert_same_outcome(got, outcome(parse_ply_oracle, text))

    def test_valid_label_files(self, rng):
        for _ in range(150):
            count = int(rng.integers(1, 40))
            text = random_labels(rng, count)
            got = outcome(parse_face_labels, text, count)
            assert not isinstance(got[0], type), (got, text)
            assert_same_outcome(got, label_outcome_oracle(text, count))

    def test_damaged_records(self, rng):
        errors = set()
        for _ in range(300):
            mesh = random_hull_mesh(rng, int(rng.integers(4, 12)))
            count = mesh.num_faces
            cases = [
                (parse_off, parse_off_oracle, damage(rng, random_off(rng, mesh), BAD_TOKENS, 2)),
                (parse_ply, parse_ply_oracle,
                 damage(rng, random_ply(rng, mesh, bool(rng.integers(2))), BAD_TOKENS, 14)),
            ]
            for parse, oracle, text in cases:
                want = outcome(oracle, text)
                assert_same_outcome(outcome(parse, text), want)
                errors.add(want[1] if isinstance(want[0], type) else None)
            labels = damage(rng, random_labels(rng, count), BAD_TOKENS + ["1 2"], 0)
            want = label_outcome_oracle(labels, count)
            assert_same_outcome(outcome(parse_face_labels, labels, count), want)
            errors.add(want[1] if isinstance(want[0], type) else None)
        messages = {e.split(", line")[0] for e in errors if e}
        # every record check fired at least once
        for message in ("bad vertex coordinate", "non-finite vertex coordinate",
                        "vertex record needs 3 coordinates", "bad face record",
                        "non-triangular face (arity 4)", "face record needs 3 indices",
                        "index out of range", "face record needs 3 color values",
                        "negative label -1", "non-integer label '1 2'",
                        f"label too large (above {INT64_MAX})"):
            assert message in messages, sorted(messages)

    def test_fuzzed_files(self, rng):
        mesh = random_hull_mesh(rng, 6)
        for _ in range(300):
            off = fuzz(rng, random_off(rng, mesh))
            assert_same_outcome(outcome(parse_off, off), outcome(parse_off_oracle, off))
            ply = fuzz(rng, random_ply(rng, mesh, True))
            assert_same_outcome(outcome(parse_ply, ply), outcome(parse_ply_oracle, ply))
            labels = fuzz(rng, random_labels(rng, 8))
            assert_same_outcome(outcome(parse_face_labels, labels, 8),
                                label_outcome_oracle(labels, 8))

    def test_first_of_two_bad_rows_is_named(self):
        text = TETRA_OFF.replace("1 0 0", "1 x 0").replace("3 1 2 3", "3 1 2 9")
        for parse in (parse_off, parse_off_oracle):
            with pytest.raises(MeshFormatError, match="bad vertex coordinate, line 4"):
                parse(text)
        text = TETRA_OFF.replace("3 0 1 3", "3 0 1 9").replace("3 1 2 3", "4 1 2 3")
        for parse in (parse_off, parse_off_oracle):
            with pytest.raises(MeshFormatError, match="index out of range, line 8"):
                parse(text)

    def test_written_ply_equals_the_oracles_bytes(self, rng):
        for _ in range(50):
            mesh = random_hull_mesh(rng, int(rng.integers(4, 40)))
            vertices = mesh.vertices.copy()
            # negative zeros, and values at the edge of 9 digits
            vertices[rng.random(vertices.shape) < 0.2] = -0.0
            vertices[rng.random(vertices.shape) < 0.2] *= 1e-12
            vertices[0, 0] = -0.0
            mesh = Mesh(vertices=vertices, faces=mesh.faces)
            num_classes = int(rng.integers(1, 12))
            # a negative label, such as the pad label -1, is black
            labels = rng.integers(-3, num_classes, size=mesh.num_faces)
            labels[0] = -1
            labels = LabelVec(labels=labels, num_classes=num_classes)
            palette = [tuple(rgb) for rgb in rng.integers(1, 256, (num_classes + 2, 3)).tolist()]
            got = write_ply_colored(mesh, labels, palette)
            assert got == write_ply_colored_oracle(mesh, labels, palette)
            assert "end_header\n-0 " in got and " 0 0 0\n" in got


class TestMergeDuplicateVertices:
    def test_coincident_pair_merged(self):
        mesh = Mesh(
            vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]],
            faces=[[0, 1, 2], [3, 4, 2]],
        )
        merged = merge_duplicate_vertices(mesh, eps=0.0)
        assert merged.num_vertices == 4
        assert merged.num_faces == 2

    def test_identity_on_distinct_vertices(self):
        mesh = tetrahedron()
        merged = merge_duplicate_vertices(mesh, eps=0.0)
        np.testing.assert_array_equal(merged.vertices, mesh.vertices)
        np.testing.assert_array_equal(merged.faces, mesh.faces)

    def test_merge_creates_dual_edge(self):
        # two triangles along a duplicated edge: no shared vertices before,
        # a shared dual-graph edge after merging
        mesh = Mesh(
            vertices=[
                [0, 0, 0], [1, 0, 0], [0, 1, 0],
                [1, 1e-12, 0], [0, 1, 1e-12], [1, 1, 0],
            ],
            faces=[[0, 1, 2], [3, 5, 4]],
        )
        before = build_dual_adjacency(mesh)
        assert before.pairs.size == 0
        merged = merge_duplicate_vertices(mesh, eps=1e-9)
        after = build_dual_adjacency(merged)
        assert after.pairs.tolist() == [[0, 1]]

    def test_degenerate_faces_dropped_and_mask_returned(self):
        mesh = Mesh(
            vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1e-12]],
            faces=[[0, 1, 2], [0, 1, 3]],
        )
        merged, mask = merge_duplicate_vertices(mesh, eps=1e-9, return_face_mask=True)
        assert merged.num_faces == 1
        assert mask.tolist() == [True, False]

    def test_idempotent(self, rng):
        verts = rng.normal(size=(10, 3))
        verts = np.vstack([verts, verts[:3] + 1e-12])
        mesh = Mesh(vertices=verts, faces=[[0, 1, 2], [10, 11, 12], [3, 4, 5]])
        once = merge_duplicate_vertices(mesh, eps=1e-9)
        twice = merge_duplicate_vertices(once, eps=1e-9)
        np.testing.assert_array_equal(once.vertices, twice.vertices)
        np.testing.assert_array_equal(once.faces, twice.faces)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            merge_duplicate_vertices(tetrahedron(), eps=-1.0)


def fan_mesh(vertices) -> Mesh:
    """Every vertex in one face with its two successors, so a merge drops
    and remaps faces."""
    n = len(vertices)
    faces = [[i, (i + 1) % n, (i + 2) % n] for i in range(n)]
    return Mesh(vertices=vertices, faces=faces)


def assert_merge_matches_oracle(mesh, eps):
    got, got_mask = merge_duplicate_vertices(mesh, eps, return_face_mask=True)
    want, want_mask = merge_duplicate_vertices_oracle(mesh, eps, return_face_mask=True)
    np.testing.assert_array_equal(got.vertices, want.vertices)
    np.testing.assert_array_equal(got.faces, want.faces)
    np.testing.assert_array_equal(got_mask, want_mask)
    return got


class TestMergeMatchesLoopOracle:
    """The numpy and pair-list merge against the per-vertex loops it replaced."""

    def test_pairs_at_exactly_eps(self):
        # exact binary fractions: 0.25 apart is within eps = 0.25, and
        # 0.25 + 2^-50 apart is not
        step = 0.25
        xs = [0.0, step, 2 * step, 3 * step + 2.0**-50, 10.0, 10.0 + step]
        vertices = np.array([[x, 0.0, 0.0] for x in xs] + [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        merged = assert_merge_matches_oracle(fan_mesh(vertices), step)
        # 1 goes to 0 and 5 to 4; 2's only partner is 1, which is merged
        # away, so 2 stays, and 3 is just out of reach of 2
        np.testing.assert_array_equal(merged.vertices[:4, 0], [0.0, 2 * step, 3 * step + 2.0**-50, 10.0])
        assert merged.num_vertices == 6

    def test_chain_of_near_duplicates(self):
        """Each link of the chain is within eps, its ends are not: a vertex
        goes to its lowest partner that was not merged itself."""
        eps = 1e-6
        xs = 0.6e-6 * np.arange(8)
        vertices = np.vstack([np.column_stack([xs, np.zeros(8), np.zeros(8)]),
                              [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        rng = np.random.default_rng(5)
        for order in [np.arange(10)] + [rng.permutation(10) for _ in range(20)]:
            assert_merge_matches_oracle(fan_mesh(vertices[order]), eps)

    def test_random_clusters_of_near_duplicates(self, rng):
        for _ in range(30):
            base = rng.normal(size=(int(rng.integers(3, 20)), 3))
            copies = base[rng.integers(0, len(base), size=int(rng.integers(1, 30)))]
            copies = copies + rng.uniform(-1, 1, size=copies.shape) * 1e-9
            vertices = rng.permutation(np.vstack([base, copies]))
            for eps in (1e-9, 2e-9, 1e-3):
                assert_merge_matches_oracle(fan_mesh(vertices), eps)

    def test_exact_merge_keeps_signed_zeros_and_nan_bit_patterns(self):
        nan = np.float64("nan")
        other_nan = np.frombuffer(
            (np.array([nan]).view(np.uint64) | np.uint64(1)).tobytes(), dtype=np.float64
        )[0]
        vertices = np.array([
            [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
            [nan, 0.0, 0.0], [nan, 0.0, 0.0], [other_nan, 0.0, 0.0], [5.0, 5.0, 5.0],
        ])
        merged = assert_merge_matches_oracle(fan_mesh(vertices), 0.0)
        assert merged.num_vertices == 5


class TestMeshInvariants:
    def test_face_index_out_of_range(self):
        with pytest.raises(MeshFormatError):
            Mesh(vertices=[[0, 0, 0]], faces=[[0, 0, 1]])

    def test_repeated_index_rejected(self):
        with pytest.raises(MeshFormatError):
            Mesh(vertices=np.eye(3), faces=[[0, 1, 1]])

    def test_fuzz_parsers_never_return_invalid_mesh(self, rng):
        """Random mutations of a valid OFF either parse to a valid Mesh or
        raise MeshFormatError — never an invalid Mesh or another error."""
        base = TETRA_OFF
        alphabet = list("0123456789 -.\nOFxyz#")
        for _ in range(300):
            chars = list(base)
            for _ in range(rng.integers(1, 6)):
                pos = rng.integers(0, len(chars))
                chars[pos] = alphabet[rng.integers(0, len(alphabet))]
            text = "".join(chars)
            try:
                mesh = parse_off(text)
            except MeshFormatError:
                continue
            assert mesh.faces.min(initial=0) >= 0
            if mesh.num_faces:
                assert mesh.faces.max() < mesh.num_vertices

    def test_icosphere_generator_is_closed(self):
        counts = shared_edge_count(icosphere(1))
        assert all(c == 2 for c in counts.values())
