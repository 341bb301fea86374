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
from loop_oracles import merge_duplicate_vertices_oracle

TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"

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
