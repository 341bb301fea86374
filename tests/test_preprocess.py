"""Normals, standardization, padding, the full sample pipeline, and the
sample container round trip."""

import logging
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from meshseg import clustering, preprocess, spectral
from meshseg.errors import DegenerateGeometryError
from meshseg.mesh_io import LabelVec, Mesh
from meshseg.preprocess import (
    COORD_COLS,
    NORMAL_COLS,
    PAD_LABEL,
    SPECTRAL_COLS,
    PreprocessConfig,
    _transfer_labels,
    build_sample,
    load_sample,
    normals_and_areas,
    pad_sample,
    save_sample,
    standardize_coords,
    triangle_centroids,
)
from meshseg.simplify import simplify_qem

from conftest import (
    bumpy_sphere_mesh,
    hemisphere_labeled_sphere,
    icosphere,
    one_hot,
    random_hull_mesh,
    sample_area_weights,
    seven_vertex_torus,
    tetrahedron,
    transfer_labels_oracle,
)
from loop_oracles import (
    build_dual_adjacency_oracle,
    laplacian_positional_features_oracle,
    merge_duplicate_vertices_oracle,
    normalized_laplacian_oracle,
    ward_constrained_oracle,
)


def tiny_config(**overrides):
    base = dict(
        target_vertices=1200,
        target_faces=8,
        eigen_count=2,
        clustering_lambda=2.0,
        simplify=False,
    )
    base.update(overrides)
    return PreprocessConfig(**base)


def tetra_sample(target_faces=8):
    labels = LabelVec(labels=[0, 0, 1, 1], num_classes=2)
    return build_sample(tetrahedron(), labels, tiny_config(target_faces=target_faces))


class TestComputeNormals:
    def test_unit_z(self):
        mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], faces=[[0, 1, 2]])
        np.testing.assert_allclose(normals_and_areas(mesh)[0], [[0, 0, 1]], atol=1e-12)

    def test_winding_flip_negates(self):
        mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], faces=[[0, 2, 1]])
        np.testing.assert_allclose(normals_and_areas(mesh)[0], [[0, 0, -1]], atol=1e-12)

    def test_collinear_vertices_error_names_face(self):
        mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [2, 0, 0]], faces=[[0, 1, 2]])
        with pytest.raises(DegenerateGeometryError, match="zero-area face 0"):
            normals_and_areas(mesh)


class TestStandardizeCoords:
    def test_longest_axis_mapped(self):
        out = standardize_coords(np.array([[0, 0, 0], [10, 0, 0], [5, 1, 0]], dtype=float))
        assert out[:, 0].min() == -1.0
        assert out[:, 0].max() == 1.0

    def test_near_identity_when_already_standard(self):
        points = np.array([[-1, -0.5, 0], [1, -0.5, 0], [0, 0.5, 0]], dtype=float)
        np.testing.assert_allclose(standardize_coords(points), points, atol=1e-12)

    def test_cube_by_hand(self):
        corners = np.array(
            [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)], dtype=float
        )
        np.testing.assert_allclose(standardize_coords(corners), corners - 1.0, atol=1e-12)

    def test_in_unit_box_with_touching_extreme(self, rng):
        out = standardize_coords(rng.normal(size=(12, 3)) * 7 + 3)
        assert np.abs(out).max() <= 1.0 + 1e-12
        assert np.isclose(np.abs(out).max(), 1.0)

    def test_degenerate_box(self):
        with pytest.raises(DegenerateGeometryError):
            standardize_coords(np.zeros((3, 3)))


class TestPadSample:
    def test_pad_by_two(self):
        sample = tetra_sample(target_faces=6)
        assert sample.n_total == 6
        assert sample.n_real == 4
        pad = ~sample.real_mask
        np.testing.assert_array_equal(sample.features[pad], 0)
        np.testing.assert_array_equal(sample.labels[pad], PAD_LABEL)
        np.testing.assert_array_equal(sample.areas[pad], 0)
        assert (sample.cluster_ids[pad] == sample.num_clusters).all()
        # adjacency stays the 4x4 block
        assert sample.adjacency.pairs.max() < 4

    def test_identity_at_equal_target(self):
        sample = tetra_sample(target_faces=4)
        assert pad_sample(sample, 4) is sample

    def test_target_below_n_rejected(self):
        sample = tetra_sample(target_faces=4)
        with pytest.raises(ValueError):
            pad_sample(sample, 3)

    def test_real_data_preserved_bit_exactly(self):
        sample = tetra_sample(target_faces=4)
        padded = pad_sample(sample, 10)
        np.testing.assert_array_equal(padded.features[:4], sample.features)
        np.testing.assert_array_equal(padded.labels[:4], sample.labels)
        np.testing.assert_array_equal(padded.areas[:4], sample.areas)
        np.testing.assert_array_equal(padded.cluster_ids[:4], sample.cluster_ids)
        np.testing.assert_array_equal(padded.adjacency.pairs, sample.adjacency.pairs)

    def test_cluster_one_hot_gains_padding_column(self):
        sample = tetra_sample(target_faces=6)
        j = one_hot(sample.cluster_ids, sample.num_clusters + 1)
        assert j.shape == (6, sample.num_clusters + 1)
        np.testing.assert_array_equal(j.sum(axis=1), 1.0)
        np.testing.assert_array_equal(j[4:, sample.num_clusters], 1.0)


class TestBuildSample:
    def test_tetrahedron_feature_shape(self):
        sample = tetra_sample(target_faces=4)
        assert sample.features.shape == (4, 14)  # 12 + E with E=2
        sample.validate()

    def test_feature_layout(self):
        sample = tetra_sample(target_faces=4)
        coords = sample.features[:, COORD_COLS]
        normals = sample.features[:, NORMAL_COLS]
        assert np.abs(coords).max() <= 1.0 + 1e-12
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)
        assert sample.features[:, SPECTRAL_COLS].shape == (4, 2)

    def test_invariants_on_padded_sphere(self):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=1)
        cfg = PreprocessConfig(
            target_faces=100, eigen_count=4, clustering_lambda=8, simplify=False
        )
        sample = build_sample(mesh, labels, cfg)
        sample.validate()
        assert sample.n_total == 100
        assert sample.n_real == 80
        assert sample.num_classes == 2
        # area weights sum to 1 over real faces
        np.testing.assert_allclose(sample_area_weights(sample).sum(), 1.0, atol=1e-12)

    def test_unlabeled_mesh(self):
        sample = build_sample(tetrahedron(), None, tiny_config(target_faces=4))
        assert sample.num_classes == 0
        assert (sample.labels == PAD_LABEL).all()

    def test_too_many_faces_rejected(self):
        with pytest.raises(ValueError, match="target_faces"):
            build_sample(tetrahedron(), None, tiny_config(target_faces=2))

    def test_label_length_mismatch(self):
        labels = LabelVec(labels=[0, 1], num_classes=2)
        with pytest.raises(ValueError, match="label count"):
            build_sample(tetrahedron(), labels, tiny_config())

    def test_simplification_with_label_transfer(self):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=2)  # 162 verts
        cfg = PreprocessConfig(
            target_vertices=42,
            target_faces=400,
            eigen_count=4,
            clustering_lambda=8,
            simplify=True,
        )
        sample = build_sample(mesh, labels, cfg)
        sample.validate()
        real = sample.real_mask
        labs = sample.labels[real]
        assert set(np.unique(labs)) <= {0, 1}
        # both hemispheres survive the transfer
        assert (labs == 0).any() and (labs == 1).any()
        # the label split should stay roughly hemispheric by area
        frac = sample.areas[real][labs == 1].sum() / sample.areas[real].sum()
        assert 0.3 < frac < 0.7

    def test_logs_stage_seconds_and_qem_counts(self, caplog):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=2)  # 162 verts
        cfg = PreprocessConfig(target_vertices=42, target_faces=80, eigen_count=4,
                               clustering_lambda=8)
        with caplog.at_level(logging.INFO, logger="meshseg.preprocess"):
            build_sample(mesh, labels, cfg)
        (record,) = [r for r in caplog.records if r.levelno == logging.INFO]
        message = record.getMessage()
        assert message.startswith("build_sample: merge ")
        for stage in ("qem", "dual_graph", "spectral", "ward"):
            assert re.search(rf"\b{stage} \d+\.\d{{3}} s", message), stage
        assert message.endswith("qem 162 -> 42 vertices, reached True")

    def test_logs_skipped_qem(self, caplog):
        with caplog.at_level(logging.INFO, logger="meshseg.preprocess"):
            tetra_sample()
        (record,) = caplog.records
        assert "qem 0" not in record.getMessage()
        assert record.getMessage().endswith("qem 4 -> 4 vertices, reached skipped")

    def test_unreachable_target_warns(self, caplog):
        cfg = PreprocessConfig(target_vertices=4, target_faces=14, eigen_count=4,
                               clustering_lambda=4)
        with caplog.at_level(logging.INFO, logger="meshseg.preprocess"):
            sample = build_sample(seven_vertex_torus(), None, cfg)
        assert sample.n_real == 14
        warning, info = caplog.records
        assert warning.levelno == logging.WARNING
        assert warning.getMessage() == "simplification stalled at 7 vertices (target 4)"
        assert info.getMessage().endswith("qem 7 -> 7 vertices, reached False")

    def test_deterministic(self):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=1)
        cfg = PreprocessConfig(target_faces=90, eigen_count=4, simplify=False)
        a = build_sample(mesh, labels, cfg)
        b = build_sample(mesh, labels, cfg)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.cluster_ids, b.cluster_ids)

    def test_diagnostics(self):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=2)  # 162 verts
        cfg = PreprocessConfig(target_vertices=42, target_faces=90, eigen_count=4,
                               clustering_lambda=8)
        sample = build_sample(mesh, labels, cfg)
        d = sample.diagnostics
        assert (d["qem_input_vertices"], d["qem_output_vertices"], d["qem_reached"]) == (
            162, 42, True)
        assert d["dual_graph_components"] == 1
        assert 0 <= d["eigen_residual"] < 1e-8
        sizes = np.bincount(sample.cluster_ids[sample.real_mask])
        assert (d["cluster_size_min"], d["cluster_size_median"], d["cluster_size_max"]) == (
            sizes.min(), np.median(sizes), sizes.max())
        assert tetra_sample().diagnostics["qem_reached"] is None

    def test_diagnostics_of_a_split_mesh(self):
        """Two disjoint tetrahedra: two dual-graph components."""
        tet = tetrahedron()
        mesh = Mesh(vertices=np.vstack([tet.vertices, tet.vertices + 5.0]),
                    faces=np.vstack([tet.faces, tet.faces + 4]))
        sample = build_sample(mesh, None, tiny_config(target_faces=8))
        assert sample.diagnostics["dual_graph_components"] == 2


def seamed_bumpy_sphere():
    """5,120 faces with three labels. The faces above the equator use
    copies of their corners moved by at most 1e-10, so the merge stitches a
    seam and the copies no face of its own uses merge into their originals."""
    rng = np.random.default_rng(13)
    mesh = bumpy_sphere_mesh(rng, 2562, 0.1)
    v, faces = mesh.vertices, mesh.faces.copy()
    centroids = v[faces].mean(axis=1)
    upper = centroids[:, 2] > 0
    faces[upper] += len(v)
    vertices = np.vstack([v, v + rng.uniform(-1e-10, 1e-10, size=v.shape)])
    angle = np.arctan2(centroids[:, 1], centroids[:, 0]) + np.pi
    labels = np.minimum((angle / (2 * np.pi / 3)).astype(np.int64), 2)
    return Mesh(vertices=vertices, faces=faces), LabelVec(labels=labels, num_classes=3)


def test_pipeline_matches_loop_oracles(monkeypatch):
    """build_sample with the default config on a 5k-face mesh, and again
    with the replaced merge, dual-graph and Ward loops patched in: the same
    sample, array for array. (QEM's oracle in qem_oracle.py solves with
    numpy's 4 x 4 products, so its positions differ in the last bits; the
    QEM parity tests compare its collapses instead.)"""
    mesh, labels = seamed_bumpy_sphere()
    cfg = PreprocessConfig()
    got = build_sample(mesh, labels, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(preprocess, "merge_duplicate_vertices", merge_duplicate_vertices_oracle)
        patch.setattr(spectral, "build_dual_adjacency", build_dual_adjacency_oracle)
        patch.setattr(clustering, "ward_constrained", ward_constrained_oracle)
        want = build_sample(mesh, labels, cfg)
    assert got.diagnostics["qem_input_vertices"] == 2562
    assert got.diagnostics["qem_reached"]
    for name in ("features", "cluster_ids", "labels", "areas", "real_mask"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_array_equal(got.adjacency.pairs, want.adjacency.pairs)
    assert got.diagnostics == want.diagnostics


def test_pipeline_spectral_matches_the_retry_loop(monkeypatch):
    """The default pipeline's features on a 5k-face mesh equal those of the
    COO Laplacian and the grow-and-retry eigensolve it replaced."""
    mesh, labels = seamed_bumpy_sphere()
    cfg = PreprocessConfig()
    got = build_sample(mesh, labels, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "laplacian_positional_features",
                      lambda adj, count: laplacian_positional_features_oracle(
                          normalized_laplacian_oracle(adj), count))
        want = build_sample(mesh, labels, cfg)
    np.testing.assert_array_equal(got.features, want.features)
    assert got.diagnostics == want.diagnostics


class TestTransferLabels:
    """The counting-pass label transfer against the per-face bucket oracle."""

    def test_random_hulls_match_oracle_with_forced_tie(self, rng):
        for _ in range(40):
            mesh = random_hull_mesh(rng, int(rng.integers(20, 81)))
            simplified, _ = simplify_qem(mesh, int(rng.integers(6, mesh.num_vertices)))
            labels = rng.integers(0, 4, size=mesh.num_faces)
            # the simplified face with the most sources gets sources of
            # classes 3 and 1 in equal number (and one 2 when odd)
            _, nearest = cKDTree(triangle_centroids(simplified)).query(
                triangle_centroids(mesh)
            )
            tied = int(np.bincount(nearest).argmax())
            sources = np.flatnonzero(nearest == tied)
            assert sources.size >= 2
            labels[sources] = np.resize([3, 1], sources.size)
            if sources.size % 2:
                labels[sources[-1]] = 2
            out = _transfer_labels(mesh, labels, simplified)
            expected = transfer_labels_oracle(mesh, labels, simplified)
            assert out.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(out, expected)
            assert out[tied] == 1

    def test_orphan_face_takes_nearest_original_label(self):
        mesh = tetrahedron()
        far = np.array([[10.0, 0, 0], [11.0, 0, 0], [10.0, 1.0, 0]])
        simplified = Mesh(
            vertices=np.vstack([mesh.vertices, far]),
            faces=np.vstack([mesh.faces, [[4, 5, 6]]]),
        )
        labels = np.array([2, 0, 1, 3])
        out = _transfer_labels(mesh, labels, simplified)
        np.testing.assert_array_equal(out, transfer_labels_oracle(mesh, labels, simplified))
        gap = np.linalg.norm(triangle_centroids(mesh) - far.mean(axis=0), axis=1)
        assert out[4] == labels[gap.argmin()]

    def test_sparse_class_ids_count_only_the_classes_present(self):
        """Class ids are raw dataset ids; a large one costs one count
        column, not one per id below it."""
        mesh = tetrahedron()
        labels = np.array([7, 10**12, 10**12, 7])
        out = _transfer_labels(mesh, labels, mesh)
        np.testing.assert_array_equal(out, labels)

    def test_negative_label_rejected(self):
        mesh = tetrahedron()
        labels = np.array([0, -1, 1, 0])
        for transfer in (_transfer_labels, transfer_labels_oracle):
            with pytest.raises(ValueError):
                transfer(mesh, labels, mesh)


class TestSampleMesh:
    def padded_sphere(self):
        mesh, _ = hemisphere_labeled_sphere(subdivisions=1, jitter=0.02)
        cfg = PreprocessConfig(target_faces=100, eigen_count=4, simplify=False)
        return mesh, build_sample(mesh, None, cfg)

    def test_padded_sample_yields_real_faces(self):
        mesh, sample = self.padded_sphere()
        decoded = sample.mesh()
        expected = standardize_coords(mesh.vertices)
        assert sample.n_total == 100
        assert decoded.num_faces == sample.n_real == 80
        assert decoded.num_vertices == mesh.num_vertices
        np.testing.assert_array_equal(decoded.vertices[decoded.faces], expected[mesh.faces])

    def test_augmented_sample_yields_augmented_geometry(self):
        from meshseg.train import augment

        _, sample = self.padded_sphere()
        moved = augment(sample, np.random.default_rng(3))
        decoded = moved.mesh()
        np.testing.assert_array_equal(decoded.faces, sample.mesh().faces)
        np.testing.assert_array_equal(
            decoded.vertices[decoded.faces].reshape(-1, 9),
            moved.features[moved.real_mask, COORD_COLS],
        )
        assert not np.allclose(decoded.vertices, sample.mesh().vertices)


class TestTriangleAreas:
    def test_right_triangle(self):
        mesh = Mesh(vertices=[[0, 0, 0], [2, 0, 0], [0, 2, 0]], faces=[[0, 1, 2]])
        np.testing.assert_allclose(normals_and_areas(mesh)[1], [2.0])


class TestSampleSerialization:
    def test_round_trip(self, tmp_path):
        sample = tetra_sample(target_faces=6)
        path = tmp_path / "t.sample"
        save_sample(sample, path)
        back = load_sample(path)
        np.testing.assert_array_equal(back.features, sample.features)
        np.testing.assert_array_equal(back.adjacency.pairs, sample.adjacency.pairs)
        np.testing.assert_array_equal(back.cluster_ids, sample.cluster_ids)
        np.testing.assert_array_equal(back.labels, sample.labels)
        np.testing.assert_array_equal(back.areas, sample.areas)
        np.testing.assert_array_equal(back.real_mask, sample.real_mask)
        assert back.num_clusters == sample.num_clusters
        assert back.num_classes == sample.num_classes
        assert back.eigen_count == sample.eigen_count
        assert back.config == sample.config
        assert back.diagnostics == sample.diagnostics
        back.validate()

    def test_file_without_diagnostics_loads_none(self, tmp_path):
        import dataclasses

        sample = tetra_sample(target_faces=6)
        path = tmp_path / "t.sample"
        save_sample(dataclasses.replace(sample, diagnostics=None), path)
        back = load_sample(path)
        assert back.diagnostics is None

    def test_saves_are_byte_identical(self, tmp_path, monkeypatch):
        """Two saves an hour apart on the clock write the same bytes, for a
        sample and for a checkpoint."""
        import time

        from meshseg.model import init_params, save_checkpoint

        from conftest import small_model_config

        sample = tetra_sample(target_faces=6)
        cfg = small_model_config()
        params = init_params(cfg, np.random.default_rng(0))
        now = time.time()
        for hours, folder in ((0, "a"), (1, "b")):
            monkeypatch.setattr(time, "time", lambda: now + 3600 * hours)
            (tmp_path / folder).mkdir()
            save_sample(sample, tmp_path / folder / "t.sample")
            save_checkpoint(tmp_path / folder / "m.ckpt", params, cfg)
        for name in ("t.sample", "m.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        import json
        import zipfile

        sample = tetra_sample(target_faces=6)
        path = tmp_path / "t.sample"
        save_sample(sample, path)
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
            manifest = json.loads(zf.read("manifest.json"))
        assert {"T.npy", "A.npy", "cluster_ids.npy", "labels.npy", "areas.npy",
                "mask.npy", "manifest.json"} <= names
        assert manifest["format_version"] == 2
        assert manifest["arrays"]["cluster_ids"] == {"shape": [6], "dtype": "int64"}
        assert manifest["n_total"] == 6
        assert manifest["has_padding"] is True
        assert manifest["arrays"]["T"]["shape"] == [6, 14]

    def test_unknown_version_rejected(self, tmp_path):
        import json
        import zipfile

        sample = tetra_sample(target_faces=4)
        path = tmp_path / "t.sample"
        save_sample(sample, path)
        # tamper with the version
        with zipfile.ZipFile(path) as zf:
            payload = {name: zf.read(name) for name in zf.namelist()}
        manifest = json.loads(payload["manifest.json"])
        manifest["format_version"] = 99
        payload["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in payload.items():
                zf.writestr(name, blob)
        with pytest.raises(ValueError, match="format version"):
            load_sample(path)

    def test_version_1_rejected_by_name(self, tmp_path):
        import io
        import json
        import zipfile

        from meshseg.errors import SampleFormatError

        sample = tetra_sample(target_faces=6)
        path = tmp_path / "t.sample"
        save_sample(sample, path)
        # rewrite as version 1: one-hot J.npy in place of cluster_ids.npy
        with zipfile.ZipFile(path) as zf:
            payload = {name: zf.read(name) for name in zf.namelist()}
        manifest = json.loads(payload.pop("manifest.json"))
        manifest["format_version"] = 1
        payload.pop("cluster_ids.npy")
        buf = io.BytesIO()
        np.save(buf, one_hot(sample.cluster_ids, sample.num_clusters + 1).astype(np.uint8))
        payload["J.npy"] = buf.getvalue()
        payload["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in payload.items():
                zf.writestr(name, blob)
        with pytest.raises(SampleFormatError, match="format version 1"):
            load_sample(path)
