"""End-to-end CLI flows on a tiny synthetic dataset."""

import dataclasses
import io
import json
import re
from dataclasses import replace

import click
import numpy as np
import pytest
from click.testing import CliRunner

from meshseg import cli
from meshseg import data as datamod
from meshseg import preprocess, simplify, spectral
from meshseg import train as trainmod
from meshseg.cli import main
from meshseg.errors import EigensolverError
from meshseg.mesh_io import merge_duplicate_vertices, parse_ply
from meshseg.model import ModelConfig, init_params, save_checkpoint
from meshseg.preprocess import PreprocessConfig, build_sample, load_sample

from conftest import hemisphere_labeled_sphere, tetrahedron


def off_text(mesh):
    lines = ["OFF", f"{mesh.num_vertices} {mesh.num_faces} 0"]
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
    return "\n".join(lines) + "\n"


def ply_text(mesh, rng):
    """ASCII PLY of the mesh at full precision, with random face colors."""
    lines = ["ply", "format ascii 1.0", f"element vertex {mesh.num_vertices}",
             "property double x", "property double y", "property double z",
             f"element face {mesh.num_faces}", "property list uchar int vertex_indices",
             "property uchar red", "property uchar green", "property uchar blue", "end_header"]
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}"
              for f, (r, g, b) in zip(mesh.faces, rng.integers(0, 256, (mesh.num_faces, 3)))]
    return "\n".join(lines) + "\n"


@pytest.fixture
def dataset_dir(tmp_path):
    root = tmp_path / "data"
    (root / "shapes").mkdir(parents=True)
    (root / "labels").mkdir()
    for i in range(3):
        mesh, labels = hemisphere_labeled_sphere(subdivisions=0, jitter=0.02, seed=i)
        (root / "shapes" / f"sphere{i}.off").write_text(off_text(mesh))
        (root / "labels" / f"sphere{i}.txt").write_text(
            "\n".join(str(int(l)) for l in labels.labels) + "\n"
        )
    return root


PREPROCESS_FLAGS = [
    "--no-simplify", "--target-faces", "20", "--eigen-count", "4", "--lambda", "4",
]

TRAIN_FLAGS = [
    "--d-t", "16", "--d-p", "16", "--layers", "1", "--heads", "2",
    "--steps", "4", "--lr", "1e-3", "--batch-size", "2",
]


def run(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


class TestPreprocess:
    def test_writes_samples_and_summary(self, dataset_dir, tmp_path):
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 0, result.output
        files = sorted(p.name for p in out.glob("*.sample"))
        assert files == ["sphere0.sample", "sphere1.sample", "sphere2.sample"]
        assert "sphere0" in result.output
        sample = load_sample(out / "sphere0.sample")
        sample.validate()
        assert sample.n_real == 20
        assert sample.eigen_count == 4

    def test_ply_shapes_give_the_samples_of_their_off_twins(self, dataset_dir, tmp_path):
        """A dataset of colored PLY shapes with the vertices and faces of the
        OFF ones preprocesses to byte-identical samples."""
        ply_dir = tmp_path / "ply_data"
        (ply_dir / "shapes").mkdir(parents=True)
        (ply_dir / "labels").mkdir()
        rng = np.random.default_rng(0)
        for off_path in sorted((dataset_dir / "shapes").glob("*.off")):
            mesh = datamod.load_mesh_file(off_path)
            (ply_dir / "shapes" / f"{off_path.stem}.ply").write_text(ply_text(mesh, rng))
            label_path = dataset_dir / "labels" / f"{off_path.stem}.txt"
            (ply_dir / "labels" / label_path.name).write_text(label_path.read_text())
        for root, out in ((dataset_dir, tmp_path / "off_samples"),
                          (ply_dir, tmp_path / "ply_samples")):
            result = run(["preprocess", str(root), str(out), *PREPROCESS_FLAGS])
            assert result.exit_code == 0, result.output
        names = sorted(p.name for p in (tmp_path / "off_samples").glob("*.sample"))
        assert names == ["sphere0.sample", "sphere1.sample", "sphere2.sample"]
        assert sorted(p.name for p in (tmp_path / "ply_samples").glob("*.sample")) == names
        for name in names:
            assert ((tmp_path / "off_samples" / name).read_bytes()
                    == (tmp_path / "ply_samples" / name).read_bytes())

    def test_corrupt_file_exits_1_but_others_written(self, dataset_dir, tmp_path):
        (dataset_dir / "shapes" / "bad.off").write_text("OFF\n3 1 0\n0 0 0\n")
        (dataset_dir / "labels" / "bad.txt").write_text("0\n")
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 1
        assert len(list(out.glob("*.sample"))) == 3

    def test_rerun_bit_identical(self, dataset_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["preprocess", str(dataset_dir), str(out1), *PREPROCESS_FLAGS])
        run(["preprocess", str(dataset_dir), str(out2), *PREPROCESS_FLAGS])
        for p in sorted(out1.glob("*.sample")):
            a, b = load_sample(p), load_sample(out2 / p.name)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.cluster_ids, b.cluster_ids)

    def test_split_file(self, dataset_dir, tmp_path):
        split = tmp_path / "split.txt"
        split.write_text("sphere1\n")
        out = tmp_path / "samples"
        result = run(
            ["preprocess", str(dataset_dir), str(out), "--split", str(split),
             *PREPROCESS_FLAGS]
        )
        assert result.exit_code == 0
        assert [p.name for p in out.glob("*.sample")] == ["sphere1.sample"]

    def test_split_stem_without_mesh_exits_1(self, dataset_dir, tmp_path):
        split = tmp_path / "split.txt"
        split.write_text("sphere1\nsphere7\nsphere9\n")
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), "--split", str(split),
                      *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert result.output == (f"error: split stems with no mesh under "
                                 f"{dataset_dir / 'shapes'}: ['sphere7', 'sphere9']\n")
        assert not out.exists()

    def test_meshes_sharing_a_stem_exit_1_before_any_is_read(self, dataset_dir, tmp_path):
        """Each stem names one .sample file, so a second mesh of the stem
        would silently replace the first one's sample."""
        (dataset_dir / "shapes" / "sphere1.obj").write_text("not a mesh\n")
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert result.output == "error: mesh files share a stem: ['sphere1.obj', 'sphere1.off']\n"
        assert not out.exists()
        split = tmp_path / "split.txt"
        split.write_text("sphere0\n")
        result = run(["preprocess", str(dataset_dir), str(out), "--split", str(split),
                      *PREPROCESS_FLAGS])
        assert result.exit_code == 0, result.output
        assert [p.name for p in out.glob("*.sample")] == ["sphere0.sample"]

    def test_split_file_not_utf8_exits_1(self, dataset_dir, tmp_path):
        split = tmp_path / "split.txt"
        split.write_bytes(b"\xffsphere1\n")
        result = run(["preprocess", str(dataset_dir), str(tmp_path / "samples"),
                      "--split", str(split), *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: {split}: not a text file")
        assert len(result.output.splitlines()) == 1

    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        result = run(
            ["preprocess", str(dataset_dir), str(tmp_path / "out"),
             "--config", str(cfg)]
        )
        assert result.exit_code == 2
        assert "unknown config keys" in result.output

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON in "),
        ("[1, 2]", "config root must be an object, got list"),
    ], ids=["not-json", "list-root"])
    def test_malformed_config_exits_2(self, text, message, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result = run(["preprocess", str(dataset_dir), str(tmp_path / "out"), "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("option", ["--config", "--split"])
    def test_directory_for_a_file_option_exits_2(self, option, dataset_dir, tmp_path):
        result = run(["preprocess", str(dataset_dir), str(tmp_path / "out"),
                      option, str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert "is a directory" in result.output and "Traceback" not in result.output

    def test_dataset_without_pairs_exits_1(self, tmp_path):
        root = tmp_path / "data"
        (root / "shapes").mkdir(parents=True)
        result = run(["preprocess", str(root), str(tmp_path / "out"), *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: no mesh/label pairs found under {root}\n"

    def test_mesh_without_label_file_exits_1(self, dataset_dir, tmp_path):
        (dataset_dir / "labels" / "sphere1.txt").unlink()
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert result.output == "error: missing label file for sphere1.off\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "inspect"])
    def test_config_not_utf8_exits_2(self, command, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"target_faces": 20}\xff')
        target = dataset_dir if command == "preprocess" else dataset_dir / "shapes" / "sphere0.off"
        result = run([command, str(target), str(tmp_path / "out"), "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: config {cfg} is not UTF-8 text")
        assert len(result.output.splitlines()) == 1

    def test_eigensolver_failure_is_a_per_file_failure(self, dataset_dir, tmp_path,
                                                        monkeypatch):
        solve = spectral.smallest_eigenpairs
        calls = []

        def fail_first_mesh(lap, k, *args, **kwargs):
            calls.append(k)
            if len(calls) == 1:
                raise EigensolverError("injected failure")
            return solve(lap, k, *args, **kwargs)

        monkeypatch.setattr(spectral, "smallest_eigenpairs", fail_first_mesh)
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 1
        assert "sphere0" in result.output and "injected failure" in result.output
        assert sorted(p.name for p in out.glob("*.sample")) == [
            "sphere1.sample", "sphere2.sample"
        ]


@pytest.fixture
def samples_dir(dataset_dir, tmp_path):
    out = tmp_path / "samples"
    result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
    assert result.exit_code == 0
    return out


@pytest.fixture
def checkpoint(samples_dir, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    result = run(["train", str(samples_dir), str(ckpt), *TRAIN_FLAGS])
    assert result.exit_code == 0, result.output
    return ckpt


class TestTrainEval:
    def test_train_writes_checkpoint_and_metrics(self, samples_dir, checkpoint):
        assert checkpoint.exists()
        log = checkpoint.with_suffix(".metrics.jsonl")
        assert log.exists()
        records = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert records and {"step", "loss", "accuracy", "split"} <= set(records[0])

    def test_train_reports_final_metrics_json(self, samples_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        result = run(["train", str(samples_dir), str(ckpt), *TRAIN_FLAGS])
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["checkpoint"] == str(ckpt)
        assert "accuracy" in payload["final"]

    def test_eval_prints_metrics(self, samples_dir, checkpoint):
        result = run(["eval", str(samples_dir), str(checkpoint)])
        assert result.exit_code == 0, result.output
        metrics = json.loads(result.output)
        assert 0.0 <= metrics["area_accuracy"] <= 1.0
        assert set(metrics["per_class"]) == {"0", "1"}

    def test_eval_class_mismatch_names_both_counts(self, samples_dir, tmp_path):
        cfg = ModelConfig(num_classes=1, eigen_count=4, d_t=16, d_p=16,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, np.random.default_rng(0))
        ckpt = tmp_path / "one_class.ckpt"
        save_checkpoint(ckpt, params, cfg)
        result = run(["eval", str(samples_dir), str(ckpt)])
        assert result.exit_code == 2
        assert "2" in result.output and "1" in result.output
        # checked as the samples load, so the first file is the one named
        first = sorted(samples_dir.glob("*.sample"))[0]
        assert result.output == f"error: {first} has 2 classes, the model 1\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_sample_of_another_eigen_count_exits_2_naming_it(
            self, command, dataset_dir, samples_dir, untrained_checkpoint, tmp_path):
        """Checked against the first sample's eigen count (train) or the
        checkpoint's (eval) once the samples are loaded, not met as a
        feature width at the first forward of the odd sample."""
        other = tmp_path / "other"
        result = run(["preprocess", str(dataset_dir), str(other), *PREPROCESS_FLAGS,
                      "--eigen-count", "6"])
        assert result.exit_code == 0, result.output
        odd = samples_dir / "sphere1.sample"
        odd.write_bytes((other / "sphere1.sample").read_bytes())
        if command == "train":
            args = [str(tmp_path / "m.ckpt"), *TRAIN_FLAGS]
        else:
            args = [str(untrained_checkpoint)]
        result = run([command, str(samples_dir), *args])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {odd} has eigen count 6, the model 4\n"

    def test_ablation_recorded_in_manifest(self, samples_dir, tmp_path):
        import zipfile

        ckpt = tmp_path / "ablated.ckpt"
        result = run(
            ["train", str(samples_dir), str(ckpt), *TRAIN_FLAGS,
             "--ablate", "laplacian"]
        )
        assert result.exit_code == 0, result.output
        with zipfile.ZipFile(ckpt) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        assert manifest["config"]["use_laplacian"] is False

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_samples_dir_without_samples_exits_1(self, command, untrained_checkpoint,
                                                 tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        second = tmp_path / "m.ckpt" if command == "train" else untrained_checkpoint
        result = run([command, str(empty), str(second)])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: no .sample files under {empty}\n"

    def test_non_finite_loss_exits_3(self, samples_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(trainmod, "area_weights",
                            lambda areas, real_mask: np.full(len(areas), np.nan))
        ckpt = tmp_path / "m.ckpt"
        result = run(["train", str(samples_dir), str(ckpt), *TRAIN_FLAGS])
        assert result.exit_code == 3, result.output
        assert result.output == "error: non-finite loss at step 0\n"
        assert not ckpt.exists()


# flags, JSON config entries and the field the one-line error names
BAD_CONFIGS = {
    "heads-flag-0": (["--heads", "0"], {}, "num_heads"),
    "num_heads-0": ([], {"num_heads": 0}, "num_heads"),
    "d-t-flag-0": (["--d-t", "0"], {}, "d_t"),
    "eval_every-0": ([], {"eval_every": 0}, "eval_every"),
    "d_t-str": ([], {"d_t": "64"}, "d_t"),
    "num_layers-str": ([], {"num_layers": "2"}, "num_layers"),
    "batch_size-str": ([], {"batch_size": "2"}, "batch_size"),
    "dropout-str": ([], {"dropout": "0.1"}, "dropout"),
    "lr-str": ([], {"lr": "x"}, "lr"),
    # json.dumps writes this as the raw JSON extension NaN
    "lr-nan": ([], {"lr": float("nan")}, "lr"),
    # json.dumps writes this as a raw JSON integer of 401 digits
    "lr-int-too-large": ([], {"lr": 10**400}, "lr"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_train_config_out_of_range_exits_2(case, samples_dir, tmp_path):
    """A flag or JSON value of the wrong type or below its bound is a
    config error reported in one line, not a traceback."""
    flags, entries, name = BAD_CONFIGS[case]
    config = {"d_t": 16, "d_p": 16, "num_layers": 1, "num_heads": 2, "max_steps": 2,
              "lr": 1e-3, "batch_size": 2, **entries}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    result = run(["train", str(samples_dir), str(tmp_path / "m.ckpt"),
                  "--config", str(cfg_path), *flags])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {name} must be")
    assert len(result.output.splitlines()) == 1


# JSON config entries that preprocess, segment and inspect refuse as a
# config error, and the field the one-line error names
BAD_PREPROCESS_CONFIGS = {
    "target_faces-str": ({"target_faces": "20"}, "target_faces"),
    "clustering_lambda-str": ({"clustering_lambda": "4"}, "clustering_lambda"),
    "eigen_count-0": ({"eigen_count": 0}, "eigen_count"),
    "target_vertices-negative": ({"target_vertices": -5}, "target_vertices"),
    "clustering_lambda-infinite": ({"clustering_lambda": float("inf")}, "clustering_lambda"),
}


@pytest.mark.parametrize("case", sorted(BAD_PREPROCESS_CONFIGS))
@pytest.mark.parametrize("command", ["preprocess", "segment", "inspect"])
def test_preprocess_config_out_of_range_exits_2(command, case, dataset_dir, tmp_path,
                                                 request):
    """Checked once when the config is built, not as a data error per mesh."""
    entries, name = BAD_PREPROCESS_CONFIGS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"target_faces": 20, "eigen_count": 4, "clustering_lambda": 4, **entries}
    ))
    mesh_path = str(dataset_dir / "shapes" / "sphere0.off")
    if command == "preprocess":
        args = [str(dataset_dir), str(tmp_path / "out")]
    elif command == "segment":
        checkpoint = request.getfixturevalue("untrained_checkpoint")
        args = [mesh_path, str(checkpoint), str(tmp_path / "seg.ply")]
    else:
        args = [mesh_path, str(tmp_path / "out")]
    result = run([command, *args, "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {name} must be")
    assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("command, key", [
    ("train", "tc_sum"), ("preprocess", "cluster_on_features"), ("inspect", "cluster_on_features"),
    # constants now: train.SCALE_RANGE, train.TRANSLATION_RANGE, AdamW's default
    # weight decay and preprocess.MERGE_EPS
    ("train", "weight_decay"), ("train", "scale_range"), ("train", "translation_range"),
    ("preprocess", "merge_eps"), ("inspect", "merge_eps"), ("segment", "merge_eps"),
])
def test_removed_config_key_exits_2(command, key, dataset_dir, tmp_path, request):
    """Keys of options that no longer exist are refused like any unknown key;
    the other entries keep a run that wrongly accepts the key short."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d_t": 16, "d_p": 16, "num_layers": 1, "num_heads": 2,
                                    "max_steps": 1, "target_faces": 20, "eigen_count": 4,
                                    "simplify": False, key: True}))
    mesh_path = str(dataset_dir / "shapes" / "sphere0.off")
    if command == "train":
        args = [str(request.getfixturevalue("samples_dir")), str(tmp_path / "m.ckpt")]
    elif command == "preprocess":
        args = [str(dataset_dir), str(tmp_path / "out")]
    elif command == "segment":
        args = [mesh_path, str(request.getfixturevalue("untrained_checkpoint")),
                str(tmp_path / "seg.ply")]
    else:
        args = [mesh_path, str(tmp_path / "out")]
    result = run([command, *args, "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: unknown config keys: ['{key}']\n"


# damage -> (mesh file, its text, what the one-line error names)
MESH_DAMAGE = {
    "off-negative-count": (
        "bad.off", "OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "counts must be nonnegative, line 2",
    ),
    "off-nan-coordinate": (
        "bad.off", "OFF\n3 1 0\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n",
        "non-finite vertex coordinate, line 4",
    ),
    "obj-inf-coordinate": (
        "bad.obj", "v 0 0 0\nv 1 0 inf\nv 0 1 0\nf 1 2 3\n",
        "non-finite vertex coordinate, line 2",
    ),
    "ply-index-out-of-range": (
        "bad.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
        "property float y\nproperty float z\nelement face 1\n"
        "property list uchar int vertex_indices\nend_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n",
        "index out of range, line 13",
    ),
}


@pytest.mark.parametrize("damage", sorted(MESH_DAMAGE))
@pytest.mark.parametrize("command", ["preprocess", "segment", "inspect"])
def test_malformed_mesh_exits_1_naming_its_line(command, damage, dataset_dir, tmp_path,
                                                request):
    """A data error (exit 1), never numpy's or scipy's message with exit 2."""
    name, text, message = MESH_DAMAGE[damage]
    if command == "preprocess":
        (dataset_dir / "shapes" / name).write_text(text)
        (dataset_dir / "labels" / "bad.txt").write_text("0\n")
        out = tmp_path / "samples"
        result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
        assert result.exit_code == 1, result.output
        assert re.search(rf"^bad +FAILED: {message}$", result.output, re.MULTILINE)
        assert len(list(out.glob("*.sample"))) == 3
        return
    mesh_path = tmp_path / name
    mesh_path.write_text(text)
    if command == "segment":
        checkpoint = request.getfixturevalue("untrained_checkpoint")
        args = [str(mesh_path), str(checkpoint), str(tmp_path / "seg.ply")]
    else:
        args = [str(mesh_path), str(tmp_path / "out")]
    result = run([command, *args, *PREPROCESS_FLAGS])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {message}\n"


def test_label_beyond_int64_in_preprocess_fails_naming_its_line(dataset_dir, tmp_path):
    """A label too large for an int64 is a data error that names its line
    (exit 1), not an OverflowError traceback."""
    (dataset_dir / "shapes" / "bad.off").write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    (dataset_dir / "labels" / "bad.txt").write_text("99999999999999999999\n")
    out = tmp_path / "samples"
    result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
    assert result.exit_code == 1, result.output
    assert re.search(r"^bad +FAILED: label too large \(above 9223372036854775807\), line 1$",
                     result.output, re.MULTILINE), result.output
    assert len(list(out.glob("*.sample"))) == 3


@pytest.mark.parametrize("damaged", ["mesh", "labels"])
def test_undecodable_file_in_preprocess_fails_naming_it(damaged, dataset_dir, tmp_path):
    """Bytes that are not UTF-8 are a data error that names the file (exit
    1), not a codec message with exit 2."""
    mesh_path = dataset_dir / "shapes" / "bad.off"
    label_path = dataset_dir / "labels" / "bad.txt"
    mesh_path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    label_path.write_text("0\n")
    bad = mesh_path if damaged == "mesh" else label_path
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    out = tmp_path / "samples"
    result = run(["preprocess", str(dataset_dir), str(out), *PREPROCESS_FLAGS])
    assert result.exit_code == 1, result.output
    assert re.search(rf"^bad +FAILED: {re.escape(str(bad))}: not a text file \(",
                     result.output, re.MULTILINE), result.output
    assert len(list(out.glob("*.sample"))) == 3


@pytest.mark.parametrize("command", ["segment", "inspect"])
def test_undecodable_mesh_exits_1_naming_it(command, tmp_path, request):
    mesh_path = tmp_path / "bad.off"
    mesh_path.write_bytes(b"OFF\n\xff 1 0\n")
    if command == "segment":
        checkpoint = request.getfixturevalue("untrained_checkpoint")
        args = [str(mesh_path), str(checkpoint), str(tmp_path / "seg.ply")]
    else:
        args = [str(mesh_path), str(tmp_path / "out")]
    result = run([command, *args, *PREPROCESS_FLAGS])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"error: {mesh_path}: not a text file (")
    assert len(result.output.splitlines()) == 1


class TestSegment:
    def test_writes_parseable_colored_ply(self, dataset_dir, checkpoint, tmp_path):
        mesh_path = dataset_dir / "shapes" / "sphere0.off"
        out_ply = tmp_path / "seg.ply"
        result = run(
            ["segment", str(mesh_path), str(checkpoint), str(out_ply),
             *PREPROCESS_FLAGS]
        )
        assert result.exit_code == 0, result.output
        mesh, colors = parse_ply(out_ply.read_text())
        assert mesh.num_faces == 20
        assert colors is not None
        assert len(colors) == 20

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_eigen_count_other_than_the_checkpoints_exits_2(self, source, dataset_dir,
                                                            untrained_checkpoint, tmp_path):
        """The checkpoint holds 4 eigenvectors: asking for 8 by flag or by
        config is a one-line config error naming both counts, not a run
        with 4."""
        args = ["segment", str(dataset_dir / "shapes" / "sphere0.off"),
                str(untrained_checkpoint), str(tmp_path / "seg.ply"),
                "--no-simplify", "--target-faces", "20", "--lambda", "4"]
        if source == "flag":
            args += ["--eigen-count", "8"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"eigen_count": 8}))
            args += ["--config", str(cfg_path)]
        result = run(args)
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: eigen count 8 differs from the checkpoint's eigen count 4\n"
        )
        assert not (tmp_path / "seg.ply").exists()

    def test_unsupported_mesh_format_exits_1(self, untrained_checkpoint, tmp_path):
        mesh_path = tmp_path / "tetra.stl"
        mesh_path.write_text(off_text(tetrahedron()))
        result = run(["segment", str(mesh_path), str(untrained_checkpoint),
                      str(tmp_path / "seg.ply")])
        assert result.exit_code == 1, result.output
        assert result.output == "error: unsupported mesh format '.stl' for tetra.stl\n"

    def test_ply_mesh_segments_like_its_off_twin(self, dataset_dir, untrained_checkpoint,
                                                 tmp_path):
        """A colored PLY of the same vertices and faces as an OFF file gives
        the same segmentation; its face colors are ignored."""
        off_path = dataset_dir / "shapes" / "sphere0.off"
        mesh = datamod.load_mesh_file(off_path)
        ply_path = tmp_path / "sphere0.ply"
        ply_path.write_text(ply_text(mesh, np.random.default_rng(0)))
        outputs = []
        for path in (off_path, ply_path):
            out_ply = tmp_path / f"seg_{path.suffix[1:]}.ply"
            result = run(["segment", str(path), str(untrained_checkpoint), str(out_ply),
                          *PREPROCESS_FLAGS])
            assert result.exit_code == 0, result.output
            outputs.append(out_ply.read_bytes())
        assert outputs[0] == outputs[1]

    def test_eigensolver_failure_exits_3(self, dataset_dir, untrained_checkpoint, tmp_path,
                                         monkeypatch):
        def fail(lap, k):
            raise EigensolverError("injected failure")

        monkeypatch.setattr(spectral, "smallest_eigenpairs", fail)
        out_ply = tmp_path / "seg.ply"
        result = run(["segment", str(dataset_dir / "shapes" / "sphere0.off"),
                      str(untrained_checkpoint), str(out_ply), *PREPROCESS_FLAGS])
        assert result.exit_code == 3, result.output
        assert result.output == "error: injected failure\n"
        assert not out_ply.exists()


SIMPLIFY_FLAGS = [
    "--target-vertices", "42", "--target-faces", "100", "--lambda", "4",
]


@pytest.fixture
def qem_mesh_path(tmp_path):
    """A 162-vertex sphere that QEM simplifies to 42 vertices."""
    mesh, _ = hemisphere_labeled_sphere(subdivisions=2, jitter=0.01, seed=3)
    path = tmp_path / "sphere.off"
    path.write_text(off_text(mesh))
    return path


@pytest.fixture
def untrained_checkpoint(tmp_path):
    cfg = ModelConfig(num_classes=2, eigen_count=4, d_t=16, d_p=16,
                      num_layers=1, num_heads=2)
    ckpt = tmp_path / "untrained.ckpt"
    save_checkpoint(ckpt, init_params(cfg, np.random.default_rng(0)), cfg)
    return ckpt


def rewrite_zip(path, edit):
    """Rewrite a zip artifact after ``edit`` changed its {entry: bytes} dict."""
    import zipfile

    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    edit(entries)
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in entries.items():
            zf.writestr(name, blob)


def edit_manifest(change):
    def edit(entries):
        manifest = json.loads(entries["manifest.json"])
        change(manifest)
        entries["manifest.json"] = json.dumps(manifest).encode()

    return edit


def edit_array(name, change):
    """Replace the entry ``<name>.npy`` by ``change`` of its array."""

    def edit(entries):
        buf = io.BytesIO()
        np.save(buf, change(np.load(io.BytesIO(entries[f"{name}.npy"]))))
        entries[f"{name}.npy"] = buf.getvalue()

    return edit


def as_format_version_2(entries):
    """Rewrite a checkpoint in the version-2 layout: one float32 params.bin
    with the name, shape and offset of each parameter in the manifest."""
    manifest = json.loads(entries.pop("manifest.json"))
    blob, offset, params = b"", 0, {}
    for entry in sorted(entries):
        arr = np.load(io.BytesIO(entries.pop(entry)))
        params[entry[: -len(".npy")]] = {"shape": list(arr.shape), "offset": offset}
        blob += arr.tobytes()
        offset += arr.size
    entries["params.bin"] = blob
    entries["manifest.json"] = json.dumps(
        {**manifest, "format_version": 2, "dtype": "<f4", "params": params}
    ).encode()


# damage -> (edit, what the one-line error names)
CHECKPOINT_DAMAGE = {
    "missing-parameter": (lambda entries: entries.pop("head.ff2.b.npy"), "missing head.ff2.b"),
    # (16, 2) stored as (2, 16): same size, so only the shape check sees it
    "wrong-shape": (
        edit_array("head.ff2.w", lambda w: w.reshape(2, 16)),
        "head.ff2.w has shape (2, 16), expected (16, 2)",
    ),
    "unexpected-array": (
        lambda entries: entries.update({"extra.npy": entries["head.ff2.b.npy"]}),
        "unexpected extra",
    ),
    "float64-parameter": (
        edit_array("head.ff2.b", lambda b: b.astype(np.float64)),
        "head.ff2.b is float64, not float32",
    ),
    "corrupt-npy": (
        lambda entries: entries.update({"head.ff2.b.npy": b"\x93NUMPY\x01\x00garbage"}),
        "unreadable head.ff2.b.npy",
    ),
    "config-without-num-classes": (
        edit_manifest(lambda m: m["config"].pop("num_classes")), "num_classes"
    ),
    "manifest-not-json": (
        lambda entries: entries.update({"manifest.json": b"{not json"}),
        "unreadable manifest.json",
    ),
    "format-version-2": (
        as_format_version_2,
        "unsupported checkpoint format version 2, expected 4; retrain the model with meshseg train",
    ),
    # a version-3 config may hold tc_sum, a model this version cannot build
    "format-version-3": (
        edit_manifest(lambda m: m.update(format_version=3, config={**m["config"], "tc_sum": True})),
        "unsupported checkpoint format version 3, expected 4; retrain the model with meshseg train",
    ),
    "manifest-without-config": (edit_manifest(lambda m: m.pop("config")), "lacks 'config'"),
    "num-heads-0": (
        edit_manifest(lambda m: m["config"].update(num_heads=0)), "num_heads must be >= 1"
    ),
}


def set_first_label(value):
    """Give face 0, a real face of the unpadded test samples, label ``value``."""
    return edit_array("labels", lambda labels: np.r_[value, labels[1:]])


# damage -> (edit, what the one-line error names)
SAMPLE_DAMAGE = {
    "manifest-not-json": (
        lambda entries: entries.update({"manifest.json": b"{not json"}),
        "unreadable manifest.json",
    ),
    "corrupt-npy": (
        lambda entries: entries.update({"labels.npy": b"\x93NUMPY\x01\x00garbage"}),
        "unreadable labels.npy",
    ),
    "format-version-1": (
        edit_manifest(lambda m: m.update(format_version=1)), "format version 1"
    ),
    "float-cluster-ids": (
        edit_array("cluster_ids", lambda ids: ids.astype(np.float64)),
        "cluster_ids are not integers",
    ),
    "float-labels": (
        edit_array("labels", lambda labels: labels + 0.5), "labels are not integers"
    ),
    "negative-label": (set_first_label(-2), "real face with a label outside 0..1"),
    "label-past-num-classes": (set_first_label(2), "real face with a label outside 0..1"),
    "nan-feature": (
        edit_array("T", lambda t: np.vstack([np.full_like(t[:1], np.nan), t[1:]])),
        "non-finite feature",
    ),
    "negative-area": (
        edit_array("areas", lambda areas: np.r_[-1.0, areas[1:]]),
        "negative or non-finite area",
    ),
    "adjacency-pair-out-of-range": (
        edit_array("A", lambda pairs: np.vstack([pairs[:-1], [0, 20]])),
        "adjacency index out of range",
    ),
    "adjacency-pair-reversed": (
        edit_array("A", lambda pairs: np.vstack([pairs[:1, ::-1], pairs[1:]])),
        "pairs must satisfy i < j",
    ),
    "manifest-without-num-clusters": (
        edit_manifest(lambda m: m.pop("num_clusters")), "manifest lacks 'num_clusters'"
    ),
    "string-eigen-count": (
        edit_manifest(lambda m: m.update(eigen_count="4")),
        "manifest 'eigen_count' is '4', not an integer >= 0",
    ),
    "string-n-total": (
        edit_manifest(lambda m: m.update(n_total="90")),
        "manifest 'n_total' is '90', not an integer >= 0",
    ),
    "null-num-classes": (
        edit_manifest(lambda m: m.update(num_classes=None)),
        "manifest 'num_classes' is None, not an integer >= 0",
    ),
    "bool-num-clusters": (
        edit_manifest(lambda m: m.update(num_clusters=True)),
        "manifest 'num_clusters' is True, not an integer >= 0",
    ),
    "negative-num-clusters": (
        edit_manifest(lambda m: m.update(num_clusters=-1)),
        "manifest 'num_clusters' is -1, not an integer >= 0",
    ),
    "string-features": (edit_array("T", lambda t: t.astype(str)), "T are not real floats"),
    "complex-features": (edit_array("T", lambda t: t.astype(complex)), "T are not real floats"),
    "scalar-features": (edit_array("T", lambda t: t[0, 0]), "T has 0 dimensions, not 2"),
    "string-areas": (edit_array("areas", lambda a: a.astype(str)), "areas are not real floats"),
    "complex-areas": (
        edit_array("areas", lambda a: a.astype(complex)), "areas are not real floats"
    ),
    "float-adjacency": (edit_array("A", lambda pairs: pairs + 0.5), "A are not integers"),
    "integer-mask": (edit_array("mask", lambda m: m.astype(np.int8)), "mask are not booleans"),
    "manifest-misstates-padding": (
        edit_manifest(lambda m: m.update(has_padding=not m["has_padding"])),
        "manifest 'has_padding' is",
    ),
    "manifest-misstates-arrays": (
        edit_manifest(lambda m: m["arrays"].update(T={"shape": [3, 3], "dtype": "int8"})),
        "manifest 'arrays' gives T {'shape': [3, 3], 'dtype': 'int8'}, but T.npy has shape",
    ),
}


def run_with_checkpoint(command, checkpoint, samples_dir, dataset_dir, tmp_path):
    if command == "eval":
        return run(["eval", str(samples_dir), str(checkpoint)])
    return run(["segment", str(dataset_dir / "shapes" / "sphere0.off"), str(checkpoint),
                str(tmp_path / "seg.ply"), *PREPROCESS_FLAGS])


class TestBrokenArtifacts:
    """A damaged checkpoint is a config error (exit 2) and a damaged sample
    a data error (exit 1), reported in one line, never a traceback."""

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    @pytest.mark.parametrize("command", ["eval", "segment"])
    def test_damaged_checkpoint_exits_2(self, command, damage, samples_dir, dataset_dir,
                                        untrained_checkpoint, tmp_path):
        edit, message = CHECKPOINT_DAMAGE[damage]
        rewrite_zip(untrained_checkpoint, edit)
        result = run_with_checkpoint(command, untrained_checkpoint, samples_dir, dataset_dir,
                                     tmp_path)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "segment"])
    def test_checkpoint_not_a_zip_exits_2(self, command, samples_dir, dataset_dir,
                                          untrained_checkpoint, tmp_path):
        untrained_checkpoint.write_bytes(b"not a zip file\n")
        result = run_with_checkpoint(command, untrained_checkpoint, samples_dir, dataset_dir,
                                     tmp_path)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and "not a readable zip" in result.output
        assert len(result.output.splitlines()) == 1

    def test_sample_not_a_zip_exits_1(self, samples_dir, untrained_checkpoint):
        (samples_dir / "sphere1.sample").write_bytes(b"not a zip file\n")
        result = run(["eval", str(samples_dir), str(untrained_checkpoint)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and "not a readable zip" in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("damage", sorted(SAMPLE_DAMAGE))
    def test_unreadable_sample_exits_1(self, damage, samples_dir, untrained_checkpoint):
        edit, message = SAMPLE_DAMAGE[damage]
        rewrite_zip(samples_dir / "sphere1.sample", edit)
        result = run(["eval", str(samples_dir), str(untrained_checkpoint)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and message in result.output
        assert len(result.output.splitlines()) == 1

    def test_sample_missing_array_exits_1(self, samples_dir, untrained_checkpoint):
        rewrite_zip(samples_dir / "sphere1.sample", lambda entries: entries.pop("areas.npy"))
        result = run(["eval", str(samples_dir), str(untrained_checkpoint)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and "areas.npy" in result.output
        assert len(result.output.splitlines()) == 1

    def test_sample_length_mismatch_exits_1(self, samples_dir, untrained_checkpoint):
        import io

        def drop_label(entries):
            labels = np.load(io.BytesIO(entries["labels.npy"]))
            buf = io.BytesIO()
            np.save(buf, labels[:-1])
            entries["labels.npy"] = buf.getvalue()

        rewrite_zip(samples_dir / "sphere1.sample", drop_label)
        result = run(["eval", str(samples_dir), str(untrained_checkpoint)])
        assert result.exit_code == 1, result.output
        assert "labels has shape (19,), expected (20,)" in result.output
        assert len(result.output.splitlines()) == 1


class TestSegmentOnePipeline:
    def test_simplifies_once(self, qem_mesh_path, untrained_checkpoint, tmp_path,
                             monkeypatch):
        qem = simplify.simplify_qem
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return qem(*args, **kwargs)

        monkeypatch.setattr(simplify, "simplify_qem", counted)
        monkeypatch.setattr(preprocess, "simplify_qem", counted)
        result = run(["segment", str(qem_mesh_path), str(untrained_checkpoint),
                      str(tmp_path / "seg.ply"), *SIMPLIFY_FLAGS])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_ply_geometry_is_the_simplified_mesh(self, qem_mesh_path,
                                                 untrained_checkpoint, tmp_path):
        out_ply = tmp_path / "seg.ply"
        result = run(["segment", str(qem_mesh_path), str(untrained_checkpoint),
                      str(out_ply), *SIMPLIFY_FLAGS])
        assert result.exit_code == 0, result.output
        mesh = datamod.load_mesh_file(qem_mesh_path)
        merged = merge_duplicate_vertices(mesh, preprocess.MERGE_EPS)
        simplified, _ = simplify.simplify_qem(merged, 42)
        corners = preprocess.standardize_coords(simplified.vertices)[simplified.faces]
        rounded = np.vectorize(lambda x: float(f"{x:.9g}"))(corners)
        ply, colors = parse_ply(out_ply.read_text())
        assert simplified.num_vertices == 42
        assert ply.num_faces == simplified.num_faces == len(colors)
        np.testing.assert_array_equal(ply.vertices[ply.faces], rounded)


class TestInspect:
    def test_tetrahedron_outputs(self, tmp_path):
        mesh_path = tmp_path / "tetra.off"
        mesh_path.write_text(off_text(tetrahedron()))
        out = tmp_path / "inspect"
        result = run(
            ["inspect", str(mesh_path), str(out), "--eigenvectors", "3",
             "--no-simplify"]
        )
        assert result.exit_code == 0, result.output
        for i in range(3):
            ply, colors = parse_ply((out / f"eigenvector_{i:03d}.ply").read_text())
            assert ply.num_faces == 4
            assert colors is not None
        stats = json.loads((out / "stats.json").read_text())
        np.testing.assert_allclose(stats["eigenvalues"], [4 / 3] * 3, atol=1e-8)
        assert stats["num_clusters"] == 1
        assert (out / "clusters.ply").exists()
        diagnostics = stats["diagnostics"]
        assert diagnostics["qem_reached"] is None
        assert diagnostics["dual_graph_components"] == 1
        assert diagnostics["cluster_size_max"] == 4

    def test_deterministic_colors(self, tmp_path):
        mesh_path = tmp_path / "tetra.off"
        mesh_path.write_text(off_text(tetrahedron()))
        out1, out2 = tmp_path / "i1", tmp_path / "i2"
        for out in (out1, out2):
            run(["inspect", str(mesh_path), str(out), "--no-simplify"])
        for name in ("eigenvector_000.ply", "clusters.ply"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_clusters_follow_the_config(self, dataset_dir, tmp_path):
        """A clustering lambda set in the config file alone, with no flag,
        decides the clusters that inspect draws."""
        mesh_path = dataset_dir / "shapes" / "sphere0.off"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"clustering_lambda": 2}))
        out = tmp_path / "inspect"
        result = run(["inspect", str(mesh_path), str(out), "--config", str(config),
                      "--no-simplify", "--target-faces", "20", "--eigen-count", "4"])
        assert result.exit_code == 0, result.output
        mesh = datamod.load_mesh_file(mesh_path)
        cfg = PreprocessConfig(target_faces=20, eigen_count=4, simplify=False)
        configured = build_sample(mesh, None, replace(cfg, clustering_lambda=2))
        assert configured.num_clusters != build_sample(mesh, None, cfg).num_clusters
        palette = np.array(datamod.class_palette(configured.num_clusters))
        _, colors = parse_ply((out / "clusters.ply").read_text())
        np.testing.assert_array_equal(colors, palette[configured.cluster_ids])
        stats = json.loads((out / "stats.json").read_text())
        assert stats["num_clusters"] == configured.num_clusters
        assert stats["lambda"] == 2

    def test_more_eigenvectors_than_eigen_count_exits_2(self, tmp_path):
        mesh_path = tmp_path / "tetra.off"
        mesh_path.write_text(off_text(tetrahedron()))
        result = run(["inspect", str(mesh_path), str(tmp_path / "out"),
                      "--eigen-count", "4", "--eigenvectors", "5", "--no-simplify"])
        assert result.exit_code == 2
        assert "--eigenvectors 5" in result.output

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_fewer_than_one_eigenvector_exits_2(self, count, tmp_path):
        mesh_path = tmp_path / "tetra.off"
        mesh_path.write_text(off_text(tetrahedron()))
        out = tmp_path / "out"
        result = run(["inspect", str(mesh_path), str(out), "--eigenvectors", count,
                      "--no-simplify"])
        assert result.exit_code == 2, result.output
        assert f"--eigenvectors {count} outside [1, " in result.output
        assert not out.exists()

    # no face at all, and one face whose corners merge into one vertex
    @pytest.mark.parametrize("off", [
        "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n",
        "OFF\n3 1 0\n0 0 0\n0 0 0\n0 0 0\n3 0 1 2\n",
    ], ids=["no-faces", "merged-away"])
    def test_mesh_without_faces_exits_1(self, off, tmp_path):
        mesh_path = tmp_path / "empty.off"
        mesh_path.write_text(off)
        result = run(["inspect", str(mesh_path), str(tmp_path / "out"), "--no-simplify"])
        assert result.exit_code == 1, result.output
        assert result.output == "error: mesh has no faces\n"


class TestHelp:
    def test_help_lists_subcommands(self):
        result = run(["--help"])
        for cmd in ("preprocess", "train", "eval", "segment", "inspect"):
            assert cmd in result.output

    def test_defaults_documented(self):
        result = run(["preprocess", "--help"])
        assert "1200" in result.output
        assert "2412" in result.output
        result = run(["train", "--help"])
        assert "512" in result.output
        assert "5e-5" in result.output

    def test_seed_only_on_train(self):
        for cmd in ("preprocess", "segment", "inspect"):
            assert "--seed" not in run([cmd, "--help"]).output
        assert "--seed" in run(["train", "--help"]).output


# the config classes each command builds from its flags and --config file
COMMAND_CONFIGS = {
    "preprocess": (PreprocessConfig,),
    "train": (ModelConfig, trainmod.TrainConfig),
    "segment": (PreprocessConfig,),
    "inspect": (PreprocessConfig,),
}
CONFIG_CLASSES = (PreprocessConfig, ModelConfig, trainmod.TrainConfig)
# options that are command arguments, not config fields
NAMED_ARGUMENTS = {"config_path", "split_path", "metrics_log", "ablate", "eigenvectors"}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_every_option_is_named_after_what_it_sets(command):
    """A flag whose destination matches no config field would be dropped
    silently when the command builds its config."""
    fields = {f.name for cls in COMMAND_CONFIGS[command] for f in dataclasses.fields(cls)}
    names = {p.name for p in main.commands[command].params if isinstance(p, click.Option)}
    assert names - fields - NAMED_ARGUMENTS == set()


# each config field that no CLI option sets -> what does set it
FLAGLESS_FIELDS = {
    "num_classes": "the samples: the largest class count among them",
    "use_coords": "--ablate coordinates",
    "use_normals": "--ablate normals",
    "use_laplacian": "--ablate laplacian",
    "use_cluster_stream": "--ablate cluster-modules",
    "max_clusters": "perfbench/workloads.py (train-small: 32)",
    "validation_fraction": "perfbench/workloads.py (both train workloads: 0.0)",
    "eval_every": "perfbench/workloads.py (both train workloads: 10**9)",
    "ff_multiplier": "the tests' small model (2), on which test_train's GRAPH_BYTES_BOUND "
                     "rests",
    "dropout": "test_acceptance's OVERFIT_MODEL and the model tests (0.0 and 0.1)",
    "augment": "test_acceptance's OVERFIT_TRAIN (False)",
}


def test_every_flagless_config_field_has_a_caller():
    """A field that neither a flag nor any caller sets is a one-value knob:
    it belongs in a module constant until something sets it."""
    flagged = {p.name for command in main.commands.values() for p in command.params
               if isinstance(p, click.Option)}
    fields = {f.name for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)}
    assert fields - flagged == set(FLAGLESS_FIELDS)


class _Built(Exception):
    """Raised by a stub once the command has built its configs."""


def built_configs(monkeypatch, command, args, tmp_path, request):
    """The configs ``meshseg <command> ... args`` builds, caught before use."""
    def capture(*args, **kwargs):
        raise _Built([a for a in args if isinstance(a, CONFIG_CLASSES)])

    mesh_path = str(request.getfixturevalue("dataset_dir") / "shapes" / "sphere0.off")
    if command == "preprocess":
        paths = [str(request.getfixturevalue("dataset_dir")), str(tmp_path / "out")]
    elif command == "train":
        paths = [str(request.getfixturevalue("samples_dir")), str(tmp_path / "m.ckpt")]
    elif command == "segment":
        paths = [mesh_path, str(request.getfixturevalue("untrained_checkpoint")),
                 str(tmp_path / "seg.ply")]
    else:
        paths = [mesh_path, str(tmp_path / "out"), "--eigenvectors", "1"]
    monkeypatch.setattr(cli, "build_sample", capture)
    monkeypatch.setattr(trainmod, "train", capture)
    with pytest.raises(_Built) as built:
        run([command, *paths, *args])
    return built.value.args[0]


def with_config(tmp_path, config, *flags):
    path = tmp_path / "flag-parity.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path), *flags]


# flag -> (its arguments, the equal config entry, another value of that entry)
PREPROCESS_PARITY = {
    "--no-simplify": (["--no-simplify"], {"simplify": False}, True),
    "--lambda": (["--lambda", "4"], {"clustering_lambda": 4}, 2.5),
    "--target-vertices": (["--target-vertices", "300"], {"target_vertices": 300}, 500),
    "--target-faces": (["--target-faces", "30"], {"target_faces": 30}, 40),
    "--eigen-count": (["--eigen-count", "4"], {"eigen_count": 4}, 3),
}
TRAIN_PARITY = {
    "--layers": (["--layers", "1"], {"num_layers": 1}, 2),
    "--heads": (["--heads", "2"], {"num_heads": 2}, 4),
    "--d-t": (["--d-t", "16"], {"d_t": 16}, 32),
    "--d-p": (["--d-p", "16"], {"d_p": 16}, 32),
    "--steps": (["--steps", "3"], {"max_steps": 3}, 5),
    "--lr": (["--lr", "1e-3"], {"lr": 1e-3}, 2e-3),
    "--batch-size": (["--batch-size", "2"], {"batch_size": 2}, 3),
    "--seed": (["--seed", "7"], {"seed": 7}, 8),
}
PARITY_CASES = [
    *[(command, flag) for command in ("preprocess", "segment", "inspect")
      for flag in PREPROCESS_PARITY],
    *[("train", flag) for flag in TRAIN_PARITY],
]


class TestFlagsAndConfig:
    @pytest.mark.parametrize("command, flag", PARITY_CASES)
    def test_flag_and_config_key_build_the_same_config(self, command, flag, monkeypatch,
                                                       tmp_path, request):
        flag_args, entry, other = {**PREPROCESS_PARITY, **TRAIN_PARITY}[flag]
        (key, _), = entry.items()
        by_flag = built_configs(monkeypatch, command, flag_args, tmp_path, request)
        by_config = built_configs(monkeypatch, command, with_config(tmp_path, entry),
                                  tmp_path, request)
        both = built_configs(monkeypatch, command,
                             with_config(tmp_path, {key: other}, *flag_args),
                             tmp_path, request)
        assert by_flag == by_config == both
        assert any(getattr(cfg, key, None) == entry[key] for cfg in by_flag)

    @pytest.mark.parametrize("entry, eigen_count", [
        ({"simplify": "no"}, 4), ({"eigen_count": "x"}, 2),
    ], ids=["simplify", "eigen_count"])
    def test_overridden_config_value_is_not_checked(self, entry, eigen_count, dataset_dir,
                                                     tmp_path):
        """A flag replaces its config value before the config is built, so
        a value that no run reads is never type-checked."""
        out = tmp_path / "out"
        flags = ["--no-simplify", "--target-faces", "20", "--lambda", "4",
                 "--eigen-count", str(eigen_count)]
        result = run(["preprocess", str(dataset_dir), str(out),
                      *with_config(tmp_path, entry, *flags)])
        assert result.exit_code == 0, result.output
        assert load_sample(out / "sphere1.sample").eigen_count == eigen_count
