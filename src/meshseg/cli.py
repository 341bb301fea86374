"""Command-line entry point for the segmentation pipeline.

Subcommands: preprocess, train, eval, segment, inspect. Each option's
destination is the config dataclass field it sets; a JSON config file
supplies defaults that flags override. Exit codes: 0 success, 1 data
error (including an unreadable, malformed or older-format .sample file),
2 config error (including an unreadable checkpoint or one that does not
match its config), 3 numerical failure. Set MESHSEG_LOG to a logging
level name for verbosity.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from meshseg import data as datamod
from meshseg import model as modelmod
from meshseg import train as trainmod
from meshseg.autodiff import Tensor
from meshseg.errors import (
    ConfigError,
    DegenerateGeometryError,
    EigensolverError,
    MeshFormatError,
    SampleFormatError,
    TrainingDivergedError,
)
from meshseg.mesh_io import LabelVec, write_ply_colored
from meshseg.preprocess import (
    SPECTRAL_COLS,
    PreprocessConfig,
    build_sample,
    load_sample,
    save_sample,
)
from meshseg.spectral import normalized_laplacian

logger = logging.getLogger("meshseg")

EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_CONFIG_FIELDS = {
    f.name
    for cls in (PreprocessConfig, modelmod.ModelConfig, trainmod.TrainConfig)
    for f in dataclasses.fields(cls)
}


def _setup_logging():
    level = os.environ.get("MESHSEG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def load_run_config(path) -> dict:
    """JSON config with every key checked against the known field names;
    ``{}`` without a path."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _pick(cls, base: dict, **overrides):
    names = {f.name for f in dataclasses.fields(cls)}
    values = {k: v for k, v in base.items() if k in names}
    values.update({k: v for k, v in overrides.items() if v is not None and k in names})
    return cls(**values)


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MeshFormatError, SampleFormatError, DegenerateGeometryError,
                FileNotFoundError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except (ConfigError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)
        except (EigensolverError, TrainingDivergedError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL_ERROR)

    return wrapper


ABLATIONS = {
    "coordinates": {"use_coords": False},
    "normals": {"use_normals": False},
    "laplacian": {"use_laplacian": False},
    "cluster-modules": {"use_cluster_stream": False},
}


def common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="JSON config file; flags override its values.")(fn)
    return fn


def preprocess_options(fn):
    fn = click.option("--target-vertices", type=int, default=None, show_default="1200",
                      help="Simplification target vertex count.")(fn)
    fn = click.option("--target-faces", type=int, default=None, show_default="2412",
                      help="Padded face count per sample.")(fn)
    fn = click.option("--eigen-count", type=int, default=None, show_default="16",
                      help="Number of Laplacian eigenvector features.")(fn)
    fn = click.option("--lambda", "clustering_lambda", type=float, default=None,
                      show_default="8", help="Average vertices per cluster.")(fn)
    fn = click.option("--no-simplify", "simplify", flag_value=False, default=None,
                      help="Skip QEM simplification.")(fn)
    return fn


def model_options(fn):
    fn = click.option("--d-t", type=int, default=None, show_default="512",
                      help="Triangle token width.")(fn)
    fn = click.option("--d-p", type=int, default=None, show_default="1024",
                      help="Cluster token width.")(fn)
    fn = click.option("--layers", "num_layers", type=int, default=None, show_default="4",
                      help="Transformer layer count.")(fn)
    fn = click.option("--heads", "num_heads", type=int, default=None, show_default="8",
                      help="Attention head count.")(fn)
    fn = click.option("--ablate", "ablate", multiple=True,
                      type=click.Choice(sorted(ABLATIONS)),
                      help="Disable a feature block or the cluster modules.")(fn)
    return fn


@click.group()
def main():
    """Mesh segmentation pipeline: preprocess, train, eval, segment, inspect."""
    _setup_logging()


@main.command("preprocess")
@click.argument("in_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--split", "split_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="File listing the mesh stems to include, one per line.")
@common_options
@preprocess_options
@handles_errors
def cmd_preprocess(in_dir, out_dir, split_path, config_path, **flags):
    """Turn a shapes/ + labels/ dataset directory into sample files."""
    cfg = _pick(PreprocessConfig, load_run_config(config_path), **flags)
    split = datamod.read_split_file(split_path) if split_path else None
    pairs = datamod.list_dataset(Path(in_dir), split)
    if not pairs:
        raise FileNotFoundError(f"no mesh/label pairs found under {in_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    click.echo(f"{'stem':<24} {'faces':>7} {'clusters':>8} {'eigvecs':>7}")
    for mesh_path, label_path in pairs:
        try:
            mesh, labels = datamod.load_pair(mesh_path, label_path)
            sample = build_sample(mesh, labels, cfg)
            save_sample(sample, out / f"{mesh_path.stem}.sample")
            click.echo(
                f"{mesh_path.stem:<24} {sample.n_real:>7} {sample.num_clusters:>8} "
                f"{sample.eigen_count:>7}"
            )
        except (MeshFormatError, DegenerateGeometryError, EigensolverError, ValueError) as exc:
            failures += 1
            logger.error("failed on %s: %s", mesh_path.name, exc)
            click.echo(f"{mesh_path.stem:<24} FAILED: {exc}", err=True)
    if failures:
        click.echo(f"{failures} file(s) failed", err=True)
        sys.exit(EXIT_DATA_ERROR)


def _load_samples(samples_dir):
    paths = sorted(Path(samples_dir).glob("*.sample"))
    if not paths:
        raise FileNotFoundError(f"no .sample files under {samples_dir}")
    return [load_sample(p) for p in paths]


@main.command("train")
@click.argument("samples_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("out_checkpoint", type=click.Path(dir_okay=False))
@click.option("--metrics-log", type=click.Path(dir_okay=False), default=None,
              help="JSON-lines metrics log path (default: alongside checkpoint).")
@click.option("--steps", "max_steps", type=int, default=None, show_default="500",
              help="Optimizer step budget.")
@click.option("--lr", type=float, default=None, show_default="5e-5", help="Learning rate.")
@click.option("--batch-size", type=int, default=None, show_default="12", help="Batch size.")
@click.option("--seed", type=int, default=None, show_default="0",
              help="RNG seed for initialization, batching, augmentation and dropout.")
@common_options
@model_options
@handles_errors
def cmd_train(samples_dir, out_checkpoint, metrics_log, config_path, ablate, **flags):
    """Train on preprocessed samples and write the best checkpoint."""
    config = load_run_config(config_path)
    samples = _load_samples(samples_dir)
    ablations = {k: v for feature in ablate for k, v in ABLATIONS[feature].items()}
    model_cfg = _pick(
        modelmod.ModelConfig,
        {"num_classes": max(s.num_classes for s in samples), **config,
         "eigen_count": samples[0].eigen_count, **ablations},
        **flags,
    )
    train_cfg = _pick(trainmod.TrainConfig, config, **flags)
    metrics_path = metrics_log or str(Path(out_checkpoint).with_suffix(".metrics.jsonl"))
    params, history = trainmod.train(
        samples, model_cfg, train_cfg, metrics_path=metrics_path
    )
    modelmod.save_checkpoint(out_checkpoint, params, model_cfg)
    final = history[-1] if history else {}
    click.echo(json.dumps({"checkpoint": str(out_checkpoint), "final": final}))


@main.command("eval")
@click.argument("samples_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("checkpoint", type=click.Path(exists=True, dir_okay=False))
@handles_errors
def cmd_eval(samples_dir, checkpoint):
    """Evaluate a checkpoint on preprocessed samples; prints metrics JSON."""
    params, model_cfg = modelmod.load_checkpoint(checkpoint)
    samples = _load_samples(samples_dir)
    metrics = trainmod.evaluate(samples, params, model_cfg)
    click.echo(json.dumps(dataclasses.asdict(metrics), indent=2))


@main.command("segment")
@click.argument("mesh_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("checkpoint", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_ply", type=click.Path(dir_okay=False))
@common_options
@preprocess_options
@handles_errors
def cmd_segment(mesh_path, checkpoint, out_ply, config_path, **flags):
    """Segment one mesh and write a colored PLY of the prediction.

    The eigen count defaults to the checkpoint's; a flag or config value
    that differs from it is a config error. The eval forward runs on
    gradient-free views of the checkpoint's parameters, so it records no
    graph."""
    config = load_run_config(config_path)
    params, model_cfg = modelmod.load_checkpoint(checkpoint)
    cfg = _pick(PreprocessConfig, {"eigen_count": model_cfg.eigen_count, **config}, **flags)
    if cfg.eigen_count != model_cfg.eigen_count:
        raise ConfigError(f"eigen count {cfg.eigen_count} differs from the checkpoint's "
                          f"eigen count {model_cfg.eigen_count}")
    mesh = datamod.load_mesh_file(Path(mesh_path))
    sample = build_sample(mesh, None, cfg)
    views = {name: Tensor(p.data) for name, p in params.items()}
    scores = modelmod.met_forward(sample, views, model_cfg)
    pred = scores.data.argmax(axis=1)[sample.real_mask]
    labels = LabelVec(labels=pred, num_classes=model_cfg.num_classes)
    palette = datamod.class_palette(model_cfg.num_classes)
    Path(out_ply).write_text(write_ply_colored(sample.mesh(), labels, palette))
    click.echo(f"wrote {out_ply}")


@main.command("inspect")
@click.argument("mesh_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--eigenvectors", type=int, default=3, show_default=True,
              help="How many eigenvector PLYs to write, from 1 to the eigen count.")
@common_options
@preprocess_options
@handles_errors
def cmd_inspect(mesh_path, out_dir, eigenvectors, config_path, **flags):
    """Dump eigenvector and cluster visualizations of the sample that
    preprocess writes with the same flags, plus spectral stats and the
    sample's preprocessing diagnostics."""
    cfg = _pick(PreprocessConfig, load_run_config(config_path), **flags)
    if not 1 <= eigenvectors <= cfg.eigen_count:
        raise ConfigError(f"--eigenvectors {eigenvectors} outside [1, {cfg.eigen_count}], "
                          "the eigen count")
    sample = build_sample(datamod.load_mesh_file(Path(mesh_path)), None, cfg)
    mesh = sample.mesh()
    real = sample.real_mask
    feats = sample.features[:, SPECTRAL_COLS][:, :eigenvectors]
    # unit eigenvectors (or zero padding): v^T L v is each one's eigenvalue
    lap = normalized_laplacian(sample.adjacency)
    eigenvalues = np.einsum("ij,ij->j", feats, lap @ feats)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    face_ids = LabelVec(labels=np.arange(mesh.num_faces), num_classes=mesh.num_faces)
    for col in range(eigenvectors):
        column = feats[real, col]
        lo, hi = column.min(), column.max()
        span = hi - lo if hi > lo else 1.0
        colors = [datamod.diverging_color((v - lo) / span) for v in column]
        text = write_ply_colored(mesh, face_ids, colors)
        (out / f"eigenvector_{col:03d}.ply").write_text(text)

    cluster_labels = LabelVec(labels=sample.cluster_ids[real], num_classes=sample.num_clusters)
    palette = datamod.class_palette(sample.num_clusters)
    (out / "clusters.ply").write_text(write_ply_colored(mesh, cluster_labels, palette))

    stats = {
        "eigenvalues": eigenvalues.tolist(),
        "num_faces": mesh.num_faces,
        "num_vertices": mesh.num_vertices,
        "num_clusters": sample.num_clusters,
        "lambda": cfg.clustering_lambda,
        "diagnostics": sample.diagnostics,
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2))
    click.echo(f"wrote {eigenvectors} eigenvector PLYs, clusters.ply and stats.json to {out}")


if __name__ == "__main__":
    main()
