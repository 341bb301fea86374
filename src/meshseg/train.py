"""Loss, metrics, augmentation, and the training/evaluation loops.

The loss is cross-entropy weighted by each triangle's share of the total
surface, one ``autodiff.weighted_nll`` graph node per mesh; accuracy is
correctly classified area over total area, pooled across meshes.
Everything is reproducible from the seed: batches are processed in
sample-index order and per-sample RNG streams are derived from (seed,
epoch, sample index).
"""

from __future__ import annotations

import json
import logging
import resource
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.errors import ConfigError, TrainingDivergedError, check_config
from meshseg.model import ModelConfig, init_params, met_forward
from meshseg.optim import AdamW
from meshseg.preprocess import COORD_COLS, NORMAL_COLS, PAD_LABEL, Sample, standardize_coords

logger = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "Metrics",
    "area_weights",
    "weighted_cross_entropy",
    "random_rotation",
    "augment",
    "train",
    "evaluate",
]

#: Bounds of ``augment``'s uniform scale factor and of its per-axis shift.
SCALE_RANGE = (0.9, 1.1)
TRANSLATION_RANGE = 0.1


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 12
    max_steps: int = 500
    seed: int = 0
    validation_fraction: float = 0.06
    augment: bool = True
    eval_every: int = 50

    def __post_init__(self):
        check_config(self, {"batch_size": 1, "max_steps": 0, "seed": 0, "eval_every": 1})
        if not 0 <= self.validation_fraction < 1:
            raise ConfigError("validation_fraction must be in [0, 1)")


@dataclass(frozen=True)
class Metrics:
    area_accuracy: float
    per_class: dict[int, float]
    mean_loss: float


def area_weights(areas: np.ndarray, real_mask: np.ndarray) -> np.ndarray:
    """Per-face loss weights: area over total real area; 0 on padding."""
    areas = np.where(real_mask, areas, 0.0)
    total = areas.sum()
    if total <= 0:
        raise ValueError("total face area is zero")
    return areas / total


def weighted_cross_entropy(scores: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Sum over faces of weight * negative log-likelihood of the true class.

    Faces labeled ``PAD_LABEL`` contribute exactly zero (their weight is
    forced to 0 and a dummy class 0 is read); any other label outside
    [0, C) raises ValueError.
    """
    labels = np.asarray(labels)
    valid = labels != PAD_LABEL
    return ad.weighted_nll(scores, np.where(valid, labels, 0), np.where(valid, weights, 0.0))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """Random similarity transform of the coordinate blocks.

    Normals are rotated only; spectral features, adjacency, and clustering
    are invariant under similarity transforms and stay untouched. If any
    coordinate leaves [-1, 1] the coordinates are re-standardized.
    """
    rot = random_rotation(rng)
    s = rng.uniform(*SCALE_RANGE)
    t = rng.uniform(-TRANSLATION_RANGE, TRANSLATION_RANGE, size=3)

    features = sample.features.copy()
    real = sample.real_mask
    coords = features[real, COORD_COLS].reshape(-1, 3, 3)
    coords = (s * (coords @ rot.T) + t).reshape(-1, 3)
    if np.abs(coords).max() > 1.0:
        coords = standardize_coords(coords)
    features[real, COORD_COLS] = coords.reshape(-1, 9)
    features[real, NORMAL_COLS] = features[real, NORMAL_COLS] @ rot.T
    return replace(sample, features=features)


def evaluate(samples, params, model_cfg: ModelConfig) -> Metrics:
    """Eval-mode metrics pooled over all meshes by summing areas, plus the
    mean of the per-mesh losses. Runs one eval-mode forward per sample on
    gradient-free views of ``params`` (no copy), so a forward records no
    graph and frees each activation after its last reader."""
    params = {name: Tensor(p.data) for name, p in params.items()}
    correct_area = 0.0
    total_area = 0.0
    class_correct: dict[int, float] = {}
    class_total: dict[int, float] = {}
    losses = []
    for s in samples:
        if s.num_classes > model_cfg.num_classes:
            raise ConfigError(
                f"sample has {s.num_classes} classes, model has {model_cfg.num_classes}"
            )
        scores = met_forward(s, params, model_cfg)
        loss = weighted_cross_entropy(scores, s.labels, area_weights(s.areas, s.real_mask))
        losses.append(loss.item())
        pred = scores.data.argmax(axis=1)
        real = s.real_mask
        hit = real & (pred == s.labels)
        correct_area += s.areas[hit].sum()
        total_area += s.areas[real].sum()
        for c in np.unique(s.labels[real]):
            sel = real & (s.labels == c)
            class_total[int(c)] = class_total.get(int(c), 0.0) + s.areas[sel].sum()
            class_correct[int(c)] = class_correct.get(int(c), 0.0) + s.areas[sel & hit].sum()
    per_class = {
        c: (class_correct[c] / class_total[c]) if class_total[c] > 0 else 0.0
        for c in sorted(class_total)
    }
    return Metrics(
        area_accuracy=float(correct_area / total_area),
        per_class=per_class,
        mean_loss=float(np.mean(losses)),
    )


def train(
    samples: list[Sample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    dtype=np.float32,
    metrics_path: str | Path | None = None,
    params: dict[str, Tensor] | None = None,
):
    """Mini-batch AdamW training with a held-out validation fraction.

    Holds the samples and nothing derived from them: each step augments a
    sample, runs its training forward (which builds the sample's masks)
    and computes its area weights afresh. Each sample's backward pass
    consumes its graph, and gradients are cleared before the first step;
    each optimizer step consumes them, freeing each one once applied, so
    evaluations run with neither a graph nor gradients alive.

    Returns ``(best_params, history)``: the parameters with the best
    validation area accuracy (training accuracy when the validation split
    is empty), each with ``.grad`` None, and the list of logged records.
    A record holds ``step``, ``loss`` (the batch's mean), ``accuracy``,
    ``split``, the step's ``grad_norm``, the ``forward_s``, ``backward_s``
    and ``optim_s`` summed since the previous record, ``samples_per_s``
    over the training time since then, and the process's ``peak_rss_mb``
    so far. Each record is also one line of ``metrics_path``.
    """
    if not samples:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(train_cfg.seed)
    if params is None:
        params = init_params(model_cfg, rng, dtype=dtype)
    optimizer = AdamW(params, lr=train_cfg.lr)

    indices = rng.permutation(len(samples))
    n_val = int(np.floor(train_cfg.validation_fraction * len(samples)))
    val_idx, train_idx = indices[:n_val], indices[n_val:]
    train_set = [samples[i] for i in train_idx]
    val_set = [samples[i] for i in val_idx]

    history: list[dict] = []
    best_acc = -1.0
    best_params = None
    log_file = open(metrics_path, "w") if metrics_path else None
    # phase seconds and samples trained since the previous record
    phase_s = dict.fromkeys(("forward_s", "backward_s", "optim_s"), 0.0)
    trained = 0
    since = perf_counter()

    def snapshot():
        return {name: p.data.copy() for name, p in params.items()}

    def record(step, loss_value, grad_norm, split):
        nonlocal trained, since
        train_s = perf_counter() - since
        eval_set = val_set if split == "val" else train_set
        metrics = evaluate(eval_set, params, model_cfg)
        entry = {
            "step": step,
            "loss": loss_value,
            "accuracy": metrics.area_accuracy,
            "split": split,
            "grad_norm": grad_norm,
            **phase_s,
            "samples_per_s": trained / train_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        history.append(entry)
        logger.info("step %(step)d loss %(loss).4f accuracy %(accuracy).4f "
                    "grad_norm %(grad_norm).4g forward_s %(forward_s).3f "
                    "backward_s %(backward_s).3f optim_s %(optim_s).3f "
                    "samples_per_s %(samples_per_s).2f peak_rss_mb %(peak_rss_mb).1f", entry)
        if log_file:
            log_file.write(json.dumps(entry) + "\n")
            log_file.flush()
        phase_s.update(dict.fromkeys(phase_s, 0.0))
        trained = 0
        since = perf_counter()
        return metrics

    try:
        step = 0
        epoch = 0
        optimizer.zero_grad()
        while step < train_cfg.max_steps:
            order = np.random.default_rng((train_cfg.seed, 7, epoch)).permutation(
                len(train_set)
            )
            for start in range(0, len(order), train_cfg.batch_size):
                if step >= train_cfg.max_steps:
                    break
                batch = order[start : start + train_cfg.batch_size]
                batch_loss = 0.0
                for idx in sorted(batch):
                    sample_rng = np.random.default_rng((train_cfg.seed, epoch, int(idx)))
                    sample = train_set[idx]
                    if train_cfg.augment:
                        sample = augment(sample, sample_rng)
                    t0 = perf_counter()
                    loss = weighted_cross_entropy(
                        met_forward(sample, params, model_cfg, training=True, rng=sample_rng),
                        sample.labels, area_weights(sample.areas, sample.real_mask),
                    )
                    batch_loss += loss.item()
                    t1 = perf_counter()
                    ad.backward(loss)  # consumes the graph; loss keeps only its value
                    phase_s["forward_s"] += t1 - t0
                    phase_s["backward_s"] += perf_counter() - t1
                trained += len(batch)
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step}",
                        diagnostics={
                            "step": step,
                            "loss": batch_loss,
                            "param_norms": {
                                name: float(np.linalg.norm(p.data))
                                for name, p in sorted(params.items())
                            },
                        },
                    )
                t0 = perf_counter()
                inv = 1.0 / len(batch)
                # leaf gradients are owned copies, so they scale in place
                grad_norms = {}
                for name, p in params.items():
                    if p.grad is not None:
                        p.grad *= inv
                        grad_norms[name] = float(np.linalg.norm(p.grad))
                grad_norm = float(np.sqrt(sum(n * n for n in grad_norms.values())))
                if not np.isfinite(grad_norm):
                    bad = sorted(name for name, n in grad_norms.items() if not np.isfinite(n))
                    raise TrainingDivergedError(
                        f"non-finite gradient at step {step} in {', '.join(bad)}",
                        diagnostics={"step": step, "loss": batch_loss, "grad_norm": grad_norm,
                                     "non_finite": bad},
                    )
                optimizer.step()
                phase_s["optim_s"] += perf_counter() - t0
                step += 1
                if step % train_cfg.eval_every == 0 or step == train_cfg.max_steps:
                    metrics = record(step, batch_loss, grad_norm, "val" if val_set else "train")
                    if metrics.area_accuracy > best_acc:
                        best_acc = metrics.area_accuracy
                        # after the last step the live parameters are the best
                        best_params = snapshot() if step < train_cfg.max_steps else None
            epoch += 1
    finally:
        if log_file:
            log_file.close()
    if best_params is not None:
        for name, data in best_params.items():
            params[name].data = data
    return params, history
