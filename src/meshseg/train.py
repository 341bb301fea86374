"""Loss, metrics, augmentation, and the training/evaluation loops.

The loss is cross-entropy weighted by each triangle's share of the total
surface, one ``autodiff.weighted_nll`` graph node per mesh; accuracy is
correctly classified area over total area, pooled across meshes.
Everything is reproducible from the seed: batches are processed in
sample-index order and per-sample RNG streams are derived from (seed,
epoch, sample index).

Where BLAS leaves CPUs idle, ``train`` splits each batch over forked
processes (see :func:`process_count`) and adds their per-sample gradients
in sample order, so every loss, gradient and parameter equals the serial
loop's bit for bit.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import pickle
import resource
import signal
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.errors import ConfigError, TrainingDivergedError, TrainingWorkerError, check_config
from meshseg.model import ModelConfig, build_masks, init_params, met_forward
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
    "blas_threads",
    "process_count",
    "train",
    "evaluate",
]

#: Bounds of ``augment``'s uniform scale factor and of its per-axis shift.
SCALE_RANGE = (0.9, 1.1)
TRANSLATION_RANGE = 0.1

#: The variables that set OpenBLAS's thread count, in the order it reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


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


def blas_threads(environ) -> int | None:
    """BLAS's thread count as ``environ`` sets it: the first of
    ``BLAS_THREAD_VARS`` that holds a positive integer, or None when none
    does, and BLAS runs one thread per CPU."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


# read as this module loads, after numpy's BLAS has read the same variables
_START_BLAS_THREADS = blas_threads(os.environ)


def process_count(batch_size: int, cpus: int, threads: int | None) -> int:
    """How many processes share each training batch: ``min(batch_size,
    cpus // threads)`` for ``threads`` BLAS threads per process, and 1 when
    BLAS runs one thread per CPU (``threads`` None). More processes than
    that would oversubscribe the cores."""
    if threads is None:
        return 1
    return max(1, min(batch_size, cpus // threads))


def _host() -> tuple[int, int | None]:
    """The CPUs this process may run on and BLAS's thread count as the
    environment set it at start."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus, _START_BLAS_THREADS


def _train_sample(sample, masks, params, model_cfg, train_cfg, epoch, idx):
    """One training sample's augmentation, forward, loss and backward pass,
    which adds its gradient onto each parameter's ``.grad``, all from the
    rng stream of (seed, epoch, sample index). Returns the loss and the
    forward and backward seconds."""
    sample_rng = np.random.default_rng((train_cfg.seed, epoch, int(idx)))
    if train_cfg.augment:
        sample = augment(sample, sample_rng)
    t0 = perf_counter()
    loss = weighted_cross_entropy(
        met_forward(sample, params, model_cfg, training=True, rng=sample_rng, masks=masks),
        sample.labels, area_weights(sample.areas, sample.real_mask),
    )
    loss_value = loss.item()
    t1 = perf_counter()
    ad.backward(loss)  # consumes the graph; loss keeps only its value
    return loss_value, t1 - t0, perf_counter() - t1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, set as its cause."""


class _Workers:
    """The forked processes of a batch split. Worker k trains the samples
    the parent sends it and hands each gradient back through its slot: one
    view per parameter into its own region of the shared mapping."""

    def __init__(self, params, slots):
        self.params = params
        self.slots = slots
        self.conns = []
        self.procs = []
        self.peak_rss_mb = 0.0  # the largest peak RSS a worker reported

    def start(self, context, run):
        for slot in self.slots:
            parent_end, child_end = context.Pipe()
            proc = context.Process(target=_work, args=(child_end, slot, self.params, run),
                                   daemon=True)
            proc.start()
            self.conns.append(parent_end)
            self.procs.append(proc)
            # the worker's end now lives in the worker alone, so its death
            # reads as end-of-file here
            child_end.close()

    def send(self, k, epoch, idx):
        self.conns[k - 1].send((epoch, idx))

    def collect(self, k):
        """Wait for worker k's sample, add its gradient onto each ``.grad``
        and return its loss and phase seconds; raise the sample's exception,
        or TrainingWorkerError when the worker died.

        The parent polls rather than blocks: each wait lasts about as long
        as two samples' run times differ, and a parent that sleeps that
        often lets a hypervisor park its virtual CPU and run it slower
        afterwards. On a 2-vCPU KVM guest, the evaluations that followed a
        split train() call ran about 45% slower than after one process
        while the parent blocked here, and 5-30% slower once it polled,
        depending on the host's load."""
        conn = self.conns[k - 1]
        while not conn.poll(0):  # true once a reply or end-of-file is there
            pass
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            proc = self.procs[k - 1]
            proc.join(1.0)
            raise TrainingWorkerError(
                f"training worker {k} ended without returning its sample "
                f"(exit code {proc.exitcode})"
            ) from None
        if reply[0] == "error":
            raise reply[1] from _WorkerTraceback(reply[2])
        _, loss_value, forward_s, backward_s, names, rss_kb = reply
        slot = self.slots[k - 1]
        for name in names:
            p = self.params[name]
            if p.grad is None:
                p.grad = slot[name].copy()
            else:
                p.grad += slot[name]
        self.peak_rss_mb = max(self.peak_rss_mb, rss_kb / 1024)
        return loss_value, forward_s, backward_s

    def close(self, kill: bool):
        for conn, proc in zip(self.conns, self.procs):
            if kill:
                proc.kill()
            else:
                try:
                    conn.send(None)
                except OSError:  # the worker is gone already
                    pass
        for conn, proc in zip(self.conns, self.procs):
            proc.join()
            conn.close()


def _work(conn, slot, params, run):
    """A worker's loop: train each (epoch, idx) the parent sends, copy each
    gradient into ``slot`` and reply with the loss, the phase seconds, the
    names of the parameters that got a gradient and this process's peak
    RSS in KiB; reply with the exception and its traceback when the sample
    raises. Ends at None, or when the parent's end of the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            loss_value, forward_s, backward_s = run(*task)
            names = []
            for name, p in params.items():
                if p.grad is not None:
                    slot[name][...] = p.grad
                    p.grad = None
                    names.append(name)
            reply = ("ok", loss_value, forward_s, backward_s, names,
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception as exc:
            for p in params.values():
                p.grad = None
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception the parent could not rebuild
                exc = TrainingWorkerError(f"{type(exc).__name__}: {exc}")
            reply = ("error", exc, traceback.format_exc())
        conn.send(reply)


@contextmanager
def _split_batches(processes: int, params: dict[str, Tensor], run):
    """Yield the :class:`_Workers` of ``processes - 1`` forked processes
    that each call ``run(epoch, idx)``, or None when ``processes`` is 1,
    which maps and forks nothing.

    Before the fork the parameters move into one anonymous shared mapping,
    so the parent's in-place optimizer steps reach the workers; each worker
    gets a gradient slot of the same layout after it. On the way out the
    workers end, told to stop when the block exits normally and killed when
    it raises, and each view is copied back into the array its parameter
    held before, so no parameter outlives the mapping in it."""
    if processes == 1:
        yield None
        return
    import multiprocessing  # only a split run loads it

    offsets = {}
    end = 0
    for name, p in params.items():
        end = -(-end // 64) * 64  # each array starts on a cache line
        offsets[name] = end
        end += p.data.nbytes
    region = -(-end // 64) * 64
    buffer = mmap.mmap(-1, region * processes)

    def views(base):
        return {name: np.frombuffer(buffer, p.dtype, p.data.size, base + offsets[name])
                .reshape(p.shape) for name, p in params.items()}

    owned = {name: p.data for name, p in params.items()}
    for name, view in views(0).items():
        view[...] = params[name].data
        params[name].data = view
    workers = _Workers(params, [views(region * k) for k in range(1, processes)])
    failed = True
    try:
        workers.start(multiprocessing.get_context("fork"), run)
        yield workers
        failed = False
    finally:
        workers.close(kill=failed)
        for name, p in params.items():
            owned[name][...] = p.data
            p.data = owned[name]


def train(
    samples: list[Sample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    dtype=np.float32,
    metrics_path: str | Path | None = None,
    params: dict[str, Tensor] | None = None,
):
    """Mini-batch AdamW training with a held-out validation fraction.

    Builds each training sample's attention masks once; augmentation moves
    only coordinates, so they serve every forward of the sample. Each step
    augments a sample, runs its training forward and computes its area
    weights afresh. Each sample's backward pass consumes its graph, and
    gradients are cleared before the first step; each optimizer step
    consumes them, freeing each one once applied, so evaluations run with
    neither a graph nor gradients alive.

    Each batch is split over P processes (:func:`process_count` of the
    batch, the usable CPUs and BLAS's thread count): the parent trains the
    sorted batch's positions 0, P, 2P, ..., and worker k, forked for this
    call, positions k, P + k, .... After each round the parent adds the
    workers' gradients and losses in position order, so every sum is the
    serial loop's. Each worker holds its own graph and gradient.

    Returns ``(best_params, history)``: the parameters with the best
    validation area accuracy (training accuracy when the validation split
    is empty), each with ``.grad`` None, and the list of logged records.
    A record holds ``step``, ``loss`` (the batch's mean), ``accuracy``,
    ``split``, the step's ``grad_norm``, the ``forward_s``, ``backward_s``
    and ``optim_s`` summed since the previous record, ``samples_per_s``
    over the training time since then, the process's ``peak_rss_mb`` so
    far, the ``processes`` P, and the largest ``worker_peak_rss_mb`` a
    worker has reported (0 without workers). ``forward_s`` and
    ``backward_s`` cover the samples of every process. Each record is also
    one line of ``metrics_path``.
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
    train_masks = [build_masks(s, model_cfg.num_heads, dtype=params["embed.w"].dtype)
                   for s in train_set]

    def run(epoch, idx):
        return _train_sample(train_set[idx], train_masks[idx], params, model_cfg, train_cfg,
                             epoch, idx)

    cpus, threads = _host()
    processes = process_count(min(train_cfg.batch_size, len(train_set)), cpus, threads)

    history: list[dict] = []
    best_acc = -1.0
    best_params = None
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
            "processes": processes,
            "worker_peak_rss_mb": workers.peak_rss_mb if workers else 0.0,
        }
        history.append(entry)
        logger.info("step %(step)d loss %(loss).4f accuracy %(accuracy).4f "
                    "grad_norm %(grad_norm).4g forward_s %(forward_s).3f "
                    "backward_s %(backward_s).3f optim_s %(optim_s).3f "
                    "samples_per_s %(samples_per_s).2f peak_rss_mb %(peak_rss_mb).1f "
                    "processes %(processes)d worker_peak_rss_mb %(worker_peak_rss_mb).1f",
                    entry)
        if log_file:
            log_file.write(json.dumps(entry) + "\n")
            log_file.flush()
        phase_s.update(dict.fromkeys(phase_s, 0.0))
        trained = 0
        since = perf_counter()
        return metrics

    # before the fork, so that no worker starts from a gradient the caller left
    optimizer.zero_grad()
    metrics_file = open(metrics_path, "w") if metrics_path else nullcontext()
    with metrics_file as log_file, _split_batches(processes, params, run) as workers:
        step = 0
        epoch = 0
        while step < train_cfg.max_steps:
            order = np.random.default_rng((train_cfg.seed, 7, epoch)).permutation(
                len(train_set)
            )
            for start in range(0, len(order), train_cfg.batch_size):
                if step >= train_cfg.max_steps:
                    break
                batch = sorted(order[start : start + train_cfg.batch_size])
                batch_loss = 0.0
                # rounds of P positions: the parent trains the first,
                # worker k the k-th, and the results join in order
                for first in range(0, len(batch), processes):
                    ids = batch[first : first + processes]
                    for k in range(1, len(ids)):
                        workers.send(k, epoch, ids[k])
                    results = [run(epoch, ids[0])]
                    results += [workers.collect(k) for k in range(1, len(ids))]
                    for loss_value, forward_s, backward_s in results:
                        batch_loss += loss_value
                        phase_s["forward_s"] += forward_s
                        phase_s["backward_s"] += backward_s
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
    if best_params is not None:
        for name, data in best_params.items():
            params[name].data = data
    return params, history
