"""The three workloads. Each is a closed loop: one caller, one mesh or one
training call at a time, inputs made from the seed.

A workload object offers ``setup()`` (timed and repeated by run.py),
``check_setup()``, ``warmup()``, ``iteration(i, log, tracer)``,
``checkpoint()``/``restore()`` (so the traced run can repeat iteration 0
untraced and traced on the same state), and ``results()``.

Program calls go through module attributes (``pp.load_sample``, not a name
imported here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import meshgen
from meshseg import autodiff as ad
from meshseg import cli
from meshseg import model as modelmod
from meshseg import preprocess as pp
from meshseg import train as trainmod
from meshseg.autodiff import Tensor
from meshseg.errors import TrainingDivergedError
from meshseg.mesh_io import LabelVec, Mesh


class Log:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def percentiles(values: list[float], unit: str) -> dict:
    """p50 always; a tail percentile only with at least ten samples beyond it."""
    out = {"p50": {"value": statistics.median(values), "unit": unit, "n": len(values)}}
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            out[f"p{pct}"] = {"value": q, "unit": unit, "n": len(values)}
    return out


def _span(tracer, name):
    return tracer.begin(name) if tracer else None


def _end(tracer, sid):
    if tracer:
        tracer.end(sid)


class RawMesh:
    """Raw OFF meshes through ``meshseg preprocess`` and ``meshseg segment``."""

    name = "raw-mesh"
    POINTS = 2562  # 2562 vertices, 5120 faces
    POOL = 4  # distinct meshes; later iterations cycle through them
    min_iterations = 2
    setup_repeats = 5
    PREPROCESS = pp.PreprocessConfig()  # the CLI defaults: 1200 vertices, 2412 faces
    MODEL = dict(num_classes=meshgen.NUM_CLASSES, eigen_count=16, d_t=64, d_p=64,
                 num_layers=2, num_heads=4)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.preprocess_s: list[float] = []
        self.segment_s: list[float] = []
        self.inputs: dict[int, dict] = {}

    def setup(self) -> None:
        self.meshes = []
        for k in range(self.POOL):
            mesh = meshgen.star_mesh(np.random.default_rng([self.seed, k]), self.POINTS)
            root = self.workdir / f"dataset{k}"
            (root / "shapes").mkdir(parents=True, exist_ok=True)
            (root / "labels").mkdir(exist_ok=True)
            meshgen.write_off(mesh, root / "shapes" / f"mesh{k}.off")
            meshgen.write_labels(mesh, root / "labels" / f"mesh{k}.txt")
            self.meshes.append(mesh)
        cfg = modelmod.ModelConfig(**self.MODEL)
        params = modelmod.init_params(cfg, np.random.default_rng([self.seed, 1 << 20]))
        self.checkpoint_path = self.workdir / "model.ckpt"
        modelmod.save_checkpoint(self.checkpoint_path, params, cfg)

    def check_setup(self, log: Log) -> None:
        pass

    def warmup(self) -> None:
        pass

    def checkpoint(self):
        return None

    def restore(self, state) -> None:
        pass

    def iteration(self, i: int, log: Log, tracer) -> None:
        k = i % self.POOL
        root = self.workdir / f"dataset{k}"
        out = self.workdir / f"samples{k}"
        stem = f"mesh{k}"

        sid = _span(tracer, "cli.preprocess")
        t0 = perf_counter()
        code, printed = _cli(["preprocess", str(root), str(out)])
        self.preprocess_s.append(perf_counter() - t0)
        _end(tracer, sid)
        problems = [] if code == 0 else [f"exit code {code}"]
        written = sorted(out.glob("*.sample"))
        if [p.stem for p in written] != [stem]:
            problems.append(f"wrote {[p.name for p in written]}")
        sample = None
        if not problems:
            sample = pp.load_sample(written[0])
            problems += self._check_sample(sample, printed, stem)
        log.record("preprocess", problems)

        ply = self.workdir / f"segment{k}.ply"
        sid = _span(tracer, "cli.segment")
        t0 = perf_counter()
        code, _ = _cli(["segment", str(root / "shapes" / f"{stem}.off"),
                        str(self.checkpoint_path), str(ply)])
        self.segment_s.append(perf_counter() - t0)
        _end(tracer, sid)
        if code != 0:
            problems = [f"exit code {code}"]
        elif sample is None:
            problems = ["no sample to compare the segmentation with"]
        else:
            problems = checks.segmentation_ply(
                ply.read_text(), sample.n_real, self.MODEL["num_classes"]
            )
        log.record("segment", problems)

        if sample is not None and k not in self.inputs:
            self.inputs[k] = {
                "input": stem,
                **self.meshes[k].stats(),
                "clusters": sample.num_clusters,
                # QEM keeps the closed genus-0 topology, so V = F / 2 + 2
                "qem_reached": sample.n_real // 2 + 2 <= self.PREPROCESS.target_vertices,
            }

    def _check_sample(self, sample, printed: str, stem: str) -> list[str]:
        problems = checks.sample_invariants(
            sample, self.PREPROCESS.target_faces, self.PREPROCESS.eigen_count
        )
        row = next((line.split() for line in printed.splitlines()
                    if line.split()[:1] == [stem]), None)
        expected = [stem, str(sample.n_real), str(sample.num_clusters), str(sample.eigen_count)]
        if row != expected:
            problems.append(f"preprocess reported {row}, reloaded sample has {expected}")
        return problems + checks.round_trip(sample, self.workdir)

    def results(self) -> tuple[dict, dict]:
        """(end-to-end metrics, the same under the names of the layers they time)."""
        meshes_per_s = len(self.preprocess_s) / sum(self.preprocess_s)
        seg = percentiles(self.segment_s, "s")
        report = {"preprocess.meshes_per_s": {"value": meshes_per_s, "unit": "1/s",
                                              "n": len(self.preprocess_s)}}
        report.update({f"segment.mesh_s.{k}": v for k, v in seg.items()})
        report["samples_s"] = {"preprocess": self.preprocess_s, "segment": self.segment_s}
        return {"items_per_s": meshes_per_s, "mesh_s.p50": seg["p50"]["value"]}, report


class TrainWorkload:
    """Labeled meshes preprocessed in memory, ``train.train()`` calls that
    continue from the previous parameters, then ``evaluate([s])`` per mesh."""

    name: str
    POINTS: int
    MESHES: int
    PREPROCESS: pp.PreprocessConfig
    MODEL: dict
    TRAIN: trainmod.TrainConfig
    min_iterations = 1
    setup_repeats = 5
    accuracy_iteration: int | None = None  # report accuracy after this iteration

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model_cfg = modelmod.ModelConfig(**self.MODEL)
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.accuracy = None

    def setup(self) -> None:
        self.meshes = [
            meshgen.star_mesh(np.random.default_rng([self.seed, k]), self.POINTS)
            for k in range(self.MESHES)
        ]
        self.samples = [
            pp.build_sample(Mesh(vertices=m.vertices, faces=m.faces),
                            LabelVec(labels=m.labels, num_classes=meshgen.NUM_CLASSES),
                            self.PREPROCESS)
            for m in self.meshes
        ]
        self.params = modelmod.init_params(
            self.model_cfg, np.random.default_rng([self.seed, 1 << 20])
        )

    def check_setup(self, log: Log) -> None:
        for sample in self.samples:
            log.record("build_sample", checks.sample_invariants(
                sample, self.PREPROCESS.target_faces, self.PREPROCESS.eigen_count
            ) + checks.round_trip(sample, self.workdir))

    def warmup(self) -> None:
        pass

    def checkpoint(self):
        return self.params

    def restore(self, state) -> None:
        self.params = state

    def iteration(self, i: int, log: Log, tracer) -> None:
        cfg = replace(self.TRAIN, seed=self.seed * 1000 + i)
        # train() updates the tensors it is given; a copy keeps self.params
        # intact until the call returns, so restore() can rewind
        start = {name: Tensor(p.data.copy(), requires_grad=True)
                 for name, p in self.params.items()}
        t0 = perf_counter()
        try:
            params, history = trainmod.train(self.samples, self.model_cfg, cfg, params=start)
        except (TrainingDivergedError, ValueError) as exc:  # counted; the loop goes on
            self.train_s.append(perf_counter() - t0)
            log.record("train", [f"{type(exc).__name__}: {exc}"])
            return
        self.train_s.append(perf_counter() - t0)
        log.record("train", [p for h in history
                             for p in checks.finite(loss=h["loss"], accuracy=h["accuracy"])])
        self.params = params

        correct = total = 0.0
        for sample in self.samples:
            if tracer:
                tracer.new_request("eval")
            t0 = perf_counter()
            metrics = trainmod.evaluate([sample], params, self.model_cfg)
            self.eval_s.append(perf_counter() - t0)
            log.record("evaluate", checks.finite(
                loss=metrics.mean_loss, accuracy=metrics.area_accuracy
            ))
            area = sample.areas[sample.real_mask].sum()
            correct += metrics.area_accuracy * area
            total += area
        if i == self.accuracy_iteration:
            self.accuracy = correct / total

    def results(self) -> tuple[dict, dict]:
        per_call = self.TRAIN.max_steps * min(self.TRAIN.batch_size, self.MESHES)
        rates = [per_call / t for t in self.train_s]
        samples_per_s = statistics.median(rates)
        ev = percentiles(self.eval_s, "s")
        report = {"train.samples_per_s": {"value": samples_per_s, "unit": "1/s",
                                          "n": len(rates)}}
        report.update({f"eval.mesh_s.{k}": v for k, v in ev.items()})
        report["samples_s"] = {"train": self.train_s, "eval": self.eval_s}
        if self.accuracy is not None:
            steps = (self.accuracy_iteration + 1) * self.TRAIN.max_steps
            report["train.area_accuracy"] = {"value": self.accuracy, "unit": "share",
                                             "steps": steps}
        return {"items_per_s": samples_per_s, "mesh_s.p50": ev["p50"]["value"]}, report

    @property
    def inputs(self) -> dict[int, dict]:
        # these meshes are at or below the QEM target, so QEM never runs
        return {
            k: {"input": f"mesh{k}", **m.stats(), "clusters": s.num_clusters,
                "qem_reached": len(m.vertices) <= self.PREPROCESS.target_vertices}
            for k, (m, s) in enumerate(zip(self.meshes, self.samples))
        }


class TrainSmall(TrainWorkload):
    """The acceptance size: per-op Python and graph bookkeeping dominate."""

    name = "train-small"
    POINTS = 102  # 200 faces, padded to 210
    MESHES = 8
    PREPROCESS = pp.PreprocessConfig(target_faces=210, eigen_count=8)
    MODEL = dict(num_classes=meshgen.NUM_CLASSES, eigen_count=8, d_t=64, d_p=64,
                 num_layers=2, num_heads=4, max_clusters=32)
    TRAIN = trainmod.TrainConfig(lr=1e-3, batch_size=4, max_steps=10,
                                 validation_fraction=0.0, augment=True, eval_every=10**9)
    accuracy_iteration = 3  # 40 optimizer steps
    min_iterations = 4


class TrainPaper(TrainWorkload):
    """Paper widths at N=2412: dense N x N attention and the N-row cluster
    stream dominate. One layer, because two already peak at 6.65 GB."""

    name = "train-paper"
    POINTS = 1200  # 2396 faces, at the QEM target, so setup skips QEM
    MESHES = 1
    PREPROCESS = pp.PreprocessConfig(eigen_count=16)
    MODEL = dict(num_classes=meshgen.NUM_CLASSES, eigen_count=16, d_t=512, d_p=1024,
                 num_layers=1, num_heads=8)
    TRAIN = trainmod.TrainConfig(lr=5e-5, batch_size=1, max_steps=1,
                                 validation_fraction=0.0, augment=True, eval_every=10**9)
    min_iterations = 2
    setup_repeats = 3  # each builds a 2396-face sample, about 2.5 s

    def warmup(self) -> None:
        # the first paper-width step runs far slower than later ones
        sample = self.samples[0]
        scores = modelmod.met_forward(sample, self.params, self.model_cfg, training=True,
                                      rng=np.random.default_rng(0))
        weights = trainmod.area_weights(sample.areas, sample.real_mask)
        ad.backward(trainmod.weighted_cross_entropy(scores, sample.labels, weights))
        for p in self.params.values():
            p.zero_grad()


WORKLOADS = {w.name: w for w in (RawMesh, TrainSmall, TrainPaper)}


def _cli(args: list[str]) -> tuple[int, str]:
    """Run ``meshseg <args>`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()
