"""Spans and op timers wrapped around meshseg's public functions, from outside.

Nothing here runs unless :meth:`Tracer.install` is called, which only the
traced run (``--trace 1``) does. Layer functions get a span each (name,
start, end, parent span, request id); spans stay in memory and are written
once at the end. Autodiff ops run about 10^5 times per run, so they get
aggregated counters instead of spans: calls, forward self time, and the
time of the backward closure each op returns.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

AUTODIFF_OPS = (
    "matmul", "add", "mul", "scale", "relu", "transpose", "concat_last",
    "slice_last", "reduce_sum", "reduce_mean", "embedding_lookup",
    "masked_softmax", "log_softmax", "gather_rows", "layer_norm", "dropout",
)

# (module, function, span name) for every layer boundary that gets a span;
# functions imported by name into other meshseg modules are replaced there too
LAYER_FUNCTIONS = (
    ("meshseg.mesh_io", "parse_off", "mesh_io.parse"),
    ("meshseg.mesh_io", "parse_obj", "mesh_io.parse"),
    ("meshseg.mesh_io", "parse_face_labels", "mesh_io.parse"),
    ("meshseg.mesh_io", "merge_duplicate_vertices", "mesh_io.merge"),
    ("meshseg.mesh_io", "write_ply_colored", "mesh_io.write_ply"),
    ("meshseg.simplify", "simplify_qem", "simplify.qem"),
    ("meshseg.spectral", "build_dual_adjacency", "spectral.dual_graph"),
    ("meshseg.spectral", "normalized_laplacian", "spectral.laplacian"),
    ("meshseg.spectral", "smallest_eigenpairs", "spectral.eigen"),
    ("meshseg.clustering", "ward_constrained", "clustering.ward"),
    ("meshseg.preprocess", "build_sample", "preprocess.build_sample"),
    ("meshseg.preprocess", "save_sample", "preprocess.save"),
    ("meshseg.preprocess", "load_sample", "preprocess.load"),
    ("meshseg.model", "build_masks", "model.build_masks"),
    ("meshseg.model", "met_forward", "model.forward"),
    ("meshseg.model", "multi_head_attention", "model.attention"),
    ("meshseg.model", "load_checkpoint", "model.checkpoint.load"),
    ("meshseg.train", "train", "train.train"),
    ("meshseg.train", "augment", "train.augment"),
    ("meshseg.train", "weighted_cross_entropy", "train.loss"),
    ("meshseg.train", "evaluate", "train.evaluate"),
    ("meshseg.autodiff", "backward", "autodiff.backward"),
)

# per-layer metric -> span name whose total time per iteration it reports
SPAN_SECONDS = {
    "simplify.qem.s": "simplify.qem",
    "clustering.ward.s": "clustering.ward",
    "spectral.dual_graph.s": "spectral.dual_graph",
    "spectral.laplacian.s": "spectral.laplacian",
    "spectral.eigen.s": "spectral.eigen",
    "mesh_io.parse.s": "mesh_io.parse",
    "mesh_io.merge.s": "mesh_io.merge",
    "mesh_io.write_ply.s": "mesh_io.write_ply",
    "preprocess.build_sample.s": "preprocess.build_sample",
    "preprocess.save.s": "preprocess.save",
    "preprocess.load.s": "preprocess.load",
    "model.build_masks.s": "model.build_masks",
    "model.forward.train_s": "model.forward.train",
    "model.forward.eval_s": "model.forward.eval",
    "model.attention.ct.s": "model.attention.ct",
    "model.attention.sa_t.s": "model.attention.sa_t",
    "model.attention.sa_p.s": "model.attention.sa_p",
    "model.checkpoint.load_s": "model.checkpoint.load",
    "autodiff.backward.s": "autodiff.backward",
    "optim.step.s": "optim.step",
    "train.augment.s": "train.augment",
    "train.loss.s": "train.loss",
    "train.evaluate.s": "train.evaluate",
}

# per-layer metric -> span name counted in the first traced iteration
SPAN_CALLS = {
    "simplify.qem.calls": "simplify.qem",
    "spectral.eigen.calls": "spectral.eigen",
}

# metrics that must repeat exactly across runs with the same seed
COUNT_METRICS = (
    *SPAN_CALLS,
    *(f"autodiff.{op}.calls" for op in AUTODIFF_OPS),
    "clustering.merges",
    "simplify.vertices_removed",
    "autodiff.matmul.gmac",
    "autodiff.masked_softmax.mb",
    "model.mask_mb",
    "autodiff.graph.nodes",
    "autodiff.graph.mb",
    "preprocess.sample_bytes",
)


def _graph_size(loss) -> tuple[int, int]:
    """Nodes and array bytes reachable from a loss through its parents."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


class Tracer:
    def __init__(self):
        # each span: [id, parent id, iteration, request, name, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.iteration = -1
        self.request = ""
        self._requests = 0
        self._train_request = None
        # counters of the current iteration; frozen after the first one
        self.counts: dict[str, float] = defaultdict(float)
        self.first_counts: dict[str, float] | None = None
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_fwd: dict[str, float] = defaultdict(float)
        self.op_bwd: dict[str, float] = defaultdict(float)
        self._op_child: list[float] = []
        self._bwd_in_ops = 0.0
        self.backward_op_s = 0.0  # op closure time inside backward() calls
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def new_request(self, kind: str) -> None:
        self._requests += 1
        self.request = f"{kind}-{self._requests}"

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([sid, parent, self.iteration, self.request, name, perf_counter(), 0.0])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][6] = perf_counter()
        self._open.pop()

    def begin_iteration(self, index: int) -> None:
        self.iteration = index

    def end_iteration(self) -> None:
        if self.first_counts is None:
            self.first_counts = dict(self.counts)
            self.first_counts.update(
                {f"autodiff.{op}.calls": float(self.op_calls[op]) for op in AUTODIFF_OPS}
            )
            for metric, span_name in SPAN_CALLS.items():
                self.first_counts[metric] = float(
                    sum(1 for s in self.spans if s[4] == span_name and s[2] == self.iteration)
                )

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every function that exists; absent ones are listed in
        ``missing`` and their metrics stay 0."""
        modules = [
            importlib.import_module(f"meshseg.{name}")
            for name in ("mesh_io", "simplify", "spectral", "clustering", "preprocess",
                         "model", "optim", "train", "autodiff", "data", "cli")
        ]
        ad = sys.modules["meshseg.autodiff"]
        for op in AUTODIFF_OPS:
            if hasattr(ad, op):
                self._replace(modules, ad, op, self._op_wrapper(op, getattr(ad, op)))
            else:
                self.missing.append(f"meshseg.autodiff.{op}")
        for module_name, func, span_name in LAYER_FUNCTIONS:
            module = sys.modules[module_name]
            if hasattr(module, func):
                wrapper = self._layer_wrapper(span_name, getattr(module, func))
                self._replace(modules, module, func, wrapper)
            else:
                self.missing.append(f"{module_name}.{func}")
        adamw = sys.modules["meshseg.optim"].AdamW
        adamw.step = self._layer_wrapper("optim.step", adamw.step)

    @staticmethod
    def _replace(modules, owner, name, wrapper) -> None:
        original = getattr(owner, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _layer_wrapper(self, span_name, fn):
        tracer = self
        hook = getattr(self, "_hook_" + span_name.replace(".", "_"), None)

        def wrapped(*args, **kwargs):
            name = span_name
            if span_name == "model.forward":
                training = kwargs.get("training", args[3] if len(args) > 3 else False)
                name = "model.forward.train" if training else "model.forward.eval"
            elif span_name == "model.attention":
                name = "model.attention." + kwargs.get("name", args[1]).rsplit(".", 1)[-1]
            elif span_name == "train.train":
                tracer.new_request("train")
                tracer._train_request = tracer.request
            elif span_name == "train.augment" and tracer._train_request:
                tracer.new_request("sample")
            elif span_name == "optim.step" and tracer._train_request:
                tracer.request = tracer._train_request
            elif span_name == "autodiff.backward" and tracer.first_counts is None:
                if "autodiff.graph.nodes" not in tracer.counts:
                    nodes, nbytes = _graph_size(args[0])
                    tracer.counts["autodiff.graph.nodes"] = float(nodes)
                    tracer.counts["autodiff.graph.mb"] = nbytes / 1e6
            before = tracer._bwd_in_ops
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
                if span_name == "train.train":
                    tracer._train_request = None
                elif span_name == "autodiff.backward":
                    tracer.backward_op_s += tracer._bwd_in_ops - before
                    if tracer._train_request:
                        tracer.request = tracer._train_request
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapped

    def _op_wrapper(self, op, fn):
        tracer = self
        calls, fwd, bwd = self.op_calls, self.op_fwd, self.op_bwd
        child = self._op_child

        def timed_backward(backward_fn):
            def run(g):
                t0 = perf_counter()
                out = backward_fn(g)
                dt = perf_counter() - t0
                bwd[op] += dt
                tracer._bwd_in_ops += dt
                return out

            run.perfbench_op = op
            return run

        def wrapped(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
            fwd[op] += dt - inner
            calls[op] += 1
            if op == "matmul":
                m, n = out.data.shape
                tracer.counts["autodiff.matmul.macs"] += m * n * args[1].shape[0]
            elif op == "masked_softmax":
                tracer.counts["autodiff.masked_softmax.bytes"] += out.data.nbytes
            backward_fn = out._backward_fn
            # ops that return another op's output (dropout in eval mode,
            # reduce_mean) keep that op's already timed closure
            if backward_fn is not None and not hasattr(backward_fn, "perfbench_op"):
                out._backward_fn = timed_backward(backward_fn)
            return out

        return wrapped

    # -- count hooks (run after the wrapped call returns) ------------------

    def _hook_simplify_qem(self, args, kwargs, result):
        self.counts["simplify.vertices_removed"] += args[0].num_vertices - result[0].num_vertices

    def _hook_clustering_ward(self, args, kwargs, result):
        self.counts["clustering.merges"] += len(args[0]) - result.num_clusters

    def _hook_model_build_masks(self, args, kwargs, result):
        mb = sum(getattr(a, "nbytes", 0) for a in vars(result).values()) / 1e6
        self.counts["model.mask_mb"] = max(self.counts["model.mask_mb"], mb)

    def _hook_preprocess_save(self, args, kwargs, result):
        self.counts["preprocess.sample_bytes"] += os.path.getsize(args[1])

    # -- results ---------------------------------------------------------

    def metrics(self, iterations: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics: times are seconds per traced iteration, counts
        come from the first traced iteration."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, name, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        segment_self = sum(
            (end - start) - child[sid]
            for sid, _, _, _, name, start, end in self.spans
            if name == "cli.segment"
        )
        per = 1.0 / iterations
        out = {metric: total[span] * per for metric, span in SPAN_SECONDS.items()}
        out["cli.segment.self_s"] = segment_self * per
        out["autodiff.backward.self_s"] = (total["autodiff.backward"] - self.backward_op_s) * per
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.fwd_s"] = self.op_fwd[op] * per
            out[f"autodiff.{op}.bwd_s"] = self.op_bwd[op] * per
        first = defaultdict(float, self.first_counts or {})
        first["autodiff.matmul.gmac"] = first.pop("autodiff.matmul.macs", 0.0) / 1e9
        first["autodiff.masked_softmax.mb"] = first.pop("autodiff.masked_softmax.bytes", 0.0) / 1e6
        out.update({metric: first[metric] for metric in COUNT_METRICS})
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "iteration", "request", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
