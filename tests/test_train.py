"""Loss, metrics, augmentation, and the training loop."""

import json
import logging
import weakref
from dataclasses import replace

import numpy as np
import pytest

from meshseg import autodiff as ad
from meshseg.autodiff import Tensor
from meshseg.cli import ABLATIONS
from meshseg.errors import ConfigError, TrainingDivergedError
from meshseg.model import init_params, met_forward
from meshseg.preprocess import PAD_LABEL, pad_sample
from meshseg.train import (
    TrainConfig,
    area_weights,
    augment,
    evaluate,
    random_rotation,
    train,
    weighted_cross_entropy,
)

from conftest import (
    RUN_MEASUREMENTS,
    area_accuracy,
    small_model_config,
    small_sample,
    trajectory,
)
from op_oracles import reduce_sum, weighted_nll_oracle

# held_bytes of the graph in test_training_graph_holds_only_what_backward_reads, as
# measured with fused linear layers, lean op closures and value-less graph nodes
# (with every node keeping its value: 1,265,744; unfused as well: 2,182,304)
GRAPH_BYTES_BOUND = 1_006_536


class TestAreaWeights:
    def test_one_three(self):
        w = area_weights(np.array([1.0, 3.0]), np.array([True, True]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_uniform(self):
        w = area_weights(np.ones(4), np.ones(4, dtype=bool))
        np.testing.assert_allclose(w, 0.25)

    def test_padding_weight_exactly_zero(self):
        w = area_weights(np.array([1.0, 5.0]), np.array([True, False]))
        assert w[1] == 0.0
        assert w[0] == 1.0

    def test_zero_total_area(self):
        with pytest.raises(ValueError):
            area_weights(np.zeros(2), np.ones(2, dtype=bool))


class TestWeightedCrossEntropy:
    def test_uniform_scores_give_ln2(self):
        scores = Tensor(np.zeros((2, 2)))
        loss = weighted_cross_entropy(
            scores, np.array([0, 1]), np.array([0.25, 0.75])
        )
        np.testing.assert_allclose(loss.item(), np.log(2), atol=1e-12)

    def test_confident_correct_near_zero(self):
        scores = Tensor(np.array([[20.0, 0.0], [0.0, 20.0]]))
        loss = weighted_cross_entropy(scores, np.array([0, 1]), np.array([0.5, 0.5]))
        assert loss.item() <= 1e-6

    def test_zero_weight_row_has_no_influence(self):
        labels = np.array([0, 1])
        weights = np.array([1.0, 0.0])
        a = weighted_cross_entropy(
            Tensor(np.array([[1.0, 2.0], [0.0, 0.0]])), labels, weights
        )
        b = weighted_cross_entropy(
            Tensor(np.array([[1.0, 2.0], [99.0, -5.0]])), labels, weights
        )
        assert a.item() == b.item()

    def test_pad_label_contributes_exactly_zero(self):
        labels = np.array([0, PAD_LABEL])
        weights = np.array([1.0, 0.7])  # weight on the pad row is ignored
        loss = weighted_cross_entropy(Tensor(np.zeros((2, 2))), labels, weights)
        np.testing.assert_allclose(loss.item(), np.log(2), atol=1e-15)

    def test_label_out_of_range(self):
        # a label below PAD_LABEL would read a column from the end
        for label in (5, -2):
            with pytest.raises(ValueError, match="out of range"):
                weighted_cross_entropy(
                    Tensor(np.zeros((1, 2))), np.array([label]), np.array([1.0])
                )

    def test_gradient_flows(self):
        scores = Tensor(np.zeros((2, 2)), requires_grad=True)
        loss = weighted_cross_entropy(scores, np.array([0, 1]), np.array([0.5, 0.5]))
        ad.backward(loss)
        assert np.abs(scores.grad).max() > 0


class TestAreaAccuracy:
    def test_quarter(self):
        acc = area_accuracy(
            np.array([0, 0]), np.array([0, 1]), np.array([1.0, 3.0]),
            np.array([True, True]),
        )
        assert acc == 0.25

    def test_all_correct(self):
        acc = area_accuracy(
            np.array([1, 0]), np.array([1, 0]), np.array([2.0, 5.0]),
            np.array([True, True]),
        )
        assert acc == 1.0

    def test_padding_ignored(self):
        acc = area_accuracy(
            np.array([0, 1]), np.array([0, PAD_LABEL]), np.array([1.0, 0.0]),
            np.array([True, False]),
        )
        assert acc == 1.0

    def test_relabeling_invariance(self, rng):
        pred = rng.integers(0, 3, size=10)
        true = rng.integers(0, 3, size=10)
        areas = rng.random(10) + 0.1
        mask = np.ones(10, dtype=bool)
        base = area_accuracy(pred, true, areas, mask)
        relabel = np.array([2, 0, 1])
        assert area_accuracy(relabel[pred], relabel[true], areas, mask) == base


class TestAugment:
    def test_rotation_matrices_are_rotations(self, rng):
        for _ in range(10):
            r = random_rotation(rng)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)

    def test_graph_data_untouched(self, rng):
        sample = small_sample(target_faces=24)
        out = augment(sample, rng)
        assert out.adjacency is sample.adjacency
        np.testing.assert_array_equal(out.cluster_ids, sample.cluster_ids)
        np.testing.assert_array_equal(out.labels, sample.labels)
        np.testing.assert_array_equal(out.areas, sample.areas)

    def test_coords_stay_in_unit_box(self, rng):
        from meshseg.preprocess import COORD_COLS

        sample = small_sample()
        for _ in range(20):
            out = augment(sample, rng)
            assert np.abs(out.features[:, COORD_COLS]).max() <= 1.0 + 1e-9

    def test_normals_rotated_not_scaled(self, rng):
        from meshseg.preprocess import NORMAL_COLS

        sample = small_sample()
        out = augment(sample, rng)
        norms = np.linalg.norm(out.features[:, NORMAL_COLS], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_padding_rows_stay_zero(self, rng):
        sample = pad_sample(small_sample(), 30)
        out = augment(sample, rng)
        np.testing.assert_array_equal(out.features[~out.real_mask], 0.0)

    def test_deterministic_given_rng_state(self):
        sample = small_sample()
        a = augment(sample, np.random.default_rng(5))
        b = augment(sample, np.random.default_rng(5))
        np.testing.assert_array_equal(a.features, b.features)


class TestEvaluate:
    def test_always_class_zero_scores_area_share(self):
        sample = small_sample()
        cfg = small_model_config(eigen_count=sample.eigen_count)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        # force constant class-0 predictions through the final bias
        params["head.ff2.w"].data[:] = 0.0
        params["head.ff2.b"].data[:] = [10.0, 0.0]
        metrics = evaluate([sample], params, cfg)
        share = sample.areas[sample.labels == 0].sum() / sample.areas.sum()
        np.testing.assert_allclose(metrics.area_accuracy, share, atol=1e-12)
        np.testing.assert_allclose(metrics.per_class[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(metrics.per_class[1], 0.0, atol=1e-12)

    def test_class_count_mismatch(self):
        sample = small_sample()
        cfg = small_model_config(num_classes=1, eigen_count=sample.eigen_count)
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="classes"):
            evaluate([sample], params, cfg)

    def test_forward_records_no_graph(self, monkeypatch):
        """evaluate() runs each forward on gradient-free views of the
        parameters, so its scores have no parents and nothing gets a .grad."""
        from meshseg import train as train_module

        seen = []
        forward = train_module.met_forward

        def traced_forward(*args, **kwargs):
            seen.append(forward(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(train_module, "met_forward", traced_forward)
        cfg = small_model_config(eigen_count=4)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        evaluate([small_sample(), small_sample()], params, cfg)
        assert len(seen) == 2
        for scores in seen:
            assert not scores._parents and scores._backward_fn is None
            assert not scores.requires_grad
        assert all(p.grad is None and p.requires_grad for p in params.values())

    def test_pooled_over_meshes(self):
        # two copies pool areas rather than averaging per-mesh accuracies
        sample = small_sample()
        cfg = small_model_config(eigen_count=sample.eigen_count)
        params = init_params(cfg, np.random.default_rng(1), dtype=np.float64)
        single = evaluate([sample], params, cfg)
        double = evaluate([sample, sample], params, cfg)
        np.testing.assert_allclose(double.area_accuracy, single.area_accuracy)


def held_bytes(loss) -> int:
    """Bytes of the distinct arrays a graph keeps alive: the loss value, the
    value of every leaf and every array a backward closure reaches, through
    captured tuples, functions and object attributes (a sparse matrix, a
    listing plan), each view counted once at the array that owns its
    memory. Op nodes hold no value; the tensors they made keep theirs only
    while a closure reads them."""
    owners = {}
    seen = set()

    def hold(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, Tensor):
            hold(value.data)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                hold(item)
        elif callable(value):
            for cell in getattr(value, "__closure__", None) or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # a free variable never bound holds nothing
                    continue
                hold(contents)
        else:
            for name in getattr(type(value), "__slots__", ()):
                hold(getattr(value, name, None))
            for attr in getattr(value, "__dict__", {}).values():
                hold(attr)

    hold(loss.data)
    stack, nodes = [loss._node], {id(loss._node)}
    while stack:
        node = stack.pop()
        if isinstance(node, Tensor):  # a leaf, or the constant that stands in for inputs
            hold(node.data)
        else:
            hold(node._backward_fn)
        for parent in node._parents:
            if id(parent) not in nodes:
                nodes.add(id(parent))
                stack.append(parent)
    return sum(owners.values())


def test_held_bytes_skips_an_empty_closure_cell():
    """A closure variable bound on one path only leaves an empty cell on
    the other; it holds no array, so it adds nothing to the count."""
    x = Tensor(np.ones(4), requires_grad=True)
    loss = reduce_sum(x)

    def unbound_closure(bind):
        if bind:
            mask = np.ones(100)

        def backward_fn(g):
            return (g * mask,)

        return backward_fn

    for bind, extra in ((False, 0), (True, 800)):
        loss._backward_fn = unbound_closure(bind)
        assert held_bytes(loss) == loss.data.nbytes + x.data.nbytes + extra


def quick_train_cfg(**overrides):
    base = dict(
        lr=1e-3,
        batch_size=2,
        max_steps=12,
        seed=0,
        validation_fraction=0.0,
        augment=False,
        eval_every=6,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_loss_decreases_and_history_logged(self, tmp_path):
        samples = [small_sample()]
        model_cfg = small_model_config(eigen_count=4)
        log = tmp_path / "metrics.jsonl"
        params, history = train(
            samples, model_cfg, quick_train_cfg(), dtype=np.float64, metrics_path=log
        )
        assert [h["step"] for h in history] == [6, 12]
        assert history[-1]["loss"] < history[0]["loss"] * 1.5
        lines = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert lines == history

    def test_info_line_carries_the_record(self, caplog):
        """Each record is also one INFO line: the loss and accuracy, the
        step's gradient norm, the phase seconds, the training rate, the
        peak RSS, the process count and the workers' peak RSS, as the
        record holds them."""
        with caplog.at_level(logging.INFO, logger="meshseg.train"):
            _, history = train([small_sample()], small_model_config(eigen_count=4),
                               quick_train_cfg(), dtype=np.float64)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(lines) == len(history) == 2
        formats = {"step": "{:d}", "loss": "{:.4f}", "accuracy": "{:.4f}",
                   "grad_norm": "{:.4g}", "forward_s": "{:.3f}", "backward_s": "{:.3f}",
                   "optim_s": "{:.3f}", "samples_per_s": "{:.2f}", "peak_rss_mb": "{:.1f}",
                   "processes": "{:d}", "worker_peak_rss_mb": "{:.1f}"}
        for line, entry in zip(lines, history):
            assert line == " ".join(f"{key} {fmt.format(entry[key])}"
                                    for key, fmt in formats.items())
            assert entry["grad_norm"] > 0 and entry["samples_per_s"] > 0
            assert entry["peak_rss_mb"] > 0

    def test_seed_reproducibility(self):
        samples = [small_sample()]
        model_cfg = small_model_config(eigen_count=4)
        _, h1 = train(samples, model_cfg, quick_train_cfg(), dtype=np.float64)
        _, h2 = train(samples, model_cfg, quick_train_cfg(), dtype=np.float64)
        assert trajectory(h1) == trajectory(h2)

    def test_lr_zero_leaves_params_unchanged(self):
        samples = [small_sample()]
        model_cfg = small_model_config(eigen_count=4)
        init = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        frozen = {k: v.data.copy() for k, v in init.items()}
        params, _ = train(
            samples, model_cfg,
            quick_train_cfg(lr=0.0, max_steps=4, eval_every=4),
            dtype=np.float64, params=init,
        )
        for name in frozen:
            np.testing.assert_array_equal(params[name].data, frozen[name])

    def test_validation_split(self):
        samples = [small_sample() for _ in range(4)]
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(validation_fraction=0.25, max_steps=4, eval_every=4)
        _, history = train(samples, model_cfg, cfg, dtype=np.float64)
        assert all(h["split"] == "val" for h in history)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], small_model_config(), quick_train_cfg())

    def test_invalid_train_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=1.0)

    def test_augmented_training_runs(self):
        samples = [small_sample()]
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(augment=True, max_steps=4, eval_every=4)
        _, history = train(samples, model_cfg, cfg, dtype=np.float64)
        assert history

    def test_training_graph_released_before_closing_eval(self, monkeypatch):
        import weakref

        from meshseg import train as train_module

        scores_refs = []
        alive_at_eval = []
        forward, run_evaluate = train_module.met_forward, train_module.evaluate

        def traced_forward(*args, **kwargs):
            scores = forward(*args, **kwargs)
            if kwargs.get("training"):
                scores_refs.append(weakref.ref(scores.data))
            return scores

        def traced_evaluate(*args, **kwargs):
            alive_at_eval.append([ref() is not None for ref in scores_refs])
            return run_evaluate(*args, **kwargs)

        monkeypatch.setattr(train_module, "met_forward", traced_forward)
        monkeypatch.setattr(train_module, "evaluate", traced_evaluate)
        model_cfg = small_model_config(eigen_count=4)
        train([small_sample()], model_cfg, quick_train_cfg(max_steps=1, eval_every=1))
        assert alive_at_eval == [[False]]

    def test_records_carry_run_measurements(self, tmp_path):
        log = tmp_path / "metrics.jsonl"
        _, history = train([small_sample()], small_model_config(eigen_count=4),
                           quick_train_cfg(max_steps=4, eval_every=2), dtype=np.float64,
                           metrics_path=log)
        assert [h["step"] for h in history] == [2, 4]
        assert [json.loads(ln) for ln in log.read_text().splitlines()] == history
        for entry in history:
            for key in ("grad_norm", *RUN_MEASUREMENTS):
                value = entry[key]
                assert isinstance(value, float) and np.isfinite(value) and value >= 0, key
            assert entry["samples_per_s"] > 0 and entry["peak_rss_mb"] > 0

    def test_returns_parameters_without_gradients(self):
        """Gradients are cleared before the first step and after each one:
        none is returned, and a stale .grad passed in changes nothing."""
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(max_steps=3, eval_every=2)
        clean = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        stale = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        for p in stale.values():
            p.grad = np.full_like(p.data, 1e3)
        p1, h1 = train([small_sample()], model_cfg, cfg, dtype=np.float64, params=clean)
        p2, h2 = train([small_sample()], model_cfg, cfg, dtype=np.float64, params=stale)
        assert trajectory(h1) == trajectory(h2)
        for name in p1:
            assert p1[name].grad is None and p2[name].grad is None, name
            np.testing.assert_array_equal(p1[name].data, p2[name].data, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_loss_trains_as_the_five_op_chain(self, monkeypatch, dtype):
        """train() gives the same parameters and history losses, bit for
        bit, when the fused loss op is swapped for the five-op chain it
        replaced: augmented steps on a padded and an unpadded sample."""
        samples = [pad_sample(small_sample(), 24), small_sample()]
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(max_steps=4, eval_every=2, augment=True)
        runs = []
        for loss_op in (ad.weighted_nll, weighted_nll_oracle):
            monkeypatch.setattr(ad, "weighted_nll", loss_op)
            runs.append(train(samples, model_cfg, cfg, dtype=dtype))
        (p1, h1), (p2, h2) = runs
        assert len(h1) == 2 and [h["loss"] for h in h1] == [h["loss"] for h in h2]
        for name in p1:
            assert p1[name].dtype == dtype
            np.testing.assert_array_equal(p1[name].data, p2[name].data, err_msg=name)

    def test_backward_frees_the_training_graph(self):
        sample = small_sample()
        cfg = small_model_config(eigen_count=4)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        scores = met_forward(sample, params, cfg, training=True, rng=np.random.default_rng(1))
        alive = weakref.ref(scores.data)
        loss = weighted_cross_entropy(
            scores, sample.labels, area_weights(sample.areas, sample.real_mask)
        )
        del scores
        ad.backward(loss)
        assert alive() is None and np.isfinite(loss.item())
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(loss)

    def test_builds_each_training_samples_masks_once(self, monkeypatch):
        """train() builds each training sample's masks once and hands them
        to every training forward of that sample; none outlives the call."""
        import gc

        from meshseg import train as train_module
        from meshseg.model import AttentionMasks

        built = []
        passed = []
        build, forward = train_module.build_masks, train_module.met_forward

        def counted_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recorded_forward(*args, **kwargs):
            if kwargs.get("training"):
                passed.append(kwargs["masks"])
            return forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "build_masks", counted_build)
        monkeypatch.setattr(train_module, "met_forward", recorded_forward)
        force_host(monkeypatch, 1)  # every forward in this process
        samples = [small_sample() for _ in range(3)]
        train(samples, small_model_config(eigen_count=4),
              quick_train_cfg(max_steps=4, eval_every=4, augment=True))
        assert len(built) == 3
        assert len(passed) == 2 * 3  # two epochs of two steps, over 2 + 1 samples
        assert {id(m) for m in passed} == {id(m) for m in built}
        del built, passed
        gc.collect()
        assert not any(isinstance(o, AttentionMasks) for o in gc.get_objects())

    def test_training_graph_holds_only_what_backward_reads(self):
        """Regression guard on the memory of one training graph: linear
        layers keep no pre-bias or pre-ReLU copy, dropout a bool mask,
        layer norm no normalized copy, neighbor attention no gathered keys
        or values, and no op node the value of its output."""
        sample = small_sample(subdivisions=1)  # 80 faces
        cfg = small_model_config(eigen_count=4, d_t=32, d_p=32, max_clusters=16)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        scores = met_forward(sample, params, cfg, training=True, rng=np.random.default_rng(1))
        loss = weighted_cross_entropy(
            scores, sample.labels, area_weights(sample.areas, sample.real_mask)
        )
        assert held_bytes(loss) <= GRAPH_BYTES_BOUND

    @pytest.mark.parametrize(
        "overrides",
        [{"num_layers": 1}, {"num_layers": 2}, *ABLATIONS.values()],
        ids=["1-layer", "2-layer", *ABLATIONS],
    )
    def test_every_parameter_gets_a_gradient(self, overrides):
        """The parameters follow the forward: one training step reaches
        every parameter that init_params allocates."""
        sample = small_sample()
        model_cfg = small_model_config(eigen_count=sample.eigen_count, **overrides)
        params = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        scores = met_forward(sample, params, model_cfg, training=True,
                             rng=np.random.default_rng(1))
        ad.backward(weighted_cross_entropy(
            scores, sample.labels, area_weights(sample.areas, sample.real_mask)
        ))
        assert [name for name, p in params.items() if p.grad is None] == []

    def test_non_finite_gradient_raises_naming_the_parameter(self, monkeypatch):
        model_cfg = small_model_config(eigen_count=4)
        params = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        backward = ad.backward

        def poisoned_backward(loss):
            backward(loss)
            params["head.ff2.b"].grad[0] = np.inf

        monkeypatch.setattr(ad, "backward", poisoned_backward)
        with pytest.raises(TrainingDivergedError) as exc:
            train([small_sample()], model_cfg, quick_train_cfg(max_steps=2, eval_every=2),
                  dtype=np.float64, params=params)
        assert "head.ff2.b" in str(exc.value)
        assert "layers.0" not in str(exc.value)
        assert exc.value.diagnostics["step"] == 0
        assert exc.value.diagnostics["grad_norm"] == np.inf

    def test_non_finite_loss_raises_with_parameter_norms(self, monkeypatch):
        import meshseg.train as trainmod

        model_cfg = small_model_config(eigen_count=4)
        params = init_params(model_cfg, np.random.default_rng(0), dtype=np.float64)
        norms = {name: float(np.linalg.norm(p.data)) for name, p in params.items()}
        monkeypatch.setattr(trainmod, "area_weights",
                            lambda areas, real_mask: np.full(len(areas), np.nan))
        with pytest.raises(TrainingDivergedError, match="non-finite loss at step 0") as exc:
            train([small_sample()], model_cfg, quick_train_cfg(max_steps=2, eval_every=2),
                  dtype=np.float64, params=params)
        diagnostics = exc.value.diagnostics
        assert diagnostics["step"] == 0
        assert np.isnan(diagnostics["loss"])
        # raised before the optimizer step, so the norms are the initial ones
        assert list(diagnostics["param_norms"]) == sorted(params)
        assert diagnostics["param_norms"] == norms

    def test_full_model_gradient_vs_finite_difference(self):
        """Loss gradient w.r.t. sampled parameters matches central
        differences on the 20-face sample (64-bit)."""
        from conftest import finite_difference

        sample = small_sample()
        cfg = small_model_config(eigen_count=4, dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
        weights = area_weights(sample.areas, sample.real_mask)

        def loss_value():
            scores = met_forward(sample, params, cfg)
            return weighted_cross_entropy(scores, sample.labels, weights)

        loss = loss_value()
        ad.backward(loss)
        rng = np.random.default_rng(42)
        # the final layer's cluster-stream output is never consumed, so its
        # parameters legitimately carry no gradient; check the others
        names = [n for n in params if params[n].grad is not None]
        checked = 0
        for name in rng.choice(names, size=6, replace=False):
            arr = params[name].data
            flat = arr.reshape(-1)
            grad_flat = params[name].grad.reshape(-1)
            for idx in rng.choice(arr.size, size=min(3, arr.size), replace=False):
                orig = flat[idx]
                h = 1e-6 * max(1.0, abs(orig))
                flat[idx] = orig + h
                up = loss_value().item()
                flat[idx] = orig - h
                down = loss_value().item()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-4)
                assert abs(grad_flat[idx] - fd) / denom <= 1e-3
                checked += 1
        assert checked >= 15


def force_host(monkeypatch, cpus):
    """Make train() see ``cpus`` usable CPUs and one BLAS thread each."""
    import meshseg.train as trainmod

    monkeypatch.setattr(trainmod, "_host", lambda: (cpus, 1))


def split_trajectory(history):
    """A history's trajectory without the process count, which is all
    that a batch split may change."""
    return [{k: v for k, v in h.items() if k != "processes"} for h in trajectory(history)]


def split_samples():
    """Five distinct small samples, two of them padded."""
    base = small_sample()
    return [base, pad_sample(base, 24), small_sample(lam=2.0), pad_sample(base, 22),
            small_sample(lam=8.0)]


class TestBatchSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size,processes", [(4, 2), (4, 4), (3, 2)],
                             ids=["batch4-P2", "batch4-P4", "batch3-P2"])
    def test_split_equals_one_process(self, monkeypatch, dtype, batch_size, processes):
        """Histories, timing aside, and parameters are the one-process
        run's bit for bit, with augmentation and dropout on; batch 3 over
        P = 2 makes uneven rounds, and five samples an uneven last batch."""
        model_cfg = small_model_config(eigen_count=4)
        assert model_cfg.dropout > 0
        cfg = quick_train_cfg(batch_size=batch_size, max_steps=5, eval_every=2, augment=True)
        runs = {}
        for p in (1, processes):
            force_host(monkeypatch, p)
            runs[p] = train(split_samples(), model_cfg, cfg, dtype=dtype)
        (p1, h1), (p2, h2) = runs[1], runs[processes]
        assert [h["processes"] for h in h1] == [1] * 3
        assert [h["processes"] for h in h2] == [processes] * 3
        assert all(h["worker_peak_rss_mb"] == 0.0 for h in h1)
        assert all(h["worker_peak_rss_mb"] > 0 for h in h2)
        assert split_trajectory(h1) == split_trajectory(h2)
        for name in p1:
            assert p2[name].dtype == dtype and p2[name].grad is None
            np.testing.assert_array_equal(p1[name].data, p2[name].data, err_msg=name)

    def test_split_updates_the_callers_arrays_in_place(self, monkeypatch):
        """As in one process, each trained parameter keeps the array it
        came with, now holding the trained values, so none outlives the
        mapping the workers shared."""
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(max_steps=2, eval_every=2)
        force_host(monkeypatch, 1)
        serial, _ = train(split_samples(), model_cfg, cfg,
                          params=init_params(model_cfg, np.random.default_rng(0)))
        params = init_params(model_cfg, np.random.default_rng(0))
        arrays = {name: p.data for name, p in params.items()}
        force_host(monkeypatch, 2)
        trained, history = train(split_samples(), model_cfg, cfg, params=params)
        assert history[-1]["processes"] == 2
        for name, p in trained.items():
            assert p.data is arrays[name] and p.data.flags.owndata, name
            np.testing.assert_array_equal(p.data, serial[name].data, err_msg=name)

    def test_split_ignores_a_gradient_the_caller_left(self, monkeypatch):
        """Parameters that arrive with a stale ``.grad`` train as they do
        in one process: the gradients are cleared before the workers fork."""
        model_cfg = small_model_config(eigen_count=4)
        cfg = quick_train_cfg(max_steps=2, eval_every=2)
        runs = {}
        for p in (1, 2):
            params = init_params(model_cfg, np.random.default_rng(0))
            for t in params.values():
                t.grad = np.ones_like(t.data)
            force_host(monkeypatch, p)
            runs[p] = train(split_samples(), model_cfg, cfg, params=params)
        assert [h["processes"] for h in runs[2][1]] == [2]
        assert split_trajectory(runs[1][1]) == split_trajectory(runs[2][1])
        for name, p in runs[1][0].items():
            np.testing.assert_array_equal(p.data, runs[2][0][name].data, err_msg=name)

    def test_worker_exception_reaches_the_parent_as_its_type(self, monkeypatch):
        """A label out of range in the worker's sample only raises the
        loss's ValueError in the parent, with the worker's traceback as its
        cause, and leaves no worker behind."""
        import multiprocessing

        model_cfg = small_model_config(eigen_count=4)
        params = init_params(model_cfg, np.random.default_rng(0))
        # train() draws the validation split first: the sorted batch's
        # second position, the worker's, is train_idx[1]
        train_idx = np.random.default_rng(0).permutation(2)
        samples = [small_sample(), small_sample()]
        bad = samples[train_idx[1]]
        samples[train_idx[1]] = replace(bad, labels=np.where(bad.real_mask, 7, bad.labels))
        force_host(monkeypatch, 2)
        with pytest.raises(ValueError, match="out of range") as exc:
            train(samples, model_cfg, quick_train_cfg(), params=params)
        assert "weighted_nll" in str(exc.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_killed_worker_ends_training_with_a_typed_error(self, monkeypatch):
        import os
        import signal

        import meshseg.train as trainmod
        from meshseg.errors import TrainingWorkerError

        parent = os.getpid()
        run_sample = trainmod._train_sample

        def killed_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_sample(*args)

        def hung(signum, frame):
            raise TimeoutError("train() hung after its worker died")

        monkeypatch.setattr(trainmod, "_train_sample", killed_in_worker)
        force_host(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(TrainingWorkerError, match="exit code -9"):
                train(split_samples(), small_model_config(eigen_count=4), quick_train_cfg())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("batch_size,samples", [(1, 3), (4, 1)],
                             ids=["batch-1", "one-sample"])
    def test_one_sample_batches_fork_nothing_and_map_nothing(
            self, monkeypatch, batch_size, samples):
        import mmap
        import os

        def refused(*args, **kwargs):
            raise AssertionError("a one-process run forked or mapped memory")

        force_host(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(mmap, "mmap", refused)
        _, history = train([small_sample()] * samples, small_model_config(eigen_count=4),
                           quick_train_cfg(batch_size=batch_size, max_steps=2, eval_every=2))
        assert [h["processes"] for h in history] == [1]


@pytest.mark.parametrize(
    "cpus,environ,batch_size,processes",
    [
        (2, {}, 4, 1),  # BLAS runs a thread per CPU already
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 4, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 2),
        (2, {"OPENBLAS_NUM_THREADS": "many"}, 4, 1),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 12, 4),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        (1, {"OPENBLAS_NUM_THREADS": "4"}, 4, 1),
    ],
)
def test_process_count_rule(cpus, environ, batch_size, processes):
    from meshseg.train import blas_threads, process_count

    assert process_count(batch_size, cpus, blas_threads(environ)) == processes
