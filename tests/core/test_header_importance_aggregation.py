"""Tests for device importance sets (Eqs. 16-18) and Algorithm 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AGGREGATION_METHODS,
    aggregate_importance_sets,
    aggregation_weights,
    personalized_architecture_aggregation,
)
from repro.core.header_importance import (
    ImportanceConfig,
    compute_importance_set,
    prune_by_importance,
)
from repro.data import make_cifar100_like, partition_iid
from repro.models import DAGHeader, ViTConfig, VisionTransformer
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.train import TrainConfig, train_model
from tests.helpers import header_weights


@pytest.fixture(scope="module")
def setup():
    gen = make_cifar100_like(num_classes=5, image_size=8)
    data = gen.generate(samples_per_class=18, seed=1)
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=2,
                    num_heads=4, num_classes=5)
    model = VisionTransformer(cfg, seed=0)
    train_model(model, data, TrainConfig(epochs=2, seed=0))
    return model, data


def make_header(seed=0):
    spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3), BlockSpec(1, 2, 0, 3)))
    return DAGHeader(16, 4, 5, spec, rng=np.random.default_rng(seed))


class TestImportanceSet:
    def test_length_matches_parameters(self, setup):
        model, data = setup
        header = make_header()
        q = compute_importance_set(model, header, data,
                                   ImportanceConfig(max_batches_per_epoch=2))
        assert q.shape == (header.parameter_count(),)
        assert (q >= 0).all()

    def test_no_train_mode_leaves_weights(self, setup):
        model, data = setup
        header = make_header()
        before = header_weights(header)
        compute_importance_set(model, header, data,
                               ImportanceConfig(max_batches_per_epoch=2), train=False)
        np.testing.assert_allclose(header_weights(header), before)

    def test_train_mode_updates_weights(self, setup):
        model, data = setup
        header = make_header()
        before = header_weights(header)
        compute_importance_set(model, header, data,
                               ImportanceConfig(max_batches_per_epoch=2))
        assert not np.allclose(header_weights(header), before)

    def test_matches_the_textbook_loop(self, setup):
        """Two back-to-back rounds with a prune in between (Algorithm 2's
        shape) equal the textbook per-device loop, bit for bit under
        float64 — sets, weights and the re-applied mask."""
        from repro.nn.tensor import using_dtype
        from tests.reference.train import reference_importance_set

        _model, data = setup
        with using_dtype("float64"):
            model = VisionTransformer(_model.config, seed=0)
            ours, textbook = make_header(2), make_header(2)
            for t in range(2):
                config = ImportanceConfig(seed=t, max_batches_per_epoch=3)
                got = compute_importance_set(model, ours, data, config)
                want = reference_importance_set(model, textbook, data, config)
                np.testing.assert_array_equal(got, want)
                for header, q in ((ours, got), (textbook, want)):
                    prune_by_importance(header, q, keep_fraction=0.7)
        np.testing.assert_array_equal(
            header_weights(ours), header_weights(textbook)
        )

    @pytest.mark.parametrize(
        "empty", [dict(max_batches_per_epoch=0), dict(epochs=0), "dataset"]
    )
    def test_a_member_without_batches_is_refused_before_any_training(
        self, setup, empty
    ):
        """Known from the schedule before round one: no other member's
        header is trained in place ahead of the error."""
        from repro.data.dataset import ArrayDataset
        from repro.train.fleet import fleet_importance_rounds

        model, data = setup
        headers = [make_header(0), make_header(1)]
        before = [header_weights(h) for h in headers]
        datasets, configs = [data, data], [ImportanceConfig(), ImportanceConfig()]
        if empty == "dataset":
            datasets[1] = ArrayDataset(
                data.images[:0], data.labels[:0], data.num_classes, name="empty"
            )
        else:
            configs[1] = ImportanceConfig(**empty)
        with pytest.raises(ValueError, match="no batches"):
            fleet_importance_rounds(model, headers, datasets, configs)
        for header, vector in zip(headers, before):
            np.testing.assert_array_equal(header_weights(header), vector)


class TestPruning:
    def test_prunes_requested_fraction(self, setup):
        _model, _data = setup
        header = make_header()
        importance = np.random.default_rng(0).random(header.parameter_count())
        keep = prune_by_importance(header, importance, keep_fraction=0.5)
        protected = keep.sum() - int(round(0.5 * (~_classifier_mask(header)).sum()))
        assert header.active_parameter_count() == keep.sum()

    def test_classifier_protected(self, setup):
        header = make_header()
        importance = np.zeros(header.parameter_count())  # everything worthless
        prune_by_importance(header, importance, keep_fraction=0.01)
        # Classifier params survive.
        mask_flags = _classifier_mask(header)
        assert header.active_parameter_count() >= mask_flags.sum()

    def test_keeps_most_important(self, setup):
        header = make_header()
        count = header.parameter_count()
        importance = np.arange(count, dtype=float)  # later params more important
        keep = prune_by_importance(header, importance, 0.3, protect_classifier=False)
        kept_scores = importance[keep]
        dropped_scores = importance[~keep]
        assert kept_scores.min() > dropped_scores.max()

    def test_validation(self, setup):
        header = make_header()
        with pytest.raises(ValueError):
            prune_by_importance(header, np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            prune_by_importance(header, np.zeros(header.parameter_count()), 0.0)

    def test_pruning_guided_beats_random(self, setup):
        """Pruning by real importance must hurt accuracy less than pruning
        randomly — the premise of the whole Phase 2-2."""
        from repro.models.headers import BackboneFeatures
        from repro.train import evaluate_header, train_header

        model, data = setup
        rng = np.random.default_rng(0)

        def accuracy_after(prune_with_importance: bool) -> float:
            header = make_header(seed=1)
            train_header(model, header, data, TrainConfig(epochs=2, seed=0))
            if prune_with_importance:
                q = compute_importance_set(
                    model, header, data,
                    ImportanceConfig(max_batches_per_epoch=4), train=False,
                )
            else:
                q = rng.random(header.parameter_count())
            prune_by_importance(header, q, keep_fraction=0.5)
            return evaluate_header(model, header, data)["accuracy"]

        assert accuracy_after(True) >= accuracy_after(False)


def _classifier_mask(header):
    flags = np.zeros(header.parameter_count(), dtype=bool)
    offset = 0
    for name, p in header._unique_named_parameters():
        if name.startswith("classifier"):
            flags[offset : offset + p.size] = True
        offset += p.size
    return flags


class TestAggregationWeights:
    def test_alone_is_identity(self):
        np.testing.assert_allclose(aggregation_weights("alone", 3), np.eye(3))

    def test_average_is_uniform(self):
        w = aggregation_weights("average", 4)
        np.testing.assert_allclose(w, 0.25)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            aggregation_weights("federated", 3)

    def test_similarity_methods_need_data(self):
        with pytest.raises(ValueError):
            aggregation_weights("ours", 3)

    @pytest.mark.parametrize("method", ["ours", "js"])
    def test_similarity_weights_row_stochastic(self, method, setup):
        model, data = setup
        parts = partition_iid(data, 3, np.random.default_rng(0))
        w = aggregation_weights(method, 3, model, parts)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)


class TestAggregateImportanceSets:
    def test_eq21_convex_combination(self):
        sets = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        weights = np.array([[0.75, 0.25], [0.5, 0.5]])
        out = aggregate_importance_sets(sets, weights)
        np.testing.assert_allclose(out[0], [0.75, 0.25])
        np.testing.assert_allclose(out[1], [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_importance_sets([np.zeros(2)], np.ones((2, 2)))
        with pytest.raises(ValueError):
            aggregate_importance_sets(
                [np.zeros(2), np.zeros(3)], np.full((2, 2), 0.5)
            )
        with pytest.raises(ValueError):
            aggregate_importance_sets(
                [np.zeros(2), np.zeros(2)], np.ones((2, 2))  # rows sum to 2
            )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4), st.integers(3, 10))
    def test_property_preserves_scale(self, n, r):
        """Convex combinations stay within the per-coordinate envelope."""
        rng = np.random.default_rng(n * 10 + r)
        sets = [rng.random(r) for _ in range(n)]
        raw = rng.random((n, n))
        weights = raw / raw.sum(axis=1, keepdims=True)
        out = aggregate_importance_sets(sets, weights)
        stacked = np.stack(sets)
        for q in out:
            assert (q <= stacked.max(axis=0) + 1e-9).all()
            assert (q >= stacked.min(axis=0) - 1e-9).all()


class TestAlgorithm2:
    @pytest.mark.parametrize("method", AGGREGATION_METHODS)
    def test_all_methods_run(self, method, setup):
        model, data = setup
        parts = partition_iid(data, 3, np.random.default_rng(0))
        headers = [make_header(seed=i) for i in range(3)]
        result = personalized_architecture_aggregation(
            model, headers, parts, num_rounds=1, method=method,
            importance_config=ImportanceConfig(max_batches_per_epoch=2),
        )
        assert len(result.headers) == 3
        assert result.weights.shape == (3, 3)
        assert len(result.rounds) == 1
        assert result.rounds[0].uploaded_bytes > 0

    def test_headers_are_pruned(self, setup):
        model, data = setup
        parts = partition_iid(data, 2, np.random.default_rng(0))
        headers = [make_header(seed=i) for i in range(2)]
        personalized_architecture_aggregation(
            model, headers, parts, num_rounds=1, keep_fraction=0.5,
            method="average",
            importance_config=ImportanceConfig(max_batches_per_epoch=2),
        )
        for h in headers:
            assert h.active_parameter_count() < h.parameter_count()

    def test_rerun_is_bit_identical(self, setup):
        """Same backbone, headers, data and seed: the weights, the pruning
        masks and the header weights come back bit for bit."""
        model, data = setup
        parts = partition_iid(data, 2, np.random.default_rng(0))

        def run():
            headers = [make_header(seed=i) for i in range(2)]
            result = personalized_architecture_aggregation(
                model, headers, parts, num_rounds=2,
                importance_config=ImportanceConfig(max_batches_per_epoch=2),
            )
            return result.weights, headers

        (w1, h1), (w2, h2) = run(), run()
        np.testing.assert_array_equal(w1, w2)
        for a, b in zip(h1, h2):
            assert set(a._parameter_mask) == set(b._parameter_mask)
            for key in a._parameter_mask:
                np.testing.assert_array_equal(a._parameter_mask[key], b._parameter_mask[key])
            np.testing.assert_array_equal(header_weights(a), header_weights(b))

    def test_validation(self, setup):
        model, data = setup
        with pytest.raises(ValueError):
            personalized_architecture_aggregation(model, [make_header()], [], num_rounds=1)
        parts = partition_iid(data, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            personalized_architecture_aggregation(
                model, [make_header()], parts, num_rounds=0
            )
