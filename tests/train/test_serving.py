"""Batched cross-device backbone serving reproduces per-device results.

The engine's kernels are row-independent, so serving many devices'
inputs through one concatenated ``no_grad`` forward must be bit-for-bit
identical per device to the separate forwards it replaces — these tests
assert exactly that for raw features, header evaluation, similarity
feature extraction, NAS child scoring, and the edge finalize phase.
"""

import numpy as np
import pytest

from repro.core.nas import HeaderSearch, NASConfig
from repro.core.similarity import (
    build_similarity_matrix,
    distance_matrix,
    extract_features,
    regularize_similarity,
    similarity_from_distances,
)
from repro.data.synthetic import make_cifar100_like
from repro.models.vit import ViTConfig, VisionTransformer
from repro.models.headers import build_fixed_header
from repro.nn.tensor import Tensor, no_grad, using_dtype
from repro.train.evaluate import evaluate_header
from repro.train.serving import (
    batched_evaluate_headers,
    batched_extract_features,
    batched_forward_features_multi,
    gather_features,
    precompute_backbone_features,
)
from tests.helpers import evaluate

VIT = ViTConfig(num_classes=6, depth=2, embed_dim=32, num_heads=4)


@pytest.fixture()
def backbone():
    return VisionTransformer(VIT, seed=0)


@pytest.fixture()
def datasets():
    generator = make_cifar100_like(num_classes=6, image_size=16, seed=0)
    # Deliberately different sizes so devices drop out of later rounds.
    return [
        generator.generate(samples_per_class=n, seed=40 + i, name=f"d{i}")
        for i, n in enumerate([4, 7, 2])
    ]


class TestBatchedForward:
    def test_bitwise_identical_to_separate_forwards(self, backbone):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(n, 3, 16, 16)) for n in (5, 16, 3)]
        batched = batched_forward_features_multi(backbone, arrays)
        for array, features in zip(arrays, batched):
            with no_grad():
                cls, tokens, penult = backbone.forward_features_multi(Tensor(array))
            np.testing.assert_array_equal(features.cls.data, cls.data)
            np.testing.assert_array_equal(features.tokens.data, tokens.data)
            np.testing.assert_array_equal(features.penultimate.data, penult.data)

    def test_empty_input(self, backbone):
        assert batched_forward_features_multi(backbone, []) == []

    def test_single_input_matches(self, backbone):
        rng = np.random.default_rng(1)
        array = rng.normal(size=(4, 3, 16, 16))
        (features,) = batched_forward_features_multi(backbone, [array])
        with no_grad():
            cls, _tokens, _penult = backbone.forward_features_multi(Tensor(array))
        np.testing.assert_array_equal(features.cls.data, cls.data)


class TestBatchedEvaluate:
    def test_matches_evaluate_header_per_pair(self, backbone, datasets):
        headers = [
            build_fixed_header(
                kind, VIT.embed_dim, VIT.num_patches, VIT.num_classes,
                rng=np.random.default_rng(i),
            )
            for i, kind in enumerate(["linear", "mlp", "hybrid"])
        ]
        batched = batched_evaluate_headers(
            backbone, headers, datasets, batch_size=8
        )
        for header, dataset, result in zip(headers, datasets, batched):
            expected = evaluate_header(backbone, header, dataset, batch_size=8)
            assert result == expected  # dict equality: bit-for-bit floats

    def test_stochastic_model_falls_back(self, datasets):
        dropout_backbone = VisionTransformer(
            ViTConfig(num_classes=6, depth=2, embed_dim=32, num_heads=4, dropout=0.2),
            seed=0,
        )
        dropout_backbone.train()
        headers = [
            build_fixed_header(
                "linear", VIT.embed_dim, VIT.num_patches, VIT.num_classes,
                rng=np.random.default_rng(i),
            )
            for i in range(3)
        ]
        batched = batched_evaluate_headers(
            dropout_backbone, headers, datasets, batch_size=8
        )
        # The fallback evaluates pair by pair, so each pair consumes the
        # dropout stream exactly like the unbatched loop does.
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in batched)
        assert [r["samples"] for r in batched] == [len(d) for d in datasets]

    def test_mismatched_lengths_rejected(self, backbone, datasets):
        header = build_fixed_header(
            "linear", VIT.embed_dim, VIT.num_patches, VIT.num_classes,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            batched_evaluate_headers(backbone, [header], datasets)


class TestBatchedExtractFeatures:
    def test_matches_per_dataset_extraction(self, backbone, datasets):
        batched = batched_extract_features(backbone, datasets, max_samples=8, seed=3)
        for i, dataset in enumerate(datasets):
            expected = extract_features(backbone, dataset, max_samples=8, seed=3 + i)
            np.testing.assert_array_equal(batched[i], expected)

    def test_build_similarity_matrix_batched_parity(self, backbone, datasets):
        """The one stacked forward gives the matrix the per-dataset
        pipeline gives, composed here from its parts (Eqs. 19-20)."""
        batched = build_similarity_matrix(backbone, datasets, max_samples=8, seed=3)
        features = [
            extract_features(backbone, dataset, max_samples=8, seed=3 + i)
            for i, dataset in enumerate(datasets)
        ]
        unbatched = regularize_similarity(
            similarity_from_distances(distance_matrix(features, seed=3)),
            temperature=0.05,
        )
        np.testing.assert_array_equal(batched, unbatched)


class TestPrecomputedFeatures:
    def test_gathered_rows_match_batch_forwards(self, backbone, datasets):
        """The train_header fast path: full-set features once, rows
        gathered per mini-batch — bit-identical to forwarding the batch."""
        dataset = datasets[1]
        cache = precompute_backbone_features(backbone, dataset.images, chunk_size=5)
        rng = np.random.default_rng(0)
        indices = rng.permutation(len(dataset))[:6]
        gathered = gather_features(cache, indices)
        with no_grad():
            cls, tokens, penult = backbone.forward_features_multi(
                Tensor(dataset.images[indices])
            )
        np.testing.assert_array_equal(gathered.cls.data, cls.data)
        np.testing.assert_array_equal(gathered.tokens.data, tokens.data)
        np.testing.assert_array_equal(gathered.penultimate.data, penult.data)

    @staticmethod
    def _float64_fixture():
        """A float64 backbone + two 24-sample datasets (3 batches of 8)."""
        with using_dtype("float64"):
            backbone = VisionTransformer(VIT, seed=0)
        generator = make_cifar100_like(num_classes=6, image_size=16, seed=0)
        return backbone, [
            generator.generate(samples_per_class=4, seed=60 + i, name=f"c{i}")
            for i in range(2)
        ]

    @staticmethod
    def _header(seed):
        return build_fixed_header(
            "mlp", VIT.embed_dim, VIT.num_patches, VIT.num_classes,
            rng=np.random.default_rng(seed),
        )

    @staticmethod
    def _trace(reports, headers):
        return (
            [(r.epoch_losses, r.epoch_accuracies) for r in reports],
            [[p.data.copy() for p in h.parameters()] for h in headers],
        )

    @staticmethod
    def _assert_traces_equal(left, right):
        assert left[0] == right[0]  # losses/accuracies bit-for-bit
        for weights_a, weights_b in zip(left[1], right[1]):
            for a, b in zip(weights_a, weights_b):
                assert a.dtype == np.float64
                np.testing.assert_array_equal(a, b)

    def test_train_header_cached_path_matches_per_batch(self, monkeypatch):
        """``train_header`` sweeps the backbone once per call and gathers
        rows; the textbook loop under a cap that never binds (3 batches
        per epoch) truncates nothing and forwards every batch — the
        traces must agree bit for bit."""
        from repro.train import serving
        from repro.train.trainer import TrainConfig, train_header
        from tests.reference.train import reference_train_header

        precomputes = []
        real = serving.precompute_backbone_features
        monkeypatch.setattr(
            serving,
            "precompute_backbone_features",
            lambda *a, **k: precomputes.append(1) or real(*a, **k),
        )
        backbone, (dataset, _other) = self._float64_fixture()

        def run(train, max_batches):
            with using_dtype("float64"):
                header = self._header(0)
                config = TrainConfig(
                    epochs=2, batch_size=8, seed=0, max_batches_per_epoch=max_batches
                )
                report = train(backbone, header, dataset, config)
            return self._trace([report], [header])

        cached = run(train_header, None)
        assert len(precomputes) == 1
        for cap in (3, 10):
            self._assert_traces_equal(cached, run(reference_train_header, cap))
            # A cap that never binds is no reason to forward per batch.
            self._assert_traces_equal(cached, run(train_header, cap))
        assert len(precomputes) == 3

    def test_owned_cache_matches_per_batch_under_a_binding_cap(self, monkeypatch):
        """``features=`` — a cache the caller owns across calls — turns
        every mini-batch into a row gather: header training and the
        importance round are bit-identical to the textbook loop's capped
        per-batch forwards, and neither sweeps the backbone itself."""
        from repro.core.header_importance import (
            ImportanceConfig,
            compute_importance_set,
        )
        from repro.models.blocks import BlockSpec, HeaderSpec
        from repro.models.header_dag import DAGHeader
        from repro.train import serving
        from repro.train.trainer import TrainConfig, train_header
        from tests.reference.train import (
            reference_importance_set,
            reference_train_header,
        )

        backbone, (dataset, _other) = self._float64_fixture()
        with using_dtype("float64"):
            cache = precompute_backbone_features(
                backbone, dataset.images, chunk_size=7
            )

        def refuse(*args, **kwargs):
            raise AssertionError("a call handed its features must not sweep")

        monkeypatch.setattr(serving, "precompute_backbone_features", refuse)

        def dag_header():
            spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3), BlockSpec(2, 0, 3, 3)))
            return DAGHeader(
                VIT.embed_dim, VIT.num_patches, VIT.num_classes, spec,
                rng=np.random.default_rng(5),
            )

        def train(features, train_one=train_header):
            with using_dtype("float64"):
                header = self._header(0)
                config = TrainConfig(
                    epochs=2, batch_size=8, seed=0, max_batches_per_epoch=2
                )
                report = train_one(
                    backbone, header, dataset, config, features=features
                )
            return self._trace([report], [header])

        def importance(features, score=compute_importance_set):
            with using_dtype("float64"):
                header = dag_header()
                config = ImportanceConfig(
                    epochs=2, batch_size=8, seed=1, max_batches_per_epoch=2
                )
                q = score(backbone, header, dataset, config=config, features=features)
            return q, header.state_dict()

        textbook = train(None, reference_train_header)
        self._assert_traces_equal(textbook, train(None))
        self._assert_traces_equal(textbook, train(cache))
        q_textbook, state_textbook = importance(None, reference_importance_set)
        for q, state in (importance(None), importance(cache)):
            np.testing.assert_array_equal(q_textbook, q)
            assert set(state_textbook) == set(state)
            for name, value in state_textbook.items():
                np.testing.assert_array_equal(value, state[name])

    def test_train_header_rejects_features_for_a_training_backbone(self, backbone, datasets):
        from repro.train.trainer import train_header

        cache = precompute_backbone_features(backbone, datasets[0].images)
        with pytest.raises(ValueError, match="freeze_backbone"):
            train_header(
                backbone, self._header(0), datasets[0],
                freeze_backbone=False, features=cache,
            )

    def test_feature_sample_is_rows_of_the_cache(self, backbone, datasets):
        """Eq. 19's 16-row sample: the cache's CLS rows at the seeded
        sample's indices equal the forward over the sampled subset."""
        for dataset in datasets:
            cache = precompute_backbone_features(backbone, dataset.images)
            for seed in (0, 3):
                np.testing.assert_array_equal(
                    extract_features(
                        backbone, dataset, max_samples=16, seed=seed, features=cache
                    ),
                    extract_features(backbone, dataset, max_samples=16, seed=seed),
                )

    def test_fleet_nonbinding_cap_is_a_noop(self):
        """One capped (never binding) and one uncapped fleet member train
        exactly like two uncapped members, and like the textbook
        per-member loop on the per-batch path."""
        from repro.train.fleet import train_headers_fleet
        from repro.train.trainer import TrainConfig
        from tests.reference.train import reference_train_header

        backbone, datasets = self._float64_fixture()

        def configs(cap):
            return [
                TrainConfig(epochs=2, batch_size=8, seed=3, max_batches_per_epoch=cap),
                TrainConfig(epochs=2, batch_size=8, seed=4),
            ]

        def run_fleet(cap):
            with using_dtype("float64"):
                headers = [self._header(1), self._header(2)]
                reports = train_headers_fleet(backbone, headers, datasets, configs(cap))
            return self._trace(reports, headers)

        def run_serial(cap):
            with using_dtype("float64"):
                headers = [self._header(1), self._header(2)]
                reports = [
                    reference_train_header(backbone, h, d, c)
                    for h, d, c in zip(headers, datasets, configs(cap))
                ]
            return self._trace(reports, headers)

        uncapped = run_fleet(None)
        self._assert_traces_equal(uncapped, run_fleet(3))
        self._assert_traces_equal(uncapped, run_serial(3))

    def test_capped_epochs_skip_precompute(self, backbone, datasets, monkeypatch):
        """max_batches_per_epoch caps the loop; precomputing the whole
        dataset would cost more than it saves, so the per-batch path
        must be used."""
        from repro.train import serving
        from repro.train.trainer import TrainConfig, train_header

        def refuse(*args, **kwargs):
            raise AssertionError("a batch-capped epoch must not precompute")

        monkeypatch.setattr(serving, "precompute_backbone_features", refuse)
        header = build_fixed_header(
            "linear", VIT.embed_dim, VIT.num_patches, VIT.num_classes,
            rng=np.random.default_rng(0),
        )
        config = TrainConfig(epochs=1, batch_size=8, max_batches_per_epoch=1, seed=0)
        report = train_header(backbone, header, datasets[0], config)
        assert len(report.epoch_losses) == 1 and np.isfinite(report.epoch_losses[0])


class TestNASBatchedScoring:
    def _search(self, train_backbone):
        backbone = VisionTransformer(VIT, seed=0)
        config = NASConfig(
            num_blocks=2,
            search_epochs=1,
            children_per_epoch=1,
            shared_steps_per_child=1,
            controller_updates_per_epoch=2,
            derive_samples=3,
            train_backbone=train_backbone,
            seed=0,
        )
        generator = make_cifar100_like(num_classes=6, image_size=16, seed=0)
        dataset = generator.generate(10, seed=5, name="nas")
        search = HeaderSearch(backbone, 6, config)
        return search.search(dataset)

    @pytest.mark.parametrize("train_backbone", [False, True])
    def test_batched_scoring_matches_per_child(self, train_backbone, monkeypatch):
        """A whole search scored from swept features equals one scored
        child by child, each computing its own backbone features."""
        batched = self._search(train_backbone=train_backbone)

        def score_per_child(search, specs, dataset, max_batches=4, features=None):
            children = [search.build_child(spec) for spec in specs]
            return [
                search._evaluate_child(child, dataset, max_batches, features=None)
                for child in children
            ]

        monkeypatch.setattr(HeaderSearch, "_score_specs", score_per_child)
        per_child = self._search(train_backbone=train_backbone)
        assert batched.spec.to_sequence() == per_child.spec.to_sequence()
        assert batched.best_reward == per_child.best_reward
        assert batched.reward_history == per_child.reward_history


class TestEdgeFinalizeBatched:
    def test_batched_finalize_matches_per_device(self):
        """The finale's one batched evaluation equals each device evaluated
        alone (``tests.helpers.evaluate``) on the same fine-tuned state."""
        from repro.distributed import ACMEConfig, ACMESystem

        config = ACMEConfig(
            num_clusters=1,
            devices_per_cluster=3,
            num_classes=6,
            samples_per_class=18,
            compute_dtype="float64",
            finalize=False,
            seed=0,
        )
        system = ACMESystem(config)
        system.run()
        edge = system.edges[0]
        with using_dtype("float64"):
            batched = edge.finalize()
            per_device = [evaluate(device) for device in edge.devices]
        assert len(batched) == 3
        assert batched == per_device  # accuracies/losses bit-for-bit


class TestServingFront:
    from repro.train.serving import ServingFront  # noqa: F401 (import check)

    def _headers(self, backbone, count):
        kinds = ["linear", "mlp", "hybrid"]
        return [
            build_fixed_header(
                kinds[i % len(kinds)], VIT.embed_dim, VIT.num_patches,
                VIT.num_classes, rng=np.random.default_rng(10 + i),
            )
            for i in range(count)
        ]

    def test_micro_batched_serving_matches_per_request(self, backbone, datasets):
        """Any micro-batch grouping is bit-identical to direct evaluation."""
        from repro.train.serving import ServingFront

        headers = self._headers(backbone, len(datasets))
        expected = [
            evaluate_header(backbone, header, dataset)
            for header, dataset in zip(headers, datasets)
        ]
        for micro_batch in (1, 2, 16):
            front = ServingFront(backbone, micro_batch=micro_batch)
            tickets = [
                front.submit(header, dataset)
                for header, dataset in zip(headers, datasets)
            ]
            front.flush()
            for ticket, want in zip(tickets, expected):
                assert front.result(ticket) == want

    def test_fifo_tickets_and_flush_counters(self, backbone, datasets):
        from repro.train.serving import ServingFront

        headers = self._headers(backbone, 5)
        front = ServingFront(backbone, micro_batch=2)
        tickets = [front.submit(h, datasets[0]) for h in headers]
        assert tickets == [0, 1, 2, 3, 4]
        assert front.pending == 5
        assert front.max_queue_depth == 5
        served = front.flush()
        assert served == tickets  # FIFO order preserved across groups
        assert front.pending == 0
        assert front.flushes == 3  # ceil(5 / 2) micro-batches
        assert front.requests_served == 5

    def test_result_pops_and_unserved_raises(self, backbone, datasets):
        from repro.train.serving import ServingFront

        front = ServingFront(backbone, micro_batch=4)
        ticket = front.submit(self._headers(backbone, 1)[0], datasets[0])
        with pytest.raises(KeyError, match="not served"):
            front.result(ticket)
        front.flush()
        front.result(ticket)
        with pytest.raises(KeyError):
            front.result(ticket)  # popped on first read

    def test_invalid_micro_batch_rejected(self, backbone):
        from repro.train.serving import ServingFront

        with pytest.raises(ValueError, match="micro_batch"):
            ServingFront(backbone, micro_batch=0)
        # Refused and named, never truncated (2.7 → 2, True → 1).
        for field in ("micro_batch", "batch_size"):
            for bad in (2.7, True):
                with pytest.raises(ValueError, match=f"{field} .*got {bad!r}"):
                    ServingFront(backbone, **{field: bad})
