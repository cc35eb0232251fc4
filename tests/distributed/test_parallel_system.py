"""Parallel multi-device execution reproduces the serial run exactly.

``ExecutionPlan.device_workers`` fans the cluster phases (importance
rounds, finalize/eval, NAS child scoring) out across worker threads.
Because per-device work is state-disjoint, results are collected in
device order, and the engine's grad/dtype switches are context-local,
any worker count must reproduce the serial float64 run **bit-for-bit**
— these tests assert exactly that, end to end and phase by phase.
"""

import numpy as np
import pytest

from repro.core.nas import HeaderSearch, NASConfig
from repro.core.similarity import build_similarity_matrix
from repro.data.synthetic import make_cifar100_like
from repro.distributed import ACMEConfig, ACMESystem, ExecutionPlan
from repro.models.vit import ViTConfig, VisionTransformer


def _small_config(device_workers=None, **overrides) -> ACMEConfig:
    base = dict(
        execution=ExecutionPlan(device_workers=device_workers),
        num_clusters=1,
        devices_per_cluster=4,
        num_classes=6,
        samples_per_class=18,
        compute_dtype="float64",
        seed=0,
    )
    base.update(overrides)
    return ACMEConfig(**base)


@pytest.fixture(scope="module")
def serial_and_parallel_runs():
    # Module-scoped fixtures set up BEFORE the function-scoped autouse
    # reset in tests/conftest.py, so reset explicitly: these runs must
    # not inherit engine state from whichever test happened to run last.
    from tests.helpers import reset_engine_state

    reset_engine_state()
    serial = ACMESystem(_small_config()).run()
    parallel = ACMESystem(_small_config(device_workers=4)).run()
    return serial, parallel


class TestEndToEndParity:
    def test_accuracies_bit_for_bit(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        for cs, cp in zip(serial.clusters, parallel.clusters):
            assert cs.device_accuracies == cp.device_accuracies
            assert cs.device_losses == cp.device_losses
            assert (cs.width, cs.depth) == (cp.width, cp.depth)

    def test_message_sequence_identical(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        assert serial.message_kinds == parallel.message_kinds

    def test_traffic_ledger_identical(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        assert serial.traffic.upload_bytes == parallel.traffic.upload_bytes
        assert serial.traffic.download_bytes == parallel.traffic.download_bytes
        assert serial.traffic.by_kind == parallel.traffic.by_kind

    def test_mean_accuracy_identical(self, serial_and_parallel_runs):
        serial, parallel = serial_and_parallel_runs
        assert serial.mean_accuracy == parallel.mean_accuracy


class TestPhaseParity:
    def test_finalize_parallel_matches_serial_per_device(self):
        """finalize() with workers equals the serial loop, device by device."""
        serial_system = ACMESystem(_small_config(finalize=False))
        serial_system.run()
        parallel_system = ACMESystem(_small_config(finalize=False, device_workers=4))
        parallel_system.run()

        serial_evals = serial_system.edges[0].finalize()
        parallel_evals = parallel_system.edges[0].finalize()
        assert [e["accuracy"] for e in serial_evals] == [
            e["accuracy"] for e in parallel_evals
        ]
        assert [e["loss"] for e in serial_evals] == [e["loss"] for e in parallel_evals]

    def test_similarity_matrices_identical(self):
        serial_system = ACMESystem(_small_config(finalize=False))
        serial_system.run()
        parallel_system = ACMESystem(_small_config(finalize=False, device_workers=4))
        parallel_system.run()
        for es, ep in zip(serial_system.edges, parallel_system.edges):
            np.testing.assert_array_equal(es.similarity, ep.similarity)

    def test_stochastic_shared_model_stays_deterministic(self):
        """Training-mode dropout forces feature extraction onto the
        per-dataset serial loop — one deterministic draw order from the
        per-module Generator — so two fresh seeded models give the
        identical matrix."""
        from repro.nn import has_active_stochastic_modules

        generator = make_cifar100_like(num_classes=4, image_size=16, seed=0)
        datasets = [
            generator.generate(8, seed=20 + i, name=f"d{i}") for i in range(3)
        ]

        def fresh_model():
            model = VisionTransformer(
                ViTConfig(num_classes=4, depth=2, embed_dim=32, dropout=0.2), seed=0
            )
            model.train()
            return model

        assert has_active_stochastic_modules(fresh_model())
        first = build_similarity_matrix(fresh_model(), datasets)
        second = build_similarity_matrix(fresh_model(), datasets)
        np.testing.assert_array_equal(first, second)


class TestNASParity:
    def _search(self, workers):
        backbone = VisionTransformer(
            ViTConfig(num_classes=4, depth=2, embed_dim=32), seed=0
        )
        config = NASConfig(
            num_blocks=2,
            search_epochs=1,
            children_per_epoch=1,
            shared_steps_per_child=1,
            controller_updates_per_epoch=2,
            derive_samples=3,
            train_backbone=False,
            seed=0,
        )
        generator = make_cifar100_like(num_classes=4, image_size=16, seed=0)
        dataset = generator.generate(10, seed=5, name="nas")
        search = HeaderSearch(
            backbone, 4, config, plan=ExecutionPlan(device_workers=workers)
        )
        return search.search(dataset)

    def test_parallel_child_scoring_matches_serial(self):
        serial = self._search(workers=None)
        parallel = self._search(workers=4)
        assert serial.spec.to_sequence() == parallel.spec.to_sequence()
        assert serial.best_reward == parallel.best_reward
        assert serial.reward_history == parallel.reward_history


class TestConfigWiring:
    def test_parallel_devices_propagates_to_edge_and_nas(self):
        """The edge is handed the config's plan and hands the same object
        on to its header search — nothing in between re-declares it."""
        system = ACMESystem(_small_config(device_workers=3, finalize=False))
        edge = system.edges[0]
        assert edge.plan is system.config.execution
        edge.backbone = VisionTransformer(system.config.vit, seed=0)
        edge.config.nas.search_epochs = 0  # derivation only
        edge.search_header()
        assert edge.search.plan is edge.plan

    def test_default_stays_serial(self):
        config = _small_config()
        assert config.execution == ExecutionPlan()
        assert ACMEConfig().execution == ExecutionPlan()
