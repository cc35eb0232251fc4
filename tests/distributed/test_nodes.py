"""Unit tests for cloud/edge/device nodes in isolation."""

import numpy as np
import pytest

from repro.core.distill import DistillConfig
from repro.core.header_importance import ImportanceConfig
from repro.core.similarity import extract_features
from repro.data import make_cifar100_like
from repro.distributed import ACMEConfig
from repro.distributed.cloud import CloudConfig, CloudServer
from repro.distributed.device import DeviceNode
from repro.distributed.edge import EdgeConfig, EdgeServer
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import Network
from repro.hw.profiles import DeviceProfile, cluster_statistics, make_fleet
from repro.models import ViTConfig, VisionTransformer
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.train.serving import precompute_backbone_features
from tests.helpers import finetune, importance_round


@pytest.fixture()
def env():
    network = Network()
    generator = make_cifar100_like(num_classes=6, image_size=8)
    data = generator.generate(samples_per_class=12, seed=1)
    config = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=3,
                       num_heads=4, num_classes=6)
    reference = VisionTransformer(config, seed=0)
    cloud = CloudServer(
        reference, data, network,
        CloudConfig(pretrain_epochs=1, distill=DistillConfig(epochs=1),
                    depth_choices=[1, 2, 3]),
    )
    return network, cloud, data, config


class TestCloudServer:
    def test_requires_backbone_generation_before_eval(self, env):
        _network, cloud, _data, _config = env
        stats = cluster_statistics(make_fleet(1, 2)[0])
        with pytest.raises(AssertionError):
            cloud.evaluate_candidates(stats)

    def test_candidate_grid_size(self, env):
        _network, cloud, _data, _config = env
        cloud.pretrain_reference()
        cloud.generate_dynamic_backbone()
        stats = cluster_statistics(make_fleet(1, 2)[0])
        candidates = cloud.evaluate_candidates(stats)
        assert len(candidates) == 4 * 3  # widths × depths

    def test_loss_cache_reused(self, env):
        _network, cloud, _data, _config = env
        cloud.pretrain_reference()
        cloud.generate_dynamic_backbone()
        stats = cluster_statistics(make_fleet(1, 2)[0])
        cloud.evaluate_candidates(stats)
        cached = dict(cloud._loss_cache)
        cloud.evaluate_candidates(stats)
        assert cloud._loss_cache == cached

    def test_customize_respects_storage(self, env):
        _network, cloud, _data, config = env
        cloud.pretrain_reference()
        cloud.generate_dynamic_backbone()
        fleet = make_fleet(1, 3, storage_levels=(15_000, 20_000, 25_000))[0]
        stats = cluster_statistics(fleet)
        chosen = cloud.customize_for_cluster(stats)
        assert config.zeta(chosen.width, chosen.depth) < 15_000

    def test_rejects_unknown_kind(self, env):
        network, cloud, _data, _config = env
        with pytest.raises(ValueError):
            cloud.handle(Message("x", "cloud", MessageKind.PERSONALIZED_SET, nbytes=1))

    def test_absorbs_dataset_upload(self, env):
        _network, cloud, data, _config = env
        reply = cloud.handle(
            Message("d0", "cloud", MessageKind.DATASET_UPLOAD, {"dataset": data})
        )
        assert reply.kind is MessageKind.ACK


class TestDeviceNode:
    def _device(self, network, data):
        profile = DeviceProfile.synthesize(0, 4, 50_000, np.random.default_rng(0))
        return DeviceNode(profile, data, network,
                          importance_config=ImportanceConfig(max_batches_per_epoch=1))

    def test_rejects_unknown_kind(self, env):
        network, _cloud, data, _config = env
        device = self._device(network, data)
        with pytest.raises(ValueError):
            device.handle(Message("e", device.name, MessageKind.CLUSTER_STATS, nbytes=1))

    def test_importance_round_requires_model(self, env):
        network, _cloud, data, _config = env
        device = self._device(network, data)
        with pytest.raises(AssertionError):
            importance_round(device)

    @staticmethod
    def _distribution(device, config, backbone_seed=0):
        backbone = VisionTransformer(config, seed=backbone_seed)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),))
        header = DAGHeader(config.embed_dim, config.num_patches,
                           config.num_classes, spec)
        return Message(
            "edge0", device.name, MessageKind.MODEL_DISTRIBUTION,
            {
                "vit_config": config,
                "backbone_state": backbone.state_dict(),
                "head_orders": [np.arange(4)] * config.depth,
                "neuron_orders": [np.arange(32)] * config.depth,
                "width": 0.5,
                "depth": 2,
                "header_spec": spec,
                "header_state": header.state_dict(),
                "keep_fraction": 0.5,
            },
        )

    def test_model_installation_and_importance(self, env):
        network, _cloud, data, config = env
        device = self._device(network, data)
        message = self._distribution(device, config)
        reply = device.handle(message)
        assert reply.kind is MessageKind.ACK
        assert device.backbone.width == 0.5
        assert device.backbone.depth == 2
        assert device.keep_fraction == 0.5

        upload = importance_round(device, include_feature_sample=True)
        assert upload.kind is MessageKind.IMPORTANCE_SET
        assert upload.payload["importance"].dtype == np.float32
        assert "feature_sample" in upload.payload

        # Personalized set prunes the header.
        q_prime = np.random.default_rng(0).random(
            device.header.parameter_count()
        ).astype(np.float32)
        device.handle(
            Message("edge0", device.name, MessageKind.PERSONALIZED_SET,
                    {"importance": q_prime})
        )
        assert device.header._parameter_mask is not None

    def test_frozen_features_live_as_long_as_the_installed_model(self, env):
        """One sweep of the private set serves every round until the next
        ``MODEL_DISTRIBUTION``; a new backbone means new features."""
        network, _cloud, data, config = env
        device = self._device(network, data)

        def sweep():  # what the cache must equal: a forward over every row
            return precompute_backbone_features(device.backbone, data.images)

        device.handle(self._distribution(device, config, backbone_seed=0))
        first = device.frozen_features()
        assert first.cls.shape[0] == len(data)
        importance_round(device, include_feature_sample=True)
        finetune(device)
        assert device.frozen_features() is first  # rounds and finale reuse it
        np.testing.assert_array_equal(first.tokens.data, sweep().tokens.data)

        device.handle(self._distribution(device, config, backbone_seed=1))
        second = device.frozen_features()
        assert second is not first
        assert not np.array_equal(second.cls.data, first.cls.data)
        for got, want in zip(second, sweep()):
            np.testing.assert_array_equal(got.data, want.data)
        sample = importance_round(device, include_feature_sample=True).payload[
            "feature_sample"
        ]
        np.testing.assert_array_equal(
            sample,
            extract_features(
                device.backbone, data, max_samples=16, seed=device.seed
            ).astype(np.float32),
        )


class TestEdgeServer:
    def test_request_backbone_roundtrip(self, env):
        network, cloud, data, config = env
        cloud.pretrain_reference()
        cloud.generate_dynamic_backbone()
        profiles = make_fleet(1, 2, storage_levels=(30_000, 40_000))[0]
        devices = [
            DeviceNode(p, data, network,
                       importance_config=ImportanceConfig(max_batches_per_epoch=1),
                       seed=i)
            for i, p in enumerate(profiles)
        ]
        edge = EdgeServer(0, devices, data, network, EdgeConfig())
        edge.request_backbone()
        assert edge.backbone is not None
        assert config.zeta(edge.assigned_width, edge.assigned_depth) < 30_000
        # Traffic: stats up + assignment down.
        kinds = network.kind_sequence()
        assert kinds[0] == "cluster_stats"
        assert kinds[1] == "backbone_assignment"

    def test_rejects_unknown_kind(self, env):
        network, _cloud, data, _config = env
        edge = EdgeServer(7, [], data, network, EdgeConfig())
        with pytest.raises(ValueError):
            edge.handle(Message("x", edge.name, MessageKind.ACK, nbytes=1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("aggregation_rounds", 0),
            ("aggregation_rounds", 2.5),
            ("aggregation_rounds", True),
            ("round_quorum", 1.5),
            ("round_quorum", 0.0),
            ("round_quorum", float("nan")),
            ("round_deadline", 0.0),
            ("round_deadline", -2.0),
        ],
    )
    def test_out_of_range_round_settings_are_rejected(self, env, field, value):
        """Assigned after ``__post_init__`` (as ``--quorum`` does), so the
        check sits where the round engine reads them: the loop refuses
        to start, naming the field, instead of running phantom retries
        (quorum > 1), dying on a bare assert (zero rounds) or on an
        unnamed ``range()`` error (a float count), or taking ``True``
        for 1."""
        network, _cloud, data, _config = env
        edge = EdgeServer(8, [], data, network, EdgeConfig())
        setattr(edge.config, field, value)
        with pytest.raises(ValueError, match=field):
            edge.aggregation_loop()
        assert edge.round_retry_total == 0 and edge.round_participation == []

    def test_explicit_round_count_is_checked_too(self, env):
        network, _cloud, data, _config = env
        edge = EdgeServer(9, [], data, network, EdgeConfig())
        with pytest.raises(ValueError, match="aggregation_rounds"):
            edge.aggregation_loop(num_rounds=0)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_explicit_round_count_must_be_an_int(self, env, value):
        """The per-call count obeys the field's rule: a float is not left
        to fail inside ``range()`` and ``True`` is not taken for 1."""
        network, _cloud, data, _config = env
        edge = EdgeServer(10, [], data, network, EdgeConfig())
        with pytest.raises(ValueError, match=f"aggregation_rounds .*got {value!r}"):
            edge.aggregation_loop(num_rounds=value)
        assert edge.round_retry_total == 0 and edge.round_participation == []


@pytest.mark.parametrize(
    "field, bad",
    [
        ("num_clusters", 0),
        ("devices_per_cluster", 0),
        ("num_clusters", 2.5),
        ("devices_per_cluster", True),
    ],
)
def test_an_empty_or_fractional_fleet_is_refused_at_construction(field, bad):
    """``repro-cli run --clusters 0`` used to reach the data partition
    and fail there with a traceback about ``num_devices``."""
    with pytest.raises(ValueError, match=f"{field} must be an int >= 1, got {bad!r}"):
        ACMEConfig(**{field: bad})
