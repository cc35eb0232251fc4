"""Every frozen forward runs once.

δ(θ0, w, d) keeps the *first* ``d`` layers (§II-C), so the (w, d) loss
grid shares depth prefixes; Phase 2-2 freezes the backbone (§III-D), so
a device's features over its fixed private set are swept once per
installed model.  Two kinds of check: the per-cell grid loop the cloud
used to run, kept as an oracle in ``tests/reference/cloud_grid.py``,
must equal the cached losses exactly; and a count of encoder-layer
forwards — by protocol phase, in calls and in rows — must equal what one
sweep costs, whatever ``aggregation_rounds`` is.
"""

import math

import pytest

from repro.core.distill import WIDTH_CHOICES, DistillConfig
from repro.core.nas import BATCH_SIZE, VAL_FRACTION, NASConfig
from repro.data import make_cifar100_like
from repro.distributed import ACMEConfig, ACMESystem
from repro.distributed import cloud as cloud_module
from repro.distributed.cloud import CloudConfig, CloudServer
from repro.distributed.edge import EdgeConfig
from repro.distributed.network import Network
from repro.distributed.system import dtype_scope, run_edge_phases
from repro.models import ViTConfig, VisionTransformer
from repro.nn.transformer import TransformerEncoderLayer
from tests.reference.cloud_grid import loss_grid

SWEEP_CHUNK = 256  # precompute_backbone_features' default chunk_size


class LayerForwards:
    """Active encoder-layer forwards since the last :meth:`take`."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.rows = 0
        forward = TransformerEncoderLayer.forward

        def counted(layer, x):
            if layer.active:
                self.calls += 1
                self.rows += x.shape[0]
            return forward(layer, x)

        monkeypatch.setattr(TransformerEncoderLayer, "forward", counted)

    def take(self):
        taken, self.calls, self.rows = (self.calls, self.rows), 0, 0
        return taken


@pytest.fixture()
def layer_forwards(monkeypatch):
    return LayerForwards(monkeypatch)


@pytest.fixture()
def cloud(monkeypatch):
    """A distilled backbone over 84 public rows: two eval batches (64 +
    16 of an ``EVAL_SAMPLES`` of 80) and a non-contiguous depth grid."""
    monkeypatch.setattr(cloud_module, "EVAL_SAMPLES", 80)
    data = make_cifar100_like(num_classes=6, image_size=8).generate(
        samples_per_class=14, seed=1
    )
    vit = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=4,
                    num_heads=4, num_classes=6)
    server = CloudServer(
        VisionTransformer(vit, seed=0), data, Network(),
        CloudConfig(pretrain_epochs=1, distill=DistillConfig(epochs=1),
                    depth_choices=(2, 4), seed=3),
    )
    server.pretrain_reference()
    server.generate_dynamic_backbone()
    return server


class TestLossGrid:
    def test_grid_is_the_width_constant_by_the_depth_choices(self, cloud, monkeypatch):
        monkeypatch.setattr(cloud_module, "WIDTH_CHOICES", (0.5, 1.0))
        cloud.prepare_candidates()
        assert sorted(cloud._loss_cache) == [(w, d) for w in (0.5, 1.0) for d in (2, 4)]

    def test_grid_equals_the_per_cell_oracle(self, cloud):
        cfg = cloud.config
        cloud.prepare_candidates()
        assert sorted(cloud._loss_cache) == [
            (w, d) for w in WIDTH_CHOICES for d in (2, 4)
        ]
        # The sweep leaves the backbone at full scale, and the frozen
        # reply payload is that full-scale state.
        assert (cloud.backbone.width, cloud.backbone.depth) == (1.0, 4)
        live = cloud.backbone.state_dict()
        assert all((cloud._backbone_state[k] == v).all() for k, v in live.items())

        oracle = loss_grid(
            cloud.backbone, cloud.public_dataset, WIDTH_CHOICES, (2, 4),
            cloud_module.EVAL_SAMPLES, cfg.seed,
        )
        assert cloud._loss_cache == oracle  # exact: same floats, same keys

    def test_grid_runs_each_width_once_at_its_deepest_depth(
        self, cloud, layer_forwards
    ):
        cfg = cloud.config
        eval_batches = math.ceil(cloud_module.EVAL_SAMPLES / 64)
        assert eval_batches == 2
        layer_forwards.take()
        cloud.prepare_candidates()
        calls, rows = layer_forwards.take()
        assert calls == len(WIDTH_CHOICES) * max(cfg.depth_choices) * eval_batches
        assert rows == len(WIDTH_CHOICES) * max(cfg.depth_choices) * cloud_module.EVAL_SAMPLES
        # Ready: a second call forwards nothing.
        cloud.prepare_candidates()
        assert layer_forwards.take() == (0, 0)


def _campaign(rounds: int) -> ACMEConfig:
    return ACMEConfig(
        num_clusters=2,
        devices_per_cluster=2,
        num_classes=6,
        samples_per_class=30,
        edge=EdgeConfig(
            nas=NASConfig(
                num_blocks=2,
                search_epochs=2,
                children_per_epoch=2,
                shared_steps_per_child=2,
                controller_updates_per_epoch=2,
                derive_samples=2,
                train_backbone=False,
                seed=0,
            ),
            aggregation_rounds=rounds,
            keep_fraction=0.8,
            seed=0,
        ),
        seed=0,
    )


class TestCampaignForwardCounts:
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_device_rows_are_swept_once_per_distribution(self, rounds, layer_forwards):
        """The aggregation loop's importance rounds, the similarity
        feature samples and the finale's fine-tune all read one sweep of
        each device's private set; header NAS reads one sweep of its
        train split and scored validation prefix."""
        config = _campaign(rounds)
        system = ACMESystem(config)
        system.run_cloud_phases()
        for edge in system.edges:
            by_phase = {}
            layer_forwards.take()

            def mark(phase):
                by_phase[phase] = layer_forwards.take()

            with dtype_scope(config):
                run_edge_phases(config, edge, checkpoint=mark)
            depth = edge.assigned_depth
            sizes = [len(d.dataset) for d in edge.devices]
            assert by_phase["aggregate"] == (
                depth * sum(math.ceil(n / SWEEP_CHUNK) for n in sizes),
                depth * sum(sizes),
            )
            # Finalize: the fine-tune gathers rows; only evaluation runs
            # the backbone.
            eval_rows = sum(len(d.eval_dataset()) for d in edge.devices)
            assert by_phase["finalize"][1] == depth * eval_rows
            assert all(d._features is not None for d in edge.devices)

            shared = len(edge.shared_dataset)
            train_rows = max(1, int(round((1.0 - VAL_FRACTION) * shared)))
            scored = min(shared - train_rows, 4 * BATCH_SIZE)
            assert by_phase["search"] == (2 * depth, depth * (train_rows + scored))
            assert by_phase["distribute"] == (0, 0)
