"""Every constant a knob became is read.

A config field that nothing outside ``tests/`` set became a module
constant with the field's old default (ANALYSIS.md, KNOB001).  A
constant the code no longer reads would be dead surface of its own, so
each one is changed here, on the module that reads it, and something
the code computes must change with it.  The probes are small: a
two-layer ViT on 8×8 images, one-epoch loops, a one-round system.
"""

import importlib
import zlib

import numpy as np
import pytest

from repro.core.distill import DistillConfig, distill
from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.core.nas import HeaderSearch, NASConfig
from repro.core.segmentation import clone_model
from repro.data.synthetic import SyntheticImageGenerator, SyntheticSpec, make_cifar100_like
from repro.distributed import ACMEConfig, ACMESystem
from repro.distributed.faults import FaultConfig
from repro.distributed.network import Network
from repro.distributed.scale import ScaleCluster, ScaleConfig
from repro.distributed.system import build_fleet_data
from repro.models import DAGHeader, ViTConfig, VisionTransformer, build_fixed_header
from repro.models.blocks import BlockSpec, HeaderSpec
from repro.train import TrainConfig, train_header, train_model

VIT = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=2, num_heads=2, num_classes=3)


def _data():
    return make_cifar100_like(num_classes=3, image_size=8, seed=0).generate(
        samples_per_class=6, seed=1
    )


def _crc(*arrays) -> int:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    return crc


def _weights(module) -> int:
    return _crc(*(p.data for p in module.parameters()))


def trained_model():
    model = VisionTransformer(VIT, seed=0)
    train_model(model, _data(), TrainConfig(epochs=1, batch_size=8))
    return _weights(model)


def trained_header():
    header = build_fixed_header(
        "mlp", VIT.embed_dim, VIT.num_patches, VIT.num_classes,
        rng=np.random.default_rng(0),
    )
    backbone = VisionTransformer(VIT, seed=0)
    train_header(backbone, header, _data(), TrainConfig(epochs=1, batch_size=8))
    return _weights(header)


def importance_set():
    header = DAGHeader(
        VIT.embed_dim, VIT.num_patches, VIT.num_classes,
        HeaderSpec(blocks=(BlockSpec(0, 1, 1, 3),)), rng=np.random.default_rng(0),
    )
    q = compute_importance_set(
        VisionTransformer(VIT, seed=0), header, _data(), ImportanceConfig(batch_size=8)
    )
    return _crc(q)


def distilled_student():
    teacher = VisionTransformer(VIT, seed=0)
    student = clone_model(teacher)
    distill(teacher, student, _data(), DistillConfig(epochs=1, batch_size=8))
    return _weights(student)


def searched_header():
    search = HeaderSearch(
        VisionTransformer(VIT, seed=0),
        VIT.num_classes,
        NASConfig(
            num_blocks=1, search_epochs=2, children_per_epoch=1, shared_steps_per_child=1,
            controller_updates_per_epoch=3, derive_samples=1, train_backbone=False,
        ),
    )
    result = search.search(_data())
    pool = search.pool.parameters() + search.classifier.parameters()
    return result.spec.repeats, _weights(search.controller), _crc(*(p.data for p in pool))


def scored_rows():
    search = HeaderSearch(VisionTransformer(VIT, seed=0), VIT.num_classes, NASConfig())
    return len(search._scored_prefix(_data()))


def fleet_data():
    data = build_fleet_data(
        ACMEConfig(num_clusters=1, devices_per_cluster=3, num_classes=4, samples_per_class=12)
    )
    return (
        [len(d) for d in data.shared_datasets],
        [p.storage_limit for p in data.fleet[0]],
    )


def scale_cluster():
    cluster = ScaleCluster(0, 2, 0, Network(), ScaleConfig(num_devices=2, num_clusters=1))
    return len(cluster.shared_dataset), cluster.front.micro_batch


def prototypes():
    return _crc(SyntheticImageGenerator(SyntheticSpec(3, image_size=8), seed=0).prototypes)


def patch_embedding():
    return VisionTransformer(VIT, seed=0).patch_embed.proj.weight.shape


def _system(**overrides):
    config = ACMEConfig(
        num_clusters=1, devices_per_cluster=3, num_classes=4, samples_per_class=12,
        finalize=False, **overrides,
    )
    config.edge.aggregation_rounds = 1
    return config


def similarity():
    system = ACMESystem(_system())
    system.run()
    return _crc(system.edges[0].similarity)


def round_retries():
    # Seed 8 drops one importance upload, and with no message-level
    # retry the round re-polls its cached copy once.
    config = _system(fault_config=FaultConfig(seed=8, drop=0.2, retries=0))
    return ACMESystem(config).run().clusters[0].protocol_retries


#: ``(module, constant, changed value, probe)``: the probe's result
#: differs once the constant does.
LIVE = [
    ("repro.train.trainer", "LR", 1e-2, trained_model),
    ("repro.train.trainer", "GRAD_CLIP", 1e-3, trained_model),
    ("repro.train.fleet", "LR", 1e-2, trained_header),
    ("repro.train.fleet", "GRAD_CLIP", 1e-3, trained_header),
    ("repro.train.fleet", "LR", 1e-2, importance_set),
    ("repro.core.distill", "LR", 1e-2, distilled_student),
    ("repro.core.distill", "GRAD_CLIP", 1e-3, distilled_student),
    ("repro.core.distill", "WIDTH_CHOICES", (0.5,), distilled_student),
    ("repro.core.nas", "REPEATS", 2, searched_header),
    ("repro.core.nas", "SHARED_LR", 1e-1, searched_header),
    ("repro.core.nas", "CONTROLLER_LR", 1e-1, searched_header),
    ("repro.core.nas", "GRAD_CLIP", 1e-3, searched_header),
    ("repro.core.nas", "VAL_FRACTION", 0.5, searched_header),
    ("repro.core.nas", "BATCH_SIZE", 4, scored_rows),
    ("repro.distributed.system", "SHARED_FRACTION", 0.5, fleet_data),
    ("repro.distributed.system", "STORAGE_LEVELS", (10_000,), fleet_data),
    ("repro.distributed.scale", "SAMPLES_PER_CLASS", 3, scale_cluster),
    ("repro.distributed.scale", "MICRO_BATCH", 4, scale_cluster),
    ("repro.data.synthetic", "SMOOTHING_SIGMA", 0.5, prototypes),
    ("repro.models.vit", "CHANNELS", 1, patch_embedding),
    ("repro.distributed.edge", "SIMILARITY_METRIC", "js", similarity),
    ("repro.distributed.edge", "ROUND_RETRIES", 0, round_retries),
]


@pytest.mark.parametrize(
    "module, name, value, probe",
    LIVE,
    ids=[f"{m.rsplit('.', 1)[-1]}.{n}-{p.__name__}" for m, n, _v, p in LIVE],
)
def test_the_constant_is_read(module, name, value, probe, monkeypatch):
    before = probe()
    monkeypatch.setattr(importlib.import_module(module), name, value)
    assert probe() != before
