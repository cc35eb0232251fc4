"""A fleet of N == N fleets of one == the textbook per-device loop.

:mod:`repro.train.fleet` holds the only frozen-header mini-batch loop in
``src/``: many headers over one shared frozen backbone train in one
computation graph per round (stacked logits, per-member block-diagonal
loss masking, one fused fleet-optimizer step), and a single device
(:func:`repro.train.trainer.train_header`,
:func:`repro.core.header_importance.compute_importance_set`) is its
one-member case.  These tests hold a fleet of N bit for bit to the
one-member calls at the engine's default dtype (float32, what production
runs) and, under float64, to the textbook loops in
``tests/reference/train.py`` — code that is not the code under test —
across heterogeneous batch counts, epochs, empty datasets and
partial-round schedules, plus the segmented-loss and fleet-optimizer
primitives.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.header_importance import ImportanceConfig, compute_importance_set
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import make_cifar100_like
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.headers import MLPHeader
from repro.models.vit import VisionTransformer, ViTConfig
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.optim import Adam, FleetOptimizer
from repro.nn.tensor import Tensor, concatenate, using_dtype
from repro.train.fleet import fleet_importance_rounds, train_headers_fleet
from repro.train.trainer import TrainConfig, train_header
from tests.reference.train import reference_importance_set, reference_train_header

VIT = ViTConfig(num_classes=6, depth=1, embed_dim=16, num_heads=4, image_size=16)
SPEC = HeaderSpec.from_sequence([0, 1, 0, 2, 1, 2, 2, 0])


@pytest.fixture(scope="module")
def backbone():
    from tests.helpers import reset_engine_state

    reset_engine_state()
    return VisionTransformer(VIT, seed=0)


def _train_one_member(backbone, header, dataset, config):
    return train_header(backbone, header, dataset, config=config, freeze_backbone=True)


@pytest.fixture(scope="module")
def sides(backbone):
    """The per-device right-hand sides a fleet of N is held to, each
    ``(dtype scope, backbone, train, score)``: N fleets of one at the
    engine's default dtype, and the textbook loops under float64 —
    ``ReferenceAdam``'s Python scalars round differently from the fused
    kernels' under float32, so only that comparison needs the scope."""
    with using_dtype("float64"):
        backbone64 = VisionTransformer(VIT, seed=0)
    return [
        (nullcontext, backbone, _train_one_member, compute_importance_set),
        (
            lambda: using_dtype("float64"),
            backbone64,
            reference_train_header,
            reference_importance_set,
        ),
    ]


def _datasets(sizes, seed0=10):
    gen = make_cifar100_like(num_classes=VIT.num_classes, image_size=VIT.image_size, seed=0)
    out = []
    for i, n in enumerate(sizes):
        if n == 0:
            ds = gen.generate(samples_per_class=1, seed=seed0 + i)
            out.append(ArrayDataset(ds.images[:0], ds.labels[:0], ds.num_classes, name="empty"))
        else:
            out.append(gen.generate(samples_per_class=n, seed=seed0 + i))
    return out


def _dag_headers(count, seed0=50):
    return [
        DAGHeader(VIT.embed_dim, VIT.num_patches, VIT.num_classes, SPEC,
                  rng=np.random.default_rng(seed0 + i))
        for i in range(count)
    ]


def _mlp_headers(count, seed0=70):
    return [
        MLPHeader(VIT.embed_dim, VIT.num_patches, VIT.num_classes,
                  rng=np.random.default_rng(seed0 + i))
        for i in range(count)
    ]


def _assert_headers_equal(serial_headers, fleet_headers):
    for s, f in zip(serial_headers, fleet_headers):
        for (name, a), (_, b) in zip(s.named_parameters(), f.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def _assert_training_parity(sides, build, datasets, configs):
    """On every side, ``build()``'s headers trained as one fleet equal
    ``build()``'s trained one device at a time: every epoch loss and
    accuracy, every final weight.  Returns the last fleet's reports."""
    for scope, backbone, train, _score in sides:
        with scope():
            fleet = build()
            reports_fleet = train_headers_fleet(backbone, fleet, datasets, configs)
            serial = build()
            reports_serial = [
                train(backbone, h, d, config=c)
                for h, d, c in zip(serial, datasets, configs)
            ]
        for rs, rf in zip(reports_serial, reports_fleet):
            # array_equal: an empty member's losses are nan on both sides.
            np.testing.assert_array_equal(rs.epoch_losses, rf.epoch_losses)
            assert rs.epoch_accuracies == rf.epoch_accuracies
        _assert_headers_equal(serial, fleet)
    return reports_fleet


def _assert_importance_parity(sides, build, datasets, configs, rounds=1):
    """On every side, ``rounds`` back-to-back importance rounds of one
    fleet equal the per-device rounds: every set, every header weight."""
    for scope, backbone, _train, score in sides:
        with scope():
            fleet, serial = build(), build()
            for _round in range(rounds):
                sets_fleet = fleet_importance_rounds(backbone, fleet, datasets, configs)
                sets_serial = [
                    score(backbone, h, d, config=c)
                    for h, d, c in zip(serial, datasets, configs)
                ]
                for a, b in zip(sets_serial, sets_fleet):
                    np.testing.assert_array_equal(a, b)
                _assert_headers_equal(serial, fleet)


class TestTrainFleetParity:
    def test_heterogeneous_batch_counts_bit_for_bit(self, sides):
        """Members with different dataset sizes (and so different batch
        counts per epoch) drop out of late rounds; every trace must still
        match the serial loop exactly."""
        datasets = _datasets([4, 7, 3])
        configs = [TrainConfig(epochs=2, batch_size=8, seed=7 + i) for i in range(3)]
        _assert_training_parity(sides, lambda: _dag_headers(3), datasets, configs)

    def test_heterogeneous_epochs_and_batch_caps(self, sides):
        """Training members differ in epochs and batch size; importance
        members, whose epochs are capped, also in the cap."""
        datasets = _datasets([5, 5, 5], seed0=20)
        configs = [
            TrainConfig(epochs=1, batch_size=8, seed=1),
            TrainConfig(epochs=3, batch_size=4, seed=2),
            TrainConfig(epochs=2, batch_size=16, seed=3),
        ]
        _assert_training_parity(sides, lambda: _mlp_headers(3), datasets, configs)
        configs = [
            ImportanceConfig(epochs=1, batch_size=8, seed=1),
            ImportanceConfig(epochs=3, batch_size=4, seed=2, max_batches_per_epoch=2),
            ImportanceConfig(epochs=2, batch_size=16, seed=3),
        ]
        _assert_importance_parity(
            sides, lambda: _dag_headers(3, seed0=120), datasets, configs
        )

    def test_empty_dataset_member(self, sides):
        """An empty member records nan losses / zero accuracy for every
        epoch, never steps, and leaves the other members' traces
        untouched — matching the serial loop member by member."""
        datasets = _datasets([4, 0, 3], seed0=30)
        configs = [TrainConfig(epochs=2, batch_size=8, seed=5 + i) for i in range(3)]
        reports_fleet = _assert_training_parity(
            sides, lambda: _mlp_headers(3, seed0=90), datasets, configs
        )
        assert all(np.isnan(reports_fleet[1].epoch_losses))
        assert reports_fleet[1].epoch_accuracies == [0.0, 0.0]

    def test_length_mismatch_raises(self, backbone):
        with pytest.raises(ValueError, match="headers"):
            train_headers_fleet(backbone, _mlp_headers(2), _datasets([4]))


class TestImportanceFleetParity:
    def test_importance_sets_bit_for_bit(self, sides):
        datasets = _datasets([4, 6, 3], seed0=60)
        configs = [ImportanceConfig(seed=3 + i) for i in range(3)]
        _assert_importance_parity(
            sides, lambda: _dag_headers(3, seed0=130), datasets, configs
        )

    def test_second_round_continues_from_trained_state(self, sides):
        """Aggregation runs several importance rounds back to back; each
        fleet round must continue bit-for-bit from the previous one."""
        datasets = _datasets([4, 5], seed0=65)
        configs = [ImportanceConfig(seed=1 + i) for i in range(2)]
        _assert_importance_parity(
            sides, lambda: _dag_headers(2, seed0=140), datasets, configs, rounds=2
        )

    def test_empty_dataset_raises_like_serial(self, backbone):
        datasets = _datasets([4, 0], seed0=68)
        with pytest.raises(ValueError, match="no batches"):
            fleet_importance_rounds(
                backbone, _dag_headers(2, seed0=150), datasets,
                [ImportanceConfig(seed=0)] * 2,
            )


class TestFleetCrossEntropy:
    def test_matches_per_slice_cross_entropy(self):
        # Exact-equality sum comparison against a Python-float
        # accumulator: only holds when the tensor total is float64 too.
        with using_dtype("float64"):
            rng = np.random.default_rng(0)
            logits_data = rng.normal(size=(12, 5))
            targets = rng.integers(0, 5, size=12)
            segments = [(0, 4), (4, 9), (9, 12)]

            stacked = Tensor(logits_data.copy(), requires_grad=True)
            total, losses = F.fleet_cross_entropy(stacked, targets, segments)
            total.backward()

            acc = 0.0
            for (lo, hi), seg_loss in zip(segments, losses):
                ref = Tensor(logits_data[lo:hi].copy(), requires_grad=True)
                ref_loss = F.cross_entropy(ref, targets[lo:hi])
                ref_loss.backward()
                assert seg_loss == float(ref_loss.data)
                np.testing.assert_array_equal(stacked.grad[lo:hi], ref.grad)
                acc = acc + float(ref_loss.data)
            assert float(total.data) == acc

    def test_block_diagonal_masking(self):
        """A segment's gradient rows depend only on that segment's own
        rows: perturbing another segment leaves them bit-identical."""
        rng = np.random.default_rng(1)
        base = rng.normal(size=(6, 3))
        targets = np.array([0, 1, 2, 0, 1, 2])

        def grad_of(data):
            logits = Tensor(data.copy(), requires_grad=True)
            total, _losses = F.fleet_cross_entropy(logits, targets, [(0, 3), (3, 6)])
            total.backward()
            return logits.grad

        perturbed = base.copy()
        perturbed[3:] += rng.normal(size=(3, 3))
        np.testing.assert_array_equal(grad_of(base)[:3], grad_of(perturbed)[:3])
        assert np.any(grad_of(base)[3:] != grad_of(perturbed)[3:])

    def test_non_partitioning_segments_raise(self):
        logits = Tensor(np.zeros((4, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="segment"):
            F.fleet_cross_entropy(logits, np.zeros(4, dtype=int), [(0, 2)])
        with pytest.raises(ValueError, match="segment"):
            F.fleet_cross_entropy(logits, np.zeros(4, dtype=int), [(0, 2), (3, 4)])


class TestFleetOptimizer:
    def _members(self, seed0=0, count=4):
        return [Linear(5, 3, rng=np.random.default_rng(seed0 + i)) for i in range(count)]

    def test_partial_round_schedule_matches_per_member_adam(self):
        rng = np.random.default_rng(0)
        Xs = [rng.normal(size=(6, 5)) for _ in range(4)]
        ys = [rng.integers(0, 3, size=6) for _ in range(4)]
        schedule = [[0, 1, 2, 3], [0, 2], [1], [0, 1, 2, 3], [3], [0, 1, 2, 3]]

        serial = self._members()
        opts = [Adam(m.parameters(), lr=1e-2) for m in serial]
        fleet = self._members()
        fopt = FleetOptimizer([m.parameters() for m in fleet], lr=1e-2)
        for active in schedule:
            for m in active:
                loss = F.cross_entropy(serial[m](Tensor(Xs[m])), ys[m])
                opts[m].zero_grad()
                loss.backward()
                opts[m].step()
            logits = [fleet[m](Tensor(Xs[m])) for m in active]
            stacked = concatenate(logits, axis=0) if len(logits) > 1 else logits[0]
            bounds = np.concatenate(([0], np.cumsum([Xs[m].shape[0] for m in active])))
            total, _losses = F.fleet_cross_entropy(
                stacked,
                np.concatenate([ys[m] for m in active]),
                list(zip(bounds[:-1], bounds[1:])),
            )
            fopt.zero_grad(active)
            total.backward()
            fopt.step(active)
        for s, f in zip(serial, fleet):
            np.testing.assert_array_equal(s.weight.data, f.weight.data)
            np.testing.assert_array_equal(s.bias.data, f.bias.data)

    def test_per_member_learning_rates(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        lrs = [1e-2, 5e-3]
        serial = self._members(seed0=30, count=2)
        opts = [Adam(m.parameters(), lr=lr) for m, lr in zip(serial, lrs)]
        fleet = self._members(seed0=30, count=2)
        fopt = FleetOptimizer([m.parameters() for m in fleet], lr=lrs)
        for _ in range(3):
            for m, opt in zip(serial, opts):
                loss = F.cross_entropy(m(Tensor(X)), y)
                opt.zero_grad()
                loss.backward()
                opt.step()
            logits = [m(Tensor(X)) for m in fleet]
            stacked = concatenate(logits, axis=0)
            total, _losses = F.fleet_cross_entropy(
                stacked, np.concatenate([y, y]), [(0, 6), (6, 12)]
            )
            fopt.zero_grad()
            total.backward()
            fopt.step()
        for s, f in zip(serial, fleet):
            np.testing.assert_array_equal(s.weight.data, f.weight.data)

    def test_shared_parameters_rejected(self):
        member = Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="share"):
            FleetOptimizer([member.parameters(), member.parameters()], lr=1e-3)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            FleetOptimizer([], lr=1e-3)

    def test_mask_rebind_synced_before_step(self):
        """A parameter rebound between rounds (e.g. mask installation)
        is copied back into the flat buffer before stepping."""
        fleet = self._members(seed0=60, count=2)
        fopt = FleetOptimizer([m.parameters() for m in fleet], lr=1e-2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)

        def one_round():
            logits = [m(Tensor(X)) for m in fleet]
            stacked = concatenate(logits, axis=0)
            total, _losses = F.fleet_cross_entropy(
                stacked, np.concatenate([y, y]), [(0, 4), (4, 8)]
            )
            fopt.zero_grad()
            total.backward()
            fopt.step()

        one_round()
        # Rebind one parameter's storage, like DAGHeader.set_parameter_mask.
        w = fleet[0].weight
        w.data = w.data * np.ones_like(w.data)
        rebound = w.data
        one_round()
        assert w.data is not rebound  # re-adopted into the flat buffer
        assert any(
            w.data is view
            for group in fopt._flat_groups
            for view in group.data_views
        )
