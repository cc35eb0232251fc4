"""Tests for the ENAS-style header search (Phase 2-1)."""

import gc

import numpy as np
import pytest

from repro.core.nas import HeaderSearch, NASConfig, SharedOpPool
from repro.core.segmentation import clone_model
from repro.data import ArrayDataset, make_cifar100_like
from repro.models import ViTConfig, VisionTransformer
from repro.models.blocks import BlockSpec, HeaderSpec, num_operations
from repro.train import TrainConfig, train_model


def _score(search, spec, dataset):
    """Validation accuracy of ``spec`` under ``search``'s shared weights."""
    return search._evaluate_child(search.build_child(spec), dataset)


FAST = NASConfig(
    num_blocks=2,
    search_epochs=1,
    children_per_epoch=2,
    shared_steps_per_child=1,
    controller_updates_per_epoch=2,
    derive_samples=2,
    batch_size=12,
    train_backbone=False,
    seed=0,
)


@pytest.fixture(scope="module")
def setup():
    gen = make_cifar100_like(num_classes=5, image_size=8)
    data = gen.generate(samples_per_class=16, seed=1)
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=3,
                    num_heads=4, num_classes=5)
    model = VisionTransformer(cfg, seed=0)
    train_model(model, data, TrainConfig(epochs=2, seed=0))
    return model, data


class TestSharedOpPool:
    def test_same_key_same_instance(self):
        pool = SharedOpPool(16, seed=0)
        a = pool.factory(0, 0, 1)
        b = pool.factory(0, 0, 1)
        assert a is b

    def test_different_keys_different_instances(self):
        pool = SharedOpPool(16, seed=0)
        assert pool.factory(0, 0, 1) is not pool.factory(0, 1, 1)
        assert pool.factory(0, 0, 1) is not pool.factory(1, 0, 1)

    def test_parameters_deduplicated(self):
        pool = SharedOpPool(16, seed=0)
        pool.factory(0, 0, 1)
        pool.factory(0, 0, 1)
        params = pool.parameters()
        assert len({id(p) for p in params}) == len(params)


class TestHeaderSearch:
    def test_search_returns_valid_spec(self, setup):
        model, data = setup
        search = HeaderSearch(model, 5, FAST)
        result = search.search(data)
        result.spec.validate(num_operations())
        assert 0.0 <= result.best_reward <= 1.0
        assert len(result.reward_history) == FAST.search_epochs

    def test_children_share_weights(self, setup):
        model, _data = setup
        search = HeaderSearch(model, 5, FAST)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 1), BlockSpec(1, 0, 2, 2)))
        a = search.build_child(spec)
        b = search.build_child(spec)
        assert a.classifier is b.classifier
        assert a.modules_list[0].blocks[0].op1 is b.modules_list[0].blocks[0].op1

    def test_evaluate_returns_accuracy(self, setup):
        model, data = setup
        search = HeaderSearch(model, 5, FAST)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 3, 3), BlockSpec(2, 0, 3, 3)))
        acc = _score(search, spec, data)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_keeps_no_memo_across_datasets(self, setup):
        """Ad-hoc datasets are scored on their own rows: a dataset that
        dies between two scoring calls (its address free for the
        next one) must not lend its features to its successor."""
        model, data = setup
        search = HeaderSearch(model, 5, FAST)
        spec = search.search(data).spec
        first = make_cifar100_like(num_classes=5, image_size=8).generate(
            samples_per_class=16, seed=2
        )
        # Identical rows with one label: every row gets the same
        # prediction, so the right answer is all-or-nothing — which the
        # first dataset's features (five balanced classes) cannot give.
        blank = (np.zeros_like(first.images), np.zeros_like(first.labels))
        got_first = _score(search, spec, first)
        assert got_first == self._fresh_answer(search, spec, first)
        assert 0.0 < got_first < 1.0
        stale_address = id(first)
        del first
        gc.collect()
        # Allocate until the allocator hands the dead dataset's address
        # out again (the rejects stay alive so it cannot give up theirs).
        rejects = []
        for _ in range(20000):
            second = ArrayDataset(*blank, num_classes=5)
            if id(second) == stale_address:
                break
            rejects.append(second)
        got_second = _score(search, spec, second)
        assert got_second == self._fresh_answer(search, spec, second)
        assert got_second in (0.0, 1.0)

    @staticmethod
    def _fresh_answer(trained, spec, dataset):
        """The score a search that has never seen any dataset gives."""
        fresh = HeaderSearch(trained.backbone, 5, FAST)
        fresh.pool, fresh.classifier = trained.pool, trained.classifier
        return _score(fresh, spec, dataset)

    @pytest.mark.parametrize("train_backbone", [True, False])
    def test_backbone_moves_only_in_train_backbone_mode(self, setup, train_backbone):
        """``train_backbone=True`` (the paper's stage 2-1) keeps updating
        backbone weights during ``search`` — no swept features stand in
        for a backbone that is training; frozen mode never touches it."""
        model, data = setup
        backbone = clone_model(model)
        config = NASConfig(**{**FAST.__dict__, "train_backbone": train_backbone})
        before = backbone.state_dict()
        HeaderSearch(backbone, 5, config).search(data)
        after = backbone.state_dict()
        moved = any(not np.array_equal(before[k], after[k]) for k in before)
        assert moved == train_backbone

    def test_materialize_header_copies_pool_weights(self, setup):
        model, data = setup
        search = HeaderSearch(model, 5, FAST)
        result = search.search(data)
        header = search.materialize_header(result.spec)
        # Standalone: not sharing modules with the pool.
        assert header.classifier is not search.classifier
        # But weights equal where positions overlap.
        np.testing.assert_allclose(
            header.classifier.state_dict()["layer0.weight"],
            search.classifier.state_dict()["layer0.weight"],
        )

    def test_search_trains_shared_weights(self, setup):
        """Shared-parameter training must actually move the pool weights."""
        model, data = setup
        search = HeaderSearch(model, 5, FAST)
        before = search.classifier.state_dict()["layer0.weight"].copy()
        search.search(data)
        after = search.classifier.state_dict()["layer0.weight"]
        assert not np.allclose(before, after)

    def test_search_improves_over_random_header(self, setup):
        """The searched header (after shared training) must beat an
        untrained random header on validation accuracy."""
        model, data = setup
        config = NASConfig(
            num_blocks=2,
            search_epochs=2,
            children_per_epoch=3,
            shared_steps_per_child=3,
            controller_updates_per_epoch=3,
            derive_samples=4,
            batch_size=16,
            train_backbone=False,
            seed=1,
        )
        search = HeaderSearch(model, 5, config)
        result = search.search(data)
        # An untrained pool gives chance-level accuracy (~1/5).
        fresh = HeaderSearch(model, 5, FAST)
        spec = result.spec
        untrained = _score(fresh, spec, data)
        assert result.best_reward >= untrained
