"""The fused controller rollout against the chained one (the oracle).

``ArchitectureController.sample`` runs its LSTM rollout in numpy and
hands the tape one node with a hand-written BPTT backward.  The oracle
``tests/reference/controller.py`` is the rollout as a chain of
single-op tape nodes.  At both dtypes the two must draw the same
decisions and return the same log-probability and gradients,
bit for bit (no tolerance: the backward replays the chain's
accumulation order).
"""

import numpy as np
import pytest

from repro.core.controller import ArchitectureController, MovingAverageBaseline
from repro.core.nas import HeaderSearch, NASConfig
from repro.nn.optim import GRAD_CLIP, Adam, clip_grad_norm
from repro.nn.tensor import no_grad, using_dtype
from tests.reference.controller import chained_sample

DTYPES = ["float32", "float64"]
#: (num_blocks, seed) pairs: every block count the search uses, 4 seeds each.
CASES = [(blocks, seed) for blocks in (1, 2, 3, 4) for seed in range(4)]


def _pair(blocks, seed):
    """Two controllers with the same weights: one for each rollout."""
    return (
        ArchitectureController(num_blocks=blocks, seed=seed),
        ArchitectureController(num_blocks=blocks, seed=seed),
    )


def _reward(spec):
    """A deterministic stand-in for a child's validation accuracy."""
    seq = spec.to_sequence()
    return (sum((k + 1) * d for k, d in enumerate(seq)) % 7) / 7.0


def _reinforce_loss(samples, baseline):
    loss = None
    for sample in samples:
        reward = _reward(sample.spec)
        term = sample.log_prob * (-(reward - baseline.update(reward)))
        loss = term if loss is None else loss + term
    return loss


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("blocks,seed", CASES)
def test_rollout_equals_the_chain(dtype, blocks, seed):
    with using_dtype(dtype):
        fused, chained = _pair(blocks, seed)
        rf, rc = np.random.default_rng(seed), np.random.default_rng(seed)
        for greedy in (False, False, False, True):
            a = fused.sample(rf, greedy=greedy)
            b = chained_sample(chained, rc, greedy=greedy)
            assert a.spec == b.spec
            assert _same_bytes(a.log_prob.data, b.log_prob.data)
        # Both drew the same number of values from their streams.
        assert rf.random() == rc.random()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("blocks,seed", CASES)
def test_gradients_equal_the_chain(dtype, blocks, seed):
    """A REINFORCE loss over three rollouts: every parameter's gradient
    equals the chain's bit for bit, signed zeros included."""
    with using_dtype(dtype):
        fused, chained = _pair(blocks, seed)
        rf, rc = np.random.default_rng(seed), np.random.default_rng(seed)
        _reinforce_loss(
            [fused.sample(rf) for _ in range(3)], MovingAverageBaseline()
        ).backward()
        _reinforce_loss(
            [chained_sample(chained, rc) for _ in range(3)], MovingAverageBaseline()
        ).backward()
        for (name, p), q in zip(fused.named_parameters(), chained.parameters()):
            assert _same_bytes(p.grad, q.grad), name


@pytest.mark.parametrize("dtype", DTYPES)
def test_reinforce_sequence_samples_the_chains_specs(dtype):
    """Twenty updates as the search makes them (two rollouts, a
    moving-average baseline, clipping, Adam): both controllers sample
    the same specs at every update and end with the same weights."""
    with using_dtype(dtype):
        fused, chained = _pair(2, 0)
        runs = []
        for ctrl, sample in ((fused, ArchitectureController.sample), (chained, chained_sample)):
            rng = np.random.default_rng(3)
            opt = Adam(ctrl.parameters(), lr=5e-2)
            baseline = MovingAverageBaseline()
            specs = []
            for _ in range(20):
                samples = [sample(ctrl, rng) for _ in range(2)]
                specs.append([s.spec for s in samples])
                opt.zero_grad()
                _reinforce_loss(samples, baseline).backward()
                clip_grad_norm(ctrl.parameters(), GRAD_CLIP)
                opt.step()
            runs.append(specs)
        assert runs[0] == runs[1]
        assert len({str(s) for pair in runs[0] for s in pair}) > 1
        for p, q in zip(fused.parameters(), chained.parameters()):
            assert _same_bytes(p.data, q.data)


def test_untaped_rollout_records_nothing():
    ctrl = ArchitectureController(num_blocks=2, seed=0)
    with no_grad():
        sample = ctrl.sample(np.random.default_rng(0))
    assert sample.log_prob.requires_grad is False
    assert sample.log_prob._backward is None
    assert sample.log_prob._parents == ()


def test_taped_rollout_is_one_node_over_the_six_parameters():
    ctrl = ArchitectureController(num_blocks=2, seed=0)
    log_prob = ctrl.sample(np.random.default_rng(0)).log_prob
    params = ctrl.parameters()
    assert len(params) == 6
    assert [id(p) for p in log_prob._parents] == [id(p) for p in params]
    assert all(p._backward is None for p in log_prob._parents)


def test_search_tapes_only_the_reinforce_rollouts(monkeypatch):
    """ω_s children and the derivation draw tape-free; only
    ``_update_controller``'s rollouts record a node."""
    from repro.data import make_cifar100_like
    from repro.models import ViTConfig, VisionTransformer

    cfg = NASConfig(
        num_blocks=2,
        search_epochs=2,
        children_per_epoch=2,
        shared_steps_per_child=1,
        controller_updates_per_epoch=2,
        derive_samples=2,
        train_backbone=False,
    )
    data = make_cifar100_like(num_classes=3, image_size=8).generate(
        samples_per_class=8, seed=1
    )
    model = VisionTransformer(
        ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=1, num_heads=2,
                  num_classes=3),
        seed=0,
    )
    taped = []
    original = ArchitectureController.sample

    def spy(self, rng, greedy=False):
        sample = original(self, rng, greedy=greedy)
        taped.append(sample.log_prob.requires_grad)
        return sample

    monkeypatch.setattr(ArchitectureController, "sample", spy)
    HeaderSearch(model, 3, cfg).search(data)
    updates = cfg.search_epochs * cfg.controller_updates_per_epoch
    children = cfg.search_epochs * cfg.children_per_epoch
    assert sum(taped) == updates
    assert len(taped) == updates + children + cfg.derive_samples + 1
