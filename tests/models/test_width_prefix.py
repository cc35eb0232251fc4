"""Width is a prefix: the sliced backbone against the masked one, Eq. 3
and the Eq. 2 cost ranking against what the engine computes.

The backbone is permuted once by importance (``VisionTransformer.reorder``)
and every (w, d) sub-network is then the first heads, neurons and blocks:
computed on views (``scale``) and shipped cut out (``narrow``).  The
masked model it replaced is the oracle (``tests/reference/masked.py``),
compared at tolerance at every grid cell, w = 1 included.
"""

import numpy as np
import pytest

from repro.core.distill import WIDTH_CHOICES
from repro.core.segmentation import clone_model
from repro.hw.energy import latency
from repro.hw.profiles import DeviceProfile
from repro.models import ViTConfig, VisionTransformer
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad, using_dtype
from tests.reference.masked import masked_logits

CONFIG = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=3, num_heads=4, num_classes=5)
GRID = [(w, d) for w in WIDTH_CHOICES for d in range(1, CONFIG.depth + 1)]
#: Per-dtype tolerance of the sliced-versus-masked comparison.
TOLERANCE = {"float64": 1e-10, "float32": 1e-4}


def _orders(seed: int):
    rng = np.random.default_rng(seed)
    heads = [rng.permutation(CONFIG.num_heads) for _ in range(CONFIG.depth)]
    neurons = [rng.permutation(CONFIG.mlp_hidden) for _ in range(CONFIG.depth)]
    return heads, neurons


def _images(n: int = 3) -> np.ndarray:
    return np.random.default_rng(5).normal(size=(n, 3, CONFIG.image_size, CONFIG.image_size))


def _grads(model, logits):
    model.zero_grad()
    (logits * logits).sum().backward()
    return {name: None if p.grad is None else p.grad.copy() for name, p in model.named_parameters()}


@pytest.mark.parametrize("dtype", sorted(TOLERANCE))
def test_sliced_model_equals_the_masked_oracle_at_every_cell(dtype):
    """Forward and every parameter gradient: the sliced gradient is zero
    outside the prefix, as the masked one is."""
    tol = TOLERANCE[dtype]
    with using_dtype(dtype):
        model = VisionTransformer(CONFIG, seed=0)
        model.reorder(*_orders(1))
        images = _images()
        for width, depth in GRID:
            masked = masked_logits(model, images, width, depth)
            expected = _grads(model, masked)
            model.scale(width, depth)
            sliced = model(Tensor(images))
            got = _grads(model, sliced)
            model.scale(1.0, CONFIG.depth)
            np.testing.assert_allclose(sliced.data, masked.data, rtol=tol, atol=tol)
            assert got.keys() == expected.keys()
            for name, grad in got.items():
                if expected[name] is None:
                    assert grad is None, name
                else:
                    np.testing.assert_allclose(grad, expected[name], rtol=tol, atol=tol, err_msg=name)


def test_permuting_by_importance_is_masking_by_importance():
    """The old δ masked the top-w of each importance order on the
    unpermuted model; the permuted model's prefix is the same network."""
    with using_dtype("float64"):
        model = VisionTransformer(CONFIG, seed=0)
        heads, neurons = _orders(2)
        permuted = clone_model(model)
        permuted.reorder(heads, neurons)
        images = _images()
        for width, depth in GRID:
            masked = masked_logits(model, images, width, depth, heads, neurons)
            with no_grad():
                sliced = permuted.scale(width, depth)(Tensor(images))
            np.testing.assert_allclose(sliced.data, masked.data, rtol=1e-10, atol=1e-10)


def test_narrowed_model_computes_the_scaled_one():
    model = VisionTransformer(CONFIG, seed=0)
    model.reorder(*_orders(3))
    images = Tensor(_images())
    for width, depth in GRID:
        with no_grad():
            scaled = clone_model(model).scale(width, depth)(images).data
            narrowed = clone_model(model).narrow(width, depth)
            np.testing.assert_array_equal(narrowed(images).data, scaled)
        assert len(narrowed.encoder.layers) == depth and narrowed.width == width
        assert all(p.data.flags.c_contiguous for p in narrowed.parameters())


def test_prefix_parameter_count_is_eq3_plus_the_unscaled_terms():
    """ζ(w, d) = d·w·(H + 2·ξ_h·ξ_f) counts, per block, the attention's
    four projections with their biases (H = 4D² + 4D) and the MLP's two
    weights, all scaled by w.  The prefix a message ships holds in
    addition, per block, the output-projection bias's unscaled share
    (1 − w)·D, fc1's w·F and fc2's D biases and two LayerNorms (4D), and
    once the embedding, CLS, positions, final norm and classifier."""
    cfg = ViTConfig(num_classes=8, depth=4, embed_dim=32)
    D, F_, C = cfg.embed_dim, cfg.mlp_hidden, cfg.num_classes
    patch = 3 * cfg.patch_size**2
    once = (patch * D + D) + D + (cfg.num_patches + 1) * D + 2 * D + (D * C + C)
    for width in WIDTH_CHOICES:
        for depth in range(1, cfg.depth + 1):
            state = VisionTransformer(cfg, seed=0).narrow(width, depth).state_dict()
            count = sum(v.size for v in state.values())
            unscaled = depth * ((1 - width) * D + width * F_ + D + 4 * D)
            assert count == cfg.zeta(width, depth) + unscaled + once, (width, depth)


def test_multiply_adds_rank_the_cells_as_the_latency_model(monkeypatch):
    """Eq. 2's T(w, d) = L + ΔL·w·d orders the cells by w·d; the
    multiply-adds the engine issues (``F.linear_forward`` operand shapes)
    order them the same way, ties included."""
    macs = []
    linear_forward = F.linear_forward

    def counted(x, weight, bias):
        macs.append(int(np.prod(x.shape[:-1])) * weight.shape[0] * weight.shape[1])
        return linear_forward(x, weight, bias)

    monkeypatch.setattr(F, "linear_forward", counted)
    model = VisionTransformer(CONFIG, seed=0)
    profile = DeviceProfile.synthesize(0, 4, 10**9, np.random.default_rng(0))
    images = Tensor(_images(2))
    cost, seconds = {}, {}
    for width, depth in GRID:
        macs.clear()
        with no_grad():
            model.scale(width, depth)(images)
        cost[width, depth] = sum(macs)
        seconds[width, depth] = latency(profile, width, depth)
    for a in GRID:
        for b in GRID:
            assert np.sign(cost[a] - cost[b]) == np.sign(round(seconds[a] - seconds[b], 12)), (a, b)
