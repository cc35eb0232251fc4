"""Tests for the width/depth-scalable Vision Transformer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ViTConfig, VisionTransformer
from repro.models.vit import CHANNELS
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(21)


def small_config(**overrides):
    defaults = dict(
        image_size=8, patch_size=4, embed_dim=16, depth=3, num_heads=4, num_classes=5
    )
    defaults.update(overrides)
    return ViTConfig(**defaults)


def images(n=2, config=None):
    config = config or small_config()
    return Tensor(RNG.normal(size=(n, CHANNELS, config.image_size, config.image_size)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ViTConfig(image_size=10, patch_size=4)
        with pytest.raises(ValueError):
            ViTConfig(embed_dim=30, num_heads=4)

    def test_num_patches(self):
        assert small_config().num_patches == 4
        assert ViTConfig(image_size=16, patch_size=4).num_patches == 16

    def test_zeta_formula(self):
        """ζ(θ) = d·w·(H + 2·ξ_h·ξ_f) exactly."""
        cfg = small_config()
        h = 4 * cfg.embed_dim**2 + 4 * cfg.embed_dim
        expected = 2 * 0.5 * (h + 2 * cfg.embed_dim * cfg.mlp_hidden)
        assert cfg.zeta(0.5, 2) == pytest.approx(expected)

    def test_zeta_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            cfg.zeta(0.0, 1)
        with pytest.raises(ValueError):
            cfg.zeta(0.5, 0)
        with pytest.raises(ValueError):
            cfg.zeta(0.5, cfg.depth + 1)

    @pytest.mark.parametrize("depth", [2.5, 2.0, True])
    def test_zeta_refuses_a_depth_that_is_not_an_int(self, depth):
        """A fractional depth names a model that cannot exist."""
        with pytest.raises(ValueError, match="depth must be an int"):
            small_config().zeta(0.5, depth)

    def test_zeta_takes_a_wire_decoded_depth(self):
        cfg = small_config()
        assert cfg.zeta(0.5, np.int64(2)) == cfg.zeta(0.5, 2)


class TestForward:
    def test_logits_shape(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        assert model(images(3, cfg)).shape == (3, 5)

    def test_forward_features_shapes(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        cls, tokens = model.forward_features(images(2, cfg))
        assert cls.shape == (2, 16)
        assert tokens.shape == (2, 4, 16)

    def test_forward_features_multi(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        cls, tokens, penult = model.forward_features_multi(images(2, cfg))
        assert penult.shape == tokens.shape
        assert not np.allclose(penult.data, tokens.data)

    def test_accepts_plain_arrays(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        out = model(RNG.normal(size=(1, 3, 8, 8)))
        assert out.shape == (1, 5)

    def test_gradients_reach_patch_embedding(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        model(images(2, cfg)).sum().backward()
        assert model.patch_embed.proj.weight.grad is not None
        assert model.cls_token.grad is not None
        assert model.pos_embed.grad is not None


class TestScaling:
    def test_width_changes_output(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        x = images(2, cfg)
        full = model(x).data.copy()
        model.set_width(0.5)
        assert not np.allclose(full, model(x).data)
        assert model.width == 0.5

    def test_depth_changes_output(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        x = images(2, cfg)
        full = model(x).data.copy()
        model.set_depth(1)
        assert not np.allclose(full, model(x).data)
        assert model.depth == 1

    def test_scale_chains(self):
        model = VisionTransformer(small_config(), seed=0)
        assert model.scale(0.5, 2) is model
        assert model.zeta() == model.config.zeta(0.5, 2)

    @pytest.mark.parametrize("depth", [2.7, True])
    def test_set_depth_refuses_a_depth_that_is_not_an_int(self, depth):
        model = VisionTransformer(small_config(), seed=0)
        with pytest.raises(ValueError, match="depth must be an int"):
            model.set_depth(depth)
        assert model.depth == 3

    def test_scale_refuses_a_fractional_depth_before_touching_width(self):
        model = VisionTransformer(small_config(), seed=0)
        with pytest.raises(ValueError, match="depth must be an int"):
            model.scale(0.5, 2.7)
        assert model.width == 1.0 and model.depth == 3
        assert all(layer.attn.head_mask.all() for layer in model.encoder.layers)

    def test_scale_takes_a_wire_decoded_depth(self):
        model = VisionTransformer(small_config(), seed=0)
        model.scale(0.5, np.int64(2))
        assert model.depth == 2

    def test_width_validation(self):
        model = VisionTransformer(small_config(), seed=0)
        with pytest.raises(ValueError):
            model.set_width(0.0)
        with pytest.raises(ValueError):
            model.set_width(1.5)

    def test_importance_orders_control_pruning(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        # Rank head 3 most important in every layer → at w=0.25 only head 3
        # survives.
        orders = [np.array([3, 2, 1, 0])] * cfg.depth
        model.set_importance_orders(head_orders=orders)
        model.set_width(0.25)
        for layer in model.encoder.layers:
            np.testing.assert_array_equal(
                layer.attn.head_mask, [False, False, False, True]
            )

    def test_importance_order_validation(self):
        model = VisionTransformer(small_config(), seed=0)
        with pytest.raises(ValueError):
            model.set_importance_orders(head_orders=[np.arange(4)])  # wrong count

    def test_restore_full_configuration(self):
        cfg = small_config()
        model = VisionTransformer(cfg, seed=0)
        x = images(2, cfg)
        full = model(x).data.copy()
        model.scale(0.25, 1)
        model.scale(1.0, cfg.depth)
        np.testing.assert_allclose(model(x).data, full)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    st.integers(1, 3),
)
def test_property_zeta_monotone(width, depth):
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=3, num_heads=4)
    base = cfg.zeta(width, depth)
    if width < 1.0:
        assert cfg.zeta(min(1.0, width + 0.25), depth) > base
    if depth < 3:
        assert cfg.zeta(width, depth + 1) > base
