"""Tests for the inference fast paths: grad mode, dtype config, tape-free forwards."""

import numpy as np
import pytest

from repro.models import ViTConfig, VisionTransformer
from repro.nn.conv import AvgPool2d, Conv2d, MaxPool2d
from repro.nn.layers import Linear, MLP, Sequential, Activation
from repro.nn.tensor import (
    Tensor,
    enable_grad,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    set_grad_enabled,
    using_dtype,
)

RNG = np.random.default_rng(11)


@pytest.fixture(autouse=True)
def _restore_engine_state():
    """Every test leaves the engine exactly as it found it."""
    yield
    set_default_dtype(np.float64)
    set_grad_enabled(True)


class TestGradMode:
    def test_default_enabled(self):
        assert is_grad_enabled()

    def test_no_grad_restores(self):
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_enable_grad_nested(self):
        with no_grad():
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()

    def test_no_grad_as_decorator(self):
        @no_grad()
        def fn():
            return is_grad_enabled()

        assert fn() is False
        assert is_grad_enabled()

    def test_forward_values_identical(self):
        model = Sequential(
            Linear(8, 16, rng=np.random.default_rng(0)),
            Activation("gelu"),
            Linear(16, 4, rng=np.random.default_rng(1)),
        )
        x = Tensor(RNG.normal(size=(5, 8)))
        taped = model(x).data
        with no_grad():
            tape_free = model(x).data
        np.testing.assert_array_equal(taped, tape_free)

    def test_no_grad_output_is_tape_free(self):
        w = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(RNG.normal(size=(2, 4)))
        with no_grad():
            out = (x @ w).sum()
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        with pytest.raises(RuntimeError):
            out.backward()

    def test_leaf_requires_grad_unaffected(self):
        with no_grad():
            w = Tensor(np.ones(3), requires_grad=True)
        assert w.requires_grad

    def test_grad_flows_after_region(self):
        w = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(RNG.normal(size=(2, 3)))
        with no_grad():
            (x @ w).sum()  # recorded nothing
        (x @ w).sum().backward()
        assert w.grad is not None


class TestDefaultDtype:
    def test_default_is_float32(self):
        # A system run defaults to the same dtype
        # (``ACMEConfig.compute_dtype``); float64 is one scope away.
        assert get_default_dtype() is np.float32

    def test_set_and_get(self):
        set_default_dtype("float32")
        assert get_default_dtype() is np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            set_default_dtype("int32")
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)

    def test_using_dtype_scopes(self):
        with using_dtype("float64"):
            assert get_default_dtype() is np.float64
        assert get_default_dtype() is np.float32

    def test_float64_input_downcast_under_float32(self):
        set_default_dtype("float32")
        t = Tensor(np.ones(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_float32_input_preserved_under_float64(self):
        t = Tensor(np.ones(4, dtype=np.float32))
        assert t.dtype == np.float32

    def test_ops_stay_float32(self):
        set_default_dtype("float32")
        x = Tensor(RNG.normal(size=(4, 6)))
        lin = Linear(6, 3, rng=np.random.default_rng(0))
        out = lin(x).gelu() * 2.0 + 1.0
        assert out.dtype == np.float32

    def test_module_astype(self):
        mlp = MLP(6, 12, 4, rng=np.random.default_rng(0))
        mlp.astype("float32")
        assert all(p.data.dtype == np.float32 for p in mlp.parameters())

    def test_load_state_dict_preserves_param_dtype(self):
        a = Linear(4, 3, rng=np.random.default_rng(0))
        a.astype("float32")
        state64 = {k: v.astype(np.float64) for k, v in a.state_dict().items()}
        a.load_state_dict(state64)
        assert a.weight.data.dtype == np.float32

    def test_float32_training_parity(self):
        """A tiny model trained in float32 tracks the float64 run closely."""
        from repro.nn import functional as F
        from repro.nn.optim import Adam

        x = RNG.normal(size=(32, 8))
        y = RNG.integers(0, 3, size=32)

        def train(dtype):
            set_default_dtype(dtype)
            model = Sequential(
                Linear(8, 16, rng=np.random.default_rng(0)),
                Activation("gelu"),
                Linear(16, 3, rng=np.random.default_rng(1)),
            )
            opt = Adam(model.parameters(), lr=1e-2)
            losses = []
            for _ in range(20):
                loss = F.cross_entropy(model(Tensor(x)), y)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
            return losses

        l64 = train("float64")
        l32 = train("float32")
        assert abs(l64[-1] - l32[-1]) < 5e-2
        # Same downward trajectory, not just a coincidental endpoint.
        assert l32[-1] < l32[0]


class TestInferenceKernels:
    """A conv or pool forward is one path: under ``no_grad`` it is the
    taped forward left untaped, so the two agree bit for bit at both
    dtypes."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (1, 1, 0), (3, 2, 1), (2, 2, 0)])
    def test_conv_inference_matches_taped(self, dtype, kernel, stride, padding):
        with using_dtype(dtype):
            x = Tensor(RNG.normal(size=(3, 4, 9, 9)))
            conv = Conv2d(4, 6, kernel, stride=stride, padding=padding, rng=np.random.default_rng(0))
            taped = conv(x).data
            with no_grad():
                fast = conv(x).data
        np.testing.assert_array_equal(taped, fast)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("kernel,stride,padding", [(2, None, 0), (3, 1, 1), (3, 2, 1)])
    def test_pool_inference_matches_taped(self, dtype, pool_cls, kernel, stride, padding):
        with using_dtype(dtype):
            x = Tensor(RNG.normal(size=(2, 3, 8, 8)), requires_grad=True)
            pool = pool_cls(kernel, stride=stride, padding=padding)
            taped = pool(x).data
            with no_grad():
                fast = pool(x).data
        np.testing.assert_array_equal(taped, fast)

    def test_conv_kernel_too_large_raises_in_no_grad(self):
        conv = Conv2d(1, 1, kernel_size=5)
        with no_grad():
            with pytest.raises(ValueError):
                conv(Tensor(np.ones((1, 1, 3, 3))))

    def test_vit_forward_parity_under_no_grad(self):
        cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=16, depth=2,
                        num_heads=4, num_classes=5)
        model = VisionTransformer(cfg, seed=0)
        x = Tensor(RNG.normal(size=(3, 3, 8, 8)))
        taped = model(x).data
        with no_grad():
            fast = model(x).data
        np.testing.assert_array_equal(taped, fast)


class TestConvRngFallback:
    def test_two_default_convs_differ(self):
        a = Conv2d(2, 2, kernel_size=3)
        b = Conv2d(2, 2, kernel_size=3)
        assert not np.allclose(a.weight.data, b.weight.data)

    def test_set_seed_reproduces_stream(self):
        from repro.nn.init import set_seed

        set_seed(123)
        a = Conv2d(2, 2, kernel_size=3).weight.data.copy()
        set_seed(123)
        b = Conv2d(2, 2, kernel_size=3).weight.data.copy()
        np.testing.assert_array_equal(a, b)

    def test_explicit_rng_still_deterministic(self):
        a = Conv2d(2, 2, 3, rng=np.random.default_rng(9)).weight.data
        b = Conv2d(2, 2, 3, rng=np.random.default_rng(9)).weight.data
        np.testing.assert_array_equal(a, b)
