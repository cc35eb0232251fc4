"""Tests for the inference fast paths: grad mode, dtype config, im2col cache."""

import numpy as np
import pytest

from repro.models import ViTConfig, VisionTransformer
from repro.nn import conv as nn_conv
from repro.nn.conv import AvgPool2d, Conv2d, MaxPool2d, im2col
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


class TestIm2colCache:
    def test_cached_equals_uncached(self):
        """A cache hit hands back exactly what ``_build_indices`` builds,
        and a warm forward equals the cold one."""
        shape, kernel, stride, padding = (2, 3, 9, 9), (3, 3), (2, 2), (1, 1)
        nn_conv.clear_im2col_cache()
        nn_conv._im2col_indices(shape, kernel, stride, padding)  # miss
        cached = nn_conv._im2col_indices(shape, kernel, stride, padding)
        assert nn_conv.im2col_cache_info().hits == 1
        built = nn_conv._build_indices(*shape[1:], *kernel, *stride, *padding)
        for from_cache, fresh in zip(cached, built):
            np.testing.assert_array_equal(from_cache, fresh)
        x = Tensor(RNG.normal(size=shape))
        conv = Conv2d(3, 5, kernel_size=3, stride=2, padding=1, rng=np.random.default_rng(0))
        nn_conv.clear_im2col_cache()
        cold = conv(x).data
        warm = conv(x).data
        np.testing.assert_array_equal(cold, warm)

    def test_cache_hits_accumulate(self):
        nn_conv.clear_im2col_cache()
        x = Tensor(RNG.normal(size=(1, 2, 8, 8)))
        conv = Conv2d(2, 2, kernel_size=3, rng=np.random.default_rng(0))
        conv(x)
        before = nn_conv.im2col_cache_info().hits
        conv(x)
        assert nn_conv.im2col_cache_info().hits > before

    def test_cache_shared_by_pools(self):
        nn_conv.clear_im2col_cache()
        x = Tensor(RNG.normal(size=(2, 3, 8, 8)))
        MaxPool2d(2)(x)
        hits_before = nn_conv.im2col_cache_info().hits
        # Same (shape, kernel, stride, padding) key → pure cache hit.
        AvgPool2d(2)(x)
        assert nn_conv.im2col_cache_info().hits > hits_before

    def test_cached_indices_are_read_only(self):
        nn_conv.clear_im2col_cache()
        k, i, j, _, _ = nn_conv._im2col_indices((1, 2, 6, 6), (2, 2), (1, 1), (0, 0))
        with pytest.raises(ValueError):
            i[0, 0] = 99

    def test_im2col_values_unchanged_by_cache_state(self):
        x = Tensor(RNG.normal(size=(2, 2, 6, 6)))
        nn_conv.clear_im2col_cache()
        cold, _, _ = im2col(x, kernel=3, stride=1, padding=1)
        warm, _, _ = im2col(x, kernel=3, stride=1, padding=1)
        np.testing.assert_array_equal(cold.data, warm.data)
        # ...and both are the gather through freshly built indices.
        k, i, j, _, _ = nn_conv._build_indices(2, 8, 8, 3, 3, 1, 1, 0, 0)
        padded = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        gathered = padded[:, k, i, j].transpose(1, 2, 0).reshape(k.shape[0], -1)
        np.testing.assert_array_equal(warm.data, gathered)


class TestInferenceKernels:
    """The tape-free conv/pool kernels must match the taped forwards.

    The 1e-12 parity tolerances are float64 statements (the fast and
    taped kernels reduce in different orders), so the parity cases pin
    the pre-flip dtype explicitly.
    """

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (1, 1, 0), (3, 2, 1), (2, 2, 0)])
    def test_conv_inference_matches_taped(self, kernel, stride, padding):
        with using_dtype("float64"):
            x = Tensor(RNG.normal(size=(3, 4, 9, 9)))
            conv = Conv2d(4, 6, kernel, stride=stride, padding=padding, rng=np.random.default_rng(0))
            taped = conv(x).data
            with no_grad():
                fast = conv(x).data
        np.testing.assert_allclose(taped, fast, atol=1e-12)

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("kernel,stride,padding", [(2, None, 0), (3, 1, 1), (3, 2, 1)])
    def test_pool_inference_matches_taped(self, pool_cls, kernel, stride, padding):
        with using_dtype("float64"):
            x = Tensor(RNG.normal(size=(2, 3, 8, 8)))
            pool = pool_cls(kernel, stride=stride, padding=padding)
            taped = pool(x).data
            with no_grad():
                fast = pool(x).data
        np.testing.assert_allclose(taped, fast, atol=1e-12)

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
