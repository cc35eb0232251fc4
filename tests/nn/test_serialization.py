"""Tests for module serialization and byte-size accounting."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Sequential,
    json_nbytes,
    load_state,
    save_state,
    state_dict_nbytes,
)
from repro.nn.tensor import Tensor, using_dtype


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        a = Linear(6, 4, rng=np.random.default_rng(1))
        b = Linear(6, 4, rng=np.random.default_rng(2))
        path = tmp_path / "weights.npz"
        save_state(a, path)
        load_state(b, path)
        np.testing.assert_allclose(a.weight.data, b.weight.data)
        np.testing.assert_allclose(a.bias.data, b.bias.data)

    def test_roundtrip_nested(self, tmp_path):
        a = Sequential(Linear(4, 8), Linear(8, 2))
        b = Sequential(Linear(4, 8), Linear(8, 2))
        for p in a.parameters():
            p.data = p.data + 1.0
        path = tmp_path / "nested.npz"
        save_state(a, path)
        load_state(b, path)
        x = Tensor(np.ones((1, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_roundtrip_extensionless_path(self, tmp_path):
        """``np.savez`` appends ``.npz`` to what it writes; the loader
        used to look for the literal path and miss the file."""
        a = Linear(6, 4, rng=np.random.default_rng(1))
        b = Linear(6, 4, rng=np.random.default_rng(2))
        path = tmp_path / "checkpoint"  # no extension
        save_state(a, path)
        assert (tmp_path / "checkpoint.npz").exists()
        load_state(b, path)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.bias.data, b.bias.data)

    def test_roundtrip_foreign_extension(self, tmp_path):
        """A non-``.npz`` suffix gets ``.npz`` appended, matching numpy."""
        a = Linear(3, 2, rng=np.random.default_rng(1))
        b = Linear(3, 2, rng=np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        save_state(a, path)
        assert (tmp_path / "model.ckpt.npz").exists()
        load_state(b, path)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_roundtrip_string_path(self, tmp_path):
        a = Linear(3, 2, rng=np.random.default_rng(1))
        b = Linear(3, 2, rng=np.random.default_rng(2))
        save_state(a, str(tmp_path / "weights"))
        load_state(b, str(tmp_path / "weights"))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_load_shape_mismatch(self, tmp_path):
        a = Linear(4, 4)
        b = Linear(4, 5)
        path = tmp_path / "bad.npz"
        save_state(a, path)
        with pytest.raises((KeyError, ValueError)):
            load_state(b, path)


class TestByteAccounting:
    def test_state_dict_nbytes(self):
        layer = Linear(10, 10)  # 100 weights + 10 biases
        itemsize = layer.weight.data.dtype.itemsize  # 4 under the float32 default
        assert state_dict_nbytes(layer.state_dict()) == 110 * itemsize
        with using_dtype("float64"):
            assert state_dict_nbytes(Linear(10, 10).state_dict()) == 110 * 8

    def test_json_nbytes(self):
        size = json_nbytes({"width": 0.5, "depth": 3})
        assert 10 < size < 100
