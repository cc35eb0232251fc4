"""Tests for byte-size accounting and the in-memory state blob."""

import io

import numpy as np
import pytest

from repro.nn import Linear, TransformerEncoderLayer, json_nbytes
from repro.nn.serialization import state_to_bytes
from repro.nn.tensor import Tensor


def _load(blob: bytes) -> dict:
    """Decode a :func:`state_to_bytes` blob back to an array dict."""
    with np.load(io.BytesIO(blob)) as archive:
        return {name: archive[name] for name in archive.files}


class TestByteAccounting:
    def test_json_nbytes(self):
        size = json_nbytes({"width": 0.5, "depth": 3})
        assert 10 < size < 100


@pytest.mark.parametrize("compress", [True, False], ids=["compressed", "plain"])
class TestStateBytes:
    def test_roundtrip_is_bit_exact(self, compress):
        """Nested module names survive as keys; dtype, shape and payload
        come back unchanged."""
        state = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(3)).state_dict()
        loaded = _load(state_to_bytes(state, compress=compress))
        assert sorted(loaded) == sorted(state)
        for name, array in state.items():
            assert loaded[name].dtype == array.dtype, name
            np.testing.assert_array_equal(loaded[name], array, err_msg=name)

    def test_roundtrip_keeps_odd_shapes_and_dtypes(self, compress):
        rng = np.random.default_rng(5)
        state = {
            "scalar": np.float64(2.5) * np.ones(()),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "transposed": rng.normal(size=(4, 3)).astype(np.float32).T,
            "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
            "mask": np.array([True, False, True]),
        }
        loaded = _load(state_to_bytes(state, compress=compress))
        for name, array in state.items():
            assert loaded[name].dtype == array.dtype, name
            assert loaded[name].shape == array.shape, name
            np.testing.assert_array_equal(loaded[name], array, err_msg=name)


class TestStateBytesRestore:
    def test_loaded_state_restores_a_module(self):
        source = Linear(6, 4, rng=np.random.default_rng(1))
        target = Linear(6, 4, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)))
        target.load_state_dict(_load(state_to_bytes(source.state_dict())))
        np.testing.assert_array_equal(target(x).data, source(x).data)

    def test_plain_blob_holds_every_array_byte(self):
        """The uncompressed container stores each array's payload whole, so
        it is never smaller than the state's charged size."""
        state = Linear(32, 16, rng=np.random.default_rng(4)).state_dict()
        payload = sum(array.nbytes for array in state.values())
        assert len(state_to_bytes(state, compress=False)) >= payload
