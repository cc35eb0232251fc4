"""Tests for the NAS block vocabulary and DAG headers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    BackboneFeatures,
    BlockSpec,
    DAGHeader,
    HeaderSpec,
    OPERATION_NAMES,
    build_operation,
    num_operations,
)
from repro.nn.tensor import Tensor
from tests.helpers import header_weights

RNG = np.random.default_rng(41)
EMBED, PATCHES, CLASSES = 16, 16, 5


def features(n=2):
    return BackboneFeatures(
        cls=Tensor(RNG.normal(size=(n, EMBED))),
        tokens=Tensor(RNG.normal(size=(n, PATCHES, EMBED))),
        penultimate=Tensor(RNG.normal(size=(n, PATCHES, EMBED))),
    )


class TestOperations:
    @pytest.mark.parametrize("name", OPERATION_NAMES)
    def test_shape_preserving(self, name):
        op = build_operation(name, EMBED, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, EMBED, 4, 4)))
        assert op(x).shape == x.shape

    def test_registry_matches_paper(self):
        """§IV-A lists conv 1/3/5, identity, downsample, avg/max pooling."""
        assert set(OPERATION_NAMES) == {
            "conv1x1", "conv3x3", "conv5x5", "identity",
            "downsample", "avg_pool", "max_pool",
        }
        assert num_operations() == 7

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            build_operation("attention9000", EMBED, np.random.default_rng(0))

    def test_identity_is_identity(self):
        op = build_operation("identity", EMBED, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, EMBED, 4, 4)))
        assert op(x) is x

    def test_downsample_coarsens(self):
        op = build_operation("downsample", EMBED, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, EMBED, 4, 4)))
        out = op(x).data
        # 2×2 cells carry a constant (the pooled average).
        np.testing.assert_allclose(out[0, 0, 0, 0], out[0, 0, 0, 1])
        np.testing.assert_allclose(out[0, 0, 0, 0], out[0, 0, 1, 1])

    def test_downsample_tiny_input_passthrough(self):
        op = build_operation("downsample", EMBED, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, EMBED, 1, 1)))
        assert op(x) is x


class TestSpecs:
    def test_block_validation(self):
        BlockSpec(0, 1, 0, 6).validate(0, 7)
        with pytest.raises(ValueError):
            BlockSpec(2, 0, 0, 0).validate(0, 7)  # block 0 sees inputs {0,1}
        with pytest.raises(ValueError):
            BlockSpec(0, 0, 7, 0).validate(0, 7)

    def test_header_spec_validation(self):
        with pytest.raises(ValueError):
            HeaderSpec(blocks=())
        with pytest.raises(ValueError):
            HeaderSpec(blocks=(BlockSpec(0, 0, 0, 0),), repeats=0)

    def test_sequence_roundtrip(self):
        spec = HeaderSpec(
            blocks=(BlockSpec(0, 1, 2, 3), BlockSpec(2, 0, 4, 5)), repeats=2
        )
        seq = spec.to_sequence()
        assert seq == [0, 1, 2, 3, 2, 0, 4, 5]
        again = HeaderSpec.from_sequence(seq, repeats=2)
        assert again == spec

    def test_from_sequence_validation(self):
        with pytest.raises(ValueError):
            HeaderSpec.from_sequence([0, 1, 2])


class TestDAGHeader:
    def spec(self, blocks=2, repeats=1):
        block_specs = tuple(
            BlockSpec(b % (b + 2), (b + 1) % (b + 2), b % 7, (b + 3) % 7)
            for b in range(blocks)
        )
        return HeaderSpec(blocks=block_specs, repeats=repeats)

    def test_output_shape(self):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        assert header(features(3)).shape == (3, CLASSES)

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_repeats_increase_parameters(self, repeats):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec(repeats=repeats))
        base = DAGHeader(EMBED, PATCHES, CLASSES, self.spec(repeats=1))
        if repeats == 1:
            assert header.parameter_count() == base.parameter_count()
        else:
            assert header.parameter_count() > base.parameter_count()

    def test_uses_penultimate_input(self):
        """A block wired to input 1 must react to penultimate features."""
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 3, 1),))  # op2=conv3x3 on input 1
        header = DAGHeader(EMBED, PATCHES, CLASSES, spec)
        f1 = features(1)
        f2 = BackboneFeatures(
            cls=f1.cls,
            tokens=f1.tokens,
            penultimate=Tensor(RNG.normal(size=(1, PATCHES, EMBED))),
        )
        assert not np.allclose(header(f1).data, header(f2).data)

    def test_gradients_flow(self):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        header(features(2)).sum().backward()
        assert any(
            p.grad is not None and np.abs(p.grad).sum() > 0
            for p in header.parameters()
        )

    def test_parameter_mask_roundtrip(self):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        x = features(2)
        original = header(x).data.copy()
        count = header.parameter_count()
        keep = np.ones(count, dtype=bool)
        keep[: count // 2] = False
        header.set_parameter_mask(keep)
        assert header.active_parameter_count() == keep.sum()
        masked = header(x).data
        assert not np.allclose(original, masked)
        header.set_parameter_mask(np.ones(count, dtype=bool))
        np.testing.assert_allclose(header(x).data, original)

    def test_mask_revision_from_pristine(self):
        """Re-masking must start from pristine values, not doubly-zeroed ones."""
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        count = header.parameter_count()
        x = features(1)
        original = header(x).data.copy()
        first = np.zeros(count, dtype=bool)  # drop everything
        header.set_parameter_mask(first)
        header.set_parameter_mask(np.ones(count, dtype=bool))  # restore all
        np.testing.assert_allclose(header(x).data, original)

    def test_mask_length_validation(self):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        with pytest.raises(ValueError):
            header.set_parameter_mask(np.ones(3, dtype=bool))

    def test_reapply_mask_after_updates(self):
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        count = header.parameter_count()
        keep = np.zeros(count, dtype=bool)
        header.set_parameter_mask(keep)
        # Simulate an optimizer resurrecting weights.
        for p in header.parameters():
            p.data = p.data + 1.0
        header.reapply_mask()
        assert sum(np.abs(p.data).sum() for p in header.parameters()) == 0.0

    def test_mask_index_addresses_parameters_order(self):
        """Keep-mask position i is element i of the weights flattened in
        ``parameters()`` order — the order importance sets index (Eq. 16)."""
        header = DAGHeader(EMBED, PATCHES, CLASSES, self.spec())
        before = header_weights(header)
        assert before.size == header.parameter_count()
        dropped = [0, before.size // 2, before.size - 1]
        keep = np.ones(before.size, dtype=bool)
        keep[dropped] = False
        header.set_parameter_mask(keep)
        expected = before.copy()
        expected[dropped] = 0.0
        np.testing.assert_array_equal(header_weights(header), expected)

    def test_shared_op_factory(self):
        """Two headers built from one factory share operation weights."""
        from repro.core.nas import SharedOpPool

        pool = SharedOpPool(EMBED, seed=0)
        spec = HeaderSpec(blocks=(BlockSpec(0, 1, 1, 1),))
        a = DAGHeader(EMBED, PATCHES, CLASSES, spec, op_factory=pool.factory)
        b = DAGHeader(EMBED, PATCHES, CLASSES, spec, op_factory=pool.factory)
        assert a.modules_list[0].blocks[0].op1 is b.modules_list[0].blocks[0].op1


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_property_random_specs_run(num_blocks, repeats, data):
    blocks = []
    for b in range(num_blocks):
        blocks.append(
            BlockSpec(
                data.draw(st.integers(0, b + 1)),
                data.draw(st.integers(0, b + 1)),
                data.draw(st.integers(0, 6)),
                data.draw(st.integers(0, 6)),
            )
        )
    spec = HeaderSpec(blocks=tuple(blocks), repeats=repeats)
    header = DAGHeader(EMBED, PATCHES, CLASSES, spec)
    out = header(features(1))
    assert out.shape == (1, CLASSES)
    assert np.isfinite(out.data).all()
