"""Cache-blocked fused optimizer sweeps: parity at any block size.

The fused Adam/fleet flat-buffer update passes run in chunks of
``repro.nn.optim._FUSED_BLOCK_ELEMS`` elements so one block of all the
step's arrays stays cache-resident across the ~14 ufunc passes; buffers
of up to ``_FUSED_WHOLE_BLOCKS`` blocks sweep whole.  Every
pass is elementwise, so blocking is a pure cache-behavior choice: these
tests vary the constant and pin that a blocked sweep is **bit-for-bit**
identical to the unblocked one at any block size, under both engine
dtypes.
"""

import numpy as np
import pytest

from repro.nn import optim
from repro.nn.optim import Adam, _block_slices, clip_grad_norm
from repro.nn.tensor import Tensor, using_dtype


def _run_steps(monkeypatch, opt_cls, kwargs, dtype, block_elems, steps=5):
    """Fused training trajectory at a given block size; returns final data.

    Every buffer above one block is chunked, so each block size below
    exercises the blocked sweep rather than the whole-buffer one.
    """
    monkeypatch.setattr(optim, "_FUSED_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(optim, "_FUSED_WHOLE_BLOCKS", 1)
    with using_dtype(dtype):
        rng = np.random.default_rng(17)
        # Two large flats (several blocks at size 1000) + odd sizes
        # that leave a ragged tail block + small unblocked tensors.
        shapes = [(5000,), (3001,), (64, 33), (7,)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        optimizer = opt_cls(params, **kwargs)
        grad_rng = np.random.default_rng(23)
        for _ in range(steps):
            for p in params:
                p.grad = grad_rng.normal(size=p.data.shape).astype(p.data.dtype)
            clip_grad_norm(params, 5.0)
            optimizer.step()
        return [p.data.copy() for p in params]


class TestBlockedParity:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize(
        "opt_cls, kwargs",
        [
            (Adam, dict(lr=1e-2)),
            (Adam, dict(lr=3e-3, weight_decay=0.1)),
            (Adam, dict(lr=1e-3, betas=(0.8, 0.99), eps=1e-6)),
        ],
    )
    def test_bit_for_bit_vs_unblocked(self, opt_cls, kwargs, dtype, monkeypatch):
        unblocked = _run_steps(monkeypatch, opt_cls, kwargs, dtype, block_elems=0)
        for block in (512, 1000, 4096):
            blocked = _run_steps(monkeypatch, opt_cls, kwargs, dtype, block_elems=block)
            for a, b in zip(unblocked, blocked):
                np.testing.assert_array_equal(a, b)

    def test_block_smaller_than_every_tensor(self, monkeypatch):
        # Degenerate block size: every 1-D flat splits into many tiny
        # chunks; results must still be identical.
        args = (monkeypatch, Adam, dict(lr=1e-2), "float64")
        unblocked = _run_steps(*args, block_elems=0, steps=2)
        blocked = _run_steps(*args, block_elems=3, steps=2)
        for a, b in zip(unblocked, blocked):
            np.testing.assert_array_equal(a, b)


class TestBlockSlices:
    def test_disabled_yields_identity(self, monkeypatch):
        monkeypatch.setattr(optim, "_FUSED_BLOCK_ELEMS", 0)
        assert list(_block_slices(10**6)) == [slice(None)]

    def test_small_buffer_yields_identity(self, monkeypatch):
        monkeypatch.setattr(optim, "_FUSED_BLOCK_ELEMS", 100)
        whole = optim._FUSED_WHOLE_BLOCKS * 100
        assert list(_block_slices(whole)) == [slice(None)]
        assert list(_block_slices(100)) == [slice(None)]
        assert list(_block_slices(7)) == [slice(None)]
        assert len(list(_block_slices(whole + 1))) == optim._FUSED_WHOLE_BLOCKS + 1

    def test_chunks_cover_exactly_once(self, monkeypatch):
        monkeypatch.setattr(optim, "_FUSED_BLOCK_ELEMS", 100)
        monkeypatch.setattr(optim, "_FUSED_WHOLE_BLOCKS", 1)
        slices = list(_block_slices(250))
        assert slices == [slice(0, 100), slice(100, 200), slice(200, 250)]
        marks = np.zeros(250, dtype=int)
        for sl in slices:
            marks[sl] += 1
        assert (marks == 1).all()

    def test_default_block_splits_only_buffers_above_four_blocks(self):
        # The campaigns' largest flat buffer (50 875) and the sizes where
        # blocking loses or breaks even (87 096, 186 120) sweep whole;
        # the figures' largest (314 280) sweeps in five blocks.
        block = optim._FUSED_BLOCK_ELEMS
        for size in (50_875, 87_096, 186_120, 4 * block):
            assert list(_block_slices(size)) == [slice(None)]
        slices = list(_block_slices(314_280))
        assert len(slices) == 5
        assert all(sl.stop - sl.start == block for sl in slices[:-1])
        assert (slices[0].start, slices[-1].stop) == (0, 314_280)
