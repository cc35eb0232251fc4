"""Fused in-place optimizer parity and allocation regression tests.

The fused Adam step must reproduce the textbook allocating update (the
oracle in ``tests/reference/optim.py``) **bit-for-bit** under float64 —
including weight decay, custom betas/eps and shared-parameter dedup —
while allocating O(1) arrays per parameter in steady state (the oracle
allocates ~6 fresh temporaries per parameter per step).  In-place
gradient accumulation must keep every grad an exclusively owned buffer,
and ``zero_grad``'s buffer-reuse mode must recycle step N's arrays for
step N+1.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, using_dtype
from tests.reference.autograd import allocating_accumulate
from tests.reference.optim import ORACLE, ReferenceAdam, reference_clip_grad_norm


@pytest.fixture(autouse=True)
def _float64_engine():
    # These are float64 bit-for-bit contracts: the fixtures hand raw
    # float64 numpy draws to Tensor data and ``p.grad``, which under the
    # float32 engine default would mix precisions between the fused and
    # reference paths.
    with using_dtype("float64"):
        yield


def _make_params(rng, shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


SHAPES = [(64, 32), (32,), (128, 16), (7, 5, 3)]


def _grad_stream(rng, steps):
    return [[rng.normal(size=s) for s in SHAPES] for _ in range(steps)]


class TestFusedParity:
    @pytest.mark.parametrize(
        "opt_cls, kwargs",
        [
            (Adam, dict(lr=1e-2)),
            (Adam, dict(lr=3e-3, betas=(0.8, 0.99), eps=1e-6)),
            (Adam, dict(lr=1e-2, weight_decay=0.1)),
            (Adam, dict(lr=1e-2, betas=(0.0, 0.0))),
            (Adam, dict(lr=5e-3, betas=(0.5, 0.9), eps=1e-10, weight_decay=0.05)),
        ],
    )
    def test_bit_for_bit_float64(self, opt_cls, kwargs):
        rng = np.random.default_rng(11)
        datas = [rng.normal(size=s) for s in SHAPES]
        grads = _grad_stream(rng, 30)
        fused_params = [Tensor(d.copy(), requires_grad=True) for d in datas]
        ref_params = [Tensor(d.copy(), requires_grad=True) for d in datas]
        fused_opt = opt_cls(fused_params, **kwargs)
        ref_opt = ORACLE[opt_cls](ref_params, **kwargs)
        for step_grads in grads:
            for p, g in zip(fused_params, step_grads):
                p.grad = g.copy()
            for p, g in zip(ref_params, step_grads):
                p.grad = g.copy()
            fused_opt.step()
            ref_opt.step()
            for a, b in zip(fused_params, ref_params):
                np.testing.assert_array_equal(a.data, b.data)

    def test_bit_for_bit_through_training_graph(self):
        """Parity through real backward passes with grad-buffer reuse."""

        def run(opt_cls):
            rng = np.random.default_rng(5)
            w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4,)), requires_grad=True)
            opt = opt_cls([w, b], lr=1e-2)
            xs = [rng.normal(size=(16, 8)) for _ in range(20)]
            for x in xs:
                opt.zero_grad()
                out = Tensor(x) @ w + b
                (out * out).sum().backward()
                opt.step()
            return w.data.copy(), b.data.copy()

        wf, bf = run(Adam)
        wr, br = run(ReferenceAdam)
        np.testing.assert_array_equal(wf, wr)
        np.testing.assert_array_equal(bf, br)

    def test_shared_parameter_stepped_once(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(32, 8))
        grads = [rng.normal(size=(32, 8)) for _ in range(12)]
        p_fused = Tensor(data.copy(), requires_grad=True)
        p_ref = Tensor(data.copy(), requires_grad=True)
        # The same tensor passed several times must be deduplicated.
        fused_opt = Adam([p_fused, p_fused, p_fused], lr=1e-2)
        ref_opt = ReferenceAdam([p_ref, p_ref, p_ref], lr=1e-2)
        for g in grads:
            p_fused.grad = g.copy()
            p_ref.grad = g.copy()
            fused_opt.step()
            ref_opt.step()
            np.testing.assert_array_equal(p_fused.data, p_ref.data)

    def test_state_reallocated_after_astype(self):
        """dtype changes (Module.astype) must invalidate fused state."""
        p = Tensor(np.ones((4, 4)), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        p.grad = np.ones((4, 4))
        opt.step()
        p.data = p.data.astype(np.float32)
        p.grad = np.ones((4, 4), dtype=np.float32)
        opt.step()  # must not raise or write float64 state into float32
        assert p.data.dtype == np.float32


class TestAllocationRegression:
    def _measure_step_peak(self, opt_cls) -> int:
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(512, 512)), requires_grad=True)
        opt = opt_cls([p], lr=1e-3)
        p.grad = rng.normal(size=(512, 512))
        opt.step()  # warm-up: state/scratch allocation happens here
        tracemalloc.start()
        opt.step()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_fused_step_allocates_o1(self):
        """A steady-state fused step allocates no per-element arrays."""
        param_bytes = 512 * 512 * 8
        fused_peak = self._measure_step_peak(Adam)
        reference_peak = self._measure_step_peak(ReferenceAdam)
        # The textbook update materializes several full-size temporaries...
        assert reference_peak > 2 * param_bytes
        # ...the fused path none (allow small bookkeeping noise).
        assert fused_peak < param_bytes // 8

    def test_grad_accumulation_reuses_buffer_across_steps(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        x = Tensor(rng.normal(size=(8, 64)))
        (x @ p).sum().backward()
        opt.step()  # flattens: p.grad becomes a view of the flat buffer
        flat_buffer = p.grad
        opt.zero_grad()
        assert p.grad is None
        (x @ p).sum().backward()
        # Step N+1 accumulated straight into the optimizer's flat grad
        # buffer, not a fresh array.
        assert p.grad is flat_buffer
        opt.step()
        opt.zero_grad()
        (x @ p).sum().backward()
        assert p.grad is flat_buffer


class TestInPlaceAccumulation:
    def test_grad_never_aliases_incoming_arrays(self):
        p = Tensor(np.zeros((3, 3)), requires_grad=True)
        incoming = np.ones((3, 3))
        p._accumulate(incoming)
        assert p.grad is not incoming
        incoming[:] = 99.0  # mutating the source must not leak into grad
        np.testing.assert_array_equal(p.grad, np.ones((3, 3)))

    def test_multiple_contributions_sum_in_place(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p._accumulate(np.ones(4))
        owned = p.grad
        p._accumulate(2 * np.ones(4))
        assert p.grad is owned  # accumulated with +=, no reallocation
        np.testing.assert_array_equal(p.grad, 3 * np.ones(4))

    def test_matches_legacy_accumulation(self, monkeypatch):
        """In-place accumulation and allocate-per-contribution agree
        bit-for-bit."""

        def run():
            rng = np.random.default_rng(9)
            x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            y = (x * x).sum() + (x.tanh() * x).sum() + x.reshape(30).sum()
            y.backward()
            return x.grad.copy()

        inplace = run()
        monkeypatch.setattr(Tensor, "_accumulate", allocating_accumulate)
        legacy = run()
        np.testing.assert_array_equal(inplace, legacy)


class TestFusedClipGradNorm:
    def test_matches_reference_norm_closely(self):
        rng = np.random.default_rng(4)
        params = _make_params(rng, SHAPES)
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        grads_before = [p.grad.copy() for p in params]
        fused_norm = clip_grad_norm(params, max_norm=1.0)
        fused_grads = [p.grad.copy() for p in params]
        for p, g in zip(params, grads_before):
            p.grad = g.copy()
        ref_norm = reference_clip_grad_norm(params, max_norm=1.0)
        assert fused_norm == pytest.approx(ref_norm, rel=1e-12)
        for fg, p in zip(fused_grads, params):
            np.testing.assert_allclose(fg, p.grad, rtol=1e-12)

    def test_scales_in_place(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        buffer = p.grad
        clip_grad_norm([p], max_norm=1.0)
        assert p.grad is buffer  # scaled with *=, not reallocated
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_scaling_below_threshold(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])
