"""Fused optimizer state stays live across checkpoint loads and astype.

Regression suite for the ``param.data`` rebinding hole: ``Module.
load_state_dict`` used to rebind every parameter to a fresh array,
silently detaching it from the fused optimizer's flat-buffer views (and
from every other holder of the live array) until the next step's sync
noticed; ``Module.astype`` rebound storage without telling the owning
optimizer at all, zeroing its fused moments on rebuild.

The fixed contract:

* ``load_state_dict`` copies **in place** — ``param.data`` identity is
  stable, so fused flat views (and any external alias of the live
  array) see the loaded values immediately;
* ``astype`` notifies every live optimizer holding the parameters: flat
  groups are rebuilt around the new arrays and the optimizer state
  (the moments) follows the parameters into the new dtype;
* fused float64 training traces stay bit-for-bit identical to the
  textbook oracle (``tests/reference/optim.py``) across an in-memory
  ``state_dict`` → ``load_state_dict`` → resume cycle.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Activation, Linear, Sequential
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from tests.reference.optim import ORACLE, ReferenceAdam


def _make_model():
    return Sequential(
        Linear(8, 16, rng=np.random.default_rng(1)),
        Activation("relu"),
        Linear(16, 4, rng=np.random.default_rng(2)),
    )


def _make_batch(num_classes: int = 4):
    rng = np.random.default_rng(0)
    return rng.normal(size=(32, 8)), rng.integers(0, num_classes, size=32)


def _train_step(model, optimizer, X, y, dtype=np.float64):
    logits = model(Tensor(X.astype(dtype)))
    loss = F.cross_entropy(logits, y)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestLoadStateDictInPlace:
    def test_data_identity_stable(self):
        model = _make_model()
        state = model.state_dict()
        before = [p.data for p in model.parameters()]
        model.load_state_dict(state)
        after = [p.data for p in model.parameters()]
        assert all(a is b for a, b in zip(before, after))

    def test_live_arrays_see_the_load_immediately(self):
        """The headline regression: external holders of ``param.data``
        (the fused optimizer's flat views, serving caches) must observe a
        checkpoint load without waiting for a step-time sync."""
        model = _make_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        X, y = _make_batch()
        for _ in range(4):
            _train_step(model, optimizer, X, y)
        checkpoint = model.state_dict()
        live = [p.data for p in model.parameters()]
        for _ in range(3):
            _train_step(model, optimizer, X, y)
        model.load_state_dict(checkpoint)
        for arr, (name, value) in zip(live, checkpoint.items()):
            np.testing.assert_array_equal(arr, value, err_msg=name)

    def test_flat_views_are_the_loaded_values(self):
        """The optimizer's own flat buffer holds the loaded values, so the
        next step updates live memory, not a stale snapshot."""
        model = _make_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        X, y = _make_batch()
        for _ in range(3):
            _train_step(model, optimizer, X, y)
        checkpoint = model.state_dict()
        _train_step(model, optimizer, X, y)
        model.load_state_dict(checkpoint)
        (group,) = optimizer._flat_groups
        for p, dview in zip(group.params, group.data_views):
            assert p.data is dview
            np.testing.assert_array_equal(dview, p.data)

    def test_dtype_preserved_on_cross_dtype_load(self):
        model = _make_model().astype("float32")
        state64 = {k: v.astype(np.float64) for k, v in model.state_dict().items()}
        model.load_state_dict(state64)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_shape_mismatch_still_raises(self):
        model = _make_model()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)


class TestFusedResumeParity:
    @pytest.mark.parametrize("opt_cls,kwargs", [
        (Adam, {}),
        (Adam, {"weight_decay": 0.01}),
        (Adam, {"betas": (0.8, 0.99), "eps": 1e-6}),
    ])
    def test_save_load_resume_bit_for_bit(self, opt_cls, kwargs):
        """Mid-training checkpoint load: fused float64 traces must equal
        the oracle's exactly, before and after the resume."""

        def run(cls):
            model = _make_model()
            optimizer = cls(model.parameters(), lr=1e-2, **kwargs)
            X, y = _make_batch()
            losses = []
            for step in range(10):
                losses.append(_train_step(model, optimizer, X, y))
                if step == 3:
                    checkpoint = model.state_dict()
                if step == 6:
                    model.load_state_dict(checkpoint)
            return losses, {n: p.data.copy() for n, p in model.named_parameters()}

        fused_losses, fused_params = run(opt_cls)
        ref_losses, ref_params = run(ORACLE[opt_cls])
        assert fused_losses == ref_losses
        for name in fused_params:
            np.testing.assert_array_equal(fused_params[name], ref_params[name], err_msg=name)


class TestAstypeInvalidation:
    def test_fused_groups_rebuilt_with_cast_state(self):
        model = _make_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        X, y = _make_batch()
        for _ in range(3):
            _train_step(model, optimizer, X, y)
        moments_before = optimizer._flat_groups[0].flat_state[0].copy()
        model.astype("float32")
        (group,) = optimizer._flat_groups
        assert group.flat_data.dtype == np.float32
        for p, dview in zip(group.params, group.data_views):
            assert p.data is dview
        # The first moment followed the parameters into float32.
        np.testing.assert_array_equal(
            group.flat_state[0], moments_before.astype(np.float32)
        )

    def test_model_stays_converted_after_steps(self):
        """Moments (or the kept grad buffer) left in float64 after astype
        would silently upcast the model back on the next step."""
        model = _make_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        X, y = _make_batch()
        for _ in range(3):
            _train_step(model, optimizer, X, y)
        model.astype("float32")
        for _ in range(2):
            _train_step(model, optimizer, X, y, dtype=np.float32)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_fused_matches_reference_across_astype(self):
        def run(cls):
            model = _make_model()
            optimizer = cls(model.parameters(), lr=1e-2)
            X, y = _make_batch()
            for _ in range(4):
                _train_step(model, optimizer, X, y)
            model.astype("float32")
            for _ in range(4):
                _train_step(model, optimizer, X, y, dtype=np.float32)
            return {n: p.data.copy() for n, p in model.named_parameters()}

        fused_params = run(Adam)
        ref_params = run(ReferenceAdam)
        for name in fused_params:
            assert fused_params[name].dtype == np.float32
            np.testing.assert_array_equal(fused_params[name], ref_params[name], err_msg=name)
