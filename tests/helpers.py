"""Shared test utilities: gradient checking and deterministic seeding.

Seeding discipline: the engine keeps a small amount of process-wide
state (the per-thread fallback-init streams of ``repro.nn.init``, the
im2col index cache, the similarity projection cache) plus context-local
grad/dtype switches.  :func:`reset_engine_state` restores all of it to
the import-time defaults — including the **float32** default dtype the
engine ships with since PR 9; float64-sensitive tests opt back in with
``using_dtype("float64")`` (the gradient-check helpers below do so
internally, since finite differences at ``eps=1e-6`` are meaningless in
single precision).  ``tests/conftest.py`` applies the reset around every
test so the suite passes under any test ordering — including
``pytest-randomly``-style shuffling (``-p no:randomly`` is never
required for correctness) — even though unseeded modules now draw from
a shared stream whose position depends on construction history.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor, using_dtype


def fresh_rng(seed: int = 0) -> np.random.Generator:
    """A private, order-independent generator for one test."""
    return np.random.default_rng(seed)


def reset_engine_state() -> None:
    """Restore every piece of shared engine state to import-time defaults."""
    from repro import nn
    from repro.core import similarity

    nn.set_seed(0)
    nn.set_default_dtype("float32")
    nn.set_grad_enabled(True)
    nn.clear_im2col_cache()
    similarity.clear_projection_cache()


def numerical_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(
    build: Callable[[Tensor], Tensor],
    x: np.ndarray,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Compare autograd gradients against finite differences.

    ``build`` maps an input tensor to a scalar loss tensor.  Runs
    under ``using_dtype("float64")`` regardless of the ambient engine
    default: central differences at ``eps=1e-6`` vanish into float32
    rounding error.
    """
    x = np.asarray(x, dtype=np.float64)

    with using_dtype("float64"):
        tensor = Tensor(x.copy(), requires_grad=True)
        loss = build(tensor)
        assert loss.size == 1, "check_gradient requires a scalar loss"
        loss.backward()
        analytic = tensor.grad

        def eval_loss(arr: np.ndarray) -> float:
            return float(build(Tensor(arr.copy())).data)

        numeric = numerical_gradient(eval_loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def parameter_gradient_check(
    module, forward: Callable[[], Tensor], params: Sequence, atol=1e-5, rtol=1e-4
) -> None:
    """Finite-difference check for a module's parameters.

    ``forward`` recomputes the scalar loss from scratch (capturing the
    module by closure); each parameter in ``params`` is perturbed in place.
    Float64-scoped like :func:`check_gradient`; the module itself must
    already hold float64 parameters (build it under the same scope).
    """
    with using_dtype("float64"):
        _parameter_gradient_check(module, forward, params, atol, rtol)


def _parameter_gradient_check(module, forward, params, atol, rtol) -> None:
    loss = forward()
    module.zero_grad()
    loss.backward()
    analytic = [p.grad.copy() for p in params]

    for p, expected in zip(params, analytic):
        def eval_loss(arr: np.ndarray) -> float:
            saved = p.data
            p.data = arr
            value = float(forward().data)
            p.data = saved
            return value

        numeric = numerical_gradient(eval_loss, p.data.copy())
        np.testing.assert_allclose(expected, numeric, atol=atol, rtol=rtol)


def importance_round(device, **kwargs):
    """One device's local importance round — the group of one of
    ``DeviceNode.importance_rounds``, hydrated first as the edge's walk
    would — as its single upload message."""
    device._ensure_live()
    (message,) = type(device).importance_rounds([device], **kwargs)
    return message


def assert_same_run(reference, other) -> None:
    """Two ``ACMERunResult``s are the same run: accuracies, losses,
    ``(width, depth)``, kind sequences, ledger bytes and fault counters.

    The replay contract in one place — what must not depend on where the
    work ran (executor plan, transport, memory mode).
    """

    def observed(run):
        t = run.traffic
        return {
            "clusters": [
                (c.edge_name, c.width, c.depth, c.device_accuracies, c.device_losses)
                for c in run.clusters
            ],
            "kinds": run.message_kinds,
            "edge_kinds": run.edge_message_kinds,
            "bytes": (t.total_bytes, t.upload_bytes, t.download_bytes, t.message_count),
            "by_kind": dict(t.by_kind),
            "by_pair": dict(t.by_pair),
            "faults": (
                run.fault_counts,
                run.total_retries,
                run.delivery_attempts,
                run.failed_deliveries,
            ),
        }

    want, got = observed(reference), observed(other)
    for field in want:  # field by field, so a failure names what moved
        assert got[field] == want[field], field
