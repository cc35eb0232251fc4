"""Weight initialization schemes.

Each initializer takes an explicit :class:`numpy.random.Generator` so that
every experiment in the reproduction is deterministic given its seed.

Layers built *without* an explicit generator (``Linear``, ``MLP``,
``LSTMCell``, attention, transformer blocks, ``Conv2d``) draw
from :func:`default_generator` instead of a freshly-seeded one — two
such modules constructed back to back get different weights (previously
every unseeded module restarted ``default_rng(0)`` and received
identical values).  Call :func:`set_seed` to make the fallback stream
reproducible across runs.

Thread safety: ``numpy.random.Generator`` draws are not safe to share
across threads, so the fallback stream is **per-thread**.  The main
thread keeps the historical ``default_rng(seed)`` stream; every other
thread lazily receives an independent stream spawned from the same seed
(``SeedSequence(entropy=seed, spawn_key=(k,))`` for the ``k``-th thread
to touch the fallback since the last :func:`set_seed`).  Within one
thread the stream is deterministic; code that needs cross-thread
reproducibility must pass explicit generators, which every module in
this repo's parallel phases already does.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.analysis.registry import register_lock

_STATE_LOCK = register_lock("nn.init.state", module=__name__, attr="_STATE_LOCK")
_DEFAULT_SEED = 0
#: Bumped by :func:`set_seed`; cached per-thread generators from an older
#: epoch are discarded on next access.
_SEED_EPOCH = 0
#: Number of non-main threads that created a fallback stream this epoch.
_SPAWN_COUNTER = 0
_THREAD_STATE = threading.local()


def default_generator() -> np.random.Generator:
    """The per-thread fallback generator for modules built without ``rng``."""
    global _SPAWN_COUNTER
    rng = getattr(_THREAD_STATE, "rng", None)
    if rng is not None and getattr(_THREAD_STATE, "epoch", None) == _SEED_EPOCH:
        return rng
    with _STATE_LOCK:
        if threading.current_thread() is threading.main_thread():
            rng = np.random.default_rng(_DEFAULT_SEED)
        else:
            _SPAWN_COUNTER += 1
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=_DEFAULT_SEED, spawn_key=(_SPAWN_COUNTER,))
            )
        _THREAD_STATE.rng = rng
        _THREAD_STATE.epoch = _SEED_EPOCH
    return rng


def set_seed(seed: int) -> None:
    """Reset the fallback initialization stream to a known state.

    Takes effect in every thread: cached per-thread streams are from an
    older epoch afterwards and are lazily rebuilt from the new seed.
    """
    global _DEFAULT_SEED, _SEED_EPOCH, _SPAWN_COUNTER
    with _STATE_LOCK:
        _DEFAULT_SEED = int(seed)
        _SEED_EPOCH += 1
        _SPAWN_COUNTER = 0


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization for ``(fan_in, fan_out)`` weights."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He uniform initialization, suited to ReLU-family activations."""
    fan_in, _fan_out = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def truncated_normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Normal samples re-drawn until within two standard deviations.

    This matches the initializer used by the original ViT implementation.
    """
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    return np.ones(shape)


def _fans(shape) -> tuple:
    """Compute (fan_in, fan_out) for dense and convolutional shapes."""
    shape = tuple(shape)
    if len(shape) < 1:
        raise ValueError("initializer shapes must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolutional kernels: (out_channels, in_channels, kh, kw).
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
