"""Saving and loading module state, with byte-size accounting.

The distributed simulator charges every transmitted payload by its
serialized size; :func:`state_dict_nbytes` is the canonical measure used by
:mod:`repro.distributed.accounting` for model/parameter transfers.
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.layers import Module


def _npz_path(path: Union[str, Path]) -> Path:
    """The filename ``np.savez`` actually writes for ``path``.

    ``np.savez`` appends ``.npz`` to any filename not already ending in
    it, while ``np.load`` opens the literal path — so an extensionless
    ``save_state``/``load_state`` round-trip used to miss the file.
    Normalizing both sides through this helper keeps them in agreement.
    """
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


# reprolint: unreached -- deferred deletion (no paper anchor): goes with load_state,
# test_serialization.py::TestSaveLoad (6 tests) and the checkpoint case of test_state_rebind.py
def save_state(module: Module, path: Union[str, Path]) -> None:
    """Serialize a module's parameters to an ``.npz`` archive."""
    state = module.state_dict()
    np.savez(_npz_path(path), **state)


# reprolint: unreached -- deferred deletion (no paper anchor): goes with save_state
def load_state(module: Module, path: Union[str, Path]) -> None:
    """Load parameters saved by :func:`save_state` into ``module``."""
    with np.load(_npz_path(path)) as archive:
        state = {name: archive[name] for name in archive.files}
    module.load_state_dict(state)


def state_dict_nbytes(state: Dict[str, np.ndarray]) -> int:
    """Exact in-memory byte size of a state dict's arrays."""
    return int(sum(np.asarray(v).nbytes for v in state.values()))


# reprolint: unreached -- deferred deletion (no paper anchor): goes with
# test_serialization.py::TestByteAccounting's case for it
def module_nbytes(module: Module) -> int:
    """Byte size of a module's trainable parameters."""
    return state_dict_nbytes(module.state_dict())


# reprolint: unreached -- deferred deletion (no paper anchor): goes with
# test_serialization.py::TestByteAccounting's case for it
def array_nbytes(*arrays: np.ndarray) -> int:
    """Total byte size of plain arrays (importance sets, statistics, ...)."""
    return int(sum(np.asarray(a).nbytes for a in arrays))


def json_nbytes(obj) -> int:
    """Byte size of a JSON-serializable control message."""
    return len(json.dumps(obj, sort_keys=True).encode("utf-8"))


# reprolint: unreached -- deferred deletion (no paper anchor): goes with
# test_serialization.py::TestByteAccounting's case for it
def compressed_nbytes(state: Dict[str, np.ndarray], level: int = 6) -> int:
    """Byte size after zlib compression — a lower bound used in ablations."""
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return len(zlib.compress(buffer.getvalue(), level))


def state_to_bytes(state: Dict[str, np.ndarray], compress: bool = True) -> bytes:
    """Serialize an array dict to an in-memory ``.npz`` blob.

    The compact form the device-state LRU
    (:mod:`repro.distributed.state_store`) evicts cold per-device state
    into: the ``npz`` container round-trips every array bit-exactly
    (dtype, shape and payload), so rehydration reproduces the live
    state to the bit.  ``compress=True`` uses the deflated container;
    high-entropy float parameters deflate by only a few percent at ~5×
    the serialization time, so the LRU store evicts in the raw form.
    """
    buffer = io.BytesIO()
    if compress:
        np.savez_compressed(buffer, **state)
    else:
        np.savez(buffer, **state)
    return buffer.getvalue()


def state_from_bytes(blob: bytes) -> Dict[str, np.ndarray]:
    """Deserialize a :func:`state_to_bytes` blob back to an array dict."""
    with np.load(io.BytesIO(blob)) as archive:
        return {name: archive[name] for name in archive.files}
