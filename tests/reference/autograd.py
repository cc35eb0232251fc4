"""Allocate-per-contribution gradient accumulation.

The textbook ``grad = grad + contribution``: a fresh sum for every
backward contribution, which :meth:`repro.nn.tensor.Tensor._accumulate`
(owned buffer, ``+=``) must equal bit-for-bit.  Install it with
``monkeypatch.setattr(Tensor, "_accumulate", allocating_accumulate)``.
"""

import numpy as np

from repro.nn.tensor import _unbroadcast


def allocating_accumulate(self, grad) -> None:
    grad = _unbroadcast(np.asarray(grad), self.data.shape)
    self.grad = grad.copy() if self.grad is None else self.grad + grad
