"""Textbook allocating Adam / gradient clipping.

Every update allocates fresh arrays and rebinds ``p.data`` — the
formulas the fused in-place kernels of :mod:`repro.nn.optim` must
reproduce bit-for-bit under float64.  State is keyed by parameter
identity and follows a parameter's dtype (``Module.astype``) at the
next step.
"""

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


def _dedup(params: Iterable[Tensor]) -> List[Tensor]:
    return list({id(p): p for p in params}.values())


class _ReferenceOptimizer:
    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    @staticmethod
    def _state(store: Dict[int, np.ndarray], p: Tensor) -> np.ndarray:
        buf = store.get(id(p))
        if buf is None:
            return np.zeros_like(p.data)
        return buf if buf.dtype == p.data.dtype else buf.astype(p.data.dtype)


class ReferenceAdam(_ReferenceOptimizer):
    def __init__(
        self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0
    ) -> None:
        self.params = _dedup(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m: Dict[int, np.ndarray] = {}
        self.v: Dict[int, np.ndarray] = {}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = b1 * self._state(self.m, p) + (1 - b1) * grad
            v = b2 * self._state(self.v, p) + (1 - b2) * (grad * grad)
            self.m[id(p)] = m
            self.v[id(p)] = v
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


#: The oracle of each engine optimizer class.
ORACLE = {Adam: ReferenceAdam}


def reference_clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
