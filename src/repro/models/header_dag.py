"""DAG headers assembled from a :class:`~repro.models.blocks.HeaderSpec`.

The underlying module (Fig. 5) is a DAG of ``B`` blocks over the token
feature map; it is repeated ``U`` times, followed by global pooling, a
concatenation with the backbone's [CLS] token, and an MLP classifier.

Parameter masking for Phase 2-2: every scalar parameter of the header can be
masked via :meth:`DAGHeader.set_parameter_mask`; the importance-set pruning
of Algorithm 2 operates on this mask.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.models.blocks import (
    HeaderSpec,
    OPERATION_NAMES,
    build_operation,
    num_operations,
)
from repro.models.headers import BackboneFeatures, Header
from repro.nn import init
from repro.nn.layers import Activation, Linear, Module, Parameter, Sequential
from repro.nn.tensor import Tensor, concatenate


class _Block(Module):
    """One DAG block: op1(input1) + op2(input2)."""

    def __init__(
        self,
        spec,
        channels: int,
        rng: np.random.Generator,
        op_factory=None,
        block_index: int = 0,
    ) -> None:
        super().__init__()
        self.spec = spec
        if op_factory is None:
            self.op1 = build_operation(OPERATION_NAMES[spec.op1], channels, rng)
            self.op2 = build_operation(OPERATION_NAMES[spec.op2], channels, rng)
        else:
            # ENAS weight sharing: the factory returns (possibly shared)
            # operation modules keyed by (block, slot, op).
            self.op1 = op_factory(block_index, 0, spec.op1)
            self.op2 = op_factory(block_index, 1, spec.op2)

    def forward(self, inputs: List[Tensor]) -> Tensor:
        return self.op1(inputs[self.spec.input1]) + self.op2(inputs[self.spec.input2])


class _UnderlyingModule(Module):
    """One repetition of the B-block DAG."""

    def __init__(
        self,
        spec: HeaderSpec,
        channels: int,
        rng: np.random.Generator,
        op_factory=None,
    ) -> None:
        super().__init__()
        self.blocks: List[_Block] = []
        for b, block_spec in enumerate(spec.blocks):
            block = _Block(block_spec, channels, rng, op_factory=op_factory, block_index=b)
            self.register_module(f"block{b}", block)
            self.blocks.append(block)

    def forward(self, primary: Tensor, secondary: Tensor) -> Tensor:
        inputs = [primary, secondary]
        out = primary
        for block in self.blocks:
            out = block(inputs)
            inputs.append(out)
        return out


class DAGHeader(Header):
    """A NAS-generated header: U× (B-block DAG) → pool → [CLS] concat → MLP."""

    def __init__(
        self,
        embed_dim: int,
        num_patches: int,
        num_classes: int,
        spec: HeaderSpec,
        rng: Optional[np.random.Generator] = None,
        op_factory=None,
        classifier: Optional[Module] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        spec.validate(num_operations())
        self.spec = spec
        self.embed_dim = embed_dim
        self.modules_list: List[_UnderlyingModule] = []
        for u in range(spec.repeats):
            module = _UnderlyingModule(spec, embed_dim, rng, op_factory=op_factory)
            self.register_module(f"module{u}", module)
            self.modules_list.append(module)
        self.classifier = classifier if classifier is not None else Sequential(
            Linear(2 * embed_dim, embed_dim, rng=rng),
            Activation("gelu"),
            Linear(embed_dim, num_classes, rng=rng),
        )
        self._parameter_mask: Optional[Dict[str, np.ndarray]] = None
        self._pristine: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Parameter masking (Phase 2-2 pruning)
    # ------------------------------------------------------------------
    def _unique_named_parameters(self):
        """(name, parameter) pairs deduplicated by identity, stable order.

        Shared-op headers (ENAS children) may reach the same parameter via
        several module paths; masking must see each parameter exactly once.
        """
        seen = set()
        out = []
        for name, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append((name, p))
        return out

    def parameter_count(self) -> int:
        return self.num_parameters()

    def set_parameter_mask(self, keep: np.ndarray) -> None:
        """Install a flat boolean keep-mask over all header parameters.

        Masked parameters are zeroed in place; pristine values are retained
        so the mask can be revised (or cleared) between aggregation rounds.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.parameter_count(),):
            raise ValueError(
                f"mask length {keep.shape} != parameter count {self.parameter_count()}"
            )
        if self._pristine is None:
            self._pristine = {name: p.data.copy() for name, p in self._unique_named_parameters()}
        masks: Dict[str, np.ndarray] = {}
        offset = 0
        for name, p in self._unique_named_parameters():
            size = p.size
            mask = keep[offset : offset + size].reshape(p.data.shape)
            masks[name] = mask
            p.data = self._pristine[name] * mask
            offset += size
        self._parameter_mask = masks

    def reapply_mask(self) -> None:
        """Re-zero masked parameters in place (call after optimizer steps)."""
        if self._parameter_mask is None:
            return
        for name, p in self._unique_named_parameters():
            np.multiply(p.data, self._parameter_mask[name], out=p.data)

    def active_parameter_count(self) -> int:
        if self._parameter_mask is None:
            return self.parameter_count()
        return int(sum(m.sum() for m in self._parameter_mask.values()))

    # ------------------------------------------------------------------
    def forward(self, features: BackboneFeatures) -> Tensor:
        primary = features.tokens_as_map("final")
        secondary = features.tokens_as_map("penultimate")
        out = primary
        for module in self.modules_list:
            out = module(out, secondary)
        pooled = out.mean(axis=(2, 3))  # (N, D)
        fused = concatenate([features.cls, pooled], axis=1)
        return self.classifier(fused)
