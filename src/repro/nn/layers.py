"""Module system and core layers.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
mirroring the familiar torch-style API (``parameters()``, ``train()``,
``state_dict()``) so downstream ACME code reads naturally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor, _unbroadcast


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; these are discovered automatically for ``parameters()``
    and ``state_dict()``.  No layer behaves differently in training and
    evaluation, so a module has no mode.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # -- attribute registration ---------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Unique parameters (deduplicated by identity, traversal order).

        Deduplication matters when modules are shared — e.g. ENAS child
        models reusing operations from a common pool.
        """
        seen = set()
        out: List[Parameter] = []
        for _name, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for ζ-style accounting)."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self, reuse_buffers: bool = False) -> None:
        """Clear all parameter gradients.

        ``reuse_buffers=True`` keeps each parameter's grad array for the
        next backward pass (see :meth:`repro.nn.tensor.Tensor.zero_grad`),
        trading a little retained memory for zero grad allocations per
        step — the mode training loops that call ``zero_grad`` every
        batch should prefer.
        """
        for p in self.parameters():
            p.zero_grad(keep_buffer=reuse_buffers)

    def astype(self, dtype) -> "Module":
        """Convert all parameters to ``dtype`` in place (grads are dropped).

        Use together with :func:`repro.nn.set_default_dtype` to move an
        already-built model into the float32 compute mode.  Any live
        optimizer holding these parameters is notified so its fused flat
        groups are rebuilt — and its moments cast — in the new dtype
        instead of silently stepping stale buffers.
        """
        from repro.nn.optim import notify_params_rebound
        from repro.nn.tensor import _resolve_dtype

        resolved = np.dtype(_resolve_dtype(dtype))
        converted = []
        for p in self.parameters():
            if p.data.dtype != resolved:
                p.data = p.data.astype(resolved)
                converted.append(p)
            p.grad = None
            p._grad_buffer = None
        if converted:
            notify_params_rebound(converted)
        return self

    # -- (de)serialization ------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                    )
                # Copy **in place** (casting to the parameter's dtype so a
                # float64 checkpoint never flips a float32 model's compute
                # precision).  Rebinding ``param.data`` here would detach
                # the parameter from any fused optimizer's flat-buffer
                # view — and from every other holder of the live array —
                # until the next step's sync noticed; the in-place copy
                # keeps the array identity stable, so checkpoint loads are
                # visible immediately through every alias.
                np.copyto(param.data, value, casting="unsafe")

    # -- call protocol ------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Part:
    """The slice of a parameter a sliced forward reads, standing in for
    the parameter in the fused numpy bodies
    (:func:`repro.nn.functional.linear_backward`).

    ``data`` is ``view(param.data)``, reshaped to ``shape`` when given
    (which copies a strided view); a gradient of ``data``'s shape
    accumulates into the same view of the parameter's full gradient,
    which is C-contiguous, so ``view`` never copies it.
    """

    __slots__ = ("param", "view", "data")

    def __init__(
        self,
        param: Parameter,
        view: Callable[[np.ndarray], np.ndarray],
        shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.param = param
        self.view = view
        data = view(param.data)
        self.data = data if shape is None else data.reshape(shape)

    @property
    def requires_grad(self) -> bool:
        return self.param.requires_grad

    def _accumulate(self, grad: np.ndarray) -> None:
        """Like :meth:`Tensor._accumulate`: a first contribution is copied
        into a zeroed full gradient, so what the forward did not read
        gets exactly zero, as a gradient scattered into zeros would."""
        param = self.param
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if param.grad is None:
            buf = param._grad_buffer
            if buf is None or buf.shape != param.data.shape or buf.dtype != grad.dtype:
                buf = param._grad_buffer = np.empty(param.data.shape, grad.dtype)
            buf.fill(0)
            param.grad = buf
            target = self.view(buf)
            target[...] = grad.reshape(target.shape)
        else:
            target = self.view(param.grad)
            target += grad.reshape(target.shape)


def permute(param: Parameter, index) -> None:
    """Reorder ``param`` in place by the fancy ``index`` (array identity
    kept, so every holder of the array sees the new order)."""
    param.data[...] = param.data[index]


class Linear(Module):
    """Affine transformation ``y = x W + b`` over the last input axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Fallback: the shared per-thread stream (see repro.nn.init), so
        # two unseeded Linears never silently share identical weights.
        rng = rng if rng is not None else init.default_generator()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        flat = x.ndim == 1
        if flat:
            x = x.reshape(1, -1)
        out = F.linear(x, self.weight, self.bias)
        return out.reshape(-1) if flat else out


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable affine."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones(normalized_shape))
        self.beta = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            self.register_module(name, module)
            self._order.append(name)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def append(self, module: Module) -> None:
        name = f"layer{len(self._order)}"
        self.register_module(name, module)
        self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x


class Activation(Module):
    """Wraps a functional activation so it can live inside Sequential."""

    _FUNCTIONS: Dict[str, Callable[[Tensor], Tensor]] = {
        "relu": F.relu,
        "gelu": F.gelu,
        "tanh": F.tanh,
        "sigmoid": F.sigmoid,
        "identity": F.identity,
    }

    def __init__(self, kind: str = "gelu") -> None:
        super().__init__()
        if kind not in self._FUNCTIONS:
            raise ValueError(f"unknown activation {kind!r}; options: {sorted(self._FUNCTIONS)}")
        self.kind = kind

    def forward(self, x: Tensor) -> Tensor:
        return self._FUNCTIONS[self.kind](x)


class MLP(Module):
    """Two-layer perceptron used inside Transformer blocks.

    ACME's width pruning keeps the most important hidden neurons (see
    :mod:`repro.core.importance`).  The backbone is permuted once so the
    neurons run most important first (:meth:`reorder`); the kept set at
    any width is then a prefix, read in place (:meth:`kept`) or cut out
    (:meth:`narrow`).
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: Optional[int] = None,
        activation: str = "gelu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_generator()
        out_features = out_features if out_features is not None else in_features
        self.hidden_features = hidden_features
        self.fc1 = Linear(in_features, hidden_features, rng=rng)
        self.act = Activation(activation)
        self.fc2 = Linear(hidden_features, out_features, rng=rng)
        # Hidden activations of the last taped encoder-block forward
        # (Taylor importance, Eq. 8); written by
        # :class:`repro.nn.transformer.TransformerEncoderLayer`.
        self.last_hidden: Optional[Tensor] = None

    def kept(self, neurons: int) -> Tuple:
        """``(fc1 weight, fc1 bias, fc2 weight)`` as a forward through the
        first ``neurons`` hidden neurons reads them: the parameters
        themselves at full width, else :class:`Part` s (``fc1``'s first
        columns, ``fc2``'s first rows)."""
        fc1, fc2 = self.fc1, self.fc2
        if neurons == self.hidden_features:
            return fc1.weight, fc1.bias, fc2.weight
        return (
            Part(fc1.weight, lambda a: a[:, :neurons]),
            Part(fc1.bias, lambda a: a[:neurons]),
            Part(fc2.weight, lambda a: a[:neurons]),
        )

    def reorder(self, order: np.ndarray) -> None:
        """Permute the hidden neurons into ``order`` (most important
        first): the same function, with the kept set a prefix."""
        permute(self.fc1.weight, (slice(None), order))
        permute(self.fc1.bias, order)
        permute(self.fc2.weight, order)

    def narrow(self, neurons: int) -> None:
        """Cut the parameters down to the first ``neurons`` hidden neurons."""
        for param, part in zip((self.fc1.weight, self.fc1.bias, self.fc2.weight), self.kept(neurons)):
            if part is not param:
                param.data = np.array(part.data)
        self.hidden_features = neurons

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.act(self.fc1(x)))
