"""Reverse-mode automatic differentiation on numpy arrays.

This module implements the :class:`Tensor` type used throughout the
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it; calling :meth:`Tensor.backward` propagates
gradients through the recorded graph in reverse topological order.

The design follows the classic define-by-run tape:

* every operation returns a new :class:`Tensor` holding references to its
  parents and a closure that accumulates gradients into them;
* broadcasting is supported for elementwise binary operations, with
  gradients "unbroadcast" (summed) back to each parent's shape;
* gradients accumulate additively, so a tensor used several times in a
  graph receives the sum of all its downstream contributions.

The engine is intentionally small but complete enough to train Vision
Transformers, convolutional headers and LSTM controllers on CPU.

Two switches control the engine's speed/accuracy trade-off:

* **grad mode** — :func:`no_grad` / :func:`set_grad_enabled` disable the
  tape: inside a disabled region no parents or backward closures are
  recorded, so pure-inference code pays only the forward numpy cost;
* **default dtype** — :func:`set_default_dtype` selects the compute
  precision (**float32 by default** since PR 9 — it roughly halves
  memory traffic on every kernel; scope :func:`using_dtype`
  ``("float64")`` around code that needs full precision, e.g.
  finite-difference gradient checks and the parity fixtures whose
  configs pin float64 explicitly).

Both switches are **context-local** (:mod:`contextvars`), not module
globals: a ``no_grad()`` or ``using_dtype()`` region entered in one
thread cannot drop another thread's tape or flip its dtype, which is
what makes the thread-parallel device loops in
:mod:`repro.distributed.executor` safe.  Threads started outside
:func:`repro.distributed.executor.parallel_map` begin from the engine
defaults (grad on, float32); the executor instead captures the caller's
context at submit time so scoped settings (e.g. a float64 system run)
propagate to its workers.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Final, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Supported compute dtypes, keyed by their canonical names.
_SUPPORTED_DTYPES: Final = {
    "float32": np.float32,
    "float64": np.float64,
}

#: Engine compute precision for newly created tensors (context-local).
#: float32 is the import-time default, and so is a system run's
#: (``ACMEConfig.compute_dtype``): every kernel and gradient stays
#: in it, with half the memory traffic of float64.
_DEFAULT_DTYPE_VAR: contextvars.ContextVar = contextvars.ContextVar(
    "repro_default_dtype", default=np.float32
)

# Tape recording state, toggled by ``no_grad`` / ``set_grad_enabled``.
_GRAD_ENABLED_VAR: contextvars.ContextVar = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)


def _pow(base: np.ndarray, exponent) -> np.ndarray:
    """``base ** exponent`` with small integer/half exponents expanded.

    ``numpy.power`` with a small integer exponent routes through libm
    pow and is ~100x slower than repeated multiplication on large arrays.
    """
    if exponent == 2:
        return base * base
    if exponent == 3:
        return base * base * base
    if exponent == 4:
        sq = base * base
        return sq * sq
    if exponent == 1:
        return base
    if exponent == 0.5:
        return np.sqrt(base)
    if exponent == -0.5:
        return 1.0 / np.sqrt(base)
    if exponent == -1:
        return 1.0 / base
    return base**exponent


def _resolve_dtype(dtype):
    """Normalize a dtype spec (str / np.dtype / type) to a numpy scalar type."""
    if isinstance(dtype, str):
        if dtype not in _SUPPORTED_DTYPES:
            raise ValueError(
                f"unsupported dtype {dtype!r}; options: {sorted(_SUPPORTED_DTYPES)}"
            )
        return _SUPPORTED_DTYPES[dtype]
    resolved = np.dtype(dtype)
    for candidate in _SUPPORTED_DTYPES.values():
        if resolved == np.dtype(candidate):
            return candidate
    raise ValueError(
        f"unsupported dtype {dtype!r}; options: {sorted(_SUPPORTED_DTYPES)}"
    )


def set_default_dtype(dtype) -> None:
    """Set the engine compute dtype (``"float32"`` or ``"float64"``).

    Applies to tensors created afterwards; existing tensors keep their
    dtype (convert modules with :meth:`repro.nn.Module.astype`).  The
    setting is context-local: it affects the calling thread (and any
    executor workers that copy its context), never a concurrently
    running thread.
    """
    _DEFAULT_DTYPE_VAR.set(_resolve_dtype(dtype))


def get_default_dtype():
    """The dtype new tensors are created with (in the current context)."""
    return _DEFAULT_DTYPE_VAR.get()


class using_dtype:
    """Context manager scoping :func:`set_default_dtype` to a block."""

    def __init__(self, dtype) -> None:
        self._dtype = _resolve_dtype(dtype)
        self._previous = None

    def __enter__(self) -> "using_dtype":
        self._previous = _DEFAULT_DTYPE_VAR.get()
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._previous)


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd tape."""
    return _GRAD_ENABLED_VAR.get()


def set_grad_enabled(mode: bool) -> bool:
    """Enable/disable tape recording for the current context.

    Returns the previous mode.  Context-local: one thread's setting is
    invisible to other threads.
    """
    previous = _GRAD_ENABLED_VAR.get()
    _GRAD_ENABLED_VAR.set(bool(mode))
    return previous


class _GradMode:
    """Context manager / decorator setting tape recording to ``mode``."""

    _mode = True

    def __init__(self) -> None:
        self._previous: Optional[bool] = None

    def __enter__(self) -> "_GradMode":
        self._previous = set_grad_enabled(self._mode)
        return self

    def __exit__(self, *exc) -> None:
        set_grad_enabled(self._previous)

    def __call__(self, fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with type(self)():
                return fn(*args, **kwargs)

        return wrapper


class no_grad(_GradMode):
    """Disable tape recording: forwards run as plain numpy pipelines.

    Usable as a context manager (``with no_grad(): ...``) or decorator.
    Tensors produced inside have no parents and no backward closures, so
    they cannot be backpropagated through — use for inference only.
    """

    _mode = False


def records(*tensors: "Tensor") -> bool:
    """Whether an op over ``tensors`` is taped: grad mode is on and some
    input requires grad.  Fused ops ask before saving anything, so their
    tape-free path keeps nothing alive for a backward."""
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


# reprolint: unreached -- safety handle: the scoped inverse of no_grad; the grad-mode nesting
# and thread-isolation tests drive it
class enable_grad(_GradMode):
    """Re-enable tape recording inside a ``no_grad`` region."""

    _mode = True


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``data`` to a numpy array with the engine's default dtype.

    Floating arrays wider than the default dtype are cast down so that a
    float32 session never silently upcasts to float64; narrower floating
    arrays (e.g. float32 wire payloads under a float64 default) pass
    through untouched, preserving the historical behavior.
    """
    if isinstance(data, np.ndarray):
        if dtype is not None:
            return data if data.dtype == dtype else data.astype(dtype)
        default = _DEFAULT_DTYPE_VAR.get()
        if data.dtype.kind in "fc":
            if data.dtype.kind == "f" and data.dtype.itemsize > np.dtype(default).itemsize:
                return data.astype(default)
            return data
        return data.astype(default)
    return np.asarray(data, dtype=dtype or _DEFAULT_DTYPE_VAR.get())


def _index_is_unique(index) -> bool:
    """True if ``index`` is basic indexing (ints/slices only), which can
    never address the same element twice — allowing gradient scatter via
    assignment instead of ``np.add.at``."""
    if isinstance(index, (int, np.integer, slice)) or index is Ellipsis or index is None:
        return True
    if isinstance(index, tuple):
        return all(
            isinstance(part, (int, np.integer, slice)) or part is Ellipsis or part is None
            for part in index
        )
    return False


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in an autograd graph.

    Parameters
    ----------
    data:
        The wrapped value (anything ``numpy.asarray`` accepts).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    name:
        Optional human-readable label used in ``repr`` and debugging.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "_backward",
        "_parents",
        "_grad_buffer",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        # Retained grad storage for cross-step buffer reuse (see
        # ``zero_grad(keep_buffer=True)``); always exclusively owned by
        # this tensor, never an alias of an activation or another grad.
        self._grad_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if records(*parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a backward contribution to ``self.grad``.

        Ownership/copy rules: ``self.grad`` is always an array this tensor
        owns exclusively — the first contribution is **copied** (never
        adopted by reference), so a backward closure can pass a view of a
        live activation or another tensor's grad without it ever being
        aliased into ``self.grad``.  Later contributions accumulate with
        ``+=`` into the owned buffer; incoming arrays are only read.
        Callers that assign ``tensor.grad`` directly transfer ownership of
        the assigned array to the tensor.
        """
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        current = self.grad
        if current is not None:
            if grad.dtype == current.dtype:
                current += grad
            else:  # mixed precision: the grad takes numpy's promoted dtype
                self.grad = current + grad
                if self._grad_buffer is current:
                    self._grad_buffer = self.grad
            return
        buf = self._grad_buffer
        if buf is not None and buf.shape == grad.shape and buf.dtype == grad.dtype:
            # Reuse last step's array instead of allocating a fresh one.
            np.copyto(buf, grad)
        else:
            buf = self._grad_buffer = grad.copy()
        self.grad = buf

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data)

    def zero_grad(self, keep_buffer: bool = False) -> None:
        """Clear the gradient.

        With ``keep_buffer=True`` the grad array is retained (detached
        from ``grad``) so the next backward pass accumulates into it
        instead of allocating a fresh one — the buffer-reuse mode
        :meth:`repro.nn.optim.Optimizer.zero_grad` uses between steps.
        """
        if keep_buffer:
            if self.grad is not None:
                self._grad_buffer = self.grad
        else:
            self._grad_buffer = None
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (and must be provided for non-scalar outputs
            where that default would be surprising).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        # Build reverse topological order iteratively (graphs can be deep).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / _pow(other.data, 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = _pow(self.data, exponent)
        if out_data is self.data:  # exponent == 1: don't alias the input
            out_data = self.data.copy()

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * _pow(self.data, exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparison operators (no gradients; return numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):  # pragma: no cover - trivial
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):  # pragma: no cover - trivial
        return self.data < (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian Error Linear Unit (tanh approximation)."""
        from repro.nn.functional import gelu  # functional imports this module

        return gelu(self)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            mask = self.data == expanded
            # Split gradient equally among ties to keep the op well-defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.broadcast_to(g, self.data.shape) * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra / shape manipulation
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul requires both operands to have ndim >= 2")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if _index_is_unique(index):
                # Basic indexing never selects the same element twice, so
                # plain assignment replaces the (much slower) ufunc.at
                # scatter-add.
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows ``numpy.pad`` conventions."""
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.data.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, moved):
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * cond)
        if b.requires_grad:
            b._accumulate(grad * (~cond))

    return Tensor._make(out_data, (a, b), backward)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE_VAR.get()), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE_VAR.get()), requires_grad=requires_grad)
