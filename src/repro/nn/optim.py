"""Gradient-based optimizer: one fused Adam engine.

:class:`FleetOptimizer` steps the parameters of many independent members
(every device header of a cluster, say) with Adam; :class:`Adam` is its
one-member form and :func:`clip_grad_norm` bounds the global gradient
norm before a step.  Parameters are deduplicated by identity, so a
member's parameters can be shared between child models (the ENAS
weight-sharing scheme) and still receive a single, consistent update.

The step runs **fused in-place**.  On the first step the parameters
are flattened into one contiguous buffer per dtype (a
:class:`_FlatGroup`): each parameter's ``data`` becomes a view into the
flat buffer, its grad buffer a view into a flat grad buffer, and the
two Adam moments plus two scratch buffers live as flat arrays of the
same length.  A steady-state step is then a fixed handful of
``out=``-style ufunc passes (``np.multiply(..., out=)``,
``flat_data -= ...``) over the whole parameter set — zero allocations
and zero per-parameter Python dispatch, which is where the seed
implementation (~6 fresh temporaries per parameter per step, ~15 numpy
calls per parameter) spent most of its time on realistic models.

The fused update keeps the exact per-element operation sequence of the
textbook allocating formula (only swapping operands of commutative
``+``/``*``, which is bitwise-neutral under IEEE-754), so fused float64
training traces are **bit-for-bit identical** to it — the formula
lives in ``tests/reference/optim.py`` as the parity suites' oracle.
Steps where some parameters have no gradient (e.g. partially-used ENAS
shared pools) fall back to an equivalent per-parameter in-place update
over the same flat state, skipping those parameters.

``zero_grad`` keeps each cleared parameter's grad buffer (see
:meth:`repro.nn.tensor.Tensor.zero_grad`), so step N+1's backward pass
accumulates straight into the flat grad buffer instead of freshly
allocated arrays.
"""

from __future__ import annotations

import weakref
from typing import Dict, Final, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.registry import hotpath, register_lock
from repro.nn.tensor import Tensor

#: The learning rate of every header-training, importance-round and
#: distillation run (the NAS keeps its own two, ``repro.core.nas``).
LR: Final = 1e-3
#: The global gradient-norm bound of every clipped training loop.
GRAD_CLIP: Final = 5.0

#: Live optimizers, notified when a module rebinds parameter storage
#: (``Module.astype``) so fused flat groups never step stale memory.
#: Mutated only under ``_REGISTRY_LOCK``; never rebound.
_LIVE_OPTIMIZERS: Final["weakref.WeakSet"] = weakref.WeakSet()
_REGISTRY_LOCK = register_lock(
    "optim.live-registry", module=__name__, attr="_REGISTRY_LOCK"
)

#: Cache-block size (elements) for the fused flat-buffer sweeps.  A full
#: fused step is ~14 ufunc passes over up to 6 arrays; on flat buffers
#: larger than the last-level-cache slice every pass re-streams the
#: whole working set from DRAM.  Chunking the sweep keeps one block of
#: all six arrays cache-resident across the passes while still
#: amortizing per-ufunc dispatch over tens of thousands of elements.
#: 65536 elements × 6 arrays ≈ 1.5 MiB at float32.  Because every pass
#: is elementwise, a blocked sweep is **bit-for-bit** identical to the
#: unblocked one (asserted in ``tests/nn/test_optim_blocked.py``, which
#: varies this constant).  ``0`` disables blocking.
_FUSED_BLOCK_ELEMS = 65536
#: Buffers of up to this many blocks sweep whole.  At float32 blocking
#: loses 6–13 % at 68 520–87 096 elements and is near even at 186 120;
#: it wins 1.19–1.32x from 314 280 up — the figures' and the fleet
#: trainer's largest buffers (``benchmarks/bench_fleet_train.py``).
#: The campaigns never reach four blocks.
_FUSED_WHOLE_BLOCKS = 4


def _block_slices(size: int):
    """Slices chunking a flat buffer at the configured block size.

    Yields the identity slice when blocking is off or the buffer fits
    :data:`_FUSED_WHOLE_BLOCKS` blocks, so callers need no special cases.
    """
    block = _FUSED_BLOCK_ELEMS
    if block <= 0 or size <= _FUSED_WHOLE_BLOCKS * block:
        yield slice(None)
        return
    for lo in range(0, size, block):
        yield slice(lo, min(lo + block, size))


def notify_params_rebound(params: Sequence[Tensor]) -> None:
    """Tell live optimizers that ``params`` were rebound to new storage.

    Called by ``Module.astype`` after converting parameter dtypes: every
    optimizer holding any of these parameters rebuilds its flat groups
    around the new arrays and casts its moments to the parameters' new
    dtype, so subsequent steps update the live arrays instead of the
    detached flat buffers, and never silently upcast the model back.
    """
    ids = {id(p) for p in params}
    with _REGISTRY_LOCK:
        live = list(_LIVE_OPTIMIZERS)
    for optimizer in live:
        optimizer._on_params_rebound(ids)


class _FlatGroup:
    """Parameters of one dtype flattened into contiguous step buffers.

    Layout: ``flat_data`` (parameter values; each parameter's ``data`` is
    rebound to a view of it), ``flat_grad`` (the owned grad buffers the
    backward pass accumulates into), two zero-initialized state arrays
    (Adam's moments) and two uninitialized scratch arrays.  Per-param
    views of every buffer are kept for the partial (per-parameter)
    update path.
    """

    __slots__ = (
        "params",
        "flat_data",
        "flat_grad",
        "flat_state",
        "flat_scratch",
        "data_views",
        "grad_views",
        "state_views",
        "scratch_views",
    )

    def __init__(
        self,
        params: Sequence[Tensor],
        carry_state: Dict[int, List[np.ndarray]],
    ) -> None:
        self.params = list(params)
        dtype = self.params[0].data.dtype
        total = int(sum(p.size for p in self.params))
        self.flat_data = np.empty(total, dtype=dtype)
        self.flat_grad = np.empty(total, dtype=dtype)
        self.flat_state = [np.zeros(total, dtype=dtype) for _ in range(2)]
        self.flat_scratch = [np.empty(total, dtype=dtype) for _ in range(2)]
        self.data_views: List[np.ndarray] = []
        self.grad_views: List[np.ndarray] = []
        self.state_views: List[List[np.ndarray]] = [[], []]
        self.scratch_views: List[List[np.ndarray]] = [[], []]
        offset = 0
        for p in self.params:
            end = offset + p.size
            shape = p.data.shape
            dview = self.flat_data[offset:end].reshape(shape)
            gview = self.flat_grad[offset:end].reshape(shape)
            np.copyto(dview, p.data)
            p.data = dview
            if p.grad is not None and p.grad.shape == shape and p.grad.dtype == dtype:
                np.copyto(gview, p.grad)
                p.grad = gview
            # Route future backward accumulations straight into the flat
            # grad buffer (Tensor._accumulate reuses a matching buffer).
            p._grad_buffer = gview
            self.data_views.append(dview)
            self.grad_views.append(gview)
            carried = carry_state.get(id(p))
            for k in range(2):
                sview = self.flat_state[k][offset:end].reshape(shape)
                # Dtype may legitimately differ after ``Module.astype``:
                # the moments follow the parameter into the new precision
                # (copyto casts) instead of being silently zeroed.
                if carried is not None and carried[k].shape == shape:
                    np.copyto(sview, carried[k], casting="unsafe")
                self.state_views[k].append(sview)
                self.scratch_views[k].append(
                    self.flat_scratch[k][offset:end].reshape(shape)
                )
            offset = end

    def carried_state(self) -> Dict[int, List[np.ndarray]]:
        """Per-parameter state views, for carrying across a rebuild."""
        return {
            id(p): [views[i] for views in self.state_views]
            for i, p in enumerate(self.params)
        }

    def sync(self, lo: int, hi: int) -> str:
        """Re-establish the flat layout of ``params[lo:hi]`` before a step.

        Returns ``"flat"`` when every parameter's data is (again) a view
        of ``flat_data`` and every parameter has its gradient in
        ``flat_grad`` — the whole range can be stepped with single flat
        ufunc passes.  ``"partial"`` when some parameter has no gradient
        (it must be skipped, so the step runs per parameter over the same
        views).  ``"rebuild"`` when a parameter changed shape or dtype
        (e.g. ``Module.astype``) and the group must be re-flattened.
        Parameters whose ``data`` was rebound to a fresh array of the
        same layout (``load_state_dict``, mask installation) are copied
        back into the flat buffer — values follow the parameter, the
        flat buffer is never authoritative across a rebind.
        """
        status = "flat"
        for p, dview, gview in zip(
            self.params[lo:hi], self.data_views[lo:hi], self.grad_views[lo:hi]
        ):
            if p.data is not dview:
                if p.data.shape != dview.shape or p.data.dtype != dview.dtype:
                    return "rebuild"
                np.copyto(dview, p.data)
                p.data = dview
            grad = p.grad
            if grad is None:
                status = "partial"
                continue
            if grad is not gview:
                if grad.shape != gview.shape or grad.dtype != gview.dtype:
                    status = "partial"
                    continue
                np.copyto(gview, grad)
                p.grad = gview
                p._grad_buffer = gview
        return status


@hotpath
def _adam_inplace_update(
    data, grad, m, v, s1, s2, lr, beta1, beta2, eps, weight_decay, bias1, bias2
) -> None:
    """The fused in-place Adam update; exact reference operation order.

    Only commutative operand swaps separate this from the reference
    formula, so float64 results are bit-for-bit identical.
    :class:`FleetOptimizer` runs it once per fleet buffer, member slice
    or parameter — elementwise ufuncs make a pass over a concatenation
    equal, bit for bit, to passes over its pieces.

    The same elementwise property is what makes the sweep safely
    **cache-blocked**: flat (1-D) buffers larger than one block are
    updated chunk by chunk (all 14 passes per chunk, keeping the six
    arrays' block L2-resident) with results identical to one pass over
    the whole buffer.
    """
    if data.ndim == 1:
        for sl in _block_slices(data.size):
            _adam_block(
                data[sl], grad[sl], m[sl], v[sl], s1[sl], s2[sl],
                lr, beta1, beta2, eps, weight_decay, bias1, bias2,
            )
        return
    _adam_block(
        data, grad, m, v, s1, s2,
        lr, beta1, beta2, eps, weight_decay, bias1, bias2,
    )


@hotpath
def _adam_block(
    data, grad, m, v, s1, s2, lr, beta1, beta2, eps, weight_decay, bias1, bias2
) -> None:
    """One contiguous span of the fused Adam sweep (see above)."""
    if weight_decay:
        np.multiply(data, weight_decay, out=s1)
        s1 += grad
        grad = s1
    # m = b1 * m + (1 - b1) * grad
    np.multiply(m, beta1, out=m)
    np.multiply(grad, 1.0 - beta1, out=s2)
    m += s2
    # v = b2 * v + (1 - b2) * grad²
    np.multiply(grad, grad, out=s2)
    s2 *= 1.0 - beta2
    np.multiply(v, beta2, out=v)
    v += s2
    # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(v, bias2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    np.divide(m, bias1, out=s1)  # grad (possibly aliasing s1) is dead here
    s1 *= lr
    s1 /= s2
    data -= s1


class _FleetSegment:
    """One member's contiguous span inside a fleet flat group."""

    __slots__ = ("member", "param_lo", "param_hi", "lo", "hi")

    def __init__(self, member: int, param_lo: int, param_hi: int, lo: int, hi: int) -> None:
        self.member = member
        self.param_lo = param_lo
        self.param_hi = param_hi
        self.lo = lo
        self.hi = hi


class FleetOptimizer:
    """Fused Adam over a whole fleet of independent parameter sets.

    The parameters of **many members** (e.g. every device header in an
    edge cluster) are flattened into one contiguous buffer per dtype,
    laid out member-major so each member owns a contiguous slice.  A
    training round in which every member steps is then a *single* fused
    pass over the whole fleet — ~14 ``out=``-ufunc calls total,
    regardless of how many members (and how many small tensors each)
    participate.  :class:`Adam` is the one-member fleet.

    Members are independent optimizers in everything but storage:

    * independent step counters per member (bias correction follows each
      member's own step count, so members may join/leave rounds freely —
      heterogeneous dataset sizes, empty devices);
    * independent learning rates per member (``lr`` may be a sequence);
    * the per-element update is :func:`_adam_inplace_update` — and
      elementwise ufuncs over a concatenation equal the per-slice passes
      bit for bit — so a float64 fleet of N traces **bit-for-bit** the N
      fleets of one (asserted in ``tests/train/test_fleet.py``).

    Rounds where only some members step fall back to per-member slice
    passes, and a member with a parameter that has no gradient (e.g. a
    partially-used ENAS shared pool) to per-parameter updates that skip
    it — all over the same flat state.
    """

    def __init__(
        self,
        member_params: Sequence[Iterable[Tensor]],
        lr=1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.members: List[List[Tensor]] = []
        seen_ids: Set[int] = set()
        for params in member_params:
            member: List[Tensor] = []
            local: Set[int] = set()
            for p in params:
                if id(p) in local:
                    continue  # shared modules are stepped once
                if id(p) in seen_ids:
                    raise ValueError(
                        "FleetOptimizer members must not share parameters: "
                        "a shared tensor cannot occupy two flat slices "
                        "(and per-member optimizers would double-step it)"
                    )
                local.add(id(p))
                member.append(p)
            seen_ids.update(local)
            self.members.append(member)
        self.params: List[Tensor] = [p for member in self.members for p in member]
        if not self.params:
            raise ValueError("optimizer received no parameters")
        num = len(self.members)
        lrs = [float(lr)] * num if np.isscalar(lr) else [float(v) for v in lr]
        if len(lrs) != num:
            raise ValueError(f"{len(lrs)} learning rates for {num} members")
        if any(v <= 0 for v in lrs):
            raise ValueError(f"learning rates must be positive, got {lr}")
        self.lrs = lrs
        self.beta1, self.beta2 = betas
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        self.weight_decay = weight_decay
        self._t: List[int] = [0] * num
        self._flat_groups: Optional[List[_FlatGroup]] = None
        self._segments: List[List[_FleetSegment]] = []
        with _REGISTRY_LOCK:
            _LIVE_OPTIMIZERS.add(self)

    # -- plumbing -------------------------------------------------------
    def zero_grad(self, active: Optional[Sequence[int]] = None) -> None:
        members = self.members if active is None else [self.members[m] for m in active]
        for member in members:
            for p in member:
                p.zero_grad(keep_buffer=True)

    def _on_params_rebound(self, ids: Set[int]) -> None:
        if self._flat_groups is not None and any(id(p) in ids for p in self.params):
            self._build_groups()

    def _build_groups(self) -> None:
        carry: Dict[int, List[np.ndarray]] = {}
        if self._flat_groups is not None:
            for group in self._flat_groups:
                carry.update(group.carried_state())
        by_dtype: "Dict[np.dtype, List[Tensor]]" = {}
        spans: "Dict[np.dtype, List[Tuple[int, int, int]]]" = {}
        for m, member in enumerate(self.members):
            for p in member:
                bucket = by_dtype.setdefault(p.data.dtype, [])
                span = spans.setdefault(p.data.dtype, [])
                if span and span[-1][0] == m:
                    span[-1] = (m, span[-1][1], len(bucket) + 1)
                else:
                    span.append((m, len(bucket), len(bucket) + 1))
                bucket.append(p)
        self._flat_groups = []
        self._segments = []
        for dt, group_params in by_dtype.items():
            group = _FlatGroup(group_params, carry)
            offsets = np.concatenate(
                ([0], np.cumsum([p.size for p in group_params], dtype=np.int64))
            )
            segs = [
                _FleetSegment(m, lo, hi, int(offsets[lo]), int(offsets[hi]))
                for (m, lo, hi) in spans[dt]
            ]
            self._flat_groups.append(group)
            self._segments.append(segs)

    # -- the step -------------------------------------------------------
    def step(self, active: Optional[Sequence[int]] = None) -> None:
        """Advance every member in ``active`` (default: all) by one step."""
        members = range(len(self.members)) if active is None else list(active)
        active_set = set(members)
        for m in members:
            self._t[m] += 1
        if self._flat_groups is None:
            self._build_groups()
        for attempt in range(2):
            statuses: List[List[str]] = []
            rebuild = False
            for group, segs in zip(self._flat_groups, self._segments):
                group_status = [
                    group.sync(seg.param_lo, seg.param_hi)
                    if seg.member in active_set
                    else "skip"
                    for seg in segs
                ]
                if "rebuild" in group_status:
                    rebuild = True
                    break
                statuses.append(group_status)
            if not rebuild:
                break
            self._build_groups()
        else:  # pragma: no cover - second rebuild cannot miss
            raise RuntimeError("fleet flat groups failed to stabilize")

        for group, segs, group_status in zip(self._flat_groups, self._segments, statuses):
            self._step_group(group, segs, group_status)

    def _update(self, member: int, data, grad, m, v, s1, s2) -> None:
        """One in-place Adam update at ``member``'s step count and rate."""
        t = self._t[member]
        _adam_inplace_update(
            data, grad, m, v, s1, s2,
            self.lrs[member], self.beta1, self.beta2, self.eps, self.weight_decay,
            1.0 - self.beta1**t, 1.0 - self.beta2**t,
        )

    def _step_group(
        self, group: _FlatGroup, segs: List[_FleetSegment], status: List[str]
    ) -> None:
        flat = (group.flat_data, group.flat_grad, *group.flat_state, *group.flat_scratch)
        if all(st == "flat" for st in status) and (
            len({(self._t[s.member], self.lrs[s.member]) for s in segs}) == 1
        ):
            # Whole-fleet fast path: one fused pass over the buffers.
            self._update(segs[0].member, *flat)
            return
        for seg, st in zip(segs, status):
            if st == "flat":
                self._update(seg.member, *(buf[seg.lo : seg.hi] for buf in flat))
            elif st == "partial":
                for i in range(seg.param_lo, seg.param_hi):
                    p = group.params[i]
                    if p.grad is not None:
                        self._update(
                            seg.member,
                            group.data_views[i],
                            p.grad,
                            group.state_views[0][i],
                            group.state_views[1][i],
                            group.scratch_views[0][i],
                            group.scratch_views[1][i],
                        )


class Adam(FleetOptimizer):
    """Adam with bias correction (Kingma & Ba, 2015): a fleet of one."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(
            [params], lr=lr, betas=betas, eps=eps, weight_decay=weight_decay
        )

    @property
    def lr(self) -> float:
        return self.lrs[0]


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging).  Each
    parameter's squared norm is a single BLAS ``np.dot`` over a raveled
    view (no ``grad * grad`` temporary) and the scaling is in place.
    ``max_norm`` must be finite and positive — a negative bound would
    flip every gradient and a zero one erase it — and is checked before
    any gradient is touched.
    """
    if not 0.0 < max_norm < float("inf"):
        raise ValueError(f"max_norm must be finite and positive, got {max_norm}")
    params = [p for p in params if p.grad is not None]
    total_sq = 0.0
    for p in params:
        flat = p.grad.ravel()
        total_sq += float(np.dot(flat, flat))
    total = float(np.sqrt(total_sq))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
