"""Deterministic parallel execution for the embarrassingly parallel phases.

The cluster dimension of the ACME protocol — per-device finalize/eval,
importance rounds, similarity feature extraction, NAS child scoring — is
a fan-out of independent tasks.  :func:`parallel_map` runs such a fan-out
on a thread pool while preserving the three properties the protocol
tests rely on:

* **deterministic result ordering** — results come back in input order,
  never completion order, so downstream aggregation (similarity rows,
  importance stacking, message sequences) is bit-identical to the
  serial loop;
* **engine-state propagation** — the caller's :mod:`contextvars` context
  (grad mode, compute dtype — see :mod:`repro.nn.tensor`) is captured at
  submit time and entered by each worker, so a float32 / ``no_grad``
  system run stays float32 / tape-free inside its workers while staying
  isolated from unrelated threads;
* **serial fallback** — ``max_workers`` of ``None``, 0 or 1 runs the
  plain loop in the calling thread with zero thread overhead, which is
  also the reference behavior parallel runs are asserted against.

Worker counts: pass an explicit positive integer, or ``-1`` /
``"auto"`` to use the host's CPU count; anything else that is not
``None`` or an integer is refused, never truncated.

Backends: ``backend="thread"`` (default) overlaps the GIL-releasing
numpy kernels (BLAS matmuls, ufuncs, sorts) — the right fit for
inference-heavy fan-outs.  ``backend="process"`` forks a worker pool
(:mod:`repro.distributed.procpool`) so the *tape-bound* phases, whose
Python-level autograd bookkeeping holds the GIL, scale past it; the
caller names the tensors each item's task mutates via ``shared_params``
and their final values come home in the item's result frame.
Both backends produce bit-for-bit the results of the serial loop; on a
single-core host they degrade gracefully to roughly serial wall-clock
with identical results.  ``backend="process"`` silently downgrades to
threads inside a pool worker (no nested forking) and on platforms
without the ``fork`` start method.

:func:`parallel_map` is the single primitive.  *Which* widths and
backend a system run uses is declared once, on an
:class:`ExecutionPlan` (cross-edge width, inner per-device / NAS-child
width, the inner tier's backend): the config holds one, its worker
budget is split once where clusters are built, and every layer that
fans out is handed the plan and calls ``plan.map_edges`` /
``plan.map_devices`` instead of re-declaring the knobs.  The inner width
is also how many stacked graphs an edge splits a cluster's header
training into (:meth:`repro.distributed.edge.EdgeServer._local_groups`).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from repro.checks import check_count
from repro.distributed.procpool import ExecutorError  # noqa: F401  (re-export)

T = TypeVar("T")
R = TypeVar("R")

WorkerSpec = Union[int, str, None]

#: Executor backends: what :func:`parallel_map` accepts and what an
#: :class:`ExecutionPlan` (hence ``repro-cli run --backend``) may name.
BACKENDS = ("thread", "process")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown executor backend {backend!r}; use one of {BACKENDS}")


def resolve_workers(max_workers: WorkerSpec, num_tasks: Optional[int] = None) -> int:
    """Normalize a worker spec to an effective worker count.

    ``None`` / ``0`` / ``1`` mean serial; exactly ``-1`` or ``"auto"``
    mean the host CPU count (other negatives raise, so a typo cannot
    silently oversubscribe a shared machine); positive integers pass
    through.  A float or a bool is refused rather than truncated: the
    resolved width decides how an edge groups its devices' training.
    When ``num_tasks`` is given the count is clamped to it (no idle
    workers).
    """
    if max_workers is None:
        workers = 1
    elif isinstance(max_workers, str):
        if max_workers != "auto":
            raise ValueError(f"unknown worker spec {max_workers!r}; use 'auto' or an int")
        workers = os.cpu_count() or 1
    else:
        check_count("worker count", max_workers, -1)
        workers = int(max_workers)
        if workers == -1:
            workers = os.cpu_count() or 1
        elif workers == 0:
            workers = 1
    if num_tasks is not None:
        workers = min(workers, max(1, num_tasks))
    return max(1, workers)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: WorkerSpec = None,
    backend: str = "thread",
    shared_params: Optional[Sequence[Sequence[object]]] = None,
) -> List[R]:
    """Apply ``fn`` to every item, possibly across threads or processes.

    Results are returned in input order regardless of completion order.
    Each task runs inside a copy of the caller's ``contextvars`` context,
    so engine settings scoped at the call site (``using_dtype``,
    ``no_grad``) apply to the workers.  The first raised exception
    propagates to the caller.

    ``backend="process"`` runs the fan-out on a forked worker pool
    (:mod:`repro.distributed.procpool`): tasks whose bottleneck is
    Python-level autograd bookkeeping scale past the GIL, at the price
    of a fork per pool.  ``shared_params`` (aligned with ``items``)
    names the tensors each task mutates: a worker trains its forked
    copy, ships their final ``data`` / ``grad`` home in the item's
    result frame, and the parent copies them into the arrays it already
    holds (no tensor is rebound).  Thread and serial backends ignore
    ``shared_params`` — threads share memory natively.
    A worker crash raises :class:`ExecutorError`; task exceptions
    re-raise as themselves, like the thread backend.
    """
    _check_backend(backend)
    items = list(items)
    workers = resolve_workers(max_workers, num_tasks=len(items))
    if backend == "process":
        from repro.distributed import procpool

        if procpool.in_worker() or not procpool.fork_available():
            backend = "thread"
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if backend == "process":
        from repro.distributed import procpool

        return procpool.process_map(fn, items, workers, shared_params=shared_params)
    # One context snapshot per task: tasks must not observe each other's
    # engine-state mutations, only the caller's state at submit time.
    contexts = [contextvars.copy_context() for _ in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(ctx.run, fn, item) for ctx, item in zip(contexts, items)
        ]
        return [future.result() for future in futures]


@dataclass(frozen=True)
class ExecutionPlan:
    """Where a run's work executes — the one declaration of placement.

    Placement is invisible to the protocol: one ``(config, seed)`` gives
    one ledger and one set of weights under every plan
    (``TestPlanProduct`` in tests/distributed/test_cross_edge_parallel.py
    checks the cells as a product).  ``ACMEConfig.execution`` holds the plan; the layers that
    fan out (:class:`~repro.distributed.system.ACMESystem`,
    :class:`~repro.distributed.edge.EdgeServer`,
    :class:`~repro.core.nas.HeaderSearch`) receive it and ask it for their
    fan-out.  Frozen and range-checked at construction, so a bad spec is
    named before any work is paid for.
    """

    #: Width of the cluster dimension: each worker runs one edge's whole
    #: phase-2/3/4 pipeline against its own network shard.  Always
    #: thread-backed — edge pipelines mutate the fabric, which lives in
    #: the parent.  ``None``/0/1 = serial; -1/"auto" = host CPU count.
    edge_workers: WorkerSpec = None
    #: Width of the fan-outs inside an edge — local header training
    #: (importance rounds, the finale's fine-tune), per-device eval and
    #: NAS child scoring — and nothing else.  Same spec rules.  A
    #: cluster's batchable devices train in that many stacked groups,
    #: one per worker; serial (the default) is the one-group case.
    device_workers: WorkerSpec = None
    #: Backend of that inner tier: ``"thread"`` overlaps the
    #: GIL-releasing numpy kernels; ``"process"`` forks workers that
    #: train copies of the device headers and return what they changed
    #: (:mod:`repro.distributed.procpool`) so the tape-bound phases
    #: scale past the GIL.
    backend: str = "thread"

    def __post_init__(self) -> None:
        for name, check in (
            ("edge_workers", resolve_workers),
            ("device_workers", resolve_workers),
            ("backend", _check_backend),
        ):
            try:
                check(getattr(self, name))
            except (TypeError, ValueError) as err:
                raise ValueError(f"ExecutionPlan.{name}: {err}") from None

    @property
    def workers_share_heap(self) -> bool:
        """Whether inner-tier workers mutate the parent's arrays directly.

        False for forked workers: what a task writes must be named in
        ``shared_params`` or returned, or it dies with the worker.
        """
        return self.backend != "process"

    def split(self, num_edges: int, budget: Optional[int] = None) -> "ExecutionPlan":
        """This plan resolved for ``num_edges`` clusters on this host.

        Applied once where clusters are built.  Resolving both tiers to
        the CPU count would square the worker count, so when the edge
        tier fans out the inner width is capped at ``budget //
        edge_workers`` (default budget: host CPU count) — the outer
        tier wins because edge pipelines are the longer, coarser tasks.
        Under a serial edge tier thread workers may exceed the budget
        (the GIL-releasing kernels just time-slice), but process workers
        each occupy a core and cost a fork plus a private heap, so their
        width is clamped to the budget even then.  A serial or unset
        inner spec, and any spec that already fits, passes through
        untouched.

        A process inner tier under a fanned-out edge tier downgrades to
        threads, like the nested-fork downgrade inside a pool worker:
        ``fork()`` from one edge thread while a sibling is inside a BLAS
        call deadlocks in the BLAS library's own atfork handler.
        """
        if budget is None:
            budget = os.cpu_count() or 1
        plan = self
        outer = resolve_workers(self.edge_workers, num_tasks=num_edges)
        if outer > 1 and not self.workers_share_heap:
            plan = replace(self, backend="thread")
        inner = resolve_workers(self.device_workers)
        if inner <= 1 or (outer <= 1 and self.workers_share_heap):
            return plan
        capped = min(inner, max(1, budget // outer))
        return plan if capped == inner else replace(plan, device_workers=capped)

    def map_edges(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """:func:`parallel_map` across the cluster dimension."""
        return parallel_map(fn, items, max_workers=self.edge_workers)

    def map_devices(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        shared_params: Optional[Sequence[Sequence[object]]] = None,
    ) -> List[R]:
        """:func:`parallel_map` across the inner tier, on its backend
        (``shared_params``: the tensors each item's task mutates)."""
        return parallel_map(
            fn,
            items,
            max_workers=self.device_workers,
            backend=self.backend,
            shared_params=shared_params,
        )
