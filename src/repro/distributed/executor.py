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

Threads overlap the GIL-releasing numpy kernels (BLAS matmuls, ufuncs,
sorts) and produce bit-for-bit the results of the serial loop; on a
single-core host they degrade to roughly serial wall-clock with
identical results.

:func:`parallel_map` is the single primitive.  *Which* widths a
system run uses is declared once, on an :class:`ExecutionPlan`
(cross-edge width, inner per-device / NAS-child width): the config
holds one, its worker budget is split once where clusters are built,
and every layer that fans out is handed the plan and calls
``plan.map_edges`` / ``plan.map_devices`` instead of re-declaring the
knobs.  The inner width
is also how many stacked graphs an edge splits a cluster's header
training into (:meth:`repro.distributed.edge.EdgeServer._local_groups`).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, TypeVar, Union

from repro.checks import check_count

T = TypeVar("T")
R = TypeVar("R")

WorkerSpec = Union[int, str, None]


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
) -> List[R]:
    """Apply ``fn`` to every item, possibly across threads.

    Results are returned in input order regardless of completion order.
    Each task runs inside a copy of the caller's ``contextvars`` context,
    so engine settings scoped at the call site (``using_dtype``,
    ``no_grad``) apply to the workers.  The first raised exception, by
    input index, propagates to the caller as itself.
    """
    items = list(items)
    workers = resolve_workers(max_workers, num_tasks=len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
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

    def __post_init__(self) -> None:
        for name in ("edge_workers", "device_workers"):
            try:
                resolve_workers(getattr(self, name))
            except (TypeError, ValueError) as err:
                raise ValueError(f"ExecutionPlan.{name}: {err}") from None

    def split(self, num_edges: int, budget: Optional[int] = None) -> "ExecutionPlan":
        """This plan resolved for ``num_edges`` clusters on this host.

        Applied once where clusters are built.  Resolving both tiers to
        the CPU count would square the worker count, so when the edge
        tier fans out the inner width is capped at ``budget //
        edge_workers`` (default budget: host CPU count) — the outer
        tier wins because edge pipelines are the longer, coarser tasks.
        Under a serial edge tier the inner width passes through (the
        GIL-releasing kernels just time-slice), as does a serial or
        unset inner spec and any spec that already fits.
        """
        if budget is None:
            budget = os.cpu_count() or 1
        outer = resolve_workers(self.edge_workers, num_tasks=num_edges)
        inner = resolve_workers(self.device_workers)
        if inner <= 1 or outer <= 1:
            return self
        capped = min(inner, max(1, budget // outer))
        return self if capped == inner else replace(self, device_workers=capped)

    def map_edges(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """:func:`parallel_map` across the cluster dimension."""
        return parallel_map(fn, items, max_workers=self.edge_workers)

    def map_devices(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """:func:`parallel_map` across the inner tier."""
        return parallel_map(fn, items, max_workers=self.device_workers)
