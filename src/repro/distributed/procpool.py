"""Process backend for :func:`repro.distributed.executor.parallel_map`.

The thread backend (PR 2) overlaps the GIL-releasing numpy kernels, but
the tape-bound phases — importance rounds, NAS child scoring, header
training — spend most of their time in Python-level autograd
bookkeeping that holds the GIL, so thread fan-outs cap out well below
core count exactly where the protocol spends its time.  This module
runs the same fan-out across **forked worker processes**, preserving
the executor's contract (deterministic input-order results, engine
contextvar propagation, exception transparency) and adding the one
piece a process boundary needs — **a result frame**: each item comes
home as one ``distributed/wire.py`` payload (the compact tagged binary
codec the TCP transport uses, bit-exact for numpy arrays; pickle only
for values the codec does not know) carrying ``(index, result, [(p.data,
p.grad), …])`` — the task's return value plus the final arrays of the
tensors the caller designated as mutated by that item (``shared_params``;
in practice one device group's header parameters, a few KB).  After the
join the parent copies those arrays **into** its own ``p.data`` /
``p.grad``, so parent-side array identity is stable across a fan-out:
live optimizers and outside aliases never see a rebind, and no OS
object exists that a killed worker could strand.

Fork is the consistency point: with the ``"fork"`` start method the
workers inherit the caller's live objects (closures, datasets, modules)
copy-on-write and the calling thread's ``contextvars`` context — no
argument pickling, and engine state (grad mode, dtype, fast-pow)
propagates exactly as the thread backend's per-task context snapshots
do.  Each task still runs inside its own ``copy_context()`` so tasks
cannot observe each other's engine-state mutations.

A worker that dies mid-task (segfault, OOM kill, SIGKILL) surfaces as a
clean :class:`ExecutorError` — never a hang: the parent treats EOF on a
result pipe before the worker's done-marker as a crash, reaps the whole
pool (terminate → kill → join) and writes no parameter — the returned
arrays are applied only once every item is home.  Workers exit through
``os._exit`` so a forked child never runs the parent's atexit machinery.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import traceback
from multiprocessing import connection, get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ExecutorError",
    "fork_available",
    "in_worker",
    "process_map",
]


class ExecutorError(RuntimeError):
    """A worker process died or the pool failed structurally.

    Task-level exceptions re-raise as themselves (matching the thread
    backend); this error is reserved for faults the task could not have
    raised — a SIGKILLed worker, an unpicklable crash, a lost pipe.
    """


#: True inside a pool worker.  ``parallel_map`` consults this to
#: downgrade a nested ``backend="process"`` request to threads — a
#: worker forking its own pool would multiply processes geometrically.
_IN_WORKER = False


def in_worker() -> bool:
    """Whether the current process is a pool worker (nested-fork guard)."""
    return _IN_WORKER


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (POSIX only).

    Without it the inherit-everything design (COW closures, live
    tensors, contextvars) does not hold, so ``parallel_map``
    silently falls back to the thread backend.
    """
    try:
        return "fork" in __import__("multiprocessing").get_all_start_methods()
    except (ImportError, AttributeError):  # pragma: no cover - stripped stdlib
        return False


def _reinit_locks_after_fork() -> None:
    """Replace module-level engine locks that another parent thread may
    have held at fork time.

    The GIL guarantees the guarded structures themselves are consistent
    at any bytecode boundary; only lock *ownership* transfers into the
    child, where the owning thread no longer exists.  Fresh locks make
    the child deadlock-free.

    The replacement set is **derived**, not hand-maintained: every
    module-level engine lock is created through
    :func:`repro.analysis.registry.register_lock`, and
    :func:`~repro.analysis.registry.reinit_locks_after_fork` replays the
    registry — a lock added anywhere in the tree is fork-safe without
    touching this file, and reprolint's CONC rules flag any module-scope
    lock that bypasses the registry.  (Instance locks on network shards,
    transports and serving fronts are registered for lockwatch but not
    re-inited, because worker tasks never reach them — sends happen in
    the parent, in device order.)  Lockwatch itself is disarmed in the
    child: its inherited held-lock snapshots describe parent threads.
    """
    from repro.analysis import registry

    registry.reinit_locks_after_fork()


# ----------------------------------------------------------------------
# Result transport: wire codec first, pickle fallback.
# ----------------------------------------------------------------------
_TAG_WIRE = b"W"
_TAG_PICKLE = b"P"
_TAG_ERROR = b"E"
_TAG_DONE = b"D"


def _encode_result(index: int, result, params: Sequence) -> bytes:
    """Item ``index``'s frame: its result and the arrays of ``params`` now."""
    from repro.distributed import wire

    frame = (index, result, [(p.data, p.grad) for p in params])
    try:
        return _TAG_WIRE + wire.encode_value(frame)
    # reprolint: broad-except -- codec fallback boundary: any wire-codec rejection
    # (unsupported type, nested container, size limit) downgrades to pickle
    except Exception:
        return _TAG_PICKLE + pickle.dumps(frame)


def _encode_error(index: int, exc: BaseException) -> bytes:
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return _TAG_ERROR + pickle.dumps((index, exc, text))
    # reprolint: broad-except -- unpicklable user exceptions must still reach the
    # parent; the traceback text is the fallback payload
    except Exception:
        return _TAG_ERROR + pickle.dumps((index, None, text))


def _decode_payload(data: bytes):
    from repro.distributed import wire

    tag, body = data[:1], data[1:]
    if tag == _TAG_WIRE:
        return "result", wire.decode_value(body)
    if tag == _TAG_PICKLE:
        return "result", pickle.loads(body)
    if tag == _TAG_ERROR:
        return "error", pickle.loads(body)
    if tag == _TAG_DONE:
        return "done", None
    raise ExecutorError(f"unknown process-pool payload tag {tag!r}")


# ----------------------------------------------------------------------
# Worker main loop (runs in the forked child).
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    num_workers: int,
    fn: Callable,
    items: Sequence,
    conn,
    shared_params: Optional[Sequence[Sequence[object]]],
) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    _reinit_locks_after_fork()
    try:
        for index in range(worker_id, len(items), num_workers):
            try:
                # Fresh context copy per task, exactly like the thread
                # backend: the fork already carried the caller's context
                # here, and per-task copies keep tasks isolated.
                result = contextvars.copy_context().run(fn, items[index])
            # reprolint: broad-except -- worker fault transport: every task
            # failure (including KeyboardInterrupt/SystemExit) is shipped to the
            # parent instead of killing the worker mid-batch
            except BaseException as exc:  # noqa: BLE001 - transported to parent
                conn.send_bytes(_encode_error(index, exc))
                continue
            try:
                payload = _encode_result(
                    index, result, shared_params[index] if shared_params else ()
                )
            # reprolint: broad-except -- untransportable-result boundary: if even
            # the pickle fallback rejects the return value, report it as that
            # task's failure instead of silently killing the worker's remaining
            # stride (which surfaced as a misleading "worker died mid-task")
            except Exception as exc:
                conn.send_bytes(
                    _encode_error(
                        index,
                        ExecutorError(
                            f"task {index} returned a result that cannot be "
                            f"shipped to the parent ({type(exc).__name__}: {exc}); "
                            "return arrays/containers the wire codec or pickle "
                            "can encode"
                        ),
                    )
                )
                continue
            conn.send_bytes(payload)
        conn.send_bytes(_TAG_DONE)
    except (OSError, ValueError):  # pragma: no cover - pipe broken/closed: parent gone
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed by the other end
            pass
        # Skip the parent's inherited atexit handlers: the child owns
        # nothing — everything it produced went home in its frames.
        os._exit(0)


def _apply_returned(index: int, params: Sequence, arrays: Sequence) -> None:
    """Copy item ``index``'s returned ``(data, grad)`` arrays into ``params``.

    Into the arrays the parent already holds, so nothing that aliases
    them is rebound; checked before the first write, so an item is
    applied whole or not at all.
    """
    for p, (data, _) in zip(params, arrays):
        if (data.shape, data.dtype) != (p.data.shape, p.data.dtype):
            raise ExecutorError(
                f"task {index}: shared param changed shape/dtype "
                f"{p.data.shape} {p.data.dtype} -> {data.shape} {data.dtype} "
                "inside a process worker"
            )
    for p, (data, grad) in zip(params, arrays):
        np.copyto(p.data, data)
        held = p.grad
        both = held is not None and grad is not None
        if both and (held.shape, held.dtype) == (grad.shape, grad.dtype):
            np.copyto(held, grad)
        else:
            p.grad = grad


def _reap(procs: List) -> None:
    """Terminate → kill → join every worker; never leaves an orphan."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate should suffice
            proc.kill()
            proc.join(timeout=2.0)


# ----------------------------------------------------------------------
def process_map(
    fn: Callable,
    items: Sequence,
    workers: int,
    shared_params: Optional[Sequence[Sequence[object]]] = None,
) -> List:
    """Map ``fn`` over ``items`` across ``workers`` forked processes.

    The executor facade (:func:`repro.distributed.executor.parallel_map`)
    is the public entry point — it handles worker resolution, serial
    fallback, the stochastic-module guard and the nested-fork
    downgrade before delegating here with ``workers >= 2`` and
    ``len(items) >= 2``.

    Items are partitioned statically by stride (worker *w* takes items
    ``w, w + workers, …``), results return in input order, and the
    first task exception (by input index, matching the thread backend's
    submission-order semantics) re-raises in the parent.  A worker that
    dies without its done-marker raises :class:`ExecutorError` after
    the pool is reaped.

    ``shared_params`` (aligned with ``items``) names the tensors each
    item's task mutates.  Nothing is mapped: the worker trains its
    forked copy and the item's result frame carries every named
    tensor's final ``(data, grad)`` home, where they are copied into the
    parent's existing arrays once every item is in — a crash leaves all
    of them untouched, a failed task leaves its own untouched, and a
    tensor whose shape or dtype changed inside a worker is that item's
    :class:`ExecutorError`.
    """
    if shared_params is not None and len(shared_params) != len(items):
        raise ValueError(
            f"shared_params has {len(shared_params)} entries for {len(items)} items"
        )
    # Pre-import everything the child's transport path needs, so a fork
    # taken while another thread holds the import lock cannot deadlock.
    from repro.distributed import wire  # noqa: F401
    from repro.nn import init, layers, optim  # noqa: F401

    ctx = get_context("fork")
    n = len(items)
    workers = min(workers, n)

    results: List = [None] * n
    returned: List = [()] * n
    received = [False] * n
    errors: Dict[int, Tuple[Optional[BaseException], str]] = {}
    procs: List = []
    conns: List = []
    try:
        for w in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(w, workers, fn, items, child_conn, shared_params),
                daemon=True,
            )
            proc.start()
            # Close the parent's copy of the write end: EOF on the read
            # end then means "the worker is gone", which is what turns a
            # SIGKILLed worker into ExecutorError instead of a hang.
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)

        live = {conns[w]: w for w in range(workers)}
        while live:
            ready = connection.wait(list(live), timeout=1.0)
            if not ready:
                for conn, w in list(live.items()):
                    if not procs[w].is_alive():
                        _reap(procs)
                        raise ExecutorError(
                            f"process-pool worker {w} died without a result "
                            f"(exitcode {procs[w].exitcode})"
                        )
                continue
            for conn in ready:
                w = live[conn]
                try:
                    data = conn.recv_bytes()
                except EOFError:
                    _reap(procs)
                    raise ExecutorError(
                        f"process-pool worker {w} died mid-task "
                        f"(exitcode {procs[w].exitcode})"
                    ) from None
                kind, payload = _decode_payload(data)
                if kind == "done":
                    del live[conn]
                    conn.close()
                elif kind == "error":
                    index, exc, text = payload
                    errors[index] = (exc, text)
                    received[index] = True
                else:
                    index, value, arrays = payload
                    results[index], returned[index] = value, arrays
                    received[index] = True

        for proc in procs:
            proc.join(timeout=10.0)
        if any(proc.is_alive() for proc in procs):  # pragma: no cover
            _reap(procs)
            raise ExecutorError("process-pool worker failed to exit after done-marker")
        if not all(received):
            missing = [i for i, r in enumerate(received) if not r]
            raise ExecutorError(f"process pool lost results for items {missing}")
        for index, arrays in enumerate(returned):
            if arrays:
                try:
                    _apply_returned(index, shared_params[index], arrays)
                except ExecutorError as err:
                    errors[index] = (err, "")
        if errors:
            index = min(errors)
            exc, text = errors[index]
            if exc is not None:
                raise exc
            raise ExecutorError(
                f"task {index} raised an untransportable exception:\n{text}"
            )
        return results
    finally:
        _reap(procs)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed by the worker
                pass
