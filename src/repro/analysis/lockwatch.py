"""Runtime lock-order / deadlock detector for registered engine locks.

The engine's concurrency contract is that locks nest in one global
order — cross-edge × per-device fan-outs (an ``ExecutionPlan``'s two
tiers) mean any two locks acquired nested in opposite orders by two
threads will eventually deadlock a real run.  This module makes that contract
checkable: while **armed**, every lock created through
:func:`repro.analysis.registry.register_lock` is wrapped in a
:class:`_WatchedLock` proxy that

* keeps a per-thread stack of held locks with their acquisition sites
  (``file:line`` of the caller),
* records every observed nesting ``A -> B`` ("B acquired while A
  held") into a process-global order graph, and
* raises :class:`LockOrderError` **before** acquiring — naming both
  acquisition sites — whenever the new nesting would close a cycle
  (``B ⇝ A`` already established), or when a thread re-acquires a
  non-reentrant lock it already holds (guaranteed self-deadlock).

Checking happens *before* the blocking acquire, so a test provoking a
real inversion gets a clean exception instead of a hung suite.

Disarmed (the default) the cost is exactly zero: ``register_lock``
returns plain ``threading.Lock`` objects and no proxy exists anywhere.
Arm per-process with :func:`arm`/:func:`disarm`, or scoped with
``with lockwatch.watching(): ...`` — the tier-1 concurrency test
modules arm themselves this way when ``REPRO_LOCKWATCH=1`` (see
``tests/conftest.py`` and ``ANALYSIS.md``).  Arming retroactively
swaps watched proxies over every *registered module-level* lock and
restores them on disarm; instance locks are wrapped at creation while
armed and go quiet (delegate-only) after disarm.

Two deliberate scope cuts, documented here because they bound what a
clean armed run proves: edges are keyed by lock *name*, so two
same-named instance locks (e.g. two fabrics' ledger locks) never form
a self-edge ``name -> name`` — cross-instance ABBA inversions within
one lock family are not modeled; and the supervisor's forked workers
always run unwatched (:func:`reset_after_fork`), since their inherited
held-stack snapshots describe parent threads that do not exist in the
child.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LockOrderError",
    "arm",
    "disarm",
    "reset_after_fork",
    "watching",
    "wrap_if_armed",
]


class LockOrderError(RuntimeError):
    """Two registered locks were nested in conflicting orders.

    Raised *instead of* performing the acquire that would establish the
    cycle, naming the acquisition sites on both sides.
    """


_PLAIN_LOCK_TYPE = type(threading.Lock())

_ARMED = False
# Observed nesting edges: held-name -> {acquired-name: (held_site, acquired_site)}.
# reprolint: guarded -- mutated only under _WATCH_LOCK
_EDGES: Dict[str, Dict[str, Tuple[str, str]]] = {}
# Module-level locks swapped to proxies by arm(): name -> (module, attr).
# reprolint: guarded -- mutated only under _WATCH_LOCK
_SWAPPED: Dict[str, Tuple[str, str]] = {}
# The watcher's own guard (graph + arm/disarm bookkeeping).  It cannot
# watch itself, and it is never held across an engine-lock acquire, so
# it cannot participate in an engine lock cycle.
# reprolint: unregistered-lock -- the watcher's own guard; deliberately outside the registry it instruments
_WATCH_LOCK = threading.Lock()
_HELD = threading.local()


def _held_stack() -> List[Tuple[int, str, str]]:
    """This thread's stack of (lock id, name, site) for held watched locks."""
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


def _call_site() -> str:
    """``file:line`` of the nearest caller outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter internals
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _find_path(src: str, dst: str) -> Optional[List[str]]:
    """A directed path src ⇝ dst in the order graph, or None.

    Caller holds ``_WATCH_LOCK``.
    """
    stack = [(src, [src])]
    seen = {src}
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        for nxt in _EDGES.get(node, {}):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


def _describe_chain(path: List[str]) -> str:
    """Render an established path with the site pair of each recorded hop."""
    hops = []
    for a, b in zip(path, path[1:]):
        held_site, acq_site = _EDGES[a][b]
        hops.append(f"{a!r} (held at {held_site}) -> {b!r} (acquired at {acq_site})")
    return "; ".join(hops)


def _check_acquire(inner, name: str) -> Optional[Tuple[int, str, str]]:
    """Pre-acquire bookkeeping: cycle/self-deadlock check, edge recording.

    Returns the held-stack entry to push once the acquire succeeds, or
    ``None`` when nothing should be pushed (reentrant RLock re-entry is
    still pushed for release symmetry; disarmed calls never get here).
    """
    stack = _held_stack()
    site = _call_site()
    key = id(inner)
    for held_key, held_name, held_site in stack:
        if held_key == key:
            if isinstance(inner, _PLAIN_LOCK_TYPE):
                raise LockOrderError(
                    f"self-deadlock: non-reentrant lock {name!r} acquired at "
                    f"{site} is already held by this thread (acquired at "
                    f"{held_site})"
                )
            # Reentrant re-entry: no new ordering information.
            return (key, name, site)
    entry = (key, name, site)
    if not stack:
        return entry
    with _WATCH_LOCK:
        for _, held_name, held_site in stack:
            if held_name == name:
                # Same lock family (another instance): skip self-edges —
                # see the module docstring's scope note.
                continue
            known = _EDGES.get(held_name, {}).get(name)
            if known is not None:
                continue
            reverse = _find_path(name, held_name)
            if reverse is not None:
                raise LockOrderError(
                    f"lock-order inversion: acquiring {name!r} at {site} "
                    f"while holding {held_name!r} (acquired at {held_site}) "
                    f"conflicts with the established order "
                    f"{_describe_chain(reverse)}"
                )
            _EDGES.setdefault(held_name, {})[name] = (held_site, site)
    return entry


class _WatchedLock:
    """Order-recording proxy around a real lock.

    Supports the ``threading.Lock``/``RLock`` surface the engine uses:
    context manager, ``acquire(blocking, timeout)``, ``release``,
    ``locked``.  After a global :func:`disarm`, lingering proxies (on
    live instances) delegate without recording.
    """

    __slots__ = ("_inner", "name")

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        entry = _check_acquire(self._inner, self.name) if _ARMED else None
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and entry is not None:
            _held_stack().append(entry)
        return acquired

    def release(self) -> None:
        self._inner.release()
        stack = getattr(_HELD, "stack", None)
        if stack:
            key = id(self._inner)
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == key:
                    del stack[i]
                    break

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_WatchedLock({self.name!r}, {self._inner!r})"


def wrap_if_armed(lock, name: str):
    """Registry hook: wrap a newly created lock while the watcher is armed."""
    if _ARMED:
        return _WatchedLock(lock, name)
    return lock


def arm() -> None:
    """Arm the detector and swap proxies over registered module locks.

    Idempotent.  Locks registered *after* arming are wrapped at
    creation by :func:`wrap_if_armed`.
    """
    global _ARMED
    from repro.analysis import registry

    records = registry.lock_records()
    with _WATCH_LOCK:
        if _ARMED:
            return
        for record in records.values():
            mod = sys.modules.get(record.module)
            if mod is None:
                continue
            current = getattr(mod, record.attr, None)
            if current is None or isinstance(current, _WatchedLock):
                continue
            setattr(mod, record.attr, _WatchedLock(current, record.name))
            _SWAPPED[record.name] = (record.module, record.attr)
        _ARMED = True


def disarm() -> None:
    """Disarm, restore swapped module locks, and drop the order graph."""
    global _ARMED
    with _WATCH_LOCK:
        _ARMED = False
        for module, attr in _SWAPPED.values():
            mod = sys.modules.get(module)
            if mod is None:
                continue
            current = getattr(mod, attr, None)
            if isinstance(current, _WatchedLock):
                setattr(mod, attr, current._inner)
        _SWAPPED.clear()
        _EDGES.clear()


@contextmanager
def watching():
    """Scoped arming: ``with lockwatch.watching(): ...``."""
    arm()
    try:
        yield
    finally:
        disarm()


def reset_after_fork() -> None:
    """Child-side reset: disarm and forget parent-thread state.

    Called from ``registry.reinit_locks_after_fork`` in a freshly
    forked, single-threaded child.  The inherited order graph and the
    forking thread's held-stack snapshot describe parent threads that
    do not exist here; the child runs unwatched.
    """
    global _ARMED, _WATCH_LOCK, _HELD
    _ARMED = False
    _WATCH_LOCK = threading.Lock()
    _HELD = threading.local()
    _EDGES.clear()
    _SWAPPED.clear()
