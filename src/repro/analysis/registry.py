"""Single source of truth for the engine's lock inventory.

Every engine lock is created through :func:`register_lock`, which

* records module-level locks (``module=__name__, attr="_MY_LOCK"``) in
  a registry that :func:`reinit_locks_after_fork` replays — the TCP
  supervisor's forked cloud and edge workers
  (:mod:`repro.distributed.supervisor`) call it first thing, so a lock
  added anywhere in the tree is fork-safe without a hand-kept list;
* hands every lock (module-level *and* per-instance) to
  :mod:`repro.analysis.lockwatch` so the armed lock-order detector sees
  it — disarmed, the returned object is a plain ``threading.Lock`` with
  zero overhead;
* gives the static linter a machine-checkable contract: reprolint's
  CONC rules flag any module-scope ``threading.Lock()`` that bypasses
  the registry and cross-check each ``register_lock`` call against the
  live registry by importing the module (see ``ANALYSIS.md``).

:func:`hotpath` is the companion marker for reprolint's ALLOC rule: a
zero-cost decorator that designates a function as a fused hot path, in
which bare binary-operator temporaries (``x = a + b``) are lint errors
— the fused optimizer sweeps must stay allocation-free.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Dict, TypeVar

__all__ = [
    "LockRecord",
    "hotpath",
    "instance_lock_names",
    "lock_records",
    "register_lock",
    "reinit_locks_after_fork",
]

F = TypeVar("F", bound=Callable)


class LockRecord:
    """One registered module-level lock: where it lives and how to remake it."""

    __slots__ = ("name", "module", "attr", "factory")

    def __init__(self, name: str, module: str, attr: str, factory: Callable) -> None:
        self.name = name
        self.module = module
        self.attr = attr
        self.factory = factory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockRecord({self.name!r}, {self.module}.{self.attr})"


# Registered module-level locks by name.  Only mutated under
# _RECORDS_LOCK; read without it by fork re-init (single-threaded child)
# and lockwatch arming (which snapshots under its own guard).
# reprolint: guarded -- insertions serialized by _RECORDS_LOCK; post-fork reads are single-threaded
_RECORDS: Dict[str, LockRecord] = {}
#: Names seen for instance-scope registrations (diagnostics only).
# reprolint: guarded -- insertions serialized by _RECORDS_LOCK; read-only snapshots via instance_lock_names()
_INSTANCE_NAMES: Dict[str, int] = {}
# The registry's own guard cannot be created through itself; it is
# explicitly re-inited first thing in reinit_locks_after_fork().
# reprolint: unregistered-lock -- the registry bootstrap lock; re-inited by hand at the top of reinit_locks_after_fork
_RECORDS_LOCK = threading.Lock()


def register_lock(
    name: str,
    *,
    module: str = "",
    attr: str = "",
    factory: Callable = threading.Lock,
):
    """Create an engine lock and register it with the correctness tooling.

    Module-level locks pass ``module=__name__, attr="<GLOBAL NAME>"``:
    the (module, attr) pair is recorded so :func:`reinit_locks_after_fork`
    can rebind a fresh lock over the global after a fork, and so
    lockwatch can swap an order-recording proxy in while armed.  The
    *attr* must be the exact global the module binds the return value
    to — reprolint cross-checks the pair against the live registry.

    Instance locks (no ``module``/``attr``) skip fork re-init — a
    forked worker builds its own fabric and nodes, so it never reaches
    an instance the parent made — but are still wrapped by lockwatch
    while it is armed, under the given *name* (instances of one site
    share the name; lockwatch tracks object identity separately).

    Returns the lock: a plain ``factory()`` product when lockwatch is
    disarmed, a watched proxy when armed.
    """
    if bool(module) != bool(attr):
        raise ValueError("module and attr must be given together")
    lock = factory()
    with _RECORDS_LOCK:
        if module:
            existing = _RECORDS.get(name)
            if existing is not None and (existing.module, existing.attr) != (
                module,
                attr,
            ):
                raise ValueError(
                    f"lock name {name!r} already registered for "
                    f"{existing.module}.{existing.attr}; pick a unique name"
                )
            _RECORDS[name] = LockRecord(name, module, attr, factory)
        else:
            _INSTANCE_NAMES[name] = _INSTANCE_NAMES.get(name, 0) + 1
    from repro.analysis import lockwatch

    return lockwatch.wrap_if_armed(lock, name)


def lock_records() -> Dict[str, LockRecord]:
    """Snapshot of the module-level lock registry (name -> record)."""
    with _RECORDS_LOCK:
        return dict(_RECORDS)


# reprolint: unreached -- safety handle: test_registry reads it to prove instance-scope
# register_lock calls are accounted under the names lockwatch reports
def instance_lock_names() -> Dict[str, int]:
    """Names registered at instance scope and how often (diagnostics)."""
    with _RECORDS_LOCK:
        return dict(_INSTANCE_NAMES)


def reinit_locks_after_fork() -> None:
    """Rebind a fresh lock over every registered module-level lock.

    Called in a freshly forked child (single-threaded): another parent
    thread may have held any engine lock at fork time, and the owner no
    longer exists in the child, so every registered lock is replaced
    wholesale.  Lockwatch is reset first — the child runs unwatched (its
    held-stack/graph snapshots describe parent threads that do not
    exist here), and resetting also drops any watched proxies by
    rebinding plain locks over them.
    """
    global _RECORDS_LOCK
    _RECORDS_LOCK = threading.Lock()
    from repro.analysis import lockwatch

    lockwatch.reset_after_fork()
    for record in _RECORDS.values():
        mod = sys.modules.get(record.module)
        if mod is not None:
            setattr(mod, record.attr, record.factory())


def hotpath(fn: F) -> F:
    """Mark *fn* as a fused hot path for reprolint's ALLOC rule.

    Identity decorator — zero runtime cost.  Inside a marked function
    the linter flags bare binary-operator assignments (``x = a + b``
    allocates a temporary every step); use ``out=`` ufunc forms or
    augmented in-place updates instead.
    """
    return fn
