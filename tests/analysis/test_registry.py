"""The lock registry: registration contract and fork re-init derivation.

The registry is the single source of truth the TCP supervisor's forked
workers replay (``supervisor._cloud_worker`` / ``_edge_worker`` call
:func:`reinit_locks_after_fork` first) and the set lockwatch arms over.  These tests pin that the engine's four
module-level locks are all registered, that re-init actually produces
fresh lock objects bound to the registered globals, and that the
registration API rejects ambiguous input.
"""

import threading

import pytest

from repro.analysis import registry
from repro.analysis.registry import hotpath, register_lock


ENGINE_MODULE_LOCKS = {
    "messages.sequence": ("repro.distributed.messages", "_SEQUENCE_LOCK"),
    "nn.init.state": ("repro.nn.init", "_STATE_LOCK"),
    "optim.live-registry": ("repro.nn.optim", "_REGISTRY_LOCK"),
    "similarity.projection-cache": ("repro.core.similarity", "_PROJECTION_CACHE_LOCK"),
}


def test_engine_module_locks_are_registered():
    import repro.core.similarity  # noqa: F401
    import repro.distributed.messages  # noqa: F401
    import repro.nn.init  # noqa: F401
    import repro.nn.optim  # noqa: F401

    records = registry.lock_records()
    for name, (module, attr) in ENGINE_MODULE_LOCKS.items():
        assert name in records, f"engine lock {name!r} missing from the registry"
        assert (records[name].module, records[name].attr) == (module, attr)


def test_instance_locks_register_by_name():
    before = registry.instance_lock_names().get("network.ledger", 0)
    from repro.distributed.network import Network

    Network()
    after = registry.instance_lock_names().get("network.ledger", 0)
    assert after == before + 1


def test_register_lock_returns_usable_lock():
    lock = register_lock("test.registry.plain")
    assert isinstance(lock, type(threading.Lock()))
    with lock:
        assert lock.locked()
    assert not lock.locked()


def test_module_and_attr_must_come_together():
    with pytest.raises(ValueError):
        register_lock("test.registry.half", module=__name__)
    with pytest.raises(ValueError):
        register_lock("test.registry.half2", attr="_X")


def test_duplicate_name_different_site_rejected():
    register_lock("test.registry.dup", module=__name__, attr="_DUP_A")
    with pytest.raises(ValueError):
        register_lock("test.registry.dup", module=__name__, attr="_DUP_B")
    # Same (module, attr) re-registration is fine (module reload).
    register_lock("test.registry.dup", module=__name__, attr="_DUP_A")


def test_reinit_replaces_registered_module_locks():
    """Fork re-init rebinds a *fresh* lock over every registered global."""
    import repro.distributed.messages as messages

    old = messages._SEQUENCE_LOCK
    old.acquire()  # simulate "some parent thread held it at fork time"
    try:
        registry.reinit_locks_after_fork()
        assert messages._SEQUENCE_LOCK is not old
        assert not messages._SEQUENCE_LOCK.locked()
        # The re-made lock is immediately usable.
        assert messages._next_sequence() < messages._next_sequence()
    finally:
        old.release()


@pytest.mark.parametrize("worker", ["_cloud_worker", "_edge_worker"])
def test_supervisor_workers_replay_the_registry(monkeypatch, worker):
    """Each forked supervisor worker re-inits the registered locks before
    it does any work (the registry's one caller)."""
    from repro.distributed import supervisor

    calls = []

    def first_work(config):
        calls.append("work")
        raise RuntimeError("stop here")

    class Pipe:
        def send(self, report):
            calls.append(report[0])

        def close(self):
            pass

    monkeypatch.setattr(
        registry, "reinit_locks_after_fork", lambda: calls.append("reinit")
    )
    monkeypatch.setattr(supervisor, "dtype_scope", first_work)
    if worker == "_cloud_worker":
        supervisor._cloud_worker(None, None, Pipe())
    else:
        supervisor._edge_worker(None, None, 0, Pipe(), None)
    assert calls == ["reinit", "work", "error"]


def test_hotpath_is_identity():
    def fn(x):
        return x + 1

    assert hotpath(fn) is fn
    assert hotpath(fn)(1) == 2
