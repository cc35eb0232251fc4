"""The runtime lock-order detector.

The contract under test: disarmed costs nothing (plain locks, no proxy),
armed records per-thread nesting of every registered lock and raises
:class:`LockOrderError` naming both acquisition sites *instead of*
performing the acquire that would complete a deadlock cycle.
"""

import threading

import pytest

from repro.analysis import lockwatch, registry
from repro.analysis.lockwatch import LockOrderError


@pytest.fixture(autouse=True)
def _disarmed_before_and_after():
    lockwatch.disarm()
    yield
    lockwatch.disarm()


def _locked_pair(prefix):
    a = registry.register_lock(f"{prefix}.a")
    b = registry.register_lock(f"{prefix}.b")
    return a, b


def test_disarmed_registration_returns_plain_lock():
    lock = registry.register_lock("test.lockwatch.plain")
    assert type(lock) is type(threading.Lock())


def test_armed_registration_returns_watched_proxy():
    with lockwatch.watching():
        lock = registry.register_lock("test.lockwatch.proxy")
        assert type(lock) is not type(threading.Lock())
        with lock:
            assert lock.locked()


def test_inversion_raises_naming_both_sites():
    """A -> B established, then B -> A attempted: LockOrderError, not deadlock."""
    with lockwatch.watching():
        a, b = _locked_pair("test.lockwatch.inv")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError) as exc_info:
            with b:
                with a:
                    pass
        message = str(exc_info.value)
        assert "test.lockwatch.inv.a" in message
        assert "test.lockwatch.inv.b" in message
        # Both acquisition sites are named (this file, with line numbers).
        assert message.count("test_lockwatch.py:") >= 2


def test_inversion_across_threads():
    """The order graph is process-global: thread 1 establishes A->B,
    thread 2's B->A attempt raises in thread 2."""
    with lockwatch.watching():
        a, b = _locked_pair("test.lockwatch.xthread")

        def establish():
            with a:
                with b:
                    pass

        t = threading.Thread(target=establish)
        t.start()
        t.join()

        errors = []

        def invert():
            try:
                with b:
                    with a:
                        pass
            except LockOrderError as exc:
                errors.append(exc)

        t2 = threading.Thread(target=invert)
        t2.start()
        t2.join()
        assert len(errors) == 1


def test_transitive_cycle_detected():
    """A->B, B->C, then C->A closes a 3-cycle through the graph."""
    with lockwatch.watching():
        a = registry.register_lock("test.lockwatch.tri.a")
        b = registry.register_lock("test.lockwatch.tri.b")
        c = registry.register_lock("test.lockwatch.tri.c")
        with a, b:
            pass
        with b, c:
            pass
        with pytest.raises(LockOrderError):
            with c, a:
                pass


def test_self_deadlock_on_plain_lock():
    with lockwatch.watching():
        a = registry.register_lock("test.lockwatch.self")
        with a:
            with pytest.raises(LockOrderError, match="self-deadlock"):
                a.acquire()


def test_rlock_reentry_allowed():
    with lockwatch.watching():
        r = registry.register_lock(
            "test.lockwatch.rlock", factory=threading.RLock
        )
        with r:
            with r:
                pass
        # Still released cleanly: a fresh acquire from scratch works.
        with r:
            pass


def test_consistent_order_never_raises():
    with lockwatch.watching():
        a, b = _locked_pair("test.lockwatch.ok")
        for _ in range(3):
            with a:
                with b:
                    pass


def test_arm_swaps_registered_module_locks_and_disarm_restores():
    import repro.distributed.messages as messages

    plain_type = type(threading.Lock())
    assert type(messages._SEQUENCE_LOCK) is plain_type
    lockwatch.arm()
    try:
        assert type(messages._SEQUENCE_LOCK) is not plain_type
        assert messages._SEQUENCE_LOCK.name == "messages.sequence"
        # The watched engine lock still works.
        assert messages._next_sequence() < messages._next_sequence()
    finally:
        lockwatch.disarm()
    assert type(messages._SEQUENCE_LOCK) is plain_type


def test_engine_lock_inversion_is_caught():
    """Seeded inversion over two real registered engine locks."""
    import repro.core.similarity as similarity
    import repro.distributed.messages as messages

    with lockwatch.watching():
        with messages._SEQUENCE_LOCK:
            with similarity._PROJECTION_CACHE_LOCK:
                pass
        with pytest.raises(LockOrderError) as exc_info:
            with similarity._PROJECTION_CACHE_LOCK:
                with messages._SEQUENCE_LOCK:
                    pass
        message = str(exc_info.value)
        assert "messages.sequence" in message
        assert "similarity.projection-cache" in message


def test_disarm_clears_the_order_graph():
    with lockwatch.watching():
        a, b = _locked_pair("test.lockwatch.clear")
        with a, b:
            pass
    # New session: the old A->B edge must not leak in.
    with lockwatch.watching():
        with b, a:
            pass


def test_reset_after_fork_disarms():
    lockwatch.arm()
    lockwatch.reset_after_fork()
    lock = registry.register_lock("test.lockwatch.postfork")
    assert type(lock) is type(threading.Lock())


def test_armed_parallel_engine_smoke():
    """A real threaded engine workload runs clean under the watcher.

    ``sliced_wasserstein`` hits the projection cache (and its registered
    lock) from every thread; message construction hits the sequence
    lock.  A clean pass here is what the armed tier-1 modules assert at
    scale.
    """
    import numpy as np

    from repro.core.similarity import clear_projection_cache, sliced_wasserstein
    from repro.distributed.messages import Message, MessageKind

    with lockwatch.watching():
        clear_projection_cache()
        rng = np.random.default_rng(7)
        clouds = rng.normal(size=(8, 32, 16))
        results = []

        def work(i):
            d = sliced_wasserstein(clouds[i], clouds[(i + 1) % 8], num_projections=8)
            Message(sender=f"t{i}", receiver="edge", kind=MessageKind.ACK)
            results.append(d)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
