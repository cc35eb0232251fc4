"""Suite-wide fixtures: deterministic engine state and a hang guard.

The autouse engine fixture makes each test start from the same engine
state (fallback-init stream at seed 0, the float32 engine default,
grad on, cold caches),
so the suite is order-independent: tests that build unseeded modules
draw from a freshly reset stream instead of inheriting whatever
position the previous test left it at.  This is what keeps the suite
safe under random test ordering without requiring ``-p no:randomly``.

The autouse timeout guard bounds every test with a SIGALRM timer
(``pytest-timeout`` is not a dependency of this repo).  The transport
layer's tests exercise sockets, heartbeats and child processes — the
guard turns any regression that would hang (a lost wakeup, an unreaped
child, a blocked read) into a clean failure naming the test.  Override
the 600 s default with ``REPRO_TEST_TIMEOUT`` (seconds; ``0`` disables).

With ``REPRO_LOCKWATCH=1`` the lock-order watchdog
(:mod:`repro.analysis.lockwatch`) is armed for the heaviest concurrency
modules: every registered engine lock is proxied, per-thread acquisition
order is recorded, and an inconsistent lock ordering raises
:class:`~repro.analysis.lockwatch.LockOrderError` naming both sites
instead of deadlocking in CI.  Disarmed (the default), registered locks
are plain ``threading.Lock`` objects — zero overhead.
"""

import os
import signal
import threading

import pytest

from tests.helpers import reset_engine_state

#: Modules whose tests overlap engine locks across threads (cross-edge
#: parallel phases, the executor, the TCP transport and its supervisor).
_LOCKWATCH_MODULES = (
    "test_cross_edge_parallel",
    "test_executor",
    "test_transport",
    "test_transport_chaos",
    "test_transport_kill",
    "test_parallel_system",
)


@pytest.fixture(autouse=True)
def _deterministic_engine_state():
    reset_engine_state()
    yield


@pytest.fixture(autouse=True)
def _lockwatch_guard(request):
    if os.environ.get("REPRO_LOCKWATCH") != "1" or not any(
        request.node.nodeid.startswith(f"tests/distributed/{mod}.py")
        for mod in _LOCKWATCH_MODULES
    ):
        yield
        return
    from repro.analysis import lockwatch

    with lockwatch.watching():
        yield


def _timeout_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT", "600"))
    except ValueError:
        return 600.0


@pytest.fixture(autouse=True)
def _test_timeout_guard(request):
    seconds = _timeout_seconds()
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds:g}s suite timeout guard "
            f"({request.node.nodeid}); likely a hang — see tests/conftest.py"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
