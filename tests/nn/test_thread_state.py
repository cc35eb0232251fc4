"""Per-thread isolation of the engine's context-local state.

The grad-mode and default-dtype switches moved from module globals to
``contextvars`` so that the thread-parallel device loops cannot corrupt
each other: one thread's ``no_grad()`` must never drop another thread's
tape, and one thread's ``using_dtype`` must never flip another thread's
precision.  These tests drive competing threads through explicit
rendezvous points (events/barriers) so the interleavings they assert
about actually happen.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.distributed.executor import parallel_map, resolve_workers
from repro.nn.tensor import (
    Tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
    using_dtype,
)


class TestGradModeIsolation:
    def test_no_grad_in_one_thread_keeps_other_threads_taping(self):
        """Thread B records a tape while thread A sits inside no_grad()."""
        a_inside = threading.Event()
        b_done = threading.Event()
        observed = {}

        def thread_a():
            with no_grad():
                a_inside.set()
                # Hold the no_grad region open until B finishes its backward.
                assert b_done.wait(timeout=10)
                observed["a_grad_mode"] = is_grad_enabled()

        def thread_b():
            assert a_inside.wait(timeout=10)
            observed["b_grad_mode"] = is_grad_enabled()
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            loss = (x * 3.0).sum()
            loss.backward()
            observed["b_grad"] = x.grad
            b_done.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert observed["a_grad_mode"] is False
        assert observed["b_grad_mode"] is True
        np.testing.assert_array_equal(observed["b_grad"], np.full((2, 2), 3.0))

    def test_main_thread_unaffected_by_worker_toggle(self):
        toggled = threading.Event()
        release = threading.Event()

        def worker():
            set_grad_enabled(False)
            toggled.set()
            assert release.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        assert toggled.wait(timeout=10)
        assert is_grad_enabled() is True  # worker's toggle is invisible here
        release.set()
        t.join(timeout=10)

    def test_competing_no_grad_regions_many_threads(self):
        """N threads flip grad mode at a barrier; each sees only its own."""
        n = 4
        barrier = threading.Barrier(n)
        results = [None] * n

        def worker(i):
            if i % 2 == 0:
                with no_grad():
                    barrier.wait(timeout=10)
                    results[i] = is_grad_enabled()
            else:
                barrier.wait(timeout=10)
                results[i] = is_grad_enabled()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert results == [False, True, False, True]


class TestDtypeIsolation:
    def test_using_dtype_is_thread_local(self):
        a_inside = threading.Event()
        b_checked = threading.Event()
        observed = {}

        def thread_a():
            with using_dtype("float64"):
                a_inside.set()
                assert b_checked.wait(timeout=10)
                observed["a_dtype"] = Tensor([1.0]).dtype

        def thread_b():
            assert a_inside.wait(timeout=10)
            observed["b_dtype"] = Tensor([1.0]).dtype
            b_checked.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert observed["a_dtype"] == np.float64
        assert observed["b_dtype"] == np.float32

    def test_new_threads_start_from_engine_defaults(self):
        observed = {}

        def worker():
            observed["grad"] = is_grad_enabled()
            observed["dtype"] = get_default_dtype()

        with no_grad(), using_dtype("float64"):
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
        assert observed["grad"] is True
        assert observed["dtype"] is np.float32

    def test_nested_scopes_restore_in_one_thread(self):
        assert get_default_dtype() is np.float32
        with using_dtype("float64"):
            assert get_default_dtype() is np.float64
            with using_dtype("float32"):
                assert get_default_dtype() is np.float32
            assert get_default_dtype() is np.float64
        assert get_default_dtype() is np.float32


class TestExecutor:
    def test_results_keep_input_order(self):
        items = list(range(16))
        out = parallel_map(lambda i: i * i, items, max_workers=4)
        assert out == [i * i for i in items]

    def test_serial_fallback_runs_in_calling_thread(self):
        caller = threading.get_ident()
        for workers in (None, 0, 1):
            out = parallel_map(lambda _: threading.get_ident(), [1, 2], max_workers=workers)
            assert out == [caller, caller]

    def test_workers_inherit_callers_engine_context(self):
        with no_grad(), using_dtype("float64"):
            out = parallel_map(
                lambda _: (is_grad_enabled(), get_default_dtype()),
                range(4),
                max_workers=4,
            )
        assert out == [(False, np.float64)] * 4
        # ... and the workers' context copies never leak back out.
        assert is_grad_enabled() is True
        assert get_default_dtype() is np.float32

    def test_worker_state_mutations_do_not_cross_tasks(self):
        """A task that flips grad mode must not poison later tasks."""

        def task(i):
            if i == 0:
                set_grad_enabled(False)
                return is_grad_enabled()
            return is_grad_enabled()

        # Single worker: every task runs on the same pool thread, so any
        # leak would show up in the tasks that follow task 0.
        out = parallel_map(task, range(4), max_workers=2)
        assert out == [False, True, True, True]

    def test_tasks_actually_run_concurrently(self):
        """All 4 tasks must be in flight at once — guards against a
        regression that silently serializes the pool (the perf floors
        replayed from BENCH_perf.json cannot catch that on a single-core
        CI host, so this barrier can only be crossed by real fan-out)."""
        barrier = threading.Barrier(4)

        def task(i):
            barrier.wait(timeout=10)
            return i

        assert parallel_map(task, range(4), max_workers=4) == [0, 1, 2, 3]

    def test_exceptions_propagate(self):
        def boom(i):
            if i == 2:
                raise ValueError("task failed")
            return i

        with pytest.raises(ValueError, match="task failed"):
            parallel_map(boom, range(4), max_workers=2)

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(8, num_tasks=2) == 2
        assert resolve_workers("auto") >= 1
        assert resolve_workers(-1) >= 1
        with pytest.raises(ValueError):
            resolve_workers("many")
        with pytest.raises(ValueError):
            resolve_workers(-2)  # only -1/'auto' may mean the CPU count

    def test_parallel_training_matches_serial(self):
        """Tapes built concurrently in workers match the serial gradients."""

        def one_step(seed):
            rng = np.random.default_rng(seed)
            layer = nn.Linear(6, 3, rng=rng)
            x = Tensor(rng.normal(size=(4, 6)))
            loss = (layer(x) * layer(x)).sum()
            layer.zero_grad()
            loss.backward()
            return layer.weight.grad.copy()

        serial = [one_step(seed) for seed in range(6)]
        parallel = parallel_map(one_step, range(6), max_workers=4)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s, p)
