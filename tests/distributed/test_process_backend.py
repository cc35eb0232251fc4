"""The process executor backend: parity, crash handling, shm hygiene.

``parallel_map(backend="process")`` forks a worker pool and maps
designated tensors write-through over ``multiprocessing.shared_memory``
(:mod:`repro.distributed.procpool`).  These tests pin its contract:

* **cross-backend parity** — serial, thread and process fan-outs of the
  same seeded workload produce bit-identical results, final parameter
  buffers and grads, under both the float32 engine default and the
  float64 protocol dtype;
* **crash containment** — a SIGKILLed worker surfaces as a clean
  :class:`ExecutorError` (never a hang) and leaves no orphan children;
* **shared-memory hygiene** — no ``/dev/shm`` segment survives any exit
  path: success, a task exception, or a worker crash;
* **the backend-aware budget** — ``ExecutionPlan.split`` clamps a
  process tier to the host budget and downgrades it under a fanned-out
  edge tier.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.distributed.executor import ExecutionPlan, ExecutorError, parallel_map
from repro.distributed.procpool import SharedParamArena, fork_available
from repro.nn.layers import Dropout, Linear, Sequential
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, get_default_dtype, using_dtype

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process backend requires the fork start method"
)


def _shm_segments() -> set:
    """Names of live POSIX shared-memory segments (empty set off-Linux)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(autouse=True)
def _no_shm_or_child_leaks():
    """Every test in this file must leave zero segments and children behind."""
    before = _shm_segments()
    yield
    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
    assert multiprocessing.active_children() == []
    assert _shm_segments() - before == set()


def _make_params(seed: int, shapes=((6, 4), (4,))):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _train_task(bundle):
    """A tape-plus-fused-optimizer step sequence on one item's params.

    Builds a fresh fused Adam inside the task (which rebinds ``p.data``
    onto its private flat heap buffer — the exact rebind the arena's
    write-back sweep exists for) and leaves grads populated, so the
    grad round-trip is exercised too.
    """
    params, steps, seed = bundle
    optimizer = Adam(params, lr=1e-2)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        for p in params:
            p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
        optimizer.step()
        losses.append(float(sum(np.abs(p.data).sum() for p in params)))
    return np.asarray(losses)


def _run_backend(backend, max_workers, dtype, num_items=4, steps=3):
    with using_dtype(dtype):
        devices = [_make_params(seed=10 + i) for i in range(num_items)]
        items = [(params, steps, 100 + i) for i, params in enumerate(devices)]
        results = parallel_map(
            _train_task,
            items,
            max_workers=max_workers,
            backend=backend,
            shared_params=devices if backend == "process" else None,
        )
    return results, devices


class TestCrossBackendParity:
    @needs_fork
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_serial_thread_process_bit_identical(self, dtype):
        serial_results, serial_devices = _run_backend("thread", None, dtype)
        thread_results, thread_devices = _run_backend("thread", 3, dtype)
        process_results, process_devices = _run_backend("process", 3, dtype)

        for s, t, p in zip(serial_results, thread_results, process_results):
            np.testing.assert_array_equal(s, t)
            np.testing.assert_array_equal(s, p)
        for s_params, t_params, p_params in zip(
            serial_devices, thread_devices, process_devices
        ):
            for s, t, p in zip(s_params, t_params, p_params):
                np.testing.assert_array_equal(s.data, t.data)
                np.testing.assert_array_equal(s.data, p.data)
                assert s.data.dtype == p.data.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(s.grad, p.grad)

    @needs_fork
    def test_results_keep_input_order(self):
        out = parallel_map(
            lambda i: i * i, list(range(8)), max_workers=3, backend="process"
        )
        assert out == [i * i for i in range(8)]

    @needs_fork
    def test_workers_inherit_callers_engine_context(self):
        with using_dtype("float64"):
            out = parallel_map(
                lambda _: get_default_dtype(),
                range(4),
                max_workers=2,
                backend="process",
            )
        assert out == [np.float64] * 4

    @needs_fork
    def test_task_exception_reraises_as_itself(self):
        def boom(i):
            if i == 2:
                raise ValueError("task failed in worker")
            return i

        with pytest.raises(ValueError, match="task failed in worker"):
            parallel_map(boom, range(4), max_workers=2, backend="process")

    @needs_fork
    def test_first_exception_by_input_index_wins(self):
        def boom(i):
            if i >= 1:
                raise ValueError(f"boom {i}")
            return i

        with pytest.raises(ValueError, match="boom 1"):
            parallel_map(boom, range(4), max_workers=2, backend="process")

    @needs_fork
    def test_nested_process_request_downgrades_to_threads(self):
        def outer(i):
            # Inside a pool worker a nested process request must not
            # fork again; it silently runs on threads with identical
            # results.
            return parallel_map(
                lambda j: i * 10 + j, range(3), max_workers=2, backend="process"
            )

        out = parallel_map(outer, range(2), max_workers=2, backend="process")
        assert out == [[0, 1, 2], [10, 11, 12]]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            parallel_map(lambda i: i, range(2), max_workers=2, backend="greenlet")
        with pytest.raises(ValueError):
            ExecutionPlan(backend="fibers")


class TestWorkerCrash:
    @needs_fork
    def test_sigkilled_worker_raises_executor_error(self):
        def task(i):
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(ExecutorError, match="died"):
            parallel_map(task, range(4), max_workers=2, backend="process")

    @needs_fork
    def test_unencodable_result_names_the_task(self):
        """A result that neither the wire codec nor pickle can ship must
        surface as that task's error — not kill the worker's remaining
        stride and masquerade as `worker died mid-task` (the pre-audit
        behavior: the send sat outside the per-task try)."""

        def task(i):
            if i == 1:
                return lambda: i  # unpicklable on purpose
            return i * 10

        with pytest.raises(ExecutorError, match=r"task 1 returned a result"):
            parallel_map(task, range(4), max_workers=2, backend="process")

    @needs_fork
    def test_crash_with_arena_still_unlinks_segments(self):
        params = [_make_params(seed=3)]

        def task(item):
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ExecutorError):
            parallel_map(
                task,
                [0, 1],
                max_workers=2,
                backend="process",
                shared_params=[params[0], params[0]],
            )
        # The autouse fixture asserts no segments/children leaked; the
        # params must also be heap-backed (demoted) again.
        for p in params[0]:
            assert p.data.base is None or isinstance(p.data.base, np.ndarray)


class TestSharedParamArena:
    def test_promote_demote_roundtrip_restores_heap(self):
        params = _make_params(seed=5)
        params[0].grad = np.ones_like(params[0].data)
        params[1].grad = None
        original = [p.data.copy() for p in params]
        arena = SharedParamArena([params])
        # Views are write-through shared memory, values preserved.
        for p, o in zip(params, original):
            np.testing.assert_array_equal(p.data, o)
        arena.demote()
        for p, o in zip(params, original):
            np.testing.assert_array_equal(p.data, o)
        np.testing.assert_array_equal(params[0].grad, np.ones_like(original[0]))
        assert params[1].grad is None

    def test_demote_is_idempotent(self):
        params = _make_params(seed=6)
        arena = SharedParamArena([params])
        arena.demote()
        arena.demote()  # second call must be a no-op, not a double-unlink

    def test_writeback_rejects_shape_change(self):
        params = _make_params(seed=7)
        arena = SharedParamArena([params])
        try:
            params[0].data = np.zeros((2, 2))
            with pytest.raises(ExecutorError, match="changed shape"):
                arena.writeback(0)
        finally:
            params[0].data = np.zeros((6, 4))
            arena.demote()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="shared_params"):
            parallel_map(
                lambda i: i,
                range(3),
                max_workers=2,
                backend="process",
                shared_params=[[], []],
            )

    def test_mixed_dtype_params_share_one_arena(self):
        with using_dtype("float64"):
            p64 = _make_params(seed=8, shapes=((3, 3),))
        with using_dtype("float32"):
            p32 = _make_params(seed=9, shapes=((4,),))
        params = p64 + p32
        arena = SharedParamArena([params])
        assert params[0].data.dtype == np.float64
        assert params[1].data.dtype == np.float32
        arena.demote()


class TestBackendAwareBudget:
    def test_serial_outer_thread_inner_passes_through(self):
        for inner in (8, "auto"):
            plan = ExecutionPlan(edge_workers=1, device_workers=inner)
            assert plan.split(3, budget=4) is plan

    def test_serial_outer_process_inner_clamped_to_budget(self):
        # Thread workers past the core count just time-slice; process
        # workers each cost a core and a fork, so they are clamped even
        # with no outer fan-out.
        plan = ExecutionPlan(device_workers=8, backend="process")
        assert plan.split(1, budget=4) == ExecutionPlan(device_workers=4, backend="process")
        plan = ExecutionPlan(device_workers=16, backend="process")
        assert plan.split(1, budget=2).device_workers == 2

    def test_serial_inner_untouched_for_process(self):
        for inner in (None, 1):
            plan = ExecutionPlan(edge_workers=1, device_workers=inner, backend="process")
            assert plan.split(3, budget=4) is plan

    def test_outer_fanout_caps_like_threads(self):
        for backend in ("process", "thread"):
            plan = ExecutionPlan(edge_workers=4, device_workers=8, backend=backend)
            # ... and never forks from a threaded edge tier (a fork while
            # a sibling edge thread is inside BLAS deadlocks).
            assert plan.split(4, budget=8) == ExecutionPlan(
                edge_workers=4, device_workers=2, backend="thread"
            )

    def test_invalid_inner_backend_rejected(self):
        with pytest.raises(ValueError, match="ExecutionPlan.backend"):
            ExecutionPlan(device_workers=4, backend="mpi")


class TestSystemLevelParity:
    @needs_fork
    def test_acme_run_bit_identical_serial_vs_process(self):
        """A tiny end-to-end ACME run with ``backend="process"`` must
        reproduce the serial accuracies and traffic ledger exactly."""
        from repro.distributed import ACMEConfig, ACMESystem
        from tests.helpers import assert_same_run

        def run(backend, workers):
            config = ACMEConfig(
                num_clusters=1,
                devices_per_cluster=2,
                num_classes=4,
                samples_per_class=8,
                execution=ExecutionPlan(device_workers=workers, backend=backend),
                seed=0,
            )
            system = ACMESystem(config)
            result = system.run()
            system.dispose()
            return result, [
                d._features is not None for e in system.edges for d in e.devices
            ]

        serial, _ = run("thread", 1)
        process, swept_in_parent = run("process", 2)
        assert_same_run(serial, process)
        # A forked worker's feature cache dies with it: the parent sweeps
        # before each fan-out so every fork inherits the same pages.
        assert all(swept_in_parent)
