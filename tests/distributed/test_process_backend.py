"""The process executor backend: parity, crash handling, what comes home.

``parallel_map(backend="process")`` forks a worker pool; each item's
result frame carries the final arrays of the tensors the caller named in
``shared_params`` and the parent copies them into the arrays it already
holds (:mod:`repro.distributed.procpool`).  These tests pin its contract:

* **cross-backend parity** — serial, thread and process fan-outs of the
  same seeded workload produce bit-identical results, final parameter
  buffers and grads, under both the float32 engine default and the
  float64 protocol dtype;
* **crash containment** — a SIGKILLed worker surfaces as a clean
  :class:`ExecutorError` (never a hang) and leaves no orphan children;
* **returned parameters** — parent-side array identity is stable across
  a fan-out, ``None`` grads stay ``None``, a shape/dtype change is a
  named error, and no OS object (``/dev/shm`` segment, child) is ever
  left — or, for segments, even created — on any exit path;
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
from repro.distributed.procpool import fork_available
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

    Builds a fresh fused Adam inside the task (which rebinds the
    worker's ``p.data`` onto its private flat buffer — what every real
    header update does) and leaves grads populated, so the grad
    round-trip is exercised too.
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
        params = _make_params(seed=3)
        arrays = [p.data for p in params]
        values = [p.data.copy() for p in params]

        def task(item):
            for p in params:
                p.data[...] = 0.0
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ExecutorError):
            parallel_map(
                task,
                [0, 1],
                max_workers=2,
                backend="process",
                shared_params=[params, params],
            )
        # The autouse fixture asserts no segments/children leaked; the
        # parent's params are the heap arrays they were, values untouched.
        for p, array, value in zip(params, arrays, values):
            assert p.data is array and p.data.base is None
            np.testing.assert_array_equal(p.data, value)


def _map_two(task, devices):
    return parallel_map(
        task, [0, 1], max_workers=2, backend="process", shared_params=devices
    )


class TestSharedParamArena:
    """What ``shared_params`` brings home (the class name predates the
    result frame: there is no arena any more)."""

    @needs_fork
    def test_param_arrays_keep_their_identity(self):
        """The worker's values land in the arrays the parent already
        holds, so an optimizer built before the fan-out keeps stepping
        them — no flat-group rebuild, no stale buffer."""
        devices = [_make_params(seed=20), _make_params(seed=21)]
        optimizers = [Adam(params, lr=1e-2) for params in devices]
        for params, optimizer in zip(devices, optimizers):
            for p in params:
                p.grad = np.ones_like(p.data)
            optimizer.step()  # builds the flat groups; p.data are views now
        arrays = [[p.data for p in params] for params in devices]
        groups = [optimizer._flat_groups for optimizer in optimizers]

        def task(i):
            for p in devices[i]:
                p.data = np.full_like(p.data, float(i + 2))  # rebinds in the worker
            return i

        assert _map_two(task, devices) == [0, 1]
        for i, params in enumerate(devices):
            for p, array in zip(params, arrays[i]):
                assert p.data is array
                np.testing.assert_array_equal(p.data, float(i + 2))
                p.grad = np.zeros_like(p.data)
            optimizers[i].step()
            assert optimizers[i]._flat_groups is groups[i]
            for p, array in zip(params, arrays[i]):
                assert p.data is array
                assert np.all(p.data != float(i + 2))  # stepped from what came home

    @needs_fork
    def test_grads_come_home_none_or_bit_equal(self):
        devices = [_make_params(seed=22), _make_params(seed=23)]
        devices[0][0].grad = np.ones_like(devices[0][0].data)  # cleared in the worker
        held = devices[1][1].grad = np.zeros_like(devices[1][1].data)

        def task(i):
            first, second = devices[i]
            first.grad = None
            second.grad = np.arange(second.data.size, dtype=second.data.dtype)
            return i

        _map_two(task, devices)
        for first, second in devices:
            assert first.grad is None
            np.testing.assert_array_equal(second.grad, np.arange(second.data.size))
            assert second.grad.dtype == second.data.dtype
        assert devices[1][1].grad is held  # a held grad array is filled, not replaced

    @needs_fork
    def test_writeback_rejects_shape_change(self):
        """A shape (or dtype) change inside a worker names its item; that
        item is left untouched — never half-written — and the others
        are applied."""
        changes = (
            lambda a: np.zeros((2, 2), a.dtype),
            lambda a: a.astype(np.float16),
        )
        for change in changes:
            devices = [_make_params(seed=7), _make_params(seed=8)]
            before = [p.data.copy() for p in devices[1]]

            def task(i):
                first, second = devices[i]
                first.data = first.data + 1.0
                if i == 1:
                    second.data = change(second.data)
                return i

            with pytest.raises(ExecutorError, match="task 1: shared param changed"):
                _map_two(task, devices)
            for p, b in zip(devices[1], before):
                np.testing.assert_array_equal(p.data, b)
            np.testing.assert_array_equal(
                devices[0][0].data, _make_params(seed=7)[0].data + 1.0
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="shared_params"):
            parallel_map(
                lambda i: i,
                range(3),
                max_workers=2,
                backend="process",
                shared_params=[[], []],
            )

    @needs_fork
    def test_mixed_dtype_params_share_one_arena(self):
        """One item's frame carries tensors of both dtypes home."""
        with using_dtype("float64"):
            p64 = _make_params(seed=8, shapes=((3, 3),))
        with using_dtype("float32"):
            p32 = _make_params(seed=9, shapes=((4,),))
        devices = [p64 + p32, _make_params(seed=10)]

        def task(i):
            for p in devices[i]:
                p.data = p.data * 2
            return i

        expected = [p.data * 2 for p in devices[0]]
        _map_two(task, devices)
        for p, e in zip(devices[0], expected):
            np.testing.assert_array_equal(p.data, e)
        assert [p.data.dtype for p in devices[0]] == [np.float64, np.float32]


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
