"""The executor contract: what every in-process fan-out guarantees.

:func:`repro.distributed.executor.parallel_map` runs serially (width
``None`` / 0 / 1) or on a thread pool.  Both paths must give:

* **input-order results**, whatever order the tasks finish in;
* **the caller's engine context** inside every task (compute dtype,
  grad mode), snapshotted at submit time;
* **exception transparency** — a task's exception re-raises as itself,
  and when several tasks raise, the first by input index wins;
* **serial means the calling thread** — a width of ``None``, 0 or 1
  runs the plain loop there, any wider spec runs on pool threads;
* **refusal of invalid worker specs**, never a silent truncation;
* **bit-identity** — a seeded tape-plus-fused-optimizer workload gives
  the same results, parameter buffers and grads serially and on
  threads, under the float32 engine default and the float64 protocol
  dtype.
"""

import threading
import time

import numpy as np
import pytest

from repro.distributed.executor import ExecutionPlan, parallel_map
from repro.nn.optim import Adam
from repro.nn.tensor import (
    Tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    using_dtype,
)

#: ``max_workers`` of each path: serial and a thread pool.
PATHS = {"serial": None, "thread": 3}


def _make_params(seed: int, shapes=((6, 4), (4,))):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _train_task(bundle):
    """A fused-optimizer step sequence on one item's params.

    Builds a fresh fused Adam inside the task (which rebinds ``p.data``
    onto its flat buffer — what every real header update does) and
    leaves grads populated.
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


def _run(max_workers, dtype, num_items=4, steps=3):
    with using_dtype(dtype):
        devices = [_make_params(seed=10 + i) for i in range(num_items)]
        items = [(params, steps, 100 + i) for i, params in enumerate(devices)]
        results = parallel_map(_train_task, items, max_workers=max_workers)
    return results, devices


@pytest.mark.parametrize("path", list(PATHS))
class TestContract:
    def test_results_keep_input_order(self, path):
        def task(i):
            # Later items finish first on a pool.
            time.sleep(0.002 * (8 - i))
            return i * i

        out = parallel_map(task, list(range(8)), max_workers=PATHS[path])
        assert out == [i * i for i in range(8)]

    def test_tasks_inherit_callers_engine_context(self, path):
        with using_dtype("float64"), no_grad():
            out = parallel_map(
                lambda _: (get_default_dtype(), is_grad_enabled()),
                range(4),
                max_workers=PATHS[path],
            )
        assert out == [(np.float64, False)] * 4

    def test_task_exception_reraises_as_itself(self, path):
        def boom(i):
            if i == 2:
                raise ValueError("task failed in worker")
            return i

        with pytest.raises(ValueError, match="task failed in worker"):
            parallel_map(boom, range(4), max_workers=PATHS[path])

    def test_first_exception_by_input_index_wins(self, path):
        def boom(i):
            if i >= 1:
                # The later items raise first on a pool.
                time.sleep(0.002 * (4 - i))
                raise ValueError(f"boom {i}")
            return i

        with pytest.raises(ValueError, match="boom 1"):
            parallel_map(boom, range(4), max_workers=PATHS[path])

    def test_items_may_be_a_one_shot_iterable(self, path):
        items = (i for i in range(5))
        out = parallel_map(lambda i: i + 1, items, max_workers=PATHS[path])
        assert out == [1, 2, 3, 4, 5]

    def test_plan_maps_both_tiers_like_parallel_map(self, path):
        plan = ExecutionPlan(edge_workers=PATHS[path], device_workers=PATHS[path])
        assert plan.map_edges(lambda i: -i, range(5)) == [0, -1, -2, -3, -4]
        assert plan.map_devices(lambda i: i + 1, range(5)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("spec", [None, 0, 1])
def test_serial_specs_run_in_the_calling_thread(spec):
    caller = threading.get_ident()
    idents = parallel_map(lambda _: threading.get_ident(), range(3), max_workers=spec)
    assert idents == [caller] * 3


@pytest.mark.parametrize("spec", [2, 3])
def test_wider_specs_run_on_pool_threads(spec):
    caller = threading.get_ident()
    idents = parallel_map(lambda _: threading.get_ident(), range(3), max_workers=spec)
    assert caller not in idents


# Refused, not truncated: a float or a bool, even an integral one.
@pytest.mark.parametrize("spec", [-2, -3, "many", "AUTO", 2.7, 1.0, True, False])
def test_invalid_worker_spec_refused(spec):
    with pytest.raises(ValueError, match="worker"):
        parallel_map(lambda i: i, range(2), max_workers=spec)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_serial_and_thread_bit_identical(dtype, workers):
    serial_results, serial_devices = _run(PATHS["serial"], dtype)
    thread_results, thread_devices = _run(workers, dtype)
    for s, t in zip(serial_results, thread_results):
        np.testing.assert_array_equal(s, t)
    for s_params, t_params in zip(serial_devices, thread_devices):
        for s, t in zip(s_params, t_params):
            np.testing.assert_array_equal(s.data, t.data)
            assert s.data.dtype == t.data.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(s.grad, t.grad)
