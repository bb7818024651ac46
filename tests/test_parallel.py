import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from hemtriage import parallel
from hemtriage.errors import TrainingError


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count ``fork_map`` sees: 1 forces the serial path."""
    return lambda count: monkeypatch.setattr(parallel, "_usable_cpus", lambda: count)


def no_workers_left():
    return multiprocessing.active_children() == [] and threading.active_count() == 1


def test_results_in_task_order_from_forked_workers(cpus):
    cpus(2)
    weights = np.arange(5.0)  # inherited through fork, never pickled
    out = parallel.fork_map(lambda i: (float(weights @ np.full(5, i)), os.getpid()), 7)
    assert [value for value, _ in out] == [10.0 * i for i in range(7)]
    assert os.getpid() not in {pid for _, pid in out}
    assert no_workers_left()


def test_serial_on_one_cpu(cpus):
    cpus(1)
    assert parallel.fork_map(lambda i: (i, os.getpid()), 3) == [(i, os.getpid()) for i in range(3)]
    assert parallel.fork_map(lambda i: i, 0) == []


def test_serial_while_another_thread_runs(cpus):
    # Fork copies only the calling thread, so no pool is forked beside another.
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert parallel.fork_map(lambda i: os.getpid(), 3) == [os.getpid()] * 3
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()


def test_worker_side_effects_stay_in_worker(cpus):
    cpus(2)
    seen = []
    assert parallel.fork_map(lambda i: seen.append(i) or i, 4) == [0, 1, 2, 3]
    assert seen == []


def test_call_inside_a_worker_runs_serially(cpus):
    cpus(2)
    inner = parallel.fork_map(lambda i: (os.getpid(), parallel.fork_map(lambda j: os.getpid(), 3)), 2)
    for worker, pids in inner:
        assert worker != os.getpid()
        assert pids == [worker] * 3


def warn_task(i):
    warnings.warn(f"task {i}")
    return i


@pytest.mark.parametrize("count", [1, 2])
def test_worker_warnings_reach_the_caller_in_task_order(cpus, count):
    cpus(count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.fork_map(warn_task, 4) == [0, 1, 2, 3]
    assert [str(w.message) for w in caught] == [f"task {i}" for i in range(4)]
    # Attributed to the line that warned, as a serial call is.
    assert {(w.category, w.filename, w.lineno) for w in caught} == {
        (UserWarning, __file__, warn_task.__code__.co_firstlineno + 1)}


def fail_from_task_two(i):
    warnings.warn(f"task {i}")
    if i >= 2:
        raise TrainingError(f"task {i} failed")
    return i


@pytest.mark.parametrize("count", [1, 2])
def test_worker_exception_reraises_in_the_caller(cpus, count):
    # The first failure in task order raises with its class and message,
    # after the warnings of the tasks before it; no worker is left behind.
    cpus(count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingError, match="^task 2 failed$"):
            parallel.fork_map(fail_from_task_two, 5)
    assert [str(w.message) for w in caught][:2] == ["task 0", "task 1"]
    assert no_workers_left()


def test_warning_as_error_raises_in_the_caller(cpus):
    cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="^task 0$"):
            parallel.fork_map(warn_task, 3)
    assert no_workers_left()
