"""Independent calls run side by side in forked worker processes.

Training fits models that share nothing but their inputs: one per (config,
type) in an ensemble, one per fold out of fold. ``fork_map`` runs such calls
in a pool of processes forked from the caller, one per usable CPU. Each worker
inherits the function and every array it reads through fork, so nothing but a
task index goes out and nothing but the result comes back, pickled. Every call
runs the same code on the same inputs as it would in the caller, and results
are assembled in task order, so the output is byte-identical to a serial run.

Fork copies only the calling thread, so the pool is created only from a
process with no other Python thread; the executor's own threads start after
its workers are forked.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

# Set in forked workers only: a call made inside a worker runs serially
# rather than forking a pool of its own.
_worker_fn = None


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform does not
    say (macOS and Windows, where forking a numpy process is not safe)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, with the calls spread over
    ``min(count, usable CPUs)`` forked workers.

    The calls run serially in the caller when there is one usable CPU, when
    called inside a worker, on a platform without fork, or while another
    thread runs. In a worker, ``fn``'s side effects stay in the worker, but
    its result, its warnings and its exception reach the caller: warnings are
    re-issued in task order, and the first exception in task order is raised
    with its class and message. The pool is shut down before this returns.
    """
    workers = min(count, _usable_cpus())
    if (workers <= 1 or _worker_fn is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(i) for i in range(count)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    try:
        futures = [pool.submit(_run, i) for i in range(count)]
        results = []
        # Under the default filter, a warning the tasks repeat shows once, as
        # it would from a serial call.
        registry: dict = {}
        for future in futures:
            result, caught = future.result()
            for message, filename, lineno in caught:
                warnings.warn_explicit(message, type(message), filename, lineno,
                                       registry=registry)
            results.append(result)
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _run(index: int):
    """The worker's result for task ``index`` and the warnings it raised, as
    (message, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the caller's filters decide on re-issue
        result = _worker_fn(index)
    return result, [(w.message, w.filename, w.lineno) for w in caught]
