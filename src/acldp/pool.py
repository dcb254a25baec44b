"""The package's one process pool: independent tasks on forked processes.

The sampler's fixed-size chain chunks go through `fork_map`.  Each task's
arithmetic does not depend on the process that runs it, and results come
back in input order, so no output depends on the worker count.
"""

from __future__ import annotations

import os

from .config import AUTO


def pool_size(workers: int | str, n_tasks: int) -> int:
    """Processes n_tasks independent tasks run on: `workers` ('auto' for one
    per core), clamped to the number of tasks and to the core count; 1 means
    serial."""
    cores = os.cpu_count() or 1
    return max(1, min(cores if workers == AUTO else workers, n_tasks, cores))


def fork_map(fn, items: list, workers: int | str) -> list:
    """[fn(item) for item in items], serially or on `pool_size(workers,
    len(items))` forked processes.  Results keep the input order.  An
    exception in a task is raised here; a process that dies raises
    `BrokenProcessPool` rather than hanging."""
    n_proc = pool_size(workers, len(items))
    if n_proc == 1:
        return [fn(item) for item in items]
    # fork: children inherit the imported modules and module-level caches, so
    # a task pays no re-import (spawn cost ~1 s per call) and callers need no
    # __main__ guard.  Imported here so that importing acldp stays cheap.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n_proc,
                             mp_context=multiprocessing.get_context("fork")) as ex:
        return list(ex.map(fn, items))
