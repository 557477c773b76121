"""One process pool for independent pieces of work.

:func:`pool_map` has three callers: :func:`predcomp.evaluate.run_grid` maps
its (detector, dataset) units, the ARIMA order search
(``ArimaPredictor._fit_auto`` in :mod:`predcomp.predictors`) its order
fits, and online standardization (``_online`` in
:mod:`predcomp.standardize`) its ranges of steps on a long stream.  It is
the one module that reads the CPU count: each caller cuts its work into
pieces of its own sizing, and a worker takes the next as it frees up.
Workers are forked, so they start from the parent's state at the call,
its BLAS thread count included, and compute the serial bits.  A map gives
what the serial loop gives: the results in input order, or its first
failure.
"""

from __future__ import annotations

import os

#: the ``(fn, items)`` being mapped, set before the workers fork
_job = None


def _call(i: int):
    fn, items = _job
    return fn(items[i])


def pool_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` on up to one forked worker per CPU.

    Results come back in input order.  The first exception in input order
    reaches the caller once every item before it is done, and the workers
    still running are stopped, so a pooled map fails as the serial loop does.
    ``fn`` may be a closure: the workers inherit it and receive only
    indices, and send back only results.  Forked workers see the
    parent's module state at the call, patches included.  It runs serially
    for one CPU or one item, and inside a daemonic pool worker, which may
    not start processes.  ``multiprocessing`` is imported here, off the
    CLI's import path, and not at all for one CPU or one item.
    """
    global _job
    n = min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return [fn(x) for x in items]
    _job = (fn, items)
    try:
        # leaving the block by an exception terminates the workers
        with multiprocessing.get_context("fork").Pool(n) as pool:
            out = list(pool.imap(_call, range(len(items)), chunksize=1))
            pool.close()
            pool.join()
    finally:
        _job = None
    return out
