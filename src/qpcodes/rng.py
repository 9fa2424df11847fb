"""Counter-based random streams, reproducible regardless of thread count.

Every Monte Carlo consumer derives one Philox generator per work chunk from
(master_seed, domain, chunk index). Chunk boundaries are fixed up front, so
the random numbers a chunk sees depend only on the seed and the chunk's
index, never on scheduling. thread_map is the one place chunks meet
threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import PreconditionError

DOMAIN_ERASURE_SAMPLING = 1
DOMAIN_SIM_TRIALS = 2
DOMAIN_SIM_STRATA = 3

_MAX_INDEX = 1 << 56


def derive_stream(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for one (domain, chunk) pair under a master seed."""
    if not 0 <= master_seed < 1 << 64:
        raise PreconditionError("master seed must fit in 64 bits")
    if not 0 <= domain < 1 << 8:
        raise PreconditionError("domain tag must fit in 8 bits")
    if not 0 <= index < _MAX_INDEX:
        raise PreconditionError("chunk index must fit in 56 bits")
    key = (domain << 56) | index
    return np.random.Generator(np.random.Philox(key=[master_seed, key]))


def thread_count(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else QPCODES_THREADS, else CPU count."""
    if explicit is not None:
        if explicit < 1:
            raise PreconditionError("thread count must be >= 1")
        return explicit
    env = os.environ.get("QPCODES_THREADS", "").strip()
    if env:
        if not env.isdecimal() or int(env) < 1:
            raise PreconditionError(f"QPCODES_THREADS must be an integer >= 1, not {env!r}")
        return int(env)
    return os.cpu_count() or 1


@contextmanager
def thread_map(fn: Callable, items: Iterable, threads: int | None = None) -> Iterator[Iterator]:
    """fn over items, in order, on thread_count(threads) workers.

    One worker maps inline. Otherwise the pool is shut down on every exit
    from the with-block, cancelling the work not yet started, so a worker
    that raises leaves no thread behind.
    """
    workers = thread_count(threads)
    if workers == 1:
        yield map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool.map(fn, items)
    finally:
        pool.shutdown(cancel_futures=True)
