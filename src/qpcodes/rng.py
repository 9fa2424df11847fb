"""Counter-based random streams, reproducible regardless of thread count.

Every Monte Carlo consumer draws from Philox streams keyed by (master_seed,
domain, index): the erasure sampler one per work chunk, the product-code
simulator one per trial. The key alone fixes a stream, so the random
numbers an index sees depend only on the seed and the index, never on
scheduling or on how indices are grouped into chunks. derive_streams
serves a run of indices from one Philox whose state it resets to a fresh
one under each index's key, which yields the same draws as derive_stream
without building a generator each time. thread_map is the one place chunks meet
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


def _key(master_seed: int, domain: int, index: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of one (domain, index) pair."""
    if not 0 <= master_seed < 1 << 64:
        raise PreconditionError("master seed must fit in 64 bits")
    if not 0 <= domain < 1 << 8:
        raise PreconditionError("domain tag must fit in 8 bits")
    if not 0 <= index < _MAX_INDEX:
        raise PreconditionError("chunk index must fit in 56 bits")
    return master_seed, (domain << 56) | index


def derive_stream(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for one (domain, index) pair under a master seed."""
    # as uint64: numpy reads a list holding a word >= 2^63 as float64,
    # which rounds the low bits of the key away
    key = np.array(_key(master_seed, domain, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_streams(
    master_seed: int, domain: int, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """For each index in turn, a generator whose draws equal those of
    derive_stream(master_seed, domain, index).

    The same generator is yielded every time, re-keyed in place, so each
    one is valid only until the next is yielded.
    """
    bit_gen = np.random.Philox(0)
    # the state of a new Philox: counter 0, empty buffer, no spare half-word
    state = bit_gen.state
    gen = np.random.Generator(bit_gen)
    for index in indices:
        state["state"]["key"] = _key(master_seed, domain, index)
        bit_gen.state = state
        yield gen


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
