"""Counter-based random streams, reproducible regardless of thread count.

Every Monte Carlo consumer draws from Philox streams keyed by (master_seed,
domain, index): the erasure sampler one per work chunk, the product-code
simulator one per trial. The key alone fixes a stream, so the random
numbers an index sees depend only on the seed and the index, never on
scheduling or on how indices are grouped into chunks. stream_words
computes the first raw 64-bit words of many indices' streams at once, on
numpy arrays, for any sequence of indices, and stream_uniforms maps them
to the uniforms random() would give; the simulator reads its draws from
these rather than from a generator per index. thread_map is the one
place chunks meet threads; a map over fewer than two items, or on one
worker, runs inline and starts no thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import chain, islice
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


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: round
# multipliers and the Weyl increments that bump the key between rounds
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> None:
    """Each 128-bit product a * m: its high word into hi and its low word
    over a; t1, t2 and t3 are scratch. This is mulhu (Hacker's Delight,
    2nd ed., section 8-2) on the 32-bit halves a = u1 2^32 + u0 and
    m = v1 2^32 + v0, in 15 array operations; no partial sum passes 2^64."""
    v1, v0 = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    np.bitwise_and(a, _LOW32, out=t1)
    np.right_shift(a, _32, out=hi)
    np.multiply(a, np.uint64(m), out=a)
    np.multiply(t1, v0, out=t2)
    np.right_shift(t2, _32, out=t2)
    np.multiply(t1, v1, out=t1)
    # t1 gathers the middle 32-bit column: u0 v1, the carry out of u0 v0
    # and the low half of u1 v0; hi the high column
    t1 += t2
    np.multiply(hi, v0, out=t2)
    np.multiply(hi, v1, out=hi)
    np.bitwise_and(t2, _LOW32, out=t3)
    t1 += t3
    np.right_shift(t2, _32, out=t2)
    hi += t2
    np.right_shift(t1, _32, out=t1)
    hi += t1


def stream_words(master_seed: int, domain: int, indices: np.ndarray, blocks: int) -> np.ndarray:
    """(len(indices), 4 * blocks) uint64 array whose row i equals
    np.random.Philox(key=[master_seed, domain << 56 | indices[i]]).random_raw(4 * blocks),
    the words behind derive_stream(master_seed, domain, indices[i]).

    A new Philox turns counter c = 1, 2, ... into four 64-bit words each.
    Here that runs for every index at once, on whole-array numpy
    operations, rather than a generator per index: the work is a few
    hundred array operations that run without the GIL, not a Python call
    per index, so threads drawing side by side do not wait on one another.
    The counter's three high words are 0, so round 0's products depend on
    the block alone, and round 1's first is master_seed times a constant:
    17 array products per block and index rather than 20.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    if indices.size:
        _key(master_seed, domain, int(indices.min()))
        _key(master_seed, domain, int(indices.max()))
    # round r's key: both words bumped r times, each wrapping at 2^64
    k0 = [(master_seed + r * _PHILOX_W[0]) & _MASK64 for r in range(10)]
    k1_0 = np.uint64(domain << 56) | indices[:, None]

    def k1(r: int) -> np.ndarray:
        return k1_0 + np.uint64(r * _PHILOX_W[1] & _MASK64)

    # round 0 takes counter (c, 0, 0, 0) to (k0, 0, hi(c M0) ^ k1, lo(c M0)),
    # with c M0 taken once per block
    lo0 = np.arange(1, blocks + 1, dtype=np.uint64)
    hi0, *scratch = np.empty((4, blocks), dtype=np.uint64)
    _mulhilo(lo0, _PHILOX_M[0], hi0, *scratch)
    # the four words of every block, two high words and three scratch
    c0, c1, c2, c3, h0, h1, *scratch = np.empty((9, indices.size, blocks), dtype=np.uint64)
    np.bitwise_xor(hi0, k1(0), out=c1)
    # round 1 runs on (k0, 0, c1, lo0): its first product, k0 M0, is one
    # Python int, and the 0 drops out of the XOR
    _mulhilo(c1, _PHILOX_M[1], h1, *scratch)
    k0_m0 = master_seed * _PHILOX_M[0]
    np.bitwise_xor(h1, np.uint64(k0[1]), out=c0)
    np.bitwise_xor(lo0 ^ np.uint64(k0_m0 >> 64), k1(1), out=c2)
    c3.fill(k0_m0 & _MASK64)
    for r in range(2, 10):
        _mulhilo(c0, _PHILOX_M[0], h0, *scratch)
        _mulhilo(c2, _PHILOX_M[1], h1, *scratch)
        h1 ^= c1
        h1 ^= np.uint64(k0[r])
        h0 ^= c3
        h0 ^= k1(r)
        # the round's output is (h1, low of c2, h0, low of c0); the old c1
        # and c3 are free for the next round's high words
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c3, c1
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(indices.size, 4 * blocks)


def stream_uniforms(master_seed: int, domain: int, indices: np.ndarray | range, count: int) -> np.ndarray:
    """(len(indices), count) array whose row i equals
    derive_stream(master_seed, domain, indices[i]).random(count), for any
    sequence of indices stream_words takes: random() maps each raw word w
    to (w >> 11) / 2^53."""
    words = stream_words(master_seed, domain, indices, -(-count // 4))[:, :count]
    words >>= np.uint64(11)
    return np.multiply(words, 1.0 / (1 << 53))


def thread_count(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else QPCODES_THREADS, else the
    number of CPUs this process may run on."""
    if explicit is not None:
        if explicit < 1:
            raise PreconditionError("thread count must be >= 1")
        return explicit
    env = os.environ.get("QPCODES_THREADS", "").strip()
    if env:
        if not env.isdecimal() or int(env) < 1:
            raise PreconditionError(f"QPCODES_THREADS must be an integer >= 1, not {env!r}")
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def thread_map(fn: Callable, items: Iterable, threads: int | None = None) -> Iterator[Iterator]:
    """fn over items, in order, on thread_count(threads) workers.

    One worker, or items that yield fewer than two (the first two are
    peeked to tell), maps inline on the calling thread, as a lone item
    gains nothing from a worker but its start-up. Otherwise at most two
    items per worker are in flight, one more submitted as each further
    result is asked for, and the pool is shut down on every exit from the
    with-block, cancelling the work not yet started, so a worker that
    raises leaves no thread behind.
    """
    workers = thread_count(threads)
    rest = iter(items)
    head = list(islice(rest, 2))
    if workers == 1 or len(head) < 2:
        yield map(fn, chain(head, rest))
        return
    pool = ThreadPoolExecutor(max_workers=workers)

    def results() -> Iterator:
        pending = [pool.submit(fn, item) for item in chain(head, islice(rest, 2 * workers - 2))]
        while pending:
            yield pending.pop(0).result()
            pending.extend(pool.submit(fn, item) for item in islice(rest, 1))

    try:
        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
