import os
import threading
import time

import numpy as np
import pytest

from qpcodes.errors import PreconditionError
from qpcodes.rng import (
    DOMAIN_ERASURE_SAMPLING,
    DOMAIN_SIM_STRATA,
    DOMAIN_SIM_TRIALS,
    derive_stream,
    stream_uniforms,
    stream_words,
    thread_count,
    thread_map,
)


def test_streams_are_deterministic():
    a = derive_stream(42, DOMAIN_SIM_TRIALS, 7).random(8)
    b = derive_stream(42, DOMAIN_SIM_TRIALS, 7).random(8)
    assert (a == b).all()


def test_domains_are_separated():
    a = derive_stream(42, DOMAIN_SIM_TRIALS, 7).random(8)
    b = derive_stream(42, DOMAIN_SIM_STRATA, 7).random(8)
    c = derive_stream(42, DOMAIN_ERASURE_SAMPLING, 7).random(8)
    assert not (a == b).all()
    assert not (a == c).all()
    assert not (b == c).all()


def test_indices_are_separated():
    a = derive_stream(42, DOMAIN_SIM_TRIALS, 0).random(8)
    b = derive_stream(42, DOMAIN_SIM_TRIALS, 1).random(8)
    assert not (a == b).all()


def test_seed_changes_stream():
    a = derive_stream(1, DOMAIN_SIM_TRIALS, 0).random(8)
    b = derive_stream(2, DOMAIN_SIM_TRIALS, 0).random(8)
    assert not (a == b).all()


def test_seeds_past_2_63_keep_their_streams_apart():
    # numpy carries a list holding a word >= 2^63 through float64, which
    # would put neighbouring seeds and indices on a handful of streams
    seeds = [2**63 - 1, 2**63, 2**63 + 1, 2**63 + 12345, 2**64 - 2, 2**64 - 1]
    firsts = [derive_stream(s, DOMAIN_SIM_TRIALS, i).random() for s in seeds for i in range(6)]
    assert len(set(firsts)) == len(firsts)


@pytest.mark.parametrize("seed", [0, 33, 2**63 - 1, 2**63 + 5, 2**64 - 1])
def test_raw_words_equal_philox_random_raw(seed):
    indices = [0, 7, (5 << 32) | 3, (1 << 56) - 1]
    for domain in (DOMAIN_ERASURE_SAMPLING, DOMAIN_SIM_TRIALS, DOMAIN_SIM_STRATA, 255):
        for blocks in (0, 1, 3, 32):
            # the key words wrap past 2^64 as they are bumped, warning-free
            with np.errstate(all="raise"):
                got = stream_words(seed, domain, np.array(indices, dtype=np.uint64), blocks)
            assert got.dtype == np.uint64 and got.shape == (len(indices), 4 * blocks)
            for row, index in zip(got, indices):
                key = np.array([seed, (domain << 56) | index], dtype=np.uint64)
                assert np.array_equal(row, np.random.Philox(key=key).random_raw(4 * blocks))
    assert stream_words(seed, DOMAIN_SIM_STRATA, np.array([], dtype=np.uint64), 2).shape == (0, 8)


def test_raw_words_validate_their_keys():
    with pytest.raises(PreconditionError):
        stream_words(1, DOMAIN_SIM_STRATA, np.array([0, 1 << 56], dtype=np.uint64), 1)
    with pytest.raises(PreconditionError):
        stream_words(1 << 64, DOMAIN_SIM_STRATA, np.array([0], dtype=np.uint64), 1)


@pytest.mark.parametrize("seed", [0, 33, 2**63 - 1, 2**63 + 5, 2**64 - 1])
def test_array_uniforms_equal_each_streams_own(seed):
    for domain in (DOMAIN_SIM_TRIALS, 255):
        for indices in (range(0, 5), range((1 << 56) - 3, 1 << 56), range(9, 40, 7)):
            for count in (1, 4, 7, 130):
                want = np.stack([derive_stream(seed, domain, i).random(count) for i in indices])
                # the key words wrap past 2^64 as they are bumped, warning-free
                with np.errstate(all="raise"):
                    assert np.array_equal(stream_uniforms(seed, domain, indices, count), want)
    assert stream_uniforms(seed, DOMAIN_SIM_TRIALS, range(3, 3), 5).shape == (0, 5)


def test_array_uniforms_validate_their_keys():
    with pytest.raises(PreconditionError):
        stream_uniforms(1, DOMAIN_SIM_TRIALS, range((1 << 56) - 1, (1 << 56) + 1), 4)
    with pytest.raises(PreconditionError):
        stream_uniforms(1 << 64, DOMAIN_SIM_TRIALS, range(2), 4)


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        derive_stream(-1, 0, 0)
    with pytest.raises(PreconditionError):
        derive_stream(1 << 64, 0, 0)
    with pytest.raises(PreconditionError):
        derive_stream(0, 256, 0)
    with pytest.raises(PreconditionError):
        derive_stream(0, 0, 1 << 56)


def test_thread_count_sources(monkeypatch):
    assert thread_count(3) == 3
    monkeypatch.setenv("QPCODES_THREADS", "5")
    assert thread_count() == 5
    monkeypatch.delenv("QPCODES_THREADS")
    assert thread_count() >= 1
    with pytest.raises(PreconditionError):
        thread_count(0)


def test_thread_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("QPCODES_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert thread_count() == 2
    monkeypatch.delattr(os, "sched_getaffinity")  # as on platforms without it
    assert thread_count() == 64


@pytest.mark.parametrize("items", [[], [7]], ids=["none", "one"])
def test_thread_map_over_fewer_than_two_items_starts_no_thread(pools_started, items):
    before = set(threading.enumerate())
    with thread_map(lambda x: (x, threading.current_thread()), iter(items), 4) as parts:
        got = list(parts)
    assert got == [(x, threading.current_thread()) for x in items]
    assert pools_started == []
    assert [t for t in threading.enumerate() if t not in before] == []


def test_thread_map_over_two_items_starts_its_pool(pools_started):
    with thread_map(lambda x: x + 1, iter([1, 2]), 4) as parts:
        assert list(parts) == [2, 3]
    assert pools_started == [4]


def test_thread_map_refuses_a_bad_thread_count_before_peeking():
    pulled = []

    def items():
        pulled.append(0)
        yield 0

    with pytest.raises(PreconditionError):
        with thread_map(lambda x: x, items(), 0):
            pass
    assert pulled == []


@pytest.mark.parametrize("threads", [1, 3])
def test_thread_map_keeps_item_order(threads):
    with thread_map(lambda x: x * x, range(40), threads) as parts:
        assert list(parts) == [x * x for x in range(40)]


def test_thread_map_pulls_items_only_as_results_are_taken():
    pulled = []

    def items():
        for i in range(50):
            pulled.append(i)
            yield i

    with thread_map(lambda x: x * x, items(), 3) as parts:
        for i, part in enumerate(parts):
            assert part == i * i
            # two items per worker at the start, then one as each further
            # result is asked for
            assert len(pulled) == min(50, 2 * 3 + i)


def test_thread_map_shuts_its_pool_down_when_a_worker_raises():
    before = set(threading.enumerate())
    started = []

    def work(i):
        started.append(i)
        if i == 3:
            raise RuntimeError("worker failed")
        time.sleep(0.01)
        return i

    with pytest.raises(RuntimeError, match="worker failed"):
        with thread_map(work, range(200), 2) as parts:
            sum(parts)
    assert [t for t in threading.enumerate() if t not in before] == []
    assert len(started) < 200  # work not yet started was cancelled
