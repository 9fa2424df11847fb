import threading
import time

import pytest

from qpcodes.errors import PreconditionError
from qpcodes.rng import (
    DOMAIN_ERASURE_SAMPLING,
    DOMAIN_SIM_STRATA,
    DOMAIN_SIM_TRIALS,
    derive_stream,
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


@pytest.mark.parametrize("threads", [1, 3])
def test_thread_map_keeps_item_order(threads):
    with thread_map(lambda x: x * x, range(40), threads) as parts:
        assert list(parts) == [x * x for x in range(40)]


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
