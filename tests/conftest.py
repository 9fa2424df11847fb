import resource
import signal
import sys
from contextlib import contextmanager

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the one-line acceptance verdicts in a block at the end of the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@contextmanager
def _work_ceiling(extra_bytes: int, seconds: float):
    """Cap this process's address space a little above its size now, and its
    time, so a route that starts work it should have refused fails fast
    instead of filling or holding the host. An overrun fails the test with
    one line: the alarm can land inside big-int code, whose traceback
    pytest cannot format."""
    with open("/proc/self/statm") as f:
        size = int(f.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra_bytes if hard == resource.RLIM_INFINITY else min(size + extra_bytes, hard)

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        pytest.fail(str(exc), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def work_ceiling():
    """The context manager work_ceiling(extra_bytes, seconds) above."""
    return _work_ceiling


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of every pool rng.thread_map starts during the test."""
    from qpcodes import rng

    started = []

    class Recorded(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", Recorded)
    return started
