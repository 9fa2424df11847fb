"""Layer spans recorded from outside the package.

`installed(tracer)` replaces package functions with timing wrappers in the
module namespaces where their callers look them up, and puts the originals
back on exit. Nothing under src/ knows it is being traced.

A span is (id, name, start, end, parent id, thread id, info). Spans are
kept in memory; the parent is the innermost open span on the same thread,
so work a ThreadPoolExecutor runs in its workers has no parent and is
summed per thread instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

Info = Callable[..., dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             before: Info | None = None, after: Callable[[object], dict] | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        info = before(*args, **kwargs) if before else {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            info["raised"] = type(exc).__name__
            raise
        else:
            if after:
                info.update(after(result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), info))

    def wrap(self, name: str, fn: Callable, before: Info | None = None,
             after: Callable[[object], dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name, start, end, parent, thread, info in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread, "info": info}) + "\n")


class _TimedGenerator:
    """A numpy Generator whose draws are spans named rng.draw."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        return self._tracer.call("rng.draw", self._gen.random, args, kwargs)

    def integers(self, *args, **kwargs):
        return self._tracer.call("rng.draw", self._gen.integers, args, kwargs)

    def choice(self, *args, **kwargs):
        return self._tracer.call("rng.draw", self._gen.choice, args, kwargs)


CONSTRUCTORS = ("extended_hamming", "panchenko", "general_qp", "shorten", "seed")


def _code_arg(code, rho, *rest, **kwargs) -> dict:
    return {"narrow": code.H.nrows <= 8, "n": code.spec.n, "rho": rho}


def _samples_arg(code, rho, samples, *rest, **kwargs) -> dict:
    return {"narrow": code.H.nrows <= 8, "samples": samples}


def _words(spectrum) -> dict:
    # the primal spectrum totals 2^(n - rank); the walk visited 2^rank words
    return {"words": 1 << (spectrum.n - (spectrum.total.bit_length() - 1))}


def patch_points(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(module, attribute, wrapper) for every function the trace times."""
    from qpcodes import cli, construct, erasure, product_sim, spectrum

    points = []
    for module in (cli, erasure, product_sim, spectrum):
        for name in CONSTRUCTORS:
            if getattr(module, name, None) is getattr(construct, name):
                points.append((module, name, tracer.wrap("construct", getattr(construct, name))))

    doubling = tracer.wrap("spectrum.doubling", spectrum.spectrum_by_doubling)
    points += [(cli, "spectrum_by_doubling", doubling), (spectrum, "spectrum_by_doubling", doubling)]
    # oracle_spectrum and shorten's lazy import both resolve this name in spectrum
    points.append((spectrum, "spectrum_of_matrix",
                   tracer.wrap("spectrum.oracle", spectrum.spectrum_of_matrix, after=_words)))

    points.append((erasure, "s_rho_exact",
                   tracer.wrap("erasure.exact", erasure.s_rho_exact, before=_code_arg)))
    points.append((erasure, "s_rho_sampled",
                   tracer.wrap("erasure.sample", erasure.s_rho_sampled, before=_samples_arg)))
    for name in ("psi", "psi_tilde"):
        points.append((erasure, name, tracer.wrap("erasure.bounds", getattr(erasure, name))))
    report = tracer.wrap("erasure.report", erasure.erasure_report)
    points += [(cli, "erasure_report", report), (erasure, "erasure_report", report)]
    points.append((cli, "table1", tracer.wrap("erasure.table1", erasure.table1)))

    derive_stream = product_sim.derive_stream

    def timed_stream(*args, **kwargs):
        gen = tracer.call("rng.stream", derive_stream, args, kwargs)
        return _TimedGenerator(gen, tracer)

    points += [(erasure, "derive_stream", timed_stream), (product_sim, "derive_stream", timed_stream)]

    points.append((cli, "failure_probability",
                   tracer.wrap("product_sim.sim", product_sim.failure_probability,
                               after=lambda res: {"trials": res.trials})))
    points.append((product_sim, "_classify_batch",
                   tracer.wrap("product_sim.classify", product_sim._classify_batch)))
    points.append((product_sim, "decode",
                   tracer.wrap("product_sim.decode", product_sim.decode,
                               after=lambda out: {"success": out.outcome == "success"})))
    return points


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    points = patch_points(tracer)
    originals = [(module, name, getattr(module, name)) for module, name, _ in points]
    try:
        for module, name, wrapper in points:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

PER_LAYER = (
    "construct.calls", "construct.busy_s",
    "spectrum.doubling.calls", "spectrum.doubling.busy_s",
    "spectrum.oracle.calls", "spectrum.oracle.busy_s", "spectrum.oracle.words",
    "erasure.exact.narrow.subsets", "erasure.exact.narrow.busy_s", "erasure.exact.narrow.ns_per_subset",
    "erasure.sample.narrow.samples", "erasure.sample.narrow.busy_s", "erasure.sample.narrow.ns_per_sample",
    "erasure.exact.wide.subsets", "erasure.exact.wide.busy_s", "erasure.exact.wide.ns_per_subset",
    "erasure.sample.wide.samples", "erasure.sample.wide.busy_s", "erasure.sample.wide.ns_per_sample",
    "erasure.bounds.busy_s", "erasure.report.self_s",
    "rng.streams", "rng.stream_busy_s", "rng.draws_busy_s",
    "product_sim.trials", "product_sim.wall_s", "product_sim.classify.self_s",
    "product_sim.decode.calls", "product_sim.decode.busy_s", "product_sim.decode.us_per_call",
    "product_sim.decode.fallback_frac", "product_sim.decode.success_frac",
    "cli.self_s", "cli.failed_calls",
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Counts and times per layer. A layer's calls and busy time count only
    its outermost spans (a constructor calling another is one call); busy
    time is summed over threads. Self time is a span's duration minus the
    durations of its children, which nest inside it on the same thread."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def outermost(name: str, pick: Callable[[dict], bool] = lambda info: True) -> list[tuple]:
        out = []
        for span in spans:
            if span[1] != name or not pick(span[6]):
                continue
            parent = span[4]
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent is None:
                out.append(span)
        return out

    def busy(chosen: list[tuple]) -> float:
        return math.fsum(s[3] - s[2] for s in chosen)

    def self_time(name: str) -> float:
        return math.fsum(s[3] - s[2] - child_time[s[0]] for s in spans if s[1] == name)

    m: dict[str, float] = {}
    for layer in ("construct", "spectrum.doubling", "spectrum.oracle"):
        top = outermost(layer)
        m[f"{layer}.calls"] = len(top)
        m[f"{layer}.busy_s"] = busy(top)
    m["spectrum.oracle.words"] = sum(s[6]["words"] for s in spans if s[1] == "spectrum.oracle")

    for width in ("narrow", "wide"):
        want = width == "narrow"
        exact = outermost("erasure.exact", lambda info: info["narrow"] == want)
        subsets = sum(math.comb(s[6]["n"], s[6]["rho"]) for s in exact)
        m[f"erasure.exact.{width}.subsets"] = subsets
        m[f"erasure.exact.{width}.busy_s"] = busy(exact)
        m[f"erasure.exact.{width}.ns_per_subset"] = _ratio(busy(exact), subsets, 1e9)
        sampled = outermost("erasure.sample", lambda info: info["narrow"] == want)
        samples = sum(s[6]["samples"] for s in sampled)
        m[f"erasure.sample.{width}.samples"] = samples
        m[f"erasure.sample.{width}.busy_s"] = busy(sampled)
        m[f"erasure.sample.{width}.ns_per_sample"] = _ratio(busy(sampled), samples, 1e9)
    m["erasure.bounds.busy_s"] = busy(outermost("erasure.bounds"))
    m["erasure.report.self_s"] = self_time("erasure.report")

    streams = outermost("rng.stream")
    m["rng.streams"] = len(streams)
    m["rng.stream_busy_s"] = busy(streams)
    m["rng.draws_busy_s"] = busy(outermost("rng.draw"))

    sims = outermost("product_sim.sim")
    trials = sum(s[6].get("trials", 0) for s in sims)
    decodes = [s for s in spans if s[1] == "product_sim.decode"]
    m["product_sim.trials"] = trials
    m["product_sim.wall_s"] = busy(sims)
    # thread-seconds in the batch classifier outside decode; the channel
    # draws run before it, so rng time is already excluded
    m["product_sim.classify.self_s"] = self_time("product_sim.classify")
    m["product_sim.decode.calls"] = len(decodes)
    m["product_sim.decode.busy_s"] = busy(decodes)
    m["product_sim.decode.us_per_call"] = _ratio(busy(decodes), len(decodes), 1e6)
    m["product_sim.decode.fallback_frac"] = _ratio(len(decodes), trials)
    m["product_sim.decode.success_frac"] = _ratio(
        sum(1 for s in decodes if s[6].get("success")), len(decodes))

    cli_spans = [s for s in spans if s[1] == "cli.main"]
    m["cli.self_s"] = self_time("cli.main")
    m["cli.failed_calls"] = sum(1 for s in cli_spans if s[6].get("failed") or "raised" in s[6])
    return m
