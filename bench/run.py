"""qpcodes benchmark: four workloads run through the CLI entry point.

    python3 bench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. Every cell of a workload is one `qpcodes.cli.main(argv)` call in
this process, with QPCODES_THREADS set to the number of usable CPUs and
numpy's OpenBLAS held to one thread. A pass runs the workload's cell list
once; passes repeat until --seconds have gone by, and timings are medians
over passes. Every output is checked against constants in workloads.py,
and output digests (from the `<out>.manifest.json` files) must repeat
exactly across passes.

--trace 0 prints the end-to-end metrics:
  setup_s       median over fresh interpreters, started between passes, of
                the time to start, import the package and build the
                workload's codes
  wall_s        median time to finish the cell list
  trials_per_s  trials delivered per second of a pass: simulated arrays
                (stratified: per-stratum x strata), or erasure patterns
                tested (subsets enumerated plus samples drawn)
  ok_frac       1 - failed_frac; failed_frac (printed above the result)
                is the share of cells that raised, exited non-zero or
                failed their check
  peak_rss_mb   peak resident memory of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracing.py plus trace.overhead_frac (traced wall_s over
untraced, minus one). The spans of the last traced pass are written to
.bench_work/trace-<workload>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `failed` counts failed cells; `correct` is false when an output
that was produced fails its check or its digest changes between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 12

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Cell, argv_for  # noqa: E402


@dataclass
class PassResult:
    wall_s: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    trials: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs, not crashes
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "QPCODES_THREADS": os.environ["QPCODES_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def setup_probe(workload: str) -> float:
    """Time from starting a fresh interpreter until it has imported the
    package and built the workload's codes."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} exited {proc.returncode}")
    return elapsed


def _manifest_digests(out: Path) -> dict[str, str]:
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    files = {**manifest["inputs"], **manifest["outputs"]}
    return {Path(name).name: digest for name, digest in sorted(files.items())}


def run_pass(workload: str, cells: list[Cell], seed: int, pass_dir: Path, tracer=None) -> PassResult:
    from qpcodes import cli

    pass_dir.mkdir(parents=True)
    calls = [(cell, argv_for(cell, workload, seed, pass_dir)) for cell in cells]
    exits: dict[str, str | None] = {}
    start = time.perf_counter()
    for cell, argv in calls:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, (argv,), {},
                                       after=lambda rc: {"failed": rc != 0})
            exits[cell.name] = None if code == 0 else f"exit {code}: {sink.getvalue().strip()}"
        except SystemExit as exc:
            exits[cell.name] = f"exit {exc.code}: {sink.getvalue().strip()}"
        except Exception as exc:  # a crashing cell is counted, and the pass goes on
            exits[cell.name] = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    result = PassResult(time.perf_counter() - start, tracer is not None)

    outs = {cell.name: pass_dir / cell.out_name for cell in cells if exits[cell.name] is None}
    for cell in cells:
        result.attempted += cell.units
        if exits[cell.name] is not None:
            result.failed += cell.units
            print(f"  cell {cell.name} failed: {exits[cell.name]}", file=sys.stderr)
            continue
        try:
            checked = cell.check(outs)
            result.digests[cell.name] = _manifest_digests(outs[cell.name])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.failed += cell.units
            result.problems.append(f"{cell.name}: unreadable output ({exc!r})")
            continue
        result.failed += min(cell.units, len(checked.problems))
        result.problems += checked.problems
        result.trials += checked.trials
    if tracer is not None:
        from tracing import layer_metrics

        result.layers = layer_metrics(tracer.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qpcodes" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'qpcodes'}; run from a source checkout",
              file=sys.stderr)
        return 2

    os.environ["QPCODES_THREADS"] = str(len(os.sched_getaffinity(0)))
    # numpy's OpenBLAS would start nproc threads of its own under each of the
    # package's workers; with one, QPCODES_THREADS is the only thread count
    # and peak memory repeats from run to run. Set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import qpcodes
    from tracing import PER_LAYER, Tracer, installed

    if Path(qpcodes.__file__).resolve().parent != SRC / "qpcodes":
        print(f"bench: imported qpcodes from {qpcodes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    cells = WORKLOADS[args.workload]()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    passes: list[PassResult] = []
    setup_times: list[float] = []
    last_tracer = None
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        while len(passes) < 1 + args.trace or time.perf_counter() < deadline:
            pass_dir = run_dir / f"pass{len(passes)}"
            if args.trace and len(passes) % 2:
                last_tracer = Tracer()
                with installed(last_tracer):
                    res = run_pass(args.workload, cells, args.seed, pass_dir, last_tracer)
            else:
                res = run_pass(args.workload, cells, args.seed, pass_dir)
            passes.append(res)
            print(f"pass {len(passes)} {'traced' if res.traced else 'untraced'}: "
                  f"{res.wall_s:.3f} s, {res.attempted - res.failed}/{res.attempted} cells ok")
            if not args.trace:
                # the machine's speed drifts over seconds, so the set-up
                # probes are spread over the run like the passes
                share = min(1.0, (time.perf_counter() - start) / args.seconds)
                while len(setup_times) < math.ceil(SETUP_PROBES * share):
                    setup_times.append(setup_probe(args.workload))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p for res in passes for p in res.problems]
    for res in passes[1:]:
        for name, digests in res.digests.items():
            if name in passes[0].digests and digests != passes[0].digests[name]:
                problems.append(f"{name}: output digests differ between passes")
    for p in problems:
        print(f"  check failed: {p}", file=sys.stderr)
    attempted = sum(res.attempted for res in passes)
    failed = sum(res.failed for res in passes)
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} cells)")

    plain = [res for res in passes if not res.traced]
    wall_s = statistics.median(res.wall_s for res in plain)
    if args.trace:
        traced = [res for res in passes if res.traced]
        metrics = {name: statistics.median(res.layers[name] for res in traced) for name in PER_LAYER}
        metrics["trace.overhead_frac"] = statistics.median(res.wall_s for res in traced) / wall_s - 1
        WORK.mkdir(exist_ok=True)
        last_tracer.write(WORK / f"trace-{args.workload}.jsonl")
        units = {}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "trials_per_s": statistics.median(res.trials / res.wall_s for res in plain),
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "ok_frac": "ratio",
                 "peak_rss_mb": "MiB"}
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units.get(name, _layer_unit(name))}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, _layer_unit(name))}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ns_per_subset", "ns"), ("ns_per_sample", "ns"),
                         ("us_per_call", "us"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
