"""Re-measure the four hand-timed figures of the ROADMAP baseline, at one
thread and at every usable CPU, so trajectory.json can set them beside the
benchmark's own numbers.

    python3 bench/roadmap_baseline.py

Run from the root of a source checkout. Each figure is the median of three
timings; the environment is the benchmark's (OpenBLAS held to one thread).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from qpcodes.construct import extended_hamming, panchenko
    from qpcodes.erasure import s_rho_exact, s_rho_sampled
    from qpcodes.product_sim import SimConfig, default_product_code, failure_probability

    eh7, pan8, eh9 = extended_hamming(7), panchenko(8), extended_hamming(9)
    pc = default_product_code()
    packed, python, trials = 2_000_000, 100_000, 2000
    cfg = SimConfig(p=1e-3, d_plus=4, trials=trials, master_seed=1)
    out = {}
    for threads in sorted({1, len(os.sched_getaffinity(0))}):
        out[f"threads={threads}"] = {
            "exact_eh7_rho6_s": _median_s(lambda: s_rho_exact(eh7, 6, threads=threads)),
            "packed_pan8_rho7_us_per_sample": _median_s(
                lambda: s_rho_sampled(pan8, 7, packed, 1, threads=threads)) / packed * 1e6,
            "python_eh9_rho7_us_per_sample": _median_s(
                lambda: s_rho_sampled(eh9, 7, python, 1, threads=threads)) / python * 1e6,
            "plain_p1e-3_ms_per_trial": _median_s(
                lambda: failure_probability(pc, cfg, threads=threads)) / trials * 1e3,
        }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
