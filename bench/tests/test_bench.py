"""Tests of the benchmark harness itself, not of qpcodes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _threads(monkeypatch):
    monkeypatch.setenv("QPCODES_THREADS", "2")


def test_cli_seeds_derive_from_the_benchmark_seed(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        seen = set()
        for cell in make():
            argv = workloads.argv_for(cell, name, 7, tmp_path)
            if cell.argv[0] not in workloads.SEEDED:
                assert "--seed" not in argv
                continue
            seed = int(argv[argv.index("--seed") + 1])
            assert seed == workloads.cell_seed(7, name, cell.name)
            other = workloads.argv_for(cell, name, 8, tmp_path)
            assert int(other[other.index("--seed") + 1]) != seed
            seen.add(seed)
        assert len(seen) == sum(c.argv[0] in workloads.SEEDED for c in make())


def _pan7_cell(count: int) -> workloads.Cell:
    exp = replace(workloads.TABLE1_EXACT[1], count=count)
    assert (exp.code, exp.rho) == ("pan7", 7)
    argv = ("table", "--which", "1", "--codes", "pan7", "--rhos", "7")
    return workloads.Cell("pan7-rho7", argv, workloads.check_exact_table1(exp, "pan7-rho7"))


def test_a_corrupted_expected_value_is_a_failed_cell(tmp_path):
    true_count = workloads.TABLE1_EXACT[1].count
    good = run.run_pass("table1", [_pan7_cell(true_count)], 1, tmp_path / "good")
    assert (good.attempted, good.failed, good.problems) == (1, 0, [])
    bad = run.run_pass("table1", [_pan7_cell(true_count + 1)], 1, tmp_path / "bad")
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.problems and "expected 8028161" in bad.problems[0]


def test_a_crashing_cell_counts_as_failed_not_as_a_wrong_output(tmp_path):
    cell = workloads.Cell("nope", ("spectrum", "--code", "eh2"), workloads.check_spectrum("nope", 2, 2))
    res = run.run_pass("large-r", [cell], 1, tmp_path / "p")
    assert (res.attempted, res.failed, res.problems) == (1, 1, [])


def test_traced_pass_restores_every_wrapped_attribute_and_keeps_outputs(tmp_path):
    cells = [workloads.Cell("eh7-spectrum", ("spectrum", "--code", "eh7", "--method", "both"),
                            workloads.check_spectrum("eh7-spectrum", 64, 7))]
    tracer = tracing.Tracer()
    points = tracing.patch_points(tracer)
    originals = [(module, name, getattr(module, name)) for module, name, _ in points]
    plain = run.run_pass("large-r", cells, 1, tmp_path / "plain")
    with tracing.installed(tracer):
        for module, name, original in originals:
            assert getattr(module, name) is not original
        traced = run.run_pass("large-r", cells, 1, tmp_path / "traced", tracer)
    for module, name, original in originals:
        assert getattr(module, name) is original, f"{module.__name__}.{name} not restored"
    assert traced.failed == 0 and traced.digests == plain.digests
    assert traced.layers["spectrum.doubling.calls"] == 1
    assert traced.layers["cli.failed_calls"] == 0


def test_wrappers_are_restored_when_the_traced_code_raises():
    tracer = tracing.Tracer()
    originals = [(m, n, getattr(m, n)) for m, n, _ in tracing.patch_points(tracer)]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            raise RuntimeError
    assert all(getattr(m, n) is orig for m, n, orig in originals)


def test_self_time_and_per_thread_busy_time():
    spans = [
        # id, name, start, end, parent, thread, info
        (0, "cli.main", 0.0, 10.0, None, 1, {"failed": False}),
        (1, "erasure.report", 1.0, 5.0, 0, 1, {}),
        (2, "erasure.exact", 2.0, 4.0, 1, 1, {"narrow": True, "n": 10, "rho": 2}),
        (3, "product_sim.sim", 5.0, 9.0, 0, 1, {"trials": 4}),
        (4, "product_sim.decode", 5.0, 8.0, None, 2, {"success": True}),
        (5, "product_sim.decode", 5.0, 7.0, None, 3, {"success": False}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 10.0 - 4.0 - 4.0
    assert m["erasure.report.self_s"] == 2.0
    assert m["erasure.exact.narrow.subsets"] == 45
    assert m["erasure.exact.narrow.ns_per_subset"] == pytest.approx(2.0 / 45 * 1e9)
    # worker-thread spans add up even though they overlap in wall time
    assert m["product_sim.decode.busy_s"] == 5.0
    assert m["product_sim.decode.fallback_frac"] == 0.5
    assert m["product_sim.decode.success_frac"] == 0.5
    assert set(m) == set(tracing.PER_LAYER)


def test_setup_probe_times_a_fresh_interpreter_building_the_codes():
    assert 0.0 < run.setup_probe("sim-sparse") < 60.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
