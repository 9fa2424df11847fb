"""Every subcommand, every erasure method and the simulator across p, run as
a real process: the exit code is always a documented one and stderr never
carries a traceback. Inputs the CLI must refuse exit 2 with one line."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qpcodes

SRC = str(Path(qpcodes.__file__).resolve().parents[1])
DOCUMENTED = {0, 2, 3, 4}
P_GRID = ["1e-1", "1e-2", "5e-3", "1e-3", "5e-4"]


def run(tmp_path, argv, env=None, timeout=120, max_bytes=None):
    """max_bytes caps the child's address space, so a run that should have
    been refused fails with MemoryError instead of filling the host."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    full_env = dict(os.environ, PYTHONPATH=path, QPCODES_THREADS="1", OPENBLAS_NUM_THREADS="1")
    full_env.update(env or {})
    cap = None if max_bytes is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return subprocess.run(
        [sys.executable, "-m", "qpcodes.cli", *argv],
        cwd=tmp_path, env=full_env, capture_output=True, text=True, timeout=timeout, preexec_fn=cap,
    )


CASES = {
    "construct-eh": ["construct", "--family", "eh", "--r", "5", "--out", "m.txt"],
    "construct-panchenko-shortened": ["construct", "--family", "panchenko", "--r", "6", "--shorten", "4", "--out", "m.txt"],
    "construct-general": ["construct", "--family", "general", "--r", "6", "--g", "3", "--out", "m.txt"],
    "construct-seed": ["construct", "--family", "seed", "--seed", "S", "--out", "m.txt"],
    "construct-missing-r": ["construct", "--family", "eh", "--out", "m.txt"],
    "spectrum-oracle": ["spectrum", "--code", "eh6", "--method", "oracle", "--out", "s.json"],
    "spectrum-recursion": ["spectrum", "--code", "pan6", "--method", "recursion", "--out", "s.json"],
    "spectrum-both": ["spectrum", "--code", "pan7", "--method", "both", "--out", "s.json"],
    "spectrum-missing-file": ["spectrum", "--code", "nope.txt", "--out", "s.json"],
    "erasure-auto": ["erasure", "--code", "eh5", "--rho-min", "3", "--rho-max", "6", "--z", "3", "--out", "e.csv"],
    "erasure-exact": ["erasure", "--code", "pan6", "--rho-min", "4", "--rho-max", "6", "--exact", "--out", "e.csv"],
    "erasure-sample": ["erasure", "--code", "eh6", "--rho-min", "5", "--rho-max", "6", "--sample", "2000", "--out", "e.csv"],
    "erasure-psi": ["erasure", "--code", "pan7", "--rho-min", "4", "--rho-max", "8", "--psi", "--out", "e.csv"],
    "erasure-recursive": ["erasure", "--code", "pan7", "--rho-min", "4", "--rho-max", "7", "--recursive", "2", "--out", "e.csv"],
    "erasure-rho-order": ["erasure", "--code", "eh5", "--rho-min", "6", "--rho-max", "4", "--out", "e.csv"],
    "erasure-largest-seed": ["erasure", "--code", "eh6", "--rho-min", "5", "--rho-max", "5", "--sample", "100",
                             "--seed", str((1 << 64) - 1), "--out", "e.csv"],
    "table-1": ["table", "--which", "1", "--codes", "eh7", "--rhos", "4,8", "--samples", "2000", "--exact-limit", "10000000", "--out", "t.csv"],
    "table-2-plain": ["table", "--which", "2", "--p", ",".join(P_GRID), "--dplus", "3,6", "--trials", "20", "--out", "t.csv"],
    "table-2-stratified": ["table", "--which", "2", "--p", "1e-2,1e-3", "--dplus", "4", "--stratified", "--per-stratum", "2", "--out", "t.csv"],
    "no-subcommand": [],
}
for p in P_GRID:
    CASES[f"simulate-plain-{p}"] = ["simulate", "--p", p, "--dplus", "4", "--trials", "30", "--out", "s.json"]
    CASES[f"simulate-stratified-{p}"] = ["simulate", "--p", p, "--dplus", "5", "--trials", "1", "--stratified", "--per-stratum", "2", "--out", "s.json"]


REFUSED = {"construct-missing-r", "spectrum-missing-file", "erasure-rho-order", "no-subcommand"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_code_is_documented(tmp_path, name):
    res = run(tmp_path, CASES[name])
    assert res.returncode in DOCUMENTED, res.stderr
    assert "Traceback" not in res.stderr
    assert res.returncode == (2 if name in REFUSED else 0), res.stderr


def test_constructed_file_round_trips(tmp_path):
    assert run(tmp_path, CASES["construct-panchenko-shortened"]).returncode == 0
    res = run(tmp_path, ["erasure", "--code", "m.txt", "--rho-min", "4", "--rho-max", "5", "--exact", "--out", "e.csv"])
    assert res.returncode == 0 and "Traceback" not in res.stderr


BAD = {
    "threads-not-a-number": (["erasure", "--code", "eh5", "--rho-min", "4", "--rho-max", "4", "--exact", "--out", "e.csv"],
                             {"QPCODES_THREADS": "two"}),
    "erasure-negative-digits": (["erasure", "--code", "eh5", "--rho-min", "4", "--rho-max", "4", "--psi", "--digits", "-1", "--out", "e.csv"], {}),
    "table-negative-digits": (["table", "--which", "2", "--p", "1e-1", "--dplus", "3", "--trials", "5", "--digits", "-1", "--out", "t.csv"], {}),
    # past the 1,074 fractional digits of any double; 2^31 is more than the formatter takes
    "erasure-digits-past-a-double": (["erasure", "--code", "eh4", "--rho-min", "4", "--rho-max", "4", "--digits", "1075", "--out", "e.csv"], {}),
    "erasure-digits-past-the-formatter": (["erasure", "--code", "eh4", "--rho-min", "4", "--rho-max", "4", "--digits", "2147483648", "--out", "e.csv"], {}),
    "table-1-digits-past-a-double": (["table", "--which", "1", "--codes", "eh4", "--rhos", "4", "--digits", "1075", "--out", "t.csv"], {}),
    "table-2-digits-past-the-formatter": (["table", "--which", "2", "--p", "1e-1", "--dplus", "3", "--trials", "5", "--digits", "2147483648", "--out", "t.csv"], {}),
    # a d_plus below 3 late in the list is refused before the earlier cells run
    "table-dplus-below-3": (["table", "--which", "2", "--p", "1e-3,1e-2", "--dplus", "3,4,2", "--trials", "5", "--out", "t.csv"], {}),
    "erasure-negative-z": (["erasure", "--code", "eh5", "--rho-min", "4", "--rho-max", "4", "--psi", "--z", "-5000", "--out", "e.csv"], {}),
    "erasure-nan-z": (["erasure", "--code", "eh5", "--rho-min", "4", "--rho-max", "4", "--psi", "--z", "nan", "--out", "e.csv"], {}),
    "erasure-zero-samples": (["erasure", "--code", "pan5", "--rho-min", "4", "--rho-max", "4", "--sample", "0", "--out", "e.csv"], {}),
    # rho above rank(H) needs no sampling, but the request is refused all the same
    "erasure-zero-samples-above-rank": (["erasure", "--code", "pan5", "--rho-min", "8", "--rho-max", "8", "--sample", "0", "--out", "e.csv"], {}),
    # r past the interpreter's 4,300-digit limit on int()
    "spectrum-name-too-long": (["spectrum", "--code", "pan" + "9" * 5000, "--out", "s.json"], {}),
    "table-name-too-long": (["table", "--which", "1", "--codes", "eh" + "9" * 5000, "--out", "t.csv"], {}),
    # a depth below 1 and a seed outside 0..2^64-1 are refused at every rho and for
    # every method, before any work: pan5 has rank 5, and eh6 at rho = 5 samples nothing
    "erasure-depth-0": (["erasure", "--code", "pan5", "--rho-min", "4", "--rho-max", "4", "--recursive", "0", "--out", "e.csv"], {}),
    "erasure-depth-0-above-rank": (["erasure", "--code", "pan5", "--rho-min", "7", "--rho-max", "7", "--recursive", "0",
                                    "--out", "e.csv"], {}),
    "erasure-negative-seed": (["erasure", "--code", "eh6", "--rho-min", "5", "--rho-max", "5", "--seed", "-1", "--out", "e.csv"], {}),
    "erasure-seed-past-64-bits": (["erasure", "--code", "eh6", "--rho-min", "5", "--rho-max", "5", "--sample", "100",
                                   "--seed", str(1 << 64), "--out", "e.csv"], {}),
    "table-1-negative-seed": (["table", "--which", "1", "--codes", "eh7", "--rhos", "4", "--seed", "-1", "--out", "t.csv"], {}),
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_input_exits_2_with_one_line(tmp_path, name):
    argv, env = BAD[name]
    res = run(tmp_path, argv, env)
    assert res.returncode == 2
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not list(tmp_path.iterdir())  # refused before writing anything


@pytest.mark.parametrize("family", [["eh"], ["general", "--g", "0"]])
def test_construct_past_the_length_cap_exits_4_quickly(tmp_path, family):
    res = run(tmp_path, ["construct", "--family", *family, "--r", "30", "--out", "m.txt"], timeout=5)
    assert res.returncode == 4, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not list(tmp_path.iterdir())


# from the fifth on, each holds a bool or a fraction, which int() would read
# as 1 or truncate, a string where whole numbers belong, or an unknown seed
MALFORMED_SIDECARS = [
    "{", '{"n": 16}', "[1]", '{"n": 16, "r": 5, "d": 4, "lineage": 3}',
    '{"n": 16, "r": 5, "d": 4.5}', '{"n": 16.9, "r": 5, "d": 4}', '{"n": 16, "r": 5, "d": true}',
    '{"n": 16, "r": 5.5, "d": 4}', '{"n": 16, "r": 5, "d": 4, "lineage": {"doublings": 2.5}}',
    '{"n": 16, "r": 5, "d": 4, "lineage": {"g": 4.5}}', '{"n": 16, "r": 5, "d": 4, "lineage": {"g": true}}',
    '{"n": 16, "r": 5, "d": 4, "lineage": {"shortened": "ab"}}',
    '{"n": 16, "r": 5, "d": 4, "lineage": {"shortened": [1.5]}}',
    '{"n": 16, "r": 5, "d": 4, "lineage": {"seed": 5}}', '{"n": 16, "r": 5, "d": 4, "lineage": {"seed": "nope"}}',
]


@pytest.mark.parametrize("sidecar", MALFORMED_SIDECARS)
def test_malformed_sidecar_exits_2_with_one_line(tmp_path, sidecar):
    assert run(tmp_path, CASES["construct-eh"]).returncode == 0
    (tmp_path / "m.txt.json").write_text(sidecar)
    res = run(tmp_path, ["spectrum", "--code", "m.txt", "--out", "s.json"])
    assert res.returncode == 2
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert "sidecar" in res.stderr


def test_recursion_checks_a_file_against_its_walked_spectrum(tmp_path):
    # a shortened eh7 carrying pan7's sidecar: same length and distance, but
    # the matrix has no doubling to peel, so the recursion refuses it before
    # any comparison, whatever lineage the sidecar records
    shortened = ["construct", "--family", "eh", "--r", "7", "--shorten", "24", "--out", "e.txt"]
    assert run(tmp_path, shortened).returncode == 0
    assert run(tmp_path, ["construct", "--family", "panchenko", "--r", "7", "--out", "pan7.txt"]).returncode == 0
    (tmp_path / "e.txt.json").write_bytes((tmp_path / "pan7.txt.json").read_bytes())
    for method in ("recursion", "both"):
        res = run(tmp_path, ["spectrum", "--code", "e.txt", "--method", method, "--out", "s.json"])
        assert res.returncode == 2, res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert not (tmp_path / "s.json").exists()
    res = run(tmp_path, ["spectrum", "--code", "e.txt", "--method", "oracle", "--out", "s.json"])
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "s.json").read_text())["counts"]["4"] == "1702"
    res = run(tmp_path, ["spectrum", "--code", "pan7.txt", "--method", "recursion", "--out", "p.json"])
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "p.json").read_text())["counts"]["4"] == "1190"


@pytest.mark.parametrize("method", ["oracle", "recursion", "both"])
def test_spectrum_past_the_budget_exits_4_quickly(tmp_path, method):
    # eh19 fits the 2^18-column cap, but its spectrum would take about 8 GiB
    argv = ["spectrum", "--code", "eh19", "--method", method, "--out", "s.json"]
    res = run(tmp_path, argv, timeout=10, max_bytes=1 << 30)
    assert res.returncode == 4, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["erasure", "--code", "m.txt", "--rho-min", "4", "--rho-max", "4", "--sample", "10", "--out", "e.csv"],
    ["spectrum", "--code", "m.txt", "--method", "oracle", "--out", "s.json"],
], ids=["erasure-sample", "spectrum-oracle"])
def test_matrix_file_past_the_walk_rank_exits_4(tmp_path, argv):
    # a matrix file's distance is read by walking its row space, capped at
    # rank 26, before any method runs; the kernels alone would take rank 64
    (tmp_path / "m.txt").write_text("27 28\n" + "".join("0" * i + "1" + "0" * (26 - i) + "1\n" for i in range(27)))
    res = run(tmp_path, argv, timeout=10)
    assert res.returncode == 4, res.stderr
    assert res.stderr == "budget exceeded: row space of rank 27 exceeds 2^26 budget\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


@pytest.mark.parametrize("argv", [
    ["--trials", "1000000000000"],
    ["--trials", "1", "--stratified", "--per-stratum", "1000000000000"],
])
def test_simulation_out_of_memory_exits_4_with_one_line(tmp_path, argv):
    # the plain run's chunk list, or one stratum's error positions, outgrows memory
    res = run(tmp_path, ["simulate", "--p", "1e-3", "--dplus", "4", *argv, "--out", "s.json"],
              timeout=60, max_bytes=1 << 30)
    assert res.returncode == 4, res.stderr
    assert res.stderr == "budget exceeded: out of memory\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("code,method", [("pan15", "recursion"), ("pan15", "both"), ("eh14", "recursion")])
def test_doubling_past_its_work_budget_exits_4_quickly(tmp_path, code, method):
    # within the bit budget, but the chain would run for minutes (pan15) or
    # longer; the oracle spectrum of pan15 takes well under a second
    argv = ["spectrum", "--code", code, "--method", method, "--out", "s.json"]
    res = run(tmp_path, argv, timeout=10, max_bytes=1 << 30)
    assert res.returncode == 4, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert "work budget" in res.stderr
    assert not list(tmp_path.iterdir())
