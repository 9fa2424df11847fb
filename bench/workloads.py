"""The four benchmark workloads: the CLI calls each one makes, and the checks
that every output must pass.

A cell is one `qpcodes` command line. Its `--seed` (for the subcommands
that take one) is derived from the benchmark seed, the workload name and
the cell name, so the program receives only seeds made from the one the
benchmark was given. Every expected value below is a constant, so a check
never asks the code under test what the right answer is.

Why these four workloads: each planned optimisation has one workload where
it does most of its work and another that shares its code and bypasses it.

| change                       | does most work in | bypassed in       |
|------------------------------|-------------------|-------------------|
| exact S_rho by Moebius       | table1            | large-r           |
| one GF(2) kernel for any r   | large-r           | table1            |
| batch outcome classifier     | sim-sparse        | sim-dense         |
| counter-based vectorised RNG | sim-dense         | erasure workloads |
| spectrum doubling recursion  | large-r           | all others        |
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# subcommands whose --seed is a master seed (construct's --seed names a matrix)
SEEDED = ("erasure", "simulate", "table")
_SUFFIX = {"table": ".csv", "erasure": ".csv", "construct": ".txt"}

# sizes chosen so one pass of every workload takes a few seconds on 2 cores
TABLE1_SAMPLES = 2_000_000
WIDE_SAMPLES = 200_000
SPARSE_TRIALS = 3000
SPARSE_PER_STRATUM = 150
DENSE_TRIALS = 2000
DENSE_PER_STRATUM = 20


@dataclass
class Checked:
    """What a check found: one problem string per failed unit, and the number
    of trials (simulated arrays, or erasure patterns tested) delivered."""

    problems: list[str] = field(default_factory=list)
    trials: int = 0


@dataclass(frozen=True)
class Cell:
    """One CLI call. `argv` may hold "{dir}", replaced by the pass directory.
    `units` is how many cells it counts for in failed_frac (a table-2 grid
    call yields one cell per row). `check` gets every output of the pass,
    keyed by cell name, and may read another cell's output."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict[str, Path]], Checked]
    units: int = 1

    @property
    def out_name(self) -> str:
        return self.name + _SUFFIX.get(self.argv[0], ".json")


def cell_seed(bench_seed: int, workload: str, cell: str) -> int:
    """The --seed a cell receives: 63 bits of sha256 over the three names."""
    digest = hashlib.sha256(f"{bench_seed}/{workload}/{cell}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def argv_for(cell: Cell, workload: str, bench_seed: int, pass_dir: Path) -> list[str]:
    argv = [a.replace("{dir}", str(pass_dir)) for a in cell.argv]
    if argv[0] in SEEDED:
        argv += ["--seed", str(cell_seed(bench_seed, workload, cell.name))]
    return argv + ["--out", str(pass_dir / cell.out_name)]


def _sidecar(out: Path) -> dict:
    return json.loads(Path(str(out) + ".json").read_text())


def _se_from_hits(value: Fraction, samples: int) -> float:
    """Standard error of a sampled delta, by the package's documented formula
    (ci95 / 1.96, with the (hits+1)/(N+2) variance floor)."""
    hits = value * samples
    if hits.denominator != 1:
        raise ValueError(f"{value} is not a count over {samples} samples")
    p = (int(hits) + 1) / (samples + 2)
    return math.sqrt(p * (1.0 - p) / samples)


# ---------------------------------------------------------------------------
# table1: the Table 1 grid on r <= 8 codes, routes chosen by auto
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactCell:
    code: str
    rho: int
    count: int  # S_rho, the number of correctable weight-rho patterns


@dataclass(frozen=True)
class SampledCell:
    code: str
    rho: int
    psi: int  # numerator of delta_lower over C(n, rho)
    reference: str | None = None  # TABLE1_REFERENCE, truncated to four decimals


TABLE1_EXACT = (
    ExactCell("eh7", 6, 55_996_416),
    ExactCell("pan7", 7, 8_028_160),
    ExactCell("pan8", 5, 23_191_680),
)
TABLE1_SAMPLED = (
    SampledCell("pan8", 7, 2_159_673_440, "0.6996"),
    SampledCell("eh8", 7, 62_894_236_416, "0.6879"),
)


def _only_row(out: Path) -> dict:
    """The single row of a one-cell table or erasure report."""
    rows = _sidecar(out)["rows"]
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    return rows[0]


def check_exact_table1(exp: ExactCell, name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        row = _only_row(outs[name])
        total = math.comb(row["n"], exp.rho)
        got = Fraction(row["value"]) * total
        problems = []
        if row["method"] != "exact":
            problems.append(f"{name}: auto chose {row['method']}, expected exact")
        elif got != exp.count:
            problems.append(f"{name}: S={got}, expected {exp.count}")
        return Checked(problems, total)

    return check


def check_sampled_table1(exp: SampledCell, name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        row = _only_row(outs[name])
        value = Fraction(row["value"])
        se = _se_from_hits(value, TABLE1_SAMPLES)
        floor = Fraction(exp.psi, math.comb(row["n"], exp.rho))
        problems = []
        if row["method"] != "sampled":
            problems.append(f"{name}: auto chose {row['method']}, expected sampled")
        elif abs(float(value) - float(exp.reference)) > 4 * se + 1e-4:
            problems.append(f"{name}: {float(value):.6f} is over 4 SE + 1e-4 from {exp.reference}")
        elif value < floor:
            problems.append(f"{name}: {float(value):.6f} below delta_lower {float(floor):.6f}")
        return Checked(problems, TABLE1_SAMPLES)

    return check


def table1_cells() -> list[Cell]:
    cells = []
    for exp in TABLE1_EXACT:
        name = f"{exp.code}-rho{exp.rho}"
        argv = ("table", "--which", "1", "--codes", exp.code, "--rhos", str(exp.rho))
        cells.append(Cell(name, argv, check_exact_table1(exp, name)))
    for exp in TABLE1_SAMPLED:
        name = f"{exp.code}-rho{exp.rho}"
        argv = ("table", "--which", "1", "--codes", exp.code, "--rhos", str(exp.rho),
                "--samples", str(TABLE1_SAMPLES))
        cells.append(Cell(name, argv, check_sampled_table1(exp, name)))
    return cells


# ---------------------------------------------------------------------------
# large-r: codes past r = 8 (pure-Python engines, doubling recursion)
# ---------------------------------------------------------------------------

# (named code, n, r) for the spectrum cells
LARGE_SPECTRA = (("pan12", 1280, 12), ("eh11", 1024, 11))
LARGE_SAMPLED = (
    SampledCell("eh9", 7, 10_981_261_248_000),
    SampledCell("pan10", 8, 2_023_461_949_773_360),
)
# panchenko r=9 (n=160) with its trailing 88 columns removed
SHORT_N, SHORT_RHO, SHORT_PSI = 72, 4, 1_022_133


def check_spectrum(name: str, n: int, r: int) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        ws = json.loads(outs[name].read_text())
        counts = {int(w): int(c) for w, c in ws["counts"].items()}
        k = n - r
        problems = []
        if ws["n"] != n or ws["k"] != k:
            problems.append(f"{name}: got [{ws['n']},{ws['k']}], expected [{n},{k}]")
        elif sum(counts.values()) != 1 << k:
            problems.append(f"{name}: spectrum sums to {sum(counts.values())}, not 2^{k}")
        elif min(w for w in counts if w) != 4:
            problems.append(f"{name}: minimum distance {min(w for w in counts if w)}, not 4")
        return Checked(problems)

    return check


def check_sampled_wide(exp: SampledCell, name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        row = _only_row(outs[name])
        floor = Fraction(exp.psi, int(row["total"]))
        value = Fraction(row["delta_exact_or_estimate"])
        se = row["ci_halfwidth"] / 1.96
        problems = []
        if row["method"] != "sampled":
            problems.append(f"{name}: method {row['method']}, expected sampled")
        elif Fraction(row["delta_lower"]) != floor:
            problems.append(f"{name}: delta_lower {row['delta_lower']}, expected {floor}")
        elif value < floor - Fraction(4 * se):
            problems.append(f"{name}: {float(value):.6f} below delta_lower - 4 SE")
        return Checked(problems, WIDE_SAMPLES)

    return check


def check_shortened_code(name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        spec = _sidecar(outs[name])
        ok = spec["n"] == SHORT_N and spec["r"] == 9 and spec["d"] == 4
        return Checked([] if ok else [f"{name}: built {spec}, expected n=72 r=9 d=4"])

    return check


def check_shortened_exact(name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        row = _only_row(outs[name])
        problems = []
        if row["method"] != "exact":
            problems.append(f"{name}: method {row['method']}, expected exact")
        elif int(row["s_exact_or_estimate"]) != SHORT_PSI or int(row["psi"]) != SHORT_PSI:
            problems.append(
                f"{name}: S={row['s_exact_or_estimate']} psi={row['psi']}, expected {SHORT_PSI}"
            )
        return Checked(problems, math.comb(SHORT_N, SHORT_RHO))

    return check


def large_r_cells() -> list[Cell]:
    cells = []
    for code, n, r in LARGE_SPECTRA:
        name = f"{code}-spectrum"
        cells.append(Cell(name, ("spectrum", "--code", code, "--method", "both"),
                          check_spectrum(name, n, r)))
    for exp in LARGE_SAMPLED:
        name = f"{exp.code}-rho{exp.rho}"
        argv = ("erasure", "--code", exp.code, "--rho-min", str(exp.rho),
                "--rho-max", str(exp.rho), "--sample", str(WIDE_SAMPLES))
        cells.append(Cell(name, argv, check_sampled_wide(exp, name)))
    cells.append(Cell("pan9-short88", ("construct", "--family", "panchenko", "--r", "9",
                                       "--shorten", "88"), check_shortened_code("pan9-short88")))
    name = f"pan9-short88-rho{SHORT_RHO}"
    argv = ("erasure", "--code", "{dir}/pan9-short88.txt", "--rho-min", str(SHORT_RHO),
            "--rho-max", str(SHORT_RHO))
    cells.append(Cell(name, argv, check_shortened_exact(name)))
    return cells


# ---------------------------------------------------------------------------
# sim-sparse and sim-dense: the [72,64,4]^2 product-code simulator
# ---------------------------------------------------------------------------


def _se(blob: dict) -> float:
    return blob["ci95"] / 1.96


def check_sparse_plain(name: str) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        blob = json.loads(outs[name].read_text())
        ok = blob["trials"] == SPARSE_TRIALS and 0.0 < blob["estimate"] < 1.0
        return Checked([] if ok else [f"{name}: {blob}"], blob["trials"])

    return check


def check_sparse_agreement(name: str, plain: str) -> Callable[[dict[str, Path]], Checked]:
    """Stratified and plain estimates of one failure rate agree within 4 SE."""

    def check(outs: dict[str, Path]) -> Checked:
        strat = json.loads(outs[name].read_text())
        problems = []
        if strat["trials"] % SPARSE_PER_STRATUM:
            problems.append(f"{name}: {strat['trials']} trials is not per-stratum x strata")
        if plain not in outs:
            problems.append(f"{name}: no plain estimate to compare with")
        else:
            ref = json.loads(outs[plain].read_text())
            gap = abs(strat["estimate"] - ref["estimate"])
            if gap > 4 * math.hypot(_se(strat), _se(ref)):
                problems.append(
                    f"{name}: {strat['estimate']:.4f} vs plain {ref['estimate']:.4f}, over 4 SE"
                )
        return Checked(problems, strat["trials"])

    return check


def sim_sparse_cells() -> list[Cell]:
    common = ("--p", "1e-3", "--dplus", "4")
    return [
        Cell("plain", ("simulate", *common, "--trials", str(SPARSE_TRIALS)),
             check_sparse_plain("plain")),
        Cell("stratified", ("simulate", *common, "--trials", "1", "--stratified",
                            "--per-stratum", str(SPARSE_PER_STRATUM)),
             check_sparse_agreement("stratified", "plain")),
    ]


DENSE_P = ("1e-2", "5e-3")
DENSE_DPLUS = (3, 4, 5, 6)
DENSE_FLOOR = 0.99  # a per-bit channel puts ~26-52 errors in every array


def check_dense_grid(name: str, rows_expected: int, trials: int | None) -> Callable[[dict[str, Path]], Checked]:
    def check(outs: dict[str, Path]) -> Checked:
        rows = _sidecar(outs[name])["rows"]
        problems = [f"{name}: {rows_expected - len(rows)} rows missing"] * (rows_expected - len(rows))
        for row in rows:
            if (trials is not None and row["trials"] != trials) or float(row["estimate"]) < DENSE_FLOOR:
                problems.append(f"{name}: p={row['p']} d+={row['d_plus']} gave {row}")
        return Checked(problems, sum(row["trials"] for row in rows))

    return check


def sim_dense_cells() -> list[Cell]:
    grid = len(DENSE_P) * len(DENSE_DPLUS)
    return [
        # the default table --which 2 grid, sized down
        Cell("grid", ("table", "--which", "2", "--trials", str(DENSE_TRIALS)),
             check_dense_grid("grid", grid, DENSE_TRIALS), units=grid),
        # raises ValueError in the CLI's Fraction->str at this commit; kept so
        # the defect shows as a failed cell
        Cell("stratified", ("table", "--which", "2", "--stratified", "--p", "1e-2",
                            "--dplus", "4", "--per-stratum", str(DENSE_PER_STRATUM)),
             check_dense_grid("stratified", 1, None)),
    ]


WORKLOADS: dict[str, Callable[[], list[Cell]]] = {
    "table1": table1_cells,
    "large-r": large_r_cells,
    "sim-sparse": sim_sparse_cells,
    "sim-dense": sim_dense_cells,
}


def build_codes(workload: str) -> list:
    """The workload's codes, built with the package's public constructors
    (the set-up that setup_s times)."""
    from qpcodes.construct import extended_hamming, panchenko, shorten
    from qpcodes.product_sim import default_product_code

    if workload == "table1":
        return [extended_hamming(7), panchenko(7), panchenko(8), extended_hamming(8)]
    if workload == "large-r":
        pan9 = panchenko(9)
        return [panchenko(12), extended_hamming(11), extended_hamming(9), panchenko(10),
                shorten(pan9, list(range(pan9.spec.n - 88, pan9.spec.n)))]
    return [default_product_code()]
