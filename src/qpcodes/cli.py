"""Command-line entry point wiring construction, spectra, erasure analysis,
benchmark tables, and the product-code simulation.

Every run writes its primary artifact to --out plus a manifest
(<out>.manifest.json) recording the command, the full parameter set, the
package version, and SHA-256 digests of all files read and written, so a
rerun can be checked for bit-exact reproduction. Exit codes: 0 ok, 2
precondition refusal, 3 consistency-check failure, 4 budget exceeded.

Thread count comes only from the QPCODES_THREADS environment variable;
it changes wall time, never results.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import __version__, spectrum
from .construct import (
    Code,
    CodeSpec,
    Lineage,
    SEED_NAMES,
    extended_hamming,
    general_qp,
    panchenko,
    seed,
    shorten,
)
from .erasure import TABLE1_REFERENCE, SpectrumProvider, erasure_report, table1, trailing_shortening_provider
from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix
from .product_sim import (
    TABLE2_REFERENCE,
    SimConfig,
    default_product_code,
    failure_probabilities,
    failure_probability,
)
from .spectrum import spectrum_by_doubling

# every spelling of the two named families, to the label Table 1 uses
_FAMILIES = {"eh": "hamming", "hamming": "hamming", "pan": "panchenko", "panchenko": "panchenko"}
_NAMED_CODE = re.compile(rf"^({'|'.join(_FAMILIES)})(\d+)$", re.IGNORECASE)

# the g values for which a starting matrix ships with the package
_GENERAL_SEEDS = {0: "M", 2: "S", 3: "example_9_5"}

# a double's exact decimal expansion ends within 1,074 fractional digits, so
# more print only zeros; near 2^31 the formatter would build a 2 GiB cell
_MAX_DIGITS = 1074


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _json(obj, sort_keys: bool = False) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def _emit(
    args: argparse.Namespace,
    primary: str,
    sidecar: dict | None = None,
    inputs: Iterable[Path] = (),
    master_seed: int | None = None,
) -> None:
    """The primary artifact at --out, its JSON sidecar <out>.json if there
    is one, and the manifest <out>.manifest.json over both."""
    out = Path(args.out)
    files = {out: primary}
    if sidecar is not None:
        files[Path(str(out) + ".json")] = _json(sidecar)
    for path, text in files.items():
        path.write_text(text)
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in sorted(vars(args).items()) if k != "handler"},
        "master_seed": master_seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in files},
    }
    Path(str(out) + ".manifest.json").write_text(_json(manifest, sort_keys=True))


def _emit_table(
    args: argparse.Namespace,
    columns: list[tuple[str, str]],
    rows: list[list[tuple]],
    sidecar: dict,
    inputs: Iterable[Path] = (),
    master_seed: int | None = None,
) -> None:
    """A table through _emit: --out as CSV, and the sidecar with a "rows"
    list appended. columns are (CSV header, sidecar key) pairs; each row
    holds one (CSV cell, sidecar value) pair per column, in the same order.
    The header comes from columns, so a table with no rows still has one."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([header for header, _ in columns])
    json_rows = []
    for row in rows:
        writer.writerow([cell for cell, _ in row])
        json_rows.append({key: value for (_, key), (_, value) in zip(columns, row)})
    _emit(args, buf.getvalue(), {**sidecar, "rows": json_rows}, inputs, master_seed)


def _parse_name(token: str) -> tuple[str, int] | None:
    """(family label, r) for a code named like eh7 or panchenko8, else None."""
    m = _NAMED_CODE.match(token)
    if not m:
        return None
    try:
        r = int(m.group(2))
    except ValueError:  # past the interpreter's limit on digits
        raise PreconditionError(f"{m.group(1)}<{len(m.group(2))}-digit r>: too many digits to read") from None
    return _FAMILIES[m.group(1).lower()], r


def _build(family: str, r: int) -> Code:
    return extended_hamming(r) if family == "hamming" else panchenko(r)


def _resolve_code(token: str) -> tuple[Code, list[Path], SpectrumProvider]:
    """A code named like eh7/panchenko8, or a matrix file with optional
    <file>.json sidecar carrying its metadata; then the files read, and the
    code's spectrum provider, which keeps a matrix file's spectrum, walked
    once for its distance, as its full length."""
    name = _parse_name(token)
    if name:
        code = _build(*name)
        return code, [], trailing_shortening_provider(code)
    path = Path(token)
    if not path.is_file():
        raise PreconditionError(
            f"{token!r} is neither a named code (eh7, panchenko8, ...) nor a file"
        )
    h = BitMatrix.from_text(path.read_text())
    walked = spectrum.spectrum_of_matrix(h)
    d = walked.min_nonzero()
    sidecar = Path(str(path) + ".json")
    if not sidecar.is_file():
        code = Code(CodeSpec(h.cols, h.nrows, d, Lineage()), h)
        return code, [path], trailing_shortening_provider(code, walked)
    try:
        spec = CodeSpec.from_json(json.loads(sidecar.read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise PreconditionError(f"{sidecar} is not a code sidecar: {exc!r}") from None
    code = Code(spec, h)
    if code.spec.d != d:
        # psi and every bound downstream are taken at the stated d
        raise ConsistencyError(
            f"{sidecar} says d={code.spec.d}, but the matrix has minimum distance {d}"
        )
    return code, [path, sidecar], trailing_shortening_provider(code, walked)


def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    return f"{float(value):.{digits}f}"


def _deviation(value, reference: str | None) -> float | None:
    """A table value less its published reference, None when either is missing."""
    if value is None or reference is None:
        return None
    return float(value) - float(reference)


def _exact(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, Fraction) or isinstance(value, int):
        return str(value)
    return repr(float(value))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> None:
    if args.family in ("eh", "panchenko"):
        if args.r is None:
            raise PreconditionError(f"--family {args.family} needs --r")
        code = _build(_FAMILIES[args.family], args.r)
    elif args.family == "general":
        if args.r is None or args.g is None:
            raise PreconditionError("--family general needs --r and --g")
        name = _GENERAL_SEEDS.get(args.g)
        if name is None:
            raise PreconditionError(
                f"no starting matrix ships for g={args.g}; available g: "
                f"{sorted(_GENERAL_SEEDS)}"
            )
        code = general_qp(args.r, args.g, seed(name))
    else:  # seed
        if args.seed is None:
            raise PreconditionError(
                f"--family seed needs --seed with one of {', '.join(SEED_NAMES)}"
            )
        code = seed(args.seed)
    if args.shorten:
        n = code.spec.n
        if not 0 < args.shorten < n:
            raise PreconditionError(f"--shorten must be in 1..{n - 1}")
        code = shorten(code, list(range(n - args.shorten, n)))
    _emit(args, code.H.to_text(), code.spec.to_json())
    spec = code.spec
    print(f"wrote [{spec.n},{code.dimension()},{spec.d}] matrix to {args.out}")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args: argparse.Namespace) -> None:
    code, inputs, provider = _resolve_code(args.code)
    if args.method == "oracle":
        ws = provider(code.spec.n)
    else:  # never emit anything on mismatch
        ws = spectrum_by_doubling(code)
        # a matrix file (one with inputs) had its spectrum walked already,
        # so the recursion is checked against it under --method recursion too
        if (args.method == "both" or inputs) and ws != provider(code.spec.n):
            raise ConsistencyError(
                "recursion and oracle spectra disagree; refusing to write output"
            )
    _emit(args, _json(ws.to_json(), sort_keys=True), inputs=inputs)
    print(f"wrote spectrum of [{ws.n},{ws.dimension}] code to {args.out}")


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------

# (CSV header, sidecar key) per column of an erasure table
_ERASURE_COLUMNS = [
    ("rho", "rho"), ("total", "total"), ("psi", "psi"), ("psi_tilde", "psi_tilde"),
    ("s_exact_or_estimate", "s_exact_or_estimate"), ("ci_halfwidth", "ci_halfwidth"),
    ("delta_lower", "delta_lower"), ("delta_tilde", "delta_tilde"), ("delta_tilde_2", "delta_tilde_2"),
    ("delta_exact_or_estimate", "delta_exact_or_estimate"),
    ("delta_entropy_bound", "entropy_bound"), ("delta_weak_bound", "weak_bound"), ("method", "method"),
]


def _cmd_erasure(args: argparse.Namespace) -> None:
    if not 0 <= args.digits <= _MAX_DIGITS:
        raise PreconditionError(f"--digits must be in 0..{_MAX_DIGITS}")
    code, inputs, provider = _resolve_code(args.code)
    if args.rho_min > args.rho_max:
        raise PreconditionError("--rho-min exceeds --rho-max")
    if args.sample is not None:
        method = "sampled"
    elif args.exact:
        method = "exact"
    elif args.psi:
        method = "psi-bound"
    elif args.recursive is not None:
        method = "recursive"
    else:
        method = "auto"

    digits = args.digits
    rows = []
    for rho in range(args.rho_min, args.rho_max + 1):
        rep = erasure_report(
            code,
            rho,
            method=method,
            samples=10**8 if args.sample is None else args.sample,
            master_seed=args.seed,
            z=args.z,
            recursion_depth=args.recursive,
            provider=provider,
        )
        s_val = rep.s_exact_or_estimate
        s_cell = str(s_val) if s_val is not None and s_val.denominator == 1 else _fmt(s_val, digits)
        rows.append([
            (rep.rho, rep.rho),
            (rep.total, str(rep.total)),
            (rep.psi, str(rep.psi)),
            (rep.psi_tilde, str(rep.psi_tilde)),
            (s_cell, _exact(s_val)),
            (_fmt(rep.ci_halfwidth, digits), rep.ci_halfwidth),
            (_fmt(rep.delta_lower, digits), _exact(rep.delta_lower)),
            (_fmt(rep.delta_tilde, digits), _exact(rep.delta_tilde)),
            (_fmt(rep.delta_tilde_2, digits), _exact(rep.delta_tilde_2)),
            (_fmt(rep.delta_exact_or_estimate, digits), _exact(rep.delta_exact_or_estimate)),
            (_fmt(rep.entropy_bound, digits), rep.entropy_bound),
            (_fmt(rep.weak_bound, digits), rep.weak_bound),
            (rep.method, rep.method),
        ])
    sidecar = {"code": code.spec.to_json(), "digits": digits}
    _emit_table(args, _ERASURE_COLUMNS, rows, sidecar, inputs, args.seed)
    print(f"wrote {len(rows)} erasure rows to {args.out}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _sim_configs(args: argparse.Namespace, p: float, dplus: list[int]) -> list[SimConfig]:
    """One SimConfig per d_plus at p, from the --trials, --seed and
    --stratified of simulate or table --which 2."""
    return [
        SimConfig(p=p, d_plus=dp, trials=args.trials, master_seed=args.seed,
                  strategy="stratified" if args.stratified else "plain")
        for dp in dplus
    ]


def _cmd_simulate(args: argparse.Namespace) -> None:
    cfg, = _sim_configs(args, args.p, [args.dplus])
    res = failure_probability(default_product_code(), cfg, per_stratum=args.per_stratum, k_max=args.kmax)
    payload = res.to_json()
    del payload["master_seed"]  # the manifest records it
    _emit(args, _json(payload), master_seed=args.seed)
    print(
        f"simulated {res.trials} trials at p={args.p}, d_plus={args.dplus}: "
        f"failure estimate {res.estimate_float:.6g}"
    )


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# (CSV header, sidecar key) per column of Table 1 and of Table 2
_TABLE1_COLUMNS = [
    ("code", "code"), ("r", "r"), ("n", "n"), ("rho", "rho"), ("method", "method"),
    ("value", "value"), ("reference", "reference"), ("deviation", "deviation"),
]
_TABLE2_COLUMNS = [
    ("p", "p"), ("d_plus", "d_plus"), ("method", "method"), ("trials", "trials"),
    ("failures", "failures"), ("estimate", "estimate"), ("ci95", "ci95"),
    ("tail_bound", "tail_bound"), ("reference", "reference"), ("deviation", "deviation"),
]


def _parse_list(text: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise PreconditionError(f"bad list {text!r}: {exc}") from None


def _table1_codes(tokens: list[str]) -> list[tuple[str, Code]]:
    """(label, code) per --codes token, every token checked before any is built;
    no tokens means the published grid, the keys of TABLE1_REFERENCE."""
    names = [_parse_name(tok) for tok in tokens] if tokens else list(TABLE1_REFERENCE)
    for tok, name in zip(tokens, names):
        if name is None:
            raise PreconditionError(f"unknown benchmark code {tok!r}; name one like eh7 or panchenko8")
    return [(family, _build(family, r)) for family, r in names]


def _cmd_table(args: argparse.Namespace) -> None:
    if not 0 <= args.digits <= _MAX_DIGITS:
        raise PreconditionError(f"--digits must be in 0..{_MAX_DIGITS}")
    digits = args.digits
    if args.which == 1:
        codes = _table1_codes(_parse_list(args.codes, str) if args.codes else [])
        rhos = tuple(_parse_list(args.rhos, int))
        rows = []
        for label, code, rep in table1(codes, rhos, exact_limit=args.exact_limit, samples=args.samples,
                                       master_seed=args.seed):
            r, value = code.spec.r, rep.delta_exact_or_estimate
            ref = TABLE1_REFERENCE.get((label, r), {}).get(rep.rho)
            deviation = _deviation(value, ref)
            rows.append([
                (label, label),
                (r, r),
                (rep.n, rep.n),
                (rep.rho, rep.rho),
                (rep.method, rep.method),
                (_fmt(value, digits), _exact(value)),
                (ref or "", ref),
                (_fmt(deviation, digits), deviation),
            ])
        _emit_table(args, _TABLE1_COLUMNS, rows, {"table": 1}, master_seed=args.seed)
        print(f"wrote {len(rows)} benchmark cells to {args.out}")
        return

    ps = _parse_list(args.p, float)
    dplus = _parse_list(args.dplus, int)
    # every cell is checked before any trial is drawn
    grid = [_sim_configs(args, p, dplus) for p in ps]
    pc = default_product_code()
    rows = []
    for cfgs in grid:
        # the cells of one p share their trials, which are drawn once
        for res in failure_probabilities(pc, cfgs, per_stratum=args.per_stratum, k_max=args.kmax):
            p, dp = res.p, res.d_plus
            estimate = res.estimate_float
            ref = TABLE2_REFERENCE.get((p, dp))
            deviation = _deviation(estimate, ref)
            rows.append([
                (repr(p), p),
                (dp, dp),
                (res.strategy, res.strategy),
                (res.trials, res.trials),
                (res.failures, res.failures),
                (f"{estimate:.{digits}g}", estimate),
                (f"{res.ci95:.{digits}g}", res.ci95),
                ("" if res.tail_bound is None else f"{res.tail_bound:.{digits}g}", res.tail_bound),
                (ref or "", ref),
                ("" if deviation is None else f"{deviation:.{digits}g}", deviation),
            ])
    _emit_table(args, _TABLE2_COLUMNS, rows, {"table": 2}, master_seed=args.seed)
    print(f"wrote {len(rows)} simulation cells to {args.out}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcodes",
        description="Quasi-perfect distance-4 binary codes: construction, "
        "weight spectra, erasure statistics, and product-code simulation.",
    )
    parser.add_argument("--version", action="version", version=f"qpcodes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a parity-check matrix file")
    p_con.add_argument("--family", required=True, choices=["eh", "panchenko", "general", "seed"])
    p_con.add_argument("--r", type=int, help="redundancy (rows of H)")
    p_con.add_argument("--g", type=int, help="family parameter for --family general")
    p_con.add_argument("--seed", choices=list(SEED_NAMES), help="starting matrix for --family seed")
    p_con.add_argument("--shorten", type=int, default=0, metavar="K",
                       help="remove the trailing K columns")
    p_con.add_argument("--out", required=True)
    p_con.set_defaults(handler=_cmd_construct)

    p_spec = sub.add_parser("spectrum", help="weight spectrum as JSON")
    p_spec.add_argument("--code", required=True,
                        help="named code (eh7, panchenko8, ...) or matrix file")
    p_spec.add_argument("--method", choices=["recursion", "oracle", "both"], default="oracle")
    p_spec.add_argument("--out", required=True)
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_era = sub.add_parser("erasure", help="erasure-correction statistics as CSV")
    p_era.add_argument("--code", required=True)
    p_era.add_argument("--rho-min", type=int, required=True)
    p_era.add_argument("--rho-max", type=int, required=True)
    mode = p_era.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact pattern enumeration")
    mode.add_argument("--sample", type=int, metavar="N", help="Monte Carlo with N samples")
    mode.add_argument("--psi", action="store_true", help="closed-form bound only")
    mode.add_argument("--recursive", type=int, metavar="DEPTH",
                      help="recursive bound truncated at DEPTH")
    p_era.add_argument("--z", type=float, help="also emit entropy floors for 2^-z spectra")
    p_era.add_argument("--seed", type=int, default=1)
    p_era.add_argument("--digits", type=int, default=6)
    p_era.add_argument("--out", required=True)
    p_era.set_defaults(handler=_cmd_erasure)

    p_sim = sub.add_parser("simulate", help="product-code failure probability as JSON")
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--dplus", type=int, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--stratified", action="store_true")
    p_sim.add_argument("--kmax", type=int, help="cap on the error-count strata")
    p_sim.add_argument("--per-stratum", type=int, default=2000, metavar="M")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_tab = sub.add_parser("table", help="benchmark reproduction grids as CSV")
    p_tab.add_argument("--which", type=int, choices=[1, 2], required=True)
    p_tab.add_argument("--codes", help="comma list for table 1 (default: all four)")
    p_tab.add_argument("--rhos", default="4,5,6,7")
    p_tab.add_argument("--samples", type=int, default=10**8)
    p_tab.add_argument("--exact-limit", type=int, default=10**9)
    p_tab.add_argument("--p", default="1e-2,5e-3", help="comma list for table 2")
    p_tab.add_argument("--dplus", default="3,4,5,6", help="comma list for table 2")
    p_tab.add_argument("--trials", type=int, default=20000)
    p_tab.add_argument("--stratified", action="store_true")
    p_tab.add_argument("--kmax", type=int)
    p_tab.add_argument("--per-stratum", type=int, default=2000, metavar="M")
    p_tab.add_argument("--seed", type=int, default=1)
    p_tab.add_argument("--digits", type=int, default=6)
    p_tab.add_argument("--out", required=True)
    p_tab.set_defaults(handler=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
