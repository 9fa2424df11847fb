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

from . import __version__
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
from .erasure import TABLE1_REFERENCE, erasure_report, table1, trailing_shortening_provider
from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix
from .product_sim import (
    TABLE2_REFERENCE,
    SimConfig,
    default_product_code,
    failure_probability,
)
from .spectrum import oracle_spectrum, spectrum_by_doubling, spectrum_of_matrix

# every spelling of the two named families, to the label Table 1 uses
_FAMILIES = {"eh": "hamming", "hamming": "hamming", "pan": "panchenko", "panchenko": "panchenko"}
_NAMED_CODE = re.compile(rf"^({'|'.join(_FAMILIES)})(\d+)$", re.IGNORECASE)

# the g values for which a starting matrix ships with the package
_GENERAL_SEEDS = {0: "M", 2: "S", 3: "example_9_5"}


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _json(obj, sort_keys: bool = False) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def _parse_name(token: str) -> tuple[str, int] | None:
    """(family label, r) for a code named like eh7 or panchenko8, else None."""
    m = _NAMED_CODE.match(token)
    return (_FAMILIES[m.group(1).lower()], int(m.group(2))) if m else None


def _build(family: str, r: int) -> Code:
    return extended_hamming(r) if family == "hamming" else panchenko(r)


def _resolve_code(token: str) -> tuple[Code, list[Path]]:
    """A code named like eh7/panchenko8, or a matrix file with optional
    <file>.json sidecar carrying its metadata."""
    name = _parse_name(token)
    if name:
        return _build(*name), []
    path = Path(token)
    if not path.is_file():
        raise PreconditionError(
            f"{token!r} is neither a named code (eh7, panchenko8, ...) nor a file"
        )
    h = BitMatrix.from_text(path.read_text())
    d = spectrum_of_matrix(h).min_nonzero()
    sidecar = Path(str(path) + ".json")
    if not sidecar.is_file():
        return Code(CodeSpec(h.cols, h.nrows, d, Lineage()), h), [path]
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
    return code, [path, sidecar]


def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    return f"{float(value):.{digits}f}"


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
    code, inputs = _resolve_code(args.code)
    if args.method == "oracle":
        ws = oracle_spectrum(code)
    elif args.method == "recursion":
        ws = spectrum_by_doubling(code)
    else:  # both: never emit anything on mismatch
        by_recursion = spectrum_by_doubling(code)
        by_oracle = oracle_spectrum(code)
        if by_recursion != by_oracle:
            raise ConsistencyError(
                "recursion and oracle spectra disagree; refusing to write output"
            )
        ws = by_oracle
    _emit(args, _json(ws.to_json(), sort_keys=True), inputs=inputs)
    print(f"wrote spectrum of [{ws.n},{ws.dimension}] code to {args.out}")


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------

_ERASURE_COLUMNS = [
    "rho",
    "total",
    "psi",
    "psi_tilde",
    "s_exact_or_estimate",
    "ci_halfwidth",
    "delta_lower",
    "delta_tilde",
    "delta_tilde_2",
    "delta_exact_or_estimate",
    "delta_entropy_bound",
    "delta_weak_bound",
    "method",
]


def _cmd_erasure(args: argparse.Namespace) -> None:
    if args.digits < 0:
        raise PreconditionError("--digits must be >= 0")
    code, inputs = _resolve_code(args.code)
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

    provider = trailing_shortening_provider(code)
    reports = [
        erasure_report(
            code,
            rho,
            method=method,
            samples=10**8 if args.sample is None else args.sample,
            master_seed=args.seed,
            z=args.z,
            recursion_depth=args.recursive,
            provider=provider,
        )
        for rho in range(args.rho_min, args.rho_max + 1)
    ]

    rows = []
    rows_json = []
    for rep in reports:
        s_val = rep.s_exact_or_estimate
        rows.append(
            [
                rep.rho,
                rep.total,
                rep.psi,
                rep.psi_tilde,
                (str(s_val) if s_val is not None and s_val.denominator == 1
                 else _fmt(s_val, args.digits)),
                _fmt(rep.ci_halfwidth, args.digits),
                _fmt(rep.delta_lower, args.digits),
                _fmt(rep.delta_tilde, args.digits),
                _fmt(rep.delta_tilde_2, args.digits),
                _fmt(rep.delta_exact_or_estimate, args.digits),
                _fmt(rep.entropy_bound, args.digits),
                _fmt(rep.weak_bound, args.digits),
                rep.method,
            ]
        )
        rows_json.append(
            {
                "rho": rep.rho,
                "total": str(rep.total),
                "psi": str(rep.psi),
                "psi_tilde": str(rep.psi_tilde),
                "s_exact_or_estimate": _exact(s_val),
                "ci_halfwidth": rep.ci_halfwidth,
                "delta_lower": _exact(rep.delta_lower),
                "delta_tilde": _exact(rep.delta_tilde),
                "delta_tilde_2": _exact(rep.delta_tilde_2),
                "delta_exact_or_estimate": _exact(rep.delta_exact_or_estimate),
                "entropy_bound": rep.entropy_bound,
                "weak_bound": rep.weak_bound,
                "method": rep.method,
            }
        )

    sidecar = {"code": code.spec.to_json(), "digits": args.digits, "rows": rows_json}
    _emit(args, _csv(_ERASURE_COLUMNS, rows), sidecar, inputs, args.seed)
    print(f"wrote {len(reports)} erasure rows to {args.out}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> None:
    cfg = SimConfig(
        p=args.p,
        d_plus=args.dplus,
        trials=args.trials,
        master_seed=args.seed,
        strategy="stratified" if args.stratified else "plain",
    )
    res = failure_probability(
        default_product_code(),
        cfg,
        per_stratum=args.per_stratum,
        k_max=args.kmax,
    )
    payload = res.to_json()
    del payload["master_seed"]  # the manifest records it
    _emit(args, _json(payload), master_seed=args.seed)
    print(
        f"simulated {res.trials} trials at p={args.p}, d_plus={args.dplus}: "
        f"failure estimate {float(res.estimate):.6g}"
    )


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

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
    if args.digits < 0:
        raise PreconditionError("--digits must be >= 0")
    if args.which == 1:
        codes = _table1_codes(_parse_list(args.codes, str) if args.codes else [])
        rhos = tuple(_parse_list(args.rhos, int))
        cells = table1(
            codes,
            rhos,
            exact_limit=args.exact_limit,
            samples=args.samples,
            master_seed=args.seed,
        )
        rows = []
        rows_json = []
        for cell in cells:
            rows.append(
                [
                    cell.label,
                    cell.r,
                    cell.n,
                    cell.rho,
                    cell.report.method,
                    _fmt(cell.value, args.digits),
                    cell.reference or "",
                    _fmt(cell.deviation, args.digits) if cell.deviation is not None else "",
                ]
            )
            rows_json.append(
                {
                    "code": cell.label,
                    "r": cell.r,
                    "n": cell.n,
                    "rho": cell.rho,
                    "method": cell.report.method,
                    "value": _exact(cell.value),
                    "reference": cell.reference,
                    "deviation": cell.deviation,
                }
            )
        header = ["code", "r", "n", "rho", "method", "value", "reference", "deviation"]
        _emit(args, _csv(header, rows), {"table": 1, "rows": rows_json}, master_seed=args.seed)
        print(f"wrote {len(cells)} benchmark cells to {args.out}")
        return

    ps = _parse_list(args.p, float)
    dplus = _parse_list(args.dplus, int)
    strategy = "stratified" if args.stratified else "plain"
    pc = default_product_code()
    rows = []
    rows_json = []
    for p in ps:
        for dp in dplus:
            cfg = SimConfig(p=p, d_plus=dp, trials=args.trials,
                            master_seed=args.seed, strategy=strategy)
            res = failure_probability(pc, cfg, per_stratum=args.per_stratum,
                                      k_max=args.kmax)
            ref = TABLE2_REFERENCE.get((p, dp))
            deviation = float(res.estimate) - float(ref) if ref is not None else None
            rows.append(
                [
                    repr(p),
                    dp,
                    res.strategy,
                    res.trials,
                    res.failures,
                    f"{float(res.estimate):.{args.digits}g}",
                    f"{res.ci95:.{args.digits}g}",
                    "" if res.tail_bound is None else f"{res.tail_bound:.{args.digits}g}",
                    ref or "",
                    "" if deviation is None else f"{deviation:.{args.digits}g}",
                ]
            )
            rows_json.append(
                {
                    "p": p,
                    "d_plus": dp,
                    "method": res.strategy,
                    "trials": res.trials,
                    "failures": res.failures,
                    "estimate": float(res.estimate),
                    "ci95": res.ci95,
                    "tail_bound": res.tail_bound,
                    "reference": ref,
                    "deviation": deviation,
                }
            )
    header = ["p", "d_plus", "method", "trials", "failures", "estimate",
              "ci95", "tail_bound", "reference", "deviation"]
    _emit(args, _csv(header, rows), {"table": 2, "rows": rows_json}, master_seed=args.seed)
    print(f"wrote {len(rows_json)} simulation cells to {args.out}")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
