"""Command-line front end: emit triangles, evaluate entries, and run the
exact verification suite with an optional numerical derivative-expansion grid.

All JSON output renders numbers as decimal strings so arbitrary-precision
values survive a round trip; exit status is 0 exactly when every check passed.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from .exact import RATIONAL_RE, format_rational, parse_rational
from .identities import reports_to_json_records, run_suite, structural_checks
from .jets import evaluate_expansion, expansion_grid, residuals_to_json_records
from .noncentral import (
    NoncentralTriangle,
    build_by_explicit,
    build_by_recurrence,
    corrupt_entry,
    evaluate_row,
    explicit_rows,
    recurrence_rows,
    triangle_json_chunks,
    triangle_to_json,  # noqa: F401  unused; perfbench/tracing.py patches this name
)
from .stirling import StirlingTable, check_index

MAX_FAILURES_PRINTED = 25
# The largest `triangle --n-max`: row n holds about n^2/2 coefficients of at most
# log2((n+1)!) bits, within a budget of 64 MiB up to n = 520; (521)! has 1,191 digits,
# under the default int-to-str limit (4,300) that "%d" would otherwise hit midway.
TRIANGLE_N_MAX = 520


def _rational_argument(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncstirling",
        allow_abbrev=False,
        description="Non-central Stirling numbers of the first kind: exact "
                    "polynomial triangles, identity verification, and a "
                    "numerical derivative-expansion cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", allow_abbrev=False,
                         help="emit the polynomial triangle")
    tri.add_argument("--n-max", type=int, default=64,
                     help="largest row N (default 64, at most %d); written row by row, so "
                          "memory grows as one row, about N^3 log N bits, and time as N^4 log N: "
                          "0.09 s, 15 MiB at N=64; 0.8 s, 24 MiB at N=160; 4.0 s, 51 MiB at "
                          "N=256" % TRIANGLE_N_MAX)
    tri.add_argument("--construction", choices=("recurrence", "explicit"),
                     default="recurrence", help="which construction to run")
    tri.add_argument("--format", choices=("json", "csv"), default="json")
    tri.add_argument("--out", default=None, help="output path (default stdout)")

    ver = sub.add_parser(
        "verify",
        allow_abbrev=False,
        help="run every exact check up to --n-max; nonzero exit on any failure",
    )
    ver.add_argument("--n-max", type=int, default=20,
                     help="largest row N (default 20); with --with-oracle 0.18 s, 18 MB "
                          "at N=32; 0.41 s, 27 MB at N=64; 3.6 s, 96 MB at N=128; past "
                          "N=64 the O(N^4) explicit construction takes about half the time")
    ver.add_argument("--with-oracle", action="store_true",
                     help="also run the numerical derivative-expansion grid")
    ver.add_argument("--tol", type=float, default=1e-6,
                     help="relative residual tolerance for the grid (default 1e-6)")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed for the random rational sample (default 0)")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", default=None, help="write the full report here")
    ver.add_argument("--corrupt", metavar="N,K", default=None,
                     help="test hook: perturb one triangle coefficient before "
                          "verifying (must flip the exit status to 1)")

    ev = sub.add_parser("eval", allow_abbrev=False, help="print s(n, k, alpha) exactly")
    ev.add_argument("--n", type=int, required=True,
                    help="costs about n^3 bit operations (7 s at n=4000)")
    ev.add_argument("--k", type=int, required=True)
    ev.add_argument("--alpha", type=_rational_argument, required=True,
                    help='rational, e.g. "-2", "7/3" or "-5/2"')
    ev.add_argument("--beta", type=float, default=None,
                    help="with --x0: also evaluate the derivative expansion")
    ev.add_argument("--x0", type=float, default=None)
    return parser


def _emit(chunks, out_path) -> bool:
    """Write each chunk as it is made, to out_path or, when that is None, to stdout."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return True
    try:
        with open(out_path, "w") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        print("cannot write %s: %s" % (out_path, exc), file=sys.stderr)
        return False
    return True


def triangle_csv_chunks(rows):
    """CSV triangle dump, one chunk per row: n,k,degree,coeffs, coefficients low to high."""
    yield "n,k,degree,coeffs\n"
    for n, row in enumerate(rows):
        yield "".join(["%d,%d,%d,%s\n" % (n, k, len(coeffs) - 1, " ".join(map(str, coeffs)))
                       for k, coeffs in enumerate(row)])


def triangle_to_csv(triangle: NoncentralTriangle) -> str:
    return "".join(triangle_csv_chunks(triangle.rows))


def cmd_triangle(args) -> int:
    if not 0 <= args.n_max <= TRIANGLE_N_MAX:
        print("ncstirling: triangle: --n-max must be in 0..%d" % TRIANGLE_N_MAX, file=sys.stderr)
        return 2
    rows = (explicit_rows if args.construction == "explicit" else recurrence_rows)(args.n_max)
    chunks = (triangle_json_chunks(args.n_max, rows) if args.format == "json"
              else triangle_csv_chunks(rows))
    try:
        return 0 if _emit(chunks, args.out) else 1
    except BrokenPipeError:  # the reader left early; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("ncstirling: triangle: stdout closed before the end", file=sys.stderr)
        return 1


def _structural_json_records(checks) -> list:
    return [
        {
            "check": c.check,
            "n": str(c.n),
            "k": None if c.k is None else str(c.k),
            "ok": c.ok,
            "detail": c.detail,
        }
        for c in checks
    ]


def _verify_csv(checks, identity_reports, oracle_reports) -> str:
    out = io.StringIO()
    out.write("identity,n,alpha,holds\n")
    for c in checks:
        out.write("%s,%d,,%s\n" % (c.check, c.n, "true" if c.ok else "false"))
    for r in identity_reports:
        out.write("%s,%d,%s,%s\n" % (r.identity, r.n, format_rational(r.alpha),
                                     "true" if r.holds else "false"))
    for r in oracle_reports:
        out.write("derivative_expansion,%d,%s,%s\n" % (r.n, format_rational(r.alpha),
                                                       "true" if r.passed else "false"))
    return out.getvalue()


def cmd_verify(args) -> int:
    if args.n_max < 0:
        print("--n-max must be nonnegative", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("--tol must be finite and positive", file=sys.stderr)
        return 2
    if args.corrupt is not None:
        try:
            n_str, k_str = args.corrupt.split(",")
            corrupt = int(n_str), int(k_str)
            check_index(*corrupt, args.n_max)
        except (ValueError, IndexError) as exc:
            print("bad --corrupt argument %r: %s" % (args.corrupt, exc), file=sys.stderr)
            return 2
    table = StirlingTable(args.n_max)
    by_recurrence = build_by_recurrence(args.n_max)
    by_explicit = build_by_explicit(args.n_max)
    if args.corrupt is not None:
        by_recurrence = corrupt_entry(by_recurrence, *corrupt)
        print("test hook: corrupted entry (%s, %s)" % (n_str.strip(), k_str.strip()))

    checks = structural_checks(by_recurrence, by_explicit, table)
    identity_reports = run_suite(table, by_recurrence, seed=args.seed)
    oracle_reports = []
    if args.with_oracle:
        oracle_reports = expansion_grid(by_recurrence, rel_tol=args.tol)

    failed_checks = [c for c in checks if not c.ok]
    failed_identities = [r for r in identity_reports if not r.holds]
    failed_oracle = [r for r in oracle_reports if not r.passed]
    failing = failed_checks + failed_identities + failed_oracle

    print("structural checks: %d run, %d failing" % (len(checks), len(failed_checks)))
    print("identity suite:    %d reports, %d failing (seed=%d)"
          % (len(identity_reports), len(failed_identities), args.seed))
    if args.with_oracle:
        worst = max((r.rel_residual for r in oracle_reports), default=0.0)
        print("expansion grid:    %d points, %d over tol %g, max residual %.3e"
              % (len(oracle_reports), len(failed_oracle), args.tol, worst))

    for record in failing[:MAX_FAILURES_PRINTED]:
        print("FAIL %r" % (record,))
    if len(failing) > MAX_FAILURES_PRINTED:
        print("... %d more failing records" % (len(failing) - MAX_FAILURES_PRINTED))

    if args.out is not None:
        if args.format == "json":
            doc = {
                "seed": str(args.seed),
                "n_max": str(args.n_max),
                "structural": _structural_json_records(checks),
                "identities": reports_to_json_records(identity_reports),
                "oracle": residuals_to_json_records(oracle_reports),
            }
            text = json.dumps(doc, separators=(",", ":")) + "\n"
        else:
            text = _verify_csv(checks, identity_reports, oracle_reports)
        if not _emit([text], args.out):
            return 1

    print("VERIFY: %s" % ("FAIL" if failing else "PASS"))
    return 1 if failing else 0


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    if args.n < 0 or args.k < 0:
        parser.error("--n and --k must be nonnegative")
    if args.k > args.n:
        parser.error("--k must not exceed --n")
    if (args.beta is None) != (args.x0 is None):
        parser.error("--beta and --x0 must be given together")
    if args.beta is not None:
        if not (math.isfinite(args.beta) and math.isfinite(args.x0)):
            parser.error("--beta and --x0 must be finite")
        if not args.x0 > 1.0:
            parser.error("--x0 must exceed 1")
    row = evaluate_row(args.n, args.alpha)
    try:
        text = format_rational(row[args.k])
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        print("ncstirling: eval: s(n,k,alpha) cannot be printed: %s" % exc, file=sys.stderr)
        return 2
    print(text)
    if args.beta is not None:
        value = evaluate_expansion(args.x0, args.alpha, args.beta, row)
        print("expansion n=%d alpha=%s beta=%r x0=%r -> %r"
              % (args.n, format_rational(args.alpha), args.beta, args.x0, value))
    return 0


def _attach_alpha_values(argv) -> list:
    """Rewrite "--alpha VALUE" as "--alpha=VALUE" when VALUE is a rational
    literal, since argparse takes a separate "-5/2" for an option."""
    out = []
    for token in argv:
        if out and out[-1] == "--alpha" and RATIONAL_RE.fullmatch(token):
            out[-1] = "--alpha=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_alpha_values(sys.argv[1:] if argv is None else argv))
    if args.command == "triangle":
        return cmd_triangle(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_eval(args, parser)


if __name__ == "__main__":
    sys.exit(main())
