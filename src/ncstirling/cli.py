"""Command-line front end: emit triangles, evaluate entries, and run the
exact verification suite with an optional numerical derivative-expansion grid.

All JSON output renders numbers as decimal strings so arbitrary-precision
values survive a round trip; exit status is 0 exactly when every check passed.
"""
from __future__ import annotations

import argparse
import codecs
import contextlib
import math
import os
import re
import sys
from decimal import Decimal
from functools import partial
from importlib import import_module

from .exact import format_rational, parse_rational
from .stirling import StirlingTable, check_index, entry_value, last_scaled_row

def _deferred(module: str, name: str):
    """A function that imports ncstirling.<module> when it is called, then calls its name."""
    def call(*args, **kwargs):
        return getattr(import_module("." + module, __package__), name)(*args, **kwargs)
    return call


# The work and the text of the commands, from modules that not every command runs: a process with
# no bytecode cache compiles every module it imports, and eval and --help need none of them. Each
# is a plain attribute, so a replacement set before a command runs (a tracer's wrapper) is called.
corrupt_entry = _deferred("noncentral", "corrupt_entry")
csv_renderer = _deferred("noncentral", "csv_renderer")
explicit_rows = _deferred("noncentral", "explicit_rows")
json_renderer = _deferred("noncentral", "json_renderer")
recurrence_rows = _deferred("noncentral", "recurrence_rows")
render_chunks = _deferred("noncentral", "render_chunks")
write_behind = _deferred("noncentral", "write_behind")
write_in_turns = _deferred("turns", "write_in_turns")
run_suite = _deferred("identities", "run_suite")
structural_checks = _deferred("identities", "structural_checks")
verify_csv_chunks = _deferred("identities", "verify_csv_chunks")
verify_json_chunks = _deferred("identities", "verify_json_chunks")
evaluate_expansion = _deferred("jets", "evaluate_expansion")
expansion_grid = _deferred("jets", "expansion_grid")
# No command calls these five; they are here for perfbench/tracing.py, which wraps them.
build_by_explicit = _deferred("noncentral", "build_by_explicit")
build_by_recurrence = _deferred("noncentral", "build_by_recurrence")
triangle_to_json = _deferred("noncentral", "triangle_to_json")
reports_to_json_records = _deferred("identities", "reports_to_json_records")
residuals_to_json_records = _deferred("identities", "residuals_to_json_records")


MAX_FAILURES_PRINTED = 25
# The largest `triangle --n-max`: the last n whose row, about n^2/2 coefficients of at most
# log2((n+1)!) bits, packs into 64 MiB. The process holds two rows of ints while the recurrence
# makes the next: peak RSS 27.1 MiB at n = 256, 99.5 MiB at 520 (JSON to /dev/null). (521)!
# has 1,191 digits, under the default int-to-str limit (4,300) that str() in "%s" would hit.
TRIANGLE_N_MAX = 520
# The recurrence triangles written by two processes that take turns (ncstirling.turns). To a
# reader that hashes 1 MiB reads, two processes against one from the same code, alternating
# pairs, JSON and CSV (2-vCPU Intel Xeon VM, Python 3.11.7), two were faster in 10 of 20 pairs
# at N=96, 19 of 40 at N=104 (2.4-2.6% slower in the JSON medians) and 27 of 40 at N=112
# (0.1-9.7% faster in all four medians). They take more CPU time and memory than one: at
# N=160, 1.2 s of CPU time and 29 MiB peak RSS each, 55 MiB together, against 0.7-0.9 s and
# 19 MiB, so the path stops at 160, the largest size of the benchmark.
TRIANGLE_TWO_PROCESS_N_MIN = 112
TRIANGLE_TWO_PROCESS_N_MAX = 160
# The largest `verify --n-max`: twice the largest pinned size (64); time grows as N^4 past it.
VERIFY_N_MAX = 128
EVAL_N_MAX = 2000  # the largest `eval --n`: a whole row (k = n, or --beta) takes about 2 s at 7/3
# The most digits of p and q in eval's --alpha = p/q in lowest terms: a whole row at n = 2000
# (k = n, or --beta) takes 1.5-2.0 s at 7/3 and 5.5-5.7 s at 13717421/109739369, as its integers
# gain bits at every step (medians of 3 processes, 2-vCPU Intel Xeon VM, Python 3.11.7).
EVAL_ALPHA_DIGITS = 9
# verify --corrupt N,K: two integers in ASCII digits (the integer part of RATIONAL_RE); int()
# alone would also read "1_0" and non-ASCII digits, which --alpha refuses.
CORRUPT_RE = re.compile(r"\s*([+-]?[0-9]+)\s*,\s*([+-]?[0-9]+)\s*")


class Refusal(Exception):
    """Refusal(status, message): a value a command cannot serve (status 2) or an --out it cannot
    write (1); main returns the status, with one "ncstirling:" stderr line if stderr takes it."""


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
                     help="largest row N (default 64, at most %d); written as it is built, so "
                          "memory is two rows of ints, about N^3 log N bits, plus about 1 MiB of "
                          "text, and time grows as N^4 log N: 0.11 s, 16 MiB at N=64; 5.2 s, 27 "
                          "MiB at N=256; 117 s, 100 MiB at N=520. From N=%d to %d two processes "
                          "write the recurrence, taking turns, with more CPU time and memory: "
                          "0.75 s, 1.2 s of CPU time and 29 MiB each (55 MiB in all) at N=160, "
                          "where one process takes 0.9 s and 19 MiB"
                          % (TRIANGLE_N_MAX, TRIANGLE_TWO_PROCESS_N_MIN,
                             TRIANGLE_TWO_PROCESS_N_MAX))
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
                     help="largest row N (default 20, at most %d); rows are checked as they "
                          "are built: with --with-oracle 0.20 s, 16 MiB at N=32; 0.64 s, 19 MiB "
                          "at N=64; 5.0 s, 32 MiB at N=128, or 34 MiB with --out; past N=64 the "
                          "O(N^4) explicit sum and the identity suite dominate" % VERIFY_N_MAX)
    ver.add_argument("--with-oracle", action="store_true",
                     help="also run the numerical derivative-expansion grid")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed for the random rational sample (default 0)")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", default=None, help="write the full report here")
    ver.add_argument("--corrupt", metavar="N,K", default=None,
                     help="test hook: perturb one triangle coefficient before "
                          "verifying (must flip the exit status to 1)")

    ev = sub.add_parser("eval", allow_abbrev=False, help="print s(n, k, alpha) exactly")
    ev.add_argument("--n", type=int, required=True,
                    help="at most %d; O(n (k+1)) integer steps, a whole row at k = n or with "
                         "--beta: 1.5-2.0 s at n=2000 and alpha 7/3" % EVAL_N_MAX)
    ev.add_argument("--k", type=int, required=True)
    ev.add_argument("--alpha", type=_rational_argument, required=True,
                    help='rational p/q, e.g. "-2", "7/3" or "-5/2"; in lowest terms p and q have '
                         'at most %d digits (a whole row at n=2000: 5.5-5.7 s)' % EVAL_ALPHA_DIGITS)
    ev.add_argument("--beta", type=float, default=None,
                    help='with --x0: also evaluate the derivative expansion; a float, '
                         'e.g. "2.5" or "-1e3"')
    ev.add_argument("--x0", type=float, default=None)
    return parser


def _open_out(path):
    """Open --out before any work, so that a bad path costs nothing; a null context for None."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise Refusal(1, "cannot write %s: %s" % (path, exc))


def _emit(write, out) -> None:
    """Call write(stream) with stdout when out is None, else with the open --out file, which
    it then closes so that a failing flush is refused here too."""
    if out is None:
        write(sys.stdout)
        return
    try:
        with out:
            write(out)
    except OSError as exc:
        raise Refusal(1, "cannot write %s: %s" % (out.name, exc))


def triangle_to_csv(triangle) -> str:
    return "".join(render_chunks(csv_renderer(triangle.n_max), triangle.rows))


def _writes_in_turns(args, stream, out) -> bool:
    """Whether triangle writes from two processes that take turns: the recurrence, --n-max
    from TRIANGLE_TWO_PROCESS_N_MIN to TRIANGLE_TWO_PROCESS_N_MAX, and a stream the command
    owns (the --out file, or stdout as the interpreter opened it) that gets ASCII text as its
    own bytes, from a process that can fork, has one thread and may run on two CPUs."""
    if (args.construction != "recurrence"
            or not TRIANGLE_TWO_PROCESS_N_MIN <= args.n_max <= TRIANGLE_TWO_PROCESS_N_MAX
            or not hasattr(os, "fork")):
        return False
    if out is None and sys.stdout is not sys.__stdout__:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threading = sys.modules.get("threading")
    return ((cpus or 1) >= 2 and (threading is None or threading.active_count() == 1)
            and codecs.lookup(stream.encoding).name in ("utf-8", "ascii"))


def cmd_triangle(args) -> int:
    if not 0 <= args.n_max <= TRIANGLE_N_MAX:
        raise Refusal(2, "--n-max must be in 0..%d" % TRIANGLE_N_MAX)
    # log10 (N+1)!, the sum of row N's absolute coefficients, bounds the digits of each one up to
    # row N: str() of one past a lowered int-to-str limit would end the text in a traceback.
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit in this Python
    if limit and math.lgamma(args.n_max + 2) / math.log(10) >= limit:
        raise Refusal(2, "--n-max %d may write coefficients longer than the int-to-str limit "
                      "of %d digits (PYTHONINTMAXSTRDIGITS)" % (args.n_max, limit))
    with _open_out(args.out) as out:
        renderer = (json_renderer if args.format == "json" else csv_renderer)(args.n_max)
        rows = (explicit_rows if args.construction == "explicit" else recurrence_rows)(args.n_max)
        if _writes_in_turns(args, sys.stdout if out is None else out, out):
            _emit(partial(write_in_turns, rows, renderer, args.n_max), out)
        else:
            _emit(partial(write_behind, render_chunks(renderer, rows)), out)
    return 0


def cmd_verify(args) -> int:
    if args.n_max < 0:
        raise Refusal(2, "--n-max must be nonnegative")
    if args.n_max > VERIFY_N_MAX:
        raise Refusal(2, "--n-max must be at most %d" % VERIFY_N_MAX)
    if args.corrupt is not None:
        try:
            match = CORRUPT_RE.fullmatch(args.corrupt)
            if match is None:
                raise ValueError("expected two integers in ASCII digits")
            corrupt_n, corrupt_k = map(int, match.groups())
            check_index(corrupt_n, corrupt_k, args.n_max)
        except (ValueError, IndexError) as exc:
            raise Refusal(2, "bad --corrupt argument %r: %s" % (args.corrupt, exc))
    whole = -1  # the last row that expansion_grid reads whole: none without --with-oracle
    if args.with_oracle:
        from .jets import GRID_MAX_ORDER as whole, GRID_REL_TOL as tol
    with _open_out(args.out) as out:
        table = StirlingTable(args.n_max)
        rows = recurrence_rows(args.n_max)
        if args.corrupt is not None:
            rows = corrupt_entry(rows, corrupt_n, corrupt_k)
            print("test hook: corrupted entry (%d, %d)" % (corrupt_n, corrupt_k))
        kept = []  # of each row in its one pass, what run_suite (entry 1) and expansion_grid read

        def keep(rows):
            for n, row in enumerate(rows):
                kept.append(row if n <= whole else row[:2])
                yield row

        checks = structural_checks(keep(rows), explicit_rows(args.n_max), table)
        identity_reports = run_suite(table, kept, seed=args.seed)
        oracle_reports = expansion_grid(kept) if args.with_oracle else []

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
                  % (len(oracle_reports), len(failed_oracle), tol, worst))

        for record in failing[:MAX_FAILURES_PRINTED]:
            print("FAIL %r" % (record,))
        if len(failing) > MAX_FAILURES_PRINTED:
            print("... %d more failing records" % (len(failing) - MAX_FAILURES_PRINTED))

        if out is not None:
            report = (partial(verify_json_chunks, args.seed, args.n_max) if args.format == "json"
                      else verify_csv_chunks)
            _emit(partial(write_behind, report(checks, identity_reports, oracle_reports)), out)

    print("VERIFY: %s" % ("FAIL" if failing else "PASS"))
    return 1 if failing else 0


def cmd_eval(args) -> int:
    if args.n < 0 or args.k < 0:
        raise Refusal(2, "--n and --k must be nonnegative")
    if args.n > EVAL_N_MAX:
        raise Refusal(2, "--n must be at most %d" % EVAL_N_MAX)
    if args.k > args.n:
        raise Refusal(2, "--k must not exceed --n")
    if max(abs(args.alpha.numerator), args.alpha.denominator) >= 10 ** EVAL_ALPHA_DIGITS:
        raise Refusal(2, "--alpha in lowest terms p/q must have at most %d digits in p and in q"
                      % EVAL_ALPHA_DIGITS)
    if (args.beta is None) != (args.x0 is None):
        raise Refusal(2, "--beta and --x0 must be given together")
    if args.beta is not None:
        if not (math.isfinite(args.beta) and math.isfinite(args.x0)):
            raise Refusal(2, "--beta and --x0 must be finite")
        if not args.x0 > 1.0:
            raise Refusal(2, "--x0 must exceed 1")
    p, q = args.alpha.as_integer_ratio()
    row = last_scaled_row(args.n, p, q, args.k if args.beta is None else args.n)
    value = entry_value(row, args.n, args.k, q)
    # C decimal converts an int without the int-to-str digit limit and sets nothing process-wide
    numerator, denominator = map(Decimal, value.as_integer_ratio())
    print(numerator if denominator == 1 else "%s/%s" % (numerator, denominator))
    if args.beta is not None:
        value = evaluate_expansion(args.x0, args.alpha, args.beta, row)
        print("expansion n=%d alpha=%s beta=%r x0=%r -> %r"
              % (args.n, format_rational(args.alpha), args.beta, args.x0, value))
    return 0


COMMANDS = {"triangle": cmd_triangle, "verify": cmd_verify, "eval": cmd_eval}


def _attach_signed_values(argv) -> list:
    """Rewrite "OPTION VALUE" as "OPTION=VALUE" for OPTION --alpha, --beta, --x0 or --corrupt
    and a VALUE that starts with one "-", not "--", since argparse takes a separate value such
    as "-5/2", "-1e3" or "-1,0", which its negative-number pattern misses, for an option; the
    option's type or its command then judges the value."""
    out = []
    for token in argv:
        option = out[-1] if out else None
        if (option in ("--alpha", "--beta", "--x0", "--corrupt") and token.startswith("-")
                and not token.startswith("--")):
            out[-1] = option + "=" + token
        else:
            out.append(token)
    return out


def _outcome(command, args) -> tuple:
    """(status, None) of the command that ran, or (status, message) of its Refusal."""
    try:
        return command(args), None
    except Refusal as exc:
        return exc.args


def main(argv=None) -> int:
    """Run the command and return its status. A Refusal, or stdout closed or failing, ends in one
    "ncstirling:" line on stderr; a closed or unwritable stderr loses it, not stdout or status."""
    args = build_parser().parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    status, message = 1, "stdout is closed"  # kept if the interpreter found fd 1 closed
    try:
        if sys.stdout is not None:
            status, message = _outcome(COMMANDS[args.command], args)
            sys.stdout.flush()  # what the command printed goes first, as if stdout were unbuffered
    except OSError as exc:  # from stdout, since --out errors are Refusals
        with contextlib.suppress(OSError, ValueError):  # no fd: io.UnsupportedOperation is both
            fd = sys.stdout.fileno()
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), fd)  # so the exit flush passes
            os.close(devnull)
        status, message = 1, ("stdout closed before the end" if isinstance(exc, BrokenPipeError)
                              else "cannot write stdout: %s" % exc)
    if message is not None and sys.stderr is not None:  # print(file=None) would write stdout
        with contextlib.suppress(OSError):  # so that the status stays the command's
            print("ncstirling: %s: %s" % (args.command, message), file=sys.stderr)
    return status
