"""Checks of one operation's output against the benchmark's own references.

An operation fails when its exit status is wrong, it printed a traceback, or
its output disagrees with the reference. A failure is *known* when it is a
defect recorded in perfbench/NOTES.md; known failures still count as failed,
but they do not make the run's outputs incorrect.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, List, Optional, Tuple

from reference import (
    EXPANSION_REL_TOL,
    ClassicalRows,
    Expansion,
    binary64_error_bound,
    expansion_reference,
    format_rational,
    triangle_digests,
    verify_counts,
)
from workloads import Op

# Largest stdout kept as text; verify and eval print far less.
HEAD_LIMIT = 1 << 20

# eval --beta/--x0 works in binary64; once some s(n, i, alpha), (beta)_i,
# product of them, term or partial sum of the expansion, or the expansion
# itself, is beyond its range, it either dies with an OverflowError traceback
# or prints inf/-inf/nan with status 0.
KNOWN_EXPANSION_BINARY64 = "eval-expansion-binary64"
# It also adds the terms in binary64, so where they cancel the sum misses the
# 1e-6 tolerance by no more than binary64 rounding can explain.
KNOWN_EXPANSION_CANCELLATION = "eval-expansion-cancellation"

_EXPANSION_RE = re.compile(
    r"^expansion n=(\d+) alpha=(\S+) beta=(\S+) x0=(\S+) -> (\S+)$")
_STRUCTURAL_RE = re.compile(r"^structural checks: (\d+) run, (\d+) failing$", re.M)
_IDENTITY_RE = re.compile(r"^identity suite: +(\d+) reports, (\d+) failing", re.M)
_ORACLE_RE = re.compile(r"^expansion grid: +(\d+) points, (\d+) over tol", re.M)


@dataclass
class Output:
    """What one operation left behind."""

    returncode: int
    sha256: str
    nbytes: int
    head: bytes  # the first HEAD_LIMIT bytes of stdout
    stderr: str
    report: Optional[str] = None  # verify's --out file

    @property
    def text(self) -> str:
        return self.head.decode("utf-8", "replace")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: Optional[str] = None  # name of the known defect this failure is


OK = Verdict(True)


def _fail(reason: str, known: Optional[str] = None) -> Verdict:
    return Verdict(False, reason, known)


class Checker:
    """Holds the references that the checks of one run share."""

    def __init__(self) -> None:
        self.rows = ClassicalRows()
        self.triangle_expected: Dict[Tuple[int, str], Tuple[str, int]] = {}
        self._expansions: Dict[Op, Expansion] = {}

    def prepare(self, ops: List[Op]) -> None:
        """Compute, outside any timed region, what checking ``ops`` needs."""
        missing = {(op.n, op.fmt) for op in ops if op.workload == "triangle"}
        missing -= self.triangle_expected.keys()
        if missing:
            self.triangle_expected.update(triangle_digests(self.rows, missing))
        for op in ops:
            if op.workload == "eval" and op.beta is not None and op not in self._expansions:
                self._expansions[op] = expansion_reference(self.rows, op.n, op.alpha,
                                                           op.beta, op.x0)

    def check(self, op: Op, out: Output) -> Verdict:
        if "Traceback (most recent call last)" in out.stderr:
            last = out.stderr.strip().splitlines()[-1]
            if op.workload == "eval":
                return self._check_eval(op, out, traceback=last)
            return _fail("traceback: %s" % last)
        if op.workload == "triangle":
            return self._check_triangle(op, out)
        if op.workload == "verify":
            return self._check_verify(op, out)
        return self._check_eval(op, out)

    def _check_triangle(self, op: Op, out: Output) -> Verdict:
        if out.returncode != 0:
            return _fail("exit status %d" % out.returncode)
        expected = self.triangle_expected[(op.n, op.fmt)]
        if (out.sha256, out.nbytes) != expected:
            return _fail("output differs from the closed-form triangle "
                         "(%d bytes, expected %d)" % (out.nbytes, expected[1]))
        return OK

    def _check_verify(self, op: Op, out: Output) -> Verdict:
        want_rc, want_line = (1, "VERIFY: FAIL") if op.corrupt else (0, "VERIFY: PASS")
        if out.returncode != want_rc:
            return _fail("exit status %d, expected %d" % (out.returncode, want_rc))
        lines = out.text.strip().splitlines()
        if not lines or lines[-1] != want_line:
            return _fail("last line %r, expected %r" % (lines[-1:] or "", want_line))
        counts = verify_counts(op.n)
        for regex, key in ((_STRUCTURAL_RE, "structural"), (_IDENTITY_RE, "identities"),
                           (_ORACLE_RE, "oracle")):
            m = regex.search(out.text)
            if m is None or int(m.group(1)) != counts[key]:
                return _fail("%s count line %r, expected %d"
                             % (key, m and m.group(0), counts[key]))
        if out.report is None:
            return _fail("no report written")
        try:
            doc = json.loads(out.report)
        except ValueError as exc:
            return _fail("report is not JSON: %s" % exc)
        if doc.get("n_max") != str(op.n) or doc.get("seed") != str(op.seed):
            return _fail("report header n_max=%r seed=%r" % (doc.get("n_max"), doc.get("seed")))
        groups = (("structural", "ok"), ("identities", "holds"), ("oracle", "pass"))
        for key, flag in groups:
            records = doc.get(key, [])
            if len(records) != counts[key]:
                return _fail("report has %d %s records, expected %d"
                             % (len(records), key, counts[key]))
            if not op.corrupt and not all(r[flag] is True for r in records):
                return _fail("report has a failing %s record" % key)
        if op.corrupt:
            n, k = op.corrupt
            hit = [r for r in doc["structural"] if r["check"] == "construction_agreement"
                   and r["n"] == str(n) and r["k"] == str(k)]
            if len(hit) != 1 or hit[0]["ok"] is not False:
                return _fail("corrupted entry (%d, %d) not reported as failing" % (n, k))
        return OK

    def _check_eval(self, op: Op, out: Output, traceback: Optional[str] = None) -> Verdict:
        lines = out.text.splitlines()
        exact = format_rational(self.rows.value(op.n, op.k, op.alpha))
        if not lines or lines[0] != exact:
            return _fail("s(%d,%d,%s) printed %r" % (op.n, op.k, format_rational(op.alpha),
                                                     lines[0][:80] if lines else ""))
        if op.beta is None:
            if traceback or out.returncode != 0 or len(lines) != 1:
                return _fail("exit status %d, %d lines, %s"
                             % (out.returncode, len(lines), traceback))
            return OK
        ref, beyond_binary64, abs_sum = self._expansions[op]
        if traceback is not None:
            if beyond_binary64 and out.returncode == 1 and traceback.startswith("OverflowError"):
                return _fail(traceback, KNOWN_EXPANSION_BINARY64)
            return _fail("traceback: %s" % traceback)
        if out.returncode != 0 or len(lines) != 2:
            return _fail("exit status %d, %d lines" % (out.returncode, len(lines)))
        m = _EXPANSION_RE.match(lines[1])
        if m is None:
            return _fail("expansion line %r" % lines[1][:120])
        echoed = (int(m.group(1)), m.group(2), float(m.group(3)), float(m.group(4)))
        if echoed != (op.n, format_rational(op.alpha), op.beta, op.x0):
            return _fail("expansion line echoes %r" % (echoed,))
        value = float(m.group(5))
        if not math.isfinite(value):
            return _fail("expansion printed %s; reference %s" % (m.group(5), "{:.6e}".format(ref)),
                         KNOWN_EXPANSION_BINARY64 if beyond_binary64 else None)
        error = abs(Decimal(value) - ref)
        if error > Decimal(EXPANSION_REL_TOL) * abs(ref):
            rounding = error <= binary64_error_bound(op.n) * abs_sum
            return _fail("expansion %r; reference %s" % (value, "{:.17e}".format(ref)),
                         KNOWN_EXPANSION_CANCELLATION if rounding else None)
        return OK
