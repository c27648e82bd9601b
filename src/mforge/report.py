"""Check reports shared by the verification suites and the CLI.

A report is a list of lines, one per checked law.  Reports are fully
determined by (inputs, seed); wall time is kept out of the serialized form
so reruns are byte-identical.

A law that must hold on every sampled or enumerated case goes through
one driver, `Report.first_failure`, which stops at the first failing case.
Cases come from a lazy generator over the suite's seeded
``random.Random``: when lines share one stream, the next line draws right
after the failing case.  A line's `samples` is either the planned
count or, in the identity and quadratic-space suites, the number of cases
checked (k + 1 for a failure at case k).  A failing line keeps its case's
0-based `index`, out of the serialized and printed forms, so the failure
can be drawn again from the seed.

How a line was decided is one rule, kept here, and each line records it
in its `mode`, next to `index` and out of the serialized and printed
forms too:
- `SWEPT`: the cases are every element of a finite set.  A carrier is
  swept when `swept` holds: its coordinate field is finite, of order q,
  and q^coord_dim is at most `EXHAUSTIVE_SIZE`, counted without listing
  it; a field, a handle, a ``linalg.IntSpace`` and a root group all
  answer `coord_field` and `coord_dim`;
- `BASIS`: a law linear in each argument over the coordinate field is
  decided on a basis, and a quadratic map on the cases of `polarized`,
  e_i and e_i + e_j (linearization; Zhevlakov, Slin'ko, Shestakov and
  Shirshov, Rings That Are Nearly Associative (1982), ch. 1);
- `STACKED`: every sample is checked at once, as numpy rows of residues
  over F_p, or over Q modulo a few primes;
- `SAMPLED`: seeded draws, the default of `first_failure`.
A line that states a fact rather than checks cases (`proper`,
`quad-type`, `division-status`, ...) has mode None, the default of `add`.
"""

from __future__ import annotations

import json

# the most elements of a finite carrier that a check sweeps exhaustively,
# taking |M|^2 Hua maps or pairs; a larger carrier is sampled
EXHAUSTIVE_SIZE = 64

SWEPT, BASIS, STACKED, SAMPLED = "swept", "basis", "stacked", "sampled"


def swept(carrier):
    """Whether a check sweeps every element of `carrier`: its coordinate
    field is finite, of order q, and q ** coord_dim <= `EXHAUSTIVE_SIZE`.
    Nothing is listed to decide it."""
    field = carrier.coord_field
    return (field.is_finite()
            and field.order() ** carrier.coord_dim <= EXHAUSTIVE_SIZE)


def polarized(basis):
    """Each e_i, then each e_i + e_j for i < j: the cases that decide a
    quadratic map, in every characteristic."""
    return basis + [x + y for i, x in enumerate(basis) for y in basis[i + 1:]]


class CheckLine:
    __slots__ = ("rule", "samples", "passed", "counterexample", "note",
                 "index", "mode")

    def __init__(self, rule, samples, passed, counterexample=None, note=None,
                 mode=None):
        self.rule = rule
        self.samples = samples
        self.passed = passed
        self.counterexample = counterexample
        self.note = note
        self.index = None  # set by Report.first_failure on a failing line
        self.mode = mode

    def as_dict(self):
        d = {"rule": self.rule, "samples": self.samples, "passed": self.passed}
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        if self.note is not None:
            d["note"] = self.note
        return d

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.counterexample is None else "  cex=%s" % (self.counterexample,)
        note = "" if self.note is None else "  (%s)" % self.note
        return "[%s] %-42s n=%-6d%s%s" % (status, self.rule, self.samples, extra, note)


class Report:
    """Outcome of one suite: named lines plus run metadata."""

    def __init__(self, suite, seed=None, subject=None):
        self.suite = suite
        self.seed = seed
        self.subject = subject
        self.lines = []

    def add(self, rule, samples, passed, counterexample=None, note=None,
            mode=None):
        self.lines.append(CheckLine(rule, samples, passed, counterexample,
                                    note, mode))
        return self.lines[-1]

    def first_failure(self, rule, cases, check, n, cex=None, mode=SAMPLED):
        """Add the line for `rule`, decided in `mode`: check(*case) must
        hold on every case, a tuple of arguments.

        The walk stops at the first case where it does not; that line's
        counterexample is cex(*case), or none without `cex`, and its index
        the case's position.  The line records `n` samples, or, with n
        None, the number of cases checked.
        """
        k = -1
        for k, case in enumerate(cases):
            if not check(*case):
                line = self.add(rule, k + 1 if n is None else n, False,
                                None if cex is None else cex(*case),
                                mode=mode)
                line.index = k
                return line
        return self.add(rule, k + 1 if n is None else n, True, mode=mode)

    def extend(self, other):
        self.lines.extend(other.lines)

    @property
    def passed(self):
        return all(line.passed for line in self.lines)

    def line(self, rule):
        for ln in self.lines:
            if ln.rule == rule:
                return ln
        raise KeyError(rule)

    def as_dict(self):
        d = {"suite": self.suite, "passed": self.passed,
             "lines": [ln.as_dict() for ln in self.lines]}
        if self.seed is not None:
            d["seed"] = self.seed
        if self.subject is not None:
            d["subject"] = self.subject
        return d

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        head = "suite %s%s" % (self.suite,
                               "" if self.subject is None else " on %s" % self.subject)
        return "\n".join([head] + ["  %r" % ln for ln in self.lines])


def reprs(*values):
    """The reprs of a case's values, as a tuple counterexample."""
    return tuple(repr(v) for v in values)
