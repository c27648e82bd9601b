"""Comparable outcomes of checks and the expectations they are held to.

`digest` turns what a check returned into plain JSON data:
- a Report becomes its suite name, its pass flag and, per line, the rule
  name, the pass flag and the counterexample.  `samples` and `note` are
  left out: the exhaustive associativity line is due to change what it
  counts, and that must not read as a wrong answer.  The subject and the
  seed are left out too; they restate the input.
- a Verdict becomes its kind, its case, its reasons and the (code, holds)
  pairs of its evidence, without the free-text details.
- dicts, lists and scalars are digested element by element.

`shape` replaces every counterexample by `True`, so it says *that* a line
failed with a witness but not *which* witness.  Expectations record, per
check kind, the shape (the same for every seed) and, for the check seeds
of the recorded run seeds, the full digest.  A check whose seed was
recorded must match its digest exactly; any other must match the shape.
"""

from __future__ import annotations

import json
from pathlib import Path

from mforge.foundations import Verdict
from mforge.report import Report

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Attributes some suites attach to their Report.
_REPORT_EXTRAS = ("quad_type", "proper")
_REPORT_WITNESSES = ("auto_witness", "anti_witness")


def digest(result):
    if isinstance(result, Report):
        d = {"suite": result.suite, "passed": result.passed,
             "lines": [[ln.rule, ln.passed, _plain(ln.counterexample)]
                       for ln in result.lines]}
        for attr in _REPORT_EXTRAS:
            if hasattr(result, attr):
                d[attr] = getattr(result, attr)
        for attr in _REPORT_WITNESSES:
            if hasattr(result, attr):
                d[attr] = getattr(result, attr) is not None
        return d
    if isinstance(result, Verdict):
        return {"kind": result.kind, "case": result.case,
                "reasons": result.reasons(),
                "evidence": [[code, bool(ok)]
                             for (code, ok, _) in result.evidence]}
    if isinstance(result, dict):
        if "lines" in result and "suite" in result:   # a Report from the CLI
            return {"suite": result["suite"], "passed": result["passed"],
                    "lines": [[ln["rule"], ln["passed"],
                               ln.get("counterexample")]
                              for ln in result["lines"]]}
        if "kind" in result and "evidence" in result:  # a Verdict from the CLI
            return {"kind": result["kind"], "case": result["case"],
                    "evidence": [[e["code"], e["holds"]]
                                 for e in result["evidence"]]}
        return {str(k): digest(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [digest(v) for v in result]
    return _plain(result)


def _plain(value):
    """JSON round trip, so tuples and lists compare equal after loading."""
    return json.loads(json.dumps(value, default=repr))


def shape(d):
    if isinstance(d, dict):
        out = {}
        for k, v in d.items():
            if k == "lines":
                out[k] = [[rule, ok, None if cex is None else True]
                          for rule, ok, cex in v]
            else:
                out[k] = shape(v)
        return out
    if isinstance(d, list):
        return [shape(v) for v in d]
    return d


class Expectations:
    """Recorded outcomes, keyed by check kind and check seed."""

    def __init__(self, doc):
        self.doc = doc

    @classmethod
    def load(cls, path=EXPECTED_PATH):
        with open(path) as fh:
            return cls(json.load(fh))

    def compare(self, workload, kind, seed, got):
        """None when `got` matches the record, else a one-line reason."""
        rec = self.doc["workloads"][workload].get(kind)
        if rec is None:
            return "no expectation recorded for %s" % kind
        exact = rec.get("by_seed", {}).get(str(seed))
        if exact is not None:
            if got != exact:
                return "differs from the outcome recorded for seed %d" % seed
            return None
        if shape(got) != rec["shape"]:
            return "differs from the recorded shape"
        return None
