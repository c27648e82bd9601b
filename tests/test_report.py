"""The sampling driver shared by every suite."""

import random

from mforge.composition import sedenion_style_q, verify_identities
from mforge.report import CheckLine, Report


def test_failing_index_replays_the_counterexample():
    algebra = sedenion_style_q()
    line = verify_identities(algebra, "alternative", samples=1000,
                             seed=5).line("alternative.left")
    assert not line.passed and line.samples == line.index + 1
    rng = random.Random(5)
    for _ in range(line.index + 1):
        x, y = (algebra.random_element(rng, 9) for _ in range(2))
    assert line.counterexample == [repr(x), repr(y)]
    plain = CheckLine(line.rule, line.samples, line.passed,
                      line.counterexample, line.note)
    assert line.as_dict() == plain.as_dict() and repr(line) == repr(plain)


def test_walk_stops_at_the_first_failure():
    drawn = []

    def cases():
        for k in range(10):
            drawn.append(k)
            yield k, k * k

    rep = Report("toy")
    planned = rep.first_failure("square.small", cases(),
                                lambda k, sq: sq < 10, 10, cex=lambda k, sq: k)
    assert drawn == [0, 1, 2, 3, 4]
    assert (planned.samples, planned.passed, planned.counterexample,
            planned.index) == (10, False, 4, 4)
    counted = rep.first_failure("square.small", cases(),
                                lambda k, sq: sq < 10, None)
    assert (counted.samples, counted.counterexample) == (5, None)
    assert rep.first_failure("empty", iter(()), bool, None).samples == 0
    held = rep.first_failure("square.nonneg", cases(), lambda k, sq: sq >= 0,
                             None)
    assert (held.samples, held.passed, held.index) == (10, True, None)
    assert "index" not in rep.to_json() and "index" not in repr(rep)
