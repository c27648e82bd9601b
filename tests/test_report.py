"""The sampling driver shared by every suite."""

import random

from mforge.composition import (CDAlgebra, octonions_q, sedenion_style_q,
                                verify_identities)
from mforge.handles import as_handle
from mforge.moufang import MoufangSet, ms_verify, root_group
from mforge.quadspace import space_from_quadext
from mforge.report import (BASIS, EXHAUSTIVE_SIZE, SAMPLED, STACKED, SWEPT,
                           CheckLine, Report, polarized, swept)
from mforge.scalars import F3, F4, QQ, PrimeField, QuadExt
from mforge.unitary import SIGMA_IDENTITY, InvolutorySet, inv_check


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


def test_each_line_records_how_it_was_decided():
    m_f4 = ms_verify(MoufangSet(MoufangSet.LINEAR, F4), samples=20)
    inv = inv_check(InvolutorySet(F4, SIGMA_IDENTITY), samples=8)
    left = {base: verify_identities(CDAlgebra(base, [-1, -1, -1]), "moufang",
                                    samples=40).line("moufang.left")
            for base in (F3, QQ)}
    # the inverse suite goes case by case over every base
    inverse_q = verify_identities(CDAlgebra(QQ, [-1, -1, -1]), "inverse",
                                  samples=10).line("inverse.left")
    lines = [(m_f4.line("hua.bijective"), SWEPT),
             (m_f4.line("hua.endomorphism"), SAMPLED),
             (inv.line("axiom.k0-fixed-by-sigma"), BASIS),
             (left[F3], STACKED), (left[QQ], STACKED),
             (inverse_q, SAMPLED), (inv.line("quad-type"), None)]
    assert [line.mode for line, _ in lines] == [mode for _, mode in lines]
    for line, _ in lines:
        plain = CheckLine(line.rule, line.samples, line.passed,
                          line.counterexample, line.note)
        assert line.as_dict() == plain.as_dict() and repr(line) == repr(plain)
    for rep in (m_f4, inv):
        assert "mode" not in rep.to_json() and "mode" not in repr(rep)
        assert not any(mode in rep.to_json() or mode in repr(rep)
                       for mode in (SWEPT, BASIS, SAMPLED))


def test_one_sweep_rule_reads_every_carrier_alike():
    f9 = QuadExt(F3, 0, 1)
    # a field, a handle, a space and a root group: q^coord_dim elements
    for carrier, size in ((F4, 4), (as_handle(octonions_q()), None),
                          (space_from_quadext(F4), 16),
                          (root_group(CDAlgebra(F3, [-1, -1])), 81),
                          (root_group(CDAlgebra(f9, [-1])), 81),
                          (PrimeField(67), 67), (PrimeField(61), 61)):
        assert swept(carrier) == (size is not None
                                  and size <= EXHAUSTIVE_SIZE), carrier


def test_polarized_cases_are_the_basis_then_its_pair_sums():
    assert polarized([1, 10, 100]) == [1, 10, 100, 11, 101, 110]
    assert polarized([1]) == [1] and polarized([]) == []
