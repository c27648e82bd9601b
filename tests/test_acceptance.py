"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.  Arithmetic is exact
everywhere: every comparison below is equality, no tolerances."""

import os
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(ROOT, "sample_foundations")


class budget:
    """Context manager asserting the wall-time budget and printing the
    one-line verdict."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.monotonic() - self.t0
        status = ("PASS" if exc_type is None and took < self.seconds
                  else "FAIL")
        print("[%s] %s: %.1fs (budget %ds)"
              % (status, self.label, took, self.seconds))
        if exc_type is None:
            assert took < self.seconds, \
                "%s exceeded budget: %.1fs" % (self.label, took)
        return False


def test_criterion_1_octonion_identity_suites():
    from mforge.composition import SUITES, octonions_q, verify_identities
    with budget("1 octonion identity suites", 30):
        algebra = octonions_q()
        for suite in SUITES:
            rep = verify_identities(algebra, suite, samples=1000, seed=7)
            assert rep.passed, repr(rep)


def test_criterion_2_dim16_negative_control():
    from mforge.composition import sedenion_style_q, verify_identities
    with budget("2 dim-16 alternativity failure", 10):
        rep = verify_identities(sedenion_style_q(), "alternative",
                                samples=1000, seed=5)
        assert not rep.passed
        failed = [ln for ln in rep.lines if not ln.passed]
        assert failed and failed[0].counterexample is not None


def test_criterion_3_f4_census():
    from mforge.pseudoquad import f4_census
    with budget("3 census over the 4-element field", 5):
        rep = f4_census()
        assert rep.passed, repr(rep)
        assert rep.line("census.order").samples == 8
        assert rep.line("census.quaternion-group-iso").passed
        assert rep.line("census.hua-all-identity").passed
        assert rep.line("census.automorphism-count").samples == 24
        assert rep.line("census.autos-are-jordan").passed
        assert rep.line("census.outer-count").samples == 6
        assert rep.line("census.outer-is-s3").passed
        assert rep.line("census.twists-are-inner").passed


def test_criterion_4_finite_polygon_exhaustives():
    from mforge.polygons import (WordGroup, qp_xi_f4, qq_f4_space,
                                 rgs_hua_consistency)
    with budget("4 finite word-group exhaustives", 60):
        qq = qq_f4_space()
        wg = WordGroup(qq)
        assert len(wg.elements) == 64
        assert wg.check_axioms().passed
        rep = rgs_hua_consistency(qq)
        assert rep.passed and rep.line("hua.first-end-extends").passed \
            and rep.line("hua.last-end-extends").passed

        qp = qp_xi_f4()
        wg2 = WordGroup(qp)
        assert len(wg2.elements) == 1024
        assert wg2.check_axioms().passed
        rep2 = rgs_hua_consistency(qp)
        assert rep2.passed and rep2.line("hua.first-end-extends").passed \
            and rep2.line("hua.last-end-extends").passed


def test_criterion_5_triangle_hua_consistency():
    from mforge.composition import octonions_q
    from mforge.polygons import rgs_hua_consistency, triangle
    with budget("5 triangle consistency on 10^4 samples", 20):
        desc = triangle(octonions_q(), name="T(octonion-Q)")
        rep = rgs_hua_consistency(desc, samples=10000, seed=9)
        assert rep.passed, repr(rep)


def test_criterion_6_norm_splitting():
    from mforge.composition import Subspace, norm_splitting, octonions_q
    with budget("6 norm splitting of the octonion form", 5):
        O = octonions_q()
        sub = Subspace(O, [O.one(), O.unit(1)])
        vs, consts, witness = norm_splitting(O, sub, samples=32, seed=11)
        assert len(vs) == 4
        assert all(not s.is_zero() for s in consts)
        prod = consts[0] * consts[1] * consts[2] * consts[3]
        assert sub.contains(witness) and witness.norm() == prod


def test_criterion_7_twist_machinery():
    import random

    from mforge.composition import octonions_q
    from mforge.octonion_aut import (Conj, JordanMap, Psi, gamma_w_decompose,
                                     jaut_verify, psi_product_rule_check,
                                     sigma_s_central_check,
                                     standard_quaternion_frame)
    with budget("7 octonion twist machinery", 60):
        O = octonions_q()
        sub, e = standard_quaternion_frame(O)
        psi = Psi(O, sub, e, O.unit(1))
        assert psi_product_rule_check(psi, samples=1000, seed=13).passed

        rng = random.Random(17)
        for k in range(10):
            w = O.random_element(rng, 5, nonzero=True)
            _, _, rep = gamma_w_decompose(w, samples=1000, seed=19 + k)
            assert rep.passed, repr(rep)

        for k in range(10):
            w = O.random_element(rng, 5, nonzero=True)
            p = sub_unit = O.random_element(rng, 5, nonzero=True)
            chain = JordanMap([Psi(O, sub, e, O.unit(1 + k % 3)),
                               Conj(w)], O)
            assert sigma_s_central_check(chain, samples=200,
                                         seed=23 + k).passed

        rep = jaut_verify(JordanMap([psi], O), samples=300, seed=29)
        assert rep.passed
        assert rep.auto_witness is not None
        assert rep.anti_witness is not None


def test_criterion_8_dim_switch_round_trip():
    from mforge.pseudoquad import (dim_switch_down, dim_switch_up,
                                   t_jordan_check, xi_hamilton)
    with budget("8 dimension-switch round trip", 30):
        xh = xi_hamilton()
        up, gamma = dim_switch_up(xh)
        rep = t_jordan_check(gamma, xh, up, samples=1000, seed=31)
        assert rep.passed, repr(rep)
        down, gamma2 = dim_switch_down(up)
        assert down.q_rep[0] == xh.q_rep[0]
        rep2 = t_jordan_check(gamma2, down, up, samples=1000, seed=37)
        assert rep2.passed, repr(rep2)


def test_criterion_9_foundation_suite():
    from mforge.catalog import foundation_from_file
    from mforge.foundations import (Verdict, fnd_check, fnd_check_443,
                                    fnd_classify_simply_laced)
    with budget("9 foundation suite", 30):
        a2 = foundation_from_file(os.path.join(SAMPLES, "a2_octonion.json"))
        assert fnd_check(a2, samples=24).passed
        p3 = foundation_from_file(os.path.join(SAMPLES, "p3_quaternion.json"))
        assert fnd_check(p3, samples=24).passed

        tet = foundation_from_file(
            os.path.join(SAMPLES, "tetrahedron_octonion.json"))
        v = fnd_classify_simply_laced(tet, samples=8)
        assert v.kind == Verdict.NOT_INTEGRABLE
        assert "octonion.rank-bound" in v.reasons()

        d4 = foundation_from_file(
            os.path.join(SAMPLES, "d4_star_quaternion.json"))
        v = fnd_classify_simply_laced(d4, samples=8)
        assert v.kind == Verdict.NOT_INTEGRABLE
        assert "a3-residue.negative" in v.reasons()
        assert any("parity" in code for (code, _, _) in v.evidence)

        circ = foundation_from_file(os.path.join(SAMPLES, "circle5_f5.json"))
        v = fnd_classify_simply_laced(circ, samples=8)
        assert v.kind == Verdict.MATCHES and v.case == "field"

        from mforge.catalog import rejected_443_foundation
        from mforge.polygons import SYMBOL_QD, SYMBOL_QE, SYMBOL_QF
        for tag, code in ((SYMBOL_QD, "reject.indifferent-quadrangle"),
                          (SYMBOL_QE, "reject.en-quadrangle"),
                          (SYMBOL_QF, "reject.f4-quadrangle")):
            v = fnd_check_443(rejected_443_foundation(tag), samples=6)
            assert v.kind == Verdict.NOT_INTEGRABLE and code in v.reasons()

        f443 = foundation_from_file(
            os.path.join(SAMPLES, "f443_involutory.json"))
        assert fnd_check(f443, samples=16).passed
        v = fnd_check_443(f443, samples=16)
        assert v.kind == Verdict.MATCHES
        assert v.case == "443-involutory-quaternion"


def test_criterion_10_moufang_set_coincidences():
    from mforge.handles import SmallFieldHandle
    from mforge.moufang import MoufangSet, ms_coincide
    from mforge.quadspace import qs_small_dim_field, space_from_quadext
    from mforge.scalars import F4, Scalar
    with budget("10 coincidences of Moufang sets", 5):
        sp = space_from_quadext(F4, name="(F4,F2,N)")
        m_space = MoufangSet(MoufangSet.QUADRATIC, sp)
        m_linear = MoufangSet(MoufangSet.LINEAR, F4)

        def to_scalar(v):
            return Scalar(F4, (v.coords[0].val, v.coords[1].val))

        rep = ms_coincide(m_space, m_linear, bijection=to_scalar)
        assert rep.passed, repr(rep)

        fld, _ = qs_small_dim_field(sp)
        m_small = MoufangSet(MoufangSet.LINEAR, SmallFieldHandle(fld))
        rep2 = ms_coincide(m_space, m_small)
        assert rep2.passed, repr(rep2)


def test_criterion_11_deterministic_reports():
    from mforge.composition import quaternions_q, verify_identities
    from mforge.polygons import rgs_hua_consistency, qq_f4_space
    from mforge.pseudoquad import f4_census
    with budget("11 byte-identical reports", 30):
        pairs = []
        for _ in range(2):
            pairs.append((
                verify_identities(quaternions_q(), "moufang", samples=300,
                                  seed=7).to_json(),
                f4_census().to_json(),
                rgs_hua_consistency(qq_f4_space(), seed=3).to_json(),
            ))
        assert pairs[0] == pairs[1]
        # and through the CLI surface
        from mforge.cli import main
        import io
        import contextlib
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(["verify", "--algebra", "quaternion-Q",
                      "--suite", "inverse", "--samples", "200",
                      "--seed", "13", "--json"])
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
