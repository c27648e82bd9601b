"""Stored reports, compared byte for byte.

The octonion-Q cases are acceptance checks (criteria #2, #5 and #7) at
their own seeds, with fewer samples.  They were recorded with the
recursive doubling product (``composition._pmul``) on every tower, so they
show that the fast paths over Q give the same reports.

The tower cases (``tower_*``) run every identity suite, and record the
division status and witness, on towers over F3, F5, F7, Q(i) and F9; with
``psi_product_rule_f5`` they pin products, norms, inverses and doubling
splits over bases other than Q.  They were recorded while only towers
over Q multiplied through a structure table and every other base ran the
recursive doubling product.

The foundation cases (``fnd_*``, ``dot_*``, ``ms_coincide_*``) were
recorded while reversed carriers were still a separate handle class and
the glueing atoms a separate hierarchy from the octonion atoms.  They run
glueing chains across opposite ends, the standard involution on towers,
fields and quadratic-space vectors, and the small-field carrier.

``dim_switch_round_trip`` runs the dimension switch up from the Hamilton
space and back down, as criterion #8 does with fewer samples.  It was
recorded while the subfield projections of the switch still solved a
linear system on every call.

The suite cases (``ms_*``, ``inv_check_*``, ``ind_check_*``,
``verify_space_*``, ``hua_consistency_qi_quaternion_q``,
``t_jordan_hamilton``, ``identities_dim16_moufang``) were recorded while
every suite still walked its samples in its own loop.  The failing ones
store the report's text form after its JSON line, since a tuple and a
list counterexample print differently there; ``ms_verify_shifted_q`` and
``verify_space_shifted_trace`` fail on an early line of a suite whose
lines share one random stream, so a later line's draws show where the
stream was left.

The root-group cases (``ms_verify_xi_*``, ``ms_verify_involutory_*``,
``ms_verify_indifferent_f4``, ``ms_jordan_inverse_xi_f4``,
``hua_consistency_qq_f4``, ``hua_consistency_qi_f4_galois``,
``hua_consistency_qd_f2``, ``root_group_draws``) were recorded while
``MoufangSet`` branched on its family for every group operation and the
polygon slots built their groups separately.  ``root_group_draws`` pins
the seeded draws, plain and nonzero, of every family and slot group.

The span cases (``inv_check_*_galois``, ``special_pairs_octonion_q``,
``quaternion_subalgebras_octonion_q``, ``ind_opposite_f4``) were
recorded while the K0 and L0 spans were a class of their own beside the
tower subspaces, with a product closure of their own.  They pin the
base-line comparison behind quad type iii, the subspaces of a special
pair, the subalgebras grown around three seeded elements, and the spans
of an indifferent set's opposites.

``spans_quadratic_bases`` was recorded while ``rref`` over a quadratic
extension still ran Gauss-Jordan on Scalars and ``Subspace`` answered
membership through a projector of its own.  It pins the center, a
complement and generated subalgebras of the quaternions over Q(i) and
over F9, and doubling splits on those subalgebras.

``kernels_and_complements`` was recorded while ``orthogonal_complement``
and ``center`` still solved their Gram and commutator matrices, built
from tower products, on Scalars with ``linalg.kernel_basis``.  It pins
centers and complements over Q, F3, F5 and in characteristic 2, over F2
and F4, and the radicals of three quadratic spaces' polar forms.

The Cayley-table cases (``f4_census``, ``hua_consistency_qp_xi_f4``) were
recorded while ``FiniteGroupTable.automorphisms`` ran over all (n-1)!
identity-fixing bijections, ``isomorphism_to`` backtracked with a closure
of its own, and ``WordGroup.extend_end_maps`` walked its own right
products.  ``f4_census`` pins the census of T over F4 with the index map
of its quaternion-group isomorphism; ``hua_consistency_qp_xi_f4`` extends
the end maps of QP-Xi-F4 to its 1024-word group.

The Jordan cases (``t_jordan_sigma_xi_f4``, ``t_jordan_swap_xi_f4``,
``t_jordan_inverse_hamilton``, ``ms_jordan_double_octonion_q``) were
recorded while ``t_jordan_check`` and ``ms_jordan_check`` were two
bodies, each with a ``mode`` argument.  They pin the exhaustive
``tpoints.jordan`` shape with its ``jordan.bijective`` line, and the
counterexamples of both sampled draw schemes: separate anchors for T,
pairs reused as anchors for a Moufang set.

The Q(i) cases (``verify_space_qi``, ``ms_verify_linear_qi``) were
recorded while quadratic-extension payloads over Q were pairs of
``Fraction``s and quadratic-space vectors tuples of Scalars.  They pin
the norm space of Q(i) and the linear Moufang set over Q(i).

The twist-chain cases (``twist_chain_*``, ``gamma_w_decompose_fractional``)
were recorded while every Jordan map applied its atoms one by one: a
doubling split and tower products per call.  They run a [Psi, Conj(w)]
chain over the octonions over Q(i), where each coordinate has two
rational parts, and over F3, and gamma_w at a w with denominator 12, and
store the images of seeded elements.

To record the files of new cases from the code on the path:

    PYTHONPATH=src python tests/test_golden.py

It writes only the cases that have no file yet, and any case named on
the command line (``... tests/test_golden.py ms_verify_xi_f4``); every
other stored file keeps its bytes.
"""

import json
import os
import random
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _twist_setup():
    from mforge.composition import octonions_q
    from mforge.octonion_aut import Psi, standard_quaternion_frame
    O = octonions_q()
    sub, e = standard_quaternion_frame(O)
    return O, sub, e, Psi(O, sub, e, O.unit(1))


def triangle_hua_consistency():
    from mforge.composition import octonions_q
    from mforge.polygons import rgs_hua_consistency, triangle
    desc = triangle(octonions_q(), name="T(octonion-Q)")
    return rgs_hua_consistency(desc, samples=300, seed=9)


def dim16_alternative():
    from mforge.composition import sedenion_style_q, verify_identities
    return verify_identities(sedenion_style_q(), "alternative",
                             samples=1000, seed=5)


def psi_product_rule():
    from mforge.octonion_aut import psi_product_rule_check
    psi = _twist_setup()[3]
    return psi_product_rule_check(psi, samples=100, seed=13)


def gamma_w_decompose():
    from mforge.octonion_aut import gamma_w_decompose
    O = _twist_setup()[0]
    # the first w that criterion #7 draws
    w = O.random_element(random.Random(17), 5, nonzero=True)
    return gamma_w_decompose(w, samples=100, seed=19)[2]


def sigma_s_central():
    from mforge.octonion_aut import (Conj, JordanMap, Psi,
                                     sigma_s_central_check)
    O, sub, e, _ = _twist_setup()
    # criterion #7 draws ten w for gamma_w, then (w, p) per chain
    rng = random.Random(17)
    for _ in range(10):
        O.random_element(rng, 5, nonzero=True)
    w = O.random_element(rng, 5, nonzero=True)
    chain = JordanMap([Psi(O, sub, e, O.unit(1)), Conj(w)], O)
    return sigma_s_central_check(chain, samples=100, seed=23)


def jaut_verify():
    from mforge.octonion_aut import JordanMap, jaut_verify
    O, _, _, psi = _twist_setup()
    return jaut_verify(JordanMap([psi], O), samples=50, seed=29)


def _twist_chain_case(stem, base):
    """`jaut_verify` and `sigma_s_central_check` on a [Psi, Conj(w)]
    chain over the octonions over `base`, w the first seeded draw of
    nonzero norm; then the images of three seeded elements."""
    def case():
        from mforge.composition import CDAlgebra
        from mforge.octonion_aut import (Conj, JordanMap, Psi, jaut_verify,
                                         sigma_s_central_check,
                                         standard_quaternion_frame)
        O = CDAlgebra(_tower_base(base), [-1, -1, -1])
        sub, e = standard_quaternion_frame(O)
        rng = random.Random(47)
        w = O.random_element(rng, 5)
        while w.norm().is_zero():
            w = O.random_element(rng, 5)
        chain = JordanMap([Psi(O, sub, e, O.unit(1)), Conj(w)], O)
        xs = [O.random_element(rng, 9) for _ in range(3)]
        return "\n".join([
            jaut_verify(chain, samples=40, seed=53).to_json(),
            sigma_s_central_check(chain, samples=40, seed=59).to_json(),
            json.dumps([[repr(x), repr(chain(x))] for x in xs],
                       separators=(",", ":"))]) + "\n"
    case.__name__ = "twist_chain_" + stem
    return case


TWIST_CHAIN_CASES = [_twist_chain_case("qi_octonions", "Qi"),
                     _twist_chain_case("f3_octonions", "F3")]


def gamma_w_decompose_fractional():
    """gamma_w at a w with denominator 12, off the standard frame, then
    the images of three seeded elements under its Phi and Psi."""
    from fractions import Fraction

    from mforge.octonion_aut import gamma_w_decompose
    O = _twist_setup()[0]
    w = O.element([Fraction(1, 2), Fraction(-2, 3), 0, Fraction(3, 4),
                   0, 1, 0, Fraction(5, 6)])
    phi, psi, rep = gamma_w_decompose(w, samples=60, seed=61)
    rng = random.Random(67)
    xs = [O.random_element(rng, 9) for _ in range(3)]
    return rep.to_json() + "\n" + json.dumps(
        [[repr(x), repr(phi.apply(x)), repr(psi.apply(x))] for x in xs],
        separators=(",", ":")) + "\n"


def _tower_base(name):
    from mforge.scalars import F3, QuadExt, field_by_name
    return QuadExt(F3, 0, 1) if name == "F9" else field_by_name(name)


def _tower_case(stem, base, betas, inverse):
    """Every identity suite, then the division status and witness.  The
    `inverse` suite is left out on towers that are not division algebras,
    where it meets isotropic elements and raises NotInvertible."""
    def case():
        from mforge.composition import SUITES, CDAlgebra, verify_identities
        algebra = CDAlgebra(_tower_base(base), betas)
        lines = [verify_identities(algebra, suite, samples=40,
                                   seed=5).to_json()
                 for suite in SUITES if inverse or suite != "inverse"]
        witness = algebra.division_witness
        lines.append(json.dumps(
            {"division_status": algebra.division_status,
             "division_witness": None if witness is None else repr(witness)},
            sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    case.__name__ = "tower_" + stem
    return case


TOWER_CASES = [
    _tower_case("f3_octonions", "F3", [-1, -1, -1], inverse=False),
    _tower_case("f5_octonions", "F5", [-1, -1, -1], inverse=False),
    _tower_case("f7_quaternions", "F7", [-1, -1], inverse=False),
    _tower_case("f9_quaternions", "F9", [-1, -1], inverse=False),
    _tower_case("qi_quaternions", "Qi", [-1, 3], inverse=True),
]


def psi_product_rule_f5():
    from mforge.composition import CDAlgebra
    from mforge.octonion_aut import (Psi, psi_product_rule_check,
                                     standard_quaternion_frame)
    from mforge.scalars import F5
    O = CDAlgebra(F5, [-1, -1, -1])
    sub, e = standard_quaternion_frame(O)
    return psi_product_rule_check(Psi(O, sub, e, O.unit(1)), samples=100,
                                  seed=13)


def dim_switch_round_trip():
    """Both Jordan checks, the new spaces' q and f, and the images of
    five seeded points under each switch map."""
    from mforge.pseudoquad import (dim_switch_down, dim_switch_up,
                                   t_jordan_check, xi_hamilton)
    xh = xi_hamilton()
    up, gamma = dim_switch_up(xh)
    down, gamma2 = dim_switch_down(up)
    lines = [t_jordan_check(gamma, xh, up, samples=100, seed=31).to_json(),
             t_jordan_check(gamma2, down, up, samples=100,
                            seed=37).to_json()]
    for space in (up, down):
        lines.append(json.dumps({"q_rep": repr(space.q_rep),
                                 "f_gram": repr(space.f_gram)},
                                sort_keys=True, separators=(",", ":")))
    for src, gamma_, seed in ((xh, gamma, 41), (down, gamma2, 43)):
        rng = random.Random(seed)
        lines.append(json.dumps([repr(gamma_(src.random_point(rng)))
                                 for _ in range(5)], separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _verdict_text(verdict):
    """A verdict as the CLI prints it with --json."""
    return json.dumps(verdict.as_dict(), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _fnd_check_case(name):
    def case():
        from mforge.catalog import NAMED_FOUNDATIONS
        from mforge.foundations import fnd_check
        return fnd_check(NAMED_FOUNDATIONS[name](), samples=24, seed=3)
    case.__name__ = "fnd_check_" + name.replace("-", "_")
    return case


def fnd_check_443_involutory():
    from mforge.catalog import unitary_443_foundation
    from mforge.foundations import fnd_check_443
    return _verdict_text(fnd_check_443(unitary_443_foundation("involutory"),
                                       samples=24, seed=3))


def fnd_classify_p3_quaternion():
    from mforge.catalog import positive_quaternion_triangle
    from mforge.foundations import fnd_classify_simply_laced
    return _verdict_text(fnd_classify_simply_laced(
        positive_quaternion_triangle(), samples=24, seed=3))


def _dot_case(stem):
    def case():
        from mforge.catalog import foundation_from_file
        from mforge.foundations import fnd_to_dot
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        return fnd_to_dot(foundation_from_file(
            os.path.join(root, "sample_foundations", stem + ".json")))
    case.__name__ = "dot_" + stem
    return case


def ms_coincide_f4_small_field():
    from mforge.handles import SmallFieldHandle
    from mforge.moufang import MoufangSet, ms_coincide
    from mforge.quadspace import qs_small_dim_field, space_from_quadext
    from mforge.scalars import F4
    space = space_from_quadext(F4, name="(F4,F2,N)")
    small, _ = qs_small_dim_field(space)
    return ms_coincide(MoufangSet(MoufangSet.QUADRATIC, space),
                       MoufangSet(MoufangSet.LINEAR, SmallFieldHandle(small)),
                       samples=24, seed=3)


def _json_and_text(rep):
    """A report as the CLI prints it with and without --json."""
    return rep.to_json() + "\n" + repr(rep) + "\n"


def ms_verify_octonion_q():
    from mforge.composition import octonions_q
    from mforge.moufang import MoufangSet, ms_verify
    return ms_verify(MoufangSet(MoufangSet.LINEAR, octonions_q()),
                     samples=40, seed=13)


def _f4_space():
    from mforge.quadspace import space_from_quadext
    from mforge.scalars import F4
    return space_from_quadext(F4, name="(F4,F2,N)")


def ms_verify_f4_space():
    from mforge.moufang import MoufangSet, ms_verify
    return ms_verify(MoufangSet(MoufangSet.QUADRATIC, _f4_space()),
                     samples=30, seed=13)


def ms_verify_linear_qi():
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.scalars import QI
    return ms_verify(MoufangSet(MoufangSet.LINEAR, QI), samples=40, seed=13)


def ms_verify_shifted_q():
    """Hua maps over Q shifted by one at points with denominator 7: the
    endomorphism line fails on a triple, the unit line on one point drawn
    from where the first line stopped."""
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.scalars import QQ

    class Shifted(MoufangSet):
        def hua(self, a, x):
            y = super().hua(a, x)
            return y + QQ.one() if x.val.denominator == 7 else y

    return _json_and_text(ms_verify(Shifted(MoufangSet.LINEAR, QQ),
                                    samples=200, seed=13))


def ms_jordan_conj_octonion_q():
    from mforge.composition import octonions_q
    from mforge.moufang import MoufangSet, ms_jordan_check
    m = MoufangSet(MoufangSet.LINEAR, octonions_q())
    return ms_jordan_check(lambda x: x.conj(), m, m, samples=40, seed=29)


def ms_jordan_frobenius_f4():
    from mforge.moufang import MoufangSet, ms_jordan_check
    from mforge.scalars import F4
    m = MoufangSet(MoufangSet.LINEAR, F4)
    return ms_jordan_check(lambda x: x * x, m, m)


def t_jordan_hamilton():
    from mforge.pseudoquad import TPoint, t_jordan_check, xi_hamilton
    xh = xi_hamilton()
    minus = -xh.h.one()
    return t_jordan_check(lambda p: TPoint(xh, xh.vec_scale(p.a, minus), p.t),
                          xh, xh, samples=30, seed=3)


def t_jordan_sigma_xi_f4():
    """The sigma-induced map (a, t) -> (a^s, t^s) on T of Xi_F4 passes the
    exhaustive sweep, jordan.bijective line included."""
    from mforge.pseudoquad import TPoint, t_jordan_check, xi_f4
    sp = xi_f4()
    sig = sp.inv.sigma
    return t_jordan_check(
        lambda p: TPoint(sp, tuple(sig(x) for x in p.a), sig(p.t)), sp, sp)


def t_jordan_swap_xi_f4():
    """Swapping the first two non-central points of T fails the exhaustive
    sweep on jordan.group-homomorphism."""
    from mforge.pseudoquad import t_jordan_check, xi_f4
    sp = xi_f4()
    a, b = [p for p in sp.enumerate_t() if not p.is_central()][:2]
    swap = {a.key(): b, b.key(): a}
    return _json_and_text(t_jordan_check(lambda p: swap.get(p.key(), p),
                                         sp, sp))


def t_jordan_inverse_hamilton():
    """Inversion on T of Xi_H fails at sampled pairs and anchors."""
    from mforge.pseudoquad import t_jordan_check, xi_hamilton
    xh = xi_hamilton()
    return _json_and_text(t_jordan_check(lambda p: p.inverse(), xh, xh,
                                         samples=30, seed=3))


def ms_jordan_double_octonion_q():
    """x -> x + x is additive but moves the unit and scales Hua maps by 4."""
    from mforge.composition import octonions_q
    from mforge.moufang import MoufangSet, ms_jordan_check
    m = MoufangSet(MoufangSet.LINEAR, octonions_q())
    return _json_and_text(ms_jordan_check(lambda x: x + x, m, m, samples=40,
                                          seed=29))


def inv_check_quaternion_q():
    from mforge.composition import quaternions_q
    from mforge.unitary import SIGMA_STANDARD, InvolutorySet, inv_check
    return inv_check(InvolutorySet(quaternions_q(), SIGMA_STANDARD),
                     samples=40, seed=3)


def inv_check_wide_k0():
    """K0 = <1, i> is moved by sigma: the sandwich axiom fails on a pair."""
    from mforge.composition import quaternions_q
    from mforge.unitary import SIGMA_STANDARD, InvolutorySet, inv_check
    H = quaternions_q()
    return _json_and_text(inv_check(
        InvolutorySet(H, SIGMA_STANDARD, k0_gens=[H.one(), H.unit(1)]),
        samples=40, seed=3))


def ind_check_f4():
    from mforge.scalars import F4
    from mforge.unitary import IndifferentSet, ind_check
    w = F4.gen()
    return ind_check(IndifferentSet(F4, [F4.one(), w], [F4.one(), w]))


def verify_space_quaternion_q():
    from mforge.composition import quaternions_q
    from mforge.quadspace import space_from_algebra, verify_space
    return verify_space(space_from_algebra(quaternions_q()), samples=20,
                        seed=3)


def verify_space_f4():
    from mforge.quadspace import verify_space
    return verify_space(_f4_space(), samples=40, seed=3)


def verify_space_qi():
    from mforge.quadspace import space_from_quadext, verify_space
    from mforge.scalars import QI
    return verify_space(space_from_quadext(QI), samples=40, seed=3)


def verify_space_shifted_trace():
    """The trace shifted by one at vectors whose i-coordinate is positive
    with denominator 7; sigma keeps the true trace, so only the
    trace.sigma-invariant line fails, at the sample where that shows."""
    from mforge.composition import quaternions_q
    from mforge.quadspace import space_from_algebra, verify_space
    space = space_from_algebra(quaternions_q())
    trace, one = space.trace, space.field.one()

    def shifted(v):
        c = v.coords[1].val
        return trace(v) + one if c > 0 and c.denominator == 7 else trace(v)

    space.sigma = lambda v: space.basepoint.scale(trace(v)) - v
    space.trace = shifted
    return _json_and_text(verify_space(space, samples=40, seed=3))


def hua_consistency_qi_quaternion_q():
    from mforge.composition import quaternions_q
    from mforge.polygons import (SYMBOL_QI, PolygonDescriptor,
                                 rgs_hua_consistency)
    from mforge.unitary import SIGMA_STANDARD, InvolutorySet
    desc = PolygonDescriptor(SYMBOL_QI,
                             InvolutorySet(quaternions_q(), SIGMA_STANDARD))
    return rgs_hua_consistency(desc, samples=40, seed=7)


def ms_verify_xi_f4():
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.pseudoquad import xi_f4
    return _json_and_text(ms_verify(
        MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4()), samples=30, seed=13))


def ms_verify_xi_hamilton():
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.pseudoquad import xi_hamilton
    return _json_and_text(ms_verify(
        MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_hamilton()), samples=30,
        seed=13))


def ms_verify_involutory_quaternion_q():
    from mforge.composition import quaternions_q
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.unitary import SIGMA_STANDARD, InvolutorySet
    return _json_and_text(ms_verify(
        MoufangSet(MoufangSet.INVOLUTORY,
                   InvolutorySet(quaternions_q(), SIGMA_STANDARD)),
        samples=30, seed=13))


def ms_verify_indifferent_f4():
    from mforge.moufang import MoufangSet, ms_verify
    from mforge.scalars import F4
    from mforge.unitary import IndifferentSet
    w = F4.gen()
    return _json_and_text(ms_verify(
        MoufangSet(MoufangSet.INDIFFERENT,
                   IndifferentSet(F4, [F4.one(), w], [F4.one(), w])),
        samples=30, seed=13))


def ms_jordan_inverse_xi_f4():
    """Inversion on the non-abelian group T of Xi_F4 keeps the unit but is
    no homomorphism: the exhaustive sweep fails on a pair."""
    from mforge.moufang import MoufangSet, ms_jordan_check
    from mforge.pseudoquad import xi_f4
    m = MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4())
    return _json_and_text(ms_jordan_check(lambda p: p.inverse(), m, m))


def hua_consistency_qq_f4():
    from mforge.polygons import qq_f4_space, rgs_hua_consistency
    return _json_and_text(rgs_hua_consistency(qq_f4_space(), seed=3))


def hua_consistency_qi_f4_galois():
    from mforge.polygons import (SYMBOL_QI, PolygonDescriptor,
                                 rgs_hua_consistency)
    from mforge.scalars import F4
    from mforge.unitary import SIGMA_GALOIS, InvolutorySet
    desc = PolygonDescriptor(SYMBOL_QI, InvolutorySet(F4, SIGMA_GALOIS))
    return _json_and_text(rgs_hua_consistency(desc, seed=3))


def hua_consistency_qd_f2():
    from mforge.polygons import (SYMBOL_QD, PolygonDescriptor,
                                 rgs_hua_consistency)
    from mforge.scalars import F2
    from mforge.unitary import IndifferentSet
    desc = PolygonDescriptor(SYMBOL_QD,
                             IndifferentSet(F2, [F2.one()], [F2.one()]))
    return _json_and_text(rgs_hua_consistency(desc, seed=3))


def hua_consistency_qp_xi_f4():
    from mforge.polygons import qp_xi_f4, rgs_hua_consistency
    return _json_and_text(rgs_hua_consistency(qp_xi_f4(), seed=3))


def f4_census():
    from mforge.pseudoquad import f4_census
    return f4_census()


def root_group_draws():
    """Seeded draws, plain and nonzero, from the carrier of a Moufang set
    of each family and from every slot group of each polygon family."""
    from mforge.composition import octonions_q, quaternions_q
    from mforge.moufang import MoufangSet
    from mforge.polygons import (SYMBOL_QD, SYMBOL_QI, PolygonDescriptor,
                                 qp_xi_f4, qq_f4_space, triangle)
    from mforge.pseudoquad import xi_f4, xi_hamilton
    from mforge.scalars import F2, F4, QQ
    from mforge.unitary import (SIGMA_GALOIS, SIGMA_STANDARD,
                                IndifferentSet, InvolutorySet)
    H, w = quaternions_q(), F4.gen()
    msets = [MoufangSet(MoufangSet.LINEAR, QQ),
             MoufangSet(MoufangSet.LINEAR, octonions_q()),
             MoufangSet(MoufangSet.INVOLUTORY,
                        InvolutorySet(H, SIGMA_STANDARD)),
             MoufangSet(MoufangSet.INDIFFERENT,
                        IndifferentSet(F4, [F4.one(), w], [F4.one(), w])),
             MoufangSet(MoufangSet.QUADRATIC, _f4_space()),
             MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4()),
             MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_hamilton())]
    descs = [triangle(QQ, name="T(Q)"), qq_f4_space(), qp_xi_f4(),
             PolygonDescriptor(SYMBOL_QI, InvolutorySet(H, SIGMA_STANDARD)),
             PolygonDescriptor(SYMBOL_QI, InvolutorySet(F4, SIGMA_GALOIS)),
             PolygonDescriptor(SYMBOL_QD,
                               IndifferentSet(F2, [F2.one()], [F2.one()]))]
    draws = [(m.random, repr(m)) for m in msets]
    draws += [(d.group(i).random, "%r slot %d" % (d, i))
              for d in descs for i in range(1, d.n + 1)]
    rng = random.Random(5)
    lines = [json.dumps([label] + [repr(draw(rng, nonzero=k % 2 == 1))
                                   for k in range(4)],
                        separators=(",", ":"))
             for draw, label in draws]
    return "\n".join(lines) + "\n"


def _inv_check_galois(name, field):
    def case():
        from mforge.unitary import SIGMA_GALOIS, InvolutorySet, inv_check
        return inv_check(InvolutorySet(field(), SIGMA_GALOIS), samples=40,
                         seed=3)
    case.__name__ = "inv_check_%s_galois" % name
    return case


def _qi():
    from mforge.scalars import QI
    return QI


def _f4():
    from mforge.scalars import F4
    return F4


def special_pairs_octonion_q():
    """A special pair, then a pair whose second element pairs with the
    first."""
    from mforge.composition import octonions_q
    from mforge.octonion_aut import special_pair_check
    O = octonions_q()
    return "".join(_text(special_pair_check(e1, e2)) for e1, e2 in (
        (O.unit(1), O.unit(2)), (O.unit(1), O.unit(1) + O.unit(2))))


def quaternion_subalgebras_octonion_q():
    """The basis of the subalgebra grown around each of three seeded w."""
    from mforge.composition import octonions_q
    from mforge.octonion_aut import extend_to_quaternion_subalgebra
    O = octonions_q()
    rng = random.Random(17)
    lines = []
    for _ in range(3):
        w = O.random_element(rng, 5, nonzero=True)
        sub = extend_to_quaternion_subalgebra(O, w)
        lines.append(json.dumps([repr(w)] + [repr(b) for b in sub.basis()],
                                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def ind_opposite_f4():
    """The opposite and double opposite of the F4 indifferent set, the
    check of the opposite, and the squares comparison."""
    from mforge.scalars import F4
    from mforge.unitary import (IndifferentSet,
                                double_opposite_matches_squares, ind_check,
                                ind_opposite)
    w = F4.gen()
    ind = IndifferentSet(F4, [F4.one(), w], [F4.one(), w])
    opp = ind_opposite(ind)
    return "".join([
        json.dumps([repr(opp), repr(ind_opposite(opp)),
                    double_opposite_matches_squares(ind)],
                   separators=(",", ":")) + "\n",
        _text(ind_check(opp))])


def spans_quadratic_bases():
    """Spans in the quaternions over Q(i) and over F9: the center, the
    complement of the scalar line, the subalgebras generated by e1 and by
    a seeded w, and the complement of the latter, each with its basis, a
    seeded sample and membership of the basis vectors, w and w*x for a
    seeded x; then x split by the doubling frames on both subalgebras."""
    from mforge.composition import (CDAlgebra, DoublingFrame, Subspace,
                                    center, orthogonal_complement,
                                    subalgebra_generated)
    lines = []
    for name in ("Q(i)", "F9"):
        H = CDAlgebra(_qi() if name == "Q(i)" else _tower_base(name),
                      [-1, -1])
        rng = random.Random(7)
        w, x = (H.random_element(rng, 5) for _ in range(2))
        sub, sub_w = (subalgebra_generated(H, [g]) for g in (H.unit(1), w))
        perp_w = orthogonal_complement(H, sub_w)
        spans = (("center", center(H)),
                 ("complement", orthogonal_complement(
                     H, Subspace(H, [H.one()]))),
                 ("generated-e1", sub), ("generated-w", sub_w),
                 ("complement-w", perp_w))
        for label, span in spans:
            lines.append(json.dumps(
                [name, label, [repr(b) for b in span.basis()],
                 repr(span.sample(random.Random(3))),
                 [span.contains(v) for v in H.basis() + [w, w * x]]],
                separators=(",", ":")))
        e_w = next(b for b in perp_w.basis() if not b.norm().is_zero())
        for label, frame in (("split-e1", DoublingFrame(H, sub, H.unit(2))),
                             ("split-w", DoublingFrame(H, sub_w, e_w))):
            lines.append(json.dumps([name, label, repr(x)]
                                    + [repr(v) for v in frame.split(x)],
                                    separators=(",", ":")))
    return "\n".join(lines) + "\n"


def kernels_and_complements():
    """Centers and complements over Q, F3, F5, F2 and F4: for each tower
    the center, the complement of the scalar line and of the subalgebra
    generated by a seeded w, each with its basis, a seeded sample and
    membership of the basis vectors and w; then the radicals of the polar
    forms of three quadratic spaces."""
    from mforge.composition import (CDAlgebra, Subspace, center,
                                    octonions_q, orthogonal_complement,
                                    quaternions_q, subalgebra_generated)
    from mforge.quadspace import QuadraticSpace, qs_defect, space_from_algebra
    from mforge.scalars import F2, F4
    lines = []
    towers = (("octonion-Q", octonions_q()),
              ("F3", CDAlgebra(_tower_base("F3"), [-1, -1, -1])),
              ("F5", CDAlgebra(_tower_base("F5"), [-1, -1, -1])),
              ("F2", CDAlgebra(F2, [1, 1, 1])),
              ("F4", CDAlgebra(F4, [1, (0, 1)])))
    for name, A in towers:
        w = A.random_element(random.Random(7), 5)
        spans = (("center", center(A)),
                 ("complement", orthogonal_complement(
                     A, Subspace(A, [A.one()]))),
                 ("complement-w", orthogonal_complement(
                     A, subalgebra_generated(A, [w]))))
        for label, span in spans:
            lines.append(json.dumps(
                [name, label, [repr(b) for b in span.basis()],
                 repr(span.sample(random.Random(3))),
                 [span.contains(v) for v in A.basis() + [w]]],
                separators=(",", ":")))
    for name, space in (("F4-norm", _f4_space()),
                        ("F2-line", QuadraticSpace(F2, [1], {}, [1])),
                        ("quaternion-Q", space_from_algebra(quaternions_q()))):
        rad, proper = qs_defect(space)
        lines.append(json.dumps([name, [repr(v) for v in rad], proper],
                                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def identities_dim16_moufang():
    from mforge.composition import sedenion_style_q, verify_identities
    return _json_and_text(verify_identities(sedenion_style_q(), "moufang",
                                            samples=20, seed=5))


def _fnd_names():
    from mforge.catalog import NAMED_FOUNDATIONS
    return sorted(NAMED_FOUNDATIONS)


CASES = {f.__name__: f for f in (
    triangle_hua_consistency, dim16_alternative, psi_product_rule,
    gamma_w_decompose, sigma_s_central, jaut_verify,
    fnd_check_443_involutory, fnd_classify_p3_quaternion,
    ms_coincide_f4_small_field, psi_product_rule_f5, dim_switch_round_trip,
    ms_verify_octonion_q, ms_verify_f4_space, ms_verify_linear_qi,
    ms_verify_shifted_q,
    ms_jordan_conj_octonion_q, ms_jordan_frobenius_f4, t_jordan_hamilton,
    t_jordan_sigma_xi_f4, t_jordan_swap_xi_f4, t_jordan_inverse_hamilton,
    ms_jordan_double_octonion_q,
    inv_check_quaternion_q, inv_check_wide_k0, ind_check_f4,
    verify_space_quaternion_q, verify_space_f4, verify_space_qi,
    verify_space_shifted_trace,
    hua_consistency_qi_quaternion_q, identities_dim16_moufang,
    ms_verify_xi_f4, ms_verify_xi_hamilton,
    ms_verify_involutory_quaternion_q, ms_verify_indifferent_f4,
    ms_jordan_inverse_xi_f4, hua_consistency_qq_f4,
    hua_consistency_qi_f4_galois, hua_consistency_qd_f2,
    hua_consistency_qp_xi_f4, f4_census, root_group_draws,
    _inv_check_galois("qi", _qi), _inv_check_galois("f4", _f4),
    special_pairs_octonion_q, quaternion_subalgebras_octonion_q,
    ind_opposite_f4, spans_quadratic_bases, kernels_and_complements,
    *TOWER_CASES, *TWIST_CHAIN_CASES, gamma_w_decompose_fractional,
    _dot_case("a2_octonion"), _dot_case("f443_involutory"),
    *[_fnd_check_case(name) for name in _fnd_names()])}


def _path(name):
    ext = ".dot" if name.startswith("dot_") else ".json"
    return os.path.join(GOLDEN, name + ext)


def _text(out):
    """A case's stored form: reports as one JSON line, text as it is."""
    return out if isinstance(out, str) else out.to_json() + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    with open(_path(name)) as fh:
        want = fh.read()
    assert _text(CASES[name]()) == want


def test_every_golden_file_has_a_case():
    assert sorted(os.listdir(GOLDEN)) == sorted(
        os.path.basename(_path(name)) for name in CASES)


def test_recorder_keeps_stored_files(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN", str(tmp_path))
    monkeypatch.setitem(globals(), "CASES", {
        "kept": lambda: "new\n", "named": lambda: "new\n",
        "missing": lambda: "new\n"})
    for name in ("kept", "named"):
        (tmp_path / (name + ".json")).write_text("old\n")
    assert main(["named"]) == 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "kept.json": "old\n", "named.json": "new\n",
        "missing.json": "new\n"}
    assert main(["nosuchcase"]) == 2


def main(argv):
    """Write the golden file of every case named in argv, and of every
    case that has none yet; stored files of other cases are kept."""
    unknown = sorted(set(argv) - set(CASES))
    if unknown:
        print("unknown cases:", ", ".join(unknown), file=sys.stderr)
        return 2
    os.makedirs(GOLDEN, exist_ok=True)
    for name, case in sorted(CASES.items()):
        if name not in argv and os.path.exists(_path(name)):
            continue
        with open(_path(name), "w") as fh:
            fh.write(_text(case()))
        print("wrote", _path(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
