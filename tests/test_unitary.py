import pytest

from mforge.composition import CDAlgebra, center
from mforge.scalars import F2, F3, F4, QI, QQ
from mforge.unitary import (SIGMA_GALOIS, SIGMA_IDENTITY, SIGMA_STANDARD,
                            IndifferentSet, InvolutorySet,
                            double_opposite_matches_squares, ind_check,
                            ind_opposite, inv_check)


def test_hamilton_involutory_set(quaternions):
    s = InvolutorySet(quaternions, SIGMA_STANDARD)
    rep = inv_check(s)
    assert rep.passed
    assert rep.proper is False
    assert rep.quad_type == "iv"


def test_octonion_involutory_type_v(octonions):
    s = InvolutorySet(octonions, SIGMA_STANDARD)
    assert inv_check(s).quad_type == "v"


def test_gaussian_galois_type_iii():
    rep = inv_check(InvolutorySet(QI, SIGMA_GALOIS))
    assert rep.passed and rep.quad_type == "iii"


def test_rationals_identity_type_ii():
    rep = inv_check(InvolutorySet(QQ, SIGMA_IDENTITY))
    assert rep.passed and rep.quad_type == "ii"


def test_char2_identity_involution_is_typed_on_a_basis():
    # squares of the basis 1, w of F4 over F2: w^2 = w + 1 leaves K0 = F2,
    # and K0 = F4 is the whole field
    assert inv_check(InvolutorySet(F4, SIGMA_IDENTITY)).quad_type == "none"
    full = InvolutorySet(F4, SIGMA_IDENTITY, k0_gens=[F4.gen()])
    assert inv_check(full).quad_type == "ii"


def test_f4_galois():
    rep = inv_check(InvolutorySet(F4, SIGMA_GALOIS))
    assert rep.passed and rep.quad_type == "iii"


def test_type_iv_forces_center(quaternions):
    s = InvolutorySet(quaternions, SIGMA_STANDARD)
    rep = inv_check(s)
    assert rep.quad_type == "iv"
    ctr = center(quaternions)
    assert ctr.dim == s.k0.dim == 1


def test_bigger_k0_is_not_quadratic_type(quaternions):
    s = InvolutorySet(quaternions, SIGMA_STANDARD,
                      k0_gens=[quaternions.one(), quaternions.unit(1)])
    rep = inv_check(s)
    # traces land in Q, but K0 contains i which is moved by sigma
    assert not rep.line("axiom.k0-fixed-by-sigma").passed


@pytest.mark.parametrize("carrier, sigma, fixed", [
    (F4, SIGMA_GALOIS, False), (F4, SIGMA_IDENTITY, True),
    (CDAlgebra(F2, [1]), SIGMA_STANDARD, True),
    (CDAlgebra(F2, [1, 1]), SIGMA_STANDARD, True),
    (CDAlgebra(F3, [-1, -1]), SIGMA_STANDARD, False)],
    ids=["F4-galois", "F4-identity", "F2-dim2", "F2-dim4", "F3-dim4"])
def test_sigma_is_identity_on_a_basis_agrees_with_every_element(
        carrier, sigma, fixed):
    """Each named involution is linear over the coordinate field, so a
    basis decides whether it fixes K: a sweep over every element agrees,
    also in characteristic 2, where the standard involution of a tower is
    the identity."""
    s = InvolutorySet(carrier, sigma)
    assert s.sigma_is_identity() is fixed
    assert all(s.sigma(x) == x for x in s.handle.elements()) is fixed


def test_galois_needs_extension():
    with pytest.raises(ValueError):
        InvolutorySet(QQ, SIGMA_GALOIS)


def test_trivial_indifferent_set():
    ind = IndifferentSet(F2, [F2.one()], [F2.one()])
    rep = ind_check(ind)
    assert rep.passed and rep.proper is False
    assert ind_opposite(ind).k0.dim == 1


def test_full_f4_indifferent_set():
    w = F4.gen()
    ind = IndifferentSet(F4, [F4.one(), w], [F4.one(), w])
    rep = ind_check(ind)
    assert rep.passed
    assert rep.proper is False  # K0 exhausts the field


def test_opposite_generators_are_squares():
    w = F4.gen()
    ind = IndifferentSet(F4, [F4.one(), w], [F4.one()])
    opp = ind_opposite(ind)
    assert opp.k0.dim == 1          # <L0> basis
    assert opp.l0.dim == 2          # span of squares of {1, w}
    assert opp.l0.contains(w * w)
    assert double_opposite_matches_squares(ind)


def test_indifferent_requires_char2():
    with pytest.raises(ValueError):
        IndifferentSet(QQ, [QQ.one()], [QQ.one()])


def test_indifferent_requires_one():
    w = F4.gen()
    with pytest.raises(ValueError):
        IndifferentSet(F4, [w], [F4.one()])


def test_proper_opposite_of_proper():
    # no proper instance is representable over the shipped scalar kernel
    # (that needs an imperfect infinite field); the law is exercised on
    # the representable fragments by checking the implication vacuously
    # and the double-opposite square identity above
    ind = IndifferentSet(F2, [F2.one()], [F2.one()])
    rep = ind_check(ind)
    if rep.proper:  # pragma: no cover - not reachable with shipped scalars
        assert ind_check(ind_opposite(ind)).proper
