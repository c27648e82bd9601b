import random

import pytest

from mforge.foundations import GStandardInvolution
from mforge.octonion_aut import (Conj, JordanMap, Phi, Psi,
                                 gamma_w_decompose, jaut_verify,
                                 psi_product_rule_check,
                                 sigma_s_central_check, special_pair_check,
                                 standard_quaternion_frame)


@pytest.fixture(scope="module")
def frame(octonions):
    sub, e = standard_quaternion_frame(octonions)
    return octonions, sub, e


def test_psi_fixes_subalgebra(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.unit(1))
    x = O.element([1, 2, 3, 4, 0, 0, 0, 0])
    assert psi.apply(x) == x


def test_psi_with_central_w_is_identity(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.from_base(5))
    rng = random.Random(1)
    for _ in range(15):
        x = O.random_element(rng, 9)
        assert psi.apply(x) == x


def test_psi_twists_upper_half_by_conjugation(frame):
    O, sub, e = frame
    w = O.unit(1)
    psi = Psi(O, sub, e, w)
    rng = random.Random(2)
    for _ in range(15):
        y = O.element([0, 0, 0, 0] + [0, 0, 0, 0])
        y = O.random_element(rng, 5)
        y = O.element(list(y.coords[:4]) + [0, 0, 0, 0])
        img = psi.apply(e * y)
        assert img == e * ((w.inverse() * y) * w)


def test_standard_involution_atom(frame):
    O, _, e = frame
    j = JordanMap([GStandardInvolution()], O)
    assert j.apply(e) == -e


def test_psi_jordan_and_witnesses(frame):
    O, sub, e = frame
    j = JordanMap([Psi(O, sub, e, O.unit(1))], O)
    rep = jaut_verify(j, samples=80, seed=3)
    assert rep.passed
    assert rep.auto_witness is not None
    assert rep.anti_witness is not None


def test_sigma_s_is_anti_only(octonions):
    j = JordanMap([GStandardInvolution()], octonions)
    rep = jaut_verify(j, samples=80, seed=4)
    assert rep.passed
    assert rep.auto_witness is not None
    assert rep.anti_witness is None


def test_identity_is_automorphism(octonions):
    j = JordanMap([], octonions)
    rep = jaut_verify(j, samples=60, seed=5)
    assert rep.passed
    assert rep.auto_witness is None


def test_phi_needs_norm_one(frame):
    O, sub, e = frame
    with pytest.raises(ValueError):
        Phi(O, sub, e, O.unit(1), O.from_base(2))
    phi = Phi(O, sub, e, O.unit(1), O.unit(2))
    assert jaut_verify(JordanMap([phi], O), samples=50, seed=6).passed


def test_psi_product_rule(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.unit(1))
    assert psi_product_rule_check(psi, samples=80, seed=7).passed
    # s, t inside the fixed subalgebra: both sides reduce to the product
    rng = random.Random(8)
    for _ in range(10):
        s = O.element(list(O.random_element(rng, 5).coords[:4]) + [0] * 4)
        t = O.element(list(O.random_element(rng, 5).coords[:4]) + [0] * 4)
        lhs = psi.apply(s * t)
        assert lhs == s * t


def test_gamma_w_decompose(octonions):
    rng = random.Random(9)
    for _ in range(4):
        w = octonions.random_element(rng, 5, nonzero=True)
        phi, psi, rep = gamma_w_decompose(w, samples=40, seed=10)
        assert rep.passed, repr(rep)
    # w = 1 gives identity atoms
    phi, psi, rep = gamma_w_decompose(octonions.one(), samples=10)
    assert rep.passed
    x = octonions.element([1, 2, 3, 4, 5, 6, 7, 8])
    assert phi.apply(psi.apply(x)) == x


def test_gamma_w_decompose_builds_and_checks_one_frame(octonions,
                                                       monkeypatch):
    from mforge import octonion_aut
    built = []

    class CountingFrame(octonion_aut.DoublingFrame):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("check", True))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(octonion_aut, "DoublingFrame", CountingFrame)
    w = octonions.element([1, 2, 0, 1, 0, 0, 0, 0])
    phi, psi, rep = gamma_w_decompose(w, samples=5)
    assert rep.passed
    assert phi.frame is psi.frame
    assert built == [True]


def test_sigma_s_commutes_with_chains(frame):
    O, sub, e = frame
    chains = [JordanMap([], O),
              JordanMap([Psi(O, sub, e, O.unit(1))], O),
              JordanMap([Conj(O.one() + O.unit(2))], O)]
    for j in chains:
        assert sigma_s_central_check(j, samples=40, seed=11).passed


def test_composition_of_chains_stays_jordan(frame):
    O, sub, e = frame
    a = JordanMap([Psi(O, sub, e, O.unit(1))], O)
    b = JordanMap([Conj(O.one() + O.unit(3))], O)
    composite = a.compose(b)
    assert composite.algebra is O
    assert jaut_verify(composite, samples=60, seed=12).passed


def test_conjugation_needs_an_invertible_element(octonions):
    with pytest.raises(ValueError):
        Conj(octonions.zero())


def test_special_pairs(octonions):
    rep = special_pair_check(octonions.unit(1), octonions.unit(2))
    assert rep.is_special
    rep2 = special_pair_check(octonions.one(), octonions.unit(1))
    assert not rep2.is_special
    rep3 = special_pair_check(octonions.unit(1), octonions.unit(4))
    assert rep3.is_special


def test_psi_on_generated_subalgebra(octonions):
    # build the frame around a non-standard quaternion subalgebra
    w = octonions.one() + octonions.unit(1) + octonions.unit(2)
    from mforge.octonion_aut import extend_to_quaternion_subalgebra
    sub = extend_to_quaternion_subalgebra(octonions, w)
    assert sub.dim == 4 and sub.contains(w)
