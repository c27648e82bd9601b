import os
import random
import subprocess
import sys

import pytest

from mforge.handles import SmallFieldHandle
from mforge import pseudoquad, quadspace
from mforge.composition import CDAlgebra, NotInvertible
from mforge.moufang import (EXHAUSTIVE_SIZE, CarrierMismatch, MoufangSet,
                            ZeroAnchor, ZeroArgument, ms_coincide,
                            ms_jordan_check, ms_verify)
from mforge.pseudoquad import t_hua, xi_f4, xi_hamilton
from mforge.quadspace import qs_small_dim_field, space_from_quadext
from mforge.scalars import F3, F4, F5, QQ, PrimeField, Scalar
from mforge.unitary import (SIGMA_GALOIS, SIGMA_STANDARD, IndifferentSet,
                            InvolutorySet)


@pytest.fixture(scope="module")
def m_f4_space():
    sp = space_from_quadext(F4, name="(F4,F2,N)")
    return MoufangSet(MoufangSet.QUADRATIC, sp)


@pytest.fixture(scope="module")
def m_f4_linear():
    return MoufangSet(MoufangSet.LINEAR, F4)


def test_tau_linear_rationals():
    m = MoufangSet(MoufangSet.LINEAR, QQ)
    assert m.tau(QQ.scalar(2)) == QQ.scalar("-1/2")
    with pytest.raises(ZeroArgument):
        m.tau(QQ.zero())


def test_tau_quadratic_generator(m_f4_space):
    sp = m_f4_space.payload
    w = sp.vector([0, 1])
    assert m_f4_space.tau(w) == sp.vector([1, 1])


def test_tau_pseudoquadratic_unit():
    m = MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4())
    img = m.tau(m.unit())
    assert img.is_central() and img.t == F4.one()  # -1 = 1 in char 2


def test_hua_involutory(quaternions):
    m = MoufangSet(MoufangSet.INVOLUTORY,
                   InvolutorySet(quaternions, SIGMA_STANDARD))
    two, three = quaternions.from_base(2), quaternions.from_base(3)
    assert m.hua(two, three) == quaternions.from_base(12)


def test_verify_families(octonions):
    assert ms_verify(MoufangSet(MoufangSet.LINEAR, octonions),
                     samples=60).passed
    assert ms_verify(MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4()),
                     samples=30).passed
    assert ms_verify(MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_hamilton()),
                     samples=60).passed


def test_verify_quadratic_exhaustive(m_f4_space):
    rep = ms_verify(m_f4_space, samples=30)
    assert rep.passed
    assert rep.line("hua.bijective").passed
    assert rep.line("tau.bijective-on-units").passed


def test_f4_pseudoquadratic_all_hua_identity():
    m = MoufangSet(MoufangSet.PSEUDOQUADRATIC, xi_f4())
    elems = m.elements()
    for a in elems:
        if m.is_zero(a):
            continue
        for x in elems:
            assert m.hua(a, x) == x


def test_corrupted_structure_fails():
    # deliberately break the Hua maps: an affine shift is no endomorphism
    class Corrupted(MoufangSet):
        def hua(self, a, x):
            return super().hua(a, x) + F5.one()

    m = Corrupted(MoufangSet.LINEAR, F5)
    rep = ms_verify(m, samples=40)
    assert not rep.passed


def test_coincide_f4_space_vs_linear(m_f4_space, m_f4_linear):
    def to_scalar(v):
        return Scalar(F4, (v.coords[0].val, v.coords[1].val))

    rep = ms_coincide(m_f4_space, m_f4_linear, bijection=to_scalar)
    assert rep.passed, repr(rep)


def test_coincide_space_vs_small_field(m_f4_space):
    fld, _ = qs_small_dim_field(m_f4_space.payload)
    linear = MoufangSet(MoufangSet.LINEAR, SmallFieldHandle(fld))
    rep = ms_coincide(m_f4_space, linear)
    assert rep.passed, repr(rep)


def test_coincide_norm_space_vs_linear_quaternions(quaternions):
    # the norm form of the tower and the tower itself give the same
    # Moufang set: tau and all Hua maps agree through the coordinate map
    from mforge.quadspace import space_from_algebra
    sp = space_from_algebra(quaternions)
    m_space = MoufangSet(MoufangSet.QUADRATIC, sp)
    m_linear = MoufangSet(MoufangSet.LINEAR, quaternions)

    def to_elem(v):
        return quaternions.element(list(v.coords))

    rep = ms_coincide(m_space, m_linear, bijection=to_elem, samples=40)
    assert rep.passed, repr(rep)


def test_coincide_norm_space_vs_linear_octonions(octonions):
    from mforge.quadspace import space_from_algebra
    sp = space_from_algebra(octonions)
    m_space = MoufangSet(MoufangSet.QUADRATIC, sp)
    m_linear = MoufangSet(MoufangSet.LINEAR, octonions)

    def to_elem(v):
        return octonions.element(list(v.coords))

    rep = ms_coincide(m_space, m_linear, bijection=to_elem, samples=25)
    assert rep.passed, repr(rep)


def test_coincide_carrier_mismatch():
    m1 = MoufangSet(MoufangSet.LINEAR, QQ)
    m2 = MoufangSet(MoufangSet.LINEAR, F5)
    with pytest.raises(CarrierMismatch):
        ms_coincide(m1, m2, samples=5)


def test_coincide_refuses_finite_carriers_of_different_sizes():
    m1 = MoufangSet(MoufangSet.LINEAR, F5)
    m2 = MoufangSet(MoufangSet.LINEAR, PrimeField(7))
    with pytest.raises(CarrierMismatch, match="sizes differ"):
        ms_coincide(m1, m2, samples=5)


def _never_listed():
    raise AssertionError("a carrier above EXHAUSTIVE_SIZE was listed")


def test_coincide_samples_a_large_prime_field(monkeypatch):
    # 10007 elements: sampled, 5 taus and 25 Hua pairs, not 10^8 pairs
    m = MoufangSet(MoufangSet.LINEAR, PrimeField(10007))
    monkeypatch.setattr(m, "elements", _never_listed)
    rep = ms_coincide(m, m, samples=5)
    assert rep.passed
    assert [ln.samples for ln in rep.lines] == [5, 25]


def test_coincide_samples_the_f5_octonions_without_listing_them(monkeypatch):
    # 5^8 elements: sampled, so Handle.elements' listing guard is never
    # reached; the split octonions have zero divisors, and tau meets one
    # among the seeded samples: the tau line fails on it
    m = MoufangSet(MoufangSet.LINEAR, CDAlgebra(F5, [-1, -1, -1]))
    monkeypatch.setattr(m, "elements", _never_listed)
    rep = ms_coincide(m, m, samples=5)
    line = rep.line("coincide.tau")
    assert not line.passed and line.samples == 5
    rng = random.Random(23)  # ms_coincide's default seed
    zero_divisor = [m.random(rng) for _ in range(5)][line.index]
    assert line.counterexample == repr(zero_divisor)
    assert not zero_divisor.is_zero() and zero_divisor.norm().is_zero()
    with pytest.raises(NotInvertible):
        zero_divisor.inverse()
    assert rep.line("coincide.hua").passed


def test_verify_names_a_zero_divisor_tau_meets():
    # F3(e1) with e1^2 = 1 is F3 x F3: 9 elements, swept, four of them
    # nonzero zero divisors
    m = MoufangSet(MoufangSet.LINEAR, CDAlgebra(F3, [1]))
    line = ms_verify(m).line("tau.bijective-on-units")
    assert not line.passed
    x = next(x for x in m.elements() if repr(x) == line.counterexample)
    assert not x.is_zero() and x.norm().is_zero()


def test_jordan_sigma_s_on_octonions(octonions):
    m = MoufangSet(MoufangSet.LINEAR, octonions)
    rep = ms_jordan_check(lambda x: x.conj(), m, m, samples=60)
    assert rep.passed


def test_jordan_frobenius_on_f4(m_f4_linear):
    rep = ms_jordan_check(lambda x: x * x, m_f4_linear, m_f4_linear)
    assert rep.passed


def test_jordan_shift_fails_unit(m_f4_linear):
    rep = ms_jordan_check(lambda x: x + F4.one(), m_f4_linear, m_f4_linear)
    assert not rep.passed
    assert not rep.line("jordan.unit").passed


def test_jordan_sweeps_a_small_carrier(m_f4_linear):
    rep = ms_jordan_check(lambda x: x, m_f4_linear, m_f4_linear)
    assert rep.line("jordan.group-homomorphism").samples == 16
    assert rep.line("jordan.hua-preserved").samples == 16


def test_jordan_samples_a_large_carrier_without_listing_it(monkeypatch):
    # the F5 octonions have 5^8 elements: sampled, read from their size,
    # and never listed
    m = MoufangSet(MoufangSet.LINEAR, CDAlgebra(F5, [-1, -1, -1]))
    assert m.size() > EXHAUSTIVE_SIZE
    monkeypatch.setattr(m, "elements", _never_listed)
    rep = ms_jordan_check(lambda x: x, m, m, samples=10)
    assert rep.passed
    assert rep.line("jordan.group-homomorphism").samples == 10
    assert rep.line("jordan.hua-preserved").samples == 10


def test_jordan_samples_an_infinite_carrier():
    m = MoufangSet(MoufangSet.LINEAR, QQ)
    rep = ms_jordan_check(lambda x: x, m, m, samples=12)
    assert rep.passed
    assert rep.line("jordan.group-homomorphism").samples == 12


def test_one_zero_anchor_error():
    # T's Hua map raises the same class that moufang and quadspace name
    assert pseudoquad.ZeroAnchor is quadspace.ZeroAnchor is ZeroAnchor
    sp = xi_f4()
    with pytest.raises(ZeroAnchor):
        t_hua(sp.identity(), sp.unit())


def test_indifferent_family():
    from mforge.scalars import F2
    ind = IndifferentSet(F2, [F2.one()], [F2.one()])
    m = MoufangSet(MoufangSet.INDIFFERENT, ind)
    assert ms_verify(m, samples=10).passed


@pytest.mark.parametrize("family, payload", [
    (MoufangSet.QUADRATIC, lambda: space_from_quadext(F4)),
    (MoufangSet.PSEUDOQUADRATIC, xi_f4),
    (MoufangSet.INVOLUTORY, lambda: InvolutorySet(F4, SIGMA_GALOIS)),
    (MoufangSet.INDIFFERENT, lambda: IndifferentSet(
        F4, [F4.one(), F4.gen()], [F4.one(), F4.gen()])),
    (MoufangSet.LINEAR, lambda: F5),
    (MoufangSet.LINEAR, lambda: SmallFieldHandle(
        qs_small_dim_field(space_from_quadext(F4))[0])),
], ids=["f4-space", "xi-f4", "f4-galois", "f4-indifferent", "f5",
        "f4-small-field"])
def test_size_is_counted_as_listed(family, payload):
    m = MoufangSet(family, payload())
    assert m.is_finite()
    assert m.size() == len(m.elements())


def test_large_tower_is_counted_without_listing():
    from mforge.composition import CDAlgebra
    m = MoufangSet(MoufangSet.LINEAR, CDAlgebra(F5, [-1, -1, -1]))
    assert m.is_finite() and m.size() == 5 ** 8 == 390625


def test_large_tower_is_verified_on_samples_only():
    # 5^8 elements are too many for the bijectivity sweeps
    from mforge.composition import CDAlgebra
    m = MoufangSet(MoufangSet.LINEAR, CDAlgebra(F5, [-1, -1, -1]))
    rep = ms_verify(m, samples=5)
    assert [ln.rule for ln in rep.lines] == ["hua.endomorphism",
                                             "hua.unit-is-identity"]
    assert rep.passed and rep.line("hua.endomorphism").samples == 5


def test_infinite_carrier_has_no_size():
    m = MoufangSet(MoufangSet.LINEAR, QQ)
    assert not m.is_finite()
    with pytest.raises(TypeError):
        m.size()


def test_payload_type_is_checked():
    with pytest.raises(TypeError, match="quadratic.*QuadExt"):
        MoufangSet(MoufangSet.QUADRATIC, F4)
    with pytest.raises(TypeError, match="involutory.*PseudoQuadraticSpace"):
        MoufangSet(MoufangSet.INVOLUTORY, xi_f4())
    with pytest.raises(TypeError, match="linear.*str"):
        MoufangSet(MoufangSet.LINEAR, "F4")
    with pytest.raises(ValueError, match="unknown family"):
        MoufangSet("hexagonal", F4)


def test_payload_type_is_checked_under_optimization():
    # the check is no assert statement, so python -O keeps it
    code = ("from mforge.moufang import MoufangSet\n"
            "from mforge.scalars import F4\n"
            "try:\n"
            "    MoufangSet(MoufangSet.QUADRATIC, F4)\n"
            "except TypeError:\n"
            "    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "refused\n"
