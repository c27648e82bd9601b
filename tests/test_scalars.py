import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge.scalars import (F2, F4, F5, QI, QQ, DescriptorMismatch,
                            DivisionByZero, NotQuadExt, PrimeField, QuadExt,
                            Scalar, field_by_name, galois_data, random_scalar)


def test_rational_arithmetic():
    assert QQ.scalar("1/3") + QQ.scalar("1/6") == QQ.scalar("1/2")
    assert QQ.scalar(2) / QQ.scalar(-4) == QQ.scalar("-1/2")
    assert repr(QQ.scalar("4/6")) == "2/3"


def test_prime_field_division():
    assert F5.scalar(2) / F5.scalar(3) == F5.scalar(4)
    with pytest.raises(DivisionByZero):
        F5.scalar(1) / F5.scalar(0)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_quadext_reduction():
    w = F4.gen()
    assert w * w == w + F4.one()     # w^2 = w + 1
    assert w * w * w == F4.one()     # w has order 3


def test_quadext_irreducibility_guard():
    # y^2 - y has the root 0
    with pytest.raises(ValueError):
        QuadExt(F2, 1, 0)
    # y^2 - 1 factors over Q
    with pytest.raises(ValueError):
        QuadExt(QQ, 0, -1)


def test_galois_data_f4():
    w = F4.gen()
    conj, norm, trace = galois_data(w)
    assert conj == w * w
    assert norm == F2.one()
    assert trace == F2.one()


def test_galois_data_gaussian():
    x = QI.scalar((3, 4))
    conj, norm, trace = galois_data(x)
    assert conj == QI.scalar((3, -4))
    assert norm == QQ.scalar(25)
    assert trace == QQ.scalar(6)


def test_galois_data_identity_case():
    one = QI.one()
    conj, norm, trace = galois_data(one)
    assert conj == one and norm == QQ.one() and trace == QQ.scalar(2)


def test_galois_requires_extension():
    with pytest.raises(NotQuadExt):
        galois_data(QQ.one())


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        F5.scalar(1) + F2.scalar(1)


@pytest.mark.parametrize("field", [QQ, F5, F4, QI])
@pytest.mark.parametrize("value", [0.5, 0.1, 2.0, True, False])
def test_floats_and_bools_are_refused(field, value):
    with pytest.raises(TypeError):
        field.scalar(value)
    with pytest.raises(TypeError):
        field.one() + value
    if isinstance(field, QuadExt):
        with pytest.raises(TypeError):
            field.scalar((1, value))


def test_exact_inputs_still_coerce():
    assert QQ.scalar("1/10").val == Fraction(1, 10)
    assert QQ.scalar(Fraction(-3, 7)).val == Fraction(-3, 7)
    assert F5.scalar(7).val == 2
    assert F5.scalar("-1").val == 4
    assert QQ.scalar(1) == 1
    assert F5.scalar(Fraction(7, 1)).val == 2
    assert type(F5.scalar(Fraction(7, 1)).val) is int


@pytest.mark.parametrize("field", [F5, F4])
def test_non_integral_fractions_are_refused_in_characteristic_p(field):
    with pytest.raises(TypeError):
        field.scalar(Fraction(1, 2))
    with pytest.raises(TypeError):
        field.one() + Fraction(1, 2)


def test_field_by_name():
    assert field_by_name("F7").p == 7
    assert field_by_name("Qi") == QI


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    x, y, z = (QQ.scalar(v) for v in (a, b, c))
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4))
def test_f4_norm_multiplicative(a, b, c, d):
    x = Scalar(F4, (a % 2, b % 2))
    y = Scalar(F4, (c % 2, d % 2))
    _, nx, _ = galois_data(x)
    _, ny, _ = galois_data(y)
    _, nxy, _ = galois_data(x * y)
    assert nxy == nx * ny


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9))
def test_gaussian_conj_is_automorphism(a, b, c, d):
    x, y = QI.scalar((a, b)), QI.scalar((c, d))
    cx, _, _ = galois_data(x)
    cy, _, _ = galois_data(y)
    cxy, _, _ = galois_data(x * y)
    cxpy, _, _ = galois_data(x + y)
    assert cxy == cx * cy
    assert cxpy == cx + cy
    assert galois_data(cx)[0] == x


def test_minimum_equation_on_samples():
    rng = random.Random(5)
    for field in (F4, QI):
        for _ in range(50):
            x = random_scalar(field, rng, 9)
            _, n, t = galois_data(x)
            lhs = x * x - x * t + field.scalar(n)
            assert lhs.is_zero()


def test_random_scalar_height_bound():
    rng = random.Random(1)
    for _ in range(100):
        s = random_scalar(QQ, rng, height=20)
        assert abs(s.val.numerator) <= 20 * 20 and s.val.denominator <= 20


@pytest.mark.parametrize("field", [QQ, F5, F4, QI])
def test_lift_and_lower_are_inverse(field):
    rng = random.Random(3)
    vals = [field.random_payload(rng, 9) for _ in range(6)]
    nums, den = field.lift(vals)
    assert len(nums) == len(vals) * field.coord_dim
    assert all(type(n) is int for n in nums) and type(den) is int
    assert field.lower(nums, den) == vals


def test_lower_divides_by_the_denominator():
    assert QQ.lower([2, 0, -3], 4) == [Fraction(1, 2), 0, Fraction(-3, 4)]
    # 1/3 = 2 and 2/3 = 4 in F5
    assert F5.lower([1, 2, 5], 3) == [2, 4, 0]
    assert QI.lower([1, 2], 2) == [(Fraction(1, 2), Fraction(1))]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41, 10007])
def test_prime_field_sqrt_is_the_smaller_root(p):
    field = PrimeField(p)
    roots = {}
    for r in range(p):
        roots.setdefault(r * r % p, r)
    for a in range(min(p, 200)):
        assert field.sqrt(a) == roots.get(a)


def _reference_draw(field, rng, height):
    """One random payload, drawn in the order the seeded reports pin:
    num then den over Q, a residue over F_p, u then v over an extension."""
    if isinstance(field, QuadExt):
        return (_reference_draw(field.base, rng, height),
                _reference_draw(field.base, rng, height))
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


class _BoundedRandom(random.Random):
    """A generator that refuses its 65th getrandbits call, so a draw loop
    that never ends fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 64:
            raise RuntimeError("the draw loop does not end")
        return super().getrandbits(k)


@pytest.mark.parametrize("field", [QQ, F5, F4, QI, F2, PrimeField(10007)])
def test_random_draws_follow_the_reference_order(field):
    """random_coords and random_payload make the draws of rng.randint and
    rng.randrange and leave the generator in the same state, over 50
    seeds and heights from 1 to 10007.  A height below 1 over Q is
    refused at once, as randint refuses it."""
    for seed, height in itertools.product(range(50), (1, 2, 9, 20, 10007)):
        rng = random.Random(seed)
        want = [_reference_draw(field, rng, height) for _ in range(12)]
        after = rng.random()
        for draw in (lambda rng: field.lower(*field.random_coords(
                         rng, 12, height)),
                     lambda rng: [field.random_payload(rng, height)
                                  for _ in range(12)]):
            rng = random.Random(seed)
            got = draw(rng)
            assert (got, rng.random()) == (want, after)
            assert all(type(g) is type(w) for g, w in zip(got, want))
    if field.coord_field == QQ:
        for height in (0, -1):
            with pytest.raises(ValueError):
                field.random_coords(_BoundedRandom(0), 8, height)
            with pytest.raises(ValueError):
                field.random_payload(_BoundedRandom(0), height)
