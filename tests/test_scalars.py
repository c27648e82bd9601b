import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge.scalars import (F2, F3, F4, F5, QI, QQ, DescriptorMismatch,
                            DivisionByZero, NotQuadExt, PrimeField, QuadExt,
                            Scalar, _draws_array, _draws_below, field_by_name,
                            first_root, galois_data, random_scalar)


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


def test_quadext_irreducibility_matches_the_root_search():
    # over F_p, p odd, the discriminant t0^2 - 4 n0 decides it; the oracle
    # tries every residue
    for p in (3, 5, 7, 11, 13):
        base = PrimeField(p)
        for t0, n0 in itertools.product(range(p), repeat=2):
            rooted = any((y * y - t0 * y + n0) % p == 0 for y in range(p))
            try:
                QuadExt(base, t0, n0)
                built = True
            except ValueError:
                built = False
            assert built != rooted, (p, t0, n0)


def test_quadext_over_a_61_bit_prime_builds_at_once():
    start = time.perf_counter()
    p = 2 ** 61 - 1
    ext = QuadExt(PrimeField(p), 0, 1)      # -4 is no square: p = 3 mod 4
    assert time.perf_counter() - start < 0.5
    assert ext.gen() * ext.gen() == ext.scalar(-1)
    with pytest.raises(ValueError, match="has a root"):
        QuadExt(PrimeField(p), 0, -1)


def test_gaussian_renders():
    cases = [((Fraction(-3, 4), Fraction(5, 6)), "-3/4 + 5/6*i"),
             ((0, Fraction(1, 2)), "1/2*i"), ((0, 1), "1*i"), (-1, "-1"),
             (0, "0")]
    for x, want in cases:
        assert repr(QI.scalar(x)) == want
    assert repr(QI.gen()) == "1*i"


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
    assert QQ.scalar(1) == QQ.one() and QQ.scalar(1) != 1
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
    assert QI.lower([1, 2], 2) == [(1, 2, 2)]
    assert QI.parts(QI.lower([1, 2], 2)[0]) == (Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41, 10007])
def test_prime_field_sqrt_is_the_smaller_root(p):
    field = PrimeField(p)
    roots = {}
    for r in range(p):
        roots.setdefault(r * r % p, r)
    for a in range(min(p, 200)):
        assert field.sqrt(a) == roots.get(a)


# psi_12 passes Miller-Rabin to each of the 12 prime bases up to 37, and
# psi_13 to each of the 13 up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_prime_fields_refuse_the_strong_pseudoprimes_psi_12_and_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="modulus %d is not prime" % PSI_12):
        PrimeField(PSI_12)
    with pytest.raises(ValueError, match="from %d \\(psi_13\\)" % PSI_13):
        PrimeField(PSI_13)
    big = PrimeField(2 ** 61 - 1)
    assert big.scalar(PSI_12 % big.p).inv() * PSI_12 == big.one()


def test_rational_sqrt_is_the_root_at_least_zero():
    for r in ("0", "1", "3/2", "-5/7", "12/35"):
        assert QQ.sqrt(Fraction(r) ** 2) == abs(Fraction(r))
    for a in ("2", "-1", "1/2", "8/9", "-4", "9/8"):
        assert QQ.sqrt(Fraction(a)) is None


# every quadratic extension here has t0 != 0 or t0 = 0, so both ways to a
# root of QuadExt.sqrt are taken
EXTENSIONS = [QuadExt(F3, 0, 1), QuadExt(F3, 1, 2), QuadExt(F5, 0, 2),
              QuadExt(PrimeField(7), 1, 3), QuadExt(PrimeField(13), 3, 5)]


def _field_id(f):
    return ("%r-%s-%s" % (f.base, f.t0, f.n0) if isinstance(f, QuadExt)
            else repr(f))


@pytest.mark.parametrize("field", EXTENSIONS, ids=_field_id)
def test_quadext_sqrt_agrees_with_squaring_every_element(field):
    """The smaller-payload root of each square, None for each
    non-square."""
    roots = {}
    for r in field.elements():
        roots.setdefault((r * r).val, []).append(r.val)
    assert len(roots) == (field.order() + 1) // 2
    for a in field.elements():
        want = roots.get(a.val)
        assert field.sqrt(a.val) == (want and min(want)), a


@pytest.mark.parametrize("field", [QI, F4])
def test_quadext_sqrt_needs_an_odd_prime_base(field):
    with pytest.raises(TypeError, match="odd prime base"):
        field.sqrt(field.one_payload())


ROOT_FIELDS = [F2, F4, F3, F5, PrimeField(7), PrimeField(11), PrimeField(13),
               *EXTENSIONS[:3]]


@pytest.mark.parametrize("field", ROOT_FIELDS, ids=_field_id)
def test_first_root_is_the_first_root_a_scan_meets(field):
    """On every (c, b, a) with c != 0: the first t of `elements()` with
    c t^2 + b t + a = 0, or None."""
    elems = field.elements()
    for c, b in itertools.product(elems[1:], elems):
        first = {}
        for t in elems:
            first.setdefault(-(c * t * t + b * t), t)
        for a in elems:
            assert first_root(field, c, b, a) == first.get(a), (c, b, a)


def test_first_root_over_the_rationals():
    for c, r1, r2 in ((1, "1/2", "-3"), ("-2/3", 0, "5/4"), (3, 2, 2)):
        c, r1, r2 = (Fraction(x) for x in (c, r1, r2))
        t = first_root(QQ, c, -c * (r1 + r2), c * r1 * r2)
        assert t.field == QQ and t.val in (r1, r2)
    for c, b, a in ((1, 0, -2), (1, 0, 1), (2, 1, 1), (1, 1, -1)):
        assert first_root(QQ, c, b, a) is None


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
    seeds, heights from 1 to 10007 and 8 or 16 coordinates.  A height
    below 1 over Q is refused at once, as randint refuses it, and so is
    any bound below 1 of either draw primitive."""
    for seed, height, n in itertools.product(
            range(50), (1, 2, 9, 20, 10007), (8, 16)):
        rng = random.Random(seed)
        want = [_reference_draw(field, rng, height) for _ in range(n)]
        after = rng.random()
        for draw in (lambda rng: field.lower(*field.random_coords(
                         rng, n, height)),
                     lambda rng: [field.random_payload(rng, height)
                                  for _ in range(n)]):
            rng = random.Random(seed)
            got = draw(rng)
            if isinstance(field, QuadExt):
                got = [field.parts(g) for g in got]
            assert (got, rng.random()) == (want, after)
            assert all(type(g) is type(w) for g, w in zip(got, want))
    if field.coord_field == QQ:
        for height in (0, -1):
            with pytest.raises(ValueError):
                field.random_coords(_BoundedRandom(0), 8, height)
            with pytest.raises(ValueError):
                field.random_payload(_BoundedRandom(0), height)
    for draws, (n, count) in itertools.product(
            (_draws_below, _draws_array), ((0, 2), (-1, 1), (0, 4), (0, 40))):
        with pytest.raises(ValueError):
            draws(_BoundedRandom(0), n, count)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1009, 2 ** 31 - 1,
                               2 ** 32 - 5, 2 ** 61 - 1])
def test_draws_below_one_bound_are_cpythons_randrange(n):
    """_draws_below(rng, n, count) makes the draws of `count` calls of
    rng.randrange(n) and leaves the generator in the same state, also
    past 2^32, where one draw takes two 32-bit words."""
    for seed, count in itertools.product(range(20), (0, 1, 7, 64)):
        rng = random.Random(seed)
        want = [rng.randrange(n) for _ in range(count)]
        after = rng.getstate()
        rng = random.Random(seed)
        got = _draws_below(rng, n, count)
        assert (got, rng.getstate()) == (want, after), (seed, count)
        assert all(type(g) is int for g in got)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1009, 4097, 2 ** 31 - 1,
                               2 ** 32 - 5, 2 ** 32, 2 ** 61 - 1])
def test_whole_word_draws_are_the_draw_loops(n):
    """_draws_array(rng, n, count) makes the draws of _draws_below, as an
    int64 array, and leaves the generator in the same state: read off
    whole words below 2^32, and by the loop itself from 2^32 on."""
    for seed, count in itertools.product(range(5),
                                         (0, 1, 16, 17, 40, 960, 3000)):
        rng = random.Random(seed)
        want = _draws_below(rng, n, count)
        after = rng.getstate()
        rng = random.Random(seed)
        got = _draws_array(rng, n, count)
        assert got.dtype == np.int64 and got.shape == (count,)
        assert (got.tolist(), rng.getstate()) == (want, after), (seed, count)


@pytest.mark.parametrize("height", [-1, 0, 1, 2, 5, 9, 20, 40, 41, 45])
def test_rational_batch_draws_are_random_coords(height):
    """The batch draw of the stacked identity suites over Q
    (``composition._Stacks.draw``) holds, row by row and modulo each of
    its primes, the residues of the values Rationals.random_coords draws
    one by one, and leaves the generator where that call does; also past
    height 40, where the suites go case by case.  A height of 0 or less
    raises ValueError before any draw."""
    from mforge.composition import _RESIDUE_PRIMES, octonions_q
    line = octonions_q()._kernel.stacks.line
    if height <= 0:
        for count in (0, 4):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(ValueError):
                line.draw(rng, count, 1, 1, height, _RESIDUE_PRIMES[:1])
            assert rng.getstate() == state
        return
    for moduli, seed, count in itertools.product(
            (_RESIDUE_PRIMES[:1], _RESIDUE_PRIMES[2:5]), range(5),
            (0, 1, 17, 960)):
        rng = random.Random(seed)
        nums, den = QQ.random_coords(rng, count, height)
        want = [[n * pow(den, -1, q) % q for n in nums] for q in moduli]
        after = rng.getstate()
        rng = random.Random(seed)
        (got,) = line.draw(rng, count, 1, 1, height, moduli)
        assert got.rows.dtype == np.int64
        assert got.rows.shape == (len(moduli) * count, 1)
        assert got.rows.reshape(len(moduli), count).tolist() == want
        assert rng.getstate() == after, (moduli, seed, count)


# -- the pair rule: quadratic-extension arithmetic payload by payload in the
#    base field, the oracle of the integer closed forms

def _pair_conj(field, a):
    """conj(u + v w) = u + t0 v - v w."""
    f = field.base
    u, v = a
    return (f.add(u, f.mul(field.t0, v)), f.neg(v))


def _pair_mul(field, a, b):
    """(u1 + v1 w)(u2 + v2 w) with w^2 = t0 w - n0, by six base products."""
    f = field.base
    u1, v1 = a
    u2, v2 = b
    vv = f.mul(v1, v2)
    u = f.sub(f.mul(u1, u2), f.mul(field.n0, vv))
    v = f.add(f.add(f.mul(u1, v2), f.mul(v1, u2)), f.mul(field.t0, vv))
    return (u, v)


def _pair_norm_trace(field, a):
    """N(a) and T(a), the base parts of a * conj(a) and a + conj(a)."""
    f, c = field.base, _pair_conj(field, a)
    prod, s = _pair_mul(field, a, c), (f.add(a[0], c[0]), f.add(a[1], c[1]))
    assert field.base.is_zero(prod[1]) and field.base.is_zero(s[1])
    return prod[0], s[0]


def _pair_inv(field, a):
    """conj(a) * N(a)^-1, the norm inverted in the base field."""
    ninv = field.base.inv(_pair_norm_trace(field, a)[0])
    return tuple(field.base.mul(c, ninv) for c in _pair_conj(field, a))


QUADEXTS = [QI, QuadExt(QQ, Fraction(1, 3), Fraction(5, 2)), F4,
            QuadExt(F3, 0, 1)]


def _same(got, want):
    """Equal payloads of the same types, coordinate by coordinate."""
    pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
    return got == want and all(type(g) is type(w) for g, w in pairs)


@pytest.mark.parametrize("field", QUADEXTS, ids=["Qi", "Q(1/3,5/2)", "F4",
                                                 "F9"])
def test_quadext_closed_forms_match_the_pair_rule(field):
    """add, sub, neg, conj, mul, inv, norm_payload and trace_payload on
    integers equal the pair rule, read through `parts`: on every pair over
    F4 and F9, and over Q (t0 = 0 and t0 = 1/3, n0 = 5/2) on the zero, the
    one and payloads of heights 1, 9 and 10^6."""
    if field.is_finite():
        pays = [s.val for s in field.elements()]
    else:
        rng = random.Random(31)
        pays = [field.zero_payload(), field.one_payload()] + [
            field.random_payload(rng, h) for h in (1, 9, 10 ** 6)
            for _ in range(12)]
    f, parts = field.base, field.parts
    for a in pays:
        pa = parts(a)
        for b in pays:
            pb = parts(b)
            assert _same(parts(field.mul(a, b)), _pair_mul(field, pa, pb))
            assert _same(parts(field.add(a, b)), tuple(map(f.add, pa, pb)))
            assert _same(parts(field.sub(a, b)), tuple(map(f.sub, pa, pb)))
        assert _same(parts(field.neg(a)), tuple(map(f.neg, pa)))
        assert _same(parts(field.conj(a)), _pair_conj(field, pa))
        n, t = _pair_norm_trace(field, pa)
        assert _same(field.norm_payload(a), n)
        assert _same(field.trace_payload(a), t)
        if field.is_zero(a):
            with pytest.raises(DivisionByZero):
                field.inv(a)
        else:
            assert _same(parts(field.inv(a)), _pair_inv(field, pa))


@pytest.mark.parametrize("field", QUADEXTS, ids=["Qi", "Q(1/3,5/2)", "F4",
                                                 "F9"])
def test_quadext_payloads_are_canonical(field):
    """Equal elements have equal payloads, whatever operations reach them:
    over Q a triple (u, v, d) of ints with gcd 1 and d > 0, over F_p a
    pair of residues."""
    def canonical(a):
        if field.is_finite():
            return len(a) == 2 and all(0 <= c < field.base.p for c in a)
        return (len(a) == 3 and all(type(c) is int for c in a)
                and math.gcd(*a) == 1 and a[2] > 0)

    rng = random.Random(37)
    xs = [random_scalar(field, rng, 9, nonzero=True) for _ in range(24)]
    for x, y in zip(xs, xs[1:]):
        for z in (x + y, x - y, -x, x * y, x / y, x.inv(), x.conj()):
            assert canonical(z.val)
        assert ((x * y) / y).val == (x + y - y).val == x.val
        assert (x * x.inv()).val == field.one_payload()
        assert (x - x).val == field.zero_payload()
        assert x.conj().conj().val == x.val
        assert hash(x * y) == hash(y * x)
    if not field.is_finite():
        assert field.lower([2, 4, -2, 4], 6) == [(1, 2, 3), (-1, 2, 3)]
        assert field.lower([2, 4], -6) == [(-1, -2, 3)]
        assert field.coerce((Fraction(1, 3), Fraction(2, 3))) == (1, 2, 3)
        assert field.coerce(QQ.scalar("4/6")) == (2, 0, 3)


@pytest.mark.parametrize("x", [(0.5, 1), (1, 0.5), 0.5, (True, 1)])
@pytest.mark.parametrize("field", [QI, F4])
def test_quadext_refuses_inexact_coordinates(field, x):
    with pytest.raises(TypeError):
        field.coerce(x)


def test_f4_scalar_from_a_residue_pair():
    """An F4 payload is the pair of residues, so a Scalar built on one
    directly is an element like any other."""
    w = Scalar(F4, (0, 1))
    assert w == F4.gen() and Scalar(F4, (1, 1)) == w * w
    assert repr(Scalar(F4, (1, 1))) == "1 + 1*w"
    assert F4.parts((1, 1)) == (1, 1)
