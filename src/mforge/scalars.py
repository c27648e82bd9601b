"""Exact field arithmetic: rationals, prime fields and quadratic extensions.

Every value in the package is built on the fields defined here.  A field
object owns the arithmetic on raw payloads, and ``Scalar`` is a thin
immutable wrapper carrying its field.  There is no floating point
anywhere.  A payload is a ``Fraction`` over Q, an int residue over F_p,
and over a quadratic extension integers over one denominator: the reduced
triple (u, v, d) over Q, the residue pair (u, v) over F_p (``QuadExt``).

Every field has coordinates over Q or F_p (a quadratic extension's
element has two coordinates over its base); ``lift`` and ``lower`` pass
between payloads and those coordinates as integers over one denominator,
the form in which ``composition`` stores tower elements and ``quadspace``
vectors, and ``random_coords`` draws random payloads straight into it.
``_reducer`` puts that form in canonical shape, so equal values have
equal forms.  Every seeded draw below n is the one CPython's Random
makes: getrandbits(n.bit_length()) until below n.  ``_draws_below``
makes a run of draws below one bound, with the bit length and the check
n > 0 taken once, as Python ints (``PrimeField.random_coords``, whose
payloads and reprs must be ints).  ``_draws_array`` makes the same draws
as an int64 array read off whole 32-bit words (the stacked identity
suites of ``composition`` over F_p).  ``_rational_draws`` draws the
numerator and denominator pairs of rationals in one loop, the one Q
draw: ``Rationals.random_coords`` puts them over their lcm, and the
stacked identity suites over Q take their residues.  No other module
reads getrandbits.  ``first_root`` is the one root rule of the package,
by each field's ``sqrt``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_ZERO = Fraction(0)


class DivisionByZero(ZeroDivisionError):
    pass


class DescriptorMismatch(ValueError):
    pass


class NotQuadExt(TypeError):
    pass


# psi_13, the least composite that passes Miller-Rabin to every base in
# _PRIME_BASES: the test decides every n below it (Sorenson & Webster,
# Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, decided for n below `PRIME_BOUND`; a ValueError
    above it."""
    if n >= PRIME_BOUND:
        raise ValueError("moduli from %d (psi_13) on are not decided prime"
                         % PRIME_BOUND)
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reducer(p, make):
    """The map (nums, den) -> make(nums', den'), where nums' / den' is the
    canonical form of the integer coordinates nums / den over F_p, or over
    Q for p = 0: residues over the denominator 1 over F_p; gcd(den',
    *nums') = 1 and den' > 0 over Q.  Built once per algebra, field or
    space, so a call does not test the characteristic again."""
    if p:
        def reduce(nums, den):
            if den == 1:
                return make(tuple([n % p for n in nums]), 1)
            d = pow(den, -1, p)
            return make(tuple([n * d % p for n in nums]), 1)
        return reduce

    def reduce(nums, den):
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g == 1:
            return make(tuple(nums), den)
        return make(tuple([n // g for n in nums]), den // g)
    return reduce


def _draws_below(rng, n, count):
    """`count` draws below n, as `count` calls of CPython's
    rng.randrange(n) make them: getrandbits(n.bit_length()) until below
    n.  ValueError for n <= 0, where that loop never ends."""
    if n <= 0:
        raise ValueError("empty range for a draw below %d" % n)
    getrandbits, k, out = rng.getrandbits, n.bit_length(), []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _draws_array(rng, n, count):
    """The draws of ``_draws_below(rng, n, count)`` as an int64 array, read
    off whole words for 0 < n < 2^32 (Matsumoto & Nishimura, ACM TOMACS
    8, 1998).  getrandbits(k), k <= 32, is the top k bits of the next
    32-bit word, and getrandbits(32 m) the next m words, the first in the
    lowest bits.  Each word gives at most one draw, so drawing as many
    words as draws are missing never passes the word the loop would stop
    at.  The last 16 or fewer draws, and every bound of 2^32 or more
    (below 2^63, for int64), take ``_draws_below``."""
    if not 0 < n < 1 << 32:
        return np.array(_draws_below(rng, n, count), np.int64)
    shift, runs, missing = 32 - n.bit_length(), [], count
    while missing > 16:
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(
            4 * missing, "little"), "<u4") >> shift
        runs.append(words[words < n])
        missing -= len(runs[-1])
    runs.append(np.array(_draws_below(rng, n, missing), np.uint32))
    return np.concatenate(runs).astype(np.int64)


def _rational_draws(rng, n, height):
    """The numerators and denominators of n rationals drawn at `height`,
    one by one: a numerator below 2h + 1, less h, then a denominator below
    h, plus 1, each as ``_draws_below`` draws it (``Rationals.random_coords``
    and the stacked identity suites over Q).  ValueError for height <= 0,
    before any draw."""
    if height <= 0:
        raise ValueError("empty range for a draw below %d" % height)
    getrandbits, h2 = rng.getrandbits, 2 * height + 1
    kn, kd = h2.bit_length(), height.bit_length()
    nums, dens = [], []
    for _ in range(n):
        r = getrandbits(kn)
        while r >= h2:
            r = getrandbits(kn)
        d = getrandbits(kd)
        while d >= height:
            d = getrandbits(kd)
        nums.append(r - height)
        dens.append(1 + d)
    return nums, dens


def _inexact(field, x):
    return TypeError("%s holds exact values only, not the %s %r"
                     % (field, type(x).__name__, x))


class Field:
    """Base class; subclasses implement exact arithmetic on payloads."""

    kind = "abstract"

    def scalar(self, x):
        return Scalar(self, self.coerce(x))

    def zero(self):
        return Scalar(self, self.zero_payload())

    def one(self):
        return Scalar(self, self.one_payload())

    # -- payload protocol -------------------------------------------------
    def coerce(self, x):  # pragma: no cover - overridden
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def conj(self, a):
        """The field's standard involution: the identity unless overridden."""
        return a

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("division by zero in %s" % self)
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero_payload()

    def characteristic(self):
        raise NotImplementedError

    def is_finite(self):
        return False

    def elements(self):
        raise TypeError("%s is not finite" % self)

    def random_payload(self, rng, height=20):
        """One draw of `random_coords`, lowered."""
        return self.lower(*self.random_coords(rng, 1, height))[0]

    def random_coords(self, rng, n, height=20):
        """n payloads drawn as n calls of `random_payload` draw them, in
        the same order, lifted: (nums, den)."""
        raise NotImplementedError

    def render(self, a):
        return str(a)

    # -- coordinates: Q and F_p are their own coordinate field
    coord_dim = 1

    @property
    def coord_field(self):
        return self

    # -- the carrier protocol of ``handles.Handle``, which towers and
    # quadratic spaces answer through ``linalg.IntSpace``
    def element(self, coords):
        """The element with these coordinates over `coord_field`, by that
        field's `lift` and this field's `lower`: inverse to
        `Scalar.coords`."""
        cf = self.coord_field
        vals = [cf.coerce(c) for c in coords]
        if len(vals) != self.coord_dim:
            raise ValueError("expected %d coordinates" % self.coord_dim)
        return Scalar(self, self.lower(*cf.lift(vals))[0])

    def random_element(self, rng, height=20, nonzero=False):
        return random_scalar(self, rng, height, nonzero)

    def all_elements(self):
        return self.elements()

    from_base = scalar

    def is_commutative(self):
        return True

    def __ne__(self, other):
        return not self.__eq__(other)


class Rationals(Field):
    kind = "rationals"

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise DescriptorMismatch("scalar from %s" % x.field)
            return x.val
        if isinstance(x, (float, bool)):
            raise _inexact(self, x)
        return Fraction(x)

    def zero_payload(self):
        return Fraction(0)

    def one_payload(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def characteristic(self):
        return 0

    def sqrt(self, a):
        """The root r >= 0 of a rational a, or None for a non-square."""
        r = Fraction(math.isqrt(max(a.numerator, 0)),
                     math.isqrt(a.denominator))
        return r if r * r == a else None

    def random_coords(self, rng, n, height=20):
        nums, dens = _rational_draws(rng, n, height)
        den = math.lcm(*dens)
        return [num * (den // d) for num, d in zip(nums, dens)], den

    def render(self, a):
        num, den = a.numerator, a.denominator
        return str(num) if den == 1 else "%d/%d" % (num, den)

    def lift(self, vals):
        """(nums, den): the coordinates of `vals` as nums[k] / den."""
        den = math.lcm(*[v.denominator for v in vals])
        return [v.numerator * (den // v.denominator) for v in vals], den

    def lower(self, nums, den):
        """The payloads with coordinates nums[k] / den, inverse to lift."""
        return [Fraction(n, den) if n else _ZERO for n in nums]

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise DescriptorMismatch("scalar from %s" % x.field)
            return x.val
        if isinstance(x, (float, bool)):
            raise _inexact(self, x)
        if isinstance(x, str):
            x = int(x)
        elif isinstance(x, Fraction):
            if x.denominator != 1:
                raise TypeError("%s takes integers, not the fraction %s"
                                % (self, x))
            x = x.numerator
        return x % self.p

    def zero_payload(self):
        return 0

    def one_payload(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0

    def characteristic(self):
        return self.p

    def is_finite(self):
        return True

    def order(self):
        return self.p

    def elements(self):
        return [Scalar(self, r) for r in range(self.p)]

    def random_coords(self, rng, n, height=20):
        return _draws_below(rng, self.p, n), 1

    def sqrt(self, a):
        """The root r <= p - r of a residue a, or None for a non-square
        (Tonelli-Shanks; Cohen, A Course in Computational Algebraic Number
        Theory, Alg. 1.5.1)."""
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        y, r = pow(z, q, p), e
        x, b = pow(a, (q + 1) // 2, p), pow(a, q, p)
        while b != 1:
            m, t = 1, b * b % p
            while t != 1:
                m += 1
                t = t * t % p
            s = pow(y, 1 << (r - m - 1), p)
            y, r = s * s % p, m
            x, b = x * s % p, b * s * s % p
        return min(x, p - x)

    def lift(self, vals):
        """The residues over the denominator 1, in the sequence given."""
        return vals, 1

    def lower(self, nums, den):
        """The residues nums[k] * den^-1 mod p."""
        p = self.p
        if den == 1:
            return [n % p for n in nums]
        dinv = pow(den, -1, p)
        return [n * dinv % p for n in nums]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F_%d" % self.p


class QuadExt(Field):
    """Quadratic extension base(w) with w^2 = t0*w - n0.

    The defining polynomial y^2 - t0*y + n0 must be irreducible over the
    base, which is restricted to Q or a prime field.  A payload holds the
    integer coordinates of u + v*w over one denominator, in the canonical
    form of ``_reducer``, so equal elements have equal payloads: over Q the
    triple (u, v, d) meaning (u + v*w) / d, with gcd(u, v, d) = 1 and
    d > 0; over F_p the pair of residues (u, v), the denominator 1 left
    implicit.  Sums, products, conjugates, inverses, norms and traces are
    closed forms on those integers; ``parts`` gives the two base payloads.
    """

    kind = "quadext"
    coord_dim = 2

    def __init__(self, base, t0, n0, gen_name="w"):
        if not isinstance(base, (Rationals, PrimeField)):
            raise ValueError("quadratic extensions are only over Q or F_p")
        self.base = base
        self.t0 = base.coerce(t0)
        self.n0 = base.coerce(n0)
        self.gen_name = gen_name
        self._p = p = base.characteristic()
        # the payload of (u + v*w) / d from (u, v), d
        self._make = _reducer(p, (lambda uv, d: uv) if p
                              else (lambda uv, d: uv + (d,)))
        (t, n), d0 = base.lift([self.t0, self.n0])
        self._tnd = (t, n, d0)    # t0 = t / d0 and n0 = n / d0
        self._hash = hash(("QuadExt", base, str(self.t0), str(self.n0)))
        if first_root(base, 1, base.neg(self.t0), self.n0) is not None:
            raise ValueError(
                "y^2 - (%s)y + (%s) has a root in %s"
                % (base.render(self.t0), base.render(self.n0), base))

    # -- the integer form of a payload
    def _open(self, a):
        """(u, v, d) with a = (u + v*w) / d."""
        return (a[0], a[1], 1) if self._p else a

    def parts(self, a):
        """(u, v): the base payloads of a = u + v*w."""
        u, v, d = self._open(a)
        return tuple(self.base.lower([u, v], d))

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field == self:
                return x.val
            if x.field == self.base:
                x = x.val
            else:
                raise DescriptorMismatch("scalar from %s" % x.field)
        u, v = x if isinstance(x, tuple) and len(x) == 2 else (x, 0)
        return self.lower(*self.base.lift([self.base.coerce(u),
                                           self.base.coerce(v)]))[0]

    def gen(self):
        return Scalar(self, self._make((0, 1), 1))

    def zero_payload(self):
        return self._make((0, 0), 1)

    def one_payload(self):
        return self._make((1, 0), 1)

    # sum, difference, product, negative and conjugate: over F_p on the
    # residue pairs, over Q on the triples, reduced by ``_make``
    def add(self, a, b):
        p = self._p
        if p:
            return (a[0] + b[0]) % p, (a[1] + b[1]) % p
        u1, v1, d1 = a
        u2, v2, d2 = b
        if d1 == d2:
            return self._make((u1 + u2, v1 + v2), d1)
        return self._make((u1 * d2 + u2 * d1, v1 * d2 + v2 * d1), d1 * d2)

    def sub(self, a, b):
        p = self._p
        if p:
            return (a[0] - b[0]) % p, (a[1] - b[1]) % p
        u1, v1, d1 = a
        u2, v2, d2 = b
        if d1 == d2:
            return self._make((u1 - u2, v1 - v2), d1)
        return self._make((u1 * d2 - u2 * d1, v1 * d2 - v2 * d1), d1 * d2)

    def mul(self, a, b):
        # (u1 + v1 w)(u2 + v2 w) with w^2 = t0 w - n0
        u1, v1 = a[0], a[1]
        u2, v2 = b[0], b[1]
        t, n, d0 = self._tnd
        vv = v1 * v2
        p = self._p
        if p:
            return ((u1 * u2 - n * vv) % p,
                    (u1 * v2 + v1 * u2 + t * vv) % p)
        return self._make((u1 * u2 * d0 - n * vv,
                           (u1 * v2 + v1 * u2) * d0 + t * vv),
                          a[2] * b[2] * d0)

    def neg(self, a):
        p = self._p
        if p:
            return -a[0] % p, -a[1] % p
        return -a[0], -a[1], a[2]

    def conj(self, a):
        # conj(u + v w) = u + t0 v - v w
        t, _, d0 = self._tnd
        p = self._p
        if p:
            return (a[0] + t * a[1]) % p, -a[1] % p
        u, v, d = a
        return self._make((u * d0 + t * v, -v * d0), d * d0)

    def _lifted_norm(self, a):
        """(u, v, d, m): a = (u + v w) / d and N(a) = m / (d^2 d0) on
        integers, by N(u + v w) = u^2 + t0 u v + n0 v^2."""
        u, v, d = self._open(a)
        t, n, d0 = self._tnd
        return u, v, d, u * u * d0 + t * u * v + n * v * v

    def norm_payload(self, a):
        _, _, d, m = self._lifted_norm(a)
        return self.base.lower([m], d * d * self._tnd[2])[0]

    def trace_payload(self, a):
        # T(u + v w) = 2u + t0 v
        u, v, d = self._open(a)
        t, _, d0 = self._tnd
        return self.base.lower([2 * u * d0 + t * v], d * d0)[0]

    def sqrt(self, a):
        """The root r of a with the smaller payload of r and -r, or None for
        a non-square, over F_p with p odd.  n = N(r) is a square root of
        N(a), T(r)^2 = T(a) + 2n and r = (a + n) / T(r); the other root of
        N(a) makes T(a) + 2n the non-square or zero (r - conj(r))^2.  When
        T(r) = 0, r is y (2w - t0) with y in F_p."""
        b, p = self.base, self._p
        if p in (0, 2):
            raise TypeError("square roots in %s need an odd prime base" % self)
        n = b.sqrt(self.norm_payload(a))
        if n is None:
            return None
        for n in (n, -n % p):
            s = b.sqrt(self.trace_payload(a) + 2 * n)
            if s:
                r = self.div(self.add(a, (n, 0)), (s, 0))
                break
        else:
            # a = y^2 (t0^2 - 4 n0) lies in F_p
            y = b.sqrt(a[0] * pow(self.t0 ** 2 - 4 * self.n0, -1, p))
            r = self.mul((y, 0), (-self.t0 % p, 2))
        return min(r, self.neg(r))

    def inv(self, a):
        # conj(a) / N(a) = ((u d0 + t v) d - v d0 d w) / m
        u, v, d, m = self._lifted_norm(a)
        if not (m % self._p if self._p else m):
            raise DivisionByZero("1/0 in %s" % self)
        t, _, d0 = self._tnd
        return self._make(((u * d0 + t * v) * d, -v * d0 * d), m)

    def is_zero(self, a):
        return not (a[0] or a[1])

    def characteristic(self):
        return self._p

    def is_finite(self):
        return self.base.is_finite()

    def order(self):
        return self.base.order() ** 2

    def elements(self):
        return [Scalar(self, (u, v))
                for u in range(self.base.p) for v in range(self.base.p)]

    def random_coords(self, rng, n, height=20):
        return self.base.random_coords(rng, 2 * n, height)

    @property
    def coord_field(self):
        return self.base

    def lift(self, vals):
        if self._p:
            return [c for a in vals for c in a], 1
        den = math.lcm(*[a[2] for a in vals])
        return [c * (den // a[2]) for a in vals for c in a[:2]], den

    def lower(self, nums, den):
        return [self._make(nums[k:k + 2], den)
                for k in range(0, len(nums), 2)]

    def render(self, a):
        u, v = self.parts(a)
        b = self.base
        if b.is_zero(v):
            return b.render(u)
        vs = "%s*%s" % (b.render(v), self.gen_name)
        if b.is_zero(u):
            return vs
        return "%s + %s" % (b.render(u), vs)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, QuadExt) and other.base == self.base
            and other.t0 == self.t0 and other.n0 == self.n0)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%r(%s)" % (self.base, self.gen_name)


class Scalar:
    """Immutable field element: a field reference plus a raw payload."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _peer(self, other):
        if isinstance(other, Scalar) and (other.field is self.field
                                          or other.field == self.field):
            return other.val
        # base-field scalars embed into a quadratic extension; anything
        # else is a descriptor mismatch raised by coerce
        return self.field.coerce(other)

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.val, self._peer(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.val, self._peer(other)))

    def __rsub__(self, other):
        return Scalar(self.field, self.field.sub(self._peer(other), self.val))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.val, self._peer(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.val, self._peer(other)))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field.div(self._peer(other), self.val))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.val))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.val == other.val)

    def __hash__(self):
        # equal scalars have equal payloads
        return hash(self.val)

    def inv(self):
        return Scalar(self.field, self.field.inv(self.val))

    inverse = inv

    @property
    def coords(self):
        """The coordinates over the field's coordinate field, by the
        field's `lift` and that field's `lower`; (self,) when the field is
        its own coordinate field."""
        f = self.field
        cf = f.coord_field
        if cf is f:
            return (self,)
        return tuple([Scalar(cf, v) for v in cf.lower(*f.lift([self.val]))])

    def conj(self):
        return Scalar(self.field, self.field.conj(self.val))

    def is_zero(self):
        return self.field.is_zero(self.val)

    def scale(self, c):
        """self * c, c in this field or its base: the scaling tower
        elements and space vectors share."""
        return self * c

    def __repr__(self):
        return self.field.render(self.val)


def galois_data(x):
    """Conjugate, norm and trace of a quadratic-extension element.

    Returns (conj in E, norm in the base, trace in the base); raises
    NotQuadExt on any other field.
    """
    f = x.field
    if not isinstance(f, QuadExt):
        raise NotQuadExt("galois data needs a quadratic extension, got %s" % f)
    norm = Scalar(f.base, f.norm_payload(x.val))
    trace = Scalar(f.base, f.trace_payload(x.val))
    return x.conj(), norm, trace


def random_scalar(field, rng, height=20, nonzero=False):
    while True:
        s = Scalar(field, field.random_payload(rng, height))
        if not (nonzero and s.is_zero()):
            return s


def first_root(field, c, b, a):
    """The first root of c t^2 + b t + a, c != 0, in `field.elements()`
    order, or None.  In characteristic 2 (F2 and F4) each element is
    tried; otherwise the roots are (-b +- r) / 2c with r = `field.sqrt` of
    the discriminant, and the smaller payload comes first, as it does in
    that order over F_p and F_p(w).  Over Q, either root is returned."""
    c, b, a = field.scalar(c), field.scalar(b), field.scalar(a)
    if field.characteristic() == 2:
        return next((t for t in field.elements()
                     if ((c * t + b) * t + a).is_zero()), None)
    r = field.sqrt((b * b - 4 * a * c).val)
    if r is None:
        return None
    r, d = Scalar(field, r), (c + c).inv()
    return min((r - b) * d, (-r - b) * d, key=lambda t: t.val)


# -- named fields ---------------------------------------------------------

QQ = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = QuadExt(F2, 1, 1, gen_name="w")       # w^2 = w + 1
QI = QuadExt(QQ, 0, 1, gen_name="i")       # i^2 = -1

NAMED_FIELDS = {"Q": QQ, "F2": F2, "F3": F3, "F5": F5, "F4": F4, "Qi": QI}


def field_by_name(name):
    if name in NAMED_FIELDS:
        return NAMED_FIELDS[name]
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise KeyError("unknown field %r" % name)
