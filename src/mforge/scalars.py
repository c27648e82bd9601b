"""Exact field arithmetic: rationals, prime fields and quadratic extensions.

Every value in the package is built on the fields defined here.  A field
object owns the arithmetic on raw payloads (Fraction / int residue / pair),
and ``Scalar`` is a thin immutable wrapper carrying its field.  There is no
floating point anywhere.
"""

from __future__ import annotations

import fractions

try:  # gmpy2.mpq is a drop-in, much faster rational; values are identical
    from gmpy2 import mpq as _RAT
except ImportError:  # pragma: no cover
    _RAT = fractions.Fraction


class DivisionByZero(ZeroDivisionError):
    pass


class DescriptorMismatch(ValueError):
    pass


class NotQuadExt(TypeError):
    pass


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _rat_is_square(q):
    """Exact square test for a rational payload."""
    if q < 0:
        return False
    num, den = q.numerator, q.denominator
    rn = _isqrt(num)
    rd = _isqrt(den)
    return rn * rn == num and rd * rd == den


def _inexact(field, x):
    return TypeError("%s holds exact values only, not the %s %r"
                     % (field, type(x).__name__, x))


def _isqrt(n):
    import math
    return math.isqrt(int(n))


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
        raise NotImplementedError

    def render(self, a):
        return str(a)

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
        if isinstance(x, str):
            return _RAT(fractions.Fraction(x))
        return _RAT(x)

    def zero_payload(self):
        return _RAT(0)

    def one_payload(self):
        return _RAT(1)

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

    def random_payload(self, rng, height=20):
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        return _RAT(num, den)

    def render(self, a):
        num, den = a.numerator, a.denominator
        return str(num) if den == 1 else "%d/%d" % (num, den)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not _is_probable_prime(p):
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

    def random_payload(self, rng, height=20):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F_%d" % self.p


class QuadExt(Field):
    """Quadratic extension base(w) with w^2 = t0*w - n0.

    The defining polynomial y^2 - t0*y + n0 must be irreducible over the
    base, which is restricted to Q or a prime field.  Payloads are pairs
    (u, v) of base payloads meaning u + v*w.
    """

    kind = "quadext"

    def __init__(self, base, t0, n0, gen_name="w"):
        if not isinstance(base, (Rationals, PrimeField)):
            raise ValueError("quadratic extensions are only over Q or F_p")
        self.base = base
        self.t0 = base.coerce(t0)
        self.n0 = base.coerce(n0)
        self.gen_name = gen_name
        if not self._irreducible():
            raise ValueError(
                "y^2 - (%s)y + (%s) has a root in %s"
                % (base.render(self.t0), base.render(self.n0), base))

    def _irreducible(self):
        b = self.base
        if b.is_finite():
            # exhaustive root search
            return all(
                b.add(b.sub(b.mul(y, y), b.mul(self.t0, y)), self.n0) != 0
                for y in range(b.p))
        # over Q a monic quadratic has a root iff the discriminant is a square
        disc = self.t0 * self.t0 - 4 * self.n0
        return not _rat_is_square(disc)

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field == self:
                return x.val
            if x.field == self.base:
                return (x.val, self.base.zero_payload())
            raise DescriptorMismatch("scalar from %s" % x.field)
        if isinstance(x, tuple) and len(x) == 2:
            return (self.base.coerce(x[0]), self.base.coerce(x[1]))
        return (self.base.coerce(x), self.base.zero_payload())

    def gen(self):
        return Scalar(self, (self.base.zero_payload(), self.base.one_payload()))

    def zero_payload(self):
        z = self.base.zero_payload()
        return (z, z)

    def one_payload(self):
        return (self.base.one_payload(), self.base.zero_payload())

    def add(self, a, b):
        f = self.base
        return (f.add(a[0], b[0]), f.add(a[1], b[1]))

    def sub(self, a, b):
        f = self.base
        return (f.sub(a[0], b[0]), f.sub(a[1], b[1]))

    def mul(self, a, b):
        # (u1 + v1 w)(u2 + v2 w), w^2 = t0 w - n0
        f = self.base
        u1, v1 = a
        u2, v2 = b
        vv = f.mul(v1, v2)
        u = f.sub(f.mul(u1, u2), f.mul(self.n0, vv))
        v = f.add(f.add(f.mul(u1, v2), f.mul(v1, u2)), f.mul(self.t0, vv))
        return (u, v)

    def neg(self, a):
        f = self.base
        return (f.neg(a[0]), f.neg(a[1]))

    def conj(self, a):
        f = self.base
        u, v = a
        return (f.add(u, f.mul(self.t0, v)), f.neg(v))

    def norm_payload(self, a):
        prod = self.mul(a, self.conj(a))
        assert self.base.is_zero(prod[1])
        return prod[0]

    def trace_payload(self, a):
        s = self.add(a, self.conj(a))
        assert self.base.is_zero(s[1])
        return s[0]

    def inv(self, a):
        n = self.norm_payload(a)
        if self.base.is_zero(n):
            raise DivisionByZero("1/0 in %s" % self)
        ninv = self.base.inv(n)
        c = self.conj(a)
        return (self.base.mul(c[0], ninv), self.base.mul(c[1], ninv))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def characteristic(self):
        return self.base.characteristic()

    def is_finite(self):
        return self.base.is_finite()

    def order(self):
        return self.base.order() ** 2

    def elements(self):
        return [Scalar(self, (u, v))
                for u in range(self.base.p) for v in range(self.base.p)]

    def random_payload(self, rng, height=20):
        return (self.base.random_payload(rng, height),
                self.base.random_payload(rng, height))

    def render(self, a):
        u, v = a
        b = self.base
        if b.is_zero(v):
            return b.render(u)
        vs = "%s*%s" % (b.render(v), self.gen_name)
        if b.is_zero(u):
            return vs
        return "%s + %s" % (b.render(u), vs)

    def __eq__(self, other):
        return (isinstance(other, QuadExt) and other.base == self.base
                and other.t0 == self.t0 and other.n0 == self.n0)

    def __hash__(self):
        return hash(("QuadExt", self.base, str(self.t0), str(self.n0)))

    def __repr__(self):
        return "%r(%s)" % (self.base, self.gen_name)


class Scalar:
    """Immutable field element: a field reference plus a raw payload."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _peer(self, other):
        if isinstance(other, Scalar) and other.field == self.field:
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
        if isinstance(other, Scalar):
            return self.field == other.field and self.val == other.val
        try:
            return self.val == self.field.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.val))

    def inv(self):
        return Scalar(self.field, self.field.inv(self.val))

    def is_zero(self):
        return self.field.is_zero(self.val)

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
    conj = Scalar(f, f.conj(x.val))
    norm = Scalar(f.base, f.norm_payload(x.val))
    trace = Scalar(f.base, f.trace_payload(x.val))
    return conj, norm, trace


def random_scalar(field, rng, height=20, nonzero=False):
    while True:
        s = Scalar(field, field.random_payload(rng, height))
        if not (nonzero and s.is_zero()):
            return s


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
