"""Moufang sets on root groups, over the five parametrized families:
linear, involutory, indifferent, quadratic and pseudo-quadratic.

`root_group` is the one builder of the groups a Moufang set or a polygon
slot is parametrized by: a field, tower or small field under +, a span
K0 or L0 inside one under +, the vectors of a quadratic space under +,
and the group T of a pseudo-quadratic space under its product.  A
`ParamGroup` carries the group's operations, its seeded sampling, and
its order counted from the carrier without listing it.

`MoufangSet` holds the root group of its payload and reads its group
structure, elements and samples from it; only the canonical unit, tau
and the Hua maps depend on the family.  Coincidence and
Jordan-isomorphism checks run against any pair.

One rule, which no caller overrides, picks how every check here sweeps
a carrier: exhaustively when it is finite with at most `EXHAUSTIVE_SIZE`
elements, counted without listing it, and on seeded samples otherwise.
The one Jordan-check body also serves `pseudoquad.t_jordan_check`, on
the Moufang set of T.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from operator import methodcaller

from .composition import CDAlgebra
from .handles import Handle, as_handle
from .pseudoquad import PseudoQuadraticSpace, TPoint, t_hua
from .quadspace import QuadraticSpace, ZeroAnchor, qs_hua
from .report import EXHAUSTIVE_SIZE, Report, reprs
from .scalars import Field
from .unitary import IndifferentSet, InvolutorySet


class ZeroArgument(ZeroDivisionError):
    pass


class CarrierMismatch(ValueError):
    pass


# -- root groups --------------------------------------------------------------

class ParamGroup(namedtuple("ParamGroup", (
        "op", "inv", "identity", "is_identity", "elements", "draw",
        "coord_field", "exponent"))):
    """A root group given by its operations: op, inverse, identity (a
    fresh element), identity test, enumeration (raising TypeError when
    infinite) and a seeded draw(rng, height).  Its elements give their
    own hashable `key()` and rendering (`repr`).  It has q^exponent
    elements, q the order of its coordinate field."""

    __slots__ = ()

    def random(self, rng, height=9, nonzero=False):
        """A draw; drawn again until it is no identity, when asked for."""
        while True:
            x = self.draw(rng, height)
            if not (nonzero and self.is_identity(x)):
                return x

    def is_finite(self):
        return self.coord_field.is_finite()

    def size(self):
        if not self.is_finite():
            raise TypeError("%r is not finite" % self.coord_field)
        return self.coord_field.order() ** self.exponent


def root_group(carrier, span=None):
    """The root group a carrier parametrizes.  A pseudo-quadratic space
    gives T under its product.  Every other group is additive, under the
    elements' own + and negation: a quadratic space gives its vectors; a
    field, tower, small field or handle gives its elements, or with a span
    (K0, L0) the elements of that span."""
    if isinstance(carrier, PseudoQuadraticSpace):
        sp, h = carrier, carrier.h
        return ParamGroup(  # |T| = |K|^dim |K0|
            operator.mul, methodcaller("inverse"), sp.identity,
            methodcaller("is_identity"), lambda: list(sp.enumerate_t()),
            sp.random_point, h.coord_field,
            h.coord_dim * sp.dim + sp.inv.k0.dim)
    if isinstance(carrier, QuadraticSpace):
        sp = carrier
        zero, field, dim = sp.zero, sp.field, sp.dim
        elements, draw = (lambda: list(sp.all_elements())), sp.random_element
    else:
        h = as_handle(carrier)
        zero, field = h.zero, h.coord_field
        elements, draw, dim = ((h.elements, h.random, h.coord_dim)
                               if span is None else
                               (span.elements, span.sample, span.dim))
    return ParamGroup(operator.add, operator.neg, zero,
                      methodcaller("is_zero"), elements, draw, field, dim)


# -- Moufang sets -------------------------------------------------------------

class MoufangSet:
    """A Moufang set on the root group of its payload; the canonical unit
    is fixed per family."""

    LINEAR = "linear"
    INVOLUTORY = "involutory"
    INDIFFERENT = "indifferent"
    QUADRATIC = "quadratic"
    PSEUDOQUADRATIC = "pseudoquadratic"

    # what each family is built on; a linear set takes any carrier
    # `as_handle` accepts
    _PAYLOADS = {
        LINEAR: (Handle, Field, CDAlgebra),
        INVOLUTORY: InvolutorySet,
        INDIFFERENT: IndifferentSet,
        QUADRATIC: QuadraticSpace,
        PSEUDOQUADRATIC: PseudoQuadraticSpace,
    }

    def __init__(self, family, payload, name=None):
        if family not in self._PAYLOADS:
            raise ValueError("unknown family %r" % family)
        if not isinstance(payload, self._PAYLOADS[family]):
            raise TypeError("a %s Moufang set cannot be built on a %s"
                            % (family, type(payload).__name__))
        self.family = family
        self.payload = payload
        self.name = name
        if family == self.LINEAR:
            self.h = as_handle(payload)
            self.group = root_group(self.h)
        elif family in (self.INVOLUTORY, self.INDIFFERENT):
            self.h = payload.handle
            self.group = root_group(self.h, payload.k0)
        else:
            self.h = None
            self.group = root_group(payload)

    # -- the root group ------------------------------------------------------
    def op(self, x, y):
        return self.group.op(x, y)

    def zero(self):
        return self.group.identity()

    def is_zero(self, x):
        return self.group.is_identity(x)

    def eq(self, x, y):
        return x.key() == y.key()

    def is_finite(self):
        return self.group.is_finite()

    def size(self):
        """How many elements a finite carrier has, counted without
        listing it."""
        return self.group.size()

    def elements(self):
        return self.group.elements()

    def random(self, rng, height=9, nonzero=False):
        return self.group.random(rng, height, nonzero=nonzero)

    # -- unit, tau and Hua --------------------------------------------------
    def unit(self):
        if self.family == self.QUADRATIC:
            return self.payload.basepoint
        if self.family == self.PSEUDOQUADRATIC:
            return self.payload.unit()
        return self.h.one()

    def tau(self, x):
        if self.is_zero(x):
            raise ZeroArgument("tau is defined away from zero")
        sp = self.payload
        if self.family == self.QUADRATIC:
            return (-sp.sigma(x)).scale(sp.q(x).inv())
        if self.family == self.PSEUDOQUADRATIC:
            tinv = sp.h.inv(x.t)
            return TPoint(sp, sp.vec_scale(x.a, tinv), -tinv)
        return -self.h.inv(x)

    def hua(self, a, x):
        if self.is_zero(a):
            raise ZeroAnchor("Hua anchor must be nonzero")
        if self.family == self.QUADRATIC:
            return qs_hua(self.payload, a, x)
        if self.family == self.PSEUDOQUADRATIC:
            return t_hua(a, x)
        return self.h.mul(self.h.mul(a, x), a)

    def __repr__(self):
        return self.name or "M[%s](%r)" % (self.family, self.payload)


def _swept(mset):
    """Whether a check lists every element of the carrier: it is finite
    with at most `EXHAUSTIVE_SIZE` elements."""
    return mset.is_finite() and mset.size() <= EXHAUSTIVE_SIZE


def ms_tau(mset, x):
    return mset.tau(x)


def ms_hua(mset, a, x):
    return mset.hua(a, x)


def ms_verify(mset, samples=200, seed=13):
    """h_a is an endomorphism on samples, bijective when finite with at
    most `EXHAUSTIVE_SIZE` elements, and the canonical unit acts as the
    identity."""
    rng = random.Random(seed)
    rep = Report("moufang.verify", seed=seed, subject=repr(mset))

    rep.first_failure(
        "hua.endomorphism",
        ((mset.random(rng, nonzero=True), mset.random(rng), mset.random(rng))
         for _ in range(samples)),
        lambda a, x, y: mset.eq(mset.hua(a, mset.op(x, y)),
                                mset.op(mset.hua(a, x), mset.hua(a, y))),
        samples, cex=reprs)
    rep.first_failure("hua.unit-is-identity",
                      ((mset.random(rng),) for _ in range(samples)),
                      lambda x: mset.eq(mset.hua(mset.unit(), x), x),
                      samples, cex=repr)

    if _swept(mset):
        elems = mset.elements()
        rep.first_failure(
            "hua.bijective", ((a,) for a in elems),
            lambda a: mset.is_zero(a) or len(
                {mset.hua(a, x).key() for x in elems}) == len(elems),
            len(elems), cex=repr)

        units = [x for x in elems if not mset.is_zero(x)]
        taus = [_defined(mset.tau, x) for x in units]
        images = {t.key() for t in taus if t is not None}
        bad = [repr(x) for x, t in zip(units, taus) if t is None][:1]
        rep.add("tau.bijective-on-units", len(images),
                not bad and len(images) == len(units), *bad)
    return rep


def _defined(f, *args):
    """f(*args), or None where it meets a nonzero element with no inverse."""
    try:
        return f(*args)
    except ZeroDivisionError:
        return None


def ms_coincide(m1, m2, bijection=None, samples=200, seed=23):
    """tau and all Hua maps agree pointwise through the carrier bijection,
    over every element of a swept carrier and on samples otherwise.  The
    carriers' sizes are compared without listing either."""
    to2 = bijection or (lambda x: x)
    rep = Report("moufang.coincide", seed=seed,
                 subject="%r vs %r" % (m1, m2))
    if m1.is_finite() != m2.is_finite():
        raise CarrierMismatch("one carrier is finite, the other is not")
    if m1.is_finite() and m1.size() != m2.size():
        raise CarrierMismatch("carrier sizes differ")
    if _swept(m1):
        elems = m1.elements()
    else:
        rng = random.Random(seed)
        elems = [m1.random(rng) for _ in range(samples)]

    try:
        rep.first_failure(
            "coincide.tau", ((x,) for x in elems),
            lambda x: m1.is_zero(x) or _defined(
                lambda: m2.eq(to2(m1.tau(x)), m2.tau(to2(x)))),
            len(elems), cex=repr)
        rep.first_failure(
            "coincide.hua", ((a, x) for a in elems for x in elems),
            lambda a, x: m1.is_zero(a) or m2.eq(to2(m1.hua(a, x)),
                                                m2.hua(to2(a), to2(x))),
            len(elems) ** 2, cex=reprs)
    except (TypeError, ValueError) as exc:
        raise CarrierMismatch(str(exc))
    return rep


def ms_jordan_check(gamma, m1, m2, samples=200, seed=29):
    """Group hom + unit + Hua preservation for gamma: M1 -> M2, with a tag
    naming the family pattern the passing map is consistent with."""
    return _jordan_check("moufang.jordan", gamma, m1, m2, samples, seed)


# per Jordan suite: whether its anchors are drawn apart from its pairs,
# with jordan.bijective on a swept carrier (else the pairs serve, and
# pattern.tag ends the report), and the note for an anchor sent to zero
_JORDAN_SHAPES = {
    "tpoints.jordan": (True, "image of anchor is zero"),
    "moufang.jordan": (False, "collapses to zero"),
}


def _jordan_check(suite, gamma, m1, m2, samples, seed):
    apart, zero_note = _JORDAN_SHAPES[suite]
    rep = Report(suite, seed=seed, subject="%r -> %r" % (m1, m2))
    swept = _swept(m1)
    if swept:
        elems = m1.elements()
        pairs = [(x, y) for x in elems for y in elems]
    else:
        rng = random.Random(seed)
        draw = lambda: [(m1.random(rng), m1.random(rng))
                        for _ in range(samples)]
        # drawn and never read: this keeps the seeded stream, and so every
        # stored counterexample, where it was
        [m1.random(rng) for _ in range(samples)]
        pairs = draw()
    if not apart:
        anchors = pairs
    elif swept:
        anchors = [(a, x) for a, x in pairs if not m1.is_zero(a)]
    else:
        anchors = draw()

    rep.first_failure(
        "jordan.group-homomorphism", pairs,
        lambda x, y: m2.eq(gamma(m1.op(x, y)), m2.op(gamma(x), gamma(y))),
        len(pairs), cex=reprs)

    if apart and swept:
        images = {gamma(x).key() for x in elems}
        rep.add("jordan.bijective", len(elems), len(images) == len(elems))

    rep.add("jordan.unit", 1, m2.eq(gamma(m1.unit()), m2.unit()))

    def hua_preserved(a, x):
        if m1.is_zero(a):
            return True
        ga = gamma(a)
        return not m2.is_zero(ga) and m2.eq(gamma(m1.hua(a, x)),
                                            m2.hua(ga, gamma(x)))

    rep.first_failure(
        "jordan.hua-preserved", anchors, hua_preserved, len(anchors),
        cex=lambda a, x: (repr(a), zero_note
                          if m2.is_zero(gamma(a)) else repr(x)))
    if not apart:
        rep.add("pattern.tag", 1, True,
                note="%s-to-%s" % (m1.family, m2.family))
    return rep
