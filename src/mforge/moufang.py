"""Uniform Moufang-set interface over the five parametrized families:
linear, involutory, indifferent, quadratic and pseudo-quadratic.

Each family exposes the same protocol (group operation on the carrier,
tau, Hua maps, canonical unit) so coincidence and Jordan-isomorphism
checks can run against any pair.
"""

from __future__ import annotations

import random

from .handles import as_handle
from .pseudoquad import PseudoQuadraticSpace, TPoint, t_hua
from .quadspace import QuadraticSpace, qs_hua
from .report import Report, reprs
from .unitary import IndifferentSet, InvolutorySet


class ZeroArgument(ZeroDivisionError):
    pass


class ZeroAnchor(ZeroDivisionError):
    pass


class CarrierMismatch(ValueError):
    pass


class MoufangSet:
    """Family dispatch; the canonical unit is fixed per family."""

    LINEAR = "linear"
    INVOLUTORY = "involutory"
    INDIFFERENT = "indifferent"
    QUADRATIC = "quadratic"
    PSEUDOQUADRATIC = "pseudoquadratic"

    def __init__(self, family, payload, name=None):
        self.family = family
        self.payload = payload
        self.name = name
        if family == self.LINEAR:
            self.h = as_handle(payload)
        elif family == self.INVOLUTORY:
            assert isinstance(payload, InvolutorySet)
            self.h = payload.handle
        elif family == self.INDIFFERENT:
            assert isinstance(payload, IndifferentSet)
            self.h = payload.handle
        elif family == self.QUADRATIC:
            assert isinstance(payload, QuadraticSpace)
            self.h = None
        elif family == self.PSEUDOQUADRATIC:
            assert isinstance(payload, PseudoQuadraticSpace)
            self.h = payload.h
        else:
            raise ValueError("unknown family %r" % family)

    # -- group structure on the carrier -------------------------------------
    def op(self, x, y):
        if self.family == self.PSEUDOQUADRATIC:
            return x * y
        if self.family == self.QUADRATIC:
            return x + y
        return self.h.add(x, y)

    def zero(self):
        if self.family == self.PSEUDOQUADRATIC:
            return self.payload.identity()
        if self.family == self.QUADRATIC:
            return self.payload.zero()
        if self.family in (self.INVOLUTORY, self.INDIFFERENT):
            return self.h.zero()
        return self.h.zero()

    def unit(self):
        if self.family == self.PSEUDOQUADRATIC:
            return self.payload.unit()
        if self.family == self.QUADRATIC:
            return self.payload.basepoint
        return self.h.one()

    def is_zero(self, x):
        if self.family == self.PSEUDOQUADRATIC:
            return x.is_identity()
        if self.family == self.QUADRATIC:
            return x.is_zero()
        return self.h.is_zero(x)

    def key(self, x):
        if self.family == self.PSEUDOQUADRATIC:
            return x.key()
        if self.family == self.QUADRATIC:
            return x.key()
        return self.h.key(x)

    def eq(self, x, y):
        return self.key(x) == self.key(y)

    # -- tau and Hua ---------------------------------------------------------
    def tau(self, x):
        if self.is_zero(x):
            raise ZeroArgument("tau is defined away from zero")
        if self.family == self.QUADRATIC:
            sp = self.payload
            return (-sp.sigma(x)).scale(sp.q(x).inv())
        if self.family == self.PSEUDOQUADRATIC:
            sp = self.payload
            h = sp.h
            tinv = h.inv(x.t)
            return TPoint(sp, sp.vec_scale(x.a, tinv), h.neg(tinv))
        return self.h.neg(self.h.inv(x))

    def hua(self, a, x):
        if self.is_zero(a):
            raise ZeroAnchor("Hua anchor must be nonzero")
        if self.family == self.QUADRATIC:
            return qs_hua(self.payload, a, x, cross_check=False)
        if self.family == self.PSEUDOQUADRATIC:
            return t_hua(a, x)
        return self.h.mul(self.h.mul(a, x), a)

    # -- carriers --------------------------------------------------------------
    def is_finite(self):
        if self.family == self.QUADRATIC:
            return self.payload.field.is_finite()
        if self.family == self.PSEUDOQUADRATIC:
            return self.payload.h.is_finite()
        if self.family in (self.INVOLUTORY, self.INDIFFERENT):
            return self.h.coord_field.is_finite()
        return self.h.is_finite()

    def elements(self):
        if self.family == self.QUADRATIC:
            return list(self.payload.enumerate_vectors())
        if self.family == self.PSEUDOQUADRATIC:
            return list(self.payload.enumerate_t())
        if self.family == self.INVOLUTORY:
            return self.payload.k0.elements()
        if self.family == self.INDIFFERENT:
            return self.payload.k0.elements()
        return self.h.elements()

    def size(self):
        """How many elements a finite carrier has; a field or tower carrier
        is counted without listing it."""
        if self.family == self.LINEAR:
            return self.h.coord_field.order() ** self.h.coord_dim
        return len(self.elements())

    def random(self, rng, height=9, nonzero=False):
        if self.family == self.QUADRATIC:
            return self.payload.random_vector(rng, height, nonzero=nonzero)
        if self.family == self.PSEUDOQUADRATIC:
            while True:
                p = self.payload.random_point(rng, height)
                if not (nonzero and p.is_identity()):
                    return p
        if self.family == self.INVOLUTORY or self.family == self.INDIFFERENT:
            while True:
                x = self.payload.k0.sample(rng, height)
                if not (nonzero and self.h.is_zero(x)):
                    return x
        return self.h.random(rng, height, nonzero=nonzero)

    def __repr__(self):
        return self.name or "M[%s](%r)" % (self.family, self.payload)


def ms_tau(mset, x):
    return mset.tau(x)


def ms_hua(mset, a, x):
    return mset.hua(a, x)


def ms_verify(mset, samples=200, seed=13):
    """h_a is an endomorphism on samples, bijective when finite, and the
    canonical unit acts as the identity."""
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

    if mset.is_finite():
        elems = mset.elements()
        rep.first_failure(
            "hua.bijective", ((a,) for a in elems),
            lambda a: mset.is_zero(a) or len(
                {mset.key(mset.hua(a, x)) for x in elems}) == len(elems),
            len(elems), cex=repr)

        images = {mset.key(mset.tau(x)) for x in elems if not mset.is_zero(x)}
        rep.add("tau.bijective-on-units", len(images),
                len(images) == len(elems) - 1)
    return rep


def ms_coincide(m1, m2, bijection=None, samples=200, seed=23):
    """tau and all Hua maps agree pointwise through the carrier bijection
    (exhaustive on finite carriers)."""
    to2 = bijection or (lambda x: x)
    rep = Report("moufang.coincide", seed=seed,
                 subject="%r vs %r" % (m1, m2))
    if m1.is_finite() != m2.is_finite():
        raise CarrierMismatch("one carrier is finite, the other is not")
    if m1.is_finite():
        elems = m1.elements()
        if len(m2.elements()) != len(elems):
            raise CarrierMismatch("carrier sizes differ")
    else:
        rng = random.Random(seed)
        elems = [m1.random(rng) for _ in range(samples)]

    try:
        rep.first_failure(
            "coincide.tau", ((x,) for x in elems),
            lambda x: m1.is_zero(x) or m2.eq(to2(m1.tau(x)), m2.tau(to2(x))),
            len(elems), cex=repr)
        rep.first_failure(
            "coincide.hua", ((a, x) for a in elems for x in elems),
            lambda a, x: m1.is_zero(a) or m2.eq(to2(m1.hua(a, x)),
                                                m2.hua(to2(a), to2(x))),
            len(elems) ** 2, cex=reprs)
    except (TypeError, ValueError) as exc:
        raise CarrierMismatch(str(exc))
    return rep


def ms_jordan_check(gamma, m1, m2, mode="sampled", samples=200, seed=29):
    """Group hom + unit + Hua preservation for gamma: M1 -> M2, with a tag
    naming the family pattern the passing map is consistent with."""
    rep = Report("moufang.jordan", seed=seed,
                 subject="%r -> %r" % (m1, m2))
    if mode == "exhaustive":
        elems = [x for x in m1.elements()]
        pairs = [(x, y) for x in elems for y in elems]
    else:
        rng = random.Random(seed)
        elems = [m1.random(rng) for _ in range(samples)]
        pairs = [(m1.random(rng), m1.random(rng)) for _ in range(samples)]

    rep.first_failure(
        "jordan.group-homomorphism", pairs,
        lambda x, y: m2.eq(gamma(m1.op(x, y)), m2.op(gamma(x), gamma(y))),
        len(pairs), cex=reprs)

    rep.add("jordan.unit", 1, m2.eq(gamma(m1.unit()), m2.unit()))

    def hua_preserved(a, x):
        if m1.is_zero(a):
            return True
        ga = gamma(a)
        return not m2.is_zero(ga) and m2.eq(gamma(m1.hua(a, x)),
                                            m2.hua(ga, gamma(x)))

    rep.first_failure(
        "jordan.hua-preserved", pairs, hua_preserved, len(pairs),
        cex=lambda a, x: (repr(a), "collapses to zero"
                          if m2.is_zero(gamma(a)) else repr(x)))
    rep.add("pattern.tag", 1, True,
            note="%s-to-%s" % (m1.family, m2.family))
    return rep
