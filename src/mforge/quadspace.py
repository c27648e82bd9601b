"""Anisotropic quadratic spaces with basepoint.

A space stores the values of the form on a basis plus the strict upper
part of the polar form; in characteristic 2 the two are independent, so
both are kept.

A space is a ``linalg.IntSpace`` and a vector a ``linalg.IntVector``,
as a tower and its elements are: integer coordinates over Q or F_p over
one denominator, with the coordinates over the ground field lowered only
when read.  Sums, negation, the zero test and keys come from
``linalg``; q, f and scaling act on the stored integers too, each
expanded once per space into integer rows (``linalg._bilinear``) and
compiled on first use (``linalg._compiled``).

``qs_small_dim_field`` builds the field on a space of dimension <= 2, a
``handles.SmallFieldHandle``, and checks its norm condition.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import linalg
from .report import EXHAUSTIVE_SIZE, Report
from .scalars import Scalar, _reducer, random_scalar


# the seed and count of the sampled anisotropy check
ANISOTROPY_SEED, ANISOTROPY_SAMPLES = 7, 64


class ZeroAnchor(ZeroDivisionError):
    pass


class DimensionTooLarge(ValueError):
    pass


class QuadraticSpace(linalg.IntSpace):
    """(L0, K, q) with basepoint; anisotropy per the stated policy.  Its
    vectors are ``QSVector``s.

    anisotropy is one of "exhaustive" (finite K, checked here on one
    vector per line), "structural" (inherited from a certified division
    tower) or "attested" (user-declared; a sampled check still runs).
    """

    def __init__(self, field, q_basis, f_upper, basepoint, anisotropy=None,
                 name=None):
        self.field = field
        self.q_basis = [field.scalar(v) for v in q_basis]
        self.dim = len(self.q_basis)
        self.f_upper = {}
        for (i, j), v in f_upper.items():
            if not i < j:
                raise ValueError("store only strict upper entries")
            self.f_upper[(i, j)] = field.scalar(v)
        self.name = name
        # the vector with integer coordinates nums / den, reduced
        self._canonical = _reducer(field.characteristic(),
                                   functools.partial(QSVector, self))
        self.basepoint = self.vector(basepoint)
        if self.q(self.basepoint) != field.one():
            raise ValueError("basepoint must have q = 1")
        if anisotropy is None:
            anisotropy = "exhaustive" if field.is_finite() else "attested"
        self.anisotropy = anisotropy
        self._check_anisotropy()

    def _check_anisotropy(self):
        if self.anisotropy == "exhaustive":
            if not self.field.is_finite():
                raise ValueError("exhaustive anisotropy needs a finite field")
            # q(cv) = c^2 q(v), so one vector per line decides it: the one
            # whose first nonzero coordinate is 1.  Lines are taken in the
            # order a full scan over F_p meets their first vectors.
            field = self.field
            zero, one = field.zero_payload(), field.one_payload()
            for k in reversed(range(self.dim)):
                for rest in itertools.product(
                        [s.val for s in field.elements()],
                        repeat=self.dim - k - 1):
                    v = self._canonical(*field.lift((zero,) * k + (one,)
                                                    + rest))
                    if self.q(v).is_zero():
                        raise ValueError("form is isotropic at %r" % v)
        elif self.anisotropy in ("structural", "attested"):
            rng = random.Random(ANISOTROPY_SEED)
            for _ in range(ANISOTROPY_SAMPLES):
                v = self.random_element(rng, nonzero=True)
                if self.q(v).is_zero():
                    raise ValueError("form is isotropic at %r" % v)
        else:
            raise ValueError("unknown anisotropy policy %r" % self.anisotropy)

    # -- vectors ----------------------------------------------------------
    def vector(self, coords):
        """A vector of this space as it is, or the one with these
        coordinates."""
        if isinstance(coords, QSVector):
            if coords.owner is not self and coords.owner != self:
                raise ValueError("vector from another space")
            return coords
        return self.element(coords)

    # -- the form ----------------------------------------------------------
    def f_entry(self, i, j):
        if i == j:
            q = self.q_basis[i]
            return q + q
        if i > j:
            i, j = j, i
        return self.f_upper.get((i, j), self.field.zero())

    def _compile(self, entries, size, width):
        """(g, den): g(U, V) / (den * du * dv) are the integer coordinates
        over Q or F_p of the K-bilinear map with the entries (k, i, j, c)
        of ``linalg._bilinear``, `size` K-coordinates wide, on a vector u
        of the space and a vector v of `width` K-coordinates, with
        coordinates U / du and V / dv."""
        r = self.field.coord_dim
        rows, den = linalg._bilinear(self.field, entries, size * r)
        return linalg._compiled(rows, self.dim * r, width * r), den

    _q_form = functools.cached_property(lambda s: s._compile(
        [(0, i, i, c.val) for i, c in enumerate(s.q_basis)]
        + [(0, i, j, c.val) for (i, j), c in s.f_upper.items()], 1, s.dim))
    _f_form = functools.cached_property(lambda s: s._compile(
        [(0, i, j, s.f_entry(i, j).val) for i in range(s.dim)
         for j in range(s.dim)], 1, s.dim))
    # a vector times a scalar, one K-coordinate wide
    _scale_form = functools.cached_property(lambda s: s._compile(
        [(k, k, 0, s.field.one_payload()) for k in range(s.dim)], s.dim, 1))

    def _value(self, form, u, v):
        g, den = form
        field = self.field
        return Scalar(field, field.lower(g(u.nums, v.nums),
                                         den * u.den * v.den)[0])

    def q(self, v):
        v = self.vector(v)
        return self._value(self._q_form, v, v)

    def f(self, u, v):
        return self._value(self._f_form, self.vector(u), self.vector(v))

    def trace(self, v):
        return self.f(self.basepoint, v)

    def sigma(self, v):
        v = self.vector(v)
        return self.basepoint.scale(self.trace(v)) - v

    def gram(self):
        return [[self.f_entry(i, j) for j in range(self.dim)]
                for i in range(self.dim)]

    def proper(self):
        return any(not self.f_entry(i, j).is_zero()
                   for i in range(self.dim) for j in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, QuadraticSpace)
                and other.field == self.field
                and other.q_basis == self.q_basis
                and other.f_upper == self.f_upper
                and other.basepoint.key() == self.basepoint.key())

    def __repr__(self):
        return self.name or "QS(dim %d over %r)" % (self.dim, self.field)


class QSVector(linalg.IntVector):
    """A vector of a quadratic space, a ``linalg.IntVector``; build vectors
    through their space (``vector``, ``random_element``, ...)."""

    __slots__ = ()

    space = property(lambda v: v.owner)

    def _peer(self, other):
        return self.owner.vector(other)

    def scale(self, s):
        sp = self.owner
        g, den = sp._scale_form
        z, dz = sp.field.lift([sp.field.coerce(s)])
        return sp._canonical(g(self.nums, z), den * self.den * dz)

    def conj(self):
        return self.owner.sigma(self)


def qs_eval(space, v):
    """(q(v), T(v), sigma(v))."""
    v = space.vector(v)
    return space.q(v), space.trace(v), space.sigma(v)


def qs_hua(space, a, v):
    """Hua map h_a(v) = f(a, sigma(v)) a - q(a) sigma(v), in closed form."""
    a, v = space.vector(a), space.vector(v)
    qa = space.q(a)
    if qa.is_zero():
        raise ZeroAnchor("anchor has q = 0")
    vs = space.sigma(v)
    return a.scale(space.f(a, vs)) - vs.scale(qa)


def qs_defect(space):
    """(radical of the polar form as a coordinate basis, properness flag)."""
    field = space.field  # the Gram matrix is symmetric: rows are columns
    cols = linalg._expanded(field, space.gram())[0]
    ker, d = linalg._kernel(field, [list(r) for r in zip(*cols)], space.dim)
    return [space._canonical(v, d) for v in ker], space.proper()


def qs_small_dim_field(space):
    """(SmallFieldHandle, phi: K -> <eps>) with the norm condition
    v * sigma(v) = q(v) * eps verified.

    Both sides are quadratic maps of v over K, and a quadratic map is
    fixed by its values on e_i and e_i + e_j, so checking e_1, e_2 and
    e_1 + e_2 (e_1 alone in dim 1) proves the condition on every vector,
    in every characteristic and over finite and infinite K alike."""
    from .handles import SmallFieldHandle
    fld = SmallFieldHandle(space)
    cases = space.basis()
    if space.dim == 2:
        cases.append(cases[0] + cases[1])
    for v in cases:
        if fld.mul(v, space.sigma(v)) != fld.scalar_embed(space.q(v)):
            raise AssertionError("norm condition failed at %r" % v)
    return fld, fld.scalar_embed


def verify_space(space, samples=200, seed=3):
    """Sampled structural laws: sigma involutive, trace/pairing symmetry,
    f(x,x) = 2q(x), Hua linearity and the anchor-scaling rule; Hua maps
    bijective on a finite space of at most `EXHAUSTIVE_SIZE` vectors."""
    rng = random.Random(seed)
    rep = Report("quadspace.laws", seed=seed, subject=repr(space))
    laws = [
        ("sigma.involutive", 1, lambda x: space.sigma(space.sigma(x)) == x),
        ("trace.sigma-invariant", 1,
         lambda x: space.trace(space.sigma(x)) == space.trace(x)),
        ("pairing.sigma-symmetry", 2,
         lambda x, y: space.f(space.sigma(x), y)
         == space.f(x, space.sigma(y))),
        ("pairing.diagonal", 1,
         lambda x: space.f(x, x) == space.q(x) + space.q(x)),
        ("hua.additive", 3,
         lambda a, x, y: qs_hua(space, a, x + y)
         == qs_hua(space, a, x) + qs_hua(space, a, y)
         if not space.q(a).is_zero() else True)]
    for rule, arity, law in laws:
        # only the Hua laws need a nonzero anchor
        nonzero = rule == "hua.additive"
        cases = (tuple(space.random_element(rng, 9, nonzero=nonzero)
                       for _ in range(arity)) for _ in range(samples))
        rep.first_failure(rule, cases, law, None,
                          cex=lambda *args: [repr(a) for a in args])

    cases = ((space.random_element(rng, 9, nonzero=True),
              space.random_element(rng, 9),
              random_scalar(space.field, rng, 9, nonzero=True))
             for _ in range(samples))
    rep.first_failure("hua.anchor-scaling", cases,
                      lambda a, x, s: qs_hua(space, a.scale(s), x)
                      == qs_hua(space, a, x).scale(s * s),
                      None, cex=lambda *args: [repr(a) for a in args])

    field = space.field
    if field.is_finite() and field.order() ** space.dim <= EXHAUSTIVE_SIZE:
        elems = list(space.all_elements())
        rep.first_failure(
            "hua.bijective", ((a,) for a in elems),
            lambda a: a.is_zero() or len({qs_hua(space, a, x).key()
                                          for x in elems}) == len(elems),
            len(elems))
    return rep


# -- constructors -----------------------------------------------------------

def space_from_algebra(algebra, name=None):
    """The norm form of a doubling tower as a quadratic space (basepoint
    1).  A tower whose division certificate found an isotropic element is
    refused at that element."""
    if algebra.division_witness is not None:
        raise ValueError("form is isotropic at %r" % algebra.division_witness)
    basis = algebra.basis()
    from .composition import bilinear
    q_basis = [b.norm() for b in basis]
    f_upper = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            v = bilinear(basis[i], basis[j])
            if not v.is_zero():
                f_upper[(i, j)] = v
    anis = "structural" if algebra.is_division else "attested"
    return QuadraticSpace(algebra.base, q_basis, f_upper,
                          [1] + [0] * (algebra.dim - 1), anisotropy=anis,
                          name=name or ("N(%r)" % algebra))


def space_from_quadext(ext, name=None):
    """A quadratic extension as a 2-dim space over its base (q = norm)."""
    base = ext.base
    one, gen = ext.one_payload(), ext.gen().val
    q0 = Scalar(base, ext.norm_payload(one))
    q1 = Scalar(base, ext.norm_payload(gen))
    f01 = Scalar(base, ext.norm_payload(ext.add(one, gen))) - q0 - q1
    return QuadraticSpace(base, [q0, q1], {(0, 1): f01}, [1, 0],
                          name=name or ("N(%r)" % ext))
