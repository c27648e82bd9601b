"""Uniform handles over the multiplicative carriers used downstream.

The involutory/indifferent structures, Moufang-set families, polygon
parameter groups and foundation glueings all need the same small protocol
over "something you can multiply": a field, a doubling tower, or the
field on a quadratic space of dimension <= 2.  Every carrier answers one
protocol: `element(coords)`, `random_element`, `all_elements`,
`from_base`, `is_commutative`, `coord_field` and `coord_dim`, a field
through ``scalars.Field`` and a tower or a quadratic space through
``linalg.IntSpace``.  Every element carries its own arithmetic (+, -,
negation, `is_zero()`, `conj()`, `inverse()` and `repr`) and its `coords`
over the coordinate field, and callers use them directly.  It equals only
elements of its own carrier and hashes by its stored form, so it is its
own dict key.  So one `Handle` serves every field and tower: it holds
only what depends on how the carrier is read, namely the product,
inverse, one and zero, draws, enumeration and the embedding of base
scalars.  A tower can also be read with its multiplication reversed
(`opposite()`), a twin handle with the `reversed` flag set; fields and
small fields are commutative and are their own opposite.
`SmallFieldHandle` reads a quadratic space of
dimension <= 2 as its small field, with a product, one, inverse and
embedding of its own.  A span inside a handle is a
`composition.Subspace`, the one span class, and `composition.closure`
its closure under products; the vectors of a carrier that is a
``linalg.IntSpace`` hand it their stored integers.
"""

from __future__ import annotations

import functools

from . import linalg
from .composition import CDAlgebra
from .quadspace import DimensionTooLarge


class Handle:
    """A carrier read as "something you can multiply".  Elements bring
    their own sum, difference, negation, zero test, conjugation, inverse
    and coordinates, and no handle forwards them; `carrier` is the
    field, tower or quadratic space the elements live in, and builds
    (`element`) and draws them."""

    reversed = False

    def __init__(self, carrier):
        self.carrier = carrier
        self.coord_field = carrier.coord_field
        self.coord_dim = carrier.coord_dim

    def one(self):
        return self.carrier.one()

    def zero(self):
        return self.carrier.zero()

    def mul(self, a, b):
        return b * a if self.reversed else a * b

    def inv(self, a):
        return a.inverse()

    def random(self, rng, height=20, nonzero=False):
        return self.carrier.random_element(rng, height, nonzero=nonzero)

    def elements(self):
        # a tower lists at most 2^16 elements; a field or small field, as
        # many as it has, so a finite carrier's (P3) scan still runs
        field, dim = self.coord_field, self.coord_dim
        if (isinstance(self.carrier, CDAlgebra) and field.is_finite()
                and field.order() ** dim > 2 ** 16):
            raise ValueError("%r has %d^%d elements, more than 2^16 to list"
                             % (self.carrier, field.order(), dim))
        return list(self.carrier.all_elements())

    def scalar_embed(self, s):
        return self.carrier.from_base(s)

    def basis(self):
        """The elements with unit coordinates over the coordinate field."""
        n = self.coord_dim
        return [self.carrier.element([int(i == k) for i in range(n)])
                for k in range(n)]

    def is_commutative(self):
        return self.carrier.is_commutative()

    def opposite(self):
        # a tower's twin is distinct even when it commutes (dim <= 2):
        # foundations count reading flips from the end carriers
        if not isinstance(self.carrier, CDAlgebra):
            return self
        twin = Handle(self.carrier)
        twin.reversed = not self.reversed
        return twin

    def __eq__(self, other):
        return (type(other) is type(self) and other.reversed == self.reversed
                and other.carrier == self.carrier)

    def __hash__(self):
        # equal carriers have equal coordinate fields and dimensions; a
        # quadratic space itself is unhashable
        return hash((type(self).__name__, self.reversed, self.coord_field,
                     self.coord_dim))

    def __repr__(self):
        return "%r^op" % self.carrier if self.reversed else repr(self.carrier)


class SmallFieldHandle(Handle):
    """The field on a quadratic space of dimension <= 2, built on the space
    or on a handle of it: the one field that makes the basepoint line a
    subfield and q its norm.  `frame_mul` is its rule: in the frame
    (eps, x), x the first basis vector off the line of eps, eps is the unit
    and x^2 = T(x) x - q(x) eps.  It runs once, on the pairs of basis
    vectors, whose products are compiled as a K-bilinear map by the space
    (``QuadraticSpace._compile``, through ``linalg._bilinear``), so `mul`
    acts on stored integers.
    """

    def __init__(self, space):
        if isinstance(space, SmallFieldHandle):
            space = space.space
        if space.dim > 2:
            raise DimensionTooLarge("field structure needs dim <= 2")
        super().__init__(space)
        self.space = space
        eps = space.basepoint
        # e_0 lies on the line of eps = (a, b) exactly when b = 0
        self.xt = (None if space.dim == 1 else
                   space.basis()[1 if eps.coords[1].is_zero() else 0])
        self._frame_proj = linalg.Projector(space.field, linalg._expanded(
            space.field, [w.coords for w in (eps, self.xt) if w is not None]))

    def _frame(self, v):
        """Coordinates (s, t) with v = eps*s + xt*t, t = 0 on dim 1."""
        return (self._frame_proj.coefficients(v.coords)
                + (self.coord_field.zero(),))[:2]

    def frame_mul(self, u, v):
        """u * v by the frame rule, on Scalars."""
        sp = self.space
        s, t = self._frame(u)
        s2, t2 = self._frame(v)
        if self.xt is None:
            return sp.basepoint.scale(s * s2)
        a = s * s2 - sp.q(self.xt) * t * t2
        b = s * t2 + s2 * t + sp.trace(self.xt) * t * t2
        return sp.basepoint.scale(a) + self.xt.scale(b)

    @functools.cached_property
    def _product(self):
        """(g, den): g(U, V) / (den * du * dv) are the coordinates over Q
        or F_p of u * v, for u and v with coordinates U / du and V / dv."""
        sp = self.space
        basis = sp.basis()
        return sp._compile([(k, i, j, c.val) for i, bi in enumerate(basis)
                            for j, bj in enumerate(basis) for k, c in
                            enumerate(self.frame_mul(bi, bj).coords)],
                           sp.dim, sp.dim)

    def one(self):
        return self.space.basepoint

    def mul(self, a, b):
        g, den = self._product
        return self.space._canonical(g(a.nums, b.nums), den * a.den * b.den)

    def inv(self, a):
        # a * sigma(a) = eps * q(a), so 1/a = sigma(a) / q(a)
        return self.space.sigma(a).scale(self.space.q(a).inv())

    def scalar_embed(self, s):
        return self.space.basepoint.scale(s)

    def __repr__(self):
        return "F(%r)" % self.space


def as_handle(obj):
    """The handle of a field or tower; a handle is its own."""
    if isinstance(obj, Handle):
        return obj
    try:
        return Handle(obj)
    except AttributeError:  # no carrier protocol
        raise TypeError("no handle for %r" % (obj,)) from None
