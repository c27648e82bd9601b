"""Uniform handles over the multiplicative carriers used downstream.

The involutory/indifferent structures, Moufang-set families, polygon
parameter groups and foundation glueings all need the same small protocol
over "something you can multiply": a field, a doubling tower, or the
field on a quadratic space of dimension <= 2.  `Handle` holds that
protocol once; `FieldHandle`, `CDHandle` and `SmallFieldHandle` override
only what differs between the carriers.  A tower can also be read with its
multiplication reversed (`opposite()`), which sets the handle's `reversed`
flag; fields and small fields are commutative and are their own opposite.
A handle bundles the protocol together with exact coordinates over a
ground field so spans can be decided by linear algebra: a span inside a
handle is a `composition.Subspace`, the one span class, and
`composition.closure` its closure under products.  The carrier of a tower
or of a small field is a `linalg.IntSpace` (a tower or a quadratic
space), which builds elements from coordinates and draws them for the
handle, and whose stored integers `Subspace` reads.
"""

from __future__ import annotations

import functools

from . import linalg
from .composition import CDAlgebra
from .quadspace import DimensionTooLarge
from .scalars import Field, Scalar, random_scalar


class Handle:
    """The carrier protocol.  Elements bring their own sum, difference,
    negation, zero test, conjugation and coordinates; `carrier` is the
    field, tower or quadratic space the elements live in, and a tower or
    a space builds and draws them (`uncoords`, `random`)."""

    reversed = False

    def one(self):
        return self.carrier.one()

    def zero(self):
        return self.carrier.zero()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return b * a if self.reversed else a * b

    def is_zero(self, a):
        return a.is_zero()

    def conj(self, a):
        return a.conj()

    def coords(self, a):
        return list(a.coords)

    def uncoords(self, coords):
        return self.carrier.element(coords)

    def random(self, rng, height=20, nonzero=False):
        return self.carrier.random_element(rng, height, nonzero=nonzero)

    def characteristic(self):
        return self.coord_field.characteristic()

    def is_finite(self):
        return self.coord_field.is_finite()

    def key(self, a):
        return a.key()

    def render(self, a):
        return repr(a)

    def is_commutative(self):
        return True

    def opposite(self):
        return self  # commutative: the reversed reading is the same

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


class FieldHandle(Handle):
    """A plain field as a carrier; coordinates over itself or, for a
    quadratic extension, over its base."""

    def __init__(self, field):
        self.field = self.carrier = field
        self.coord_field = field.coord_field
        self.coord_dim = field.coord_dim

    def inv(self, a):
        return a.inv()

    def coords(self, a):
        vals = self.field.parts(a.val) if self.coord_dim == 2 else (a.val,)
        return [Scalar(self.coord_field, v) for v in vals]

    def uncoords(self, coords):
        vals = tuple(c.val for c in coords)
        return self.field.scalar(vals if self.coord_dim == 2 else vals[0])

    def elements(self):
        return self.field.elements()

    def random(self, rng, height=20, nonzero=False):
        return random_scalar(self.field, rng, height, nonzero)

    def key(self, a):
        return a.val

    def scalar_embed(self, s):
        return self.field.scalar(s)


class CDHandle(Handle):
    """A doubling tower as a carrier; coordinates over the base field.  Its
    opposite is a twin handle whose `mul` reverses the product."""

    def __init__(self, algebra):
        self.algebra = self.carrier = algebra
        self.coord_field = algebra.base
        self.coord_dim = algebra.dim

    def inv(self, a):
        return a.inverse()

    def elements(self):
        base, dim = self.algebra.base, self.algebra.dim
        if base.is_finite() and base.order() ** dim > 2 ** 16:
            raise ValueError("%r has %d^%d elements, more than 2^16 to list"
                             % (self.algebra, base.order(), dim))
        return list(self.algebra.all_elements())

    def is_commutative(self):
        return self.algebra.dim <= 2

    def scalar_embed(self, s):
        return self.algebra.from_base(s)

    def opposite(self):
        # a distinct twin even when the tower is commutative (dim <= 2):
        # foundations count reading flips from the end carriers
        twin = CDHandle(self.algebra)
        twin.reversed = not self.reversed
        return twin


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
        self.space = self.carrier = space
        self.coord_field, self.coord_dim = space.field, space.dim
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

    def elements(self):
        return list(self.space.all_elements())

    def scalar_embed(self, s):
        return self.space.basepoint.scale(s)

    def __repr__(self):
        return "F(%r)" % self.space


def as_handle(obj):
    if isinstance(obj, Handle):
        return obj
    if isinstance(obj, Field):
        return FieldHandle(obj)
    if isinstance(obj, CDAlgebra):
        return CDHandle(obj)
    raise TypeError("no handle for %r" % (obj,))
