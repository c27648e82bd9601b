"""Uniform handles over the multiplicative carriers used downstream.

The involutory/indifferent structures, Moufang-set families, polygon
parameter groups and foundation glueings all need the same small protocol
over "something you can multiply": a field, a doubling tower, or a
constructed small field on a quadratic space.  `Handle` holds that
protocol once; `FieldHandle`, `CDHandle` and `SmallFieldHandle` override
only what differs between the carriers.  A tower can also be read with its
multiplication reversed (`opposite()`), which sets the handle's `reversed`
flag; fields and small fields are commutative and are their own opposite.
A handle bundles the protocol together with exact coordinates over a
ground field so spans can be decided by linear algebra: a span inside a
handle is a `composition.Subspace`, the one span class, and
`composition.closure` its closure under products.
"""

from __future__ import annotations

from .composition import CDAlgebra
from .quadspace import SmallField
from .scalars import Field, Scalar, random_scalar


class Handle:
    """The carrier protocol.  Elements bring their own sum, difference,
    negation, zero test, conjugation and coordinates; `carrier` is the
    field, tower or quadratic space the elements live in."""

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

    def uncoords(self, coords):
        return self.algebra.element(coords)

    def elements(self):
        base, dim = self.algebra.base, self.algebra.dim
        if base.is_finite() and base.order() ** dim > 2 ** 16:
            raise ValueError("%r has %d^%d elements, more than 2^16 to list"
                             % (self.algebra, base.order(), dim))
        return list(self.algebra._all_elements())

    def random(self, rng, height=20, nonzero=False):
        return self.algebra.random_element(rng, height, nonzero=nonzero)

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
    """The constructed field on a dim<=2 quadratic space as a carrier."""

    def __init__(self, small):
        if not isinstance(small, SmallField):
            small = SmallField(small)
        self.small = small
        self.space = self.carrier = small.space
        self.coord_field = self.space.field
        self.coord_dim = self.space.dim

    def one(self):
        return self.small.one()

    def mul(self, a, b):
        return self.small.mul(a, b)

    def inv(self, a):
        return self.small.inv(a)

    def uncoords(self, coords):
        return self.space.vector(coords)

    def elements(self):
        return list(self.space.enumerate_vectors())

    def random(self, rng, height=20, nonzero=False):
        return self.space.random_vector(rng, height, nonzero=nonzero)

    def scalar_embed(self, s):
        return self.small.embed_scalar(self.space.field.scalar(s))

    def __repr__(self):
        return "F(%r)" % self.space


def as_handle(obj):
    if isinstance(obj, Handle):
        return obj
    if isinstance(obj, Field):
        return FieldHandle(obj)
    if isinstance(obj, CDAlgebra):
        return CDHandle(obj)
    if isinstance(obj, SmallField):
        return SmallFieldHandle(obj)
    raise TypeError("no handle for %r" % (obj,))
