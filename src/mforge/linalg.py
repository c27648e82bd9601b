"""Exact linear algebra over any of the scalar fields.

Sizes stay at desk scale (<= 16).  A vector of K^n is written over Q or
F_p, the coordinate field of K, as n * r integers, r = coord_dim, and
there is one elimination for every field: ``_eliminate``, an integer
Gauss-Jordan, fraction-free over Q and modulo p over F_p.  On it sit
``_reduced``, the reduced rows of a span and the residual rows of its
membership test (``composition.Subspace``), and ``_kernel``, the kernel of
a K-linear map given by its integer rows.

``IntVector`` is a vector stored in that integer form, over one
denominator, and ``IntSpace`` the space it lies in: a doubling tower
(``composition.CDAlgebra``) or a quadratic space
(``quadspace.QuadraticSpace``).  Sums, differences, negation, the zero
test, equality, keys and the lowered ``coords`` are defined once, on
``IntVector``; vectors from coordinates, the zero and unit vectors,
seeded draws and the enumeration of a finite space once, on ``IntSpace``,
which so answers the carrier protocol of ``handles.Handle`` as a field
does.

The fast paths are K-linear and K-bilinear maps expanded once into
integer rows over Q or F_p: ``_bilinear`` expands the entries of a
K-bilinear map over the basis of K (``_units``), for the tower product,
the forms of a quadratic space, its scaling and the small-field product,
and ``_compiled`` builds a straight-line function of two integer vectors
from a set of rows.  A matrix over K applies as the integer rows of its
expanded columns (``_expanded``, ``_sparse``, ``_apply``; the glueing
atom ``foundations.GLinear``).  A ``Projector`` answers for the
coordinates of x in a fixed, arbitrary basis and whether x lies in its
span, for doubling frames, subfields and inverse matrices: it eliminates
the expanded basis with ``_eliminate`` and keeps integer rows, with no
Scalar arithmetic.  Stored vectors go in without a lift.
"""

from __future__ import annotations

import itertools
import math
import operator

from .scalars import Scalar


class NotInSpan(ValueError):
    pass


def _reduced(field, rows):
    """(pivots, kept): the integer rows over Q or F_p of vectors of K^n and
    their multiples by the E_u (``_expanded``) reduced in place by
    `_eliminate`, to the E_u * R_j for the reduced K-rows R_j, with pivots
    r * p_j + u (r = coord_dim).  `kept` pairs each R_j with its pivot pc,
    and its coordinates over K are row / row[pc]."""
    pivots = _eliminate(rows, field.characteristic())
    r = field.coord_dim
    return pivots, [(row, pc) for row, pc in zip(rows, pivots)
                    if pc % r == 0]


def _residual(rows, pivots, n):
    """Sparse integer rows that vanish on X, of length n, exactly when X
    lies in the span of `_reduced`'s rows: X - sum(X[p_j] * row_j / a_j),
    for the pivot entry a_j of row j, read at the non-pivot columns and
    scaled by the lcm of the a_j (1 over F_p)."""
    den = math.lcm(*[row[pc] for row, pc in zip(rows, pivots)])
    return tuple(((c, den),) + tuple((pc, -(den // row[pc]) * row[c])
                                     for row, pc in zip(rows, pivots)
                                     if row[c])
                 for c in range(n) if c not in pivots)


def _vanishes(rows, X, p):
    """Whether the sparse integer rows all vanish on X, modulo p over F_p."""
    res = _apply(rows, X)
    return not any(n % p for n in res) if p else not any(res)


def _kernel(field, rows, n):
    """(V, d): integer vectors V over one denominator d whose K-coordinates
    span {x in K^n : M x = 0}, for the integer rows of a K-linear map M
    over Q or F_p, n * r columns wide (r = coord_dim): the transpose of
    ``_expanded`` of the columns of M, the F-images of the E_u * e_j.  The
    rows are taken mod p, where a polar form's factor 2 vanishes, and
    reduced in place.  The vector of a free column fc is its `_residual`
    row: over d, 1 at fc and minus the reduced rows' column fc at their
    pivots.  The free columns f over K give the free columns r * f + u
    over Q or F_p, and f gives the vector of r * f."""
    r, p = field.coord_dim, field.characteristic()
    if p:
        rows = [[a % p for a in row] for row in rows]
    vecs, d = [], 1
    for row in _residual(rows, _eliminate(rows, p), n * r):
        (fc, d), vec = row[0], [0] * (n * r)
        if fc % r == 0:
            for i, a in row:
                vec[i] = a
            vecs.append(vec)
    return vecs, d


def _eliminate(rows, p):
    """Gauss-Jordan on a list of integer rows, in place, over F_p, or over
    Q when p = 0.  Returns the pivot columns; row k then holds pivot k's
    reduced row, and the rows below the last pivot are zero.

    Over F_p the rows are residues and each pivot entry is 1.  Over Q the
    elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): a row is
    cleared by cross-multiplying with the pivot row and is then divided by
    its gcd, so a reduced row is the true one times its pivot entry.  The
    pivot is the first nonzero entry at or below row k, as in Gauss-Jordan
    on Scalars (the tests' ``rref_reference``), and every row stays a
    nonzero multiple of that elimination's row, so the pivots agree."""
    if not p:
        for k, row in enumerate(rows):
            g = math.gcd(*row)
            if g > 1:
                rows[k] = [a // g for a in row]
    n_rows, pivots = len(rows), []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow, a = rows[r], rows[r][c]
        if p and a != 1:
            inv = pow(a, -1, p)
            prow = rows[r] = [b * inv % p for b in prow]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            if p:
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
            else:
                row = [x * a - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return pivots


def _compiled(rows, m, n):
    """f(A, B) = [sum(c * A[i] * B[j] for i, j, c in row) for row in rows]
    for A of length m and B of length n, as one sum of products per row (0
    for a row without terms), compiled from source written from integer
    terms alone: anything else raises TypeError before it reaches exec."""
    def term(i, j, c):
        if not (type(i) is type(j) is type(c) is int):
            raise TypeError("not an integer term: %r" % ((i, j, c),))
        return "%s%sa%d*b%d" % ("-" if c < 0 else "+",
                                "" if abs(c) == 1 else "%d*" % abs(c), i, j)
    sums = ["".join(term(*t) for t in row).lstrip("+") or "0" for row in rows]
    src = "def f(A, B):\n %s, = A\n %s, = B\n return [%s]\n" % (
        ", ".join("a%d" % i for i in range(m)),
        ", ".join("b%d" % j for j in range(n)), ", ".join(sums))
    exec(src, scope := {})
    return scope["f"]


def _units(field):
    """(u, E_u) for the basis E_u of the base field over Q or F_p."""
    r = field.coord_dim
    return list(enumerate(field.lower(
        [int(s == u) for u in range(r) for s in range(r)], 1)))


def _integer_rows(field, terms, size):
    """(rows, den): rows of terms (i, j, n), row q standing for
    sum(n * A[i] * B[j]) / den on integer coordinates over Q or F_p.  A
    term (q, i, j, z) puts coordinate s of the payload z in row q + s."""
    r = field.coord_dim
    nums, den = field.lift([z for _, _, _, z in terms])
    rows = [[] for _ in range(size)]
    for k, (q, i, j, _) in enumerate(terms):
        for s, n in enumerate(nums[k * r:(k + 1) * r]):
            if n:
                rows[q + s].append((i, j, n))
    return tuple(tuple(row) for row in rows), den


def _bilinear(field, entries, size):
    """``_integer_rows`` of the K-bilinear map that adds c * A_i * B_j to
    coordinate k, over the entries (k, i, j, c) with payloads c, for
    K-coordinates A_i and B_j.  Each entry is expanded over the basis E_u
    of K over Q or F_p (``_units``): c * E_u * E_t lands in the rows
    r*k + s at the integer coordinates r*i + u and r*j + t (r =
    coord_dim); `size` rows in all."""
    r, mul = field.coord_dim, field.mul
    units = _units(field)
    return _integer_rows(field, [
        (k * r, i * r + u, j * r + t, mul(mul(c, eu), et))
        for k, i, j, c in entries for u, eu in units for t, et in units],
        size)


def _expanded(field, vectors):
    """(V, D): integer rows V over one denominator D, row r*v + u holding
    the coordinates over Q or F_p of E_u * vectors[v], for the basis E_u
    of the base field over Q or F_p (``_units``)."""
    r = field.coord_dim
    if r == 1:
        vals = [a.val for v in vectors for a in v]
    else:
        units = [eu for _, eu in _units(field)]
        vals = [field.mul(eu, a.val) for v in vectors for eu in units
                for a in v]
    nums, den = field.lift(vals)
    size = len(vectors[0]) * r if vectors else 1
    return [nums[i:i + size] for i in range(0, len(nums), size)], den


def _sparse(rows):
    """Integer rows as (i, n) pairs of their nonzero entries."""
    return tuple(tuple((i, n) for i, n in enumerate(row) if n)
                 for row in rows)


def _apply(rows, X):
    """The integer rows of ``_sparse`` applied to X."""
    nums = []
    for row in rows:
        s = 0
        for i, n in row:
            s += n * X[i]
        nums.append(s)
    return nums


class Projector:
    """Coordinates in a fixed basis of K^n, and membership in its span.

    Everything runs on integer coordinates over Q or F_p, the coordinate
    field F of K.  A vector x of K^n lies in the K-span of the basis b_j
    exactly when it lies in the F-span of the expanded basis E_u * b_j
    (``_expanded``), and the F-coordinates of x there are the
    F-coordinates of its K-coefficients.  With the expanded vectors as
    the columns of M, one integer Gauss-Jordan (``_eliminate``) of [M | I]
    gives an invertible E with E * M reduced.  A row of E whose pivot lies
    in M gives the coefficient of that pivot's vector; the others get 0.
    The pivots over F are the E_u * b_j of the pivots over K, so a
    dependent b_j gets 0 as well.  The remaining rows of E, the residual
    map, vanish exactly on the span.  A call lifts x once, or takes x
    already lifted (``coefficients_lifted``), and takes integer dot
    products.  The basis is the pair (V, D) of ``_expanded``, with its
    `dim` if empty; integer rows (R, D') of a `recombine` map, one
    column per expanded vector, are multiplied into the coefficients.
    """

    def __init__(self, field, expanded, dim=None, recombine=None):
        p = field.characteristic()
        vecs, d = expanded
        n, k = len(vecs[0]) if vecs else dim * field.coord_dim, len(vecs)
        rows = [[v[i] for v in vecs] + [int(i == j) for j in range(n)]
                for i in range(n)]
        pivots = _eliminate(rows, p)
        in_m = sum(1 for pc in pivots if pc < k)
        den = math.lcm(*[row[pc] for row, pc in zip(rows, pivots[:in_m])])
        coeff = [[0] * n for _ in range(k)]
        for row, pc in zip(rows, pivots[:in_m]):
            m = d * (den // row[pc])
            coeff[pc] = [m * a for a in row[k:]]
        residual = [row[k:] for row in rows[in_m:]]
        if recombine is not None:
            rec, dr = recombine
            cols = list(zip(*coeff))
            coeff = [[sum(map(operator.mul, row, col)) for col in cols]
                     for row in rec]
            den *= dr
        g = math.gcd(den, *[a for row in coeff for a in row])
        if g > 1:
            den //= g
            coeff = [[a // g for a in row] for row in coeff]
        self.field, self._p = field, p
        self._coeff = _sparse(coeff), den
        self._residual = _sparse(residual)

    def contains(self, vec):
        return _vanishes(self._residual,
                         self.field.lift([c.val for c in vec])[0], self._p)

    def coefficients(self, vec):
        """The (recombined) coefficients of vec; NotInSpan off the span."""
        f = self.field
        nums, den = self.coefficients_lifted(*f.lift([c.val for c in vec]))
        return tuple([Scalar(f, v) for v in f.lower(nums, den)])

    def coefficients_lifted(self, X, d):
        """`coefficients` of the vector X / d, as (integer coordinates, one
        denominator), neither reduced."""
        if not _vanishes(self._residual, X, self._p):
            raise NotInSpan("vector is outside the span")
        rows, den = self._coeff
        return _apply(rows, X), den * d


class IntVector:
    """A vector of K^n stored as its integer coordinates over Q or F_p:
    the tuple `nums` over one denominator `den`, canonical by
    ``scalars._reducer`` (gcd-reduced with den > 0 over Q, residues over
    the denominator 1 over F_p), so equal vectors have equal forms and
    hash by that form.  `owner` is the ``IntSpace`` the vector lies in;
    build vectors through it.  `coords`, the Scalars over its field, is
    lowered on first read and cached; reprs and reports read it.

    A subclass gives `_peer`, the other operand of a sum as a vector of
    the same space, and `scale`.  A vector equals only a vector of an
    equal space with the same form."""

    __slots__ = ("owner", "nums", "den", "_coords")

    def __init__(self, owner, nums, den=1):
        self.owner = owner
        self.nums = nums
        self.den = den
        self._coords = None

    @property
    def coords(self):
        if self._coords is None:
            field = self.owner.field
            self._coords = tuple([Scalar(field, v) for v in
                                  field.lower(self.nums, self.den)])
        return self._coords

    def __add__(self, other):
        other = self._peer(other)
        da, db = self.den, other.den
        pairs = zip(self.nums, other.nums)
        if da == db:
            return self.owner._canonical([a + b for a, b in pairs], da)
        return self.owner._canonical([a * db + b * da for a, b in pairs],
                                     da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        da, db = self.den, other.den
        pairs = zip(self.nums, other.nums)
        if da == db:
            return self.owner._canonical([a - b for a, b in pairs], da)
        return self.owner._canonical([a * db - b * da for a, b in pairs],
                                     da * db)

    def __rsub__(self, other):
        return self._peer(other).__sub__(self)

    def __neg__(self):
        return self.owner._canonical([-a for a in self.nums], self.den)

    def is_zero(self):
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, IntVector):
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and (self.owner is other.owner or self.owner == other.owner))

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


class IntSpace:
    """K^n with its vectors stored as ``IntVector``s.  A subclass sets
    `field` (K), `dim` (n) and `_canonical`, the ``scalars._reducer`` map
    (nums, den) -> vector.

    A space answers the carrier protocol of ``handles.Handle``, as a
    field does: `element`, `random_element`, `all_elements`, `coord_field`
    (K) and `coord_dim` (n), and `is_commutative`, for the product a
    tower overrides or the small field of a plane; a tower adds
    `from_base`."""

    coord_field = property(lambda s: s.field)
    coord_dim = property(lambda s: s.dim)

    def is_commutative(self):
        return True

    def element(self, coords):
        vals = [self.field.coerce(c) for c in coords]
        if len(vals) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        return self._canonical(*self.field.lift(vals))

    def zero(self):
        return self._canonical([0] * (self.dim * self.field.coord_dim), 1)

    def unit(self, k):
        r = self.field.coord_dim
        return self._canonical([int(i == k * r)
                                for i in range(self.dim * r)], 1)

    def basis(self):
        return [self.unit(k) for k in range(self.dim)]

    def random_element(self, rng, height=20, nonzero=False):
        while True:
            x = self._canonical(*self.field.random_coords(rng, self.dim,
                                                          height))
            if not (nonzero and x.is_zero()):
                return x

    def all_elements(self):
        """Every vector, lazily, the last coordinate running fastest."""
        field = self.field
        if not field.is_finite():
            raise TypeError("%r is infinite" % self)
        return (self._canonical(*field.lift(c)) for c in itertools.product(
            [s.val for s in field.elements()], repeat=self.dim))

    def _expanded(self, xs):
        """``_expanded`` of vectors of this space, read off their stored
        integers: (V, D), row r*v + u of V over D being E_u * xs[v]."""
        units = [Scalar(self.field, eu) for _, eu in _units(self.field)[1:]]
        ys = [y for x in xs for y in [x] + [x.scale(eu) for eu in units]]
        d = math.lcm(*[y.den for y in ys])
        return [[a * (d // y.den) for a in y.nums] for y in ys], d
