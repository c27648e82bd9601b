"""Doubling-tower composition algebras: field, quadratic stage, quaternions,
octonions (and the guarded 16-dimensional tower used as a negative control).

Elements are coordinate vectors over the base field.  Multiplication is the
recursive doubling rule

    (x1, y1) * (x2, y2) = (x1*x2 + beta * y2 * conj(y1),
                           conj(x1) * y2 + x2 * y1)

applied on halves; the standard involution fixes the first coordinate and
negates the rest, and norm/trace come from the same recursion.

``_pmul`` implements this rule directly and is the reference rule; nothing
calls it at run time, and tests check the kernel against it.  Every tower,
over Q, F_p or a quadratic extension, multiplies through one structure
table instead.  By the rule, e_i * e_j = c_ij * e_(i xor j), and
``_basis_constant`` derives c_ij in the base field by the same recursion
run on the indices (i, j).  Each base-field coordinate is a vector over Q
or F_p (``scalars`` decides how), so the table is expanded once over that
coordinate field, per base field and tuple of betas.

An element is a ``linalg.IntVector`` stored in that lifted form: integer
coordinates over Q or F_p over one denominator, gcd-reduced over Q and
residues over F_p (the form of FLINT's ``fmpq_poly``), and a tower is a
``linalg.IntSpace``.  Sums, equality, keys and the lowered base-field
``coords`` come from ``linalg``, as do elements from coordinates, units,
draws and enumeration.  Products, the norm and the inverse
conj(x) * N(x)^-1 contract the stored integers with the table, whose
rows ``linalg._bilinear`` expands and ``linalg._compiled`` compiles;
``conj`` and ``scale`` act on them directly.  ``linalg`` also gives the
``Projector`` behind the split of a ``DoublingFrame``, the integer
reduction behind ``Subspace``, its basis and its membership test, and
the integer kernel behind ``center`` and ``orthogonal_complement``, whose
rows are read off the table and the polar form of the norm rows.
``Subspace`` is the one span class, for subspaces of a tower and for
spans inside any handle, and ``closure`` the one closure of a span under
products.

The identity suites state each law once, in ``_LAWS``, and draw its
cases from one seeded stream.  Over a prime field a law is checked on
all its samples together: the draws become the rows of a numpy array of
residues (a ``_Stack``), and a product contracts their outer products
with the dense structure matrix read off the table on first use
(``_Stacks``).  Over any other base, and for the `inverse` suite, the
cases go one by one; that path is also the stacked one's test oracle.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from . import linalg
from .linalg import NotInSpan  # noqa: F401  (re-exported)
from .linalg import IntSpace, IntVector, _bilinear, _compiled
from .report import Report
from .scalars import (QQ, PrimeField, Scalar, _draws_below, _reducer,
                      random_scalar)


class AlgebraMismatch(ValueError):
    pass


class NotInvertible(ZeroDivisionError):
    pass


class BadDoublingUnit(ValueError):
    pass


class BadSubfield(ValueError):
    pass


# division-certification outcomes
DIVISION_STRUCTURAL = "certified-structural"
DIVISION_EXHAUSTIVE = "certified-exhaustive"
DIVISION_SAMPLED = "division-unverified-sampled"
NOT_DIVISION = "not-division"
# nonzero elements drawn to look for an isotropic one over Q
DIVISION_SAMPLES = 64


class CDAlgebra(IntSpace):
    """A doubling tower over a base field, described by its beta constants;
    its elements are ``CDElement``s."""

    def __init__(self, base, betas, allow_dim16=False, name=None):
        self.base = self.field = base
        self.betas = [base.scalar(b) for b in betas]
        for b in self.betas:
            if b.is_zero():
                raise ValueError("doubling constants must be nonzero")
        if len(self.betas) > 3 and not allow_dim16:
            raise ValueError("towers beyond dimension 8 are not alternative; "
                             "pass allow_dim16=True for the negative control")
        if len(self.betas) > 4:
            raise ValueError("towers beyond dimension 16 are not supported")
        self.dim = 2 ** len(self.betas)
        self.name = name
        self._kernel = _tower_kernel(base, tuple(b.val for b in self.betas))
        self._p = base.characteristic()
        # the element with integer coordinates nums / den, reduced
        self._canonical = _reducer(self._p, functools.partial(CDElement, self))
        self.division_status, self.division_witness = self._certify_division()

    # -- division certification -------------------------------------------
    def _certify_division(self):
        if self.dim > 8:
            return NOT_DIVISION, None
        if self.base == QQ and all(b.val < 0 for b in self.betas):
            # norm form is positive definite by induction on the stages
            return DIVISION_STRUCTURAL, None
        if self.base.is_finite():
            # the first isotropic element in coordinate order; quadratic
            # forms in >= 3 variables over a finite field are isotropic, so
            # from dim 4 on a witness always turns up
            if isinstance(self.base, PrimeField) and self._p > 2:
                x = self._first_isotropic_odd_prime()
            else:
                x = next((x for x in self.all_elements()
                          if not x.is_zero() and x.norm().is_zero()), None)
            if x is not None:
                return NOT_DIVISION, x
            return DIVISION_EXHAUSTIVE, None
        rng = random.Random(20210 + self.dim)
        for _ in range(DIVISION_SAMPLES):
            x = self.random_element(rng, nonzero=True)
            if x.norm().is_zero():
                return NOT_DIVISION, x
        return DIVISION_SAMPLED, None

    def _first_isotropic_odd_prime(self):
        """The first isotropic element of `all_elements` over F_p, p odd,
        found from a handful of prefixes, whatever p is.

        The norm is diagonal, sum(m_k * x_k^2) with m_k the product of
        -beta over the stages where k has its bit set.  For each prefix
        x_0 .. x_(n-2) in order, with S its part of the sum, the first last
        coordinate t with m t^2 = -S is the smaller square root of -S/m, if
        there is one (0 when S = 0; the zero prefix has none).  The walk
        over the prefixes in order is short:
        - after the zero prefix come (0, .., 0, a) for 0 < a < p, and each
          gives a witness exactly when -m_(n-2)/m_(n-1) is a square,
          whatever a is, so a = 1 stands for them all;
        - next come (0, .., 0, 1, b) for b = 0, 1, ..., and one of them
          gives a witness: the ternary form on the last three coordinates
          is isotropic, as every ternary form over F_p is, and its zeros
          have x_(n-3) != 0 when the binary form on the last two is
          anisotropic, so a zero scaled to x_(n-3) = 1 lies among them.
        Without a third coordinate (dim 2) the tower is a division algebra
        exactly when the first step finds nothing.
        """
        f, p, n = self.base, self._p, self.dim
        m = [1]
        for b in self.betas:
            m += [c * -b.val % p for c in m]
        last = pow(m[-1], -1, p)
        if n >= 2:
            t = f.sqrt(-m[-2] * last)
            if t is not None:
                return CDElement(self, (0,) * (n - 2) + (1, t))
        if n >= 3:
            for b in range(p):
                t = f.sqrt(-(m[-3] + m[-2] * b * b) * last)
                if t is not None:
                    return CDElement(self, (0,) * (n - 3) + (1, b, t))
        return None

    @property
    def is_division(self):
        return self.division_status in (DIVISION_STRUCTURAL, DIVISION_EXHAUSTIVE)

    # -- constructors -------------------------------------------------------
    def from_base(self, s):
        nums, den = self.base.lift([self.base.coerce(s)])
        return self._canonical(nums + [0] * (len(nums) * (self.dim - 1)), den)

    def one(self):
        return self.unit(0)

    def characteristic(self):
        return self.base.characteristic()

    def __eq__(self, other):
        return (isinstance(other, CDAlgebra) and other.base == self.base
                and other.betas == self.betas)

    def __hash__(self):
        return hash(("CD", self.base, tuple(str(b) for b in self.betas)))

    def __repr__(self):
        if self.name:
            return self.name
        return "CD(%r; %s)" % (self.base, ", ".join(repr(b) for b in self.betas))


def _pmul(field, betas, a, b):
    """Doubling-rule product on raw payload tuples of length 2^len(betas):
    the reference rule the structure-table kernel is tested against."""
    if not betas:
        return (field.mul(a[0], b[0]),)
    h = len(a) // 2
    beta = betas[-1]
    x1, y1 = a[:h], a[h:]
    x2, y2 = b[:h], b[h:]
    sub = betas[:-1]
    add, mul = field.add, field.mul
    t1 = _pmul(field, sub, x1, x2)
    t2 = _pmul(field, sub, y2, _pconj(field, y1))
    first = tuple(add(p, mul(beta, q)) for p, q in zip(t1, t2))
    t3 = _pmul(field, sub, _pconj(field, x1), y2)
    t4 = _pmul(field, sub, x2, y1)
    second = tuple(add(p, q) for p, q in zip(t3, t4))
    return first + second


def _pconj(field, a):
    neg = field.neg
    return (a[0],) + tuple(neg(c) for c in a[1:])


def _pnorm(field, betas, a):
    if not betas:
        return field.mul(a[0], a[0])
    h = len(a) // 2
    return field.sub(_pnorm(field, betas[:-1], a[:h]),
                     field.mul(betas[-1], _pnorm(field, betas[:-1], a[h:])))


def _basis_constant(field, betas, i, j):
    """c with e_i * e_j = c * e_(i xor j) in the tower over `field` with
    these beta payloads.

    The doubling rule run on indices, from the top stage down.  With each
    basis vector a pair (x, 0) or (0, y) of lower basis vectors,
    (x, 0)(x', 0) = (x x', 0), (x, 0)(0, y') = (0, conj(x) y'),
    (0, y)(x', 0) = (0, x' y) and (0, y)(0, y') = (beta y' conj(y), 0),
    where conj(e_k) = -e_k for every k > 0.
    """
    c = field.one_payload()
    for level in reversed(range(len(betas))):
        h = 1 << level
        hi, hj = i & h, j & h
        i, j = i & (h - 1), j & (h - 1)
        if hj and i:
            c = field.neg(c)
        if hi:
            if hj:
                c = field.mul(c, betas[level])
            i, j = j, i
    return c


class _TowerKernel:
    """Integer rows of the product, norm and inverse of a tower.

    A base-field coordinate has r = coord_dim coordinates over Q or F_p,
    so an element is a vector X of dim * r integers over one denominator,
    X[r*k + u] being coordinate u of coordinate k.  The rows hold the
    structure constants expanded over the coordinate field:
    (x * y)_q = sum(n * X[i] * Y[j]) / (den * dx * dy) over row q.  The
    norm is the scalar part of x * conj(x): norm_rows are rows[:r] with the
    signs of conj on Y, diagonal when r = 1.  A base-field scalar z sits
    in the column of e_0, so x * z reads only the terms with j < r
    (scalar_rows), and conj(x) * z the same terms with the signs of conj on
    X (scale_rows): the inverse is conj(x) * N(x)^-1.  Each row set is
    compiled on first use into a function of (X, Y) (``linalg._compiled``).
    Over F_p, `stacks` holds the rows and norm rows as dense matrices for
    the identity suites (``_Stacks``), also built on first use.
    """

    def __init__(self, field, betas):
        dim, r = 1 << len(betas), field.coord_dim
        self.r = r
        self.rows, self.den = _bilinear(field, [
            (i ^ j, i, j, _basis_constant(field, betas, i, j))
            for i in range(dim) for j in range(dim)], dim * r)
        self.norm_rows = tuple(tuple((i, j, n if j < r else -n)
                                     for i, j, n in row)
                               for row in self.rows[:r])
        self.scalar_rows = tuple(tuple((i, j, n) for i, j, n in row if j < r)
                                 for row in self.rows)
        self.scale_rows = tuple(tuple((i, j, n if i < r else -n)
                                      for i, j, n in row)
                                for row in self.scalar_rows)
        self.n = dim * r
        self.p = field.characteristic()

    @functools.cached_property
    def stacks(self):
        """The ``_Stacks`` of a tower over F_p, whose dense structure
        matrices are read off `rows` and `norm_rows` here, on first use.
        Over F_p the rows are residues over the denominator 1."""
        p, n = self.p, self.n
        dtype = np.int64 if n * n * (p - 1) ** 2 < 2 ** 63 else object
        unit = (((0, 0, 1),),)
        return _Stacks(p, dtype, n, self.rows, self.norm_rows,
                       _Stacks(p, dtype, 1, unit, unit))

    mul = functools.cached_property(lambda k: _compiled(k.rows, k.n, k.n))
    norm = functools.cached_property(
        lambda k: _compiled(k.norm_rows, k.n, k.n))
    mul_scalar = functools.cached_property(
        lambda k: _compiled(k.scalar_rows, k.n, k.r))
    conj_mul_scalar = functools.cached_property(
        lambda k: _compiled(k.scale_rows, k.n, k.r))


_tower_kernel = functools.lru_cache(maxsize=64)(_TowerKernel)


class CDElement(IntVector):
    """An element of a tower, a ``linalg.IntVector`` whose integer
    coordinates are those of ``_TowerKernel``.  It adds and equals the
    base-field scalars it embeds (``CDAlgebra.from_base``).  Build elements
    through their algebra (``element``, ``random_element``, ...)."""

    __slots__ = ()

    algebra = property(lambda x: x.owner)

    def _peer(self, other):
        if isinstance(other, CDElement):
            if other.owner is not self.owner and other.owner != self.owner:
                raise AlgebraMismatch("elements of different towers")
            return other
        return self.owner.from_base(other)

    def _embed(self, s):
        return self.owner.from_base(s)

    def _scalar(self):
        alg, nums = self.owner, self.nums
        r = alg._kernel.r
        if any(nums[r:]):
            return None
        return Scalar(alg.base, alg.base.lower(nums[:r], self.den)[0])

    def __mul__(self, other):
        if isinstance(other, Scalar) and other.field == self.owner.base:
            return self.scale(other)
        other = self._peer(other)
        alg = self.owner
        k = alg._kernel
        return alg._canonical(k.mul(self.nums, other.nums),
                              k.den * self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, Scalar) and other.field == self.owner.base:
            return self.scale(other)
        return self._peer(other).__mul__(self)

    def scale(self, s):
        alg = self.owner
        k = alg._kernel
        z, dz = alg.base.lift([alg.base.coerce(s)])
        return alg._canonical(k.mul_scalar(self.nums, z),
                              k.den * self.den * dz)

    def conj(self):
        r, nums = self.owner._kernel.r, self.nums
        return self.owner._canonical(
            nums[:r] + tuple([-a for a in nums[r:]]), self.den)

    def norm(self):
        alg, d = self.owner, self.den
        k = alg._kernel
        return Scalar(alg.base, alg.base.lower(
            k.norm(self.nums, self.nums), k.den * d * d)[0])

    def trace(self):
        alg = self.owner
        return Scalar(alg.base, alg.base.lower(
            [2 * a for a in self.nums[:alg._kernel.r]], self.den)[0])

    def inverse(self):
        """conj(x) * N(x)^-1, or NotInvertible when N(x) = 0.  With
        N(x) = n / (k.den * d^2) for the integer norm coordinates n, that is
        conj(x) * k.den * d^2 * n^-1.  Over Q and F_p, n is one integer,
        the denominator of the result; over a quadratic extension it is
        inverted in the field."""
        alg, nums, d = self.owner, self.nums, self.den
        k, field = alg._kernel, alg.base
        n = k.norm(nums, nums)
        if k.r == 1:
            z, dz = (1,), n[0] % alg._p if alg._p else n[0]
            if not dz:
                raise NotInvertible("norm is zero")
        else:
            n = field.lower(n, 1)[0]
            if field.is_zero(n):
                raise NotInvertible("norm is zero")
            z, dz = field.lift([field.inv(n)])
        return alg._canonical([v * d for v in k.conj_mul_scalar(nums, z)], dz)


def cd_conj_norm_trace(x):
    """(conjugate, norm, trace); norm/trace land in the base field."""
    return x.conj(), x.norm(), x.trace()


def bilinear(x, y):
    """<x, y> = T(x * conj(y)), the bilinear form of the norm."""
    return (x * y.conj()).trace()


class Subspace:
    """The one span class: the span of some carrier elements over the
    coordinate field, read through a tower (as its ``CDHandle``) or any
    ``handles.Handle``.  Subspaces of a tower and the spans K0 and L0 of
    involutory and indifferent sets are both of this kind.  One integer
    reduction (``linalg._reduced``) gives the basis, in exact reduced
    row-echelon form, and the residual rows of `contains`; the vectors of
    a carrier that is a ``linalg.IntSpace`` (a tower, or the space of a
    small field) go in and come out as their stored integers."""

    def __init__(self, carrier, vectors):
        from .handles import CDHandle  # handles imports this module
        if isinstance(carrier, CDAlgebra):
            carrier = CDHandle(carrier)
        self.handle = carrier
        field = carrier.coord_field
        r, self._p = field.coord_dim, field.characteristic()
        space = getattr(carrier, "carrier", None)
        if not isinstance(space, IntSpace):
            space = None
        rows = (space._expanded(vectors) if space else linalg._expanded(
            field, [carrier.coords(v) for v in vectors]))[0]
        pivots, kept = linalg._reduced(field, rows)
        self._residual = linalg._residual(rows, pivots, carrier.coord_dim * r)
        self._basis = [space._canonical(row, row[pc]) if space else
                       carrier.uncoords([Scalar(field, v) for v in
                                         field.lower(row, row[pc])])
                       for row, pc in kept]

    @property
    def dim(self):
        return len(self._basis)

    def basis(self):
        return list(self._basis)

    def contains(self, x):
        h = self.handle  # a stored vector hands over its integers
        X = (x.nums if isinstance(x, IntVector)
             else h.coord_field.lift([c.val for c in h.coords(x)])[0])
        return linalg._vanishes(self._residual, X, self._p)

    def extended(self, vectors):
        return Subspace(self.handle, self._basis + list(vectors))

    def is_full(self):
        return self.dim == self.handle.coord_dim

    def sample(self, rng, height=9):
        h = self.handle
        acc = h.zero()
        for b in self._basis:
            acc = acc + b.scale(random_scalar(h.coord_field, rng, height))
        return acc

    def elements(self):
        """All span elements (finite coordinate field only).  The reduced
        basis is independent, so no element comes twice."""
        h = self.handle
        if not h.coord_field.is_finite():
            raise TypeError("infinite span")
        out = [h.zero()]
        for b in self._basis:
            out = [e + b.scale(c)
                   for e in out for c in h.coord_field.elements()]
        return out

    def is_subalgebra(self):
        h = self.handle
        if not self.contains(h.one()):
            return False
        bas = self._basis
        return all(self.contains(h.mul(a, b)) for a in bas for b in bas)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.handle == self.handle
                and other._basis == self._basis)

    def __repr__(self):
        return "span<%d dim=%d>" % (self.handle.coord_dim, self.dim)


def _kernel_span(algebra, rows, ys, sign):
    """The X with B(X, Y)_q = sum(n * (X[i] * Y[j] + sign * Y[i] * X[j])),
    over the terms (i, j, n) of each row q, zero for each Y in ys: the polar
    form of the norm on `norm_rows` with sign 1, the commutator on the
    product `rows` with -1."""
    form = []
    for Y in (y.nums for y in ys):
        for row in rows:
            v = [0] * len(Y)
            for i, j, n in row:
                v[i] += n * Y[j]
                v[j] += sign * n * Y[i]
            form.append(v)
    vecs, d = linalg._kernel(algebra.base, form, algebra.dim)
    return Subspace(algebra, [algebra._canonical(v, d) for v in vecs])


def orthogonal_complement(algebra, space):
    """Exact kernel of the polar form of the norm against the subspace."""
    return _kernel_span(algebra, algebra._kernel.norm_rows, space.basis(), 1)


def closure(span):
    """The closure of a span under its handle's products: (span, "full")
    once it is the whole carrier, or (span, "stable") when the products
    of its basis stay inside it.  A round that does not stop adds a
    dimension, so at most coord_dim rounds run."""
    mul = span.handle.mul
    while not span.is_full():
        bas = span.basis()
        extra = [p for p in (mul(a, b) for a in bas for b in bas)
                 if not span.contains(p)]
        if not extra:
            return span, "stable"
        span = span.extended(extra)
    return span, "full"


def subalgebra_generated(algebra, gens):
    """Smallest subspace containing 1 and gens that is closed under products."""
    return closure(Subspace(algebra, [algebra.one()] + list(gens)))[0]


def center(algebra):
    """Kernel of all basis commutators: {x | [x, A] = 0}."""
    return _kernel_span(algebra, algebra._kernel.rows, algebra.basis(), -1)


class DoublingFrame:
    """Cached exact splitter for A + e*A: x  <->  (h, y) with x = h + e*y.

    A ``linalg.Projector`` onto the frame {b, e*b : b in the subalgebra
    basis} carries the recombination of both halves over that basis, so
    a split is two integer matrix-vector products over Q or F_p on the
    stored coordinates of x, whatever the base: the residual, empty when
    the frame spans the tower, and the coordinates of h and y.  Both are
    built from the stored integers: h is the transposed expanded basis
    applied to the coefficients of the first half.  Off A + e*A a split
    raises NotInSpan.
    """

    def __init__(self, algebra, sub, e):
        self.algebra = algebra
        self.sub = sub
        self.e = e
        if not sub.is_subalgebra():
            raise BadDoublingUnit("not a subalgebra")
        perp = orthogonal_complement(algebra, sub)
        if not perp.contains(e) or sub.contains(e) or e.norm().is_zero():
            raise BadDoublingUnit("doubling unit must sit in the "
                                  "complement with nonzero norm")
        bas = self.sub_basis = sub.basis()
        vecs, d = algebra._expanded(bas + [e * b for b in bas])
        zeros = [0] * (len(vecs) // 2)
        cols = [list(c) for c in zip(*vecs[:len(zeros)])]
        rec = [c + zeros for c in cols] + [zeros + c for c in cols]
        self._proj = linalg.Projector(algebra.base, (vecs, d),
                                      recombine=(rec, d))

    def split(self, x):
        """x -> (h, y) with x = h + e*y, h and y in the subalgebra."""
        alg = self.algebra
        nums, den = self._proj.coefficients_lifted(x.nums, x.den)
        half = len(nums) // 2
        return (alg._canonical(nums[:half], den),
                alg._canonical(nums[half:], den))

    def combine(self, h, y):
        return h + self.e * y


def _lin_comb(basis, coeffs):
    """sum(c * b): the recombination the split tests compare against."""
    acc = basis[0].scale(coeffs[0])
    for b, c in zip(basis[1:], coeffs[1:]):
        acc = acc + b.scale(c)
    return acc


def doubling_coordinates(x, sub, e):
    """Coordinates of x in A + e*A (unique); errors if x is outside."""
    return DoublingFrame(x.owner, sub, e).split(x)


def norm_splitting(algebra, subfield, samples=32, seed=11):
    """Norm splitting of an octonion tower over a quadratic subfield.

    Returns (vectors v1..v4, constants s1..s4, witness z in the subfield
    with N(z) = s1*s2*s3*s4).  Follows the constructive chain v1 = 1,
    v2 in E-perp, v3 in H2-perp, v4 = v2*v3.
    """
    if algebra.dim != 8:
        raise BadSubfield("norm splittings are built on the 8-dim tower")
    if subfield.dim != 2 or not subfield.is_subalgebra():
        raise BadSubfield("need a 2-dimensional subalgebra containing 1")
    if not subfield.contains(algebra.one()):
        raise BadSubfield("subfield must contain 1")
    # separability: the trace form on E must not vanish identically
    if all((b + b.conj()).is_zero() for b in subfield.basis()):
        raise BadSubfield("subfield is inseparable (trace identically zero)")

    def pick_perp(space):
        perp = orthogonal_complement(algebra, space)
        for v in perp.basis():
            if not space.contains(v) and not v.norm().is_zero():
                return v
        raise BadSubfield("no anisotropic vector in the complement")

    v1 = algebra.one()
    v2 = pick_perp(subfield)
    h2 = subfield.extended([v2 * b for b in subfield.basis()])
    v3 = pick_perp(h2)
    v4 = v2 * v3
    vs = [v1, v2, v3, v4]
    consts = [v.norm() for v in vs]

    # E-basis check: {v_i, v_i * theta} spans the whole tower
    theta = next(b for b in subfield.basis()
                 if not Subspace(algebra, [algebra.one()]).contains(b))
    full = Subspace(algebra, [v for v in vs] + [v * theta for v in vs])
    if full.dim != 8:
        raise BadSubfield("constructed vectors do not form a basis")

    # sampled splitting identity: N(sum v_i t_i) = sum s_i N(t_i)
    rng = random.Random(seed)
    for _ in range(samples):
        ts = []
        for _ in range(4):
            c0 = random_scalar(algebra.base, rng, 9)
            c1 = random_scalar(algebra.base, rng, 9)
            ts.append(algebra.one().scale(c0) + theta.scale(c1))
        acc = algebra.zero()
        for v, t in zip(vs, ts):
            acc = acc + v * t
        lhs = acc.norm()
        rhs = algebra.base.zero()
        for s, t in zip(consts, ts):
            rhs = rhs + s * t.norm()
        if lhs != rhs:
            raise BadSubfield("splitting identity failed on a sample")

    # witness: s1 s2 s3 s4 = N(z) with z = -v2^2 * v3^2 (a scalar in E)
    z = -((v2 * v2) * (v3 * v3))
    prod = consts[0] * consts[1] * consts[2] * consts[3]
    if not subfield.contains(z) or z.norm() != prod:
        raise BadSubfield("norm-product witness failed")
    return vs, consts, z


# -- identity suites --------------------------------------------------------

# (rule, arity, law) for each sampled suite; the inverse laws draw nonzero
# arguments
_LAWS = {
    "moufang": [
        ("moufang.left", 3,
         lambda x, y, z: ((x * y) * x) * z == x * (y * (x * z))),
        ("moufang.right", 3,
         lambda x, y, z: z * ((x * y) * x) == ((z * x) * y) * x),
        ("moufang.middle", 3,
         lambda x, y, z: (x * y) * (z * x) == (x * (y * z)) * x)],
    "flexible": [
        ("flexible", 2, lambda x, y: ((x * y) * x - x * (y * x)).is_zero())],
    "alternative": [
        ("alternative.left", 2,
         lambda x, y: ((x * x) * y - x * (x * y)).is_zero()),
        ("alternative.right", 2,
         lambda x, y: ((y * x) * x - y * (x * x)).is_zero())],
    "inverse": [
        ("inverse.left", 2, lambda x, y: x.inverse() * (x * y) == y),
        ("inverse.right", 2, lambda x, y: (y * x) * x.inverse() == y),
        ("inverse.antidistributive", 2,
         lambda x, y: (x * y).inverse() == y.inverse() * x.inverse()
         if not (x * y).norm().is_zero() else True)],
    "minimum_equation": [
        ("minimum-equation", 1,
         lambda x: (x * x - x.scale(x.trace())
                    + x.owner.one().scale(x.norm())).is_zero())],
    "norm_multiplicative": [
        ("norm.multiplicative", 2,
         lambda x, y: (x * y).norm() == x.norm() * y.norm()),
        ("trace.conj-invariant", 1, lambda x: x.conj().trace() == x.trace()),
        ("conj.involutive", 1, lambda x: x.conj().conj() == x)],
}

SUITES = tuple(_LAWS) + ("doubling_rules",)


def _doubling_rules(e, u):
    """The law of the `doubling_rules` suite for the unit e of the top
    stage, u = -N(e); `&` joins its three tests, on bools or on stacks."""
    def rules(x, y):
        return (((e * x) * (e * y) == (y * x.conj()).scale(u))
                & ((e * x) * y == e * (y * x))
                & (x * (e * y) == e * (x.conj() * y)))
    return rules


class _Stacks:
    """Elements of a tower over F_p stacked as ``_Stack``s: the k elements
    of a stack are the k rows of a numpy array of residues, n = dim
    columns.  A product reduces the outer products of two rows mod p and
    contracts them with the dense n^2 x n structure matrix, entry
    (n*i + j, q) the residue of the term X[i] * Y[j] of row q of
    ``_TowerKernel.rows``; the norm contracts them with the n^2 x 1 matrix
    of `norm_rows`.  Such a sum has n^2 terms below (p - 1)^2 each, so the
    dtype is int64 when n^2 * (p - 1)^2 < 2^63 and Python ints (object)
    otherwise.  Norms and traces are stacks of the tower of dim 1, `line`,
    in the same dtype."""

    def __init__(self, p, dtype, n, rows, norm_rows, line=None):
        self.p, self.dtype, self.n = p, dtype, n
        self.line = line or self
        self.mul_matrix, self.norm_matrix = (
            self._dense(rows), self._dense(norm_rows))
        self.signs = np.array([1] + [-1] * (n - 1), dtype)

    def _dense(self, rows):
        n = self.n
        m = np.zeros((n * n, len(rows)), self.dtype)
        for q, row in enumerate(rows):
            for i, j, c in row:
                m[n * i + j, q] = c % self.p
        return m

    def stack(self, x):
        """The tower element x as a stack of one row, which broadcasts."""
        return _Stack(self, np.array([x.nums], self.dtype))

    def one(self):
        rows = np.zeros((1, self.n), self.dtype)
        rows[0, 0] = 1
        return _Stack(self, rows)

    def draw(self, rng, samples, arity, width):
        """`arity` stacks of `samples` elements: what `samples` cases of
        `arity` draws of `width` leading coordinates each (the others 0)
        take from rng, by one ``scalars._draws_below`` call."""
        draws = np.array(_draws_below(rng, (self.p,) * (
            samples * arity * width)), self.dtype)
        rows = np.zeros((samples, arity, self.n), self.dtype)
        rows[:, :, :width] = draws.reshape(samples, arity, width)
        return [_Stack(self, rows[:, a]) for a in range(arity)]

    def contract(self, a, b, matrix):
        outer = (a[:, :, None] * b[:, None, :]) % self.p
        return outer.reshape(len(outer), self.n * self.n) @ matrix % self.p


class _Stack:
    """Elements of a tower over F_p, one per row of `rows` (``_Stacks``),
    with the operations the laws of `_LAWS` use, each run on all rows at
    once: `==` and `is_zero` give one bool per row."""

    __slots__ = ("owner", "rows")

    def __init__(self, owner, rows):
        self.owner = owner
        self.rows = rows

    def _new(self, rows):
        return _Stack(self.owner, rows % self.owner.p)

    def __mul__(self, other):
        o = self.owner
        return _Stack(o, o.contract(self.rows, other.rows, o.mul_matrix))

    def __add__(self, other):
        return self._new(self.rows + other.rows)

    def __sub__(self, other):
        return self._new(self.rows - other.rows)

    def __eq__(self, other):
        return (self.rows == other.rows).all(axis=1)

    def is_zero(self):
        return (self.rows == 0).all(axis=1)

    def conj(self):
        return self._new(self.rows * self.owner.signs)

    def norm(self):
        o = self.owner
        return _Stack(o.line, o.contract(self.rows, self.rows, o.norm_matrix))

    def trace(self):
        return _Stack(self.owner.line, 2 * self.rows[:, :1] % self.owner.p)

    def scale(self, s):
        """The rows times a scalar of F_p, or row by row times a stack of
        the line."""
        return self._new(self.rows * (s.rows if isinstance(s, _Stack)
                                      else s.val))


def _stacks(algebra):
    """The ``_Stacks`` of a tower over a prime field, or None: the suites
    check a law on all its samples at once through it."""
    if isinstance(algebra.base, PrimeField):
        return algebra._kernel.stacks
    return None


def _reprs(*args):
    return [repr(a) for a in args]


def _check_law(rep, rule, law, arity, samples, draw, rng, stacks, width):
    """The line of `rule`: law(*case) on `samples` cases of `arity`
    elements each, drawn by `draw` in order, as ``Report.first_failure``
    walks them.  With `stacks` (over F_p), the cases are drawn as stacks
    of `width` leading coordinates in one call and the law is evaluated
    once on all of them.  On a failure at case k the stream is rewound and
    cases 0..k are drawn again by `draw`, so the line has the same
    samples, index and counterexample, and the stream stops at the same
    place."""
    if stacks is None:
        cases = (tuple(draw() for _ in range(arity)) for _ in range(samples))
        return rep.first_failure(rule, cases, law, None, cex=_reprs)
    state = rng.getstate()
    holds = law(*stacks.draw(rng, samples, arity, width))
    if holds.all():
        return rep.add(rule, samples, True)
    k = int(np.argmin(holds))
    rng.setstate(state)
    cases = [tuple(draw() for _ in range(arity)) for _ in range(k + 1)]
    line = rep.add(rule, k + 1, False, _reprs(*cases[k]))
    line.index = k
    return line


def verify_identities(algebra, suite, samples=1000, seed=0, height=9):
    """Sampled identity suite; failures are report lines with a witness.

    The cases of a law are drawn from one seeded stream, in order.  Over
    a prime field each law but those of `inverse` (whose draws are
    nonzero and whose inverses may not exist) is checked once on all its
    samples, stacked in numpy (``_Stacks``, ``_check_law``); over any
    other base, and for `inverse`, case by case.  Both give the same
    report and leave the stream at the same place."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    rng = random.Random(seed)
    rep = Report("identities.%s" % suite, seed=seed, subject=repr(algebra))
    if not algebra.is_division:
        rep.add("division-status", 0, True, note=algebra.division_status)
    stacks = None if suite == "inverse" else _stacks(algebra)

    if suite != "doubling_rules":
        nonzero = suite == "inverse"

        def draw():
            return algebra.random_element(rng, height, nonzero=nonzero)

        for rule, arity, law in _LAWS[suite]:
            _check_law(rep, rule, law, arity, samples, draw, rng, stacks,
                       algebra.dim)
        return rep
    if algebra.dim < 2:
        rep.add("doubling-rules", 0, True, note="skipped: dim 1 has no stage")
        return rep
    half = algebra.dim // 2
    e = algebra.unit(half)
    u = -e.norm()

    def rand_lower():
        nums, den = algebra.base.random_coords(rng, half, height)
        return algebra._canonical(nums + [0] * len(nums), den)

    rules = _doubling_rules(stacks.stack(e) if stacks else e, u)
    _check_law(rep, "doubling.rules", rules, 2, samples, rand_lower, rng,
               stacks, half)
    return rep


# -- named towers -----------------------------------------------------------

def octonions_q():
    return CDAlgebra(QQ, [-1, -1, -1], name="octonion-Q")

def quaternions_q():
    return CDAlgebra(QQ, [-1, -1], name="quaternion-Q")

def gauss_q():
    return CDAlgebra(QQ, [-1], name="Qi-tower")

def sedenion_style_q():
    return CDAlgebra(QQ, [-1, -1, -1, -1], allow_dim16=True, name="dim16-Q")


NAMED_ALGEBRAS = {
    "octonion-Q": octonions_q,
    "quaternion-Q": quaternions_q,
    "Qi-tower": gauss_q,
    "dim16-Q": sedenion_style_q,
}
