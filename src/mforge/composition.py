"""Doubling-tower composition algebras: field, quadratic stage, quaternions,
octonions (and the guarded 16-dimensional tower used as a negative control).

Elements are coordinate vectors over the base field.  Multiplication is the
recursive doubling rule

    (x1, y1) * (x2, y2) = (x1*x2 + beta * y2 * conj(y1),
                           conj(x1) * y2 + x2 * y1)

applied on halves; the standard involution fixes the first coordinate and
negates the rest, and norm/trace come from the same recursion.

``_pmul`` implements this rule directly and is the reference product: it
multiplies towers over F_p, quadratic extensions and any other base.  Towers
over Q multiply through a structure table instead.  By the rule,
e_i * e_j = c_ij * e_(i xor j), and ``_basis_constant`` derives c_ij by the
same recursion run on the indices (i, j).  The table is built once per tuple
of betas.  A product then runs on integer numerators over one common
denominator, and each coordinate is normalized once, into the field's own
rational type.  The norm, diagonal in this basis, and the inverse
conj(x) / N(x) read the same table.  Tests check the table, products, norms
and inverses against ``_pmul`` and ``_pnorm``.
"""

from __future__ import annotations

import functools
import math
import random

from . import linalg
from .report import Report
from .scalars import _RAT, QQ, Rationals, Scalar, random_scalar


class AlgebraMismatch(ValueError):
    pass


class NotInvertible(ZeroDivisionError):
    pass


class NotInSpan(ValueError):
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


class CDAlgebra:
    """A doubling tower over a base field, described by its beta constants."""

    def __init__(self, base, betas, allow_dim16=False, division_samples=64,
                 name=None):
        self.base = base
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
        self._kernel = (_rational_kernel(tuple(b.val for b in self.betas))
                        if isinstance(base, Rationals) else None)
        self.division_status, self.division_witness = self._certify_division(
            division_samples)

    # -- division certification -------------------------------------------
    def _certify_division(self, samples):
        if self.dim > 8:
            return NOT_DIVISION, None
        if self.base == QQ and all(b.val < 0 for b in self.betas):
            # norm form is positive definite by induction on the stages
            return DIVISION_STRUCTURAL, None
        if self.base.is_finite():
            if self.dim <= 2:
                for x in self._all_elements():
                    if not x.is_zero() and x.norm().is_zero():
                        return NOT_DIVISION, x
                return DIVISION_EXHAUSTIVE, None
            # quadratic forms in >= 3 variables over a finite field are
            # isotropic; search for a witness exhaustively
            for x in self._all_elements():
                if not x.is_zero() and x.norm().is_zero():
                    return NOT_DIVISION, x
            return DIVISION_EXHAUSTIVE, None  # pragma: no cover
        rng = random.Random(20210 + self.dim)
        for _ in range(samples):
            x = self.random_element(rng, nonzero=True)
            if x.norm().is_zero():
                return NOT_DIVISION, x
        return DIVISION_SAMPLED, None

    @property
    def is_division(self):
        return self.division_status in (DIVISION_STRUCTURAL, DIVISION_EXHAUSTIVE)

    def _all_elements(self):
        if not self.base.is_finite():
            raise TypeError("infinite algebra")
        pools = [self.base.elements()] * self.dim
        out = [[]]
        for pool in pools:
            out = [cur + [s] for cur in out for s in pool]
        return [CDElement(self, tuple(c)) for c in out]

    # -- constructors -------------------------------------------------------
    def element(self, coords):
        coords = tuple(self.base.scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        return CDElement(self, coords)

    def from_base(self, s):
        s = self.base.scalar(s)
        return CDElement(self, (s,) + (self.base.zero(),) * (self.dim - 1))

    def zero(self):
        return self.from_base(0)

    def one(self):
        return self.from_base(1)

    def unit(self, k):
        coords = [self.base.zero()] * self.dim
        coords[k] = self.base.one()
        return CDElement(self, tuple(coords))

    def basis(self):
        return [self.unit(k) for k in range(self.dim)]

    def random_element(self, rng, height=20, nonzero=False):
        while True:
            x = CDElement(self, tuple(
                random_scalar(self.base, rng, height) for _ in range(self.dim)))
            if not (nonzero and x.is_zero()):
                return x

    def basis_table(self):
        """Full basis-product table, each entry a coordinate tuple."""
        bas = self.basis()
        return [[(bas[i] * bas[j]).coords for j in range(self.dim)]
                for i in range(self.dim)]

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
    """Doubling-rule product on raw payload tuples of length 2^len(betas);
    payload-level arithmetic avoids per-coordinate wrapper objects in the
    hot sampling loops."""
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


def _mul(field, betas, a, b):
    """Doubling-rule product on tuples of Scalars."""
    beta_payloads = [s.val for s in betas]
    out = _pmul(field, beta_payloads, tuple(c.val for c in a),
                tuple(c.val for c in b))
    return tuple(Scalar(field, v) for v in out)


def _conj(a):
    return (a[0],) + tuple(-c for c in a[1:])


def _basis_constant(betas, i, j):
    """c with e_i * e_j = c * e_(i xor j) in the tower with these betas.

    The doubling rule run on indices, from the top stage down.  With each
    basis vector a pair (x, 0) or (0, y) of lower basis vectors,
    (x, 0)(x', 0) = (x x', 0), (x, 0)(0, y') = (0, conj(x) y'),
    (0, y)(x', 0) = (0, x' y) and (0, y)(0, y') = (beta y' conj(y), 0),
    where conj(e_k) = -e_k for every k > 0.
    """
    c = 1
    for level in reversed(range(len(betas))):
        h = 1 << level
        hi, hj = i & h, j & h
        i, j = i & (h - 1), j & (h - 1)
        if hj and i:
            c = -c
        if hi:
            if hj:
                c = c * betas[level]
            i, j = j, i
    return c


_RAT_ZERO = _RAT(0)


def _integer_vector(coords):
    """(d, [n_k]) with coords[k] = n_k / d, for Scalars over Q."""
    vals = [c.val for c in coords]
    d = math.lcm(*[v.denominator for v in vals])
    return d, [v.numerator * (d // v.denominator) for v in vals]


def _rational_scalars(field, nums, den):
    """Scalars n / den for each n in nums, normalized once each."""
    return tuple(Scalar(field, _RAT(n, den) if n else _RAT_ZERO)
                 for n in nums)


class _RationalKernel:
    """Product, norm and inverse of a tower over Q on integer numerators.

    rows[k] lists (i, j, n) for i xor j = k, with c_ij = n / den.  For
    a = A / da and b = B / db the product is
    (a * b)_k = sum(n * A_i * B_j) / (den * da * db).
    The norm is diagonal, N(a) = sum(m_k * A_k^2) / (den * da^2), since
    e_k * conj(e_k) = -c_kk for k > 0; norm_nums holds the m_k.
    """

    def __init__(self, betas):
        dim = 1 << len(betas)
        consts = {(i, j): _RAT(_basis_constant(betas, i, j))
                  for i in range(dim) for j in range(dim)}
        self.den = math.lcm(*[c.denominator for c in consts.values()])
        self.rows = tuple(
            tuple((i, i ^ k, int(consts[i, i ^ k] * self.den))
                  for i in range(dim))
            for k in range(dim))
        self.norm_nums = tuple(n if i == 0 else -n for i, _, n in self.rows[0])

    def mul(self, field, a, b):
        """Product of two coordinate tuples of Scalars over Q."""
        da, A = _integer_vector(a)
        db, B = _integer_vector(b)
        nums = []
        for row in self.rows:
            s = 0
            for i, j, n in row:
                s += n * A[i] * B[j]
            nums.append(s)
        return _rational_scalars(field, nums, self.den * da * db)

    def _norm_numerator(self, a):
        d, A = _integer_vector(a)
        return d, A, sum(m * x * x for m, x in zip(self.norm_nums, A))

    def norm(self, field, a):
        d, _, num = self._norm_numerator(a)
        return Scalar(field, _RAT(num, self.den * d * d))

    def inverse(self, field, a):
        """conj(a) / N(a), or NotInvertible when N(a) = 0."""
        d, A, num = self._norm_numerator(a)
        if not num:
            raise NotInvertible("norm is zero")
        f = self.den * d
        return _rational_scalars(field, [A[0] * f] + [-x * f for x in A[1:]],
                                 num)


@functools.lru_cache(maxsize=64)
def _rational_kernel(betas):
    return _RationalKernel(betas)


def _norm(field, betas, a):
    return Scalar(field, _pnorm(field, [s.val for s in betas],
                                tuple(c.val for c in a)))


class CDElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _peer(self, other):
        if isinstance(other, CDElement):
            if other.algebra != self.algebra:
                raise AlgebraMismatch("elements of different towers")
            return other
        return self.algebra.from_base(other)

    def __add__(self, other):
        other = self._peer(other)
        return CDElement(self.algebra,
                         tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        return CDElement(self.algebra,
                         tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self._peer(other).__sub__(self)

    def __neg__(self):
        return CDElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Scalar) and other.field == self.algebra.base:
            return self.scale(other)
        other = self._peer(other)
        alg = self.algebra
        if alg._kernel is not None:
            return CDElement(alg, alg._kernel.mul(alg.base, self.coords,
                                                  other.coords))
        return CDElement(alg, _mul(alg.base, alg.betas, self.coords,
                                   other.coords))

    def __rmul__(self, other):
        if isinstance(other, Scalar) and other.field == self.algebra.base:
            return self.scale(other)
        return self._peer(other).__mul__(self)

    def scale(self, s):
        s = self.algebra.base.scalar(s)
        return CDElement(self.algebra, tuple(a * s for a in self.coords))

    def conj(self):
        return CDElement(self.algebra, _conj(self.coords))

    def norm(self):
        alg = self.algebra
        if alg._kernel is not None:
            return alg._kernel.norm(alg.base, self.coords)
        return _norm(alg.base, alg.betas, self.coords)

    def trace(self):
        return self.coords[0] + self.coords[0]

    def inverse(self):
        alg = self.algebra
        if alg._kernel is not None:
            return CDElement(alg, alg._kernel.inverse(alg.base, self.coords))
        n = self.norm()
        if n.is_zero():
            raise NotInvertible("norm is zero")
        ninv = n.inv()
        return CDElement(self.algebra, tuple(a * ninv for a in _conj(self.coords)))

    def is_zero(self):
        return all(a.is_zero() for a in self.coords)

    def __eq__(self, other):
        if not isinstance(other, CDElement):
            try:
                other = self._peer(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def key(self):
        return tuple(c.val for c in self.coords)

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def cd_conj_norm_trace(x):
    """(conjugate, norm, trace); norm/trace land in the base field."""
    return x.conj(), x.norm(), x.trace()


def bilinear(x, y):
    """<x, y> = T(x * conj(y)), the bilinear form of the norm."""
    return (x * y.conj()).trace()


def commutator(x, y):
    return x * y - y * x


class Subspace:
    """Subspace of a tower, basis kept in exact reduced row-echelon form."""

    def __init__(self, algebra, vectors):
        self.algebra = algebra
        rows = [list(v.coords) for v in vectors]
        red, pivots = linalg.rref(rows)
        self.rows = red
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [CDElement(self.algebra, tuple(r)) for r in self.rows]

    def contains(self, x):
        return linalg.in_span((self.rows, self.pivots), list(x.coords))

    def extended(self, vectors):
        return Subspace(self.algebra, self.basis() + list(vectors))

    def is_subalgebra(self):
        one = self.algebra.one()
        if not self.contains(one):
            return False
        bas = self.basis()
        return all(self.contains(a * b) for a in bas for b in bas)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.algebra == self.algebra
                and [[c.val for c in r] for r in other.rows]
                == [[c.val for c in r] for r in self.rows])

    def __repr__(self):
        return "span<%d dim=%d>" % (self.algebra.dim, self.dim)


def orthogonal_complement(algebra, space):
    """Exact kernel of the Gram pairing against the given subspace."""
    if space.dim == 0:
        return Subspace(algebra, algebra.basis())
    rows = []
    for s in space.basis():
        rows.append([bilinear(e, s) for e in algebra.basis()])
    ker = linalg.kernel_basis(rows, algebra.base, n_cols=algebra.dim)
    return Subspace(algebra, [CDElement(algebra, tuple(v)) for v in ker])


def subalgebra_generated(algebra, gens):
    """Smallest subspace containing 1 and gens that is closed under products."""
    space = Subspace(algebra, [algebra.one()] + list(gens))
    while True:
        bas = space.basis()
        extra = [a * b for a in bas for b in bas if not space.contains(a * b)]
        if not extra:
            return space
        space = space.extended(extra)


def center(algebra):
    """Kernel of all basis commutators: {x | [x, A] = 0}."""
    rows = []
    basis = algebra.basis()
    for e in basis:
        for k in range(algebra.dim):
            rows.append([commutator(b, e).coords[k] for b in basis])
    ker = linalg.kernel_basis(rows, algebra.base, n_cols=algebra.dim)
    return Subspace(algebra, [CDElement(algebra, tuple(v)) for v in ker])


class DoublingFrame:
    """Cached exact splitter for A + e*A: x  <->  (h, y) with x = h + e*y.

    The combine map is linear in the 2k coordinates of (h, y) over the
    subalgebra basis, so one matrix inverse at construction makes every
    split of a frame that spans the tower a single matrix-vector product.
    Over Q the inverse and the recombination over the subalgebra basis are
    folded into two projections x -> h and x -> y, kept as integer
    matrices over one denominator, so a split is two integer
    matrix-vector products.  A frame that does not span the tower solves
    a linear system per split and raises NotInSpan off its span.
    """

    def __init__(self, algebra, sub, e, check=True):
        self.algebra = algebra
        self.sub = sub
        self.e = e
        if check:
            if not sub.is_subalgebra():
                raise BadDoublingUnit("not a subalgebra")
            perp = orthogonal_complement(algebra, sub)
            if not perp.contains(e) or sub.contains(e) or e.norm().is_zero():
                raise BadDoublingUnit("doubling unit must sit in the "
                                      "complement with nonzero norm")
        self.sub_basis = sub.basis()
        cols = [list(b.coords) for b in self.sub_basis]
        cols += [list((e * b).coords) for b in self.sub_basis]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(algebra.dim)]
        self._inv = self._mat = self._proj = None
        if len(cols) < algebra.dim:
            self._mat = mat
            return
        inv = linalg.invert(mat)
        if isinstance(algebra.base, Rationals):
            k = len(self.sub_basis)
            self._proj = tuple(
                _IntegerMatrix(_recombined(algebra.base, self.sub_basis, part))
                for part in (inv[:k], inv[k:]))
        else:
            self._inv = inv

    def split(self, x):
        """x -> (h, y) with x = h + e*y, h and y in the subalgebra."""
        if self._proj is not None:
            field = self.algebra.base
            return tuple(CDElement(self.algebra, p.apply(field, x.coords))
                         for p in self._proj)
        vec = list(x.coords)
        if self._inv is not None:
            comps = linalg.mat_vec(self._inv, vec)
        else:
            comps = linalg.solve(self._mat, vec)
            if comps is None:
                raise NotInSpan("element is outside A + e*A")
        k = len(self.sub_basis)
        h = _lin_comb(self.sub_basis, comps[:k])
        y = _lin_comb(self.sub_basis, comps[k:])
        return h, y

    def combine(self, h, y):
        return h + self.e * y


def _recombined(field, basis, rows):
    """The matrix of v -> sum_m (rows[m] . v) * basis[m]."""
    return [[sum((b.coords[i] * r[l] for b, r in zip(basis, rows)),
                 field.zero())
             for l in range(len(rows[0]))]
            for i in range(len(basis[0].coords))]


class _IntegerMatrix:
    """A matrix over Q kept as integer rows over one denominator; each row
    lists (column, numerator) for its nonzero entries only."""

    def __init__(self, rows):
        self.den = math.lcm(*[c.val.denominator for r in rows for c in r])
        self.rows = tuple(
            tuple((l, int(c.val * self.den)) for l, c in enumerate(r)
                  if not c.is_zero())
            for r in rows)

    def apply(self, field, coords):
        """The product with a coordinate tuple of Scalars over Q."""
        d, v = _integer_vector(coords)
        return _rational_scalars(
            field, [sum(n * v[l] for l, n in row) for row in self.rows],
            self.den * d)


def _lin_comb(basis, coeffs):
    acc = basis[0].scale(coeffs[0])
    for b, c in zip(basis[1:], coeffs[1:]):
        acc = acc + b.scale(c)
    return acc


def doubling_coordinates(x, sub, e):
    """Coordinates of x in A + e*A (unique); errors if x is outside."""
    frame = DoublingFrame(x.algebra, sub, e)
    h, y = frame.split(x)
    if not (frame.combine(h, y) - x).is_zero():
        raise NotInSpan("element is outside A + e*A")
    return h, y


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

SUITES = ("moufang", "flexible", "alternative", "inverse",
          "minimum_equation", "norm_multiplicative", "doubling_rules")


def verify_identities(algebra, suite, samples=1000, seed=0, height=9):
    """Sampled identity suite; failures are report lines with a witness."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    rng = random.Random(seed)
    rep = Report("identities.%s" % suite, seed=seed, subject=repr(algebra))
    if not algebra.is_division:
        rep.add("division-status", 0, True, note=algebra.division_status)

    def rand(nonzero=False):
        return algebra.random_element(rng, height, nonzero=nonzero)

    def run(rule, n_args, check, nonzero=False):
        for k in range(samples):
            args = tuple(rand(nonzero) for _ in range(n_args))
            if not check(*args):
                rep.add(rule, k + 1, False,
                        counterexample=[repr(a) for a in args])
                return
        rep.add(rule, samples, True)

    if suite == "moufang":
        run("moufang.left", 3,
            lambda x, y, z: ((x * y) * x) * z == x * (y * (x * z)))
        run("moufang.right", 3,
            lambda x, y, z: z * ((x * y) * x) == ((z * x) * y) * x)
        run("moufang.middle", 3,
            lambda x, y, z: (x * y) * (z * x) == (x * (y * z)) * x)
    elif suite == "flexible":
        run("flexible", 2, lambda x, y: ((x * y) * x - x * (y * x)).is_zero())
    elif suite == "alternative":
        run("alternative.left", 2,
            lambda x, y: ((x * x) * y - x * (x * y)).is_zero())
        run("alternative.right", 2,
            lambda x, y: ((y * x) * x - y * (x * x)).is_zero())
    elif suite == "inverse":
        run("inverse.left", 2,
            lambda x, y: x.inverse() * (x * y) == y, nonzero=True)
        run("inverse.right", 2,
            lambda x, y: (y * x) * x.inverse() == y, nonzero=True)
        run("inverse.antidistributive", 2,
            lambda x, y: (x * y).inverse() == y.inverse() * x.inverse()
            if not (x * y).norm().is_zero() else True,
            nonzero=True)
    elif suite == "minimum_equation":
        run("minimum-equation", 1,
            lambda x: (x * x - x.scale(x.trace())
                       + algebra.one().scale(x.norm())).is_zero())
    elif suite == "norm_multiplicative":
        run("norm.multiplicative", 2,
            lambda x, y: (x * y).norm() == x.norm() * y.norm())
        run("trace.conj-invariant", 1, lambda x: x.conj().trace() == x.trace())
        run("conj.involutive", 1, lambda x: x.conj().conj() == x)
    elif suite == "doubling_rules":
        if algebra.dim < 2:
            rep.add("doubling-rules", 0, True, note="skipped: dim 1 has no stage")
            return rep
        half = algebra.dim // 2
        sub = Subspace(algebra, algebra.basis()[:half])
        e = algebra.unit(half)
        u = -e.norm()

        def rand_lower():
            coords = [random_scalar(algebra.base, rng, height) for _ in range(half)]
            coords += [algebra.base.zero()] * half
            return CDElement(algebra, tuple(coords))

        for k in range(samples):
            x, y = rand_lower(), rand_lower()
            ok = ((e * x) * (e * y) == (y * x.conj()).scale(u)
                  and (e * x) * y == e * (y * x)
                  and x * (e * y) == e * (x.conj() * y))
            if not ok:
                rep.add("doubling.rules", k + 1, False,
                        counterexample=[repr(x), repr(y)])
                break
        else:
            rep.add("doubling.rules", samples, True)
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
