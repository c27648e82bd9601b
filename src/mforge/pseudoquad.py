"""Pseudo-quadratic spaces, their group T, Hua maps, Jordan-isomorphism
checking, the complete census over the 4-element field, and the dimension
switch between quaternion 1-dim and quadratic-extension 2-dim spaces.

`t_jordan_check` runs the one Jordan check of `moufang` on the Moufang
set of T, so it sweeps T exactly when `report.swept` admits it (T is
finite with at most `report.EXHAUSTIVE_SIZE` points), and samples it
otherwise.

q is stored as chosen representatives on a basis; all statements involving
q are congruences against the K0 span.

The constructor decides (P1) and (P2) exactly, from a basis of K over its
coordinate field rather than from vector pairs.  Given the Gram checks
f(b_j, b_i) = -sigma(f(b_i, b_j)) and f(b_i, b_i) = q_i - sigma(q_i), the
(P1) residual q(a+b) - q(a) - q(b) - f(a,b) is the sum of y + sigma(y)
over y = sigma(b_i) q_i a_i and y = sigma(b_i) f(b_i, b_j) a_j for i < j,
and q(a t) = sigma(t) q(a) t holds exactly, as soon as sigma is an
involutory anti-automorphism of an associative K whose traces y + sigma(y)
lie in K0.  Those premises are checked on the basis (`_check_involution`),
and so are the two other axioms of an involutory set, K0 in Fix(sigma)
and sigma(x) K0 x in K0, so a triple that is no involutory set is refused.
(P3), anisotropy, is checked on one vector per line a*K of a finite
division carrier: every nonzero vector is a multiple a*t of the one
whose first nonzero coordinate is the first nonzero element, and
q(a t) = sigma(t) q(a) t carries q(a) in K0 along the line.  Over a
finite carrier with zero divisors, a vector whose first nonzero
coordinate is a zero divisor is a multiple of no such a, so there the
scan visits every vector.  An infinite carrier is checked on seeded
samples.
"""

from __future__ import annotations

import itertools
import random

from . import linalg
from .composition import CDAlgebra, Subspace, orthogonal_complement
from .quadspace import QuadraticSpace, ZeroAnchor, line_vectors
from .report import Report
from .scalars import F4, QuadExt, Scalar
from .tables import FiniteGroupTable
from .unitary import SIGMA_GALOIS, SIGMA_STANDARD, InvolutorySet


# the seed and count of the sampled (P3) check over an infinite carrier
ANISOTROPY_SEED, ANISOTROPY_SAMPLES = 9, 64


def _is_division(carrier):
    """Whether every nonzero element of a finite carrier is invertible: a
    field, a tower certified division, or the field on a quadratic space
    whose anisotropy was decided rather than attested."""
    if isinstance(carrier, CDAlgebra):
        return carrier.is_division
    if isinstance(carrier, QuadraticSpace):
        return carrier.anisotropy != "attested"
    return True


class SpaceMismatch(ValueError):
    pass


class BadOrthogonalUnit(ValueError):
    pass


class BasisNotOrthogonal(ValueError):
    pass


class PseudoQuadraticSpace:
    """Right pseudo-quadratic space over an involutory set.

    q_rep[i] is the chosen representative of q(b_i); f_gram[i][j] = f(b_i,
    b_j).  The constructor validates the hermitian symmetry, the diagonal
    law f(a,a) = q(a) - q(a)^sigma, (P1) and (P2) (decided on a basis of
    K, see the module docstring), the involutory-set axioms K0 in
    Fix(sigma) and sigma(x) K0 x in K0, and anisotropy (on one vector per
    line when the carrier is a finite division ring, on every vector of
    a finite split tower, sampled otherwise) and refuses on failure.
    """

    def __init__(self, inv_set, q_rep, f_gram, name=None):
        self.inv = inv_set
        self.h = inv_set.handle
        self.q_rep = list(q_rep)
        self.f_gram = [list(row) for row in f_gram]
        self.dim = len(self.q_rep)
        self.name = name
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.f_gram[j][i]
                rhs = -self.inv.sigma(self.f_gram[i][j])
                if lhs != rhs:
                    raise ValueError("f is not skew-hermitian at (%d,%d)" % (i, j))
        for i in range(self.dim):
            d = self.q_rep[i] - self.inv.sigma(self.q_rep[i])
            if self.f_gram[i][i] != d:
                raise ValueError("f(b,b) != q(b) - q(b)^sigma at %d" % i)
        self._validate(ANISOTROPY_SAMPLES, ANISOTROPY_SEED)

    # vectors are tuples of K elements (right coordinates)
    def vector(self, xs):
        xs = tuple(xs)
        if len(xs) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        return xs

    def zero_vector(self):
        return tuple(self.h.zero() for _ in range(self.dim))

    def vec_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def vec_neg(self, a):
        return tuple(-x for x in a)

    def vec_scale(self, a, t):
        # right scalar action
        return tuple(self.h.mul(x, t) for x in a)

    def vec_is_zero(self, a):
        return all(x.is_zero() for x in a)

    def f(self, a, b):
        h = self.h
        acc = h.zero()
        for i in range(self.dim):
            if a[i].is_zero():
                continue
            for j in range(self.dim):
                if b[j].is_zero():
                    continue
                acc = acc + h.mul(h.mul(self.inv.sigma(a[i]),
                                        self.f_gram[i][j]), b[j])
        return acc

    def q(self, a):
        """The chosen representative of q(a) mod K0."""
        h = self.h
        acc = h.zero()
        for i in range(self.dim):
            if a[i].is_zero():
                continue
            acc = acc + h.mul(h.mul(self.inv.sigma(a[i]), self.q_rep[i]),
                              a[i])
            for j in range(i + 1, self.dim):
                if a[j].is_zero():
                    continue
                acc = acc + h.mul(h.mul(self.inv.sigma(a[i]),
                                        self.f_gram[i][j]), a[j])
        return acc

    def congruent(self, s, t):
        """s = t mod K0."""
        return self.inv.k0_contains(s - t)

    def _validate(self, samples, seed):
        self._check_involution()
        if self.h.coord_field.is_finite():
            vecs = (self._line_vectors() if _is_division(self.h.carrier)
                    else self._all_vectors())
        else:
            rng = random.Random(seed)
            vecs = [self.random_vector(rng) for _ in range(samples)]
        for a in vecs:
            in_k0 = self.inv.k0_contains(self.q(a))
            if in_k0 != self.vec_is_zero(a):
                raise ValueError("(P3) anisotropy fails at %s" % (a,))

    def _check_involution(self):
        """Decide the premises of (P1) and (P2), axioms of an involutory set
        (Tits-Weiss (11.1)), on the basis e_1..e_m of K over the coordinate
        field: sigma(sigma(x)) = x, sigma(x*y) = sigma(y)*sigma(x),
        (x*y)*z = x*(y*z) and x + sigma(x) in K0.  Each law is linear in
        every argument over that field, since its scalars are central and
        each named involution is linear over it, so the basis decides the
        law on all of K.  A failure raises a ValueError that starts with
        "(P1) fails" and names the law.

        Two more axioms of the set follow, on the basis k of K0: K0 lies
        in Fix(sigma), and the sandwich sigma(x)*k*x lies in K0.  The
        sandwich is quadratic in x: it is the sum of the x_i^2
        sigma(e_i)*k*e_i and of x_i x_j (y + sigma(y)) for i < j, with
        y = sigma(e_i)*k*e_j and sigma(y) = sigma(e_j)*k*e_i as k is fixed.
        Those traces lie in K0 by the laws above, so the e_i decide it.
        Their failures start with "K0 in Fix(sigma) fails" and "sandwich
        fails"."""
        h, sigma = self.h, self.inv.sigma
        basis = h.basis()
        sig = [sigma(e) for e in basis]

        def fail(law, *xs, axiom="(P1)"):
            raise ValueError("%s fails: %s at (%s)"
                             % (axiom, law, ", ".join(map(repr, xs))))

        for e, s in zip(basis, sig):
            if sigma(s) != e:
                fail("sigma(sigma(x)) != x", e)
        prod = [[h.mul(x, y) for y in basis] for x in basis]
        idx = range(len(basis))
        for i, j in itertools.product(idx, repeat=2):
            if sigma(prod[i][j]) != h.mul(sig[j], sig[i]):
                fail("sigma(x*y) != sigma(y)*sigma(x)", basis[i], basis[j])
        for i, j, k in itertools.product(idx, repeat=3):
            if h.mul(prod[i][j], basis[k]) != h.mul(basis[i], prod[j][k]):
                fail("(x*y)*z != x*(y*z)", basis[i], basis[j], basis[k])
        for e, s in zip(basis, sig):
            if not self.inv.k0_contains(e + s):
                fail("x + sigma(x) is not in K0", e)
        for k in self.inv.k0.basis():
            if sigma(k) != k:
                fail("sigma(k) != k", k, axiom="K0 in Fix(sigma)")
            for e, s in zip(basis, sig):
                if not self.inv.k0_contains(h.mul(h.mul(s, k), e)):
                    fail("sigma(x)*k*x is not in K0", e, k, axiom="sandwich")

    def _all_vectors(self):
        return itertools.product(self.h.elements(), repeat=self.dim)

    def _line_vectors(self):
        """The first vector of each line a*K, in the order `_all_vectors`
        meets them; the element list starts with zero."""
        elems = self.h.elements()
        return line_vectors(elems[0], elems[1], elems, self.dim)

    def random_vector(self, rng, height=9):
        return tuple(self.h.random(rng, height) for _ in range(self.dim))

    # -- the group T -------------------------------------------------------
    def point(self, a, t):
        a, t = self.vector(a), t
        if not self.congruent(self.q(a), t):
            raise ValueError("q(a) - t is not in K0")
        return TPoint(self, a, t)

    def identity(self):
        return TPoint(self, self.zero_vector(), self.h.zero())

    def unit(self):
        return TPoint(self, self.zero_vector(), self.h.one())

    def enumerate_t(self):
        """All points of T (finite carrier, K0 enumerated as a span)."""
        k0_elems = self.inv.k0.elements()
        for a in self._all_vectors():
            qa = self.q(a)
            for k in k0_elems:
                yield TPoint(self, a, qa - k)

    def random_point(self, rng, height=9):
        a = self.random_vector(rng, height)
        shift = self.inv.k0.sample(rng, height)
        return TPoint(self, a, self.q(a) + shift)

    def __repr__(self):
        return self.name or "PQS(dim %d over %r)" % (self.dim, self.h)


class TPoint:
    __slots__ = ("space", "a", "t")

    def __init__(self, space, a, t):
        self.space = space
        self.a = a
        self.t = t

    def __mul__(self, other):
        if other.space is not self.space:
            raise SpaceMismatch("points of different spaces")
        sp = self.space
        return TPoint(sp, sp.vec_add(self.a, other.a),
                      self.t + other.t + sp.f(other.a, self.a))

    def inverse(self):
        sp = self.space
        return TPoint(sp, sp.vec_neg(self.a),
                      -sp.inv.sigma(self.t))

    def is_identity(self):
        return self.space.vec_is_zero(self.a) and self.t.is_zero()

    def is_central(self):
        return self.space.vec_is_zero(self.a)

    def __eq__(self, other):
        return (isinstance(other, TPoint) and other.space is self.space
                and other.a == self.a and other.t == self.t)

    def __hash__(self):
        return hash((self.a, self.t))

    def __repr__(self):
        return "(%s; %r)" % (", ".join(map(repr, self.a)), self.t)


def t_mul(x, y):
    return x * y


def t_inv(x):
    return x.inverse()


def t_hua(anchor, x):
    """Hua map of the anchor applied to x: (b t^s - a t^-1 f(a,b) t^s, t v t^s)."""
    if anchor.is_identity():
        raise ZeroAnchor("anchor must be nonzero")
    sp = anchor.space
    h = sp.h
    a, t = anchor.a, anchor.t
    b, v = x.a, x.t
    ts = sp.inv.sigma(t)
    tinv = h.inv(t)
    first = sp.vec_scale(b, ts)
    corr = sp.vec_scale(a, h.mul(h.mul(tinv, sp.f(a, b)), ts))
    first = sp.vec_add(first, sp.vec_neg(corr))
    second = h.mul(h.mul(t, v), ts)
    return TPoint(sp, first, second)


def t_group_table(space):
    """T as a FiniteGroupTable (finite carriers only)."""
    elems = list(space.enumerate_t())
    return FiniteGroupTable.from_ops(
        elems, lambda x, y: x * y, space.identity())


def t_jordan_check(gamma, src, dst, samples=200, seed=17):
    """Group iso + unit preservation + Hua preservation for gamma: T -> T~,
    a callable on TPoints.  An exhaustive sweep also checks that gamma is
    bijective."""
    from .moufang import MoufangSet, _jordan_check
    m1, m2 = (MoufangSet(MoufangSet.PSEUDOQUADRATIC, sp, name=repr(sp))
              for sp in (src, dst))
    return _jordan_check("tpoints.jordan", gamma, m1, m2, samples, seed)


# -- canonical instances ------------------------------------------------------

def xi_f4():
    """The pseudo-quadratic space over the 4-element field: K0 = F2,
    galois involution, dim 1, q(b) = w, f(b,b) = 1."""
    inv = InvolutorySet(F4, SIGMA_GALOIS, name="(F4,F2,gal)")
    w = F4.gen()
    return PseudoQuadraticSpace(inv, [w], [[F4.one()]], name="Xi_F4")


def xi_hamilton():
    """The 1-dim space over the rational quaternions: K0 = Q, sigma_s,
    q(b) = i, f(b,b) = 2i."""
    from .composition import quaternions_q
    H = quaternions_q()
    inv = InvolutorySet(H, SIGMA_STANDARD, name="(H,Q,sigma_s)")
    i = H.unit(1)
    return PseudoQuadraticSpace(inv, [i], [[i + i]], name="Xi_H")


# -- census over the 4-element field ------------------------------------------

def quaternion_group_table():
    """The 8-element quaternion unit group, built from the rational tower."""
    from .composition import quaternions_q
    H = quaternions_q()
    units = [H.one(), -H.one()]
    for k in (1, 2, 3):
        units += [H.unit(k), -H.unit(k)]
    return FiniteGroupTable.from_ops(units, lambda x, y: x * y, H.one())


def f4_census():
    """Order, explicit quaternion-group isomorphism, Hua triviality and the
    full automorphism census of T over the 4-element field."""
    sp = xi_f4()
    rep = Report("f4-census", subject=repr(sp))
    tbl = t_group_table(sp)
    rep.add("census.order", tbl.n, tbl.n == 8, note="|T| = %d" % tbl.n)

    axioms = tbl.check_axioms()
    rep.extend(axioms)

    iso = tbl.isomorphism_to(quaternion_group_table())
    rep.add("census.quaternion-group-iso", 1, iso is not None,
            note=None if iso is None else "index map " + str(list(map(int, iso))))

    # every Hua map is the identity
    pts = list(sp.enumerate_t())
    hua_trivial = all(t_hua(x, y) == y for x in pts if not x.is_identity()
                      for y in pts)
    rep.add("census.hua-all-identity", len(pts) ** 2, hua_trivial)

    autos = tbl.automorphisms()
    rep.add("census.automorphism-count", len(autos), len(autos) == 24,
            note="|Aut| = %d" % len(autos))

    unit_idx = next(i for i, p in enumerate(tbl.elements)
                    if p == sp.unit())
    fixes_unit = all(int(a[unit_idx]) == unit_idx for a in autos)
    rep.add("census.autos-fix-unit", len(autos), fixes_unit)

    # with trivial Hua maps, unit-fixing automorphisms are Jordan
    jordan = fixes_unit and hua_trivial
    rep.add("census.autos-are-jordan", len(autos), jordan)

    inner = []
    seen = set()
    for g in range(tbl.n):
        perm = tuple(int(v) for v in tbl.conjugation(g))
        if perm not in seen:
            seen.add(perm)
            inner.append(perm)
    rep.add("census.inner-count", len(inner), len(inner) == 4,
            note="|Inn| = %d" % len(inner))

    # the three sigma-twist maps are exactly the nontrivial inner autos
    twists = _sigma_twist_maps(sp, tbl)
    nontrivial_inner = {p for p in inner if p != tuple(range(tbl.n))}
    rep.add("census.twists-are-inner", len(twists),
            set(twists) == nontrivial_inner)

    # outer quotient: cosets of Inn inside Aut, should be S3
    cosets = _outer_cosets(tbl, autos, inner)
    rep.add("census.outer-count", len(cosets), len(cosets) == 6,
            note="|Aut/Inn| = %d" % len(cosets))
    rep.add("census.outer-is-s3", len(cosets), _is_s3(cosets))
    return rep


def _sigma_twist_maps(sp, tbl):
    """For each nonzero vector a0, the map fixing the fiber over a0 and
    conjugating t over the other nonzero vectors; returned as index
    permutations."""
    nonzero = [a for a in sp._all_vectors() if not sp.vec_is_zero(a)]
    index = {p: i for i, p in enumerate(tbl.elements)}
    perms = []
    for a0 in nonzero:
        perm = []
        for p in tbl.elements:
            if sp.vec_is_zero(p.a) or p.a == a0:
                perm.append(index[p])
            else:
                perm.append(index[TPoint(sp, p.a, sp.inv.sigma(p.t))])
        perms.append(tuple(perm))
    return perms


def _outer_cosets(tbl, autos, inner):
    inner_set = {tuple(p) for p in inner}
    cosets = []
    seen = set()
    for a in autos:
        a = tuple(int(v) for v in a)
        if a in seen:
            continue
        coset = set()
        for i in inner_set:
            comp = tuple(a[i[x]] for x in range(tbl.n))
            coset.add(comp)
        seen |= coset
        cosets.append(frozenset(coset))
    return cosets


def _is_s3(cosets):
    if len(cosets) != 6:
        return False
    idx = {c: k for k, c in enumerate(cosets)}

    def compose(p, q):
        return tuple(p[x] for x in q)

    reps = [next(iter(c)) for c in cosets]
    table = [[idx[next(c for c in cosets if compose(a, b) in c)]
              for b in reps] for a in reps]
    # non-abelian of order 6 is S3
    return any(table[i][j] != table[j][i]
               for i in range(6) for j in range(6))


# -- dimension switches -------------------------------------------------------

def _subfield_maps(alg, ext, gen, e):
    """embed: ext -> alg, u + v*w -> u + v*gen, for gen with the minimal
    polynomial of w; project, its inverse; and split, x = s + e*y -> (s, y)
    over ext, for e orthogonal to 1 and gen.  Off their images project and
    split raise NotInSpan."""
    one = alg.one()
    line, whole = (linalg.Projector(alg.base, alg._expanded(frame))
                   for frame in ([one, gen], [one, gen, e, e * gen]))

    def embed(s):
        u, v = s.coords
        return one.scale(u) + gen.scale(v)

    def pairs(proj, x):
        return [Scalar(ext, c) for c in
                ext.lower(*proj.coefficients_lifted(x.nums, x.den))]

    return embed, lambda y: pairs(line, y)[0], lambda x: pairs(whole, x)


def _switch_point(inv, q_tower, split, q_a, x, t):
    """The image of the point (b1 * x, t) over a quaternion tower under a
    dimension switch: ((s, y^s), N(x) q~(a) + u) with x = s + e*y split
    over the subfield and u = t - x^s q(a) x, which must lie in K0."""
    hd = inv.handle
    u = t - hd.mul(hd.mul(x.conj(), q_tower), x)
    if not inv.k0_contains(u):
        raise ValueError("point does not lie over the anchor line")
    s, y = split(x)
    ext = q_a.field  # u and N(x) are base scalars
    return ((s, y.conj()),
            ext.scalar(x.norm().val) * q_a + ext.scalar(u.coords[0].val))


def dim_switch_up(space, a_coeff=None, e=None):
    """1-dim space over a quaternion tower -> 2-dim space over the
    quadratic subfield generated by q(a), plus the point map between the
    two groups T.

    Returns (new_space, gamma) where gamma maps T(space) -> T(new).
    """
    if space.dim != 1:
        raise ValueError("dimension switch starts from a 1-dim space")
    h, alg = space.h, space.h.carrier
    if not isinstance(alg, CDAlgebra) or alg.dim != 4:
        raise ValueError("carrier must be a quaternion tower (type iv)")
    a = alg.one() if a_coeff is None else a_coeff
    qa = h.mul(h.mul(a.conj(), space.q_rep[0]), a)  # q(b1*a) representative
    # the subfield generated by 1 and q(a), as an abstract extension
    ext = QuadExt(alg.base, qa.trace(), qa.norm(), gen_name="u")
    perp = orthogonal_complement(alg, Subspace(alg, [alg.one(), qa]))
    if e is None:
        e = next(v for v in perp.basis() if not v.norm().is_zero())
    elif not perp.contains(e) or e.norm().is_zero():
        raise BadOrthogonalUnit("e must be orthogonal to the subfield "
                                "with nonzero norm")
    _, project, split = _subfield_maps(alg, ext, qa, e)
    ne = e.norm()  # N(e) in the base field

    inv_new = InvolutorySet(ext, SIGMA_GALOIS,
                            name="(%r, %r, gal)" % (ext, alg.base))
    q_a = project(qa)                     # q~(a) = q(a) as subfield value
    q_b = q_a * ext.scalar(ne.val)
    faa = q_a - q_a.conj()
    fbb = ext.scalar(ne.val) * faa
    zero = ext.zero()
    new = PseudoQuadraticSpace(
        inv_new, [q_a, q_b],
        [[faa, zero], [zero, fbb]],
        name="up(%r)" % space)

    def gamma(p):
        # p = (b1 * x, x^s q(a) x + u) relative to the anchor a
        x = h.mul(h.inv(a), p.a[0]) if a != alg.one() else p.a[0]
        return new.point(*_switch_point(space.inv, qa, split, q_a, x, p.t))

    return new, gamma


def dim_switch_down(space, basis_idx=(0, 1)):
    """2-dim space over a quadratic extension (type iii) -> 1-dim space over
    the quaternion tower (E/F, beta) with beta = -f(b,b) f(a,a)^-1.

    Returns (new_space, gamma) with gamma: T(new) -> T(space).
    """
    if space.dim != 2:
        raise ValueError("dimension switch-down starts from a 2-dim space")
    h, ext = space.h, space.h.carrier
    if not isinstance(ext, QuadExt):
        raise ValueError("carrier must be a separable quadratic extension")
    i0, i1 = basis_idx
    if not space.f_gram[i0][i1].is_zero():
        raise BasisNotOrthogonal("need f(a, b) = 0")
    base = ext.base
    faa = space.f_gram[i0][i0]
    fbb = space.f_gram[i1][i1]
    beta = -h.mul(fbb, h.inv(faa))
    if beta.conj() != beta:
        raise ValueError("beta is not fixed by the involution")
    beta_base = beta.coords[0]

    # tower presentation of E: complete the square so the first stage is
    # generated by a trace-zero unit
    t0, n0 = Scalar(base, ext.t0), Scalar(base, ext.n0)
    two = base.scalar(2)
    if base.characteristic() == 2:
        raise ValueError("switch-down tower form needs characteristic != 2")
    half = two.inv()
    beta1 = t0 * t0 * half * half - n0
    alg = CDAlgebra(base, [beta1, beta_base],
                    name="(%r/%r, %s)" % (ext, base, beta_base))

    # w  ->  t0/2 + e1, doubled by e2
    e_unit = alg.unit(2)
    embed, _, split = _subfield_maps(
        alg, ext, alg.from_base(t0 * half) + alg.unit(1), e_unit)

    inv_new = InvolutorySet(alg, SIGMA_STANDARD)
    q_new = embed(space.q_rep[i0])
    f_new = q_new - q_new.conj()
    new = PseudoQuadraticSpace(inv_new, [q_new], [[f_new]],
                               name="down(%r)" % space)

    ne = e_unit.norm()
    # q(b) = N(e) q~(a) mod F must hold against the original space
    qb = space.q_rep[i1]
    if not space.inv.k0_contains(
            qb - h.mul(h.scalar_embed(ne), space.q_rep[i0])):
        raise ValueError("q(b) is not congruent to N(e) q(a)")

    def gamma(p):
        # p = (b1 * x, x^s q~(a) x + u) in the 1-dim space over the tower
        (s, t), second = _switch_point(new.inv, q_new, split,
                                       space.q_rep[i0], p.a[0], p.t)
        vec = {i0: s, i1: t}
        return space.point((vec[0], vec[1]), second)

    return new, gamma
