"""Jordan automorphisms of octonion towers: the exceptional maps that fix a
quaternion subalgebra and twist the complementary half, and
decomposition/witness searches.

A JordanMap is a foundation glueing chain (`foundations.GlueingMap`) with
its domain algebra attached: the standard involution, conjugation by an
invertible w (`Conj`) and the other generic atoms are the glueing atoms.
This module adds only the half-twisting atoms `Psi` and `Phi`.  The split
x = h + e*y against a quaternion subalgebra is a cached `DoublingFrame`,
which atoms on the same (subalgebra, e) can share.

Every atom here and the standard involution, conjugation, identity and
linear atoms are additive (`GAtom.additive`), so a chain of them is linear
over the prime field on the stored integers of an element.  Such a
JordanMap runs its atoms one by one (`GlueingMap.apply`, the reference
rule) only on the lifted unit vectors, once, and applies every element of
its tower as one integer matrix over Q or F_p.  The product rule of a
single Psi and the conjugation that gamma_w is checked against apply
through one-atom JordanMaps, on the same path.
"""

from __future__ import annotations

import math
import random
from operator import mul

from .composition import (CDElement, DoublingFrame, NotInSpan, Subspace,
                          bilinear, orthogonal_complement,
                          subalgebra_generated)
from .foundations import GAtom, GlueingMap
from .foundations import GScalarConj as Conj
from .report import Report, reprs


class _Split(GAtom):
    """Shared plumbing for the half-twisting atoms."""

    additive = True

    def __init__(self, algebra, sub, e, w, frame=None):
        if sub.dim != 4:
            raise ValueError("need a 4-dimensional subalgebra")
        # BadDoublingUnit, a ValueError, unless sub + e*sub is a frame;
        # a given `frame` must be DoublingFrame(algebra, sub, e)
        self.frame = frame if frame is not None else DoublingFrame(
            algebra, sub, e)
        if not sub.contains(w) or w.norm().is_zero():
            raise ValueError("w must be invertible inside the subalgebra")
        self.algebra = algebra
        self.sub = sub
        self.e = e
        self.w = w
        self.w_inv = w.inverse()


class Psi(_Split):
    """x + e*y -> x + e * w^-1 y w."""

    def apply(self, v):
        x, y = self.frame.split(v)
        return x + self.e * ((self.w_inv * y) * self.w)

    def inverse(self):
        return Psi(self.algebra, self.sub, self.e, self.w_inv, self.frame)

    def __repr__(self):
        return "psi[w=%r]" % self.w


class Phi(_Split):
    """x + e*y -> w^-1 x w + e * w^-1 y w p, with N(p) = 1."""

    def __init__(self, algebra, sub, e, w, p, frame=None):
        super().__init__(algebra, sub, e, w, frame)
        if not sub.contains(p) or p.norm() != algebra.base.one():
            raise ValueError("p must lie in the subalgebra with norm 1")
        self.p = p

    def apply(self, v):
        x, y = self.frame.split(v)
        return ((self.w_inv * x) * self.w
                + self.e * (((self.w_inv * y) * self.w) * self.p))

    def inverse(self):
        # x' = w^-1 x w and y' = w^-1 y w p give back x = w x' w^-1 and,
        # the subalgebra being associative, y = w y' w^-1 (w p^-1 w^-1)
        return Phi(self.algebra, self.sub, self.e, self.w_inv,
                   (self.w * self.p.inverse()) * self.w_inv, self.frame)

    def __repr__(self):
        return "phi[w=%r,p=%r]" % (self.w, self.p)


class JordanMap(GlueingMap):
    """A chain of atoms on `algebra`, applied right-to-left.

    When every atom is additive, the first apply to an element of
    `algebra` runs the chain by the rule on the n = dim * r lifted unit
    vectors and keeps their images, over one denominator D, as the
    columns of an integer matrix.  Each apply is then that matrix times
    the stored integers of x, over D * x.den.  Any other chain, an element
    of another tower, or a chain defined only on part of the tower (a
    frame that does not span it) takes the rule."""

    def __init__(self, atoms, algebra):
        super().__init__(atoms)
        self.algebra = algebra
        self._matrix = None

    def _with_atoms(self, atoms):
        out = super()._with_atoms(atoms)
        out._matrix = None  # the copy's chain is another map
        return out

    def _build_matrix(self):
        """(rows, D), or False for a chain that keeps the rule."""
        if not all(atom.additive for atom in self.atoms):
            return False
        alg = self.algebra
        n = alg._kernel.n
        try:
            images = [GlueingMap.apply(self, CDElement(
                alg, tuple([int(i == k) for i in range(n)])))
                for k in range(n)]
        except NotInSpan:
            return False
        d = math.lcm(*[y.den for y in images])
        cols = [[a * (d // y.den) for a in y.nums] for y in images]
        return tuple(zip(*cols)), d

    def apply(self, x):
        alg = self.algebra
        if getattr(x, "owner", None) is not alg:
            return GlueingMap.apply(self, x)
        if self._matrix is None:
            self._matrix = self._build_matrix()
        if not self._matrix:
            return GlueingMap.apply(self, x)
        rows, d = self._matrix
        nums = x.nums
        return alg._canonical([sum(map(mul, row, nums)) for row in rows],
                              d * x.den)


def standard_quaternion_frame(algebra):
    """The first-half subalgebra and the top doubling unit."""
    half = algebra.dim // 2
    sub = Subspace(algebra, algebra.basis()[:half])
    return sub, algebra.unit(half)


def jaut_verify(jmap, samples=300, seed=31):
    """Jordan law, norm isometry, and witness searches against being an
    automorphism / an anti-automorphism."""
    algebra = jmap.algebra
    rng = random.Random(seed)
    rep = Report("jordanmap.verify", seed=seed, subject=repr(jmap))

    rep.add("jordan.unit", 1, jmap(algebra.one()) == algebra.one())

    def draw():
        return algebra.random_element(rng, 9)

    def isometry(x):
        img, scal = jmap(x), jmap(algebra.from_base(x.norm()))
        return img.norm() == scal.coords[0] and all(
            c.is_zero() for c in scal.coords[1:])

    rep.first_failure(
        "jordan.palindrome", ((draw(), draw()) for _ in range(samples)),
        lambda x, y: jmap((x * y) * x) == (jmap(x) * jmap(y)) * jmap(x),
        samples, cex=reprs)
    rep.first_failure("norm.isometry", ((draw(),) for _ in range(samples)),
                      isometry, samples, cex=repr)

    auto_w = anti_w = None
    for _ in range(samples):
        s, t = draw(), draw()
        img = jmap(s * t)
        if auto_w is None and img != jmap(s) * jmap(t):
            auto_w = (repr(s), repr(t))
        if anti_w is None and img != jmap(t) * jmap(s):
            anti_w = (repr(s), repr(t))
        if auto_w and anti_w:
            break
    rep.add("witness.not-multiplicative", samples, True,
            counterexample=auto_w,
            note="found" if auto_w else "no witness within budget")
    rep.add("witness.not-anti-multiplicative", samples, True,
            counterexample=anti_w,
            note="found" if anti_w else "no witness within budget")
    rep.auto_witness = auto_w
    rep.anti_witness = anti_w
    return rep


def psi_product_rule_check(psi, samples=300, seed=37):
    """psi(st) = (psi(s) * psi(t) w) w^-1 on sampled pairs."""
    if not isinstance(psi, Psi):
        raise TypeError("a single half-twist atom is required")
    algebra = psi.algebra
    jmap = JordanMap([psi], algebra)
    rng = random.Random(seed)
    rep = Report("psi.product-rule", seed=seed, subject=repr(psi))
    rep.first_failure(
        "psi.product-rule",
        ((algebra.random_element(rng, 9), algebra.random_element(rng, 9))
         for _ in range(samples)),
        lambda s, t: jmap(s * t)
        == (jmap(s) * (jmap(t) * psi.w)) * psi.w_inv,
        samples, cex=reprs)
    return rep


def extend_to_quaternion_subalgebra(algebra, w):
    """A 4-dim subalgebra containing w, grown stage by stage."""
    sub = subalgebra_generated(algebra, [w])
    if sub.dim == 1:
        sub = subalgebra_generated(algebra, [w, algebra.unit(1)])
    if sub.dim == 2:
        # need a separable stage: if the trace form vanishes on it, restart
        # from an element with nonzero trace pairing
        perp = orthogonal_complement(algebra, sub)
        e2 = next(v for v in perp.basis()
                  if not sub.contains(v) and not v.norm().is_zero())
        sub = Subspace(algebra, sub.basis()
                       + [e2 * b for b in sub.basis()])
    if sub.dim != 4 or not sub.is_subalgebra():
        raise ValueError("could not grow a quaternion subalgebra around %r" % w)
    return sub


def gamma_w_decompose(w, samples=200, seed=41):
    """Split conjugation by w into a Phi and a Psi over a quaternion
    subalgebra containing w; verified pointwise on samples."""
    algebra = w.algebra
    if w.norm().is_zero():
        raise ValueError("w must be invertible")
    sub = extend_to_quaternion_subalgebra(algebra, w)
    perp = orthogonal_complement(algebra, sub)
    e = next(v for v in perp.basis() if not v.norm().is_zero())

    wbar_inv_w = (w.conj().inverse()) * w
    p = wbar_inv_w
    psi_arg = (w.inverse() * w.inverse()) * w.conj()
    frame = DoublingFrame(algebra, sub, e)
    phi = Phi(algebra, sub, e, w, p, frame)
    psi = Psi(algebra, sub, e, psi_arg, frame)
    chain = JordanMap([phi, psi], algebra)

    rep = Report("gamma-w.decompose", seed=seed, subject=repr(w))
    rep.add("decompose.norm-of-p", 1, p.norm() == algebra.base.one())
    conj = JordanMap([Conj(w)], algebra)
    rng = random.Random(seed)
    rep.first_failure("decompose.matches-conjugation",
                      ((algebra.random_element(rng, 9),)
                       for _ in range(samples)),
                      lambda x: chain(x) == conj(x), samples, cex=repr)
    return phi, psi, rep


def sigma_s_central_check(jmap, samples=200, seed=43):
    """The standard involution commutes with the chain on samples."""
    algebra = jmap.algebra
    rng = random.Random(seed)
    rep = Report("sigma-s.central", seed=seed, subject=repr(jmap))
    rep.first_failure("sigma-s.commutes",
                      ((algebra.random_element(rng, 9),)
                       for _ in range(samples)),
                      lambda x: jmap(x.conj()) == jmap(x).conj(), samples,
                      cex=repr)
    return rep


def special_pair_check(e1, e2):
    """Orthogonality pattern for a special pair, split by characteristic,
    plus its structural consequences when it holds."""
    algebra = e1.algebra
    one = algebra.one()
    rep = Report("special-pair.check", subject="(%r, %r)" % (e1, e2))
    lam, mu = e1.norm(), e2.norm()
    if lam.is_zero() or mu.is_zero():
        raise ValueError("both norms must be nonzero")
    b11 = bilinear(e1, one)
    b21 = bilinear(e2, one)
    b12 = bilinear(e1, e2)
    if algebra.characteristic() != 2:
        special = b11.is_zero() and b21.is_zero() and b12.is_zero()
    else:
        special = (b11 == algebra.base.one()) and b21.is_zero() and b12.is_zero()
    rep.add("special.pattern", 3, special,
            note="lambda=%r mu=%r" % (lam, mu))
    rep.is_special = special
    rep.lam, rep.mu = lam, mu
    if special:
        rep.add("special.e1-not-fixed", 1, e1.conj() != e1)
        span_e = Subspace(algebra, [one, e1])
        perp = orthogonal_complement(algebra, span_e)
        rep.add("special.e2-perp-outside", 1,
                perp.contains(e2) and not span_e.contains(e2))
    return rep
