"""Involutory sets and indifferent sets: axioms, properness, quadratic-type
classification, and opposites of indifferent sets.

K0 and L0 are `composition.Subspace` spans inside the carrier's handle;
the field K = <K0> and properness come from `composition.closure`, and
two spans are compared with `==`."""

from __future__ import annotations

import random

from .composition import Subspace, closure
from .composition import center as cd_center
from .handles import CDHandle, FieldHandle, as_handle
from .report import Report, reprs
from .scalars import QuadExt


SIGMA_IDENTITY = "identity"
SIGMA_STANDARD = "standard_involution"
SIGMA_GALOIS = "galois"

QUAD_TYPES = ("i", "ii", "iii", "iv", "v", "none")


class InvolutorySet:
    """(K, K0, sigma) with K a field or doubling tower.

    K0 is an additive span given by generators over the handle's
    coordinate field; sigma is one of the named involutions.
    """

    def __init__(self, carrier, sigma, k0_gens=None, name=None):
        self.handle = as_handle(carrier)
        if sigma not in (SIGMA_IDENTITY, SIGMA_STANDARD, SIGMA_GALOIS):
            raise ValueError("unknown involution tag %r" % sigma)
        if sigma == SIGMA_GALOIS and not (
                isinstance(self.handle, FieldHandle)
                and isinstance(self.handle.field, QuadExt)):
            raise ValueError("galois involution needs a quadratic extension")
        self.sigma_tag = sigma
        gens = [self.handle.one()] if k0_gens is None else list(k0_gens)
        if not any((g - self.handle.one()).is_zero() for g in gens):
            gens = [self.handle.one()] + gens
        self.k0 = Subspace(self.handle, gens)
        self.name = name

    def sigma(self, x):
        if self.sigma_tag == SIGMA_IDENTITY:
            return x
        return x.conj()

    def sigma_is_identity(self, rng=None, samples=16):
        if self.sigma_tag == SIGMA_IDENTITY:
            return True
        rng = rng or random.Random(1)
        return all(self.sigma(x) == x
                   for x in (self.handle.random(rng, 9) for _ in range(samples)))

    def k0_contains(self, x):
        return self.k0.contains(x)

    def __repr__(self):
        return self.name or "(%r, K0 dim %d, %s)" % (
            self.handle, self.k0.dim, self.sigma_tag)


def inv_check(inv_set, samples=64, seed=3):
    """Axioms, properness and quadratic-type tag for an involutory set."""
    h = inv_set.handle
    rng = random.Random(seed)
    rep = Report("involutory.check", seed=seed, subject=repr(inv_set))

    rep.add("axiom.one-in-k0", 1, inv_set.k0_contains(h.one()))

    rep.first_failure(
        "axiom.traces-in-k0", ((h.random(rng, 9),) for _ in range(samples)),
        lambda a: inv_set.k0_contains(a + inv_set.sigma(a)), samples,
        cex=repr)

    fixed = all(inv_set.sigma(b) == b for b in inv_set.k0.basis())
    rep.add("axiom.k0-fixed-by-sigma", inv_set.k0.dim, fixed)

    def sandwiches():
        for _ in range(samples):
            a = h.random(rng, 9)
            for g in inv_set.k0.basis():
                yield a, g

    rep.first_failure(
        "axiom.sandwich", sandwiches(),
        lambda a, g: inv_set.k0_contains(h.mul(h.mul(inv_set.sigma(a), g), a)),
        samples, cex=reprs)

    sigma_id = inv_set.sigma_is_identity(rng)
    proper = not sigma_id and closure(inv_set.k0)[1] == "full"
    rep.add("proper", 1, True, note="proper" if proper else "non-proper")
    rep.quad_type = _quad_type(inv_set, sigma_id, rng, samples)
    rep.add("quad-type", 1, True, note=rep.quad_type)
    rep.proper = proper
    return rep


def _quad_type(inv_set, sigma_id, rng, samples):
    h = inv_set.handle
    if isinstance(h, CDHandle):
        alg = h.algebra
        if inv_set.sigma_tag != SIGMA_STANDARD:
            return "none"
        # K0 must be the center (the scalar line for dim >= 4 towers)
        if inv_set.k0 != cd_center(alg):
            return "none"
        if alg.dim == 8:
            return "v"
        if alg.dim == 4:
            return "iv"
        return "none"
    # field carriers
    field = h.field
    if sigma_id:
        if inv_set.k0.is_full():
            return "ii"
        if field.characteristic() == 2:
            # squares of a spanning sample must land in K0
            for _ in range(samples):
                x = h.random(rng, 9)
                if not inv_set.k0_contains(h.mul(x, x)):
                    return "none"
            return "i"
        return "none"
    # galois case: K0 must be the fixed field (the base line)
    return "iii" if inv_set.k0 == Subspace(h, [h.one()]) else "none"


class IndifferentSet:
    """(K, K0, L0) in characteristic 2.

    K0 and L0 are additive spans given by generators; the field K of the
    triple is the closure of K0 under products, a span inside the ambient
    field.  Opposites stay inside the same ambient.
    """

    def __init__(self, ambient, k0_gens, l0_gens, name=None):
        self.handle = as_handle(ambient)
        if self.handle.characteristic() != 2:
            raise ValueError("indifferent sets live in characteristic 2")
        self.k0 = Subspace(self.handle, list(k0_gens))
        self.l0 = Subspace(self.handle, list(l0_gens))
        if not (self.k0.contains(self.handle.one())
                and self.l0.contains(self.handle.one())):
            raise ValueError("both spans must contain 1")
        self.k_field = closure(self.k0)[0]
        self.name = name

    def __repr__(self):
        return self.name or "(K dim %d, K0 dim %d, L0 dim %d over %r)" % (
            self.k_field.dim, self.k0.dim, self.l0.dim, self.handle)


def ind_check(ind):
    """Closure axioms and properness for an indifferent set."""
    h = ind.handle
    rep = Report("indifferent.check", subject=repr(ind))

    k0, l0 = ind.k0.basis(), ind.l0.basis()
    rep.first_failure("axiom.k0sq-l0", ((k, l) for k in k0 for l in l0),
                      lambda k, l: ind.l0.contains(h.mul(h.mul(k, k), l)),
                      ind.k0.dim * ind.l0.dim, cex=reprs)
    rep.first_failure("axiom.l0k0-k0", ((l, k) for l in l0 for k in k0),
                      lambda l, k: ind.k0.contains(h.mul(l, k)),
                      ind.k0.dim * ind.l0.dim, cex=reprs)

    # <K0> = K holds by construction; record the closure dimension
    rep.add("axiom.k0-generates", 1, True,
            note="K = <K0> has dim %d" % ind.k_field.dim)

    k0_proper = ind.k0.dim != ind.k_field.dim
    l0_proper = closure(ind.l0)[0].dim != ind.l0.dim
    rep.proper = k0_proper and l0_proper
    rep.add("proper", 1, True, note="proper" if rep.proper else "non-proper")

    # Frobenius injectivity on the represented fragment
    seen = {}
    inj = True
    for g in ind.k0.basis() + ind.l0.basis():
        key = h.mul(g, g).key()
        if key in seen and seen[key] != g.key():
            inj = False
        seen[key] = g.key()
    rep.add("frobenius.injective-on-fragment", len(seen), inj)
    return rep


def ind_opposite(ind):
    """The opposite indifferent set (<L0>, L0, K0^2), built symbolically
    inside the same ambient field."""
    h = ind.handle
    k0_sq = [h.mul(g, g) for g in ind.k0.basis()]
    return IndifferentSet(h, ind.l0.basis(), k0_sq, name="opp(%r)" % ind)


def double_opposite_matches_squares(ind):
    """Generators of the double opposite span the squares of the originals."""
    h = ind.handle
    opp2 = ind_opposite(ind_opposite(ind))
    return (opp2.k0 == Subspace(h, [h.mul(g, g) for g in ind.k0.basis()])
            and opp2.l0 == Subspace(h, [h.mul(g, g) for g in ind.l0.basis()]))
