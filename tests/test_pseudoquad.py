import random
import re

import numpy as np
import pytest

from mforge.composition import octonions_q, quaternions_q
from mforge.pseudoquad import (PseudoQuadraticSpace, TPoint, dim_switch_down,
                               dim_switch_up, f4_census,
                               quaternion_group_table, t_group_table, t_hua,
                               t_inv, t_jordan_check, t_mul, xi_f4,
                               xi_hamilton)
from mforge.scalars import F4, QQ, PrimeField, QuadExt
from mforge.unitary import (SIGMA_GALOIS, SIGMA_IDENTITY, SIGMA_STANDARD,
                            InvolutorySet)


@pytest.fixture(scope="module")
def xf4():
    return xi_f4()


@pytest.fixture(scope="module")
def xh():
    return xi_hamilton()


def test_f4_t_has_eight_points(xf4):
    assert len(list(xf4.enumerate_t())) == 8


def test_group_law_and_inverse(xf4):
    pts = list(xf4.enumerate_t())
    for p in pts:
        assert t_mul(p, t_inv(p)).is_identity()
        assert t_mul(t_inv(p), p).is_identity()
    # central elements multiply by adding the scalar part
    zeros = [p for p in pts if p.is_central()]
    for p in zeros:
        for q in zeros:
            assert t_mul(p, q).a == p.a


def test_membership_shift(xf4):
    # (a, t + k) stays in T exactly for k in K0
    p = next(p for p in xf4.enumerate_t() if not p.is_central())
    for k in F4.elements():
        ok = True
        try:
            xf4.point(p.a, p.t + k)
        except ValueError:
            ok = False
        assert ok == xf4.inv.k0_contains(k)


def test_square_of_noncentral_is_unit(xf4):
    for p in xf4.enumerate_t():
        if not p.is_central():
            sq = t_mul(p, p)
            assert sq.is_central() and sq.t == F4.one()


def test_diagonal_law(xf4):
    for p in xf4.enumerate_t():
        faa = xf4.f(p.a, p.a)
        assert faa == p.t - xf4.inv.sigma(p.t)


def test_central_products(xf4):
    pts = list(xf4.enumerate_t())
    for p in pts:
        for q in pts:
            central = t_mul(p, q).is_central()
            assert central == xf4.vec_is_zero(xf4.vec_add(p.a, q.a))


def test_hua_trivial_on_f4(xf4):
    pts = list(xf4.enumerate_t())
    for anchor in pts:
        if anchor.is_identity():
            continue
        for x in pts:
            assert t_hua(anchor, x) == x


def test_hua_exhaustive_automorphisms_f4(xf4):
    pts = list(xf4.enumerate_t())
    for anchor in pts:
        if anchor.is_identity():
            continue
        images = {t_hua(anchor, x).key() for x in pts}
        assert len(images) == len(pts)
        for x in pts:
            for y in pts:
                assert t_hua(anchor, t_mul(x, y)) == \
                    t_mul(t_hua(anchor, x), t_hua(anchor, y))


def test_q_congruent_to_half_diagonal_char0(xh):
    # away from characteristic 2 the form is determined mod K0 by the
    # diagonal of f
    h = xh.h
    rng = random.Random(11)
    half = h.scalar_embed("1/2")
    for _ in range(30):
        a = xh.random_vector(rng)
        diff = xh.q(a) - h.mul(half, xh.f(a, a))
        assert xh.inv.k0_contains(diff)


def test_hua_is_automorphism_hamilton(xh):
    rng = random.Random(5)
    for _ in range(40):
        anchor = xh.random_point(rng)
        if anchor.is_identity():
            continue
        x, y = xh.random_point(rng), xh.random_point(rng)
        assert t_hua(anchor, t_mul(x, y)) == t_mul(t_hua(anchor, x),
                                                   t_hua(anchor, y))


def test_hua_central_anchor_formula(xh):
    h = xh.h
    t = h.one() + h.one()
    anchor = xh.point((h.zero(),), t)
    rng = random.Random(6)
    for _ in range(20):
        x = xh.random_point(rng)
        img = t_hua(anchor, x)
        assert img.a == xh.vec_scale(x.a, xh.inv.sigma(t))
        assert img.t == h.mul(h.mul(t, x.t), xh.inv.sigma(t))


def test_jordan_check_identity(xf4):
    rep = t_jordan_check(lambda p: p, xf4, xf4)
    assert rep.passed


def test_jordan_check_samples_an_infinite_carrier(xh):
    rep = t_jordan_check(lambda p: p, xh, xh, samples=10)
    assert rep.passed
    assert [(ln.rule, ln.samples) for ln in rep.lines] == [
        ("jordan.group-homomorphism", 10), ("jordan.unit", 1),
        ("jordan.hua-preserved", 10)]


def test_jordan_check_sweeps_a_small_carrier(xf4):
    # |T| = 8: 64 pairs, the bijectivity line, and 8 * 7 anchors
    rep = t_jordan_check(lambda p: p, xf4, xf4)
    assert [(ln.rule, ln.samples) for ln in rep.lines] == [
        ("jordan.group-homomorphism", 64), ("jordan.bijective", 8),
        ("jordan.unit", 1), ("jordan.hua-preserved", 56)]


def test_jordan_check_space_isomorphism_induced(xf4):
    # the Frobenius on the carrier induces a space self-isomorphism,
    # whose point map (a, t) -> (a^sig, t^sig) must be a Jordan iso
    sig = xf4.inv.sigma

    def gamma(p):
        return TPoint(xf4, tuple(sig(x) for x in p.a), sig(p.t))

    rep = t_jordan_check(gamma, xf4, xf4)
    assert rep.passed, repr(rep)


def test_jordan_check_hamilton_space_isomorphism(xh):
    # conjugating the Hamilton instance by a unit of the anchor subfield
    # scales nothing but permutes T; scaling the vector coordinate by a
    # central unit is a space isomorphism with phi = id
    h = xh.h
    minus = -h.one()

    def gamma(p):
        return TPoint(xh, xh.vec_scale(p.a, minus), p.t)

    rep = t_jordan_check(gamma, xh, xh, samples=120, seed=3)
    assert rep.passed, repr(rep)


def test_sigma_twist_maps_are_jordan_but_not_induced(xf4):
    # the three fiber-twisting maps are Jordan automorphisms; none of them
    # is coordinate-scaling-plus-field-map on the twisted fibers, which is
    # visible on a vector they twist
    from mforge.pseudoquad import _sigma_twist_maps
    tbl = t_group_table(xf4)
    perms = _sigma_twist_maps(xf4, tbl)
    assert len(perms) == 3
    for perm in perms:
        mapping = {tbl.elements[i].key(): tbl.elements[p]
                   for i, p in enumerate(perm)}
        gamma = lambda p: mapping[p.key()]
        rep = t_jordan_check(gamma, xf4, xf4)
        assert rep.passed
        # not induced by (phi, phi): the first component is the identity
        # on vectors while the fiber map depends on the vector
        twisted = [p for p in tbl.elements
                   if not p.is_central() and mapping[p.key()].t != p.t]
        fixed = [p for p in tbl.elements
                 if not p.is_central() and mapping[p.key()].t == p.t]
        assert twisted and fixed


def test_jordan_check_detects_broken_map(xf4):
    pts = list(xf4.enumerate_t())
    a, b = [p for p in pts if not p.is_central()][:2]

    def swap(p):
        if p == a:
            return b
        if p == b:
            return a
        return p

    rep = t_jordan_check(swap, xf4, xf4)
    assert not rep.passed


def test_census(xf4):
    rep = f4_census()
    assert rep.passed, repr(rep)
    assert rep.line("census.order").samples == 8
    assert rep.line("census.automorphism-count").samples == 24
    assert rep.line("census.outer-count").samples == 6


def test_census_oracle_automorphism_count():
    # independent oracle: the automorphism count of the abstract
    # 8-element quaternion unit group
    q8 = quaternion_group_table()
    assert len(q8.automorphisms()) == 24


def test_explicit_q8_isomorphism(xf4):
    tbl = t_group_table(xf4)
    q8 = quaternion_group_table()
    iso = tbl.isomorphism_to(q8)
    # the first images of the generators 1, 2, 4 of T in Q8
    assert iso.tolist() == [0, 1, 2, 3, 4, 5, 7, 6]
    assert np.array_equal(iso[tbl.table], q8.table[iso][:, iso])


def test_dim_switch_up(xh):
    up, gamma = dim_switch_up(xh)
    assert up.dim == 2
    assert up.f_gram[0][1].is_zero()
    # f~(b,b) = N(e) f(a,a): here N(e) = 1
    assert up.f_gram[1][1] == up.f_gram[0][0]
    rep = t_jordan_check(gamma, xh, up, samples=80, seed=5)
    assert rep.passed, repr(rep)
    # unit coordinates map to the anchor line
    one = xh.h.one()
    p = xh.point((one,), xh.q((one,)))
    img = gamma(p)
    assert img.a[1].is_zero()


def test_dim_switch_down_round_trip(xh):
    up, _ = dim_switch_up(xh)
    down, gamma2 = dim_switch_down(up)
    assert down.dim == 1
    # recovered tower is the rational quaternion tower
    alg = down.h.algebra
    assert [str(b) for b in alg.betas] == ["-1", "-1"]
    # q-value matches the original representative mod K0
    assert down.q_rep[0].key() == xh.q_rep[0].key()
    rep = t_jordan_check(gamma2, down, up, samples=80, seed=6)
    assert rep.passed, repr(rep)


def test_dim_switch_up_requires_type_iv(xf4):
    with pytest.raises(ValueError):
        dim_switch_up(xf4)


def test_constructor_validates_anisotropy():
    inv = InvolutorySet(F4, SIGMA_GALOIS)
    # q = 1 on the basis vector is congruent to 0 mod F2: isotropic
    with pytest.raises(ValueError):
        PseudoQuadraticSpace(inv, [F4.one()], [[F4.zero()]])


def _k0_moved_by_sigma():
    # K0 = <1, i> with the standard involution: sigma(i) = -i
    H = quaternions_q()
    j = H.unit(2)
    return (InvolutorySet(H, SIGMA_STANDARD, k0_gens=[H.one(), H.unit(1)]),
            [j], [[j + j]])


def _sandwich_outside_k0():
    # sigma = id on F4 with K0 = F2: sigma(w)*1*w = w + 1 is not in K0
    return (InvolutorySet(F4, SIGMA_IDENTITY, k0_gens=[F4.one()]),
            [F4.gen()], [[F4.zero()]])


@pytest.mark.parametrize("parts,message", [
    (_k0_moved_by_sigma,
     "K0 in Fix(sigma) fails: sigma(k) != k at ((0, 1, 0, 0))"),
    (_sandwich_outside_k0,
     "sandwich fails: sigma(x)*k*x is not in K0 at (1*w, 1)")])
def test_constructor_refuses_a_triple_that_is_no_involutory_set(parts,
                                                               message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PseudoQuadraticSpace(*parts())


# -- (P1) and (P2) on a basis against the case loop ----------------------------

def _reference_validate(sp, samples=64, seed=9):
    """The reference rule: (P1) on vector pairs and (P2) on (vector,
    scalar) pairs, all of them over a finite carrier and seeded samples
    otherwise, then (P3) on the vectors the constructor scans."""
    h = sp.h
    if h.is_finite():
        vecs = list(sp._all_vectors())
        pairs = [(a, b) for a in vecs for b in vecs]
        scalars = [(v, t) for v in vecs for t in h.elements()]
    else:
        rng = random.Random(seed)
        vecs = [sp.random_vector(rng) for _ in range(samples)]
        pairs = [(sp.random_vector(rng), sp.random_vector(rng))
                 for _ in range(samples)]
        rng2 = random.Random(seed + 1)
        scalars = [(sp.random_vector(rng2), h.random(rng2, 9))
                   for _ in range(samples)]
    for a, b in pairs:
        lhs = sp.q(sp.vec_add(a, b))
        rhs = sp.q(a) + sp.q(b) + sp.f(a, b)
        if not sp.congruent(lhs, rhs):
            raise ValueError("(P1) fails")
    for a, t in scalars:
        lhs = sp.q(sp.vec_scale(a, t))
        rhs = h.mul(h.mul(sp.inv.sigma(t), sp.q(a)), t)
        if not sp.congruent(lhs, rhs):
            raise ValueError("(P2) fails")
    for a in vecs:
        if sp.inv.k0_contains(sp.q(a)) != sp.vec_is_zero(a):
            raise ValueError("(P3) anisotropy fails at %s" % (a,))


def _fpw(p):
    """F_p(w) for the first n0 with y^2 + n0 irreducible over F_p."""
    for n0 in range(1, p):
        try:
            return QuadExt(PrimeField(p), 0, n0)
        except ValueError:
            pass


def _fpw_space(p, dim):
    # q(b_i) = w, f = diag(w - w^sigma), sigma the galois involution
    K = _fpw(p)
    w = K.gen()
    gram = [[w - w.conj() if i == j else K.zero() for j in range(dim)]
            for i in range(dim)]
    return InvolutorySet(K, SIGMA_GALOIS), [w] * dim, gram


def _parts(sp):
    return sp.inv, sp.q_rep, sp.f_gram


def _q_i_identity():
    K = QuadExt(QQ, 0, 1)
    return InvolutorySet(K, SIGMA_IDENTITY), [K.gen()], [[K.zero()]]


def _h_identity():
    H = quaternions_q()
    return InvolutorySet(H, SIGMA_IDENTITY), [H.unit(1)], [[H.zero()]]


def _o_standard():
    O = octonions_q()
    return (InvolutorySet(O, SIGMA_STANDARD), [O.unit(1)],
            [[O.unit(1) + O.unit(1)]])


_ORACLE_INPUTS = {
    "Xi_F4": lambda: _parts(xi_f4()),
    "Xi_H": lambda: _parts(xi_hamilton()),
    "up(Xi_H)": lambda: _parts(dim_switch_up(xi_hamilton())[0]),
    "down(up(Xi_H))": lambda: _parts(
        dim_switch_down(dim_switch_up(xi_hamilton())[0])[0]),
    "F3(w)": lambda: _fpw_space(3, 1),
    "F5(w)": lambda: _fpw_space(5, 1),
    "F7(w)": lambda: _fpw_space(7, 1),
    "Q(i), identity": _q_i_identity,
    "H, identity": _h_identity,
    "O, sigma_s": _o_standard,
}

_PREMISE = {
    "Q(i), identity": "x + sigma(x) is not in K0",
    "H, identity": "sigma(x*y) != sigma(y)*sigma(x)",
    "O, sigma_s": "(x*y)*z != x*(y*z)",
}


def _refusal(check, sp):
    try:
        check(sp, 64, 9)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(_ORACLE_INPUTS))
def test_basis_check_agrees_with_the_case_loop(name, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(PseudoQuadraticSpace, "_validate", lambda *args: None)
        sp = PseudoQuadraticSpace(*_ORACLE_INPUTS[name](), name=name)
    ref = _refusal(_reference_validate, sp)
    new = _refusal(PseudoQuadraticSpace._validate, sp)
    assert (ref is None) == (new is None), (ref, new)
    if name in _PREMISE:
        assert ref == "(P1) fails"
        assert new.startswith("(P1) fails: " + _PREMISE[name])
    else:
        assert ref is None


@pytest.mark.parametrize("name", sorted(set(_ORACLE_INPUTS) - set(_PREMISE)))
def test_sandwich_cross_terms_lie_in_k0(name):
    """The constructor decides the sandwich on basis vectors alone: on
    every space it builds, each cross term sigma(e_i)*k*e_j +
    sigma(e_j)*k*e_i lies in K0, as the trace of sigma(e_i)*k*e_j."""
    sp = PseudoQuadraticSpace(*_ORACLE_INPUTS[name](), name=name)
    h, sigma = sp.h, sp.inv.sigma
    cf = h.coord_field
    basis = [h.uncoords([cf.one() if k == i else cf.zero()
                         for k in range(h.coord_dim)])
             for i in range(h.coord_dim)]
    for k in sp.inv.k0.basis():
        for i, x in enumerate(basis):
            for y in basis[i + 1:]:
                assert sp.inv.k0_contains(h.mul(h.mul(sigma(x), k), y)
                                          + h.mul(h.mul(sigma(y), k), x))


def _count_q(monkeypatch):
    calls = []
    q = PseudoQuadraticSpace.q
    monkeypatch.setattr(PseudoQuadraticSpace, "q",
                        lambda self, a: calls.append(a) or q(self, a))
    return calls


def test_finite_refusal_scans_each_vector_once(monkeypatch):
    # q(x, y) = (N(x) + N(y)) w is isotropic in dim 2 over F_7(w), with
    # w^2 = -1; the pair loop took minutes to get to (P3)
    calls = _count_q(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(
            "(P3) anisotropy fails at (1*w, 2 + 3*w)")):
        PseudoQuadraticSpace(*_fpw_space(7, 2))
    assert 0 < len(calls) <= 7 ** 4


def test_f11_space_builds_from_one_scan(monkeypatch):
    calls = _count_q(monkeypatch)
    sp = PseudoQuadraticSpace(*_fpw_space(11, 1))
    assert sp.dim == 1 and len(calls) == 11 ** 2
