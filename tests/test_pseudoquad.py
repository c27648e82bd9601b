import random

import numpy as np
import pytest

from mforge.pseudoquad import (PseudoQuadraticSpace, TPoint, dim_switch_down,
                               dim_switch_up, f4_census,
                               quaternion_group_table, t_group_table, t_hua,
                               t_inv, t_jordan_check, t_mul, xi_f4,
                               xi_hamilton)
from mforge.scalars import F4
from mforge.unitary import SIGMA_GALOIS, InvolutorySet


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
            xf4.point(p.a, xf4.h.add(p.t, k))
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
        assert faa == xf4.h.sub(p.t, xf4.inv.sigma(p.t))


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
        diff = h.sub(xh.q(a), h.mul(half, xh.f(a, a)))
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
    t = h.add(h.one(), h.one())
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
    minus = h.neg(h.one())

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
    assert up.h.is_zero(up.f_gram[0][1])
    # f~(b,b) = N(e) f(a,a): here N(e) = 1
    assert up.f_gram[1][1] == up.f_gram[0][0]
    rep = t_jordan_check(gamma, xh, up, samples=80, seed=5)
    assert rep.passed, repr(rep)
    # unit coordinates map to the anchor line
    one = xh.h.one()
    p = xh.point((one,), xh.q((one,)))
    img = gamma(p)
    assert up.h.is_zero(img.a[1])


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
