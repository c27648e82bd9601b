import math
import random

import numpy as np
import pytest

from mforge import tables as tbl
from mforge.handles import as_handle
from mforge.polygons import (OPPOSITE, STANDARD, SYMBOL_QD, SYMBOL_QE,
                             SYMBOL_QI, IndexOutOfRange, PolygonDescriptor,
                             RootWord, WordGroup, ZeroParameter, collect,
                             qp_xi_f4, qq_f4_space, rgs_commutator,
                             rgs_hua_consistency, rgs_hua_end_action,
                             rgs_multiply, rgs_opposite, triangle)
from mforge.scalars import F2, F4, F5, PrimeField
from mforge.unitary import (SIGMA_GALOIS, SIGMA_STANDARD, IndifferentSet,
                            InvolutorySet)


@pytest.fixture(scope="module")
def tri_oct(octonions):
    return triangle(octonions, name="T(O)")


@pytest.fixture(scope="module")
def qq_desc():
    return qq_f4_space()


@pytest.fixture(scope="module")
def qp_desc():
    return qp_xi_f4()


def test_triangle_commutator(tri_oct, octonions):
    s = octonions.element([1, 2, 0, 0, 0, 0, 0, 0])
    t = octonions.element([0, 1, 1, 0, 0, 0, 0, 0])
    w = rgs_commutator(tri_oct, 1, s, 3, t)
    assert w.factors == [(2, s * t)]
    assert rgs_commutator(tri_oct, 1, octonions.zero(), 3, t).is_identity()
    assert rgs_commutator(tri_oct, 1, s, 2, t).is_identity()


def restarting_collect(factors, merge, commutator, max_rounds=10000):
    """`collect` with every round scanning the word from its first pair."""
    fs = list(factors)
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("collection did not terminate")
        for k in range(len(fs) - 1):
            (i, a), (j, b) = fs[k], fs[k + 1]
            if i == j:
                m = merge(i, a, b)
                fs[k:k + 2] = [] if m is None else [(i, m)]
                break
            if i > j:
                fs[k:k + 2] = [(j, b), (i, a)] + commutator(i, a, j, b)
                break
        else:
            return fs


def test_collect_matches_the_restarting_scan(tri_oct, octonions):
    # words over octonions over Q and over the four slots of QP-Xi-F4
    rng = random.Random(7)
    qp_op = rgs_opposite(qp_xi_f4())
    for desc, draw in (
            (tri_oct, lambda i: octonions.random_element(rng, 3)),
            (qp_op, lambda i: rng.choice(qp_op.group(i).elements()))):
        def merge(i, a, b):
            grp = desc.group(i)
            m = grp.op(a, b)
            return None if grp.is_identity(m) else m

        def commutator(i, a, j, b):
            return [(m, desc.group(m).inv(w))
                    for (m, w) in desc.relation(j, b, i, a)]

        for _ in range(150):
            slots = [rng.randint(1, desc.n) for _ in range(rng.randint(0, 8))]
            fs = [(i, draw(i)) for i in slots]
            assert collect(fs, merge, commutator) == restarting_collect(
                fs, merge, commutator)
            for max_rounds in range(1, 5):
                outcomes = []
                for rule in (collect, restarting_collect):
                    try:
                        rule(fs, merge, commutator, max_rounds)
                        outcomes.append(True)
                    except RuntimeError:
                        outcomes.append(False)
                assert outcomes[0] == outcomes[1]


def test_commutator_index_guard(tri_oct, octonions):
    with pytest.raises(IndexOutOfRange):
        rgs_commutator(tri_oct, 3, octonions.one(), 1, octonions.one())


def test_collection_forces_middle_entry(tri_oct, octonions):
    s = octonions.element([1, 2, 0, 0, 0, 0, 0, 0])
    t = octonions.element([0, 1, 1, 0, 0, 0, 0, 0])
    w = rgs_multiply(tri_oct.word([(3, t)]), tri_oct.word([(1, s)]))
    assert [i for i, _ in w.factors] == [1, 2, 3]
    assert w.slot(2) == -(s * t)


def test_word_identity_and_inverse(tri_oct, octonions):
    rng = random.Random(1)
    for _ in range(15):
        factors = [(i, octonions.random_element(rng, 5)) for i in (1, 2, 3)]
        w = tri_oct.word(factors)
        assert rgs_multiply(w, tri_oct.identity_word()) == w
        assert rgs_multiply(w, w.inverse()).is_identity()


def test_qq_word_group_exhaustive(qq_desc):
    wg = WordGroup(qq_desc)
    assert len(wg.elements) == 64
    rep = wg.check_axioms()
    assert rep.passed, repr(rep)


def test_qq_commutator_example(qq_desc):
    sp = qq_desc.params
    t = sp.field.one()
    a = sp.vector([0, 1])
    w = rgs_commutator(qq_desc, 1, t, 4, a)
    # x2 part is (-a)t = at in characteristic 2; x3 part is t q(a)
    assert w.slot(2) == a.scale(t)
    assert w.slot(3) == sp.q(a) * t


def test_qp_word_group_exhaustive(qp_desc):
    wg = WordGroup(qp_desc)
    assert len(wg.elements) == 1024
    rep = wg.check_axioms()
    assert rep.passed, repr(rep)


def test_slot_sizes_count_the_word_group():
    qi = PolygonDescriptor(SYMBOL_QI, InvolutorySet(F4, SIGMA_GALOIS))
    qd = PolygonDescriptor(SYMBOL_QD, IndifferentSet(F2, [F2.one()],
                                                     [F2.one()]))
    for desc in (qq_f4_space(), qp_xi_f4(), triangle(F5), qi, qd):
        groups = [desc.group(i) for i in range(1, desc.n + 1)]
        assert all(g.size() == len(g.elements()) for g in groups)
        assert math.prod(g.size() for g in groups) == len(
            WordGroup(desc).elements)


def test_random_associativity_infinite(tri_oct, octonions):
    rng = random.Random(2)
    for _ in range(25):
        words = [tri_oct.word([(i, octonions.random_element(rng, 4))
                               for i in (1, 2, 3)]) for _ in range(3)]
        a, b, c = words
        assert rgs_multiply(rgs_multiply(a, b), c) == \
            rgs_multiply(a, rgs_multiply(b, c))


def test_commutator_inverse_law(qq_desc):
    # [u, v]^-1 = [v, u] on generator pairs, via both normal forms
    sp = qq_desc.params
    for t in sp.field.elements():
        for a in sp.all_elements():
            w = rgs_commutator(qq_desc, 1, t, 4, a)
            lhs = w.inverse()
            x1 = qq_desc.word([(1, t)])
            x4 = qq_desc.word([(4, a)])
            rhs = (x4.inverse() * x1.inverse()) * (x4 * x1)
            assert lhs == rhs


def test_opposite_round_trip(tri_oct, qq_desc, qp_desc):
    for d in (tri_oct, qq_desc, qp_desc):
        opp = rgs_opposite(d)
        assert opp.orientation == OPPOSITE
        back = rgs_opposite(opp)
        assert back.orientation == STANDARD
        assert back.params is d.params


def test_opposite_triangle_relation_sign(tri_oct, octonions):
    opp = rgs_opposite(tri_oct)
    h = as_handle(octonions)
    rng = random.Random(3)
    for _ in range(15):
        s = octonions.random_element(rng, 5)
        t = octonions.random_element(rng, 5)
        w = rgs_commutator(opp, 1, s, 3, t)
        # reversed reading: x2 entry is -(t s), the opposite product of s, t
        assert w.slot(2) == -(t * s)


def test_opposite_qi_matches_literal_table():
    iv = InvolutorySet(F4, SIGMA_GALOIS)
    d = PolygonDescriptor(SYMBOL_QI, iv)
    do = rgs_opposite(d)
    h = iv.handle
    sig = iv.sigma
    for s in F4.elements():
        for t in F4.elements():
            # quoted form: [x1(s)^-1, x3(t)] = x2(-s t^sig - t s^sig);
            # plain arguments substitute s -> -s
            sn = -s
            lit = -(h.mul(sn, sig(t)) + h.mul(t, sig(sn)))
            assert rgs_commutator(do, 1, s, 3, t).slot(2) == lit
        for u in iv.k0.elements():
            # quoted form: [x1(s)^-1, x4(u)] = x2(-s u s^sig) x3(-s u)
            for s in F4.elements():
                sn = -s
                w = rgs_commutator(do, 1, s, 4, u)
                assert w.slot(2) == -h.mul(h.mul(sn, u), sig(sn))
                assert w.slot(3) == -h.mul(sn, u)


def test_opposite_qp_matches_literal_table(qp_desc):
    # literal opposite forms, with left-space products realized over the
    # right space (scalar action s*b = b.s, ring product s*t = t.s) and
    # inverted-argument slots rewritten by parameter-group inversion
    sp = qp_desc.params
    do = rgs_opposite(qp_desc)
    h = sp.h
    sig = sp.inv.sigma
    pts = list(sp.enumerate_t())
    scalars = [s for s in h.elements()]

    # [x2(b,u)^-1, x4(a,t)] = x3(-f(a,b))
    for bu in pts:
        for at in pts:
            binv = bu.inverse()
            w = rgs_commutator(do, 2, binv, 4, at)
            expect = -sp.f(at.a, bu.a)
            got = w.slot(3)
            if expect.is_zero():
                assert do.group(3).is_identity(got)
            else:
                assert got == expect

    # [x1(w)^-1, x3(v)] = x2(0, -w v^sig - v w^sig)
    for wv in scalars:
        for v in scalars:
            word = rgs_commutator(do, 1, -wv, 3, v)
            val = -(h.mul(sig(v), wv) + h.mul(sig(wv), v))
            got = word.slot(2)
            assert sp.vec_is_zero(got.a) if hasattr(got, "a") else True
            if val.is_zero():
                assert do.group(2).is_identity(got)
            else:
                assert got.t == val

    # [x1(v)^-1, x4(a,t)] = x2(-v.a, -v^sig t^sig v) x3(-v t)
    for v in scalars:
        if v.is_zero():
            continue
        for at in pts:
            word = rgs_commutator(do, 1, -v, 4, at)
            a, t = at.a, at.t
            exp2_a = sp.vec_neg(sp.vec_scale(a, v))
            exp2_t = -h.mul(h.mul(v, sig(t)), sig(v))
            exp3 = -h.mul(t, v)
            got2 = word.slot(2)
            assert got2.a == exp2_a and got2.t == exp2_t
            assert word.slot(3) == exp3


def test_opposite_qd_matches_literal_table():
    ind = IndifferentSet(F2, [F2.one()], [F2.one()])
    d = PolygonDescriptor(SYMBOL_QD, ind)
    do = rgs_opposite(d)
    h = ind.handle
    for a in ind.l0.elements():
        for t in ind.k0.elements():
            # quoted form: [x1(a), x4(t)] = x2(t a) x3(t^2 a)
            w = rgs_commutator(do, 1, a, 4, t)
            assert w.slot(2) == h.mul(t, a)
            assert w.slot(3) == h.mul(h.mul(t, t), a)


def test_finite_word_groups_other_families():
    iv = InvolutorySet(F4, SIGMA_GALOIS)
    d = PolygonDescriptor(SYMBOL_QI, iv)
    assert WordGroup(d).check_axioms().passed
    assert WordGroup(rgs_opposite(d)).check_axioms().passed
    ind = IndifferentSet(F2, [F2.one()], [F2.one()])
    dqd = PolygonDescriptor(SYMBOL_QD, ind)
    assert WordGroup(dqd).check_axioms().passed


def oracle_word_table(wg):
    """The Cayley table of a word group from element-level collection:
    each right translation by x_i(m) normalizes every word times x_i(m)
    with `RootWord.normalized`, and the columns compose them."""
    desc = wg.desc
    n_el = len(wg.elements)
    right = []
    for i in range(1, desc.n + 1):
        perms = []
        for m in wg.slot_elems[i - 1]:
            perm = np.empty(n_el, dtype=np.int32)
            for w_idx, w in enumerate(wg.elements):
                prod = RootWord(desc, w.factors + [(i, m)]).normalized()
                perm[w_idx] = wg.element_index(prod)
            perms.append(perm)
        right.append(perms)
    table = np.empty((n_el, n_el), dtype=np.int32)
    arange = np.arange(n_el, dtype=np.int32)
    for combo, g_idx in wg.index.items():
        col = arange
        for i, k in enumerate(combo):
            col = right[i][k][col]
        table[:, g_idx] = col
    return table


ORACLE_DESCRIPTORS = {
    "QQ-F4": qq_f4_space,
    "QP-Xi-F4": qp_xi_f4,
    "T(F4)": lambda: triangle(F4, name="T(F4)"),
    "QI-F4": lambda: PolygonDescriptor(SYMBOL_QI,
                                       InvolutorySet(F4, SIGMA_GALOIS)),
    "QD-F2": lambda: PolygonDescriptor(
        SYMBOL_QD, IndifferentSet(F2, [F2.one()], [F2.one()])),
}


@pytest.mark.parametrize("orientation", [STANDARD, OPPOSITE])
@pytest.mark.parametrize("name", list(ORACLE_DESCRIPTORS))
def test_index_space_table_matches_collection_oracle(name, orientation):
    desc = ORACLE_DESCRIPTORS[name]()
    if orientation == OPPOSITE:
        desc = rgs_opposite(desc)
    wg = WordGroup(desc)
    assert np.array_equal(wg.table, oracle_word_table(wg))
    # each one-factor word's mixed-radix index is its normalized word's
    for slot in range(1, desc.n + 1):
        for m in wg.slot_elems[slot - 1]:
            assert wg.slot_word_index(slot, m) == wg.element_index(
                RootWord(desc, [(slot, m)]))
        assert wg.slot_word_index(slot, desc.group(slot).identity()) == (
            wg.identity)


def test_word_group_is_built_once_per_descriptor():
    desc = qq_f4_space()
    wg = desc.word_group()
    assert desc.word_group() is wg
    opp = rgs_opposite(desc)
    assert opp.word_group() is not wg
    assert np.array_equal(opp.word_group().table,
                          WordGroup(rgs_opposite(desc)).table)


@pytest.mark.parametrize("name", ["QP-Xi-F4", "QQ-F4", "T(F4)", "QD-F2"])
def test_hua_consistency_reuses_the_descriptor_word_group(name, monkeypatch):
    fresh = rgs_hua_consistency(ORACLE_DESCRIPTORS[name]()).to_json()
    builds = []
    init = WordGroup.__init__
    monkeypatch.setattr(WordGroup, "__init__",
                        lambda self, desc: builds.append(desc)
                        or init(self, desc))
    desc = ORACLE_DESCRIPTORS[name]()
    reports = [rgs_hua_consistency(desc).to_json() for _ in range(2)]
    assert builds == [desc]
    assert reports == [fresh, fresh]


@pytest.mark.parametrize("end", ["first", "last"])
def test_end_maps_extend_on_the_subgroup_the_ends_generate(end):
    # over F2 the two end groups of QD generate 8 of the 16 words, so the
    # automorphism check runs on that subgroup, reindexed
    desc = ORACLE_DESCRIPTORS["QD-F2"]()
    wg = WordGroup(desc)
    assert len(wg.elements) == 16
    rep, perm = wg.extend_end_maps(*rgs_hua_end_action(desc, end, F2.one()))
    assert rep.passed
    gen = rep.line("extension.generates")
    assert gen.note == "end groups generate a subgroup of order 8"
    on_sub = rep.line("extension.automorphism-on-subgroup")
    assert on_sub.passed and on_sub.samples == 64
    assert rep.line("extension.bijective").samples == 8
    # anchored at 1 both end maps are the identity, and so is the extension
    assert perm.tolist() == list(range(8))


def test_a_wrong_end_map_fails_on_the_generated_subgroup():
    # sending x4(1) to the identity extends to a homomorphism of the
    # subgroup onto <x1(1)>, which is no bijection
    desc = ORACLE_DESCRIPTORS["QD-F2"]()
    rep, perm = WordGroup(desc).extend_end_maps(lambda t: t,
                                                lambda a: F2.zero())
    assert perm is None and not rep.passed
    assert rep.line("extension.automorphism-on-subgroup").passed
    bij = rep.line("extension.bijective")
    assert bij.samples == 8 and not bij.passed


def test_an_inconsistent_end_map_reports_its_first_conflict():
    # sending every nonzero vector of the last slot to the basepoint is
    # no endomorphism: the walk first reaches a word a second time, with
    # another image, as word 3 times the generator word 1
    desc = qq_f4_space()
    wg = WordGroup(desc)
    rep, perm = wg.extend_end_maps(
        lambda x: x, lambda v: v if v.is_zero() else desc.params.basepoint)
    assert perm is None and not rep.passed
    assert rep.to_json() == (
        '{"lines":[{"counterexample":[3,1],"passed":false,'
        '"rule":"extension.consistent","samples":64}],"passed":false,'
        '"subject":"QQ-F4","suite":"wordgroup.end-extension"}')


def assert_tree_matches_the_walk(wg, pairs):
    perm, conflict = wg.extend_from_generators(pairs)
    ref_perm, ref_conflict = tbl.extend_from_generators(
        wg.table, wg.table, pairs, wg.identity, wg.identity)
    assert (np.asarray(perm).tolist(), conflict) == (ref_perm, ref_conflict)
    return conflict


@pytest.mark.parametrize("orientation", [STANDARD, OPPOSITE])
@pytest.mark.parametrize("name", list(ORACLE_DESCRIPTORS))
def test_tree_extension_returns_what_the_walk_does(name, orientation):
    desc = ORACLE_DESCRIPTORS[name]()
    if orientation == OPPOSITE:
        desc = rgs_opposite(desc)
    wg = desc.word_group()
    assert wg.table.dtype == np.int16
    sources = None
    for end in ("first", "last"):
        grp = desc.group(1 if end == "first" else desc.n)
        for s in grp.elements():
            if grp.is_identity(s):
                continue
            pairs = wg.end_generators(*rgs_hua_end_action(desc, end, s))
            assert sources in (None, [g for g, _ in pairs])
            sources = [g for g, _ in pairs]
            assert assert_tree_matches_the_walk(wg, pairs) is None
    # one spanning tree serves every anchor of both ends
    assert list(wg._trees) == [tuple(sources)]


def test_tree_extension_falls_back_to_the_walk_on_a_conflict():
    desc = qq_f4_space()
    wg = WordGroup(desc)
    pairs = wg.end_generators(
        lambda x: x, lambda v: v if v.is_zero() else desc.params.basepoint)
    assert assert_tree_matches_the_walk(wg, pairs) == (3, 1)


def test_subgroup_table_is_the_reindexed_restriction(monkeypatch):
    # the gathered subgroup table and map equal the ones an element-wise
    # reindexing loop builds
    desc = ORACLE_DESCRIPTORS["QD-F2"]()
    wg = WordGroup(desc)
    seen = []
    check = tbl._kernel.first_hom_violation
    monkeypatch.setattr(tbl._kernel, "first_hom_violation",
                        lambda table, perm: seen.append((table, perm))
                        or check(table, perm))
    wg.extend_end_maps(lambda t: t, lambda a: F2.zero())
    (sub_table, sub_perm), = seen
    # the subgroup generated by x1(1) and x4(1), closed under products
    x1, x4 = (wg.element_index(RootWord(desc, [(i, F2.one())]))
              for i in (1, 4))
    reached = {wg.identity, x1, x4}
    while True:
        more = {int(wg.table[a, b]) for a in reached for b in reached}
        if more <= reached:
            break
        reached |= more
    reached = sorted(reached)
    assert len(reached) == 8
    sub_of = {g: k for k, g in enumerate(reached)}
    assert sub_table.tolist() == [[sub_of[int(wg.table[a, b])]
                                   for b in reached] for a in reached]
    assert sub_perm[sub_of[x4]] == sub_of[wg.identity]


def test_triangle_f5_exhaustive():
    d = triangle(F5, name="T(F5)")
    wg = WordGroup(d)
    assert len(wg.elements) == 125
    assert wg.check_axioms().passed
    rep = rgs_hua_consistency(d)
    assert rep.passed and rep.line("hua.first-end-extends").passed


def test_triangle_over_large_prime_field_is_sampled():
    # 101^3 words are too many to tabulate: the closed-form identities
    # are sampled instead of building the word group
    d = triangle(PrimeField(101), name="T(F101)")
    rep = rgs_hua_consistency(d, samples=50, seed=3)
    assert rep.passed
    assert rep.line("triangle.first-end-identity").samples == 50


def test_triangle_law_fails_at_an_anchor_without_inverse():
    # the F5 octonions are no division ring: the sampled law meets an
    # isotropic anchor and records it instead of raising
    from mforge.composition import CDAlgebra
    algebra = CDAlgebra(F5, [-1, -1, -1])
    rep = rgs_hua_consistency(triangle(algebra), samples=10, seed=3)
    line = rep.line("triangle.last-end-identity")
    assert not line.passed and line.samples == 10
    anchor = algebra.element([int(c) for c in line.counterexample[0]
                              .strip("()").split(",")])
    assert anchor.norm().is_zero() and not anchor.is_zero()


def test_hua_end_actions_unit_is_identity(tri_oct, qq_desc, qp_desc,
                                          octonions):
    m1, m3 = rgs_hua_end_action(tri_oct, "first", octonions.one())
    rng = random.Random(4)
    for _ in range(10):
        x = octonions.random_element(rng, 5)
        assert m1(x) == x and m3(x) == x
    sp = qq_desc.params
    m1, m4 = rgs_hua_end_action(qq_desc, "last", sp.basepoint)
    for t in sp.field.elements():
        assert m1(t) == t
    for b in sp.all_elements():
        assert m4(b) == b


def test_hua_end_action_formulas(tri_oct, octonions):
    rng = random.Random(5)
    for _ in range(10):
        s = octonions.random_element(rng, 5, nonzero=True)
        t = octonions.random_element(rng, 5)
        u = octonions.random_element(rng, 5)
        m1, m3 = rgs_hua_end_action(tri_oct, "first", s)
        assert m1(t) == (s * t) * s or m1(t) == s * (t * s)
        assert m3(u) == s.inverse() * u
        m1b, m3b = rgs_hua_end_action(tri_oct, "last", s)
        assert m1b(t) == t * s.inverse()
        assert m3b(u) == s * (u * s) or m3b(u) == (s * u) * s


def test_hua_end_action_zero_guard(tri_oct, octonions):
    with pytest.raises(ZeroParameter):
        rgs_hua_end_action(tri_oct, "first", octonions.zero())


def test_qq_opposite_last_action_matches_quoted_form(qq_desc):
    do = rgs_opposite(qq_desc)
    sp = do.params
    for t in sp.field.elements():
        if t.is_zero():
            continue
        mb, mu = rgs_hua_end_action(do, "last", t)
        for b in sp.all_elements():
            assert mb(b) == b.scale(t.inv())
        for u in sp.field.elements():
            assert mu(u) == t * t * u


def test_qp_first_end_is_the_group_hua(qp_desc):
    from mforge.pseudoquad import t_hua
    sp = qp_desc.params
    pts = list(sp.enumerate_t())
    for anchor in pts:
        if anchor.is_identity():
            continue
        m1, m4 = rgs_hua_end_action(qp_desc, "first", anchor)
        for p in pts:
            assert m1(p) == t_hua(anchor, p)


# the Moufang-set family at the standard first and last end of each symbol
END_FAMILIES = {"T": ("linear", "linear"), "QI": ("involutory", "linear"),
                "QP": ("pseudoquadratic", "linear"),
                "QQ": ("linear", "quadratic"),
                "QD": ("indifferent", "indifferent")}


@pytest.mark.parametrize("orientation", [STANDARD, OPPOSITE])
@pytest.mark.parametrize("name", list(ORACLE_DESCRIPTORS) + ["QI-H"])
def test_end_sets_follow_the_reading(name, orientation, quaternions):
    desc = (PolygonDescriptor(SYMBOL_QI,
                              InvolutorySet(quaternions, SIGMA_STANDARD))
            if name == "QI-H" else ORACLE_DESCRIPTORS[name]())
    if orientation == OPPOSITE:
        desc = rgs_opposite(desc)
    families = END_FAMILIES[desc.symbol]
    if orientation == OPPOSITE:
        families = families[::-1]
    rng = random.Random(9)
    for end, family, slot in zip(("first", "last"), families, (1, desc.n)):
        mset = desc.end_set(end)
        assert mset is desc.end_set(end) and mset.family == family
        grp = desc.group(slot)
        x = grp.random(rng, nonzero=True)
        assert mset.op(x, x) == grp.op(x, x)
        if family == "linear" and not mset.h.is_commutative():
            # a tower is read reversed on the opposite reading
            assert mset.h.reversed == (orientation == OPPOSITE)
    with pytest.raises(ValueError):
        desc.end_set("middle")


def test_hua_consistency_triangle_sampled(tri_oct):
    rep = rgs_hua_consistency(tri_oct, samples=60, seed=6)
    assert rep.passed, repr(rep)


def test_hua_consistency_finite_exhaustive(qq_desc):
    rep = rgs_hua_consistency(qq_desc)
    assert rep.passed, repr(rep)


def test_hua_consistency_infinite_quadrangle(quaternions):
    iv = InvolutorySet(quaternions, SIGMA_STANDARD)
    d = PolygonDescriptor(SYMBOL_QI, iv)
    rep = rgs_hua_consistency(d, samples=60, seed=7)
    assert rep.passed, repr(rep)


def test_reparametrized_relation_table(tri_oct, octonions):
    # a reparametrization by a ring automorphism preserves the table shape
    w = octonions.one() + octonions.unit(1)
    conj = lambda x: (w.inverse() * x) * w
    rng = random.Random(8)
    for _ in range(15):
        s = octonions.random_element(rng, 5)
        t = octonions.random_element(rng, 5)
        lhs = rgs_commutator(tri_oct, 1, conj(s), 3, conj(t)).slot(2)
        assert lhs == conj(s) * conj(t)


def test_rejection_symbols_carry_no_relations():
    d = PolygonDescriptor(SYMBOL_QE, "tag")
    with pytest.raises(ValueError):
        d.group(1)
