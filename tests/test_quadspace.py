import itertools
import operator
import random
import re
import time
from fractions import Fraction

import pytest

from mforge import linalg, moufang
from mforge.composition import CDAlgebra, octonions_q, quaternions_q
from mforge.handles import SmallFieldHandle
from mforge.quadspace import (DimensionTooLarge, QuadraticSpace,
                              ZeroAnchor, _elements, line_vectors, qs_defect,
                              qs_eval, qs_hua, qs_small_dim_field,
                              space_from_algebra, space_from_quadext,
                              verify_space)
from mforge.report import EXHAUSTIVE_SIZE
from mforge.scalars import (F2, F3, F4, F5, QI, QQ, PrimeField, QuadExt,
                            random_scalar)


@pytest.fixture(scope="module")
def f4_space():
    return space_from_quadext(F4, name="(F4,F2,N)")


def test_eval_basepoint(f4_space):
    q, t, s = qs_eval(f4_space, f4_space.basepoint)
    assert q == F2.one()
    assert t == F2.zero()  # f(eps, eps) = 2 q(eps) = 0 in char 2
    assert s == f4_space.basepoint


def test_eval_basepoint_char0():
    sp = QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested")
    q, t, s = qs_eval(sp, sp.basepoint)
    assert q == QQ.one() and t == QQ.scalar(2) and s == sp.basepoint


def test_eval_zero(f4_space):
    zero = f4_space.zero()
    q, t, s = qs_eval(f4_space, zero)
    assert q.is_zero() and t.is_zero() and s.is_zero()


def test_eval_generator(f4_space):
    w = f4_space.vector([0, 1])
    q, t, s = qs_eval(f4_space, w)
    assert q == F2.one() and t == F2.one()
    assert s == f4_space.vector([1, 1])  # w^2


def test_hua_generator(f4_space):
    w = f4_space.vector([0, 1])
    one = f4_space.vector([1, 0])
    assert qs_hua(f4_space, w, one) == f4_space.vector([1, 1])


def test_hua_basepoint_is_identity(f4_space):
    for v in f4_space.all_elements():
        assert qs_hua(f4_space, f4_space.basepoint, v) == v


def test_hua_rejects_zero_anchor(f4_space):
    with pytest.raises(ZeroAnchor):
        qs_hua(f4_space, f4_space.zero(), f4_space.basepoint)


def test_hua_anchor_scaling_rule():
    sp = space_from_quadext(QI, name="(Q(i),Q,N)")
    rng = random.Random(2)
    from mforge.scalars import random_scalar
    for _ in range(40):
        a = sp.random_element(rng, 9, nonzero=True)
        x = sp.random_element(rng, 9)
        s = random_scalar(QQ, rng, 9, nonzero=True)
        assert qs_hua(sp, a.scale(s), x) == qs_hua(sp, a, x).scale(s * s)


def _hua_by_reflections(space, a, v):
    """The second route to h_a(v): pi_a(pi_eps(v)) * q(a), with pi_c the
    reflection in c."""
    def pi(w, c):
        return w - c.scale(space.f(c, w) / space.q(c))
    return pi(pi(v, space.basepoint), a).scale(space.q(a))


def test_hua_matches_reflections_on_every_f4_pair(f4_space):
    vectors = list(f4_space.all_elements())
    for a in vectors:
        if a.is_zero():
            continue
        for v in vectors:
            assert qs_hua(f4_space, a, v) == _hua_by_reflections(f4_space,
                                                                 a, v)


@pytest.mark.parametrize("space", [
    space_from_quadext(QI, name="(Q(i),Q,N)"),
    space_from_algebra(quaternions_q())], ids=["Qi", "quaternion-Q"])
def test_hua_matches_reflections_on_samples(space):
    rng = random.Random(7)
    for _ in range(60):
        a = space.random_element(rng, 9, nonzero=True)
        v = space.random_element(rng, 9)
        assert qs_hua(space, a, v) == _hua_by_reflections(space, a, v)


def test_defect(f4_space):
    rad, proper = qs_defect(f4_space)
    assert rad == [] and proper


def test_defect_degenerate_char2():
    # over a perfect field the only anisotropic form with identically zero
    # polar form is the squaring form on a line: whole space defective
    sp = QuadraticSpace(F2, [1], {}, [1])
    rad, proper = qs_defect(sp)
    assert len(rad) == 1 and not proper


def test_defect_over_a_quadratic_extension():
    # q = (x + i*y)^2 over Q(i), attested though isotropic: the polar form
    # f(u, v) = 2(u0 + i*u1)(v0 + i*v1) has the radical spanned by (-i, 1)
    sp = QuadraticSpace(QI, [1, -1], {(0, 1): (0, 2)}, [1, 0],
                        anisotropy="attested")
    rad, proper = qs_defect(sp)
    assert rad == [sp.vector([(0, -1), 1])] and proper
    assert all(sp.f(rad[0], b).is_zero() for b in sp.basis())


def test_char2_dim2_zero_polar_form_is_isotropic():
    # x^2 + y^2 = (x + y)^2 vanishes at (1, 1): the exhaustive anisotropy
    # check must refuse the construction
    with pytest.raises(ValueError):
        QuadraticSpace(F2, [1, 1], {}, [1, 0])


@pytest.mark.parametrize("field, q_basis, basepoint, witnesses", [
    # x^2 + y^2 = (x + y)^2
    (F2, [1, 1], [1, 0], ("(1, 1)", "(1, 1)")),
    # x^2 + w y^2 = (x + w^2 y)^2
    (F4, [1, (0, 1)], [1, 0], ("(1, 1*w)", "(1 + 1*w, 1)")),
    # w x^2 + w^2 y^2 = (w^2 x + w y)^2, with q(w, 0) = w^3 = 1
    (F4, [(0, 1), (1, 1)], [(0, 1), 0], ("(1, 1*w)", "(1 + 1*w, 1)"))])
def test_zero_polar_form_planes_are_refused(field, q_basis, basepoint,
                                            witnesses):
    """Over a perfect field of characteristic 2 a plane whose polar form
    vanishes is the square of a linear form, so it is isotropic: the
    exhaustive check and the sampled one refuse it, so no quadratic space,
    hence no small field, is built on it and the inseparable small-field
    type cannot occur."""
    for anisotropy, witness in zip(("exhaustive", "attested"), witnesses):
        with pytest.raises(ValueError, match=r"isotropic at %s$"
                           % re.escape(witness)):
            QuadraticSpace(field, q_basis, {}, basepoint,
                           anisotropy=anisotropy)


def _quadext_over(p):
    base = PrimeField(p)
    for n0 in range(1, p):
        try:
            return QuadExt(base, 0, n0)   # w^2 = -n0
        except ValueError:
            continue


def test_exhaustive_anisotropy_scans_one_vector_per_line(monkeypatch):
    # the norm form of F_1009(w) has 1009^2 vectors on 1010 lines
    p = 1009
    ext = _quadext_over(p)
    calls = []
    q = QuadraticSpace.q
    monkeypatch.setattr(QuadraticSpace, "q",
                        lambda self, v: calls.append(v) or q(self, v))
    sp = space_from_quadext(ext)
    assert sp.anisotropy == "exhaustive"
    assert len(calls) <= (p + 1) + 1   # the lines, plus the basepoint check


@pytest.mark.parametrize("field, q_basis, witness", [
    (F5, [1, 1], "(1, 2)"),          # x^2 + y^2, with 2^2 = -1
    (F3, [1, 1, -1], "(0, 1, 1)")])  # isotropic only off the first axis
def test_exhaustive_anisotropy_refuses_isotropic_prime_field_forms(
        field, q_basis, witness):
    basepoint = [1] + [0] * (len(q_basis) - 1)
    with pytest.raises(ValueError, match=r"isotropic at %s" % re.escape(
            witness)):
        QuadraticSpace(field, q_basis, {}, basepoint)


SMALL_ODD_PRIMES = (3, 5, 7, 11, 13)


def test_plane_anisotropy_over_an_odd_prime_field_matches_the_scan():
    # the discriminant decides the plane x^2 + b xy + c y^2; the oracle is
    # the scan of one vector per line, in its order
    for p in SMALL_ODD_PRIMES:
        for b, c in itertools.product(range(p), repeat=2):
            first = next((v for v in line_vectors(0, 1, range(p), 2)
                          if (v[0] ** 2 + b * v[0] * v[1] + c * v[1] ** 2)
                          % p == 0), None)
            try:
                QuadraticSpace(PrimeField(p), [1, c], {(0, 1): b}, [1, 0])
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == (None if first is None else
                           "form is isotropic at (%d, %d)" % first), (p, b, c)


def test_norm_space_over_a_61_bit_prime_builds_at_once():
    start = time.perf_counter()
    ext = QuadExt(PrimeField(2 ** 61 - 1), 0, 1)     # w^2 = -1, p = 3 mod 4
    sp = space_from_quadext(ext)
    assert time.perf_counter() - start < 0.5
    assert sp.anisotropy == "exhaustive" and sp.q(sp.vector([0, 1])).val == 1
    with pytest.raises(ValueError, match=r"isotropic at \(1, 1\)"):
        QuadraticSpace(PrimeField(2 ** 61 - 1), [1, -1], {}, [1, 0])


# -- the isotropy walk: its witness is the first of the scan of one vector
#    per line, each led by 1

def _refusal(field, q_basis, f_upper):
    """The message the exhaustive anisotropy check gives the form, or
    None when it admits it."""
    try:
        QuadraticSpace(field, q_basis, f_upper, [1] + [0] * (len(q_basis) - 1))
    except ValueError as exc:
        return str(exc)
    return None


def _scan_refusal(field, q_basis, f_upper, q=None):
    """The oracle of `_refusal`: the first of `line_vectors` with q = 0,
    evaluated by `q` on residues, or else entry by entry on scalars."""
    if q is None:
        q_basis = [field.scalar(c) for c in q_basis]
        f_upper = {ij: field.scalar(c) for ij, c in f_upper.items()}

        def q(v):
            return sum((c * v[i] * v[j] for (i, j), c in f_upper.items()),
                       sum((c * x * x for c, x in zip(q_basis, v)),
                           field.zero())).is_zero()
        lines = line_vectors(field.zero(), field.one(), field.elements(),
                             len(q_basis))
    else:
        lines = line_vectors(0, 1, range(field.p), len(q_basis))
    first = next((v for v in lines if q(v)), None)
    return first and "form is isotropic at (%s)" % ", ".join(map(repr, first))


@pytest.mark.parametrize("p", SMALL_ODD_PRIMES)
def test_the_walk_refuses_each_diagonal_form_where_the_scan_does(p):
    """Every diagonal form with q(e_0) = 1 in dimensions 1 to 3."""
    field = PrimeField(p)
    for dim in (1, 2, 3):
        for tail in itertools.product(range(p), repeat=dim - 1):
            q_basis = (1,) + tail

            def q(v):
                return sum(c * x * x for c, x in zip(q_basis, v)) % p == 0
            assert (_refusal(field, q_basis, {})
                    == _scan_refusal(field, q_basis, {}, q)), q_basis


@pytest.mark.parametrize("p", SMALL_ODD_PRIMES)
def test_the_walk_refuses_seeded_dim4_forms_with_cross_terms_at_the_scan(p):
    field, rng = PrimeField(p), random.Random(p)
    pairs = list(itertools.combinations(range(4), 2))
    for _ in range(20):
        q_basis = [1] + [rng.randrange(p) for _ in range(3)]
        f_upper = {ij: rng.randrange(p) for ij in pairs}

        def q(v):
            return (sum(c * x * x for c, x in zip(q_basis, v))
                    + sum(c * v[i] * v[j] for (i, j), c in f_upper.items())
                    ) % p == 0
        want = _scan_refusal(field, q_basis, f_upper, q)
        assert want is not None                     # four variables
        assert _refusal(field, q_basis, f_upper) == want, (q_basis, f_upper)


WALK_FIELDS = [F2, F4, QuadExt(F3, 0, 1), QuadExt(F3, 1, 2), QuadExt(F5, 0, 2)]


@pytest.mark.parametrize("field", WALK_FIELDS)
def test_the_walk_refuses_seeded_forms_over_small_fields_at_the_scan(field):
    """Forms with cross terms and a nonzero diagonal in dimensions 1 to 4
    over F2, F4 and three fields of order 9 and 25, where the walk takes
    `first_root`'s scan in characteristic 2 and `QuadExt.sqrt`
    otherwise."""
    rng, elems = random.Random(field.order()), field.elements()
    for dim in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(dim), 2))
        for _ in range(12):
            q_basis = [field.one()] + [rng.choice(elems[1:]) for _ in
                                       range(dim - 1)]
            f_upper = {ij: rng.choice(elems) for ij in pairs}
            assert (_refusal(field, q_basis, f_upper)
                    == _scan_refusal(field, q_basis, f_upper)), (q_basis,
                                                                  f_upper)


@pytest.mark.parametrize("field", [F2, F3, F4, PrimeField(13)] + WALK_FIELDS)
def test_the_digits_of_each_index_list_the_elements_in_order(field):
    assert list(_elements(field)) == field.elements()


def test_the_digits_list_the_elements_of_a_large_field_lazily():
    big = QuadExt(PrimeField(2 ** 61 - 1), 0, 1)
    assert list(itertools.islice(_elements(big), 3)) == [
        big.scalar((0, v)) for v in range(3)]


def _ternary_witness(p):
    """The walk's witness for x^2 + y^2 + z^2 over F_p, p = 3 (mod 4),
    from Euler's criterion: -1 is a non-square, so no vector (0, 1, t)
    is isotropic, and (1, s, t) is at the first s with -(1 + s^2) a
    square, t its smaller root."""
    s = next(s for s in range(p) if pow(-(1 + s * s), (p - 1) // 2, p) == 1)
    t = pow(-(1 + s * s), (p + 1) // 4, p)
    return 1, s, min(t, p - t)


@pytest.mark.parametrize("p", [100003, 2 ** 61 - 1])
def test_a_ternary_form_over_a_large_prime_is_refused_in_bounded_time(p):
    field = PrimeField(p)
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        QuadraticSpace(field, [1, 1, 1], {}, [1, 0, 0])
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == "form is isotropic at (%d, %d, %d)" % (
        _ternary_witness(p))
    if p == 100003:
        assert _ternary_witness(p) == (1, 1, 44974)


def test_defect_dim1_char0():
    sp = QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested")
    rad, proper = qs_defect(sp)
    assert rad == [] and proper


def test_anisotropy_guard():
    # x^2 - y^2 is isotropic at (1, 1)
    with pytest.raises(ValueError):
        QuadraticSpace(QQ, [1, -1], {}, [1, 0], anisotropy="attested")


def test_small_dim_field_f4(f4_space):
    fld, phi = qs_small_dim_field(f4_space)
    # multiplicative group of the constructed 4-element field has order 3
    w = f4_space.vector([0, 1])
    w2 = fld.mul(w, w)
    w3 = fld.mul(w2, w)
    assert w3 == fld.one()


def test_small_dim_field_gaussian():
    sp = space_from_quadext(QI)
    fld, _ = qs_small_dim_field(sp)
    i = sp.vector([0, 1])
    assert fld.mul(i, i) == sp.basepoint.scale(QQ.scalar(-1))


def test_small_dim_field_dim1():
    sp = QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested")
    fld, phi = qs_small_dim_field(sp)
    assert fld.mul(phi(QQ.scalar(2)), phi(QQ.scalar(3))) == phi(QQ.scalar(6))


def _f1009_space():
    # 11 is not a square mod 1009, so y^2 - 11 is irreducible
    return space_from_quadext(QuadExt(PrimeField(1009), 0, -11))


def test_small_dim_field_checks_three_vectors(monkeypatch):
    """The norm condition is a quadratic identity, so it is checked on
    e_1, e_2 and e_1 + e_2: F_1009(w) has 10^6 vectors."""
    sp = _f1009_space()
    seen = []
    mul = SmallFieldHandle.mul
    monkeypatch.setattr(SmallFieldHandle, "mul",
                        lambda self, u, v: seen.append(u) or mul(self, u, v))
    start = time.perf_counter()
    fld, phi = qs_small_dim_field(sp)
    assert time.perf_counter() - start < 10
    e1, e2 = sp.basis()
    assert seen == [e1, e2, e1 + e2]
    w = sp.vector([0, 1])
    assert fld.mul(w, w) == phi(sp.field.scalar(11))


@pytest.mark.parametrize("make", [_f1009_space,
                                  lambda: space_from_quadext(F4),
                                  lambda: space_from_quadext(QI)],
                         ids=["F1009", "F4", "Qi"])
def test_small_dim_field_catches_a_wrong_product(monkeypatch, make):
    """A frame rule that drops the -q(xt) * t * t' term compiles into a
    product that fails the norm condition, in characteristic 2 as well."""
    sp = make()

    def wrong_rule(self, u, v):
        s, t = self._frame(u)
        s2, t2 = self._frame(v)
        b = s * t2 + s2 * t + sp.trace(self.xt) * t * t2
        return sp.basepoint.scale(s * s2) + self.xt.scale(b)

    monkeypatch.setattr(SmallFieldHandle, "frame_mul", wrong_rule)
    with pytest.raises(AssertionError, match="norm condition failed"):
        qs_small_dim_field(sp)


def frame_product(space, u, v):
    """The product of the field on a space of dim <= 2 in the frame
    (eps, x), x the first basis vector off the basepoint line, with
    x^2 = T(x) x - q(x) eps, on Scalar frame coordinates: the oracle of
    the compiled product."""
    field = space.field
    frame = [space.basepoint.coords]
    line = linalg.Projector(field, linalg._expanded(field, frame))
    x = next((b for b in space.basis() if not line.contains(b.coords)), None)
    if x is not None:
        frame.append(x.coords)
    proj = linalg.Projector(field, linalg._expanded(field, frame))
    (s, t), (s2, t2) = [(proj.coefficients(w.coords) + (field.zero(),))[:2]
                        for w in (u, v)]
    if x is None:
        return space.basepoint.scale(s * s2)
    a = s * s2 - space.q(x) * t * t2
    b = s * t2 + s2 * t + space.trace(x) * t * t2
    return space.basepoint.scale(a) + x.scale(b)


SMALL_SPACES = {
    "F4-plane": lambda: space_from_quadext(F4),
    "F16-plane": lambda: QuadraticSpace(F4, [1, F4.gen()], {(0, 1): 1},
                                        [1, 0]),
    "F3-line": lambda: QuadraticSpace(F3, [1], {}, [1]),
    # eps = (0, 1) keeps e_0 off the basepoint line, so the frame takes it
    "F9-plane": lambda: QuadraticSpace(F3, [1, 1], {}, [0, 1]),
    "Qi-plane": lambda: space_from_quadext(QI),
    "F1009-plane": _f1009_space,
    "Q-line": lambda: QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested"),
}


@pytest.mark.parametrize("name", sorted(SMALL_SPACES))
def test_small_field_product_matches_the_frame_rule(name):
    """All pairs over the small finite carriers, 200 seeded pairs over the
    others."""
    sp = SMALL_SPACES[name]()
    h = SmallFieldHandle(sp)
    if sp.field.is_finite() and sp.field.order() ** sp.dim <= 256:
        vecs = list(sp.all_elements())
        pairs = [(u, v) for u in vecs for v in vecs]
    else:
        rng = random.Random(5)
        pairs = [(sp.random_element(rng, 9), sp.random_element(rng, 9))
                 for _ in range(200)]
    for u, v in pairs:
        assert h.mul(u, v) == frame_product(sp, u, v), (u, v)


def test_small_field_product_reads_no_frame_coordinates(monkeypatch):
    sp = space_from_quadext(QI)
    h = SmallFieldHandle(sp)
    h.mul(sp.basepoint, sp.basepoint)  # compiles the product
    calls = []
    coefficients = linalg.Projector.coefficients
    monkeypatch.setattr(linalg.Projector, "coefficients",
                        lambda self, vec: calls.append(vec)
                        or coefficients(self, vec))
    rng = random.Random(2)
    for _ in range(20):
        h.mul(sp.random_element(rng, 9), sp.random_element(rng, 9))
    assert calls == []


def test_small_field_handle_of_a_handle_is_the_same_carrier():
    sp = space_from_quadext(F4)
    h = SmallFieldHandle(sp)
    assert SmallFieldHandle(h) == h
    assert SmallFieldHandle(h).space is sp


def test_small_dim_field_rejects_dim3(quaternions):
    sp = space_from_algebra(quaternions)
    with pytest.raises(DimensionTooLarge):
        qs_small_dim_field(sp)


def test_structural_laws(f4_space, quaternions):
    assert verify_space(f4_space, samples=60).passed
    assert verify_space(space_from_algebra(quaternions), samples=40).passed
    assert verify_space(space_from_quadext(QI), samples=60).passed


def test_structural_laws_sample_a_space_past_the_sweep_bound(monkeypatch):
    # the norm space of F_11(w) has 121 vectors, more than EXHAUSTIVE_SIZE,
    # counted from |K|^dim: nothing lists them and hua.bijective is left out
    sp = space_from_quadext(QuadExt(PrimeField(11), 0, 1))
    assert 11 ** 2 > EXHAUSTIVE_SIZE

    def never_listed():
        raise AssertionError("the vectors were listed")
    monkeypatch.setattr(sp, "all_elements", never_listed)
    rep = verify_space(sp, samples=20)
    assert rep.passed
    assert "hua.bijective" not in [ln.rule for ln in rep.lines]


def test_structural_laws_sweep_a_small_space(f4_space):
    assert moufang.EXHAUSTIVE_SIZE is EXHAUSTIVE_SIZE
    rep = verify_space(f4_space, samples=5)
    assert rep.line("hua.bijective").samples == 4  # F4 over F2: 2^2 vectors


def test_octonion_norm_space(octonions):
    sp = space_from_algebra(octonions)
    assert sp.anisotropy == "structural"
    assert sp.proper()
    rng = random.Random(7)
    for _ in range(15):
        v = sp.random_element(rng, 6)
        x = octonions.element([c for c in v.coords])
        assert sp.q(v) == x.norm()


# -- the Scalar double loop: the forms entry by entry, the oracle of the
#    compiled forms

def q_reference(space, v):
    """sum(q_i * v_i^2) + sum(f_ij * v_i * v_j) over the upper entries."""
    acc = space.field.zero()
    for i in range(space.dim):
        acc = acc + space.q_basis[i] * v.coords[i] * v.coords[i]
    for (i, j), f in space.f_upper.items():
        acc = acc + f * v.coords[i] * v.coords[j]
    return acc


def f_reference(space, u, v):
    """sum(u_i * f(e_i, e_j) * v_j) over all i and j."""
    acc = space.field.zero()
    for i in range(space.dim):
        for j in range(space.dim):
            acc = acc + u.coords[i] * space.f_entry(i, j) * v.coords[j]
    return acc


# every space built in this file, a dim-3 space over Q with all three
# upper entries, and a characteristic-2 space over F4: x^2 + xy + w y^2 is
@pytest.mark.parametrize("betas,witness", [([-1], "(1, 469)"),
                                           ([-1, -1], "(0, 0, 1, 469)")])
def test_space_from_algebra_refuses_a_tower_with_an_isotropic_witness(
        betas, witness):
    # sampled anisotropy passed both norm forms over F_1009, though the
    # division certificate had found an element of norm 0
    algebra = CDAlgebra(PrimeField(1009), betas)
    assert algebra.division_witness.norm().is_zero()
    with pytest.raises(ValueError, match=re.escape(
            "form is isotropic at %s" % witness)):
        space_from_algebra(algebra)


# anisotropic because w has trace 1
SPACES = {
    "F4": lambda: space_from_quadext(F4),
    "Q-dim1": lambda: QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested"),
    "Qi": lambda: space_from_quadext(QI),
    "quaternion-Q": lambda: space_from_algebra(quaternions_q()),
    "octonion-Q": lambda: space_from_algebra(octonions_q()),
    "F2-dim1": lambda: QuadraticSpace(F2, [1], {}, [1]),
    "over-Qi": lambda: QuadraticSpace(QI, [1, -1], {(0, 1): (0, 2)}, [1, 0],
                                      anisotropy="attested"),
    "F1009-n0-1": lambda: space_from_quadext(_quadext_over(1009)),
    "F1009": _f1009_space,
    "F11": lambda: space_from_quadext(QuadExt(PrimeField(11), 0, 1)),
    "Q-dim3": lambda: QuadraticSpace(
        QQ, [1, "2/3", 5], {(0, 1): "1/2", (0, 2): 1, (1, 2): "-3/7"},
        [1, 0, 0], anisotropy="attested"),
    "over-F4-char2": lambda: QuadraticSpace(F4, [1, (0, 1)], {(0, 1): 1},
                                            [1, 0]),
}


def _same(got, want):
    return (got == want and got.field == want.field
            and type(got.val) is type(want.val))


@pytest.mark.parametrize("make", list(SPACES.values()), ids=list(SPACES))
def test_compiled_forms_match_the_scalar_double_loop(make):
    """q and f on integer coordinates equal the entry-by-entry sums: on
    every vector of a space of at most 256 vectors, else on the basis and
    on samples of heights 1, 9 and 10^6."""
    sp = make()
    field = sp.field
    if field.is_finite() and field.order() ** sp.dim <= 256:
        vs = list(sp.all_elements())
    else:
        rng = random.Random(17)
        vs = sp.basis() + [sp.zero()] + [sp.random_element(rng, h)
                                         for h in (1, 9, 10 ** 6)
                                         for _ in range(8)]
    for u in vs:
        assert _same(sp.q(u), q_reference(sp, u))
        for v in vs if len(vs) <= 16 else vs[:16]:
            assert _same(sp.f(u, v), f_reference(sp, u, v))


def test_compiled_forms_refuse_a_term_that_is_not_integers(monkeypatch):
    """A term that is not integers never reaches the compiled source."""
    sp = QuadraticSpace(QQ, [1, 2], {}, [1, 0], anisotropy="attested")
    rows = (((0, 0, Fraction(1, 2)),),)   # one row of one term
    monkeypatch.setattr(linalg, "_integer_rows",
                        lambda field, terms, size: (rows, 1))
    with pytest.raises(TypeError, match="not an integer term"):
        sp.f(sp.basepoint, sp.basepoint)
    with pytest.raises(TypeError, match="not an integer term"):
        QuadraticSpace(QQ, [1], {}, [1], anisotropy="attested")


@pytest.mark.parametrize("make", list(SPACES.values()), ids=list(SPACES))
def test_vector_operations_match_the_scalarwise_reference(make):
    """Sums, differences, negation, scaling, the zero test and keys on the
    stored integers equal the same operations coordinate by coordinate on
    Scalars, and equal vectors have equal keys however they are built."""
    sp = make()
    field = sp.field
    rng = random.Random(19)
    vs = sp.basis() + [sp.zero()] + [sp.random_element(rng, h)
                                     for h in (1, 9, 10 ** 6)
                                     for _ in range(4)]
    for u, v in zip(vs, vs[1:] + vs[:1]):
        s = random_scalar(field, rng, 9)
        for got, want in ((u + v, map(operator.add, u.coords, v.coords)),
                          (u - v, map(operator.sub, u.coords, v.coords)),
                          (-u, map(operator.neg, u.coords)),
                          (u.scale(s), (c * s for c in u.coords))):
            want = tuple(want)
            assert got.coords == want
            built = sp.vector(want)
            assert got == built and (got.nums, got.den) == (built.nums,
                                                            built.den)
            assert hash(got) == hash(built)
        assert u.is_zero() == all(c.is_zero() for c in u.coords)
        assert u + v - v == u
        assert u - u == sp.zero()


# -- the term-by-term expansions of the forms, of scaling and of the small-
#    field product, as the spaces and the handle built them before
#    ``linalg._bilinear``: the oracles of its (rows, den)

def form_rows_reference(space, entries):
    """The rows of sum(c * u_i * v_j) over the entries ((i, j), c)."""
    field, r = space.field, space.field.coord_dim
    mul, units = field.mul, linalg._units(field)
    return linalg._integer_rows(field, [
        (0, i * r + u, j * r + t, mul(mul(c.val, eu), et))
        for (i, j), c in entries for u, eu in units for t, et in units], r)


def scale_rows_reference(space):
    """The rows of a vector times a scalar."""
    field, r = space.field, space.field.coord_dim
    units = linalg._units(field)
    return linalg._integer_rows(field, [
        (k * r, k * r + u, t, field.mul(eu, et)) for k in range(space.dim)
        for u, eu in units for t, et in units], space.dim * r)


def product_rows_reference(handle):
    """The rows of the small-field product, from the frame rule on the
    pairs of basis vectors."""
    sp, field = handle.space, handle.coord_field
    r, basis = field.coord_dim, sp.basis()
    units = linalg._units(field)
    return linalg._integer_rows(field, [
        (k * r, i * r + u, j * r + t, field.mul(field.mul(c.val, eu), et))
        for i, bi in enumerate(basis) for j, bj in enumerate(basis)
        for k, c in enumerate(frame_product(sp, bi, bj).coords)
        for u, eu in units for t, et in units], sp.dim * r)


def _bilinear_calls(monkeypatch):
    """The (rows, den) of every ``linalg._bilinear`` call from now on."""
    seen, bilinear = [], linalg._bilinear
    monkeypatch.setattr(linalg, "_bilinear",
                        lambda *args: seen.append(bilinear(*args))
                        or seen[-1])
    return seen


@pytest.mark.parametrize("make", list(SPACES.values()), ids=list(SPACES))
def test_form_and_scale_rows_match_the_term_by_term_expansion(monkeypatch,
                                                              make):
    sp = make()
    for name in ("_q_form", "_f_form", "_scale_form"):
        sp.__dict__.pop(name, None)  # compiled again below, under the spy
    seen = _bilinear_calls(monkeypatch)
    sp._q_form, sp._f_form, sp._scale_form
    assert seen == [
        form_rows_reference(sp, [((i, i), c) for i, c in
                                 enumerate(sp.q_basis)]
                            + list(sp.f_upper.items())),
        form_rows_reference(sp, [((i, j), sp.f_entry(i, j))
                                 for i in range(sp.dim)
                                 for j in range(sp.dim)]),
        scale_rows_reference(sp)]


@pytest.mark.parametrize("name", ["F4-plane", "F16-plane", "Qi-plane",
                                  "F3-line"])
def test_small_field_rows_match_the_term_by_term_expansion(monkeypatch,
                                                           name):
    sp = SMALL_SPACES[name]()
    h = SmallFieldHandle(sp)
    sp.sigma(sp.basepoint)  # the forms and scaling the frame rule reads
    seen = _bilinear_calls(monkeypatch)
    h._product
    assert seen == [product_rows_reference(h)]
