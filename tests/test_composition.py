import math
import random
import time
import types

import pytest

from mforge import linalg
from mforge.composition import (SUITES, CDAlgebra, CDElement, DoublingFrame,
                                NotInvertible,
                                Subspace,
                                bilinear, cd_conj_norm_trace, closure,
                                doubling_coordinates, center,
                                norm_splitting, octonions_q,
                                orthogonal_complement,
                                sedenion_style_q, subalgebra_generated,
                                verify_identities)
from mforge.scalars import (F2, F3, F4, F5, QI, QQ, PrimeField, QuadExt,
                            Scalar, random_scalar)
from test_linalg import contract_reference, kernel_reference, solve_reference

# basis products of the default octonion tower, frozen from the doubling
# recursion (signed one-based indices)
GOLDEN_OCTONION_TABLE = [
    [1, 2, 3, 4, 5, 6, 7, 8],
    [2, -1, -4, 3, -6, 5, 8, -7],
    [3, 4, -1, -2, -7, -8, 5, 6],
    [4, -3, 2, -1, -8, 7, -6, 5],
    [5, 6, 7, 8, -1, -2, -3, -4],
    [6, -5, 8, -7, 2, -1, 4, -3],
    [7, -8, -5, 6, 3, -4, -1, 2],
    [8, 7, -6, -5, 4, 3, -2, -1],
]


def test_unit_law(octonions):
    rng = random.Random(0)
    one = octonions.one()
    for _ in range(20):
        x = octonions.random_element(rng, 9)
        assert one * x == x and x * one == x


def test_quaternion_signs(quaternions):
    i, j = quaternions.unit(1), quaternions.unit(2)
    k = i * j
    assert i * i == -quaternions.one()
    assert j * i == -k


def test_golden_basis_table(octonions):
    bas = octonions.basis()
    for i in range(8):
        for j in range(8):
            expect = GOLDEN_OCTONION_TABLE[i][j]
            got = bas[i] * bas[j]
            want = bas[abs(expect) - 1]
            assert got == (want if expect > 0 else -want)


def test_conj_norm_trace(octonions, quaternions):
    e = octonions.unit(4)
    conj, n, t = cd_conj_norm_trace(e)
    assert conj == -e and n == QQ.one() and t == QQ.zero()
    x = quaternions.element([3, 1, 0, 0])
    conj, n, t = cd_conj_norm_trace(x)
    assert conj == quaternions.element([3, -1, 0, 0])
    assert n == QQ.scalar(10) and t == QQ.scalar(6)
    one = octonions.one()
    assert cd_conj_norm_trace(one) == (one, QQ.one(), QQ.scalar(2))


def test_norm_agrees_with_conj_product(octonions):
    rng = random.Random(1)
    for _ in range(25):
        x = octonions.random_element(rng, 9)
        prod = x * x.conj()
        assert prod.coords[0] == x.norm()
        assert all(c.is_zero() for c in prod.coords[1:])


def test_inverse(quaternions):
    i = quaternions.unit(1)
    assert i.inverse() == -i
    assert quaternions.one().inverse() == quaternions.one()
    with pytest.raises(NotInvertible):
        quaternions.zero().inverse()
    rng = random.Random(2)
    for _ in range(20):
        x = quaternions.random_element(rng, 9, nonzero=True)
        assert x * x.inverse() == quaternions.one()
        assert x.inverse() * x == quaternions.one()


def test_center_dims(octonions, quaternions):
    assert center(quaternions).dim == 1
    assert center(octonions).dim == 1
    line = CDAlgebra(QQ, [])
    assert center(line).dim == 1
    stage = CDAlgebra(QQ, [-1])
    assert center(stage).dim == 2


def test_subalgebra_generated(octonions):
    assert subalgebra_generated(octonions, []).dim == 1
    assert subalgebra_generated(octonions, [octonions.unit(1)]).dim == 2
    four = subalgebra_generated(octonions,
                                [octonions.unit(1), octonions.unit(2)])
    assert four.dim == 4
    assert four.is_subalgebra()


def test_closure_reports_full_or_stable(octonions):
    from mforge.handles import as_handle
    from mforge.scalars import F4
    one, i, j = octonions.one(), octonions.unit(1), octonions.unit(2)
    span, status = closure(Subspace(octonions, [one, i]))
    assert (span.dim, status) == (2, "stable")
    span, status = closure(Subspace(octonions, [one, i, j, octonions.unit(4)]))
    assert (span.dim, status) == (8, "full")
    h = as_handle(F4)
    assert closure(Subspace(h, [F4.gen()]))[1] == "full"


def test_spans_are_equal_on_the_same_handle(quaternions):
    from mforge.handles import as_handle
    one, i = quaternions.one(), quaternions.unit(1)
    span = Subspace(quaternions, [one, i])
    assert span == Subspace(as_handle(quaternions), [one + i, i.scale(
        QQ.scalar(3))])
    assert span != Subspace(quaternions, [one])
    assert span != Subspace(as_handle(quaternions).opposite(), [one, i])


def test_orthogonal_complement(octonions, quaternions):
    whole = Subspace(octonions, octonions.basis())
    assert orthogonal_complement(octonions, whole).dim == 0
    span1 = Subspace(quaternions, [quaternions.one()])
    perp = orthogonal_complement(quaternions, span1)
    assert perp.dim == 3
    assert not perp.contains(quaternions.one())
    zero = Subspace(octonions, [])
    assert orthogonal_complement(octonions, zero).dim == 8


def test_doubling_coordinates(octonions):
    quat = Subspace(octonions, octonions.basis()[:4])
    e = octonions.unit(4)
    x = octonions.unit(4 + 1)  # e * i
    h, y = doubling_coordinates(x, quat, e)
    assert h.is_zero() and y == octonions.unit(1)
    h, y = doubling_coordinates(e, quat, e)
    assert h.is_zero() and y == octonions.one()
    inside = octonions.element([1, 2, 3, 4, 0, 0, 0, 0])
    h, y = doubling_coordinates(inside, quat, e)
    assert h == inside and y.is_zero()


def test_doubling_round_trip(octonions):
    quat = Subspace(octonions, octonions.basis()[:4])
    e = octonions.unit(4)
    rng = random.Random(3)
    from mforge.composition import DoublingFrame
    frame = DoublingFrame(octonions, quat, e)
    for _ in range(20):
        x = octonions.random_element(rng, 9)
        h, y = frame.split(x)
        assert quat.contains(h) and quat.contains(y)
        assert frame.combine(h, y) == x


def test_doubling_errors(octonions):
    from mforge.composition import NotInSpan
    from mforge.composition import BadDoublingUnit
    pair = Subspace(octonions, [octonions.one(), octonions.unit(1)])
    e2 = octonions.unit(2)
    # span{1, i} + j*span{1, i} misses the top half
    with pytest.raises(NotInSpan):
        doubling_coordinates(octonions.unit(4), pair, e2)
    # the doubling unit must leave the subalgebra
    with pytest.raises(BadDoublingUnit):
        doubling_coordinates(octonions.unit(4), pair, octonions.unit(1))
    # and must be orthogonal to it
    with pytest.raises(BadDoublingUnit):
        doubling_coordinates(octonions.unit(4), pair,
                             octonions.one() + octonions.unit(2))


def test_norm_splitting(octonions):
    sub = Subspace(octonions, [octonions.one(), octonions.unit(1)])
    vs, consts, witness = norm_splitting(octonions, sub, samples=16)
    assert consts[0] == QQ.one()
    assert all(not s.is_zero() for s in consts)
    prod = consts[0] * consts[1] * consts[2] * consts[3]
    assert witness.norm() == prod
    assert sub.contains(witness)


def test_division_status():
    assert octonions_q().division_status == "certified-structural"
    f9 = CDAlgebra(F3, [-1])
    assert f9.division_status == "certified-exhaustive"
    # over a finite field the 4-dim norm form is isotropic
    iso = CDAlgebra(F3, [-1, -1])
    assert iso.division_status == "not-division"
    # user-supplied rational betas with a positive sign are only sampled
    mixed = CDAlgebra(QQ, [2])
    assert mixed.division_status in ("division-unverified-sampled",
                                     "not-division")


def test_dim16_needs_flag():
    with pytest.raises(ValueError):
        CDAlgebra(QQ, [-1, -1, -1, -1])
    sed = sedenion_style_q()
    assert sed.dim == 16


@pytest.mark.parametrize("suite", ["moufang", "flexible", "alternative",
                                   "inverse", "minimum_equation",
                                   "norm_multiplicative", "doubling_rules"])
def test_identity_suites_pass_on_octonions(octonions, suite):
    rep = verify_identities(octonions, suite, samples=60, seed=11)
    assert rep.passed, repr(rep)


def test_identity_suites_pass_on_quaternions(quaternions):
    for suite in ("moufang", "alternative", "doubling_rules"):
        assert verify_identities(quaternions, suite, samples=80,
                                 seed=7).passed


def test_dim16_fails_alternativity():
    rep = verify_identities(sedenion_style_q(), "alternative", samples=400,
                            seed=3)
    assert not rep.passed
    failing = [ln for ln in rep.lines if not ln.passed]
    assert failing and failing[0].counterexample is not None


def test_doubling_rules_skip_on_line():
    line = CDAlgebra(QQ, [])
    rep = verify_identities(line, "doubling_rules", samples=10, seed=1)
    assert rep.passed
    assert any(ln.note and "skip" in ln.note for ln in rep.lines)


def test_bilinear_is_trace_pairing(octonions):
    rng = random.Random(4)
    for _ in range(20):
        x = octonions.random_element(rng, 9)
        assert bilinear(x, octonions.one()) == x.trace()


def test_char2_tower_quadratic_stage():
    ext = CDAlgebra(F3, [-1])
    rng = random.Random(5)
    for _ in range(30):
        x = ext.random_element(rng)
        y = ext.random_element(rng)
        assert (x * y).norm() == x.norm() * y.norm()


# -- the structure-table kernel and the split projections over every base,
#    against the recursive doubling rule (_pmul, _pnorm) and the linalg
#    path as references

F7 = PrimeField(7)
F9 = QuadExt(F3, 0, 1)

# (base, betas) from dim 2 to 16; the first five, over Q, keep their old
# ids, and the dim-16 tower over Q stays the control beyond alternativity
TOWERS = [(QQ, [-1]), (QQ, [-1, -1]), (QQ, [-1, -1, -1]),
          (QQ, [-1, -1, -1, -1]), (QQ, ["-1/2", 3, "-5/7"]),
          (F3, [-1]), (F3, [-1, -1, -1]), (F5, [-1, -1]), (F5, [2, -1, 3]),
          (F5, [-1, -1, -1, -1]), (F7, [-1, -1]), (F7, [3, 5, 6]),
          (QI, [-1]), (QI, [-1, 3]), (QI, [(1, 2), -1, ("1/2", -3)]),
          (F9, [-1, -1]), (F9, [(1, 1), (0, 1), 2])]


def _ids(towers, old):
    """pytest ids: "betas<k>" for the first `old` towers, as before these
    tests ran over other bases, then base and dimension."""
    return (["betas%d" % k for k in range(old)]
            + ["%r-dim%d" % (base, 2 ** len(betas))
               for base, betas in towers[old:]])


def _payloads(x):
    return tuple(c.val for c in x.coords)


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_structure_table_matches_reference_rule(base, betas):
    from mforge.composition import _basis_constant, _pmul
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    payload_betas = [b.val for b in algebra.betas]
    bas = algebra.basis()
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            want = _pmul(base, payload_betas, _payloads(bas[i]),
                         _payloads(bas[j]))
            c = _basis_constant(base, payload_betas, i, j)
            assert want == tuple(c if k == i ^ j else base.zero_payload()
                                 for k in range(algebra.dim))
            assert _payloads(bas[i] * bas[j]) == want


def test_structure_table_matches_golden_table(octonions):
    from mforge.composition import _basis_constant
    betas = [b.val for b in octonions.betas]
    for i in range(8):
        for j in range(8):
            expect = GOLDEN_OCTONION_TABLE[i][j]
            assert abs(expect) - 1 == i ^ j
            assert (_basis_constant(QQ, betas, i, j)
                    == (1 if expect > 0 else -1))


def tower_rows_reference(field, betas):
    """The structure table expanded term by term over the basis E_u of the
    base field over Q or F_p, as the tower kernel built its rows before
    ``linalg._bilinear``: the oracle of the kernel's (rows, den)."""
    from mforge.composition import _basis_constant
    dim, r = 1 << len(betas), field.coord_dim
    units = linalg._units(field)
    terms = [((i ^ j) * r, i * r + u, j * r + t,
              field.mul(field.mul(_basis_constant(field, betas, i, j), eu),
                        et))
             for i in range(dim) for j in range(dim)
             for u, eu in units for t, et in units]
    return linalg._integer_rows(field, terms, dim * r)


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_kernel_rows_match_the_term_by_term_expansion(base, betas):
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    k = algebra._kernel
    assert (k.rows, k.den) == tower_rows_reference(
        base, [b.val for b in algebra.betas])


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_kernel_products_match_reference_rule(base, betas):
    from mforge.composition import _pmul
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    payload_betas = [b.val for b in algebra.betas]
    rng = random.Random(len(betas))
    for k in range(40):
        x = algebra.random_element(rng, 9)
        y = algebra.zero() if k == 0 else algebra.random_element(rng, 9)
        got = _payloads(x * y)
        want = _pmul(base, payload_betas, _payloads(x), _payloads(y))
        assert got == want
        assert all(type(g) is type(w) for g, w in zip(got, want))


def _reference_split(frame, x):
    """The split by Gauss-Jordan on Scalars: the solution of the frame
    matrix against x, read off the augmented matrix, then the
    coordinates recombined over the subalgebra basis."""
    from mforge.composition import _lin_comb
    algebra = frame.algebra
    cols = [list(b.coords) for b in frame.sub_basis]
    cols += [list((frame.e * b).coords) for b in frame.sub_basis]
    mat = [[col[i] for col in cols] for i in range(algebra.dim)]
    comps = solve_reference(algebra.base, mat, list(x.coords))
    k = len(frame.sub_basis)
    return (_lin_comb(frame.sub_basis, comps[:k]),
            _lin_comb(frame.sub_basis, comps[k:]))


def _gamma_w_frames(algebra, count):
    from mforge.octonion_aut import gamma_w_decompose
    rng = random.Random(17)
    frames = []
    for k in range(count):
        w = algebra.random_element(rng, 5, nonzero=True)
        phi, psi, _ = gamma_w_decompose(w, samples=1, seed=19 + k)
        frames += [phi.frame, psi.frame]
    return frames


def test_split_matches_linalg_reference(octonions):
    from mforge.composition import DoublingFrame
    from mforge.octonion_aut import standard_quaternion_frame
    rng = random.Random(6)
    for algebra in (octonions, CDAlgebra(F5, [-1, -1, -1]),
                    CDAlgebra(QI, [-1, 3, (1, 2)])):
        sub, e = standard_quaternion_frame(algebra)
        frames = ([DoublingFrame(algebra, sub, e)]
                  + _gamma_w_frames(algebra, 2))
        for frame in frames:
            for _ in range(15):
                x = algebra.random_element(rng, 9)
                h, y = frame.split(x)
                assert (h, y) == _reference_split(frame, x)
                assert frame.sub.contains(h) and frame.sub.contains(y)
                assert frame.combine(h, y) == x


def test_split_off_a_partial_frame_raises(octonions):
    from mforge.composition import DoublingFrame, NotInSpan
    pair = Subspace(octonions, [octonions.one(), octonions.unit(1)])
    frame = DoublingFrame(octonions, pair, octonions.unit(2))
    inside = octonions.element([1, 2, 3, 4, 0, 0, 0, 0])
    h, y = frame.split(inside)
    assert frame.combine(h, y) == inside
    with pytest.raises(NotInSpan):
        frame.split(octonions.unit(4))


CHAR2_TOWERS = [(F2, [1]), (F2, [1, 1, 1]), (F4, [1, (0, 1)]),
                (F4, [(1, 1), 1, (0, 1)])]


def _kernel_subspace(algebra, matrix):
    """The subspace of `kernel_reference`'s vectors: the span that
    Gauss-Jordan on Scalars gives for the kernel of the matrix."""
    return Subspace(algebra, [algebra.element(v) for v in
                              kernel_reference(algebra.base, matrix,
                                               algebra.dim)])


@pytest.mark.parametrize("base,betas", TOWERS + CHAR2_TOWERS,
                         ids=_ids(TOWERS + CHAR2_TOWERS, 5))
def test_complement_and_center_match_the_product_matrices(base, betas):
    """Complements read off the norm's polar rows, and the center read
    off the structure table, against the kernels of the Gram and
    commutator matrices built from tower products: the same basis, the
    same residual rows, and the same seeded sample."""
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    basis = algebra.basis()
    rng = random.Random(len(betas))
    spaces = [Subspace(algebra, []), Subspace(algebra, [algebra.one()]),
              Subspace(algebra, basis),
              subalgebra_generated(algebra, [algebra.random_element(rng, 5)])]
    spaces += [Subspace(algebra, [algebra.random_element(rng, 5)
                                  for _ in range(k)]) for k in (1, 2, 3)]
    pairs = [(orthogonal_complement(algebra, space), _kernel_subspace(
        algebra, [[bilinear(e, s) for e in basis] for s in space.basis()]))
             for space in spaces]
    pairs.append((center(algebra), _kernel_subspace(algebra, [
        [(b * e - e * b).coords[k] for b in basis]
        for e in basis for k in range(algebra.dim)])))
    for got, want in pairs:
        assert got.basis() == want.basis()
        assert got._residual == want._residual
        assert got == want
        assert (got.sample(random.Random(3))
                == want.sample(random.Random(3)))


@pytest.mark.parametrize("base,betas", TOWERS + CHAR2_TOWERS,
                         ids=_ids(TOWERS + CHAR2_TOWERS, 5))
def test_compiled_row_sets_match_the_term_by_term_contraction(base, betas):
    """The four compiled row sets of a tower's kernel against the term by
    term contraction of the same rows, on seeded elements and on products
    of products, whose integers are large."""
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    k = algebra._kernel
    rng = random.Random(len(betas))
    xs = [algebra.random_element(rng, 9) for _ in range(6)]
    for _ in range(2):
        xs += [(a * b) * (b * c) for a, b, c in zip(xs, xs[1:], xs[2:])]
    assert max(abs(n) for x in xs for n in x.nums) > 2 ** 64 or base != QQ
    for x, y in zip(xs, xs[::-1]):
        z = base.lift([random_scalar(base, rng, 9).val])[0]
        for rows, fn, B in ((k.rows, k.mul, y.nums),
                            (k.norm_rows, k.norm, x.nums),
                            (k.scalar_rows, k.mul_scalar, z),
                            (k.scale_rows, k.conj_mul_scalar, z)):
            assert fn(x.nums, B) == contract_reference(rows, x.nums, B)


def test_frame_build_reads_no_lowered_coordinates(octonions, monkeypatch):
    """A DoublingFrame is built from the stored integers of its basis:
    building one, checks included, lowers no element to base-field
    Scalars."""
    from mforge.composition import CDElement
    from mforge.octonion_aut import standard_quaternion_frame
    sub, e = standard_quaternion_frame(octonions)
    want = DoublingFrame(octonions, sub, e)

    def refuse(x):
        raise AssertionError("read CDElement.coords")
    monkeypatch.setattr(CDElement, "coords", property(refuse))
    frame = DoublingFrame(octonions, sub, e)
    x = octonions.element([1, 2, 3, 4, 5, 6, 7, 8])
    assert frame.split(x) == want.split(x)


NORM_TOWERS = [(QQ, [-1, -1, -1]), (QQ, ["-1/2", 3, "-5/7"]),
               (QQ, [1, 2])] + TOWERS[5:]


@pytest.mark.parametrize("base,betas", NORM_TOWERS, ids=_ids(NORM_TOWERS, 3))
def test_kernel_norm_and_inverse_match_reference_rule(base, betas):
    from mforge.composition import _pnorm
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    payload_betas = [b.val for b in algebra.betas]
    rng = random.Random(8)
    for _ in range(40):
        x = algebra.random_element(rng, 9, nonzero=True)
        n = _pnorm(base, payload_betas, _payloads(x))
        assert x.norm().val == n and type(x.norm().val) is type(n)
        if base.is_zero(n):
            with pytest.raises(NotInvertible):
                x.inverse()
            continue
        want = tuple(base.div(c, n) for c in _payloads(x.conj()))
        assert _payloads(x.inverse()) == want


def test_kernel_inverse_of_isotropic_element():
    isotropic = [CDAlgebra(QQ, [1]).element([1, 1]),
                 CDAlgebra(F5, [-1, -1, -1]).division_witness,
                 CDAlgebra(F9, [-1, -1]).division_witness]
    for x in isotropic:
        assert not x.is_zero() and x.norm().is_zero()
        with pytest.raises(NotInvertible):
            x.inverse()


# -- the stored integer form: canonical, compared by integers, lowered to
#    the same Scalars as the payload-wise reference rules

def _assert_canonical(x):
    algebra = x.algebra
    p = algebra.characteristic()
    assert type(x.nums) is tuple and type(x.den) is int
    assert len(x.nums) == algebra.dim * algebra.base.coord_dim
    assert all(type(n) is int for n in x.nums)
    if p:
        assert x.den == 1 and all(0 <= n < p for n in x.nums)
    else:
        assert x.den > 0 and math.gcd(x.den, *x.nums) == 1


def _operands(algebra, rng):
    """Random elements, the zero, the one and a unit, and two elements with
    a common denominator factor, so that sums and splits cancel."""
    xs = [algebra.random_element(rng, 9) for _ in range(6)]
    xs += [algebra.zero(), algebra.one(), algebra.unit(algebra.dim - 1)]
    half = algebra.from_base(algebra.base.one() / algebra.base.scalar(2)
                             if algebra.characteristic() != 2
                             else algebra.base.one())
    xs += [xs[0] * half, half - xs[0] * half]
    return xs


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_integer_form_is_canonical_after_every_operation(base, betas):
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    rng = random.Random(21)
    xs = _operands(algebra, rng)
    for x in xs:
        _assert_canonical(x)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        s = random_scalar(base, rng, 9, nonzero=True)
        results = [x + y, x - y, -x, x * y, x.scale(s), x * s,
                   x.conj(), 1 - x, x + 1, algebra.element(x.coords)]
        if not x.norm().is_zero():
            results.append(x.inverse())
        for z in results:
            _assert_canonical(z)
    if algebra.dim >= 2:
        sub = Subspace(algebra, algebra.basis()[:algebra.dim // 2])
        frame = DoublingFrame(algebra, sub, algebra.unit(algebra.dim // 2))
        for x in xs:
            h, y = frame.split(x)
            _assert_canonical(h)
            _assert_canonical(y)
            assert frame.combine(h, y) == x


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_equality_and_hash_follow_coords(base, betas):
    """Equality, hashes and keys read the stored integers: a key is
    (nums, den), taken without lowering to coords, and the same element
    reached by other routes has the same key."""
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    rng = random.Random(22)
    xs = _operands(algebra, rng)
    # the same elements reached other ways
    twins = [(x + xs[1]) - xs[1] for x in xs]
    routes = [[x * algebra.one(), x.conj().conj(), -(-x)] for x in xs]
    for x in xs + twins + sum(routes, []):
        assert x.key() == (x.nums, x.den) and x._coords is None
    for x, tx, others in zip(xs, twins, routes):
        assert x == tx and hash(x) == hash(tx)
        assert (x.nums, x.den) == (tx.nums, tx.den)
        assert all(y.key() == x.key() for y in others + [tx])
        assert algebra.element(x.coords).key() == x.key()
    for x in xs + twins:
        for y in xs + twins:
            assert (x == y) == (x.coords == y.coords)
            assert (x == y) == (x.key() == y.key())
            if x == y:
                assert hash(x) == hash(y)
    assert len(set(xs + twins)) == len(set(x.key() for x in xs))


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_coords_lower_to_the_reference_rule(base, betas):
    from mforge.composition import _pmul, _pnorm
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    payload_betas = [b.val for b in algebra.betas]
    rng = random.Random(23)
    for x, y in zip(_operands(algebra, rng), _operands(algebra, rng)):
        want = tuple(Scalar(base, c) for c in _pmul(
            base, payload_betas, _payloads(x), _payloads(y)))
        prod = x * y
        assert prod.coords == want
        assert algebra.element(want) == prod
        n = _pnorm(base, payload_betas, _payloads(x))
        assert x.norm() == Scalar(base, n)
        assert type(x.norm().val) is type(n)
        assert all(c.field == base for c in x.coords)


@pytest.mark.parametrize("base,betas", TOWERS, ids=_ids(TOWERS, 5))
def test_linear_operations_match_the_scalarwise_reference(base, betas):
    from mforge.composition import _pconj, _pnorm
    algebra = CDAlgebra(base, betas, allow_dim16=True)
    payload_betas = [b.val for b in algebra.betas]
    rng = random.Random(24)
    xs = _operands(algebra, rng)
    for x, y in zip(xs, xs[2:] + xs[:2]):
        a, b = _payloads(x), _payloads(y)
        s = random_scalar(base, rng, 9, nonzero=True)
        assert _payloads(x + y) == tuple(map(base.add, a, b))
        assert _payloads(x - y) == tuple(map(base.sub, a, b))
        assert _payloads(-x) == tuple(map(base.neg, a))
        assert _payloads(x.scale(s)) == tuple(base.mul(c, s.val) for c in a)
        assert _payloads(x.conj()) == _pconj(base, a)
        assert x.trace() == Scalar(base, base.add(a[0], a[0]))
        assert x.is_zero() == all(base.is_zero(c) for c in a)
        n = _pnorm(base, payload_betas, a)
        if not base.is_zero(n):
            assert _payloads(x.inverse()) == tuple(
                base.div(c, n) for c in _pconj(base, a))


@pytest.mark.parametrize("betas", [[-1], [-1, -1], [-1, -1, -1], [1, 2],
                                   ["-1/2", 3, "-5/7"]])
def test_rational_inverse_is_conj_over_norm(betas):
    algebra = CDAlgebra(QQ, betas)
    rng = random.Random(25)
    for _ in range(30):
        x = algebra.random_element(rng, 9, nonzero=True)
        if x.norm().is_zero():
            continue
        inv = x.inverse()
        assert inv == x.conj().scale(x.norm().inv())
        assert x * inv == algebra.one() == inv * x


# -- the division certificate over odd prime fields: the prefix walk finds
#    the first isotropic element of the full scan

def _scan_witness(algebra):
    return next((x for x in algebra.all_elements()
                 if not x.is_zero() and x.norm().is_zero()), None)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_division_witness_matches_the_scan(p, stages):
    rng = random.Random(p * 10 + stages)
    field = PrimeField(p)
    choices = [[-1] * stages, [1] * stages]
    choices += [[rng.randrange(1, p) for _ in range(stages)]
                for _ in range(3)]
    for betas in choices:
        algebra = CDAlgebra(field, betas)
        scan = _scan_witness(algebra)
        assert algebra.division_witness == scan
        if scan is None:
            assert algebra.division_status == "certified-exhaustive"
        else:
            assert algebra.division_status == "not-division"
            assert repr(algebra.division_witness) == repr(scan)


def test_large_prime_octonions_construct_quickly():
    start = time.perf_counter()
    algebra = CDAlgebra(PrimeField(10007), [-1, -1, -1])
    assert time.perf_counter() - start < 1.0
    w = algebra.division_witness
    assert algebra.division_status == "not-division"
    assert not w.is_zero() and w.norm().is_zero()


def _prefix_witness_reference(algebra):
    """The prefix walk the witness search replaced: every prefix
    x_0 .. x_(n-2) in order, each completed by the smaller root t of
    m_(n-1) t^2 = -S, if there is one."""
    import itertools
    f, p = algebra.base, algebra.characteristic()
    m = [1]
    for b in algebra.betas:
        m += [c * -b.val % p for c in m]
    last = pow(m[-1], -1, p)
    for prefix in itertools.product(range(p), repeat=algebra.dim - 1):
        s = sum(c * x * x for c, x in zip(m, prefix)) % p
        t = (0 if any(prefix) else None) if s == 0 else f.sqrt(-s * last)
        if t is not None:
            return prefix + (t,)
    return None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_division_witness_matches_the_prefix_walk(p):
    rng = random.Random(p)
    field = PrimeField(p)
    for stages in range(4):
        choices = [[-1] * stages, [1] * stages]
        choices += [[rng.randrange(1, p) for _ in range(stages)]
                    for _ in range(4)]
        for betas in choices:
            algebra = CDAlgebra(field, betas)
            want = _prefix_witness_reference(algebra)
            got = algebra._first_isotropic_odd_prime()
            assert (got if got is None else got.nums) == want, betas


@pytest.mark.parametrize("p", [100003, 2 ** 31 - 1, 2 ** 61 - 1])
def test_towers_over_large_primes_construct_in_bounded_time(p):
    """-1 is a non-square for these p = 3 (mod 4), so no prefix with one
    nonzero entry completes, which made the old walk linear in p."""
    field = PrimeField(p)
    start = time.perf_counter()
    line = CDAlgebra(field, [-1])
    towers = [CDAlgebra(field, [-1] * k) for k in (2, 3)]
    assert time.perf_counter() - start < 1.0
    assert line.division_status == "certified-exhaustive"
    for algebra in towers:
        w = algebra.division_witness
        assert algebra.division_status == "not-division"
        assert not w.is_zero() and w.norm().is_zero()
        assert w.nums[:algebra.dim - 3] == (0,) * (algebra.dim - 3)


@pytest.mark.parametrize("base,betas,value", [
    (QQ, [-1, -1], 3), (QQ, ["-1/2", 3], "5/7"), (F3, [-1, -1], 2),
    (F3, [-1], 1), (QI, [-1, 3], (1, 2)), (QI, [-1], ("1/2", "-3/4"))])
def test_scalar_valued_elements_hash_as_their_scalars(base, betas, value):
    algebra = CDAlgebra(base, betas)
    s = base.scalar(value)
    x = algebra.one().scale(s)
    assert x == s and hash(x) == hash(s)
    assert len({x, s}) == 1 and {x: 1}[s] == 1
    y = x + algebra.unit(1)
    assert y != s and len({x, y, s}) == 2


# -- identity suites over F_p: checked on all samples at once, stacked in
#    numpy, against the case-by-case path as the oracle

BIG_PRIME = 2 ** 31 - 1   # dim^2 (p - 1)^2 >= 2^63 from dim 2 on

STACKED_TOWERS = [
    (2, [1]), (2, [1, 1]), (2, [1, 1, 1]), (3, [-1]), (3, [1, 1]),
    (3, [-1, -1, -1]), (5, [2, -1, 3]), (5, [-1, -1, -1, -1]), (7, [3]),
    (7, [3, 5, 6]), (7, [-1, 2, 3, 4]), (1009, [-1, -1]),
    (1009, [5, 7, 11]), (BIG_PRIME, [-1]), (BIG_PRIME, [3, -1]),
    (BIG_PRIME, [-1, -1, -1]), (BIG_PRIME, [-1, 2, -1, 5])]


def _recorded_run(monkeypatch, algebra, suite, seed, samples):
    """The report of verify_identities and the next draw of its stream."""
    from mforge import composition
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(composition, "random",
                        types.SimpleNamespace(Random=Recorded))
    rep = verify_identities(algebra, suite, samples=samples, seed=seed)
    monkeypatch.undo()
    (rng,) = made
    return rep, rng.getrandbits(32)


def _by_case(monkeypatch, algebra, suite, seed, samples):
    from mforge import composition
    monkeypatch.setattr(composition, "_stacks", lambda algebra: None)
    return _recorded_run(monkeypatch, algebra, suite, seed, samples)


@pytest.mark.parametrize("p,betas", STACKED_TOWERS,
                         ids=["F%d-dim%d" % (p, 2 ** len(b))
                              for p, b in STACKED_TOWERS])
def test_stacked_suites_match_the_case_by_case_path(monkeypatch, p, betas):
    algebra = CDAlgebra(PrimeField(p), betas, allow_dim16=True)
    dtype = algebra._kernel.stacks.dtype
    assert (dtype is object) == (p == BIG_PRIME)
    samples = 12 if algebra.dim == 16 else 30
    for suite in (s for s in SUITES if s != "inverse"):
        for seed in range(4):
            got, after = _recorded_run(monkeypatch, algebra, suite, seed,
                                       samples)
            want, want_after = _by_case(monkeypatch, algebra, suite, seed,
                                        samples)
            assert got.to_json() == want.to_json(), (suite, seed)
            assert ([ln.index for ln in got.lines]
                    == [ln.index for ln in want.lines]), (suite, seed)
            assert after == want_after, (suite, seed)
        for few in (0, 1):
            got, after = _recorded_run(monkeypatch, algebra, suite, 5, few)
            want, want_after = _by_case(monkeypatch, algebra, suite, 5, few)
            assert (got.to_json(), after) == (want.to_json(), want_after)


def test_stacked_suites_report_failures_like_the_case_by_case_path(
        monkeypatch):
    """The dim-16 towers fail alternativity and Moufang; the line keeps
    the failing case's index, samples and counterexample, and the next
    law draws from the same point."""
    failing = 0
    for p in (3, 5, 1009, BIG_PRIME):
        algebra = CDAlgebra(PrimeField(p), [-1, -1, -1, -1],
                            allow_dim16=True)
        for suite in ("alternative", "moufang", "flexible"):
            for seed in range(4):
                got, after = _recorded_run(monkeypatch, algebra, suite,
                                           seed, 40)
                want, want_after = _by_case(monkeypatch, algebra, suite,
                                            seed, 40)
                assert got.to_json() == want.to_json()
                assert repr(got) == repr(want)
                assert ([ln.index for ln in got.lines]
                        == [ln.index for ln in want.lines])
                assert after == want_after
                failing += sum(not ln.passed for ln in got.lines)
    assert failing >= 24


def test_prime_field_suites_take_the_stacked_path(monkeypatch):
    """One draw call per law and no tower products over F_p; Q, Q(i), F4
    and the inverse suite go case by case.  The structure matrix is read
    on the first suite, not when the tower is built."""
    from mforge import composition
    calls = {"draws": 0, "mul": 0}
    draws, mul = composition._draws_below, CDElement.__mul__

    def counted_draws(rng, bounds):
        calls["draws"] += 1
        return draws(rng, bounds)

    def counted_mul(x, y):
        calls["mul"] += 1
        return mul(x, y)

    monkeypatch.setattr(composition, "_draws_below", counted_draws)
    monkeypatch.setattr(CDElement, "__mul__", counted_mul)
    algebra = CDAlgebra(PrimeField(1013), [3, 5, 7])
    assert "stacks" not in algebra._kernel.__dict__
    for suite in (s for s in SUITES if s != "inverse"):
        calls.update(draws=0, mul=0)
        rep = verify_identities(algebra, suite, samples=25, seed=1)
        assert rep.passed
        laws = len(composition._LAWS.get(suite, [None]))
        assert calls == {"draws": laws, "mul": 0}, suite
    assert "stacks" in algebra._kernel.__dict__
    for tower, suite in [(CDAlgebra(QQ, [-1, -1]), "moufang"),
                         (CDAlgebra(QI, [-1, 3]), "alternative"),
                         (CDAlgebra(F4, [1, (0, 1)]), "moufang"),
                         (CDAlgebra(PrimeField(1013), [3, 5, 7]), "inverse")]:
        calls.update(draws=0, mul=0)
        verify_identities(tower, suite, samples=5, seed=1)
        assert calls["draws"] == 0 and calls["mul"] > 0, (tower, suite)
