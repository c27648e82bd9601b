import itertools
import operator
import random

import pytest

from mforge import linalg
from mforge.composition import CDAlgebra, CDElement, Subspace
from mforge.quadspace import QSVector, QuadraticSpace, space_from_algebra
from mforge.scalars import (F2, F3, F4, F5, QI, QQ, PrimeField, QuadExt,
                            Scalar, random_scalar)

F9 = QuadExt(F3, 0, 1)
F101 = PrimeField(101)
PROJECTOR_FIELDS = [QQ, F5, F101, QI, F4, F9]
KERNEL_FIELDS = [QQ, F2, F3, F5, QI, F4, F9]


def mat(field, rows):
    return [[field.scalar(v) for v in row] for row in rows]


def _mat_vec(m, v):
    """m applied to v by Scalar products: the oracle of the integer rows
    of ``foundations.GLinear``."""
    field = m[0][0].field
    return [sum((a * b for a, b in zip(row, v)), field.zero()) for row in m]


def rref_reference(matrix):
    """Reduced row echelon form by Gauss-Jordan on Scalars, (rows,
    pivot columns): the oracle of the integer elimination."""
    m = [row[:] for row in matrix]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [a * inv for a in m[r]]
        for i in range(n_rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def solve_reference(field, matrix, rhs):
    """One solution of M x = b, read off `rref_reference` of [M | b], the
    free unknowns set to 0; None if there is none."""
    n = len(matrix[0]) if matrix else 0
    red, pivots = rref_reference([row + [b] for row, b in zip(matrix, rhs)])
    if n in pivots:
        return None
    x = [field.zero()] * n
    for row, pc in zip(red, pivots):
        x[pc] = row[n]
    return x


def kernel_reference(field, matrix, n):
    """The free-column basis of {x : M x = 0} read off `rref_reference`:
    for each free column f, 1 at f and minus the reduced rows' column f
    at their pivots."""
    red, pivots = rref_reference(matrix)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [field.zero()] * n
        vec[fc] = field.one()
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def contract_reference(rows, A, B):
    """sum(n * A[i] * B[j]) over the terms (i, j, n) of each row, term by
    term: the oracle of the compiled contraction ``linalg._compiled``."""
    nums = []
    for row in rows:
        s = 0
        for i, j, n in row:
            s += n * A[i] * B[j]
        nums.append(s)
    return nums


def _rref(matrix):
    """The reduced K-rows and their pivots from `linalg._reduced`."""
    field = matrix[0][0].field
    r = field.coord_dim
    _, kept = linalg._reduced(field, linalg._expanded(field, matrix)[0])
    return ([[Scalar(field, v) for v in field.lower(row, row[pc])]
             for row, pc in kept], [pc // r for _, pc in kept])


def _kernel(field, matrix, n):
    """`linalg._kernel` of a matrix of Scalars, as vectors of Scalars: its
    integer rows are the transpose of its expanded columns."""
    cols = linalg._expanded(field, [list(c) for c in zip(*matrix)])[0]
    vecs, d = linalg._kernel(field, [list(r) for r in zip(*cols)], n)
    return [[Scalar(field, a) for a in field.lower(v, d)] for v in vecs]


def _projector(field, basis, dim=None, recombine=None):
    """A Projector onto vectors of Scalars, expanded as callers do."""
    return linalg.Projector(field, linalg._expanded(field, basis), dim,
                            recombine)


def test_compiled_rows_match_the_term_by_term_contraction():
    """Rows with large, negative and unit coefficients, a repeated pair
    and a row with no terms, whose value is 0; A and B differ in length."""
    rows = (((0, 1, 1), (2, 0, -1), (1, 1, 10 ** 30)), (),
            ((2, 1, -7), (2, 1, 3), (0, 0, -1)))
    f = linalg._compiled(rows, 3, 2)
    for A, B in (((1, 2, 3), (4, 5)), ((-3 ** 40, 0, 7), (2 ** 70, -1))):
        assert f(A, B) == contract_reference(rows, A, B)
    assert f((1, 2, 3), (4, 5))[1] == 0
    with pytest.raises(ValueError):
        f((1, 2), (4, 5))


@pytest.mark.parametrize("term", [(0, 0, 1.5), (0, 0, True),
                                  (0, 0, "__import__('os')"), ("0", 0, 1),
                                  (0, 0.0, 1)])
def test_compiled_rows_refuse_a_term_that_is_not_integers(term):
    """Only integers are written into the compiled source: anything else
    raises TypeError, also under python -O."""
    with pytest.raises(TypeError):
        linalg._compiled((((0, 0, 1), term),), 1, 1)


def test_rref_pivots():
    m = mat(QQ, [[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    red, pivots = _rref(m)
    assert pivots == [0, 2]
    assert len(red) == 2
    assert (red, pivots) == rref_reference(m)


def test_solve_and_residual():
    m = mat(QQ, [[2, 1], [1, 3]])
    rhs = [QQ.scalar(5), QQ.scalar(10)]
    x = _projector(QQ, [list(c) for c in zip(*m)]).coefficients(rhs)
    assert _mat_vec(m, x) == rhs


def test_solve_inconsistent():
    m = mat(QQ, [[1, 1], [1, 1]])
    proj = _projector(QQ, [list(c) for c in zip(*m)])
    with pytest.raises(linalg.NotInSpan):
        proj.coefficients([QQ.scalar(0), QQ.scalar(1)])


def test_invert_round_trip():
    from mforge.foundations import GLinear
    from mforge.handles import as_handle
    h = as_handle(CDAlgebra(QQ, [-1, -1]))
    rng = random.Random(3)
    inverted = 0
    for _ in range(10):
        m = [[random_scalar(QQ, rng, 5) for _ in range(4)] for _ in range(4)]
        try:
            inv = GLinear(m, h).inverse().matrix
        except ValueError:
            continue
        inverted += 1
        prod = [[sum((m[i][k] * inv[k][j] for k in range(4)), QQ.zero())
                 for j in range(4)] for i in range(4)]
        assert prod == [[QQ.scalar(int(i == j)) for j in range(4)]
                        for i in range(4)]
    assert inverted >= 8


@pytest.mark.parametrize("carrier", [CDAlgebra(QI, [-1, 3]), QI, F4],
                         ids=["QI-tower", "QI", "F4"])
def test_glinear_applies_on_integer_rows(carrier):
    """GLinear applies its matrix on integer coordinates over Q or F_p;
    the Scalar matrix-vector product is its oracle, on both readings."""
    from mforge.foundations import GLinear
    from mforge.handles import as_handle
    h = as_handle(carrier)
    rng = random.Random(5)
    n, field = h.coord_dim, h.coord_field
    for reading in (h, h.opposite()):
        m = [[random_scalar(field, rng, 5) for _ in range(n)]
             for _ in range(n)]
        lin = GLinear(m, reading)
        for _ in range(6):
            x = reading.random(rng, 9)
            assert lin.apply(x) == carrier.element(_mat_vec(m, x.coords))


def test_kernel_orthogonal_to_rows():
    m = mat(F5, [[1, 2, 3, 4], [2, 4, 1, 0]])
    ker = _kernel(F5, m, 4)
    assert len(ker) == 2
    for vec in ker:
        assert all(r.is_zero() for r in _mat_vec(m, vec))


def test_kernel_of_empty_matrix_is_everything():
    vecs, d = linalg._kernel(QQ, [], 3)
    assert (vecs, d) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


def test_in_span():
    proj = _projector(QQ, mat(QQ, [[1, 0, 1], [0, 1, 1]]))
    assert proj.contains([QQ.scalar(2), QQ.scalar(3), QQ.scalar(5)])
    assert not proj.contains([QQ.scalar(0), QQ.scalar(0), QQ.scalar(1)])


def _combination(field, rng, basis, n):
    acc = [field.zero()] * n
    for b in basis:
        c = random_scalar(field, rng, 5)
        acc = [a + c * x for a, x in zip(acc, b)]
    return acc


def _bases(field, rng, n):
    """(label, basis) for a spanning, a non-spanning, a rank-deficient and
    an empty basis of K^n."""
    def vec():
        return [random_scalar(field, rng, 5) for _ in range(n)]
    low = [vec() for _ in range(n - 2)]
    return [("spanning", [vec() for _ in range(n)]),
            ("partial", low),
            ("deficient", [low[0], low[1], low[0],
                           _combination(field, rng, low, n)]),
            ("empty", [])]


def _recombination(field, rng, k):
    """A 3 x k matrix: a random row, a zero row and the first reversed."""
    row = [random_scalar(field, rng, 5) for _ in range(k)]
    return [row, [field.zero()] * k, row[::-1]]


def _integer_recombine(field, matrix):
    """The `recombine` pair (R, D) of a matrix over K acting on the
    expanded coefficients: entry ((q, s), (j, u)) of R over D is
    coordinate s of matrix[q][j] * E_u."""
    r = field.coord_dim
    w, d = linalg._expanded(field, matrix)
    return [[w[q * r + u][j * r + s] for j in range(len(matrix[0]))
             for u in range(r)]
            for q in range(len(matrix)) for s in range(r)], d


@pytest.mark.parametrize("field", PROJECTOR_FIELDS, ids=repr)
def test_projector_matches_solve(field):
    """Coefficients are the solution read off Gauss-Jordan on Scalars of
    the augmented matrix, and membership is there being one, on and off
    the span; a recombination is the matrix product with those
    coefficients."""
    rng = random.Random(11)
    n = 5
    for label, basis in _bases(field, rng, n):
        proj = _projector(field, basis, n)
        recombine = _recombination(field, rng, len(basis)) if basis else None
        folded = _projector(field, basis, n, recombine=recombine and
                                  _integer_recombine(field, recombine))
        matrix = [[b[i] for b in basis] for i in range(n)]
        tests = [_combination(field, rng, basis, n) for _ in range(6)]
        tests += [[random_scalar(field, rng, 5) for _ in range(n)]
                  for _ in range(6)]
        tests.append([field.zero()] * n)
        inside = 0
        for x in tests:
            want = solve_reference(field, matrix, x)
            assert proj.contains(x) == (want is not None), label
            assert folded.contains(x) == proj.contains(x), label
            if want is None:
                with pytest.raises(linalg.NotInSpan):
                    proj.coefficients(x)
                with pytest.raises(linalg.NotInSpan):
                    folded.coefficients(x)
            else:
                inside += 1
                assert list(proj.coefficients(x)) == want, label
                if recombine:
                    assert (list(folded.coefficients(x))
                            == _mat_vec(recombine, want)), label
        assert inside >= 7, label


class _Vector(tuple):
    """A vector of K^n that is its own tuple of coordinates."""

    coords = property(lambda v: v)


class _Coordinates:
    """K^n as a carrier whose elements are their own coordinates."""

    def __init__(self, field, n):
        self.coord_field, self.coord_dim = field, n

    def element(self, coords):
        return _Vector(coords)


@pytest.mark.parametrize("field", PROJECTOR_FIELDS, ids=repr)
def test_projector_onto_reduced_rows_needs_no_elimination(field):
    """Membership in the span of reduced rows needs no elimination of its
    own: a Subspace reads it off the integer rows of the one reduction
    that gives its basis, the rows of `rref_reference`.  It agrees with
    the full Projector on the original basis, for vectors of K^5 and for
    the stored integers of a tower's elements."""
    rng = random.Random(12)
    tower = CDAlgebra(field, [1, 1])
    for n, carrier in ((5, _Coordinates(field, 5)), (4, tower)):
        for label, basis in _bases(field, rng, n):
            span = Subspace(carrier, [carrier.element(b) for b in basis])
            reference = _projector(field, basis, n)
            assert ([list(b.coords) for b in span.basis()]
                    == rref_reference(basis)[0]), label
            tests = [_combination(field, rng, basis, n) for _ in range(6)]
            tests += [[random_scalar(field, rng, 5) for _ in range(n)]
                      for _ in range(6)]
            inside = 0
            for x in tests:
                want = reference.contains(x)
                inside += want
                assert span.contains(carrier.element(x)) == want, label
            assert 6 <= inside < len(tests) or label == "spanning", label


def test_projector_folds_a_recombination():
    rng = random.Random(4)
    basis = [[random_scalar(QI, rng, 5) for _ in range(4)] for _ in range(3)]
    recombine = [[random_scalar(QI, rng, 5) for _ in range(3)]
                 for _ in range(2)]
    proj = _projector(QI, basis,
                            recombine=_integer_recombine(QI, recombine))
    plain = _projector(QI, basis)
    for _ in range(5):
        x = _combination(QI, rng, basis, 4)
        assert (list(proj.coefficients(x))
                == _mat_vec(recombine, list(plain.coefficients(x))))


def test_subfield_projection_off_the_subfield_raises():
    from mforge.composition import NotInSpan, quaternions_q
    from mforge.pseudoquad import _subfield_maps
    H = quaternions_q()
    embed, project, _ = _subfield_maps(H, QI, H.unit(1), H.unit(2))
    s = QI.scalar((3, -2))
    assert project(embed(s)) == s
    assert NotInSpan is linalg.NotInSpan and issubclass(NotInSpan, ValueError)
    with pytest.raises(NotInSpan):
        project(H.unit(2))


def _det(m):
    """Determinant by permutation expansion."""
    field, n = m[0][0].field, len(m)
    acc = field.zero()
    for perm in itertools.permutations(range(n)):
        sign = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = field.one()
        for i, j in enumerate(perm):
            term = term * m[i][j]
        acc = acc - term if sign % 2 else acc + term
    return acc


def test_rank_brute_force_oracle():
    # oracle: rank = largest k with an invertible k x k minor
    rng = random.Random(9)
    for _ in range(8):
        m = [[random_scalar(F5, rng) for _ in range(4)] for _ in range(3)]
        carrier = _Coordinates(F5, 4)
        got = Subspace(carrier, [carrier.element(row) for row in m]).dim
        best = 0
        for k in range(1, 4):
            for rows in itertools.combinations(range(3), k):
                for cols in itertools.combinations(range(4), k):
                    minor = [[m[r][c] for c in cols] for r in rows]
                    if not _det(minor).is_zero():
                        best = max(best, k)
        assert got == best


def _planted(field, rng, n_rows, n_cols):
    """A random matrix with a zero column, and rows that are zero, copies,
    negatives or sums of multiples of earlier rows."""
    zero_col = rng.randrange(n_cols)
    rows = []
    for _ in range(n_rows):
        kind = rng.choice(["random"] * 3 + ["zero", "negated", "combined"])
        if kind == "zero" or not rows and kind != "random":
            row = [field.zero()] * n_cols
        elif kind == "negated":
            row = [-a for a in rng.choice(rows)]
        elif kind == "combined":
            a, b = (random_scalar(field, rng, 5) for _ in range(2))
            u, v = rng.choice(rows), rng.choice(rows)
            row = [a * s + b * t for s, t in zip(u, v)]
        else:
            row = [random_scalar(field, rng, 9) for _ in range(n_cols)]
        row[zero_col] = field.zero()
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F101, QI, F4, F9],
                         ids=repr)
def test_rref_matches_the_scalar_reference(field):
    """The integer reduction, over Q and F_p and over their quadratic
    extensions, returns the rows and pivots of Gauss-Jordan on Scalars,
    on every shape from 1 x 1 to 8 x 16."""
    rng = random.Random(21)
    negative_leads = 0
    for n_rows in range(1, 9):
        for n_cols in range(1, 17):
            m = _planted(field, rng, n_rows, n_cols)
            assert _rref(m) == rref_reference(m), m
            if field == QQ:
                negative_leads += sum(
                    1 for row in m
                    if next((a.val for a in row if a.val), 0) < 0)
    assert field != QQ or negative_leads > 100


def _low_rank(field, rng, n_rows, n_cols):
    """A product of random n_rows x k and k x n_cols matrices, k < both."""
    k = rng.randrange(min(n_rows, n_cols))
    left = [[random_scalar(field, rng, 5) for _ in range(k)]
            for _ in range(n_rows)]
    right = [[random_scalar(field, rng, 5) for _ in range(n_cols)]
             for _ in range(k)]
    return [[sum((a * right[t][j] for t, a in enumerate(row)), field.zero())
             for j in range(n_cols)] for row in left]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_kernel_matches_the_scalar_reference(field):
    """The kernel on integer rows is, vector for vector, the free-column
    basis read off Gauss-Jordan on Scalars: on planted, zero and low-rank
    matrices from 1 x 1 to 6 x 8, and M x = 0 for each vector."""
    rng = random.Random(23)
    for n_rows in range(1, 7):
        for n_cols in range(1, 9):
            zero = [[field.zero()] * n_cols for _ in range(n_rows)]
            for m in (_planted(field, rng, n_rows, n_cols), zero,
                      _low_rank(field, rng, n_rows, n_cols)):
                ker = _kernel(field, m, n_cols)
                assert ker == kernel_reference(field, m, n_cols), m
                for vec in ker:
                    assert all(a.is_zero() for a in _mat_vec(m, vec))


# -- the vector protocol shared by tower elements and space vectors

INT_SPACES = {
    "tower": lambda: CDAlgebra(QQ, [-1, 3]),
    "space": lambda: QuadraticSpace(QQ, [1, "2/3"], {(0, 1): 1}, [1, 0],
                                    anisotropy="attested"),
}


@pytest.mark.parametrize("kind", sorted(INT_SPACES))
def test_tower_elements_and_space_vectors_share_one_protocol(kind):
    """Sums, differences, negation, the zero test, equality, keys, hashes,
    coordinates and reprs come from ``linalg.IntVector``, and vectors from
    coordinates, zero, units, draws and enumeration from
    ``linalg.IntSpace``.  Equal vectors of two equal spaces hash alike; a
    tower element equals the base-field scalar it embeds, a space vector
    equals no list of coordinates, and the two kinds never equal."""
    owner, twin = INT_SPACES[kind](), INT_SPACES[kind]()
    assert twin is not owner and twin == owner
    assert isinstance(owner, linalg.IntSpace)
    assert not {"element", "zero", "unit", "basis", "random_element",
                "all_elements", "_expanded"} & set(vars(type(owner)))
    rng = random.Random(4)
    xs = owner.basis() + [owner.zero()] + [owner.random_element(rng, 9)
                                           for _ in range(6)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert isinstance(x, linalg.IntVector) and x.owner is owner
        assert not {"coords", "__add__", "__radd__", "__sub__", "__rsub__",
                    "__neg__", "is_zero", "__eq__", "__hash__",
                    "__repr__"} & set(vars(type(x)))
        assert (x + y).coords == tuple(map(operator.add, x.coords, y.coords))
        assert (x - y).coords == tuple(map(operator.sub, x.coords, y.coords))
        assert (-x).coords == tuple(map(operator.neg, x.coords))
        assert x.is_zero() == all(c.is_zero() for c in x.coords)
        same = twin.element(x.coords)
        assert same == x and (same.nums, same.den) == (x.nums, x.den)
        assert hash(same) == hash(x) == hash((x.nums, x.den))
        assert (x == y) == ((x.nums, x.den) == (y.nums, y.den))
        assert repr(x) == "(%s)" % ", ".join(repr(c) for c in x.coords)
        assert x != list(x.coords)
    if kind == "tower":
        three = owner.one().scale(QQ.scalar(3))
        assert three == owner.from_base(3) and three != owner.from_base(4)
        assert three != QQ.scalar(3) and three != 3
        assert 3 + owner.zero() == three and 4 - owner.one() == three
        assert owner.one().algebra is owner
    else:
        assert not owner.vector([1, 0]) == [1, 0]
        assert owner.vector([1, 0]) != [1, 0]
        assert owner.basepoint.space is owner
    tower = CDAlgebra(QQ, [-1, -1])
    space = space_from_algebra(tower)
    assert isinstance(tower.one(), CDElement)
    assert isinstance(space.basepoint, QSVector)
    assert ((tower.one().nums, tower.one().den)
            == (space.basepoint.nums, space.basepoint.den))
    assert tower.one() != space.basepoint and space.basepoint != tower.one()
