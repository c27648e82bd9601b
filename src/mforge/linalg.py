"""Exact linear algebra over any of the scalar fields.

Matrices are lists of rows of Scalars; sizes stay at desk scale (<= 16).
There is one reduction, for every field: ``_expanded`` writes the vectors
over Q or F_p, the coordinate field of K, and one integer Gauss-Jordan,
``_eliminate``, reduces them, fraction-free over Q and modulo p over F_p.
``rref`` reads the K-rows off the result, and ``composition.Subspace``
its membership test as well.  ``kernel_basis``, ``solve``, ``invert`` and
``mat_vec`` sit on top of ``rref``; ``rref_reference``, Gauss-Jordan on
Scalars, is the oracle of the tests only.

The fast paths are K-linear maps expanded once into integer rows over Q
or F_p: ``_integer_rows`` builds the tower product table, ``_contract``
applies it to integer coordinates over one denominator and ``_scalars``
lowers the result.  A ``Projector`` answers for the coordinates of x in
a fixed, arbitrary basis and whether x lies in its span, for doubling
frames and subfields: it eliminates the expanded basis with
``_eliminate`` and keeps integer rows, with no Scalar arithmetic.  Tower
elements are stored in that integer form and go in without a lift.
"""

from __future__ import annotations

import math
import operator

from .scalars import Scalar


class NotInSpan(ValueError):
    pass


def identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_vec(m, v):
    field = m[0][0].field
    out = []
    for row in m:
        acc = field.zero()
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns), from
    the one reduction `_reduced`, over every field."""
    if not matrix:
        return [], []
    return _reduced(matrix[0][0].field, matrix)[:2]


def _reduced(field, vectors):
    """(K-rows, K-pivots, rows, pivots): the vectors expanded over Q or F_p
    (`_expanded`) and reduced in place by `_eliminate`, and the reduced
    rows over K read off them.  For the K-rows R_j with pivots p_j, each
    E_u * R_j has its pivot 1 at column r * p_j + u, r = coord_dim, and 0
    at every other such column: these are the integer rows, up to scaling
    over Q, and the R_j are those with a pivot at a multiple of r."""
    rows = _expanded(field, vectors)[0]
    pivots = _eliminate(rows, field.characteristic())
    r = field.coord_dim
    kept = [(row, pc) for row, pc in zip(rows, pivots) if pc % r == 0]
    return ([[Scalar(field, v) for v in field.lower(row, row[pc])]
             for row, pc in kept], [pc // r for _, pc in kept], rows, pivots)


def _residual(rows, pivots, n):
    """Sparse integer rows that vanish on X, of length n, exactly when X
    lies in the span of `_reduced`'s rows: X - sum(X[p_j] * row_j / a_j),
    for the pivot entry a_j of row j, read at the non-pivot columns and
    scaled by the lcm of the a_j (1 over F_p)."""
    den = math.lcm(*[row[pc] for row, pc in zip(rows, pivots)])
    return tuple(((c, den),) + tuple((pc, -(den // row[pc]) * row[c])
                                     for row, pc in zip(rows, pivots)
                                     if row[c])
                 for c in range(n) if c not in pivots)


def _vanishes(rows, X, p):
    """Whether the sparse integer rows all vanish on X, modulo p over F_p."""
    res = _apply(rows, X)
    return not any(n % p for n in res) if p else not any(res)


def rref_reference(matrix):
    """`rref` by Gauss-Jordan on Scalars: the oracle the integer reduction
    is tested against.  Nothing calls it at run time."""
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


def _eliminate(rows, p):
    """Gauss-Jordan on a list of integer rows, in place, over F_p, or over
    Q when p = 0.  Returns the pivot columns; row k then holds pivot k's
    reduced row, and the rows below the last pivot are zero.

    Over F_p the rows are residues and each pivot entry is 1.  Over Q the
    elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): a row is
    cleared by cross-multiplying with the pivot row and is then divided by
    its gcd, so a reduced row is the true one times its pivot entry.  The
    pivot is the first nonzero entry at or below row k, as in
    `rref_reference`, and every row stays a nonzero multiple of that
    elimination's row, so the pivots agree."""
    if not p:
        for k, row in enumerate(rows):
            g = math.gcd(*row)
            if g > 1:
                rows[k] = [a // g for a in row]
    n_rows, pivots = len(rows), []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow, a = rows[r], rows[r][c]
        if p and a != 1:
            inv = pow(a, -1, p)
            prow = rows[r] = [b * inv % p for b in prow]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            if p:
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
            else:
                row = [x * a - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return pivots


def rank(matrix):
    return len(rref(matrix)[0])


def kernel_basis(matrix, field, n_cols=None):
    """Basis of the right kernel {x : M x = 0}."""
    if not matrix:
        return identity(field, n_cols)
    n_cols = len(matrix[0])
    red, pivots = rref(matrix)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero()] * n_cols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution of M x = b, or None if inconsistent."""
    field = rhs[0].field if rhs else matrix[0][0].field
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    n_cols = len(matrix[0])
    for row in red:
        if all(a.is_zero() for a in row[:n_cols]) and not row[n_cols].is_zero():
            return None
    x = [field.zero()] * n_cols
    for r, pc in enumerate(pivots):
        if pc == n_cols:
            return None
        x[pc] = red[r][n_cols]
    return x


def invert(matrix):
    """Inverse of a square matrix, or None if singular."""
    n = len(matrix)
    field = matrix[0][0].field
    aug = [row[:] + ident_row for row, ident_row in zip(matrix, identity(field, n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def _contract(rows, A, B):
    nums = []
    for row in rows:
        s = 0
        for i, j, n in row:
            s += n * A[i] * B[j]
        nums.append(s)
    return nums


def _scalars(field, nums, den):
    """The Scalars whose integer coordinates over Q or F_p are nums / den."""
    return tuple([Scalar(field, v) for v in field.lower(nums, den)])


def _units(field):
    """(u, E_u) for the basis E_u of the base field over Q or F_p."""
    r = field.coord_dim
    return list(enumerate(field.lower(
        [int(s == u) for u in range(r) for s in range(r)], 1)))


def _integer_rows(field, terms, size):
    """(rows, den): rows of terms (i, j, n), row q standing for
    sum(n * A[i] * B[j]) / den on integer coordinates over Q or F_p.  A
    term (q, i, j, z) puts coordinate s of the payload z in row q + s."""
    r = field.coord_dim
    nums, den = field.lift([z for _, _, _, z in terms])
    rows = [[] for _ in range(size)]
    for k, (q, i, j, _) in enumerate(terms):
        for s, n in enumerate(nums[k * r:(k + 1) * r]):
            if n:
                rows[q + s].append((i, j, n))
    return tuple(tuple(row) for row in rows), den


def _expanded(field, vectors):
    """(V, D): integer rows V over one denominator D, row r*v + u holding
    the coordinates over Q or F_p of E_u * vectors[v], for the basis E_u
    of the base field over Q or F_p (``_units``)."""
    r = field.coord_dim
    if r == 1:
        vals = [a.val for v in vectors for a in v]
    else:
        units = [eu for _, eu in _units(field)]
        vals = [field.mul(eu, a.val) for v in vectors for eu in units
                for a in v]
    nums, den = field.lift(vals)
    size = len(vectors[0]) * r if vectors else 1
    return [nums[i:i + size] for i in range(0, len(nums), size)], den


def _sparse(rows):
    """Integer rows as (i, n) pairs of their nonzero entries."""
    return tuple(tuple((i, n) for i, n in enumerate(row) if n)
                 for row in rows)


def _apply(rows, X):
    """The integer rows of ``_sparse`` applied to X."""
    nums = []
    for row in rows:
        s = 0
        for i, n in row:
            s += n * X[i]
        nums.append(s)
    return nums


class Projector:
    """Coordinates in a fixed basis of K^n, and membership in its span.

    Everything runs on integer coordinates over Q or F_p, the coordinate
    field F of K.  A vector x of K^n lies in the K-span of the basis b_j
    exactly when it lies in the F-span of the expanded basis E_u * b_j
    (``_expanded``), and the F-coordinates of x there are the
    F-coordinates of its K-coefficients.  With the expanded vectors as
    the columns of M, one integer Gauss-Jordan (``_eliminate``) of [M | I]
    gives an invertible E with E * M reduced.  A row
    of E whose pivot lies in M gives the coefficient of that pivot's
    vector; the others get 0, as ``solve`` chooses.  The pivots over F
    are the E_u * b_j of the pivots over K, so a dependent b_j gets 0 as
    well.  The remaining rows of E, the residual map, vanish exactly on
    the span.  A call lifts x once, or takes x already lifted
    (``coefficients_lifted``), and takes integer dot products.  A fixed
    `recombine` matrix over K, one column per basis vector, is expanded
    the same way and multiplied into the coefficient rows as integers.
    An empty basis needs its `dim`.
    """

    def __init__(self, field, basis, dim=None, recombine=None):
        r, p = field.coord_dim, field.characteristic()
        n, k = (len(basis[0]) if basis else dim) * r, len(basis) * r
        vecs, d = _expanded(field, basis)
        rows = [[v[i] for v in vecs] + [int(i == j) for j in range(n)]
                for i in range(n)]
        pivots = _eliminate(rows, p)
        in_m = sum(1 for pc in pivots if pc < k)
        den = math.lcm(*[row[pc] for row, pc in zip(rows, pivots[:in_m])])
        coeff = [[0] * n for _ in range(k)]
        for row, pc in zip(rows, pivots[:in_m]):
            m = d * (den // row[pc])
            coeff[pc] = [m * a for a in row[k:]]
        residual = [row[k:] for row in rows[in_m:]]
        if recombine is not None:
            # entry ((q, s), (j, u)): coordinate s of recombine[q][j] * E_u
            w, dr = _expanded(field, recombine)
            cols = list(zip(*coeff))
            coeff = [[sum(map(operator.mul, row, col)) for col in cols]
                     for row in ([w[q * r + u][j * r + s]
                                  for j in range(len(basis))
                                  for u in range(r)]
                                 for q in range(len(recombine))
                                 for s in range(r))]
            den *= dr
        g = math.gcd(den, *[a for row in coeff for a in row])
        if g > 1:
            den //= g
            coeff = [[a // g for a in row] for row in coeff]
        self.field, self._p = field, p
        self._coeff = _sparse(coeff), den
        self._residual = _sparse(residual)

    def contains(self, vec):
        return _vanishes(self._residual,
                         self.field.lift([c.val for c in vec])[0], self._p)

    def coefficients(self, vec):
        """The (recombined) coefficients of vec; NotInSpan off the span."""
        return _scalars(self.field, *self.coefficients_lifted(
            *self.field.lift([c.val for c in vec])))

    def coefficients_lifted(self, X, d):
        """`coefficients` of the vector X / d, as (integer coordinates, one
        denominator), neither reduced."""
        if not _vanishes(self._residual, X, self._p):
            raise NotInSpan("vector is outside the span")
        rows, den = self._coeff
        return _apply(rows, X), den * d
