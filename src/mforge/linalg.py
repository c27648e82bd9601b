"""Exact linear algebra over any of the scalar fields.

Matrices are lists of rows of Scalars.  ``rref`` is plain Gaussian
elimination (sizes stay at desk scale, <= 16); ``solve``, ``invert`` and
``mat_vec`` on top of it are the reference the fast paths are tested
against.  The fast paths are K-linear maps expanded once into integer rows
over Q or F_p, the coordinate field of K: ``_integer_rows`` builds them,
``_contract`` applies them to integer coordinates over one denominator and
``_scalars`` lowers the result.  The tower product table is such rows, and
so is a ``Projector``: the coordinates of x in a fixed basis and whether x
lies in its span, for doubling frames, subfields and spans alike.  Tower
elements are stored in that integer form and go in without a lift.
"""

from __future__ import annotations

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
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
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


class Projector:
    """Coordinates in a fixed basis of K^n, and membership in its span.

    With the basis vectors as the columns of M, one ``rref`` of [M | I]
    gives an invertible E with E * M reduced.  A row of E whose pivot lies
    in M gives the coefficient of that pivot's basis vector; the others
    get 0, as ``solve`` chooses.  The remaining rows of E, the residual
    map, vanish exactly on the span.  Both maps become integer rows over Q
    or F_p, so a call lifts x once, or takes x already lifted (the
    ``*_lifted`` methods), and takes integer dot products.  A fixed
    `recombine` matrix, one column per basis vector, folds into the
    coefficients.  An empty basis needs its `dim`.

    A basis that is ``rref`` output, passed with its `pivots`, needs no
    elimination: the coefficient of row R_r is x[p_r] at its pivot p_r,
    and x - sum(x[p_r] * R_r), read at the other columns, is the residual.
    """

    def __init__(self, field, basis, dim=None, recombine=None, pivots=None):
        n, k = len(basis[0]) if basis else dim, len(basis)
        ident = identity(field, n)
        if pivots is None:
            red, pivots = rref([[v[i] for v in basis] + row
                                for i, row in enumerate(ident)])
            rows = dict(zip(pivots, (row[k:] for row in red)))
            coeff = [rows.get(j, [field.zero()] * n) for j in range(k)]
            residual = [row for pc, row in rows.items() if pc >= k]
        else:
            coeff = [ident[pc] for pc in pivots]
            residual = []
            for c in range(n):
                if c not in pivots:
                    residual.append(ident[c])
                    for pc, row in zip(pivots, basis):
                        residual[-1][pc] = -row[c]
        if recombine is not None:
            cols = list(zip(*coeff))
            coeff = [[sum((a * b for a, b in zip(row, col) if not a.is_zero()),
                          field.zero()) for col in cols] for row in recombine]
        self.field, self._p = field, field.characteristic()
        self._coeff = self._rows(coeff)
        self._residual = self._rows(residual)[0]

    def _rows(self, matrix):
        """Integer rows of x -> matrix * x: (x_q)_s = sum(n * X[i]) / den."""
        field = self.field
        r, units = field.coord_dim, _units(field)
        return _integer_rows(field, [
            (q * r, i * r + u, 0, field.mul(a.val, eu))
            for q, row in enumerate(matrix) for i, a in enumerate(row)
            if not a.is_zero() for u, eu in units], len(matrix) * r)

    def _off(self, X):
        res, p = _contract(self._residual, X, (1,)), self._p
        return any(n % p for n in res) if p else any(res)

    def contains(self, vec):
        return not self._off(self.field.lift([c.val for c in vec])[0])

    def contains_lifted(self, X):
        """Whether the integer coordinates X, over any denominator, lie in
        the span."""
        return not self._off(X)

    def coefficients(self, vec):
        """The (recombined) coefficients of vec; NotInSpan off the span."""
        return _scalars(self.field, *self.coefficients_lifted(
            *self.field.lift([c.val for c in vec])))

    def coefficients_lifted(self, X, d):
        """`coefficients` of the vector X / d, as (integer coordinates, one
        denominator), neither reduced."""
        if self._off(X):
            raise NotInSpan("vector is outside the span")
        rows, den = self._coeff
        return _contract(rows, X, (1,)), den * d
