"""The numpy-vectorized kernels for exhaustive checks on Cayley tables.

Each returns the first violation in lexicographic order, or None:
`first_assoc_violation` the first (a, b, c) with (ab)c != a(bc),
`first_hom_violation` the first (a, b) with perm[ab] != perm[a]perm[b],
and the identity and inverse checks the first bad index.

They take index tables only, as `tables` checks them where they enter:
int16 arrays up to 2^15 elements, int32 above (`_compact`), every entry
in 0..n-1.  The sweeps go through blocks of `_BLOCK` rows into buffers
allocated once per call, so the largest shipped word group (1024
elements, 2^30 triples) takes a few megabytes beyond its table.

Associativity is first decided by Light's test (Clifford & Preston, The
Algebraic Theory of Semigroups I, 1961, §1.2): the a with (xa)y = x(ay)
for all x, y are closed under the product, so the identity on a set of
generators decides all n^3 triples, in one pass per generator.
`_generators` picks them greedily, here each the last index not yet
reached (4 on the 1024-element word group of QP-Xi-F4, where the first
unreached index gives 11), and gives up past 1 + floor(log2 n) of them,
more than any group needs: each new generator at least doubles the
subgroup reached (Lagrange).
When the cap is passed, or the test fails, one sweep runs, a outer and
blocks of b inner, and the homomorphism sweep goes through row blocks in
order: the first failing block holds the first violation.  The per-row
sweep `_first_assoc_by_rows` is the tests' reference.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 128


def _compact(x, n):
    """x in the smallest dtype that holds the indices 0..n-1 (x itself
    when it has that dtype, else a copy), or None when some entry is no
    such index."""
    if x.size and (x.min() < 0 or x.max() >= n):
        return None
    return x.astype(np.int16 if n <= 1 << 15 else np.int32, copy=False)


def _first_assoc_by_rows(t):
    """The first (a, b, c) with (ab)c != a(bc), one row of a at a time:
    the reference for `first_assoc_violation`."""
    n = t.shape[0]
    for a in range(n):
        lhs = t[t[a], :]          # lhs[b, c] = (a*b)*c
        rhs = t[a][t]             # rhs[b, c] = a*(b*c)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)
            b, c = int(bad[0][0]), int(bad[0][1])
            return (a, b, c)
    return None


def _generators(s, last=False):
    """Generators of the index table s, or None past 1 + floor(log2 n) of
    them.  Each is the first index not yet reached, or with `last` the
    last one.  The reached set grows by right products with the
    generators, so it lies in the submagma they generate.

    The two picks differ in size.  In the mixed-radix order of a word
    group, where the last slot runs fastest, the first unreached index
    climbs a composition series one doubling at a time (QP-Xi-F4, of
    order 2^10: 0, 1, 2, 4, ..., 512), while the last one starts from
    words in every slot (1023, 1022, 1021, 767).  `first_assoc_violation`
    takes the last pick, as each generator costs Light's test one pass.
    `FiniteGroupTable.isomorphism_to` takes the first: its search runs
    over images of these generators, so the pick fixes which map it
    returns, and the F4 census golden pins that map."""
    n = s.shape[0]
    reached = np.zeros(n, dtype=bool)
    gens = []
    while not reached.all():
        if len(gens) == n.bit_length():
            return None
        gens.append(n - 1 - int(np.argmin(reached[::-1])) if last
                    else int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.flatnonzero(reached)
        by_gens = s[:, gens]
        while frontier.size:
            new = np.zeros(n, dtype=bool)
            new[by_gens[frontier]] = True
            new &= ~reached
            reached |= new
            frontier = np.flatnonzero(new)
    return gens


def _light_passes(s, gens, lhs, rhs, same):
    """Whether (xa)y == x(ay) for every generator a and all x, y; a
    generator whose row and column are the identity map passes unread."""
    n = s.shape[0]
    idx = np.arange(n)
    for a in gens:
        ay = s[a]
        if np.array_equal(ay, idx) and np.array_equal(s[:, a], idx):
            continue    # an identity: (xa)y = xy = x(ay)
        for x0 in range(0, n, _BLOCK):
            x1 = min(x0 + _BLOCK, n)
            lb, rb, eq = lhs[:x1 - x0], rhs[:x1 - x0], same[:x1 - x0]
            np.take(s, s[x0:x1, a], axis=0, out=lb, mode="clip")
            np.take(s[x0:x1], ay, axis=1, out=rb, mode="clip")
            np.equal(lb, rb, out=eq)
            if not eq.all():
                return False
    return True


def first_assoc_violation(table):
    n = table.shape[0]
    m = min(_BLOCK, n)
    lhs, rhs = (np.empty((m, n), dtype=table.dtype) for _ in range(2))
    same = np.empty((m, n), dtype=bool)
    gens = _generators(table, last=True)
    if gens is not None and _light_passes(table, gens, lhs, rhs, same):
        return None
    for a in range(n):
        ta = table[a]                       # ta[b] = a*b
        for b0 in range(0, n, _BLOCK):
            b1 = min(b0 + _BLOCK, n)
            lb, rb, eq = lhs[:b1 - b0], rhs[:b1 - b0], same[:b1 - b0]
            np.take(table, ta[b0:b1], axis=0, out=lb, mode="clip")
            np.take(ta, table[b0:b1], out=rb, mode="clip")
            np.equal(lb, rb, out=eq)
            if not eq.all():
                b, c = np.argwhere(~eq)[0]
                return (a, b0 + int(b), int(c))
    return None


def first_identity_violation(table, e):
    idx = np.arange(table.shape[0])
    bad = np.nonzero((table[e] != idx) | (table[:, e] != idx))[0]
    return int(bad[0]) if bad.size else None


def first_inverse_violation(table, inv, e):
    idx = np.arange(table.shape[0])
    bad = np.nonzero((table[idx, inv] != e) | (table[inv, idx] != e))[0]
    return int(bad[0]) if bad.size else None


def first_hom_violation(table, perm):
    n = table.shape[0]
    p = perm.astype(table.dtype, copy=False)
    m = min(_BLOCK, n)
    lhs, rows, rhs = (np.empty((m, n), dtype=table.dtype) for _ in range(3))
    same = np.empty((m, n), dtype=bool)
    for a0 in range(0, n, _BLOCK):
        a1 = min(a0 + _BLOCK, n)
        lb, rw, rb, eq = (buf[:a1 - a0] for buf in (lhs, rows, rhs, same))
        np.take(p, table[a0:a1], out=lb, mode="clip")
        np.take(table, p[a0:a1], axis=0, out=rw, mode="clip")
        np.take(rw, p, axis=1, out=rb, mode="clip")
        np.equal(lb, rb, out=eq)
        if not eq.all():
            a, b = np.argwhere(~eq)[0]
            return (a0 + int(a), int(b))
    return None
