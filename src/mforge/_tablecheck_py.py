"""The numpy-vectorized kernels for exhaustive checks on Cayley tables.

Each returns the first violation in lexicographic order, or None:
`first_assoc_violation` the first (a, b, c) with (ab)c != a(bc),
`first_hom_violation` the first (a, b) with perm[ab] != perm[a]perm[b],
and the identity and inverse checks the first bad index.  The
associativity sweep is chunked per row, so the largest shipped word group
(1024 elements, 2^30 triples) stays within memory and time budgets.
"""

from __future__ import annotations

import numpy as np


def first_assoc_violation(table):
    t = np.asarray(table)
    n = t.shape[0]
    for a in range(n):
        lhs = t[t[a], :]          # lhs[b, c] = (a*b)*c
        rhs = t[a][t]             # rhs[b, c] = a*(b*c)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)
            b, c = int(bad[0][0]), int(bad[0][1])
            return (a, b, c)
    return None


def first_identity_violation(table, e):
    t = np.asarray(table)
    n = t.shape[0]
    idx = np.arange(n)
    bad = np.nonzero((t[e] != idx) | (t[:, e] != idx))[0]
    return int(bad[0]) if bad.size else None


def first_inverse_violation(table, inv, e):
    t = np.asarray(table)
    inv = np.asarray(inv)
    n = t.shape[0]
    idx = np.arange(n)
    bad = np.nonzero((t[idx, inv] != e) | (t[inv, idx] != e))[0]
    return int(bad[0]) if bad.size else None


def first_hom_violation(table, perm):
    t = np.asarray(table)
    p = np.asarray(perm)
    lhs = p[t]
    rhs = t[p][:, p]
    if np.array_equal(lhs, rhs):
        return None
    bad = np.argwhere(lhs != rhs)
    return (int(bad[0][0]), int(bad[0][1]))
