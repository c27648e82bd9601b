import numpy as np
import pytest

from mforge import tables
from mforge.tables import FiniteGroupTable, check_group_axioms, is_automorphism


def cyclic(n):
    return np.fromfunction(lambda a, b: (a + b) % n, (n, n),
                           dtype=np.int64).astype(np.int32)


# Brute-force oracles: the contract of the table kernels, loop by loop.
# Each returns the lexicographically first violation, or None.

def oracle_assoc(t):
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return (a, b, c)
    return None


def oracle_hom(t, perm):
    n = len(t)
    for a in range(n):
        for b in range(n):
            if perm[t[a][b]] != t[perm[a]][perm[b]]:
                return (a, b)
    return None


def oracle_identity(t, e):
    for a in range(len(t)):
        if t[e][a] != a or t[a][e] != a:
            return a
    return None


def oracle_inverse(t, inv, e):
    for a in range(len(t)):
        if t[a][inv[a]] != e or t[inv[a]][a] != e:
            return a
    return None


def neg_vector(n):
    return np.array([(-a) % n for a in range(n)], dtype=np.int32)


def test_backend_is_the_numpy_kernel():
    assert tables.BACKEND == "python"
    assert tables._kernel.__name__ == "mforge._tablecheck_py"


@pytest.mark.parametrize("n", [1, 2, 8, 31])
def test_cyclic_groups_pass(n):
    t = cyclic(n)
    rep = check_group_axioms(t, 0, neg_vector(n))
    assert rep.passed


def test_planted_violation_found():
    t = cyclic(16)
    t[5, 7] = (5 + 7 + 1) % 16
    assert tables.first_assoc_violation(t) is not None


PLANTED_CELLS = [
    (12, (3, 4), 0), (12, (0, 0), 5), (12, (11, 11), 3),
    (16, (5, 7), 13), (16, (9, 2), 0), (16, (15, 0), 1),
]


@pytest.mark.parametrize("n, cell, value", PLANTED_CELLS, ids=[
    "Z%d-%d-%d" % (n, a, b) for n, (a, b), _ in PLANTED_CELLS])
def test_assoc_violation_matches_oracle(n, cell, value):
    t = cyclic(n)
    t[cell] = value
    expect = oracle_assoc(t.tolist())
    assert expect is not None
    got = tables.first_assoc_violation(t)
    assert tuple(int(v) for v in got) == expect
    assert oracle_assoc(cyclic(n).tolist()) is None
    assert tables.first_assoc_violation(cyclic(n)) is None


@pytest.mark.parametrize("swap", [(1, 2), (0, 5), (4, 9), (8, 9)],
                         ids=lambda sw: "swap-%d-%d" % sw)
def test_hom_violation_matches_oracle(swap):
    t = cyclic(10)
    good = np.array([(3 * a) % 10 for a in range(10)], dtype=np.int32)
    assert oracle_hom(t.tolist(), good.tolist()) is None
    assert tables.first_hom_violation(t, good) is None
    bad = good.copy()
    bad[list(swap)] = bad[list(reversed(swap))]
    expect = oracle_hom(t.tolist(), bad.tolist())
    assert expect is not None
    assert tuple(int(v) for v in tables.first_hom_violation(t, bad)) == expect


@pytest.mark.parametrize("n, planted", [
    (8, [0]), (8, [5, 2]), (13, [12]), (13, [4, 9, 11]),
])
def test_identity_violation_finds_first_planted_index(n, planted):
    t = cyclic(n)
    assert tables._kernel.first_identity_violation(t, 0) is None
    for a in planted:
        t[0, a] = (a + 1) % n
    assert oracle_identity(t.tolist(), 0) == min(planted)
    assert tables._kernel.first_identity_violation(t, 0) == min(planted)
    rep = check_group_axioms(t, 0, neg_vector(n))
    assert rep.lines[0].counterexample == min(planted)


@pytest.mark.parametrize("n, planted", [
    (8, [0]), (8, [6, 3]), (13, [12]), (13, [4, 9, 11]),
])
def test_inverse_violation_finds_first_planted_index(n, planted):
    t = cyclic(n)
    inv = neg_vector(n)
    assert tables._kernel.first_inverse_violation(t, inv, 0) is None
    for a in planted:
        inv[a] = (inv[a] + 1) % n
    assert oracle_inverse(t.tolist(), inv.tolist(), 0) == min(planted)
    assert tables._kernel.first_inverse_violation(t, inv, 0) == min(planted)
    rep = check_group_axioms(t, 0, inv)
    assert rep.lines[1].counterexample == min(planted)


def test_is_automorphism():
    t = cyclic(10)
    assert is_automorphism(t, [(3 * a) % 10 for a in range(10)])
    assert not is_automorphism(t, [(2 * a) % 10 for a in range(10)])


def test_automorphism_enumeration_oracle():
    # |Aut(Z_n)| = phi(n)
    for n, phi in ((4, 2), (5, 4), (8, 4)):
        g = FiniteGroupTable(list(range(n)), cyclic(n), 0)
        assert len(g.automorphisms()) == phi


def test_isomorphism_search():
    g1 = FiniteGroupTable(list(range(6)), cyclic(6), 0)
    # relabeled copy
    perm = [0, 2, 4, 1, 3, 5]
    inv = {v: k for k, v in enumerate(perm)}
    t2 = np.array([[perm[(inv[a] + inv[b]) % 6] for b in range(6)]
                   for a in range(6)], dtype=np.int32)
    g2 = FiniteGroupTable(list(range(6)), t2, 0)
    assert g1.isomorphism_to(g2) is not None
    # S3 is not isomorphic to Z6
    s3 = _s3_table()
    assert g1.isomorphism_to(s3) is None


def _s3_table():
    import itertools
    elems = list(itertools.permutations(range(3)))
    idx = {e: i for i, e in enumerate(elems)}
    t = np.array([[idx[tuple(a[b[i]] for i in range(3))] for b in elems]
                  for a in elems], dtype=np.int32)
    return FiniteGroupTable(elems, t, idx[(0, 1, 2)])


def test_center_and_conjugation():
    s3 = _s3_table()
    assert s3.center_indices() == [s3.identity]
    inner = {tuple(int(v) for v in s3.conjugation(g)) for g in range(6)}
    assert len(inner) == 6  # S3 is centerless: Inn = S3
