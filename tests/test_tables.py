import itertools

import numpy as np
import pytest

from mforge import tables
from mforge.pseudoquad import quaternion_group_table, t_group_table, xi_f4
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


def oracle_automorphisms(t, e):
    """Every automorphism, by brute force over the identity-fixing
    bijections in lexicographic order."""
    others = [i for i in range(len(t)) if i != e]
    autos = []
    for rest in itertools.permutations(others):
        perm = list(range(len(t)))
        for src, dst in zip(others, rest):
            perm[src] = dst
        if oracle_hom(t, perm) is None:
            autos.append(perm)
    return autos


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


@pytest.mark.parametrize("length", [2, 8])
def test_a_permutation_of_another_order_is_no_automorphism(length):
    assert is_automorphism(cyclic(4), list(range(4)))
    assert is_automorphism(cyclic(4), list(range(length))) is False


def _product_table(m, n):
    """Z_m x Z_n, the pair (a, b) at index a * n + b."""
    elems = [(a, b) for a in range(m) for b in range(n)]
    return FiniteGroupTable.from_ops(
        elems, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n), (0, 0))


GROUPS = {
    **{"Z%d" % n: (lambda n=n: FiniteGroupTable(list(range(n)), cyclic(n), 0))
       for n in range(1, 9)},
    "Z2xZ4": lambda: _product_table(2, 4), "S3": lambda: _s3_table(),
    "Q8": quaternion_group_table, "census": lambda: t_group_table(xi_f4()),
}
# |Aut(Z_n)| = phi(n), |Aut(Z2 x Z4)| = 8, |Aut(S3)| = 6, |Aut(Q8)| = 24
AUT_ORDERS = {"Z1": 1, "Z2": 1, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Z7": 6,
              "Z8": 4, "Z2xZ4": 8, "S3": 6, "Q8": 24, "census": 24}


def test_automorphism_enumeration_oracle():
    for name, make in GROUPS.items():
        g = make()
        expect = oracle_automorphisms(g.table.tolist(), g.identity)
        assert len(expect) == AUT_ORDERS[name], name
        got = g.automorphisms()
        assert [p.tolist() for p in got] == expect, name
        assert all(p.dtype == np.int32 for p in got), name
        # onto itself, the isomorphism with the first generator images
        gens = [a for a in tables._kernel._generators(g.table)
                if a != g.identity]
        first = min(expect, key=lambda p: [p[a] for a in gens])
        assert g.isomorphism_to(g).tolist() == first, name


def test_a_table_with_too_many_generators_is_refused():
    # x*y = 0 with identity index 0 passes the generator cap: no group
    g = FiniteGroupTable(list(range(6)), np.zeros((6, 6), dtype=np.int32), 0)
    with pytest.raises(ValueError, match="no group"):
        g.automorphisms()
    with pytest.raises(ValueError, match="no group"):
        g.isomorphism_to(FiniteGroupTable(list(range(6)), cyclic(6), 0))


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
    elems = list(itertools.permutations(range(3)))
    idx = {e: i for i, e in enumerate(elems)}
    t = np.array([[idx[tuple(a[b[i]] for i in range(3))] for b in elems]
                  for a in elems], dtype=np.int32)
    return FiniteGroupTable(elems, t, idx[(0, 1, 2)])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_inverses_and_conjugations_match_the_loops(name):
    g = GROUPS[name]()
    t = g.table.tolist()
    inv = [t[a].index(g.identity) for a in range(g.n)]
    assert g.inverse_vector().tolist() == inv
    for h in range(g.n):
        conj = g.conjugation(h)
        assert conj.dtype == np.int32
        assert conj.tolist() == [t[t[inv[h]][x]][h] for x in range(g.n)]


def test_tables_are_stored_compact_and_inverses_are_int32():
    # conjugations and automorphisms are checked int32 where they are
    # compared with their loops
    for name, make in GROUPS.items():
        g = make()
        assert g.table.dtype == np.int16, name
        assert g.inverse_vector().dtype == np.int32, name
    # a table with an entry outside 0..n-1 is no group table
    t = cyclic(4)
    t[1, 2] = 4
    with pytest.raises(ValueError, match="indices 0..3"):
        FiniteGroupTable(list(range(4)), t, 0)


def test_center_and_conjugation():
    s3 = _s3_table()
    assert s3.center_indices() == [s3.identity]
    inner = {tuple(int(v) for v in s3.conjugation(g)) for g in range(6)}
    assert len(inner) == 6  # S3 is centerless: Inn = S3
    # a row without the identity has no inverse
    t = cyclic(4)
    t[2] = [1, 3, 1, 3]
    assert FiniteGroupTable(list(range(4)), t, 0).inverse_vector().tolist() \
        == [0, 3, -1, 1]


# Block boundaries of the blocked sweeps.  The per-row references are the
# sweeps the blocked kernels replaced; the brute-force oracles above join
# them where n <= 40, with the block shrunk to 8 rows.

def rows_hom(t, perm):
    t, p = np.asarray(t), np.asarray(perm)
    for a in range(len(t)):
        bad = np.nonzero(p[t[a]] != t[p[a]][p])[0]
        if bad.size:
            return (a, int(bad[0]))
    return None


def boundary_cells(block):
    """Cells in the first, a middle and the last block of a table of
    order 2 * block + 3, on and next to the block edges."""
    n = 2 * block + 3
    return n, [(0, 1), (block - 1, 5), (block, block + 7),
               (2 * block - 1, 2), (2 * block, n - 1), (n - 1, n - 2)]


@pytest.fixture(params=[8, tables._kernel._BLOCK], ids=lambda b: "block%d" % b)
def block(request, monkeypatch):
    monkeypatch.setattr(tables._kernel, "_BLOCK", request.param)
    return request.param


def test_assoc_block_boundaries_match_references(block):
    n, cells = boundary_cells(block)
    assert tables.first_assoc_violation(cyclic(n)) is None
    for cell in cells:
        t = cyclic(n)
        t[cell] = (sum(cell) + 1) % n
        got = tables.first_assoc_violation(t)
        assert got == tables._kernel._first_assoc_by_rows(t), cell
        if n <= 40:
            assert got == oracle_assoc(t.tolist()), cell


def test_hom_block_boundaries_match_references(block):
    n, cells = boundary_cells(block)
    auto = np.array([(3 * a) % n for a in range(n)], dtype=np.int32)
    assert tables.first_hom_violation(cyclic(n), auto) is None
    for cell in cells:
        t = cyclic(n)
        t[cell] = (sum(cell) + 1) % n
        got = tables.first_hom_violation(t, auto)
        assert got == rows_hom(t, auto), cell
        if n <= 40:
            assert got == oracle_hom(t.tolist(), auto.tolist()), cell
        bad = auto.copy()
        bad[list(cell)] = bad[list(reversed(cell))]
        got = tables.first_hom_violation(cyclic(n), bad)
        assert got == rows_hom(cyclic(n), bad), cell
        if n <= 40:
            assert got == oracle_hom(cyclic(n).tolist(), bad.tolist()), cell


def test_a_lone_violation_is_found_in_every_block(block):
    # x*y = 0 except r*s = r: the one failing triple is (r, s, s), as
    # (r*s)*s = r and r*(s*s) = 0.  The permutation swapping 3 and 4 is
    # a homomorphism of x*y = 0, and fails only at (r, s) once r*s = 3.
    n = 2 * block + 3
    swap = np.arange(n, dtype=np.int32)
    swap[[3, 4]] = [4, 3]
    for r, s in ((1, 2), (1, block - 1), (2, block), (n - 1, 2 * block),
                 (block + 1, n - 1)):
        t = np.zeros((n, n), dtype=np.int32)
        t[r, s] = r
        assert tables._kernel._generators(t) is None
        assert tables.first_assoc_violation(t) == (r, s, s)
        assert tables.first_hom_violation(t, swap) is None
        t[r, s] = 3
        assert tables.first_hom_violation(t, swap) == (r, s)
        assert rows_hom(t, swap) == (r, s)


def test_compact_copy_is_int16_up_to_2_15_elements():
    n = 1 << 15
    assert tables._kernel._compact(np.array([0, n - 1]), n).dtype == np.int16
    assert tables._kernel._compact(np.array([0, n]), n + 1).dtype == np.int32
    assert tables._kernel._compact(np.array([0, n]), n) is None
    assert tables._kernel._compact(np.array([-1, 0]), n) is None


def test_compact_keeps_an_array_that_is_already_compact():
    small = cyclic(5).astype(np.int16)
    assert tables._kernel._compact(small, 5) is small
    n = (1 << 15) + 1
    wide = np.array([0, n - 1], dtype=np.int32)
    assert tables._kernel._compact(wide, n) is wide
    assert tables.as_table(small) is small
    assert tables.as_table(cyclic(5)).dtype == np.int32


def test_entries_outside_the_index_range_are_refused():
    # every table and permutation is checked where it enters, and an
    # entry outside 0..n-1 is refused by name of the order
    for entry in (-5, 12):
        t = cyclic(12)
        t[3, 4] = entry
        perm = np.arange(12)
        perm[5] = entry
        for call in (lambda: tables.first_assoc_violation(t),
                     lambda: tables.first_hom_violation(t, np.arange(12)),
                     lambda: tables.first_hom_violation(cyclic(12), perm),
                     lambda: FiniteGroupTable(list(range(12)), t, 0)):
            with pytest.raises(ValueError, match="order 12 .* 0..11 only"):
                call()
    for length in (11, 13):
        with pytest.raises(ValueError, match=r"order 12 has shape \(12,\)"):
            tables.first_hom_violation(cyclic(12), np.arange(length) % 12)


@pytest.mark.parametrize("entry", [4, -1])
def test_group_axioms_on_a_table_that_is_not_closed(entry):
    # no exception, and no associativity counterexample of another table
    t = cyclic(4)
    t[2, 3] = entry
    rep = check_group_axioms(t, 0, neg_vector(4))
    lines = {line.rule: line for line in rep.lines}
    assert not lines["group.closure"].passed
    assert not lines["group.associativity"].passed
    assert lines["group.associativity"].counterexample is None
    assert [line.rule for line in rep.lines] == [
        "group.identity", "group.inverses", "group.associativity",
        "group.closure"]


def test_group_axioms_refuse_an_inverse_outside_the_index_range():
    # -3 is no index of Z4 (numpy would read it as 1), nor is 4, nor the
    # -1 that inverse_vector gives a row without the identity
    for inv, bad in (([0, 3, 2, -3], 3), ([0, 3, 2, 4], 3),
                     ([0, -1, 2, 1], 1)):
        rep = check_group_axioms(cyclic(4), 0, np.array(inv))
        lines = {line.rule: line for line in rep.lines}
        assert not lines["group.inverses"].passed, inv
        assert lines["group.inverses"].counterexample == bad, inv
        assert lines["group.identity"].passed
        assert lines["group.associativity"].passed
    g = FiniteGroupTable(list(range(3)), [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
                         1)
    assert g.inverse_vector().tolist() == [-1, 1, 2]
    line = g.check_axioms().lines[1]
    assert (line.rule, line.passed, line.counterexample) == (
        "group.inverses", False, 0)


@pytest.mark.parametrize("inv", [[0, 3, 2], [0, 3, 2, 1, 0]])
def test_group_axioms_refuse_an_inverse_vector_of_another_length(inv):
    # no IndexError: the line fails with no counterexample, as an identity
    # outside the index range fails its line
    rep = check_group_axioms(cyclic(4), 0, np.array(inv))
    lines = {line.rule: line for line in rep.lines}
    assert not lines["group.inverses"].passed
    assert lines["group.inverses"].counterexample is None
    assert lines["group.identity"].passed
    assert lines["group.associativity"].passed


@pytest.mark.parametrize("identity", [4, -1])
def test_group_axioms_refuse_an_identity_outside_the_index_range(identity):
    # no IndexError for 4, and -1 is no alias of the last row
    rep = check_group_axioms(cyclic(4), identity, neg_vector(4))
    lines = {line.rule: line for line in rep.lines}
    assert not lines["group.identity"].passed
    assert lines["group.identity"].counterexample is None
    assert not lines["group.inverses"].passed
    assert lines["group.associativity"].passed
    assert lines["group.closure"].passed


def test_the_sweeps_take_one_path_each(monkeypatch):
    # after Light's pass, one blocked sweep per law: neither the per-row
    # reference nor the index check runs inside the kernel
    k = tables._kernel
    n = 2 * 8 + 3
    lone = np.zeros((n, n), dtype=np.int16)
    lone[5, 11] = 5
    planted = cyclic(n).astype(np.int16)
    planted[7, 2] = 0
    expect = [k._first_assoc_by_rows(t) for t in (lone, planted)]
    auto = ((3 * np.arange(n)) % n).astype(np.int16)
    expect_hom = rows_hom(planted, auto)

    def refuse(*args):
        raise AssertionError("a second path ran")

    monkeypatch.setattr(k, "_first_assoc_by_rows", refuse)
    monkeypatch.setattr(k, "_compact", refuse)
    monkeypatch.setattr(k, "_BLOCK", 8)
    assert [k.first_assoc_violation(t) for t in (lone, planted)] == expect
    assert k.first_hom_violation(planted, auto) == expect_hom
    assert k.first_hom_violation(cyclic(n).astype(np.int16), auto) is None


@pytest.fixture(scope="module")
def qp_table():
    from mforge.polygons import WordGroup, qp_xi_f4
    return WordGroup(qp_xi_f4()).table


def test_planted_cell_in_the_qp_xi_f4_table(qp_table):
    t = qp_table.copy()
    assert len(t) == 1024
    t[425, 700] = (t[425, 700] + 1) % 1024
    got = tables.first_assoc_violation(t)
    assert got == tables._kernel._first_assoc_by_rows(t) == (1, 425, 700)
    assert light(t) is False
    g = 37
    ginv = int(np.nonzero(qp_table[g] == 0)[0][0])
    inner = qp_table[qp_table[ginv, :], g]
    assert tables.first_hom_violation(qp_table, inner) is None
    got = tables.first_hom_violation(t, inner)
    assert got is not None and got == rows_hom(t, inner)


# Light's test: the generator search and the pass over the generators.

def closure(t, gens):
    """The indices reached from gens by right products with gens."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        frontier = [int(t[x][g]) for x in frontier for g in gens
                    if int(t[x][g]) not in reached]
        reached.update(frontier)
    return reached


def light(t, last=False):
    """Whether Light's pass over the generators (the first or, with
    `last`, the last pick) succeeds, or None when the search gives up."""
    k = tables._kernel
    t = tables.as_table(t)
    gens = k._generators(t, last)
    if gens is None:
        return None
    m, n = min(k._BLOCK, len(t)), len(t)
    return k._light_passes(t, gens, np.empty((m, n), t.dtype),
                           np.empty((m, n), t.dtype), np.empty((m, n), bool))


@pytest.fixture(scope="module")
def qq_table():
    from mforge.polygons import WordGroup, qq_f4_space
    return WordGroup(qq_f4_space()).table


@pytest.mark.parametrize("name", ["Z1", "Z12", "Z31", "Z256", "qq_table",
                                  "qp_table"])
def test_generators_reach_every_index_within_the_cap(name, request):
    t = (request.getfixturevalue(name) if name.endswith("_table")
         else cyclic(int(name[1:])))
    n = len(t)
    gens = tables._kernel._generators(tables.as_table(t))
    assert gens is not None and len(gens) <= 1 + int(np.log2(n))
    assert closure(t, gens) == set(range(n))
    assert light(t) is True
    if name == "qp_table":
        assert gens == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    last = tables._kernel._generators(tables.as_table(t), last=True)
    assert last is not None and len(last) <= 1 + int(np.log2(n))
    assert closure(t, last) == set(range(n))
    assert light(t, last=True) is True


def test_the_last_pick_decides_like_the_row_reference():
    # the kernel's pick and Light's pass against the per-row sweep, on
    # groups, planted cells and a magma past the cap; the shipped word
    # groups in both readings
    from mforge.polygons import WordGroup, rgs_opposite
    from test_polygons import ORACLE_DESCRIPTORS
    k = tables._kernel
    n = 2 * 128 + 3
    zero = np.zeros((n, n), dtype=np.int16)
    lone = zero.copy()
    lone[n - 1, 2] = n - 1
    planted = cyclic(16)
    planted[5, 7] = 13
    cases = [(name + suffix, WordGroup(read(make())).table)
             for name, make in ORACLE_DESCRIPTORS.items()
             for suffix, read in (("", lambda d: d), ("-opp", rgs_opposite))]
    cases += [("census", GROUPS["census"]().table),
              ("Q8", GROUPS["Q8"]().table), ("Z16-planted", planted),
              ("zero259", zero), ("lone259", lone)]
    for name, t in cases:
        t = tables.as_table(t)
        gens = k._generators(t, last=True)
        if name.endswith("259"):
            assert gens is None, name
        elif name == "Z16-planted":
            assert light(t, last=True) is False
        else:
            assert closure(t, gens) == set(range(len(t))), name
            assert light(t, last=True) is True, name
        assert k.first_assoc_violation(t) == k._first_assoc_by_rows(t), name
    assert k.first_assoc_violation(lone) == (n - 1, 2, 2)


def test_the_last_pick_takes_few_generators_on_qp_xi_f4():
    from mforge.polygons import WordGroup, qp_xi_f4, rgs_opposite
    k = tables._kernel
    for desc in (qp_xi_f4(), rgs_opposite(qp_xi_f4())):
        t = WordGroup(desc).table
        assert len(k._generators(t)) == 11
        assert len(k._generators(t, last=True)) <= 5
    assert k._generators(WordGroup(qp_xi_f4()).table, last=True) == [
        1023, 1022, 1021, 767]


def relabeled_cyclic(n, identity):
    """Z_n relabeled so that its identity sits at index `identity`."""
    idx = np.arange(n)
    return (((idx[:, None] + idx[None, :] - identity) % n)
            .astype(np.int32))


def test_lights_pass_skips_an_identity_generator_at_any_index():
    k = tables._kernel
    n, e = 12, 5
    t = relabeled_cyclic(n, e)
    assert oracle_identity(t.tolist(), e) is None
    # index 0 generates and is no identity: were it skipped, Light's pass
    # would read nothing and miss the planted cells below
    assert k._generators(t) == [0]
    assert k.first_assoc_violation(t) is k._first_assoc_by_rows(t) is None
    for cell in ((0, 0), (3, 4), (11, 7)):
        bad = t.copy()
        bad[cell] = (bad[cell] + 1) % n
        assert k.first_assoc_violation(bad) == k._first_assoc_by_rows(bad) \
            == oracle_assoc(bad.tolist()), cell
        # the identity passes unread, on a table that is no group too:
        # the buffers keep their fill
        bufs = [np.full((n, n), -1, np.int32) for _ in range(2)]
        same = np.zeros((n, n), bool)
        assert k._light_passes(bad, [e], *bufs, same) is True
        assert all((b == -1).all() for b in bufs) and not same.any()
        assert k._light_passes(bad, [e, 1], *bufs, same) is False


def test_a_swap_in_a_latin_square_fails_lights_pass():
    # swapping the intercalate (i, j), (i, j + 16), (i + 16, j),
    # (i + 16, j + 16) of Z32 leaves a Latin square that is no group
    t = cyclic(32)
    for row in (5, 21):
        t[row, [3, 19]] = t[row, [19, 3]]
    assert all(sorted(r) == list(range(32)) for r in t.tolist())
    assert all(sorted(c) == list(range(32)) for c in t.T.tolist())
    assert light(t) is False
    expect = oracle_assoc(t.tolist())
    assert expect is not None
    assert tables.first_assoc_violation(t) == expect


def test_an_associative_monoid_that_is_no_group_passes_lights_pass():
    # x*y = min(x + y, n - 1) is generated by 1 and associative
    n = 12
    t = np.minimum(np.add.outer(np.arange(n), np.arange(n)), n - 1)
    assert light(t) is True
    assert oracle_assoc(t.tolist()) is None
    assert tables.first_assoc_violation(t) is None


def random_magma(rng):
    """A magma of order at most 12: a random table, a relabeled cyclic
    group, or such a group with one cell changed."""
    n = int(rng.integers(1, 13))
    kind = int(rng.integers(3))
    if kind == 0:
        return rng.integers(0, n, size=(n, n)).astype(np.int32)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    t = perm[(inv[:, None] + inv[None, :]) % n].astype(np.int32)
    if kind == 2:
        a, b = rng.integers(0, n, size=2)
        t[a, b] = rng.integers(0, n)
    return t


def test_random_magmas_agree_with_the_oracle():
    rng = np.random.default_rng(19)
    outcomes, outcomes_last = set(), set()
    for _ in range(300):
        t = random_magma(rng)
        expect = oracle_assoc(t.tolist())
        assert tables.first_assoc_violation(t) == expect, t.tolist()
        outcomes.add((light(t), expect is None))
        outcomes_last.add((light(t, last=True), expect is None))
    # every branch is taken: Light passes, Light fails, the cap is hit,
    # on either pick
    for seen in (outcomes, outcomes_last):
        assert {(True, True), (False, False), (None, False)} <= seen
