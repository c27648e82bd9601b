"""Finite-group machinery on Cayley tables.

The element-level checks (identity, inverses, associativity, homomorphism)
run in the numpy kernel of `_tablecheck_py`, bound here as `_kernel`,
which takes index tables only.  `_index_array` checks each table and
permutation once, where it enters: the public sweeps, and a
`FiniteGroupTable`, which keeps its table in the kernel's compact dtype.
An entry outside 0..n-1 raises ValueError there, and fails the closure
line of `check_group_axioms`.
A homomorphism is fixed by its images on generators, and the walk
`extend_from_generators` extends them: behind the search over generator
images, in lexicographic order, of `isomorphism_to` and `automorphisms`,
and as the reference for `WordGroup.extend_end_maps`, which extends along
a spanning tree built once per group and walks only where that finds a
conflict.
"""

from __future__ import annotations

import numpy as np

from . import _tablecheck_py as _kernel
from .report import SWEPT, Report

BACKEND = "python"


def as_table(rows):
    """rows as a contiguous square index table: an int16 or int32 array
    as it is, anything else as int32."""
    if not (isinstance(rows, np.ndarray)
            and rows.dtype in (np.int16, np.int32)):
        rows = np.asarray(rows, dtype=np.int32)
    t = np.ascontiguousarray(rows)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("square table expected")
    return t


def _index_array(x, shape):
    """x as an index array of the given shape, a table (n, n) or a
    permutation (n,), in the kernel's compact dtype; ValueError naming
    the order n when its shape differs or an entry lies outside 0..n-1."""
    n = shape[0]
    x = np.asarray(x)
    s = _kernel._compact(x, n) if x.shape == shape else None
    if s is None:
        raise ValueError("an index array of order %d has shape %s and holds "
                         "the indices 0..%d only" % (n, shape, n - 1))
    return s


def first_assoc_violation(table):
    t = as_table(table)
    return _kernel.first_assoc_violation(_index_array(t, t.shape))


def first_hom_violation(table, perm):
    t = as_table(table)
    return _kernel.first_hom_violation(_index_array(t, t.shape),
                                       _index_array(perm, t.shape[:1]))


def check_group_axioms(table, identity, inverse):
    """Exhaustive identity/inverse/associativity report for a Cayley table;
    associativity is swept on a closed table only.  An identity outside
    0..n-1 fails the identity line, and an inverse vector whose length is
    not n the inverse line, each with no counterexample; an inverse entry
    outside that range (the -1 of `FiniteGroupTable.inverse_vector` for a
    row without the identity) fails the inverse line at its index.  Every
    line is `report.SWEPT`."""
    t = as_table(table)
    n = int(t.shape[0])
    e = int(identity)
    inv = np.asarray(inverse, dtype=np.int64)
    rep = Report("group-axioms")
    bad = _kernel.first_identity_violation(t, e) if 0 <= e < n else None
    rep.add("group.identity", n, 0 <= e < n and bad is None,
            counterexample=None if bad is None else int(bad), mode=SWEPT)
    bad, sized = None, inv.shape == (n,)
    if sized:
        outside = (inv < 0) | (inv >= n)
        bad = _kernel.first_inverse_violation(t, np.where(outside, 0, inv), e)
        out = np.flatnonzero(outside)
        if out.size and (bad is None or out[0] < bad):
            bad = out[0]
    rep.add("group.inverses", n, sized and bad is None,
            counterexample=None if bad is None else int(bad), mode=SWEPT)
    s = _kernel._compact(t, n)      # None: an entry is no index
    bad = None if s is None else _kernel.first_assoc_violation(s)
    rep.add("group.associativity", n ** 3, s is not None and bad is None,
            counterexample=None if bad is None else tuple(int(v) for v in bad),
            mode=SWEPT)
    rep.add("group.closure", n * n, s is not None, mode=SWEPT)
    return rep


def extend_from_generators(source, target, pairs, identity,
                           target_identity):
    """Extend the generator images `pairs` ((source index, target index)
    each) over the right products of source's identity with the
    generators: w*g maps to perm[w]*g' in target.

    Returns (perm, conflict): perm lists the image of every source index,
    -1 where none is reached, and conflict is the first (w, g) whose
    product was reached before with another image, or None."""
    # the columns of the generators, as lists: the walk reads them one
    # entry at a time
    steps = [(g, source[:, g].tolist(), target[:, h].tolist())
             for g, h in pairs]
    perm = [-1] * len(source)
    perm[identity] = target_identity
    frontier = [identity]
    while frontier:
        w = frontier.pop()
        for g, src_col, dst_col in steps:
            nxt, img = src_col[w], dst_col[perm[w]]
            if perm[nxt] == -1:
                perm[nxt] = img
                frontier.append(nxt)
            elif perm[nxt] != img:
                return perm, (w, g)
    return perm, None


def is_automorphism(table, perm):
    p = np.asarray(perm)
    n = len(table)
    if sorted(p.tolist()) != list(range(n)):
        return False
    return first_hom_violation(table, perm) is None


class FiniteGroupTable:
    """A finite group as (elements, Cayley table, identity index).

    The table is validated once and stored compact, in the kernel's
    dtype (int16 up to 2^15 elements); every permutation the class
    returns is int32."""

    def __init__(self, elements, table, identity_index):
        self.elements = list(elements)
        t = as_table(table)
        self.table = _index_array(t, t.shape)
        self.identity = int(identity_index)
        self.n = len(self.elements)
        self._inv = None

    @classmethod
    def from_ops(cls, elements, op, identity):
        index = {e: i for i, e in enumerate(elements)}
        rows = [[index[op(a, b)] for b in elements] for a in elements]
        return cls(elements, rows, index[identity])

    def inverse_vector(self):
        if self._inv is None:
            hits = self.table == self.identity
            self._inv = np.where(hits.any(axis=1), hits.argmax(axis=1),
                                 -1).astype(np.int32)
        return self._inv

    def check_axioms(self):
        return check_group_axioms(self.table, self.identity,
                                  self.inverse_vector())

    def center_indices(self):
        t = self.table
        return [a for a in range(self.n) if np.array_equal(t[a], t[:, a])]

    def conjugation(self, g):
        """Inner automorphism x -> g^-1 x g as a permutation."""
        inv = int(self.inverse_vector()[g])
        return self.table[self.table[inv], g].astype(np.int32)

    def automorphisms(self):
        """All automorphisms, as permutations in lexicographic order."""
        return sorted(self._isomorphisms(self), key=lambda p: p.tolist())

    def isomorphism_to(self, other):
        """An explicit isomorphism (index map) onto other, or None: the
        one with the lexicographically first images of the generators."""
        if self.n != other.n:
            return None
        return next(self._isomorphisms(other), None)

    def _isomorphisms(self, other):
        """The isomorphisms onto other, by a search over the images of
        the generators in lexicographic order; a prefix of images whose
        walk conflicts or is no injection has no valid completion."""
        gens = _kernel._generators(self.table)
        if gens is None:
            raise ValueError("no group: the generator search on %d "
                             "elements gave up" % self.n)
        gens = [g for g in gens if g != self.identity]

        def search(images):
            perm, conflict = extend_from_generators(
                self.table, other.table, list(zip(gens, images)),
                self.identity, other.identity)
            reached = [v for v in perm if v != -1]
            if conflict is not None or len(set(reached)) < len(reached):
                return
            if len(images) < len(gens):
                for img in range(other.n):
                    yield from search(images + [img])
                return
            p = np.array(perm, dtype=np.int32)
            if len(reached) == self.n \
                    and np.array_equal(p[self.table], other.table[p][:, p]):
                yield p

        return search([])
