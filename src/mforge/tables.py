"""Finite-group machinery on Cayley tables.

The element-level checks (identity, inverses, associativity, homomorphism)
run in the numpy kernel of `_tablecheck_py`, bound here as `_kernel`.
Everything else here is ordinary glue: building tables from generators,
automorphism enumeration, and isomorphism search for small groups.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _tablecheck_py as _kernel
from .report import Report

BACKEND = "python"


def as_table(rows):
    t = np.ascontiguousarray(np.asarray(rows, dtype=np.int32))
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("square table expected")
    return t


def first_assoc_violation(table):
    return _kernel.first_assoc_violation(as_table(table))


def first_hom_violation(table, perm):
    return _kernel.first_hom_violation(
        as_table(table), np.ascontiguousarray(np.asarray(perm, dtype=np.int32)))


def check_group_axioms(table, identity, inverse):
    """Exhaustive identity/inverse/associativity report for a Cayley table."""
    t = as_table(table)
    inv = np.ascontiguousarray(np.asarray(inverse, dtype=np.int32))
    n = int(t.shape[0])
    rep = Report("group-axioms")
    bad = _kernel.first_identity_violation(t, int(identity))
    rep.add("group.identity", n, bad is None,
            counterexample=None if bad is None else int(bad))
    bad = _kernel.first_inverse_violation(t, inv, int(identity))
    rep.add("group.inverses", n, bad is None,
            counterexample=None if bad is None else int(bad))
    bad = _kernel.first_assoc_violation(t)
    rep.add("group.associativity", n ** 3, bad is None,
            counterexample=None if bad is None else tuple(int(v) for v in bad))
    closed = bool((t >= 0).all() and (t < n).all())
    rep.add("group.closure", n * n, closed)
    return rep


def is_automorphism(table, perm):
    p = np.asarray(perm)
    n = len(p)
    if sorted(p.tolist()) != list(range(n)):
        return False
    return first_hom_violation(table, perm) is None


class FiniteGroupTable:
    """A finite group as (elements, Cayley table, identity index)."""

    def __init__(self, elements, table, identity_index):
        self.elements = list(elements)
        self.table = as_table(table)
        self.identity = int(identity_index)
        self.n = len(self.elements)
        self._inv = None

    @classmethod
    def from_ops(cls, elements, op, identity, key=lambda x: x):
        index = {key(e): i for i, e in enumerate(elements)}
        n = len(elements)
        rows = [[index[key(op(a, b))] for b in elements] for a in elements]
        return cls(elements, rows, index[key(identity)])

    def inverse_vector(self):
        if self._inv is None:
            inv = np.zeros(self.n, dtype=np.int32)
            for a in range(self.n):
                hits = np.nonzero(self.table[a] == self.identity)[0]
                inv[a] = hits[0] if hits.size else -1
            self._inv = inv
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
        return np.array([self.table[self.table[inv, x], g]
                         for x in range(self.n)], dtype=np.int32)

    def automorphisms(self):
        """All automorphisms by brute force over identity-fixing bijections."""
        others = [i for i in range(self.n) if i != self.identity]
        autos = []
        for perm_rest in itertools.permutations(others):
            perm = np.empty(self.n, dtype=np.int32)
            perm[self.identity] = self.identity
            for src, dst in zip(others, perm_rest):
                perm[src] = dst
            if first_hom_violation(self.table, perm) is None:
                autos.append(perm)
        return autos

    def isomorphism_to(self, other):
        """An explicit isomorphism (index map) onto other, or None.

        Backtracking over generator images; fine for desk-scale orders.
        """
        if self.n != other.n:
            return None
        gens = self._small_generating_set()
        tgt_all = list(range(other.n))

        def close(mapping):
            # extend mapping multiplicatively; None on conflict
            mapping = dict(mapping)
            frontier = list(mapping)
            while frontier:
                a = frontier.pop()
                for b in list(mapping):
                    for x, y in ((a, b), (b, a)):
                        prod = int(self.table[x, y])
                        img = int(other.table[mapping[x], mapping[y]])
                        if prod in mapping:
                            if mapping[prod] != img:
                                return None
                        else:
                            mapping[prod] = img
                            frontier.append(prod)
            return mapping

        def rec(i, mapping):
            if i == len(gens):
                full = close(mapping)
                if full and len(full) == self.n \
                        and len(set(full.values())) == self.n:
                    perm = np.empty(self.n, dtype=np.int32)
                    for src, dst in full.items():
                        perm[src] = dst
                    return perm
                return None
            g = gens[i]
            for cand in tgt_all:
                mapping2 = dict(mapping)
                mapping2[g] = cand
                closed = close(mapping2)
                if closed is None or len(set(closed.values())) != len(closed):
                    continue
                res = rec(i + 1, closed)
                if res is not None:
                    return res
            return None

        return rec(0, {self.identity: other.identity})

    def _small_generating_set(self):
        gens = []
        span = {self.identity}
        for a in range(self.n):
            if a in span:
                continue
            gens.append(a)
            span = self._closure(span | {a})
            if len(span) == self.n:
                break
        return gens

    def _closure(self, seed):
        span = set(seed)
        frontier = list(seed)
        while frontier:
            a = frontier.pop()
            for b in list(span):
                for prod in (int(self.table[a, b]), int(self.table[b, a])):
                    if prod not in span:
                        span.add(prod)
                        frontier.append(prod)
        return span
