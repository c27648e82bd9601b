"""Parametrized Moufang triangles and the four implemented quadrangle
families as root group sequences: commutator tables, a collection-based
word group, opposites, Hua end actions and consistency verification.

Each slot group is the root group `moufang.root_group` builds from the
parameter system, the same builder that gives a Moufang set its carrier.
Words are kept in normal form x_1(m_1)...x_n(m_n) with strictly increasing
indices.  The standard tables are stored literally (with inverse-argument
entries rewritten by substituting the parameter-group inverse); opposite
tables are derived mechanically by reversing the sequence, which is
validated against the quoted opposite forms on the finite instances.

Which Moufang set each end root group parametrizes is decided once, by
`PolygonDescriptor.end_set`; foundations read their end sets and end
rings from it.  A Hua end action is that set's own Hua map h_s on the
anchor's end, plus one closed form per family on the far end.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from . import tables as tbl
from .handles import Handle, as_handle
from .moufang import MoufangSet, _defined, root_group
from .pseudoquad import TPoint
from .report import SWEPT, Report, reprs
from .unitary import ind_check, ind_opposite


class IndexOutOfRange(ValueError):
    pass


class ZeroParameter(ZeroDivisionError):
    pass


SYMBOL_T = "T"
SYMBOL_QI = "QI"
SYMBOL_QP = "QP"
SYMBOL_QQ = "QQ"
SYMBOL_QD = "QD"
SYMBOL_QE = "QE"   # recognized-and-rejected tags: no relations implemented
SYMBOL_QF = "QF"

STANDARD = "standard"
OPPOSITE = "opposite"

_REJECT_ONLY = (SYMBOL_QE, SYMBOL_QF)

# rgs_hua_consistency builds and sweeps a word group only up to this many
# words: its Cayley table holds the square, 2^24 int16 entries (32 MB) at
# the bound, and it lives as long as its descriptor, as the end sets do
# (`PolygonDescriptor.word_group`).  The largest shipped case, QP-Xi-F4,
# has 1024 words.
_EXHAUSTIVE_WORDS = 4096


# -- descriptors --------------------------------------------------------------

class PolygonDescriptor:
    """Symbol + orientation + parameter system, with slot groups and the
    commutator table.

    The end Moufang sets and, over a finite parameter system, the word
    group are built on first use and kept for the descriptor's lifetime:
    the word group's Cayley table is up to 2^24 int16 entries (32 MB) at
    the `_EXHAUSTIVE_WORDS` bound."""

    def __init__(self, symbol, params, orientation=STANDARD, name=None):
        self.symbol = symbol
        self.orientation = orientation
        self.params = params
        self.name = name
        self.n = 3 if symbol == SYMBOL_T else 4
        self._end_sets = {}
        self._word_group = None
        if symbol in _REJECT_ONLY:
            self.groups = None
            return
        self._std_groups, self._std_rel = _standard_layout(symbol, params)
        if orientation == STANDARD:
            self.groups = self._std_groups
        else:
            self.groups = list(reversed(self._std_groups))

    def group(self, i):
        if not 1 <= i <= self.n:
            raise IndexOutOfRange("slot %d outside 1..%d" % (i, self.n))
        if self.groups is None:
            raise ValueError("symbol %s carries no relations" % self.symbol)
        return self.groups[i - 1]

    def relation(self, i, a, j, b):
        """[x_i(a), x_j(b)] in normal form, as a factor list."""
        if not 1 <= i < j <= self.n:
            raise IndexOutOfRange("need 1 <= i < j <= %d" % self.n)
        if self.groups is None:
            raise ValueError("symbol %s carries no relations" % self.symbol)
        if self.orientation == STANDARD:
            return self._std_rel(i, a, j, b)
        # reversed reading: [y_i(a), y_j(b)] = [x_p(b), x_q(a)]^-1 with
        # p = n+1-j < q = n+1-i; middle factors commute pairwise, so the
        # inverse is factorwise
        n = self.n
        p, q = n + 1 - j, n + 1 - i
        word = self._std_rel(p, b, q, a)
        out = []
        for (k, w) in word:
            grp = self._std_groups[k - 1]
            out.append((n + 1 - k, grp.inv(w)))
        out.sort(key=lambda f: f[0])
        return out

    def at_standard_first(self, end):
        """Whether the given end is the first one of the standard reading;
        a reversed reading reads the standard ends the other way round."""
        if end not in ("first", "last"):
            raise ValueError("end must be 'first' or 'last'")
        return (end == "first") == (self.orientation == STANDARD)

    def end_set(self, end):
        """The Moufang set the first or last root group parametrizes,
        built once per end.  A triangle, and the field end of QI and QP,
        carries a linear set over its ring, reversed on the opposite
        reading."""
        if end not in self._end_sets:
            self._end_sets[end] = self._build_end_set(end)
        return self._end_sets[end]

    def word_group(self):
        """The `WordGroup` of a finite parameter system, built once per
        descriptor."""
        if self._word_group is None:
            self._word_group = WordGroup(self)
        return self._word_group

    def _build_end_set(self, end):
        sym, params = self.symbol, self.params
        if sym in _REJECT_ONLY:
            raise ValueError("symbol %s has no implemented end structure"
                             % sym)
        std_first = self.at_standard_first(end)
        if sym == SYMBOL_QQ:
            if std_first:
                return MoufangSet(MoufangSet.LINEAR, Handle(params.field))
            return MoufangSet(MoufangSet.QUADRATIC, params)
        if sym == SYMBOL_QD:
            return MoufangSet(MoufangSet.INDIFFERENT,
                              params if std_first else ind_opposite(params))
        if sym == SYMBOL_QI and std_first:
            return MoufangSet(MoufangSet.INVOLUTORY, params)
        if sym == SYMBOL_QP and std_first:
            return MoufangSet(MoufangSet.PSEUDOQUADRATIC, params)
        ring = (params if sym == SYMBOL_T
                else params.handle if sym == SYMBOL_QI else params.h)
        return MoufangSet(MoufangSet.LINEAR, ring
                          if self.orientation == STANDARD else ring.opposite())

    def identity_word(self):
        return RootWord(self, [])

    def word(self, factors):
        return RootWord(self, list(factors)).normalized()

    def opposite(self):
        return rgs_opposite(self)

    def __repr__(self):
        base = self.name or "%s(%r)" % (self.symbol, self.params)
        return base if self.orientation == STANDARD else base + "^op"

    def same_shape(self, other):
        return (isinstance(other, PolygonDescriptor)
                and other.symbol == self.symbol
                and other.orientation == self.orientation
                and other.params is self.params)


def _standard_layout(symbol, params):
    """Slot groups and the literal standard relation table.

    Every slot group comes from `moufang.root_group`.  Relations quoted
    with inverted arguments are rewritten by substituting the
    parameter-group inverse for that slot.
    """
    if symbol == SYMBOL_T:
        h = params  # an algebra handle
        grp = root_group(h)
        groups = [grp, grp, grp]

        def rel(i, a, j, b):
            if (i, j) == (1, 3):
                return _clean(groups, [(2, h.mul(a, b))])
            return []
        return groups, rel

    if symbol == SYMBOL_QI:
        inv_set = params
        h = inv_set.handle
        k0 = root_group(h, inv_set.k0)
        k = root_group(h)
        groups = [k0, k, k0, k]
        sig = inv_set.sigma

        def rel(i, a, j, b):
            if (i, j) == (2, 4):
                bn = -b  # quoted with x4(t)^-1
                val = h.mul(sig(a), bn) + h.mul(sig(bn), a)
                return _clean(groups, [(3, val)])
            if (i, j) == (1, 4):
                bn = -b  # quoted with x4(s)^-1
                return _clean(groups, [
                    (2, h.mul(a, bn)),
                    (3, h.mul(h.mul(sig(bn), a), bn)),
                ])
            return []
        return groups, rel

    if symbol == SYMBOL_QP:
        sp = params
        h = sp.h
        tg = root_group(sp)
        k = root_group(h)
        groups = [tg, k, tg, k]
        sig = sp.inv.sigma

        def rel(i, a, j, b):
            if (i, j) == (1, 3):
                binv = b.inverse()  # quoted with x3(b,u)^-1
                return _clean(groups, [(2, sp.f(a.a, binv.a))])
            if (i, j) == (2, 4):
                bn = -b  # quoted with x4(w)^-1
                val = h.mul(sig(a), bn) + h.mul(sig(bn), a)
                return _clean(groups, [(3, TPoint(sp, sp.zero_vector(), val))])
            if (i, j) == (1, 4):
                bn = -b  # quoted with x4(v)^-1
                vec = sp.vec_scale(a.a, bn)
                t3 = h.mul(h.mul(sig(bn), a.t), bn)
                return _clean(groups, [
                    (2, h.mul(a.t, bn)),
                    (3, TPoint(sp, vec, t3)),
                ])
            return []
        return groups, rel

    if symbol == SYMBOL_QQ:
        sp = params
        k = root_group(sp.field)
        v = root_group(sp)
        groups = [k, v, k, v]

        def rel(i, a, j, b):
            if (i, j) == (2, 4):
                bn = -b  # quoted with x4(b)^-1
                return _clean(groups, [(3, sp.f(a, bn))])
            if (i, j) == (1, 4):
                bn = -b  # quoted with x4(a)^-1
                return _clean(groups, [
                    (2, bn.scale(a)),
                    (3, a * sp.q(bn)),
                ])
            return []
        return groups, rel

    if symbol == SYMBOL_QD:
        ind = params
        axioms = ind_check(ind)
        if not axioms.passed:
            raise ValueError("indifferent-set axioms fail: %r" % axioms)
        h = ind.handle
        k0 = root_group(h, ind.k0)
        l0 = root_group(h, ind.l0)
        groups = [k0, l0, k0, l0]

        def rel(i, a, j, b):
            if (i, j) == (1, 4):
                # quoted plain: [x1(t), x4(a)] = x2(t^2 a) x3(t a)
                return _clean(groups, [
                    (2, h.mul(h.mul(a, a), b)),
                    (3, h.mul(a, b)),
                ])
            return []
        return groups, rel

    raise ValueError("unknown symbol %r" % symbol)


def _clean(groups, factors):
    return [(k, w) for (k, w) in factors if not groups[k - 1].is_identity(w)]


def rgs_opposite(desc):
    """The reversed reading over the opposite parameter system; the double
    opposite is the original descriptor."""
    if desc.orientation == STANDARD:
        return PolygonDescriptor(desc.symbol, desc.params, OPPOSITE,
                                 name=desc.name)
    return PolygonDescriptor(desc.symbol, desc.params, STANDARD,
                             name=desc.name)


# -- words and collection -----------------------------------------------------

def collect(factors, merge, commutator, max_rounds=10000):
    """The normal form of a word given as (slot, parameter) factors.

    Each round rewrites the first adjacent pair that is out of normal
    form: two factors in slot i become their product `merge(i, a, b)`,
    dropped when it returns None (the identity), and x_i(a) x_j(b) with
    i > j becomes x_j(b) x_i(a) [x_i(a), x_j(b)], the commutator given as
    factors by `commutator(i, a, j, b)`.  The pairs left of a rewrite
    stay in normal form, so the next round's scan starts one pair before
    it.  Parameters may be group elements or indices; the callbacks fix
    which.
    """
    fs = list(factors)
    rounds = 1  # the last round finds every pair in normal form
    k = 0
    while k < len(fs) - 1:
        (i, a), (j, b) = fs[k], fs[k + 1]
        if i < j:
            k += 1
            continue
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("collection did not terminate")
        if i == j:
            m = merge(i, a, b)
            fs[k:k + 2] = [] if m is None else [(i, m)]
        else:
            fs[k:k + 2] = [(j, b), (i, a)] + commutator(i, a, j, b)
        k = max(k - 1, 0)
    return fs


class RootWord:
    __slots__ = ("desc", "factors")

    def __init__(self, desc, factors):
        self.desc = desc
        self.factors = list(factors)

    def normalized(self, max_rounds=10000):
        desc = self.desc

        def merge(i, a, b):
            grp = desc.group(i)
            m = grp.op(a, b)
            return None if grp.is_identity(m) else m

        def commutator(i, a, j, b):
            # [x_i(a), x_j(b)] = [x_j(b), x_i(a)]^-1
            return [(m, desc.group(m).inv(w))
                    for (m, w) in desc.relation(j, b, i, a)]

        return RootWord(desc, collect(self.factors, merge, commutator,
                                      max_rounds))

    def __mul__(self, other):
        if not self.desc.same_shape(other.desc):
            raise ValueError("words over different descriptors")
        return RootWord(self.desc, self.factors + other.factors).normalized()

    def inverse(self):
        inv = [(i, self.desc.group(i).inv(a))
               for (i, a) in reversed(self.factors)]
        return RootWord(self.desc, inv).normalized()

    def is_identity(self):
        return not self.normalized().factors

    def slot(self, i):
        for (k, a) in self.factors:
            if k == i:
                return a
        return self.desc.group(i).identity()

    def __eq__(self, other):
        return (isinstance(other, RootWord)
                and self.desc.same_shape(other.desc)
                and self.normalized().factors == other.normalized().factors)

    def __repr__(self):
        if not self.factors:
            return "1"
        return "".join("x%d(%r)" % (i, a) for (i, a) in self.factors)


def rgs_commutator(desc, i, a, j, b):
    """The word [x_i(a), x_j(b)] in normal form (i < j)."""
    return RootWord(desc, desc.relation(i, a, j, b))


def rgs_multiply(w1, w2):
    return w1 * w2


# -- finite word groups -------------------------------------------------------

class WordGroup(tbl.FiniteGroupTable):
    """The full group U = U_1 ... U_n for a finite parameter system: a
    finite group table whose Cayley table is built by composing generator
    translations.

    The table is built in index space: a word is its slot indices into
    `slot_elems` (index 0 the identity), and `collect` runs on
    (slot, index) factors with per-slot product and inverse tables, so
    each commutator is read from the descriptor once per build.  Right
    translation by x_i(m) collects only the word's factors after slot i
    with x_i(m) appended, once per such tail: no commutator of slots
    i < j reaches slot i, so x_i(m) comes out in front unchanged and
    merges into the word's slot i, as collecting the whole word does."""

    def __init__(self, desc):
        self.desc = desc
        slot_elems = [desc.group(i).elements() for i in range(1, desc.n + 1)]
        self.slot_elems = slot_elems
        self.slot_index = [
            {m: k for k, m in enumerate(ms)} for ms in slot_elems]
        # a word's index is its slot indices in mixed radix, last slot
        # fastest (the order of `_build_elements`)
        sizes = [len(ms) for ms in slot_elems]
        self.strides = [math.prod(sizes[m:]) for m in range(1, desc.n + 1)]
        self.elements = []
        self.index = {}
        self._trees = {}
        self._build_elements()
        super().__init__(self.elements, self._build_table(), self.identity)

    def _word_key(self, word):
        return tuple(idx[word.slot(i)]
                     for i, idx in enumerate(self.slot_index, 1))

    def _build_elements(self):
        desc = self.desc
        # normalize slot 0 = identity convention
        for i, ms in enumerate(self.slot_elems):
            if not desc.group(i + 1).is_identity(ms[0]):
                raise AssertionError("slot element 0 must be the identity")
        ranges = [range(len(ms)) for ms in self.slot_elems]
        for combo in itertools.product(*ranges):
            factors = [(i + 1, self.slot_elems[i][k])
                       for i, k in enumerate(combo) if k]
            self.index[combo] = len(self.elements)
            self.elements.append(RootWord(desc, factors))
        self.identity = self.index[tuple(0 for _ in range(desc.n))]

    def _build_table(self):
        desc = self.desc
        ops, invs = [], []
        for i, ms in enumerate(self.slot_elems):
            grp, idx = desc.group(i + 1), self.slot_index[i]
            ops.append([[idx[grp.op(a, b)] for b in ms] for a in ms])
            invs.append([idx[grp.inv(a)] for a in ms])

        def merge(i, a, b):
            return ops[i - 1][a][b] or None

        memo = {}

        def commutator(i, a, j, b):
            # [x_i(a), x_j(b)] = [x_j(b), x_i(a)]^-1, memoized per build
            comm = memo.get((j, b, i, a))
            if comm is None:
                comm = memo[(j, b, i, a)] = [
                    (m, invs[m - 1][self.slot_index[m - 1][w]])
                    for (m, w) in desc.relation(
                        j, self.slot_elems[j - 1][b],
                        i, self.slot_elems[i - 1][a])]
            return comm

        n_el = len(self.elements)
        sizes = [len(ms) for ms in self.slot_elems]
        strides = self.strides
        right = []  # right[i][k] = permutation of right-multiplying x_i(m_k)
        for i, size in enumerate(sizes):
            # a word is (head, x_i(a), tail) over the slots before, at
            # and after i
            tails = [[(m, c) for m, c in enumerate(combo, i + 2) if c]
                     for combo in itertools.product(*map(range,
                                                         sizes[i + 1:]))]
            heads = np.arange(n_el // (size * strides[i]))[:, None, None]
            perms = [np.arange(n_el)]
            for k in range(1, size):
                # each tail's index once x_i(m_k) has passed it, and the
                # index of a m_k in slot i for each a
                moved = np.array([sum(c * strides[m - 1] for m, c in collect(
                    tail + [(i + 1, k)], merge, commutator)[1:])
                    for tail in tails])
                merged = np.array([row[k] for row in ops[i]])
                perms.append((heads * size * strides[i]
                              + merged[None, :, None] * strides[i]
                              + moved[None, None, :]).reshape(-1))
            right.append(perms)
        table = np.arange(n_el)[:, None]
        for perms in right:
            # table[w, g] = wg for the words g over the slots so far, in
            # the kernel's compact dtype, which the group keeps
            cols = tbl._kernel._compact(np.stack(perms, axis=1), n_el)
            table = cols.take(table, axis=0).reshape(n_el, -1)
        return table

    def check_axioms(self):
        rep = super().check_axioms()
        rep.subject = repr(self.desc)
        rep.add("group.order", self.n, True, note="|U| = %d" % self.n)
        return rep

    def element_index(self, word):
        return self.index[self._word_key(word.normalized())]

    def slot_word_index(self, slot, m):
        """The index of the one-factor word x_slot(m), read off the mixed
        radix without normalizing a word."""
        return self.slot_index[slot - 1][m] * self.strides[slot - 1]

    def end_generators(self, map_first, map_last):
        """(word, image word) index pairs: each nonidentity x_1(m), then
        each nonidentity x_n(m), with the word of its image under the
        end map of its slot."""
        desc = self.desc
        gens = []
        for slot, mapping in ((1, map_first), (desc.n, map_last)):
            grp = desc.group(slot)
            for m in self.slot_elems[slot - 1]:
                if grp.is_identity(m):
                    continue
                gens.append((self.slot_word_index(slot, m),
                             self.slot_word_index(slot, mapping(m))))
        return gens

    def extend_from_generators(self, pairs):
        """`tables.extend_from_generators` on this table onto itself:
        (perm, conflict), where perm is int64 with -1 at the words the
        sources do not reach.

        The breadth-first spanning tree of the words the sources reach is
        built once per tuple of sources (`_spanning_tree`).  Each call
        fills perm level by level from the image columns, then checks
        every (word, generator) edge at once.  When every edge holds, the
        extension from the identity is unique, so perm is the walk's;
        when one fails no consistent map exists, and the walk runs to
        locate its first conflict."""
        levels, reached, right = self._spanning_tree(
            tuple(g for g, _ in pairs))
        images = self.table[:, [h for _, h in pairs]]
        perm = np.full(self.n, -1, dtype=np.int64)
        perm[self.identity] = self.identity
        for words, parents, gens in levels:
            perm[words] = images[perm[parents], gens]
        if np.array_equal(perm[right], images[perm[reached]]):
            return perm, None
        return tbl.extend_from_generators(self.table, self.table, pairs,
                                          self.identity, self.identity)

    def _spanning_tree(self, sources):
        """(levels, reached, right) for the right products of the identity
        with the source words: per level of a breadth-first search, the
        new words, their parents and the position of their generator in
        `sources`; every reached word, ascending; and its right products
        with the sources."""
        tree = self._trees.get(sources)
        if tree is None:
            cols = self.table[:, list(sources)]
            seen = np.zeros(self.n, dtype=bool)
            seen[self.identity] = True
            frontier = np.array([self.identity])
            levels = []
            while True:
                # the first edge into each word not seen yet
                words, first = np.unique(cols[frontier].reshape(-1),
                                         return_index=True)
                new = ~seen[words]
                words, first = words[new], first[new]
                if not words.size:
                    break
                seen[words] = True
                levels.append((words, frontier[first // len(sources)],
                               first % len(sources)))
                frontier = words
            reached = np.flatnonzero(seen)
            tree = self._trees[sources] = (levels, reached, cols[reached])
        return tree

    def extend_end_maps(self, map_first, map_last):
        """Extend maps on the two end slots to a permutation of the
        subgroup they generate (by `extend_from_generators`, which
        returns what `tables.extend_from_generators` does), then check
        the homomorphism property exhaustively on that subgroup (which is
        the whole group whenever the end groups generate).

        Returns (report, perm or None); perm is over the full index set
        only when the ends generate.
        """
        n_el = len(self.elements)
        rep = Report("wordgroup.end-extension", subject=repr(self.desc))
        perm, conflict = self.extend_from_generators(
            self.end_generators(map_first, map_last))
        if conflict is not None:
            rep.add("extension.consistent", n_el, False,
                    counterexample=conflict, mode=SWEPT)
            return rep, None
        perm = np.asarray(perm, dtype=np.int64)
        reached = np.nonzero(perm != -1)[0]
        m = reached.size
        full = m == n_el
        rep.add("extension.generates", n_el, True, note=None if full else
                "end groups generate a subgroup of order %d" % m, mode=SWEPT)
        if full:
            sub_table, sub_perm = self.table, perm.astype(np.int32)
        else:
            # restrict to the generated subgroup, reindex and check there;
            # it is closed under products and holds every image
            sub_of = np.full(n_el, -1, dtype=np.int32)
            sub_of[reached] = np.arange(m, dtype=np.int32)
            sub_table = sub_of[self.table[np.ix_(reached, reached)]]
            sub_perm = sub_of[perm[reached]]
        # both are index arrays built here: the kernel takes them unchecked
        bad = tbl._kernel.first_hom_violation(sub_table, sub_perm)
        rep.add("extension.automorphism" if full else
                "extension.automorphism-on-subgroup", m * m, bad is None,
                counterexample=bad, mode=SWEPT)
        bij = len(set(sub_perm.tolist())) == m
        rep.add("extension.bijective", m, bij, mode=SWEPT)
        return rep, (sub_perm if bad is None and bij else None)


# -- Hua end actions ----------------------------------------------------------

def rgs_hua_end_action(desc, end, s):
    """The pair of maps on (M_1, M_n) induced by the Hua automorphism
    anchored at the given end with parameter s: on the anchor's own end
    the Hua map h_s of the end Moufang set, on the far end a closed form
    chosen by which standard end the anchor sits at."""
    own = desc.end_set(end)
    if own.is_zero(s):
        raise ZeroParameter("anchor parameter must be nonzero")
    std_first = desc.at_standard_first(end)
    sym = desc.symbol

    if sym == SYMBOL_T:
        h = own.h
        if end == "first":
            far = lambda u: h.mul(h.inv(s), u)
        else:
            far = lambda t: h.mul(t, h.inv(s))
    elif sym == SYMBOL_QI:
        # the ring of the field end, reversed on the opposite reading
        far_end = "last" if end == "first" else "first"
        h = desc.end_set(far_end if std_first else end).h
        sig = desc.params.sigma
        if std_first:                                       # s in K0
            far = lambda t: h.mul(h.inv(s), t)
        else:                                               # s in K
            far = lambda u: h.mul(h.mul(h.inv(sig(s)), u), h.inv(s))
    elif sym == SYMBOL_QP:
        sp = desc.params
        h = sp.h
        sig = sp.inv.sigma
        if std_first:                                       # s in T*
            far = lambda u: h.mul(h.inv(sig(s.t)), u)
        else:                                               # s in K
            far = lambda p: TPoint(sp, sp.vec_scale(p.a, h.inv(s)),
                                   h.mul(h.mul(h.inv(sig(s)), p.t),
                                         h.inv(s)))
    elif sym == SYMBOL_QQ:
        if std_first:                                       # s in K*
            far = lambda b: b.scale(s.inv())
        else:                                               # s in L0*
            qa = desc.params.q(s)
            far = lambda t: t * qa.inv()
    else:                                                   # SYMBOL_QD
        h = desc.params.handle
        if std_first:                                       # s in K0*
            far = lambda b: h.mul(b, h.inv(h.mul(s, s)))
        else:                                               # s in L0*
            far = lambda u: h.mul(u, h.inv(s))

    def hua(x):
        return own.hua(s, x)
    return (hua, far) if end == "first" else (far, hua)


def rgs_hua_consistency(desc, samples=1000, seed=47):
    """Well-definedness of the end actions.

    A finite parameter system whose word group has at most 4096 words
    (`_EXHAUSTIVE_WORDS`, counted from the slot sizes) gets the
    exhaustive automorphism-extension check on that group: every
    anchor's end maps extend along the one spanning tree the group keeps
    for its end generators (`WordGroup.extend_from_generators`).  The
    group is `desc.word_group()`, which lives as long as the descriptor,
    as its end sets do: 2^24 int16 table entries (32 MB) at the bound.
    Other triangles get the closed-form identities on samples, other
    quadrangles sampled endomorphism checks of the end maps themselves.
    """
    rep = Report("hua.consistency", seed=seed, subject=repr(desc))
    rng = random.Random(seed)
    groups = [desc.group(i) for i in range(1, desc.n + 1)]
    exhaustive = (all(g.is_finite() for g in groups) and math.prod(
        g.size() for g in groups) <= _EXHAUSTIVE_WORDS)

    if desc.symbol == SYMBOL_T and not exhaustive:
        # the Hua automorphism anchored at either end sends the middle
        # factor tu of [x_1(t), x_3(u)] to s(tu) (first) or (tu)s (last)
        h = desc.end_set("first").h

        def law(end):
            def holds(s, t, u):
                m1, m3 = rgs_hua_end_action(desc, end, s)
                tu = h.mul(t, u)
                # a carrier that is no division ring has nonzero anchors
                # with no inverse: the law fails at the first one
                image = _defined(lambda: h.mul(m1(t), m3(u)))
                return image is not None and image == (
                    h.mul(s, tu) if end == "first" else h.mul(tu, s))
            return holds

        for end in ("first", "last"):
            rep.first_failure(
                "triangle.%s-end-identity" % end,
                ((h.random(rng, 9, nonzero=True), h.random(rng, 9),
                  h.random(rng, 9)) for _ in range(samples)),
                law(end), samples, cex=reprs)
        return rep

    if exhaustive:
        wg = desc.word_group()
        for end in ("first", "last"):
            slot = 1 if end == "first" else desc.n
            grp = desc.group(slot)
            anchors = [m for m in grp.elements() if not grp.is_identity(m)]

            def extends(s):
                sub, perm = wg.extend_end_maps(
                    *rgs_hua_end_action(desc, end, s))
                if perm is None:
                    rep.extend(sub)
                return perm is not None

            rep.first_failure("hua.%s-end-extends" % end,
                              ((s,) for s in anchors), extends,
                              len(anchors) * len(wg.elements) ** 2,
                              mode=SWEPT)
        return rep

    # other quadrangles: endomorphism property of the end maps, on the
    # first and then the last root group of each sampled anchor
    g1, gn = desc.group(1), desc.group(desc.n)
    for end in ("first", "last"):
        grp = desc.group(1 if end == "first" else desc.n)

        def slots():
            for _ in range(samples):
                s = grp.random(rng, nonzero=True)
                m1, mn = rgs_hua_end_action(desc, end, s)
                for slot, g, m in (("first-slot", g1, m1),
                                   ("last-slot", gn, mn)):
                    yield slot, s, g, m, g.random(rng), g.random(rng)

        rep.first_failure(
            "hua.%s-end-endomorphism" % end, slots(),
            lambda slot, s, g, m, x, y:
            m(g.op(x, y)) == g.op(m(x), m(y)),
            samples, cex=lambda slot, s, *rest: (slot, repr(s)))
    return rep


# -- shipped instances --------------------------------------------------------

def triangle(handle, name=None):
    return PolygonDescriptor(SYMBOL_T, as_handle(handle), name=name)


def qq_f4_space():
    from .quadspace import space_from_quadext
    from .scalars import F4
    return PolygonDescriptor(
        SYMBOL_QQ, space_from_quadext(F4, name="(F4,F2,N)"), name="QQ-F4")


def qp_xi_f4():
    from .pseudoquad import xi_f4
    return PolygonDescriptor(SYMBOL_QP, xi_f4(), name="QP-XiF4")
