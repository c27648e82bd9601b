"""Parametrized Moufang triangles and the four implemented quadrangle
families as root group sequences: commutator tables, a collection-based
word group, opposites, Hua end actions and consistency verification.

Words are kept in normal form x_1(m_1)...x_n(m_n) with strictly increasing
indices.  The standard tables are stored literally (with inverse-argument
entries rewritten by substituting the parameter-group inverse); opposite
tables are derived mechanically by reversing the sequence, which is
validated against the quoted opposite forms on the finite instances.
"""

from __future__ import annotations

import operator
import random
from operator import methodcaller

import numpy as np

from . import tables as tbl
from .pseudoquad import TPoint, t_hua
from .quadspace import qs_hua
from .report import Report


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


# -- parameter groups ---------------------------------------------------------

class ParamGroup:
    """A parameter group of a root group sequence, given by its operations:
    op, inverse, identity (a fresh element), identity test, hashable key,
    enumeration (raising TypeError when infinite), seeded sampling
    random(rng, height=9, nonzero=False), and rendering."""

    __slots__ = ("op", "inv", "identity", "is_identity", "key", "elements",
                 "random", "render")

    def __init__(self, op, inv, identity, is_identity, key, elements, random,
                 render):
        self.op = op
        self.inv = inv
        self.identity = identity
        self.is_identity = is_identity
        self.key = key
        self.elements = elements
        self.random = random
        self.render = render


# -- descriptors --------------------------------------------------------------

class PolygonDescriptor:
    """Symbol + orientation + parameter system, with slot groups and the
    commutator table."""

    def __init__(self, symbol, params, orientation=STANDARD, name=None):
        self.symbol = symbol
        self.orientation = orientation
        self.params = params
        self.name = name
        self.n = 3 if symbol == SYMBOL_T else 4
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

    Relations quoted with inverted arguments are rewritten by substituting
    the parameter-group inverse for that slot.
    """
    def resampled(draw, is_identity):
        # draw(rng, height) again until nonzero, when asked for
        def random(rng, height=9, nonzero=False):
            while True:
                x = draw(rng, height)
                if not (nonzero and is_identity(x)):
                    return x
        return random

    def additive(h, span=None):
        # a whole carrier (field / tower), or a span K0 / L0 in it, under +
        if span is None:
            elements = h.elements
            random = (lambda rng, height=9, nonzero=False:
                      h.random(rng, height, nonzero=nonzero))
        else:
            elements = span.elements
            random = resampled(span.sample, h.is_zero)
        return ParamGroup(h.add, h.neg, h.zero, h.is_zero, h.key, elements,
                          random, h.render)

    if symbol == SYMBOL_T:
        h = params  # an algebra handle
        grp = additive(h)
        groups = [grp, grp, grp]

        def rel(i, a, j, b):
            if (i, j) == (1, 3):
                return _clean(groups, [(2, h.mul(a, b))])
            return []
        return groups, rel

    if symbol == SYMBOL_QI:
        inv_set = params
        h = inv_set.handle
        k0 = additive(h, inv_set.k0)
        k = additive(h)
        groups = [k0, k, k0, k]
        sig = inv_set.sigma

        def rel(i, a, j, b):
            if (i, j) == (2, 4):
                bn = h.neg(b)  # quoted with x4(t)^-1
                val = h.add(h.mul(sig(a), bn), h.mul(sig(bn), a))
                return _clean(groups, [(3, val)])
            if (i, j) == (1, 4):
                bn = h.neg(b)  # quoted with x4(s)^-1
                return _clean(groups, [
                    (2, h.mul(a, bn)),
                    (3, h.mul(h.mul(sig(bn), a), bn)),
                ])
            return []
        return groups, rel

    if symbol == SYMBOL_QP:
        sp = params
        h = sp.h
        is_identity = methodcaller("is_identity")
        tg = ParamGroup(  # the group T under its product
            operator.mul, methodcaller("inverse"), sp.identity, is_identity,
            methodcaller("key"), lambda: list(sp.enumerate_t()),
            resampled(sp.random_point, is_identity), repr)
        k = additive(h)
        groups = [tg, k, tg, k]
        sig = sp.inv.sigma

        def rel(i, a, j, b):
            if (i, j) == (1, 3):
                binv = b.inverse()  # quoted with x3(b,u)^-1
                return _clean(groups, [(2, sp.f(a.a, binv.a))])
            if (i, j) == (2, 4):
                bn = h.neg(b)  # quoted with x4(w)^-1
                val = h.add(h.mul(sig(a), bn), h.mul(sig(bn), a))
                return _clean(groups, [(3, TPoint(sp, sp.zero_vector(), val))])
            if (i, j) == (1, 4):
                bn = h.neg(b)  # quoted with x4(v)^-1
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
        fld = sp.field
        k = additive(_field_handle(fld))
        v = ParamGroup(  # the vector group
            operator.add, operator.neg, sp.zero, methodcaller("is_zero"),
            methodcaller("key"), lambda: list(sp.enumerate_vectors()),
            lambda rng, height=9, nonzero=False: sp.random_vector(
                rng, height, nonzero=nonzero),
            repr)
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
        from .unitary import ind_check
        ind = params
        axioms = ind_check(ind)
        if not axioms.passed:
            raise ValueError("indifferent-set axioms fail: %r" % axioms)
        h = ind.handle
        k0 = additive(h, ind.k0)
        l0 = additive(h, ind.l0)
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


def _field_handle(field):
    from .handles import FieldHandle
    return FieldHandle(field)


def rgs_opposite(desc):
    """The reversed reading over the opposite parameter system; the double
    opposite is the original descriptor."""
    if desc.orientation == STANDARD:
        return PolygonDescriptor(desc.symbol, desc.params, OPPOSITE,
                                 name=desc.name)
    return PolygonDescriptor(desc.symbol, desc.params, STANDARD,
                             name=desc.name)


# -- words and collection -----------------------------------------------------

class RootWord:
    __slots__ = ("desc", "factors")

    def __init__(self, desc, factors):
        self.desc = desc
        self.factors = list(factors)

    def normalized(self, max_rounds=10000):
        desc = self.desc
        fs = list(self.factors)
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("collection did not terminate")
            changed = False
            k = 0
            while k + 1 < len(fs):
                (i, a), (j, b) = fs[k], fs[k + 1]
                if i == j:
                    grp = desc.group(i)
                    merged = grp.op(a, b)
                    if grp.is_identity(merged):
                        fs[k:k + 2] = []
                    else:
                        fs[k:k + 2] = [(i, merged)]
                    changed = True
                    break
                if i > j:
                    # x_i(a) x_j(b) = x_j(b) x_i(a) [x_i(a), x_j(b)] and
                    # [x_i(a), x_j(b)] = [x_j(b), x_i(a)]^-1
                    comm = desc.relation(j, b, i, a)
                    inv_comm = [(m, desc.group(m).inv(w)) for (m, w) in comm]
                    fs[k:k + 2] = [(j, b), (i, a)] + inv_comm
                    changed = True
                    break
                k += 1
            if not changed:
                return RootWord(desc, fs)

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

    def key(self):
        return tuple((i, self.desc.group(i).key(a)) for (i, a) in self.factors)

    def __eq__(self, other):
        return (isinstance(other, RootWord)
                and self.desc.same_shape(other.desc)
                and self.normalized().key() == other.normalized().key())

    def __repr__(self):
        if not self.factors:
            return "1"
        return "".join("x%d(%s)" % (i, self.desc.group(i).render(a))
                       for (i, a) in self.factors)


def rgs_commutator(desc, i, a, j, b):
    """The word [x_i(a), x_j(b)] in normal form (i < j)."""
    return RootWord(desc, desc.relation(i, a, j, b))


def rgs_multiply(w1, w2):
    return w1 * w2


# -- finite word groups -------------------------------------------------------

class WordGroup:
    """The full group U = U_1 ... U_n for a finite parameter system, with a
    numpy Cayley table built by composing generator translations."""

    def __init__(self, desc):
        self.desc = desc
        slot_elems = [desc.group(i).elements() for i in range(1, desc.n + 1)]
        self.slot_elems = slot_elems
        self.slot_index = [
            {desc.group(i + 1).key(m): k for k, m in enumerate(ms)}
            for i, ms in enumerate(slot_elems)]
        self.elements = []
        self.index = {}
        self._build_elements()
        self._build_table()

    def _word_key(self, word):
        slots = []
        for i in range(1, self.desc.n + 1):
            grp = self.desc.group(i)
            slots.append(self.slot_index[i - 1][grp.key(word.slot(i))])
        return tuple(slots)

    def _build_elements(self):
        import itertools
        desc = self.desc
        ranges = [range(len(ms)) for ms in self.slot_elems]
        for combo in itertools.product(*ranges):
            factors = []
            for i, k in enumerate(combo):
                m = self.slot_elems[i][k]
                if not desc.group(i + 1).is_identity(m):
                    factors.append((i + 1, m))
            self.index[combo] = len(self.elements)
            self.elements.append(RootWord(desc, factors))
        self.identity = self.index[tuple(0 for _ in range(desc.n))]
        # normalize slot 0 = identity convention
        for i, ms in enumerate(self.slot_elems):
            grp = self.desc.group(i + 1)
            if not grp.is_identity(ms[0]):
                raise AssertionError("slot element 0 must be the identity")

    def _build_table(self):
        desc = self.desc
        n_el = len(self.elements)
        right = []  # right[i][k] = permutation of right-multiplying x_i(m_k)
        for i in range(1, desc.n + 1):
            perms = []
            for m in self.slot_elems[i - 1]:
                perm = np.empty(n_el, dtype=np.int32)
                for w_idx, w in enumerate(self.elements):
                    prod = RootWord(desc, w.factors + [(i, m)]).normalized()
                    perm[w_idx] = self.index[self._word_key(prod)]
                perms.append(perm)
            right.append(perms)
        table = np.empty((n_el, n_el), dtype=np.int32)
        arange = np.arange(n_el, dtype=np.int32)
        for combo, g_idx in self.index.items():
            col = arange
            for i, k in enumerate(combo):
                col = right[i][k][col]
            table[:, g_idx] = col
        self.table = table
        self._right = right

    def inverse_vector(self):
        n_el = len(self.elements)
        inv = np.empty(n_el, dtype=np.int32)
        for g in range(n_el):
            hits = np.nonzero(self.table[g] == self.identity)[0]
            inv[g] = hits[0] if hits.size else -1
        return inv

    def check_axioms(self):
        rep = tbl.check_group_axioms(self.table, self.identity,
                                     self.inverse_vector())
        rep.subject = repr(self.desc)
        rep.add("group.order", len(self.elements), True,
                note="|U| = %d" % len(self.elements))
        return rep

    def element_index(self, word):
        return self.index[self._word_key(word.normalized())]

    def extend_end_maps(self, map_first, map_last):
        """Extend maps on the two end slots to a permutation of the
        subgroup they generate (by BFS over end-generator products), then
        check the homomorphism property exhaustively on that subgroup
        (which is the whole group whenever the end groups generate).

        Returns (report, perm or None); perm is over the full index set
        only when the ends generate.
        """
        desc = self.desc
        n_el = len(self.elements)
        rep = Report("wordgroup.end-extension", subject=repr(desc))
        gens = []
        for slot, mapping in ((1, map_first), (desc.n, map_last)):
            grp = desc.group(slot)
            for m in self.slot_elems[slot - 1]:
                if grp.is_identity(m):
                    continue
                src = self.element_index(RootWord(desc, [(slot, m)]))
                dst = self.element_index(RootWord(desc, [(slot, mapping(m))]))
                gens.append((src, dst))
        perm = np.full(n_el, -1, dtype=np.int64)
        perm[self.identity] = self.identity
        frontier = [self.identity]
        while frontier:
            w = frontier.pop()
            for g_src, g_dst in gens:
                nxt = int(self.table[w, g_src])
                img = int(self.table[perm[w], g_dst])
                if perm[nxt] == -1:
                    perm[nxt] = img
                    frontier.append(nxt)
                elif perm[nxt] != img:
                    rep.add("extension.consistent", n_el, False,
                            counterexample=(int(w), int(g_src)))
                    return rep, None
        reached = np.nonzero(perm != -1)[0]
        full = reached.size == n_el
        rep.add("extension.generates", n_el, True,
                note=None if full else
                "end groups generate a subgroup of order %d" % reached.size)
        if full:
            perm32 = perm.astype(np.int32)
            bad = tbl.first_hom_violation(self.table, perm32)
            rep.add("extension.automorphism", n_el * n_el, bad is None,
                    counterexample=bad)
            bij = len(set(perm.tolist())) == n_el
            rep.add("extension.bijective", n_el, bij)
            return rep, (perm32 if bad is None and bij else None)
        # restrict to the generated subgroup, reindex and check there
        sub_of = {int(g): k for k, g in enumerate(reached)}
        m = reached.size
        sub_table = np.empty((m, m), dtype=np.int32)
        for a in range(m):
            for b in range(m):
                sub_table[a, b] = sub_of[int(self.table[reached[a],
                                                        reached[b]])]
        sub_perm = np.array([sub_of[int(perm[g])] for g in reached],
                            dtype=np.int32)
        bad = tbl.first_hom_violation(sub_table, sub_perm)
        rep.add("extension.automorphism-on-subgroup", m * m, bad is None,
                counterexample=bad)
        bij = len(set(sub_perm.tolist())) == m
        rep.add("extension.bijective", m, bij)
        return rep, (sub_perm if bad is None and bij else None)


# -- Hua end actions ----------------------------------------------------------

def rgs_hua_end_action(desc, end, s):
    """The closed-form pair of maps on (M_1, M_n) induced by the Hua
    automorphism anchored at the given end with parameter s."""
    if end not in ("first", "last"):
        raise ValueError("end must be 'first' or 'last'")
    anchor_slot = 1 if end == "first" else desc.n
    grp = desc.group(anchor_slot)
    if grp.is_identity(s):
        raise ZeroParameter("anchor parameter must be nonzero")
    sym, ori = desc.symbol, desc.orientation

    if sym == SYMBOL_T:
        h = desc.params if ori == STANDARD else _opp(desc.params)
        if end == "first":
            return (lambda t: h.mul(s, h.mul(t, s)),
                    lambda u: h.mul(h.inv(s), u))
        return (lambda t: h.mul(t, h.inv(s)),
                lambda u: h.mul(s, h.mul(u, s)))

    if sym == SYMBOL_QI:
        inv_set = desc.params
        h = inv_set.handle
        sig = inv_set.sigma
        if ori == OPPOSITE:
            if end == "first":   # s in K
                return (lambda t: h.mul(h.mul(s, t), s),
                        lambda u: h.mul(h.mul(h.inv(s), u), h.inv(sig(s))))
            return (lambda t: h.mul(t, h.inv(s)),           # s in K0
                    lambda u: h.mul(h.mul(sig(s), u), s))
        if end == "first":       # s in K0
            return (lambda u: h.mul(h.mul(s, u), s),
                    lambda t: h.mul(h.inv(s), t))
        return (lambda u: h.mul(h.mul(h.inv(sig(s)), u), h.inv(s)),  # s in K
                lambda t: h.mul(h.mul(s, t), s))

    if sym == SYMBOL_QP:
        sp = desc.params
        h = sp.h
        sig = sp.inv.sigma
        if ori == STANDARD:
            if end == "first":   # s = (a,t) in T*
                return (lambda p: t_hua(s, p),
                        lambda u: h.mul(h.inv(sig(s.t)), u))
            return (lambda p: TPoint(sp, sp.vec_scale(p.a, h.inv(s)),
                                     h.mul(h.mul(h.inv(sig(s)), p.t),
                                           h.inv(s))),      # s in K
                    lambda u: h.mul(h.mul(s, u), s))
        if end == "first":       # s in K
            return (lambda u: h.mul(h.mul(s, u), s),
                    lambda p: TPoint(sp, sp.vec_scale(p.a, h.inv(s)),
                                     h.mul(h.mul(h.inv(sig(s)), p.t),
                                           h.inv(s))))
        return (lambda u: h.mul(h.inv(sig(s.t)), u),        # s = (a,t) in T*
                lambda p: t_hua(s, p))

    if sym == SYMBOL_QQ:
        sp = desc.params
        fld = sp.field
        if ori == STANDARD:
            if end == "first":   # s in K*
                return (lambda t: s * t * s,
                        lambda b: b.scale(s.inv()))
            qa = sp.q(s)         # s in L0*
            return (lambda t: t * qa.inv(),
                    lambda b: qs_hua(sp, s, b, cross_check=False))
        if end == "first":       # s in L0*
            qa = sp.q(s)
            return (lambda b: qs_hua(sp, s, b, cross_check=False),
                    lambda t: t * qa.inv())
        return (lambda b: b.scale(s.inv()),                 # s in K*
                lambda t: s * s * t)

    if sym == SYMBOL_QD:
        ind = desc.params
        h = ind.handle
        if ori == STANDARD:
            if end == "first":   # s in K0*
                return (lambda u: h.mul(h.mul(s, s), u),
                        lambda b: h.mul(b, h.inv(h.mul(s, s))))
            return (lambda u: h.mul(u, h.inv(s)),           # s in L0*
                    lambda b: h.mul(b, h.mul(s, s)))
        if end == "first":       # s in L0*
            return (lambda b: h.mul(b, h.mul(s, s)),
                    lambda u: h.mul(u, h.inv(s)))
        return (lambda b: h.mul(b, h.inv(h.mul(s, s))),     # s in K0*
                lambda u: h.mul(h.mul(s, s), u))

    raise ValueError("no Hua actions for symbol %r" % sym)


def _opp(handle):
    return handle.opposite()


def rgs_hua_consistency(desc, samples=1000, seed=47):
    """Well-definedness of the end actions.

    Triangles get the closed-form identities on samples; finite parameter
    systems get the exhaustive automorphism-extension check on the full
    word group; infinite quadrangles get sampled endomorphism checks of
    the end maps themselves.
    """
    rep = Report("hua.consistency", seed=seed, subject=repr(desc))
    rng = random.Random(seed)
    finite = all(_group_is_finite(desc.group(i))
                 for i in range(1, desc.n + 1))

    if desc.symbol == SYMBOL_T and not finite:
        h = desc.params if desc.orientation == STANDARD else _opp(desc.params)
        ok, cex = True, None
        for k in range(samples):
            s = h.random(rng, 9, nonzero=True)
            t = h.random(rng, 9)
            u = h.random(rng, 9)
            sinv = h.inv(s)
            lhs = h.mul(h.mul(s, h.mul(t, s)), h.mul(sinv, u))
            rhs = h.mul(s, h.mul(t, u))
            if lhs != rhs:
                ok, cex = False, (h.render(s), h.render(t), h.render(u))
                break
        rep.add("triangle.first-end-identity", samples, ok, counterexample=cex)
        ok, cex = True, None
        for k in range(samples):
            s = h.random(rng, 9, nonzero=True)
            t = h.random(rng, 9)
            u = h.random(rng, 9)
            lhs = h.mul(h.mul(t, h.inv(s)), h.mul(s, h.mul(u, s)))
            rhs = h.mul(h.mul(t, u), s)
            if lhs != rhs:
                ok, cex = False, (h.render(s), h.render(t), h.render(u))
                break
        rep.add("triangle.last-end-identity", samples, ok, counterexample=cex)
        return rep

    if finite:
        wg = WordGroup(desc)
        for end in ("first", "last"):
            slot = 1 if end == "first" else desc.n
            grp = desc.group(slot)
            anchors = [m for m in grp.elements() if not grp.is_identity(m)]
            all_ok = True
            for s in anchors:
                m1, mn = rgs_hua_end_action(desc, end, s)
                sub, perm = wg.extend_end_maps(m1, mn)
                if perm is None:
                    all_ok = False
                    rep.extend(sub)
                    break
            rep.add("hua.%s-end-extends" % end,
                    len(anchors) * len(wg.elements) ** 2, all_ok)
        return rep

    # infinite quadrangles: endomorphism property of the end maps
    for end in ("first", "last"):
        slot = 1 if end == "first" else desc.n
        grp = desc.group(slot)
        ok, cex = True, None
        for k in range(samples):
            s = grp.random(rng, nonzero=True)
            m1, mn = rgs_hua_end_action(desc, end, s)
            g1, gn = desc.group(1), desc.group(desc.n)
            x, y = g1.random(rng), g1.random(rng)
            if g1.key(m1(g1.op(x, y))) != g1.key(g1.op(m1(x), m1(y))):
                ok, cex = False, ("first-slot", grp.render(s))
                break
            x, y = gn.random(rng), gn.random(rng)
            if gn.key(mn(gn.op(x, y))) != gn.key(gn.op(mn(x), mn(y))):
                ok, cex = False, ("last-slot", grp.render(s))
                break
        rep.add("hua.%s-end-endomorphism" % end, samples, ok,
                counterexample=cex)
    return rep


def _group_is_finite(grp):
    try:
        grp.elements()
        return True
    except TypeError:
        return False


# -- shipped instances --------------------------------------------------------

def triangle(handle, name=None):
    from .handles import as_handle
    return PolygonDescriptor(SYMBOL_T, as_handle(handle), name=name)


def qq_f4_space():
    from .quadspace import space_from_quadext
    from .scalars import F4
    return PolygonDescriptor(
        SYMBOL_QQ, space_from_quadext(F4, name="(F4,F2,N)"), name="QQ-F4")


def qp_xi_f4():
    from .pseudoquad import xi_f4
    return PolygonDescriptor(SYMBOL_QP, xi_f4(), name="QP-XiF4")
