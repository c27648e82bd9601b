"""Foundations: decorated Coxeter graphs with a polygon per directed edge
and a glueing per ordered triple, plus the machinery on top of them --
axioms, glueing signs, residues, reparametrization, covers, tree
canonicalization, positive-residue analysis, and the integrability
classifiers (necessary conditions only; no existence claims).

The map chain is defined here once: the atoms (identity, id^op, standard
involution, conjugation, Frobenius, linear, table) and `GlueingMap`, their
right-to-left chain with inverse, composition and parity.  Octonion Jordan
maps (`octonion_aut.JordanMap`) are the same chains with a domain algebra;
an atom's `additive` flag lets such a chain apply as one integer matrix
over the prime field, while a glueing here always applies atom by atom.
A Frobenius atom takes a signed power.  Opposite readings of a tower are
handles with the `reversed` flag set.  The Moufang set at each end of a
polygon, and so each end ring, is the polygon's own `end_set`.
`fnd_check` sweeps every edge for the opposite pairing of F2 and every
triple for the unit of F3; its Jordan checks sweep an end Moufang set
exhaustively or on samples by the one rule of `report.swept`.  The
simply-laced classifier reads a commutative carrier of no tower or field
type, such as the small field on a quadratic plane, as a field."""

from __future__ import annotations

import copy
import itertools
import random
import zlib

from . import linalg
from .composition import CDAlgebra
from .moufang import MoufangSet, ms_jordan_check
from .polygons import (OPPOSITE, STANDARD, SYMBOL_QD, SYMBOL_QE, SYMBOL_QF,
                       SYMBOL_QI, SYMBOL_QP, SYMBOL_QQ, SYMBOL_T,
                       rgs_opposite)
from .report import SWEPT, Report
from .scalars import Field, Scalar


class NotACover(ValueError):
    pass


class NotTree(ValueError):
    pass


class NotNegative(ValueError):
    pass


class TooSmall(ValueError):
    pass


class UnitIncompatible(ValueError):
    pass


class NotSimplyLaced(ValueError):
    pass


class NotA443Shape(ValueError):
    pass


# -- Coxeter diagrams ---------------------------------------------------------

class CoxeterDiagram:
    """Vertices with edge labels in {3, 4}; absent edges mean label 2."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = {}
        for (a, b), m in edges.items():
            if a == b or a not in self.vertices or b not in self.vertices:
                raise ValueError("bad edge (%r, %r)" % (a, b))
            if m not in (3, 4):
                raise ValueError("edge label must be 3 or 4")
            self.edges[frozenset((a, b))] = m

    def m(self, a, b):
        return self.edges.get(frozenset((a, b)), 2)

    def has_edge(self, a, b):
        return frozenset((a, b)) in self.edges

    def neighbors(self, v):
        return sorted(w for w in self.vertices
                      if w != v and self.has_edge(v, w))

    def directed_edges(self):
        out = []
        for e in self.edges:
            a, b = sorted(e)
            out += [(a, b), (b, a)]
        return sorted(out)

    def triples(self):
        """Ordered triples (i, j, k): both (i,j) and (j,k) edges, i != k."""
        out = []
        for j in self.vertices:
            nb = self.neighbors(j)
            for i in nb:
                for k in nb:
                    if i != k:
                        out.append((i, j, k))
        return out

    def is_simply_laced(self):
        return all(m == 3 for m in self.edges.values())

    def degree(self, v):
        return len(self.neighbors(v))

    def is_tree(self):
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        n_edges = 0
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                n_edges += 1
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices) \
            and n_edges == 2 * len(self.edges) \
            and len(self.edges) == len(self.vertices) - 1

    def restricted(self, subset):
        subset = [v for v in self.vertices if v in set(subset)]
        edges = {tuple(sorted(e)): m for e, m in self.edges.items()
                 if all(v in subset for v in e)}
        return CoxeterDiagram(subset, edges)


# -- glueing maps -------------------------------------------------------------

ISO, ANTI, UNKNOWN = 1, -1, 0


class GAtom:
    """One map of a chain.  `additive` marks an atom whose apply is
    additive on every element it takes, and so linear over the prime
    field; a Jordan map of a tower whose atoms are all additive applies
    as one integer matrix (`octonion_aut.JordanMap`)."""

    parity = UNKNOWN
    additive = False

    def apply(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError


class GIdentity(GAtom):
    parity = ISO
    additive = True

    def apply(self, x):
        return x

    def inverse(self):
        return self

    def __repr__(self):
        return "id"


class GIdOpposite(GAtom):
    """Identity on elements; marks the switch to the opposite reading."""

    parity = ANTI
    additive = True

    def apply(self, x):
        return x

    def inverse(self):
        return self

    def __repr__(self):
        return "id^op"


class GStandardInvolution(GAtom):
    parity = ANTI
    additive = True

    def apply(self, x):
        return x.conj()

    def inverse(self):
        return self

    def __repr__(self):
        return "sigma_s"


class GScalarConj(GAtom):
    """x -> w^-1 x w."""

    parity = ISO
    additive = True

    def __init__(self, w):
        if w.norm().is_zero():
            raise ValueError("conjugation needs an invertible element")
        self.w = w
        self.w_inv = w.inverse()

    def apply(self, x):
        return (self.w_inv * x) * self.w

    def inverse(self):
        return GScalarConj(self.w_inv)

    def __repr__(self):
        return "conj[%r]" % self.w


class GFrobenius(GAtom):
    """x -> x^(p^power), the power taken mod the degree over the prime
    field on a finite carrier; a negative power, the inverse map, is
    defined on finite carriers only."""

    parity = ISO

    def __init__(self, power=1):
        if type(power) is not int:
            raise TypeError("a Frobenius power is an integer, not %r"
                            % (power,))
        self.power = power

    def apply(self, x):
        field = x.field
        p = field.characteristic()
        if p == 0:
            raise TypeError("Frobenius needs positive characteristic")
        steps = self.power
        if field.is_finite():
            steps %= field.coord_dim
        elif steps < 0:
            raise TypeError("inverse Frobenius needs a finite carrier")
        return _pow(x, p ** steps)

    def inverse(self):
        return GFrobenius(-self.power)

    def __repr__(self):
        return "frob^%d" % self.power


def _pow(x, k):
    """x^k by square-and-multiply: at most 2 * k.bit_length() products."""
    if k < 2:
        return x if k else x.field.one()
    half = _pow(x * x, k // 2)
    return half * x if k % 2 else half


class GLinear(GAtom):
    """Coordinate-matrix map over the carrier's coordinate field F, applied
    on integer coordinates over Q or F_p: the images of the lifted unit
    vectors are ``linalg._expanded`` of the matrix columns."""

    parity = UNKNOWN
    additive = True

    def __init__(self, matrix, handle):
        self.matrix = [row[:] for row in matrix]
        self.handle = handle
        self.field = field = matrix[0][0].field
        images, self._den = linalg._expanded(field, list(zip(*matrix)))
        self._rows = linalg._sparse(zip(*images))

    def apply(self, x):
        f = self.field
        X, d = f.lift([c.val for c in x.coords])
        return self.handle.carrier.element([Scalar(f, v) for v in f.lower(
            linalg._apply(self._rows, X), self._den * d)])

    def inverse(self):
        """Row i of the inverse: the coefficients of e_i in the rows."""
        field, n = self.field, len(self.matrix)
        proj = linalg.Projector(field, linalg._expanded(field, self.matrix))
        try:
            inv = [proj.coefficients([field.scalar(int(i == j))
                                      for j in range(n)]) for i in range(n)]
        except linalg.NotInSpan:
            raise ValueError("singular glueing matrix") from None
        return GLinear(inv, self.handle)

    def __repr__(self):
        return "linear"


class GTableMap(GAtom):
    parity = UNKNOWN

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.table = dict(self.pairs)

    def apply(self, x):
        return self.table[x]

    def inverse(self):
        return GTableMap([(b, a) for a, b in self.pairs])

    def __repr__(self):
        return "table"


class GlueingMap:
    """Ordered atom chain applied right-to-left; must send unit to unit.

    Glueings of foundations and Jordan maps of octonion towers are both
    such chains; `inverse` and `compose` return the same kind of map as
    `self`, with any further attributes (a domain algebra) kept."""

    def __init__(self, atoms):
        self.atoms = list(atoms)

    def apply(self, x):
        for atom in reversed(self.atoms):
            x = atom.apply(x)
        return x

    def __call__(self, x):
        return self.apply(x)

    def _with_atoms(self, atoms):
        out = copy.copy(self)
        out.atoms = atoms
        return out

    def inverse(self):
        return self._with_atoms([a.inverse() for a in reversed(self.atoms)])

    def compose(self, inner):
        """self after inner."""
        return self._with_atoms(self.atoms + inner.atoms)

    def parity(self):
        """Parity of the substantive atoms; opposite markers are reading
        bookkeeping and contribute nothing (the reading flips are counted
        from the end carriers instead)."""
        p = ISO
        for a in self.atoms:
            if isinstance(a, GIdOpposite):
                continue
            if a.parity == UNKNOWN:
                return UNKNOWN
            p *= a.parity
        return p

    def __repr__(self):
        return " . ".join(repr(a) for a in self.atoms) or "id"


def identity_glueing():
    return GlueingMap([GIdentity()])


def id_opposite_glueing():
    return GlueingMap([GIdOpposite()])


def sigma_s_glueing():
    return GlueingMap([GStandardInvolution()])


# -- end structure of a directed polygon ---------------------------------------

def end_ring(desc, end):
    """The multiplicative handle carried by the given end, when the end
    parametrizes a linear (alternative-ring) Moufang set (None
    otherwise)."""
    if desc.groups is None:
        return None
    mset = desc.end_set(end)
    return mset.h if mset.family == MoufangSet.LINEAR else None


# -- foundations ---------------------------------------------------------------

class Foundation:
    """diagram + polygon per directed edge + glueing per ordered triple.

    Polygons are supplied for one direction per edge; the reverse direction
    is the opposite reading.  Glueings are completed using the symmetry and
    cocycle laws when only a generating set is supplied.
    """

    def __init__(self, diagram, polygons, glueings, name=None,
                 complete=True):
        self.diagram = diagram
        self.name = name
        self.polygons = {}
        for (i, j), desc in polygons.items():
            if not diagram.has_edge(i, j):
                raise ValueError("polygon on a non-edge (%r,%r)" % (i, j))
            expected_n = 3 if diagram.m(i, j) == 3 else 4
            if desc.n != expected_n and desc.symbol not in (SYMBOL_QE,
                                                            SYMBOL_QF):
                raise ValueError("polygon size does not match edge label")
            self.polygons[(i, j)] = desc
            self.polygons.setdefault((j, i), rgs_opposite(desc))
        for (i, j) in diagram.directed_edges():
            if (i, j) not in self.polygons:
                raise ValueError("no polygon for edge (%r,%r)" % (i, j))
        self.glueings = dict(glueings)
        if complete:
            self._complete_glueings()

    def _complete_glueings(self):
        triples = self.diagram.triples()
        changed = True
        while changed:
            changed = False
            for (i, j, k) in triples:
                if (i, j, k) in self.glueings:
                    continue
                rev = (k, j, i)
                if rev in self.glueings:
                    # symmetry: gamma_(i,j,k) = id^op . gamma_(k,j,i)^-1 . id^op
                    inv = self.glueings[rev].inverse()
                    self.glueings[(i, j, k)] = GlueingMap(
                        [GIdOpposite()] + inv.atoms + [GIdOpposite()])
                    changed = True
                    continue
                for l in self.diagram.neighbors(j):
                    if l in (i, k):
                        continue
                    a, b = (i, j, l), (l, j, k)
                    if a in self.glueings and b in self.glueings:
                        # cocycle: gamma_(i,j,k) = gamma_(l,j,k) . id^op . gamma_(i,j,l)
                        comp = self.glueings[b].compose(
                            GlueingMap([GIdOpposite()])).compose(
                                self.glueings[a])
                        self.glueings[(i, j, k)] = comp
                        changed = True
                        break
        missing = [t for t in triples if t not in self.glueings]
        if missing:
            raise ValueError("glueings cannot be completed; missing %r"
                             % missing[:3])

    def glueing(self, i, j, k):
        return self.glueings[(i, j, k)]

    def end_mset(self, i, j, at):
        """Moufang set of B_(i,j) at vertex `at` (one of i, j)."""
        return self.polygons[(i, j)].end_set("last" if at == j else "first")

    def __repr__(self):
        return self.name or "Foundation(%d vertices)" % len(
            self.diagram.vertices)


def fnd_check(fnd, samples=60, seed=53):
    """Axioms F1-F4 plus the Jordan property of every glueing."""
    rep = Report("foundation.check", seed=seed, subject=repr(fnd))
    dia = fnd.diagram

    ok = True
    for (i, j) in dia.directed_edges():
        desc = fnd.polygons[(i, j)]
        if desc.symbol in (SYMBOL_QE, SYMBOL_QF):
            ok = False
    rep.add("f1.polygons-constructible", len(dia.directed_edges()), ok,
            note=None if ok else "rejection-tag symbols present")

    def opposite_paired(e):
        i, j = sorted(e)
        mirror = rgs_opposite(fnd.polygons[(i, j)])
        bwd = fnd.polygons[(j, i)]
        return (bwd.symbol == mirror.symbol
                and bwd.orientation == mirror.orientation
                and bwd.params is mirror.params)

    rep.first_failure("f2.opposite-pairing", ((e,) for e in dia.edges),
                      opposite_paired, len(dia.edges),
                      cex=lambda e: tuple(sorted(e)), mode=SWEPT)

    rng = random.Random(seed)
    triples, draws = dia.triples(), samples // 4 + 1

    def unit_preserved(i, j, k):
        dst = fnd.end_mset(j, k, j)
        return (fnd.glueing(i, j, k)(fnd.end_mset(i, j, j).unit())
                == dst.unit())

    rep.first_failure("f3.unit-preserved", triples, unit_preserved,
                      len(triples), cex=lambda *t: t, mode=SWEPT)

    def drawn(mset):
        return (mset.random(rng) for _ in range(draws))

    def symmetric(i, j, k):
        g, grev = fnd.glueing(i, j, k), fnd.glueing(k, j, i)
        src = fnd.end_mset(i, j, j)
        return all(grev(g(x)) == x for x in drawn(src))

    rep.first_failure("f3.symmetry", triples, symmetric, len(triples) * draws,
                      cex=lambda *t: t)

    def cocyclic(i, j, k, l):
        g_direct = fnd.glueing(i, j, k)
        g_one, g_two = fnd.glueing(i, j, l), fnd.glueing(l, j, k)
        return all(g_direct(x) == g_two(g_one(x))
                   for x in drawn(fnd.end_mset(i, j, j)))

    quads = [(i, j, k, l) for (i, j, k) in triples
             for l in dia.neighbors(j) if l not in (i, k)]
    rep.first_failure("f4.cocycle", quads, cocyclic,
                      max(1, len(quads)) * draws, cex=lambda *q: q)

    def jordan(i, j, k):
        src, dst = fnd.end_mset(i, j, j), fnd.end_mset(j, k, j)
        # crc32 of the labels, unlike hash(), is the same in every process
        sub_seed = seed + zlib.crc32(repr((i, j, k)).encode()) % 1000
        return ms_jordan_check(fnd.glueing(i, j, k), src, dst,
                               samples=samples, seed=sub_seed).passed

    rep.first_failure("moufang.glueings-jordan", triples, jordan,
                      len(triples), cex=lambda *t: t)
    return rep


def fnd_glueing_sign(fnd, triple, samples=40, seed=59):
    """'negative' (ring iso), 'positive' (anti-iso) or 'exceptional'.

    The atom parity, corrected by the opposite-reading alignment of the two
    ends, gives a structural candidate; witness sampling against the end
    rings confirms it.  A contradiction between the two is a hard error (it
    means a mis-encoded atom chain).
    """
    i, j, k = triple
    g = fnd.glueing(i, j, k)
    src_ring = end_ring(fnd.polygons[(i, j)], "last")
    dst_ring = end_ring(fnd.polygons[(j, k)], "first")
    if src_ring is None or dst_ring is None:
        raise TypeError("glueing sign needs alternative-ring ends")
    rng = random.Random(seed)
    mult_ok = anti_ok = True
    for _ in range(samples):
        x = src_ring.random(rng, 9)
        y = src_ring.random(rng, 9)
        img = g(src_ring.mul(x, y))
        if img != dst_ring.mul(g(x), g(y)):
            mult_ok = False
        if img != dst_ring.mul(g(y), g(x)):
            anti_ok = False
        if not (mult_ok or anti_ok):
            break
    if mult_ok and not anti_ok:
        observed = "negative"
    elif anti_ok and not mult_ok:
        observed = "positive"
    elif mult_ok and anti_ok:
        observed = "negative"  # commutative carrier: iso and anti coincide
    else:
        observed = "exceptional"
    cand = g.parity()
    if cand != UNKNOWN:
        # a chain written without explicit opposite markers still crosses
        # readings when exactly one end ring is the opposite one
        if src_ring.reversed != dst_ring.reversed:
            cand = -cand
        structural = "negative" if cand == ISO else "positive"
        commutative = src_ring.is_commutative()
        if not commutative and observed != structural:
            raise AssertionError(
                "structural parity %s contradicts witnesses %s for %r"
                % (structural, observed, triple))
    return observed


def fnd_residue(fnd, subset):
    if len(subset) < 2:
        raise TooSmall("residues need at least two vertices")
    dia = fnd.diagram.restricted(subset)
    return _pull_back(fnd, dia, {v: v for v in dia.vertices},
                      "%r|%s" % (fnd, sorted(subset)))


def _pull_back(fnd, diagram, phi, name):
    """The foundation on diagram whose polygon on each edge, and glueing
    at each triple, is fnd's at the phi-images of its vertices."""
    polys = {(a, b): fnd.polygons[(phi[a], phi[b])]
             for (a, b) in diagram.directed_edges()}
    glues = {(a, b, c): fnd.glueings[(phi[a], phi[b], phi[c])]
             for (a, b, c) in diagram.triples()}
    return Foundation(diagram, polys, glues, name=name, complete=False)


# -- reparametrization ---------------------------------------------------------

def fnd_reparametrize(fnd, alpha, samples=24, seed=61):
    """Apply a system of per-directed-edge slot maps.

    alpha maps directed edges to tuples of GlueingMap chains (one per
    slot); missing edges mean identity.  The unit-compatibility condition
    is checked, and for triangles the slot maps are checked to respect the
    commutator shape on samples.
    """
    dia = fnd.diagram

    def slot_map(i, j, at):
        chains = alpha.get((i, j))
        if chains is None:
            rev = alpha.get((j, i))
            if rev is None:
                return identity_glueing()
            chains = tuple(reversed(rev))
        return chains[-1] if at == j else chains[0]

    # unit compatibility
    for (i, j, k) in dia.triples():
        g = fnd.glueing(i, j, k)
        src = fnd.end_mset(i, j, j)
        dst = fnd.end_mset(j, k, j)
        lhs = g(slot_map(i, j, j)(src.unit()))
        rhs = slot_map(j, k, j)(dst.unit())
        if lhs != rhs:
            raise UnitIncompatible("at triple %r" % ((i, j, k),))

    # triangle slot-compatibility on samples
    rng = random.Random(seed)
    for (i, j), chains in alpha.items():
        desc = fnd.polygons.get((i, j))
        if desc is None or desc.symbol != SYMBOL_T or len(chains) != 3:
            continue
        h = desc.end_set("first").h
        a1, a2, a3 = chains
        for _ in range(samples):
            s, t = h.random(rng, 9), h.random(rng, 9)
            if a2(h.mul(s, t)) != h.mul(a1(s), a3(t)):
                raise ValueError("slot maps do not respect the triangle "
                                 "relation on edge (%r,%r)" % (i, j))

    new_glueings = {}
    for (i, j, k) in dia.triples():
        g = fnd.glueing(i, j, k)
        pre = slot_map(i, j, j)
        post = slot_map(j, k, j).inverse()
        new_glueings[(i, j, k)] = post.compose(g).compose(pre)
    return Foundation(dia, dict(fnd.polygons), new_glueings,
                      name="%r[reparam]" % fnd, complete=False)


# -- covers ---------------------------------------------------------------------

def check_graph_cover(base, cover, phi):
    """phi: cover vertices -> base vertices must be a local bijection on
    neighborhoods and surjective on vertices and edges."""
    for v in cover.vertices:
        if phi[v] not in base.vertices:
            raise NotACover("phi image missing for %r" % v)
        nb = cover.neighbors(v)
        images = [phi[w] for w in nb]
        if len(set(images)) != len(images):
            raise NotACover("phi not injective around %r" % v)
        if set(images) != set(base.neighbors(phi[v])):
            raise NotACover("phi not onto the neighborhood of %r" % phi[v])
        for w in nb:
            if base.m(phi[v], phi[w]) != cover.m(v, w):
                raise NotACover("edge labels disagree at (%r,%r)" % (v, w))
    if set(phi[v] for v in cover.vertices) != set(base.vertices):
        raise NotACover("phi is not surjective")
    return True


def fnd_cover(fnd, cover_diagram, phi):
    """Pull the foundation back along a verified graph cover."""
    check_graph_cover(fnd.diagram, cover_diagram, phi)
    return _pull_back(fnd, cover_diagram, phi, "cover(%r)" % fnd)


def fnd_universal_cover(fnd, radius):
    """Tree unfolding by non-backtracking walks from the first vertex,
    truncated at the given radius."""
    dia = fnd.diagram
    root = sorted(dia.vertices)[0]
    walks = [(root,)]
    frontier = [(root,)]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for nb in dia.neighbors(w[-1]):
                if len(w) >= 2 and nb == w[-2]:
                    continue
                nxt.append(w + (nb,))
        walks += nxt
        frontier = nxt
    names = {w: "/".join(str(v) for v in w) for w in walks}
    edges = {}
    phi = {}
    for w in walks:
        phi[names[w]] = w[-1]
        if len(w) >= 2:
            edges[(names[w[:-1]], names[w])] = dia.m(w[-2], w[-1])
    cover = CoxeterDiagram(list(names.values()), edges)
    # the truncated leaves are no cover, so check_graph_cover is not run
    out = _pull_back(fnd, cover, phi, "unfold(%r,r=%d)" % (fnd, radius))
    out.truncated_at = radius
    return out


# -- canonicalization of negative trees -----------------------------------------

def fnd_canonicalize_tree(fnd, samples=24, seed=67):
    """Push all glueings of a negative tree foundation to the identity.

    Returns (canonical foundation, list of applied reparametrizations).
    """
    dia = fnd.diagram
    if not dia.is_tree():
        raise NotTree("diagram is not a tree")
    for t in dia.triples():
        if fnd_glueing_sign(fnd, t) != "negative":
            raise NotNegative("glueing %r is not negative" % (t,))

    root = sorted(dia.vertices)[0]
    order = []
    seen = {root}
    queue = [root]
    parent = {root: None}
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in dia.neighbors(v):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                queue.append(w)

    current = fnd
    pushes = []
    for j in order:
        nb = dia.neighbors(j)
        if parent[j] is None and len(nb) < 2:
            continue
        anchor = parent[j] if parent[j] is not None else nb[0]
        for k in nb:
            if k == anchor:
                continue
            g = current.glueing(anchor, j, k)
            if _is_identity_on_samples(current, (anchor, j, k), g, samples,
                                       seed):
                continue
            n_slots = current.polygons[(j, k)].n
            alpha = {(j, k): tuple(GlueingMap(list(g.atoms))
                                   for _ in range(n_slots))}
            current = fnd_reparametrize(current, alpha, samples=samples,
                                        seed=seed)
            pushes.append(((j, k), g))
    return current, pushes


def _is_identity_on_samples(fnd, triple, g, samples, seed):
    i, j, k = triple
    src = fnd.end_mset(i, j, j)
    rng = random.Random(seed)
    for _ in range(samples):
        x = src.random(rng)
        if g(x) != x:
            return False
    return True


def all_glueings_identity(fnd, samples=24, seed=71):
    return all(_is_identity_on_samples(fnd, t, fnd.glueing(*t), samples, seed)
               for t in fnd.diagram.triples())


# -- verdicts -------------------------------------------------------------------

class Verdict:
    """Classification outcome: a case tag plus condition evidence.

    NotIntegrable verdicts always carry at least one violated necessary
    condition in the evidence list.
    """

    MATCHES = "matches-case"
    NOT_INTEGRABLE = "not-integrable"
    INCONCLUSIVE = "inconclusive"

    def __init__(self, kind, case, evidence):
        self.kind = kind
        self.case = case
        self.evidence = list(evidence)
        if kind == self.NOT_INTEGRABLE and not self.reasons():
            raise AssertionError("refusals must cite a violated condition")

    def reasons(self):
        return [code for (code, ok, _) in self.evidence if not ok]

    def as_dict(self):
        return {"kind": self.kind, "case": self.case,
                "evidence": [{"code": c, "holds": ok, "detail": d}
                             for (c, ok, d) in self.evidence]}

    def __repr__(self):
        head = "%s(%s)" % (self.kind, self.case)
        lines = ["  [%s] %s%s" % ("ok" if ok else "VIOLATED", c,
                                  "" if not d else " -- " + str(d))
                 for (c, ok, d) in self.evidence]
        return "\n".join([head] + lines)


def _carrier_kind(fnd):
    """'field' / 'quaternion' / 'octonion' / 'skewfield', with a structural
    equality check of the tower descriptors across edges.  A carrier that
    is neither a tower nor a plain field, such as the small field on a
    quadratic plane, is a field when its handle is commutative, and equal
    such handles on two edges are one carrier."""
    kinds = set()
    descriptors = set()
    for e in fnd.diagram.edges:
        i, j = sorted(e)
        desc = fnd.polygons[(i, j)]
        if desc.symbol != SYMBOL_T:
            raise NotSimplyLaced("non-triangle polygon present")
        h = desc.params
        c = h.carrier
        if isinstance(c, CDAlgebra):
            kinds.add("field" if c.dim <= 2 else
                      "quaternion" if c.dim == 4 else "octonion")
            descriptors.add(("cd", c))
        elif isinstance(c, Field):
            kinds.add("field")
            descriptors.add(("field", c))
        elif h.is_commutative():
            kinds.add("field")
            descriptors.add(("other", h))
        else:
            # keyed by the object: whether a handle and its opposite reading
            # (unequal under Handle.__eq__) are one carrier is not decided
            kinds.add("skewfield")
            descriptors.add(("other", id(h)))
    if len(kinds) != 1 or len(descriptors) != 1:
        return None
    return kinds.pop()


def fnd_positive_analysis(fnd, samples=40, seed=73):
    """Maximal positive residues, the residue graph, and the four
    glueing-pattern conditions (rank-2 edges count as positive)."""
    signs = {t: fnd_glueing_sign(fnd, t, samples=samples, seed=seed)
             for t in fnd.diagram.triples()}
    return _positive_analysis(fnd.diagram, signs)


def _positive_analysis(dia, signs):
    """`fnd_positive_analysis` on the glueing signs of the diagram."""

    def positive_subset(sub):
        for (i, j, k) in dia.restricted(sub).triples():
            if signs[(i, j, k)] != "positive":
                return False
        return True

    candidates = []
    verts = sorted(dia.vertices)
    for r in range(2, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            sub_dia = dia.restricted(sub)
            complete = all(sub_dia.has_edge(a, b)
                           for a, b in itertools.combinations(sub, 2))
            if complete and positive_subset(sub):
                candidates.append(frozenset(sub))
    maximal = [s for s in candidates
               if not any(s < t for t in candidates)]

    evidence = []
    covered = set()
    for s in maximal:
        sub_dia = dia.restricted(s)
        for e in sub_dia.edges:
            covered.add(e)
    cond_i = all(all(dia.restricted(s).has_edge(a, b)
                     for a, b in itertools.combinations(sorted(s), 2))
                 for s in maximal)
    evidence.append(("positive.members-complete", cond_i, None))
    cond_ii = covered == set(dia.edges)
    evidence.append(("positive.members-cover-edges", cond_ii,
                     None if cond_ii else "uncovered edges exist"))
    cond_iii = all(len(a & b) <= 1
                   for a, b in itertools.combinations(maximal, 2))
    evidence.append(("positive.pairwise-overlap", cond_iii, None))
    membership = {v: [s for s in maximal if v in s] for v in dia.vertices}
    cond_iv = all(len(ms) <= 2 for ms in membership.values())
    evidence.append(("positive.vertex-multiplicity", cond_iv,
                     None if cond_iv else
                     {v: len(ms) for v, ms in membership.items()
                      if len(ms) > 2}))
    # parity at branch vertices: among the three glueings at a degree-3
    # neighborhood the number of positive ones must be odd
    parity_ok = True
    parity_detail = None
    for j in dia.vertices:
        nb = dia.neighbors(j)
        if len(nb) < 3:
            continue
        for trio in itertools.combinations(nb, 3):
            pos = sum(1 for (a, b) in itertools.combinations(trio, 2)
                      if signs[(a, j, b)] == "positive")
            if pos not in (1, 3):
                parity_ok = False
                parity_detail = ("vertex %r has %d positive glueings "
                                 "among a degree-3 set" % (j, pos))
                break
        if not parity_ok:
            break
    evidence.append(("positive.branch-parity", parity_ok, parity_detail))

    member_list = sorted(tuple(sorted(s)) for s in maximal)
    residue_graph_edges = [
        (a, b) for a, b in itertools.combinations(member_list, 2)
        if len(set(a) & set(b)) == 1]
    is_tree = CoxeterDiagram(member_list, {e: 3 for e in
                                           residue_graph_edges}).is_tree()
    return {"members": member_list,
            "residue_graph_edges": residue_graph_edges,
            "residue_graph_is_tree": is_tree,
            "conditions": evidence,
            "signs": signs}


def _diagram_shape(dia):
    degs = sorted(dia.degree(v) for v in dia.vertices)
    n = len(dia.vertices)
    n_edges = len(dia.edges)
    if n_edges == n and all(d == 2 for d in degs):
        return "circle"
    if n_edges == n - 1 and (not degs or degs[-1] <= 2):
        return "string"
    return "branched"


def fnd_classify_simply_laced(fnd, samples=40, seed=79):
    """Necessary-condition dispatch on the defining-field kind.

    Never asserts integrability; verdicts are MatchesCase / NotIntegrable
    (with the violated condition) / Inconclusive.
    """
    dia = fnd.diagram
    if not dia.is_simply_laced():
        raise NotSimplyLaced("all edges must carry label 3")
    kind = _carrier_kind(fnd)
    evidence = []
    if kind is None:
        return Verdict(Verdict.NOT_INTEGRABLE, "defining-field",
                       [("defining-field.unique-up-to-opposite", False,
                         "carriers differ across edges")])
    evidence.append(("defining-field.kind", True, kind))

    signs = {t: fnd_glueing_sign(fnd, t, samples=samples, seed=seed)
             for t in dia.triples()}

    # a path-residue i-j-k without the closing edge forces a negative glueing
    for (i, j, k) in dia.triples():
        if not dia.has_edge(i, k) and signs[(i, j, k)] == "positive":
            extra = [("a3-residue.negative", False,
                      "positive glueing on open path %r" % ((i, j, k),))]
            if dia.degree(j) >= 3 and kind != "field":
                extra.append(
                    ("branch-parity.n-in-1-3", True,
                     "an odd number of the three glueings at a degree-3 "
                     "vertex is positive, so a branch over a "
                     "non-commutative carrier always forces one"))
            return Verdict(Verdict.NOT_INTEGRABLE, kind, evidence + extra)

    if kind == "octonion":
        n = len(dia.vertices)
        if n > 3 or (n == 3 and len(dia.edges) < 3):
            reason = ("octonion foundations extend to at most a closed "
                      "triangle; diagram has %d vertices / %d edges"
                      % (n, len(dia.edges)))
            return Verdict(Verdict.NOT_INTEGRABLE, "octonion",
                           evidence + [("octonion.rank-bound", False,
                                        reason)])
        if n == 2:
            return Verdict(Verdict.MATCHES, "octonion-edge", evidence)
        if any(s == "positive" for s in signs.values()):
            return Verdict(Verdict.NOT_INTEGRABLE, "octonion",
                           evidence + [("octonion.no-positive-glueing",
                                        False,
                                        "central involution is not in the "
                                        "twist group")])
        if any(s == "exceptional" for s in signs.values()):
            return Verdict(Verdict.INCONCLUSIVE, "octonion-triangle",
                           evidence + [("octonion.twist-membership", True,
                                        "exceptional glueings: membership "
                                        "in the twist group undecided")])
        return Verdict(Verdict.MATCHES, "octonion-triangle", evidence)

    if kind == "quaternion":
        analysis = _positive_analysis(dia, signs)
        evidence += analysis["conditions"]
        evidence.append(("positive.residue-graph-tree",
                         True, analysis["residue_graph_is_tree"]))
        if all(ok for (_, ok, _) in analysis["conditions"]):
            return Verdict(Verdict.MATCHES, "quaternion-positive-residues",
                           evidence)
        return Verdict(Verdict.NOT_INTEGRABLE, "quaternion", evidence)

    if kind == "skewfield":
        shape = _diagram_shape(dia)
        if any(s != "negative" for s in signs.values()):
            return Verdict(Verdict.NOT_INTEGRABLE, "skewfield",
                           evidence + [("skewfield.all-negative", False,
                                        "positive glueings force a "
                                        "quaternion carrier")])
        if shape == "branched":
            return Verdict(Verdict.NOT_INTEGRABLE, "skewfield",
                           evidence + [("skewfield.no-branch", False,
                                        "a star residue forces a "
                                        "commutative carrier")])
        return Verdict(Verdict.MATCHES, "skewfield-" + shape, evidence)

    return Verdict(Verdict.MATCHES, "field", evidence +
                   [("field.no-restrictions", True, None)])


# -- 443 classifier --------------------------------------------------------------

def fnd_check_443(fnd, samples=40, seed=83):
    """Necessary-condition matching for triangles with two 4-edges and one
    3-edge."""
    dia = fnd.diagram
    if len(dia.vertices) != 3 or len(dia.edges) != 3:
        raise NotA443Shape("need a triangle diagram")
    labels = sorted(dia.edges.values())
    if labels != [3, 4, 4]:
        raise NotA443Shape("need exactly two 4-edges and one 3-edge")
    (tri_edge,) = [tuple(sorted(e)) for e, m in dia.edges.items() if m == 3]
    (v2,) = [v for v in dia.vertices if v not in tri_edge]
    evidence = [("shape.443", True, "quadrangle vertex %r" % v2)]

    quads = [fnd.polygons[(tri_edge[0], v2)], fnd.polygons[(v2, tri_edge[1])]]
    symbols = {q.symbol for q in quads}
    for sym, code in ((SYMBOL_QE, "reject.en-quadrangle"),
                      (SYMBOL_QF, "reject.f4-quadrangle"),
                      (SYMBOL_QD, "reject.indifferent-quadrangle")):
        if sym in symbols:
            return Verdict(Verdict.NOT_INTEGRABLE, "443",
                           evidence + [(code, False,
                                        "quadrangle family excluded")])

    def run(v1, v3):
        if symbols <= {SYMBOL_QI, SYMBOL_QP}:
            return _check_443_unitary(fnd, (v1, v2, v3), list(evidence),
                                      samples, seed)
        if symbols == {SYMBOL_QQ}:
            return _check_443_quadratic(fnd, (v1, v2, v3), list(evidence),
                                        samples, seed)
        return Verdict(Verdict.NOT_INTEGRABLE, "443",
                       evidence + [("unitary.families-match", False,
                                    "mixed quadrangle families %r"
                                    % sorted(symbols))])

    # the two endpoints of the 3-edge are interchangeable labels; accept
    # whichever assignment matches the pattern
    rank = {Verdict.MATCHES: 0, Verdict.INCONCLUSIVE: 1,
            Verdict.NOT_INTEGRABLE: 2}
    first = run(tri_edge[1], tri_edge[0])
    if first.kind == Verdict.MATCHES:
        return first
    second = run(tri_edge[0], tri_edge[1])
    return min((first, second), key=lambda v: rank[v.kind])


def _check_443_unitary(fnd, verts, evidence, samples, seed):
    v1, v2, v3 = verts
    q12 = fnd.polygons[(v1, v2)]
    q23 = fnd.polygons[(v2, v3)]
    sym = q12.symbol
    evidence.append(("unitary.families-match", q23.symbol == sym,
                     "%s/%s" % (sym, q23.symbol)))
    shape_ok = (q12.orientation == OPPOSITE
                and q23.orientation == STANDARD)
    evidence.append(("unitary.orientation-pattern", shape_ok,
                     "(%s, %s)" % (q12.orientation, q23.orientation)))
    same_params = q12.params is q23.params
    evidence.append(("unitary.shared-parameter-system", same_params, None))
    if not (q23.symbol == sym and shape_ok and same_params):
        return Verdict(Verdict.NOT_INTEGRABLE, "443-unitary", evidence)

    inv_set = q23.params if sym == SYMBOL_QI else q23.params.inv
    h = inv_set.handle
    quaternion = isinstance(h.carrier, CDAlgebra) and h.carrier.dim == 4
    field_case = h.is_commutative()

    # gamma_2 at the quadrangle vertex must be the opposite identification
    g2 = fnd.glueing(v1, v2, v3)
    src = fnd.end_mset(v1, v2, v2)
    rng = random.Random(seed)
    id2 = all(g2(x) == x
              for x in (src.random(rng) for _ in range(samples)))
    evidence.append(("unitary.middle-glueing-identity", id2, None))

    # gamma_3 the opposite identification (identity on elements), and
    # gamma_1 the standard involution in the quaternion cases; both are
    # then positive glueings (anti-isomorphisms)
    g3 = fnd.glueing(v2, v3, v1)
    src3 = fnd.end_mset(v2, v3, v3)
    id3 = all(g3(x) == x
              for x in (src3.random(rng) for _ in range(samples)))
    evidence.append(("unitary.gamma3-opposite-identity", id3, None))
    g1 = fnd.glueing(v3, v1, v2)
    src1 = fnd.end_mset(v3, v1, v1)
    if quaternion:
        is_sigma = all(g1(x) == x.conj()
                       for x in (src1.random(rng) for _ in range(samples)))
        evidence.append(("unitary.gamma1-standard-involution", is_sigma,
                         None))
        s1 = fnd_glueing_sign(fnd, (v3, v1, v2), samples=samples, seed=seed)
        s3 = fnd_glueing_sign(fnd, (v2, v3, v1), samples=samples, seed=seed)
        evidence.append(("unitary.outer-glueings-positive",
                         s1 == "positive" and s3 == "positive",
                         "(%s, %s)" % (s1, s3)))
        ok = id2 and id3 and is_sigma and s1 == s3 == "positive"
        case = "443-involutory-quaternion" if sym == SYMBOL_QI \
            else "443-pseudoquadratic-quaternion"
        if ok:
            return Verdict(Verdict.MATCHES, case, evidence)
        return Verdict(Verdict.NOT_INTEGRABLE, case, evidence)
    if field_case:
        dim_l0 = 0 if sym == SYMBOL_QI else q23.params.dim
        f4_like = (isinstance(h.carrier, Field) and h.carrier.is_finite()
                   and h.carrier.order() == 4)
        if f4_like and dim_l0 == 1:
            return Verdict(Verdict.INCONCLUSIVE, "443-unitary-field",
                           evidence + [("unitary.f4-side-condition", True,
                                        "4-element carrier with a line "
                                        "space: excluded side case")])
        s1 = fnd_glueing_sign(fnd, (v3, v1, v2), samples=samples, seed=seed)
        evidence.append(("unitary.gamma1-field-automorphism",
                         s1 == "negative", s1))
        if id2 and id3 and s1 == "negative":
            return Verdict(Verdict.MATCHES, "443-unitary-field", evidence)
        return Verdict(Verdict.NOT_INTEGRABLE, "443-unitary-field", evidence)
    return Verdict(Verdict.INCONCLUSIVE, "443-unitary",
                   evidence + [("unitary.carrier-recognized", True,
                                "carrier outside the shipped kinds")])


def _check_443_quadratic(fnd, verts, evidence, samples, seed):
    v1, v2, v3 = verts
    q12 = fnd.polygons[(v1, v2)]
    q23 = fnd.polygons[(v2, v3)]
    sp_a, sp_b = q12.params, q23.params
    dims = (sp_a.dim, sp_b.dim)
    evidence.append(("quadratic.dims", True, dims))
    same_space = sp_a == sp_b
    if min(dims) >= 3:
        evidence.append(("quadratic.dim3-spaces-equal", same_space,
                         None if same_space else
                         "spaces differ although dim >= 3"))
        if not same_space:
            return Verdict(Verdict.NOT_INTEGRABLE, "443-quadratic-high",
                           evidence)
        return Verdict(Verdict.MATCHES, "443-quadratic-high", evidence)
    if max(dims) <= 2:
        return Verdict(Verdict.MATCHES, "443-quadratic-tower", evidence)
    return Verdict(Verdict.MATCHES, "443-quadratic-mixed", evidence)


# -- rendering -------------------------------------------------------------------

def fnd_to_dot(fnd):
    """Deterministic DOT digraph: one node per vertex, a labeled arrow per
    chosen edge orientation and a labeled arc per glueing representative."""
    lines = ["digraph foundation {"]
    for v in sorted(fnd.diagram.vertices, key=str):
        lines.append('  "%s";' % v)
    for e in sorted(fnd.diagram.edges, key=lambda e: sorted(map(str, e))):
        i, j = sorted(e, key=str)
        desc = fnd.polygons[(i, j)]
        if desc.orientation != STANDARD:
            i, j = j, i
            desc = fnd.polygons[(i, j)]
        lines.append('  "%s" -> "%s" [label="%s"];' % (i, j, _edge_label(desc)))
    seen = set()
    for (i, j, k) in sorted(fnd.diagram.triples(), key=str):
        if (k, j, i) in seen:
            continue
        seen.add((i, j, k))
        g = fnd.glueings[(i, j, k)]
        lines.append('  "%s" -> "%s" [style=dashed, '
                     'label="%s@%s"];' % (i, k, _glue_label(g), j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_label(desc):
    base = {SYMBOL_T: "T", SYMBOL_QI: "Q_I", SYMBOL_QP: "Q_P",
            SYMBOL_QQ: "Q_Q", SYMBOL_QD: "Q_D", SYMBOL_QE: "Q_E",
            SYMBOL_QF: "Q_F"}[desc.symbol]
    name = desc.name or repr(desc.params)
    return "%s(%s)" % (base, name)


def _glue_label(g):
    return repr(g)
