import random
from fractions import Fraction

import pytest

from mforge.catalog import (FoundationFormatError,
                            canonical_octonion_triangle, field_circle,
                            foundation_from_json, octonion_tetrahedron,
                            positive_quaternion_triangle,
                            rejected_443_foundation, unitary_443_foundation)
from mforge.foundations import (CoxeterDiagram, Foundation, GFrobenius,
                                GlueingMap, GStandardInvolution,
                                GTableMap, NotACover, NotTree, NotA443Shape,
                                NotSimplyLaced, TooSmall, Verdict,
                                all_glueings_identity,
                                fnd_canonicalize_tree, fnd_check,
                                fnd_check_443, fnd_classify_simply_laced,
                                fnd_cover, fnd_glueing_sign,
                                fnd_positive_analysis, fnd_reparametrize,
                                fnd_residue, fnd_to_dot,
                                fnd_universal_cover, identity_glueing,
                                sigma_s_glueing)
from mforge.handles import Handle, as_handle
from mforge.polygons import (PolygonDescriptor, SYMBOL_QD, SYMBOL_QE,
                             SYMBOL_QF, SYMBOL_T)
from mforge.scalars import F4, F5, QI, PrimeField, QuadExt, Scalar


@pytest.fixture(scope="module")
def a2_oct():
    return canonical_octonion_triangle()


@pytest.fixture(scope="module")
def p3_quat():
    return positive_quaternion_triangle()


def path_over(field, glueing=None):
    h = as_handle(field)
    dia = CoxeterDiagram(["1", "2", "3"], {("1", "2"): 3, ("2", "3"): 3})
    polys = {("1", "2"): PolygonDescriptor(SYMBOL_T, h),
             ("2", "3"): PolygonDescriptor(SYMBOL_T, h)}
    glues = {("1", "2", "3"): glueing or identity_glueing()}
    return Foundation(dia, polys, glues)


def test_axioms_canonical_triangles(a2_oct, p3_quat):
    assert fnd_check(a2_oct, samples=20).passed
    assert fnd_check(p3_quat, samples=20).passed


def test_f3_fails_on_unit_breaking_glueing():
    shift = {F4.scalar((a, b)).val: F4.scalar((a, b)) + F4.one()
             for a in range(2) for b in range(2)}
    table = GTableMap([(F4.scalar(k), v) for k, v in shift.items()])
    f = path_over(F4, GlueingMap([table]))
    rep = fnd_check(f, samples=12)
    assert not rep.line("f3.unit-preserved").passed


def test_glueing_signs(a2_oct, p3_quat):
    assert fnd_glueing_sign(a2_oct, ("1", "2", "3")) == "negative"
    assert fnd_glueing_sign(p3_quat, ("1", "2", "3")) == "positive"


def test_exceptional_sign(octonions):
    from mforge.foundations import GLinear
    from mforge.octonion_aut import Psi, standard_quaternion_frame
    sub, e = standard_quaternion_frame(octonions)
    psi = Psi(octonions, sub, e, octonions.unit(1))
    h = as_handle(octonions)
    cols = [psi.apply(b) for b in octonions.basis()]
    matrix = [[cols[j].coords[i] for j in range(8)] for i in range(8)]
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 3, ("2", "3"): 3, ("3", "1"): 3})
    polys = {e2: PolygonDescriptor(SYMBOL_T, h) for e2 in
             [("1", "2"), ("2", "3"), ("3", "1")]}
    glues = {("1", "2", "3"): GlueingMap([GLinear(matrix, h)]),
             ("2", "3", "1"): identity_glueing(),
             ("3", "1", "2"): identity_glueing()}
    f = Foundation(dia, polys, glues)
    assert fnd_glueing_sign(f, ("1", "2", "3")) == "exceptional"
    v = fnd_classify_simply_laced(f, samples=10)
    assert v.kind == Verdict.INCONCLUSIVE


def test_residue(a2_oct):
    tet = octonion_tetrahedron()
    res = fnd_residue(tet, ["1", "2", "3"])
    assert len(res.diagram.vertices) == 3
    assert fnd_check(res, samples=10).passed
    with pytest.raises(TooSmall):
        fnd_residue(tet, ["1"])


def test_reparametrize_preserves_axioms():
    f = path_over(F4, GlueingMap([GFrobenius()]))
    alpha = {("1", "2"): (GlueingMap([GFrobenius()]),) * 3}
    fa = fnd_reparametrize(f, alpha)
    assert fnd_check(fa, samples=16).passed


def test_reparametrize_example_pushes_automorphism():
    # pushing the Frobenius across the middle edge turns (frob, id)
    # into (id, ...)-shape
    f = path_over(F4, GlueingMap([GFrobenius()]))
    alpha = {("2", "3"): (GlueingMap([GFrobenius()]),) * 3}
    fa = fnd_reparametrize(f, alpha)
    g = fa.glueing("1", "2", "3")
    src = fa.end_mset("1", "2", "2")
    assert all(src.eq(g(x), x) for x in src.elements())


def test_negative_frobenius_is_the_inverse_map_on_f4():
    frob_inv = GFrobenius(-1)
    assert repr(frob_inv) == "frob^-1"
    assert repr(frob_inv.inverse()) == "frob^1"
    assert repr(GFrobenius(2).inverse()) == "frob^-2"
    elems = [F4.scalar((a, b)) for a in range(2) for b in range(2)]
    for x in elems:
        # F4 has degree 2 over F2, so the inverse Frobenius is squaring
        assert frob_inv.apply(x) == x * x
        assert frob_inv.inverse().apply(frob_inv.apply(x)) == x
        assert frob_inv.apply(GFrobenius(1).apply(x)) == x


def test_frobenius_takes_logarithmically_many_products(monkeypatch):
    from mforge.foundations import _pow
    F7 = PrimeField(7)
    for field in (F5, F7, F4):
        for x in field.elements():
            acc = field.one()
            for k in range(3 * field.order()):
                assert _pow(x, k) == acc
                acc = acc * x
            p = field.characteristic()
            assert GFrobenius().apply(x) == _pow(x, p)
            assert GFrobenius(10 ** 9 + 1).apply(x) == GFrobenius().apply(x)
    # F_p(w) with w^2 = -1, -1 a non-square mod p: Frobenius is conj there
    p = 1000003
    ext = QuadExt(PrimeField(p), 0, 1)
    mul, calls = Scalar.__mul__, []
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    x = ext.scalar((123457, 654321))
    assert GFrobenius().apply(x) == x.conj()
    assert 0 < len(calls) <= 2 * p.bit_length()


def test_linear_glueing_inverse_round_trip(octonions):
    from mforge.foundations import GLinear
    from mforge.octonion_aut import Psi, standard_quaternion_frame
    sub, e = standard_quaternion_frame(octonions)
    psi = Psi(octonions, sub, e, octonions.unit(1))
    h = as_handle(octonions)
    cols = [psi.apply(b) for b in octonions.basis()]
    lin = GLinear([[cols[j].coords[i] for j in range(8)] for i in range(8)],
                  h)
    inv = lin.inverse()
    rng = random.Random(5)
    for x in octonions.basis() + [octonions.random_element(rng, 9)
                                  for _ in range(5)]:
        assert inv.apply(lin.apply(x)) == x
        assert lin.apply(inv.apply(x)) == x
    singular = [row[:7] + [row[0] + row[1]] for row in lin.matrix]
    with pytest.raises(ValueError, match="singular glueing matrix"):
        GLinear(singular, h).inverse()


@pytest.mark.parametrize("power", [1.5, True, "2", None])
def test_frobenius_power_is_an_integer(power):
    with pytest.raises(TypeError, match="Frobenius power is an integer"):
        GFrobenius(power)


def test_canonicalize_path():
    f = path_over(F4, GlueingMap([GFrobenius()]))
    canon, pushes = fnd_canonicalize_tree(f)
    assert len(pushes) == 1
    assert all_glueings_identity(canon)
    assert fnd_check(canon, samples=12).passed


def test_canonicalize_star():
    h = as_handle(QI)
    dia = CoxeterDiagram(["0", "1", "2", "3"],
                         {("0", "1"): 3, ("0", "2"): 3, ("0", "3"): 3})
    polys = {tuple(sorted(e)): PolygonDescriptor(SYMBOL_T, h)
             for e in dia.edges}
    si = GlueingMap([GStandardInvolution()])
    glues = {("1", "0", "2"): si, ("1", "0", "3"): si}
    f = Foundation(dia, polys, glues)
    canon, pushes = fnd_canonicalize_tree(f)
    assert all_glueings_identity(canon)


def test_canonicalize_guards(a2_oct, p3_quat):
    with pytest.raises(NotTree):
        fnd_canonicalize_tree(a2_oct)
    path = path_over(F4)
    assert all_glueings_identity(fnd_canonicalize_tree(path)[0])


def test_cover_by_cycle(a2_oct):
    verts = [str(i) for i in range(9)]
    edges = {(verts[i], verts[(i + 1) % 9]): 3 for i in range(9)}
    c9 = CoxeterDiagram(verts, edges)
    phi = {str(i): str(1 + (int(i) % 3)) for i in range(9)}
    cov = fnd_cover(a2_oct, c9, phi)
    assert fnd_check(cov, samples=8).passed
    # glueings repeat with period three along the cycle
    g0 = cov.glueing("0", "1", "2")
    g3 = cov.glueing("3", "4", "5")
    assert repr(g0) == repr(g3)


def test_cover_rejects_bad_map(a2_oct):
    verts = ["a", "b"]
    line = CoxeterDiagram(verts, {("a", "b"): 3})
    with pytest.raises(NotACover):
        fnd_cover(a2_oct, line, {"a": "1", "b": "2"})


def test_degree_one_cover_is_relabeling(a2_oct):
    c3 = CoxeterDiagram(["x", "y", "z"],
                        {("x", "y"): 3, ("y", "z"): 3, ("z", "x"): 3})
    phi = {"x": "1", "y": "2", "z": "3"}
    cov = fnd_cover(a2_oct, c3, phi)
    assert fnd_check(cov, samples=8).passed


def test_universal_cover_of_circle():
    circ = field_circle()
    u = fnd_universal_cover(circ, 4)
    assert len(u.diagram.vertices) == 9
    assert u.truncated_at == 4
    degs = sorted(u.diagram.degree(v) for v in u.diagram.vertices)
    assert degs == [1, 1] + [2] * 7  # a string
    assert fnd_check(u, samples=8).passed


def test_positive_analysis_p3(p3_quat):
    out = fnd_positive_analysis(p3_quat, samples=12)
    assert out["members"] == [("1", "2", "3")]
    assert all(ok for (_, ok, _) in out["conditions"])


def test_positive_analysis_two_triangles_sharing_vertex(quaternions):
    # two positive triangles glued at one vertex, negative across; the
    # remaining glueings are completed via the symmetry/cocycle laws
    h = as_handle(quaternions)
    verts = ["1", "2", "3", "4", "5"]
    edges = {("1", "2"): 3, ("2", "3"): 3, ("3", "1"): 3,
             ("3", "4"): 3, ("4", "5"): 3, ("5", "3"): 3}
    dia = CoxeterDiagram(verts, edges)
    polys = {e: PolygonDescriptor(SYMBOL_T, h) for e in edges}
    si = GlueingMap([GStandardInvolution()])
    glues = {
        ("1", "2", "3"): si, ("2", "3", "1"): si, ("3", "1", "2"): si,
        ("3", "4", "5"): si, ("4", "5", "3"): si, ("5", "3", "4"): si,
        # across the shared vertex: negative (identity between aligned ends)
        ("2", "3", "4"): identity_glueing(),
    }
    f = Foundation(dia, polys, glues)
    assert fnd_check(f, samples=10).passed
    out = fnd_positive_analysis(f, samples=10)
    assert len(out["members"]) == 2
    assert out["residue_graph_is_tree"]
    assert all(ok for (_, ok, _) in out["conditions"])
    v = fnd_classify_simply_laced(f, samples=10)
    assert v.kind == Verdict.MATCHES


def test_positive_triangles_sharing_edge_violate_overlap(quaternions):
    # two positive triangles sharing TWO vertices: pairwise-overlap fails
    h = as_handle(quaternions)
    edges = {("1", "2"): 3, ("1", "3"): 3, ("2", "3"): 3,
             ("2", "4"): 3, ("3", "4"): 3}
    dia = CoxeterDiagram(["1", "2", "3", "4"], edges)
    polys = {e: PolygonDescriptor(SYMBOL_T, h) for e in edges}
    si = GlueingMap([GStandardInvolution()])
    ident = identity_glueing()
    glues = {
        ("1", "2", "3"): si,      # H -> H anti: positive
        ("3", "2", "4"): ident,   # H^op -> H identity: positive
        ("1", "3", "2"): ident,   # H -> H^op identity: positive
        ("2", "3", "4"): si,      # H -> H anti: positive
        ("2", "1", "3"): ident,   # H^op -> H identity: positive
        ("2", "4", "3"): ident,   # H -> H^op identity: positive
    }
    f = Foundation(dia, polys, glues)
    assert fnd_check(f, samples=10).passed
    out = fnd_positive_analysis(f, samples=10)
    assert sorted(out["members"]) == [("1", "2", "3"), ("2", "3", "4")]
    failed = {code for (code, ok, _) in out["conditions"] if not ok}
    assert "positive.pairwise-overlap" in failed


def test_reparametrize_unit_incompatible():
    h = as_handle(F4)
    dia = CoxeterDiagram(["1", "2", "3"], {("1", "2"): 3, ("2", "3"): 3})
    polys = {("1", "2"): PolygonDescriptor(SYMBOL_T, h),
             ("2", "3"): PolygonDescriptor(SYMBOL_T, h)}
    f = Foundation(dia, polys, {("1", "2", "3"): identity_glueing()})
    swap = GTableMap([(F4.one(), F4.gen()), (F4.gen(), F4.one()),
                      (F4.zero(), F4.zero()),
                      (F4.gen() * F4.gen(), F4.gen() * F4.gen())])
    from mforge.foundations import UnitIncompatible
    with pytest.raises(UnitIncompatible):
        fnd_reparametrize(f, {("1", "2"): (GlueingMap([swap]),) * 3})


def test_canonicalize_rejects_positive(quaternions):
    from mforge.foundations import NotNegative
    # storing both edges toward vertex 2 makes the identity map cross
    # readings (H to H^op), i.e. a positive glueing on a path
    hq = as_handle(quaternions)
    dia = CoxeterDiagram(["1", "2", "3"], {("1", "2"): 3, ("2", "3"): 3})
    polys = {("1", "2"): PolygonDescriptor(SYMBOL_T, hq),
             ("3", "2"): PolygonDescriptor(SYMBOL_T, hq)}
    f = Foundation(dia, polys, {("1", "2", "3"): identity_glueing()})
    assert fnd_glueing_sign(f, ("1", "2", "3")) == "positive"
    with pytest.raises(NotNegative):
        fnd_canonicalize_tree(f)


def test_classify_tetrahedron():
    v = fnd_classify_simply_laced(octonion_tetrahedron(), samples=8)
    assert v.kind == Verdict.NOT_INTEGRABLE
    assert "octonion.rank-bound" in v.reasons()


def test_classify_d4_star():
    from mforge.catalog import quaternion_d4_star
    v = fnd_classify_simply_laced(quaternion_d4_star(), samples=8)
    assert v.kind == Verdict.NOT_INTEGRABLE
    codes = [c for (c, ok, d) in v.evidence]
    assert "a3-residue.negative" in v.reasons()
    assert any("parity" in c for c in codes)


def test_classify_circle_and_triangles(a2_oct, p3_quat):
    assert fnd_classify_simply_laced(field_circle(), samples=8).kind \
        == Verdict.MATCHES
    assert fnd_classify_simply_laced(a2_oct, samples=8).case \
        == "octonion-triangle"
    assert fnd_classify_simply_laced(p3_quat, samples=8).case \
        == "quaternion-positive-residues"


def test_classify_positive_octonion_triangle_rejected(octonions):
    h = as_handle(octonions)
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 3, ("2", "3"): 3, ("3", "1"): 3})
    polys = {e: PolygonDescriptor(SYMBOL_T, h) for e in
             [("1", "2"), ("2", "3"), ("3", "1")]}
    si = GlueingMap([GStandardInvolution()])
    glues = {("1", "2", "3"): si, ("2", "3", "1"): si, ("3", "1", "2"): si}
    f = Foundation(dia, polys, glues)
    v = fnd_classify_simply_laced(f, samples=8)
    assert v.kind == Verdict.NOT_INTEGRABLE
    assert "octonion.no-positive-glueing" in v.reasons()


def test_classify_requires_simply_laced():
    f = unitary_443_foundation("involutory")
    with pytest.raises(NotSimplyLaced):
        fnd_classify_simply_laced(f)


def test_443_patterns():
    for kind, case in (("involutory", "443-involutory-quaternion"),
                       ("pseudoquadratic", "443-pseudoquadratic-quaternion")):
        v = fnd_check_443(unitary_443_foundation(kind), samples=12)
        assert v.kind == Verdict.MATCHES and v.case == case


def test_443_rejections():
    for tag, code in ((SYMBOL_QE, "reject.en-quadrangle"),
                      (SYMBOL_QF, "reject.f4-quadrangle"),
                      (SYMBOL_QD, "reject.indifferent-quadrangle")):
        v = fnd_check_443(rejected_443_foundation(tag), samples=6)
        assert v.kind == Verdict.NOT_INTEGRABLE
        assert code in v.reasons()


def test_443_shape_guard(a2_oct):
    with pytest.raises(NotA443Shape):
        fnd_check_443(a2_oct)


def test_443_quadratic_unequal_spaces_flagged(quaternions, octonions):
    from mforge.polygons import SYMBOL_QQ
    from mforge.quadspace import space_from_algebra
    from mforge.scalars import QQ as RatQ
    sp_h = space_from_algebra(quaternions, name="N(H)")
    sp_o = space_from_algebra(octonions, name="N(O)")
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 4, ("2", "3"): 4, ("3", "1"): 3})
    polys = {("2", "1"): PolygonDescriptor(SYMBOL_QQ, sp_h),
             ("2", "3"): PolygonDescriptor(SYMBOL_QQ, sp_o),
             ("3", "1"): PolygonDescriptor(SYMBOL_T, as_handle(RatQ))}
    glues = {t: identity_glueing() for t in dia.triples()}
    f = Foundation(dia, polys, glues, complete=False)
    v = fnd_check_443(f, samples=6)
    assert v.kind == Verdict.NOT_INTEGRABLE
    assert "quadratic.dim3-spaces-equal" in v.reasons()


def test_dot_output_stable(a2_oct):
    one = fnd_to_dot(a2_oct)
    two = fnd_to_dot(canonical_octonion_triangle())
    assert one == two
    assert one.startswith("digraph foundation {")
    assert one.count("->") == 6  # 3 edges + 3 glueing arcs


def test_dot_minimal():
    f = path_over(F5)
    text = fnd_to_dot(f)
    assert text.count("label=") == 3


def test_json_round_trip_and_check():
    doc = {
        "version": 1,
        "name": "string over F5",
        "vertices": ["1", "2", "3"],
        "edges": [
            {"from": "1", "to": "2", "m": 3, "symbol": "T", "params": "F5"},
            {"from": "2", "to": "3", "m": 3, "symbol": "T", "params": "F5"},
        ],
        "glueings": [
            {"triple": ["1", "2", "3"], "atoms": [{"atom": "identity"}]},
        ],
    }
    f = foundation_from_json(doc)
    assert fnd_check(f, samples=10).passed
    v = fnd_classify_simply_laced(f, samples=8)
    assert v.kind == Verdict.MATCHES and v.case == "field"


def test_json_schema_rejects_bad_docs():
    with pytest.raises(FoundationFormatError,
                       match="^'edges' is a required property$"):
        foundation_from_json({"version": 1, "vertices": ["1"]})


def _tower_doc(betas):
    return {
        "version": 1,
        "vertices": ["1", "2"],
        "edges": [{"from": "1", "to": "2", "m": 3, "symbol": "T",
                   "params": "tower"}],
        "scalars": {"tower": {"base": "Q", "betas": betas}},
    }


def test_json_tower_betas_are_exact():
    f = foundation_from_json(_tower_doc([-1, "-1/2"]))
    betas = f.polygons[("1", "2")].params.algebra.betas
    assert [b.val for b in betas] == [-1, Fraction(-1, 2)]
    for bad in ([0.1], [True], [[1, 2]]):
        with pytest.raises(FoundationFormatError,
                           match="is not of type 'integer', 'string'$"):
            foundation_from_json(_tower_doc(bad))
    # the schema counts 1.0 an integer; the field's coerce refuses it
    with pytest.raises(TypeError):
        foundation_from_json(_tower_doc([1.0]))


_SEED_PROBE = """
import mforge.foundations as F
from mforge.catalog import foundation_from_file
seeds, check = [], F.ms_jordan_check
def probe(*args, **kw):
    seeds.append(kw["seed"])
    return check(*args, **kw)
F.ms_jordan_check = probe
F.fnd_check(foundation_from_file(%r), samples=4, seed=53)
print(seeds)
"""


def test_jordan_sub_seeds_are_the_same_under_every_hash_salt():
    # the vertex labels are strings, and string hashes are salted per
    # process, so the sub-seed of a triple must not come from hash()
    import os
    import subprocess
    import sys

    import mforge
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sample = os.path.join(root, "sample_foundations", "p3_quaternion.json")
    pkg_root = os.path.dirname(os.path.dirname(mforge.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(
        [sys.executable, "-c", _SEED_PROBE % sample],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=salt)).stdout
        for salt in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].strip() != "[]"


def test_check_samples_an_end_too_large_to_list():
    # 5^8 elements: fnd_check must choose the sampled Jordan check without
    # listing the end (listing a tower that large raises)
    doc = {
        "version": 1,
        "vertices": ["1", "2", "3"],
        "scalars": {"O5": {"base": "F5", "betas": [-1, -1, -1]}},
        "edges": [{"from": a, "to": b, "m": 3, "symbol": "T", "params": "O5"}
                  for a, b in (("1", "2"), ("2", "3"), ("3", "1"))],
        "glueings": [{"triple": t, "atoms": [{"atom": "identity"}]}
                     for t in (["1", "2", "3"], ["2", "3", "1"],
                               ["3", "1", "2"])],
    }
    rep = fnd_check(foundation_from_json(doc), samples=8, seed=3)
    assert rep.line("moufang.glueings-jordan").passed


# -- the defining-field kind of carriers that are not towers -------------------

SHAPES = {"string": [("0", "1"), ("1", "2"), ("2", "3")],
          "circle": [("0", "1"), ("1", "2"), ("2", "3"), ("0", "3")],
          "star": [("0", "1"), ("0", "2"), ("0", "3")]}


def _triangles_over(h, edges, glueing=identity_glueing):
    verts = sorted({v for e in edges for v in e})
    dia = CoxeterDiagram(verts, {e: 3 for e in edges})
    polys = {tuple(sorted(e)): PolygonDescriptor(SYMBOL_T, h)
             for e in dia.edges}
    return Foundation(dia, polys, {t: glueing() for t in dia.triples()},
                      complete=False)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_small_field_carrier_is_a_field(shape):
    from mforge.handles import SmallFieldHandle
    from mforge.quadspace import space_from_quadext
    h = SmallFieldHandle(space_from_quadext(F4, name="(F4,F2,N)"))
    v = fnd_classify_simply_laced(_triangles_over(h, SHAPES[shape]),
                                  samples=8)
    assert (v.kind, v.case) == (Verdict.MATCHES, "field")
    assert v.evidence == [("defining-field.kind", True, "field"),
                          ("field.no-restrictions", True, None)]


def test_equal_small_field_handles_are_one_carrier():
    # T(F(F4,F2,N)) on the path 0-1-2, one handle built per polygon
    from mforge.handles import SmallFieldHandle
    from mforge.quadspace import space_from_quadext
    dia = CoxeterDiagram(["0", "1", "2"], {("0", "1"): 3, ("1", "2"): 3})
    polys = {e: PolygonDescriptor(SYMBOL_T, SmallFieldHandle(
        space_from_quadext(F4, name="(F4,F2,N)"))) for e in dia.edges}
    fnd = Foundation(dia, polys, {t: identity_glueing()
                                  for t in dia.triples()}, complete=False)
    v = fnd_classify_simply_laced(fnd, samples=8)
    assert (v.kind, v.case) == (Verdict.MATCHES, "field")


class _SkewQuaternions(Handle):
    """The quaternions over Q read through a handle that is not a tower
    handle: a non-commutative carrier of no known kind."""

    def __init__(self):
        from mforge.composition import quaternions_q
        self.tower = as_handle(quaternions_q())
        self.carrier = self.tower.carrier
        self.coord_field = self.tower.coord_field
        self.coord_dim = self.tower.coord_dim

    def __getattr__(self, name):
        return getattr(self.tower, name)

    def is_commutative(self):
        return False


@pytest.mark.parametrize("shape, case, failed", [
    ("string", "skewfield-string", None),
    ("circle", "skewfield-circle", None),
    ("star", "skewfield", "skewfield.no-branch")])
def test_non_commutative_carrier_takes_the_skewfield_branch(shape, case,
                                                            failed):
    v = fnd_classify_simply_laced(
        _triangles_over(_SkewQuaternions(), SHAPES[shape]), samples=8)
    assert v.case == case
    assert v.evidence[0] == ("defining-field.kind", True, "skewfield")
    assert v.reasons() == ([failed] if failed else [])
    assert v.kind == (Verdict.NOT_INTEGRABLE if failed else Verdict.MATCHES)


def test_skewfield_positive_glueing_forces_a_quaternion_carrier():
    v = fnd_classify_simply_laced(
        _triangles_over(_SkewQuaternions(),
                        [("0", "1"), ("1", "2"), ("0", "2")],
                        sigma_s_glueing), samples=8)
    assert (v.kind, v.case) == (Verdict.NOT_INTEGRABLE, "skewfield")
    assert v.reasons() == ["skewfield.all-negative"]


@pytest.mark.parametrize("edges, shape", [
    (SHAPES["string"], "string"), (SHAPES["circle"], "circle"),
    (SHAPES["star"], "branched"),
    ([("0", "1"), ("1", "2"), ("0", "2")], "circle"),
    ([("0", "1"), ("1", "2"), ("0", "2"), ("2", "3")], "branched")])
def test_diagram_shape(edges, shape):
    from mforge.foundations import _diagram_shape
    verts = sorted({v for e in edges for v in e})
    assert _diagram_shape(CoxeterDiagram(verts, {e: 3 for e in edges})) \
        == shape


def test_a_refusal_without_a_violated_condition_raises():
    # an explicit raise, so the check holds under python -O as well
    with pytest.raises(AssertionError, match="must cite a violated"):
        Verdict(Verdict.NOT_INTEGRABLE, "field",
                [("defining-field.kind", True, "field")])
    v = Verdict(Verdict.NOT_INTEGRABLE, "field",
                [("defining-field.kind", False, "skewfield")])
    assert v.reasons() == ["defining-field.kind"]
