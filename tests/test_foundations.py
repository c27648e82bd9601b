from fractions import Fraction

import pytest

from mforge.catalog import (canonical_octonion_triangle, field_circle,
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
                                fnd_universal_cover, identity_glueing)
from mforge.handles import as_handle
from mforge.polygons import (PolygonDescriptor, SYMBOL_QD, SYMBOL_QE,
                             SYMBOL_QF, SYMBOL_T)
from mforge.scalars import F4, F5, QI


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
    table = GTableMap([(F4.scalar(k), v) for k, v in shift.items()],
                      key=lambda x: x.val)
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
                      (F4.gen() * F4.gen(), F4.gen() * F4.gen())],
                     key=lambda x: x.val)
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
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
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
    with pytest.raises(TypeError):
        foundation_from_json(_tower_doc([0.1]))
    with pytest.raises(TypeError):
        foundation_from_json(_tower_doc([True]))
