"""Named algebras, parameter systems and foundations, plus the JSON
description format for foundations (schema-validated before construction)."""

from __future__ import annotations

import json

from .composition import NAMED_ALGEBRAS, CDAlgebra
from .foundations import (CoxeterDiagram, Foundation, GFrobenius,
                          GIdentity, GIdOpposite, GlueingMap, GScalarConj,
                          GStandardInvolution, GTableMap, id_opposite_glueing,
                          identity_glueing, sigma_s_glueing)
from .handles import as_handle
from .polygons import (OPPOSITE, STANDARD, SYMBOL_QD, SYMBOL_QE, SYMBOL_QF,
                       SYMBOL_QI, SYMBOL_QP, SYMBOL_QQ, SYMBOL_T,
                       PolygonDescriptor)
from .pseudoquad import xi_f4, xi_hamilton
from .quadspace import space_from_quadext
from .scalars import NAMED_FIELDS, field_by_name
from .unitary import (SIGMA_GALOIS, SIGMA_STANDARD, IndifferentSet,
                      InvolutorySet)

SCHEMA_VERSION = 1

FOUNDATION_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "vertices", "edges"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "name": {"type": "string"},
        "vertices": {"type": "array", "items": {"type": "string"},
                     "minItems": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to", "m", "symbol", "params"],
                "properties": {
                    "from": {"type": "string"},
                    "to": {"type": "string"},
                    "m": {"enum": [3, 4]},
                    "symbol": {"enum": ["T", "QI", "QP", "QQ", "QD",
                                        "QE", "QF"]},
                    "orientation": {"enum": ["standard", "opposite"]},
                    "params": {"type": ["string", "object"]},
                },
            },
        },
        "glueings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["triple", "atoms"],
                "properties": {
                    "triple": {"type": "array", "minItems": 3, "maxItems": 3},
                    "atoms": {"type": "array"},
                },
            },
        },
        "scalars": {"type": "object"},
    },
}


def _algebra_by_name(name, scalars):
    if name in NAMED_ALGEBRAS:
        return NAMED_ALGEBRAS[name]()
    if name in scalars:
        entry = scalars[name]
        base = field_by_name(entry["base"])
        return CDAlgebra(base, [base.scalar(b) for b in entry["betas"]],
                         name=name)
    raise KeyError("unknown algebra %r" % name)


def _param_system(symbol, params, scalars):
    """Resolve a parameter-system reference from a JSON value."""
    if symbol == SYMBOL_T:
        if isinstance(params, str):
            if params.endswith("-op"):
                inner = _param_system(symbol, params[:-3], scalars)
                return inner.opposite()
            if params in NAMED_FIELDS or (params.startswith("F")
                                          and params[1:].isdigit()):
                return as_handle(field_by_name(params))
            return as_handle(_algebra_by_name(params, scalars))
        h = as_handle(_algebra_by_name(params["algebra"], scalars))
        return h.opposite() if params.get("opposite") else h
    if symbol == SYMBOL_QQ:
        if params == "F4-space":
            return space_from_quadext(field_by_name("F4"), name="(F4,F2,N)")
        raise KeyError("unknown quadratic space %r" % params)
    if symbol == SYMBOL_QP:
        if params == "Xi-F4":
            return xi_f4()
        if params == "Xi-H":
            return xi_hamilton()
        raise KeyError("unknown pseudo-quadratic space %r" % params)
    if symbol == SYMBOL_QI:
        if params == "Hamilton":
            from .composition import quaternions_q
            return InvolutorySet(quaternions_q(), SIGMA_STANDARD,
                                 name="(H,Q,ss)")
        if params == "F4-galois":
            return InvolutorySet(field_by_name("F4"), SIGMA_GALOIS,
                                 name="(F4,F2,gal)")
        raise KeyError("unknown involutory set %r" % params)
    if symbol == SYMBOL_QD:
        if params == "F2-trivial":
            f2 = field_by_name("F2")
            return IndifferentSet(f2, [f2.one()], [f2.one()],
                                  name="(F2,1,1)")
        raise KeyError("unknown indifferent set %r" % params)
    if symbol in (SYMBOL_QE, SYMBOL_QF):
        return params  # inert tag; carried for rejection only
    raise KeyError("unknown symbol %r" % symbol)


def _atom_from_json(entry, edge_desc):
    kind = entry["atom"]
    if kind == "identity":
        return GIdentity()
    if kind == "id_opposite":
        return GIdOpposite()
    if kind == "standard_involution":
        return GStandardInvolution()
    if kind == "frobenius":
        return GFrobenius(entry.get("power", 1))
    if kind == "scalar_conj":
        h = edge_desc.params
        alg = h.algebra
        return GScalarConj(alg.element(entry["w"]))
    if kind == "table":
        h = edge_desc.params
        field = h.field
        pairs = [(field.scalar(tuple(a) if isinstance(a, list) else a),
                  field.scalar(tuple(b) if isinstance(b, list) else b))
                 for a, b in entry["pairs"]]
        return GTableMap(pairs)
    raise KeyError("unknown atom %r" % kind)


def foundation_from_json(doc):
    """Validate and build a Foundation from a parsed JSON document."""
    try:
        import jsonschema
        jsonschema.validate(doc, FOUNDATION_SCHEMA)
    except ImportError:  # pragma: no cover
        pass
    scalars = doc.get("scalars", {})
    dia = CoxeterDiagram(doc["vertices"],
                         {(e["from"], e["to"]): e["m"] for e in doc["edges"]})
    polygons = {}
    cache = {}
    for e in doc["edges"]:
        ref = (e["symbol"], json.dumps(e["params"], sort_keys=True))
        if ref not in cache:
            cache[ref] = _param_system(e["symbol"], e["params"], scalars)
        desc = PolygonDescriptor(e["symbol"], cache[ref],
                                 e.get("orientation", STANDARD),
                                 name=str(e["params"]))
        polygons[(e["from"], e["to"])] = desc
    glueings = {}
    for g in doc.get("glueings", []):
        i, j, k = g["triple"]
        desc = polygons.get((i, j))
        if desc is None:
            desc = polygons[(j, i)]
        atoms = [_atom_from_json(a, desc) for a in g["atoms"]]
        glueings[(i, j, k)] = GlueingMap(atoms)
    return Foundation(dia, polygons, glueings, name=doc.get("name"))


def foundation_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return foundation_from_json(json.load(fh))


# -- canonical built foundations ------------------------------------------------

def canonical_octonion_triangle():
    """Closed triangle over the rational octonions, all glueings identity."""
    from .composition import octonions_q
    h = as_handle(octonions_q())
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 3, ("2", "3"): 3, ("3", "1"): 3})
    tri = lambda: PolygonDescriptor(SYMBOL_T, h, name="octonion-Q")
    polygons = {("1", "2"): tri(), ("2", "3"): tri(), ("3", "1"): tri()}
    glueings = {("1", "2", "3"): identity_glueing(),
                ("2", "3", "1"): identity_glueing(),
                ("3", "1", "2"): identity_glueing()}
    return Foundation(dia, polygons, glueings, name="A2~(octonion-Q)")


def positive_quaternion_triangle():
    """Closed triangle over the rational quaternions, all glueings the
    standard involution."""
    from .composition import quaternions_q
    h = as_handle(quaternions_q())
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 3, ("2", "3"): 3, ("3", "1"): 3})
    tri = lambda: PolygonDescriptor(SYMBOL_T, h, name="quaternion-Q")
    polygons = {("1", "2"): tri(), ("2", "3"): tri(), ("3", "1"): tri()}
    glueings = {("1", "2", "3"): sigma_s_glueing(),
                ("2", "3", "1"): sigma_s_glueing(),
                ("3", "1", "2"): sigma_s_glueing()}
    return Foundation(dia, polygons, glueings, name="P3+(quaternion-Q)")


def octonion_tetrahedron():
    """Complete graph on four vertices over the octonions, identity glueings."""
    from .composition import octonions_q
    h = as_handle(octonions_q())
    verts = ["1", "2", "3", "4"]
    edges = {}
    for a in range(4):
        for b in range(a + 1, 4):
            edges[(verts[a], verts[b])] = 3
    dia = CoxeterDiagram(verts, edges)
    polygons = {(i, j): PolygonDescriptor(SYMBOL_T, h, name="octonion-Q")
                for (i, j) in edges}
    glueings = {t: identity_glueing() for t in dia.triples()}
    return Foundation(dia, polygons, glueings, name="tetrahedron(octonion-Q)",
                      complete=False)


def quaternion_d4_star():
    """Star with three leaves over the quaternions, all glueings identity
    (negative)."""
    from .composition import quaternions_q
    h = as_handle(quaternions_q())
    dia = CoxeterDiagram(["0", "1", "2", "3"],
                         {("0", "1"): 3, ("0", "2"): 3, ("0", "3"): 3})
    polygons = {tuple(sorted(e)): PolygonDescriptor(SYMBOL_T, h,
                                                    name="quaternion-Q")
                for e in dia.edges}
    glueings = {t: identity_glueing() for t in dia.triples()}
    return Foundation(dia, polygons, glueings, name="D4-star(quaternion-Q)",
                      complete=False)


def field_circle(n=5, field_name="F5"):
    """A circle of triangles over a commutative field, identity glueings."""
    fld = field_by_name(field_name)
    h = as_handle(fld)
    verts = [str(i) for i in range(1, n + 1)]
    edges = {(verts[i], verts[(i + 1) % n]): 3 for i in range(n)}
    dia = CoxeterDiagram(verts, edges)
    polygons = {e: PolygonDescriptor(SYMBOL_T, h, name=field_name)
                for e in edges}
    glueings = {t: identity_glueing() for t in dia.triples()}
    return Foundation(dia, polygons, glueings,
                      name="circle%d(%s)" % (n, field_name), complete=False)


def unitary_443_foundation(kind="involutory"):
    """The unitary 443 pattern: opposite quadrangle, standard quadrangle
    and a triangle over the opposite carrier, glued by (sigma_s, id^op,
    id^op)."""
    from .composition import quaternions_q
    H = quaternions_q()
    if kind == "involutory":
        xi = InvolutorySet(H, SIGMA_STANDARD, name="(H,Q,ss)")
        sym = SYMBOL_QI
    else:
        xi = xi_hamilton()
        sym = SYMBOL_QP
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 4, ("2", "3"): 4, ("3", "1"): 3})
    handle = xi.handle if kind == "involutory" else xi.h
    polygons = {
        ("1", "2"): PolygonDescriptor(sym, xi, OPPOSITE, name="Xi"),
        ("2", "3"): PolygonDescriptor(sym, xi, STANDARD, name="Xi"),
        ("3", "1"): PolygonDescriptor(SYMBOL_T, handle.opposite(),
                                      STANDARD, name="K-op"),
    }
    glueings = {
        ("1", "2", "3"): id_opposite_glueing(),
        ("2", "3", "1"): id_opposite_glueing(),
        ("3", "1", "2"): sigma_s_glueing(),
    }
    return Foundation(dia, polygons, glueings,
                      name="F443-%s(quaternion-Q)" % kind)


def rejected_443_foundation(symbol_tag):
    """443 shell carrying a rejection-tag quadrangle family."""
    from .composition import quaternions_q
    H = quaternions_q()
    xi = InvolutorySet(H, SIGMA_STANDARD, name="(H,Q,ss)")
    dia = CoxeterDiagram(["1", "2", "3"],
                         {("1", "2"): 4, ("2", "3"): 4, ("3", "1"): 3})
    if symbol_tag == SYMBOL_QD:
        from .scalars import F2
        ind = IndifferentSet(F2, [F2.one()], [F2.one()], name="(F2,1,1)")
        q12 = PolygonDescriptor(SYMBOL_QD, ind, OPPOSITE, name="ind")
        q23 = PolygonDescriptor(SYMBOL_QD, ind, STANDARD, name="ind")
    else:
        q12 = PolygonDescriptor(symbol_tag, "tag", OPPOSITE, name=symbol_tag)
        q23 = PolygonDescriptor(symbol_tag, "tag", STANDARD, name=symbol_tag)
    polygons = {
        ("1", "2"): q12,
        ("2", "3"): q23,
        ("3", "1"): PolygonDescriptor(SYMBOL_T, xi.handle, OPPOSITE,
                                      name="K"),
    }
    glueings = {t: identity_glueing() for t in dia.triples()}
    return Foundation(dia, polygons, glueings,
                      name="F443-%s" % symbol_tag, complete=False)


NAMED_FOUNDATIONS = {
    "a2-octonion": canonical_octonion_triangle,
    "p3-quaternion": positive_quaternion_triangle,
    "tetrahedron-octonion": octonion_tetrahedron,
    "d4-quaternion": quaternion_d4_star,
    "circle5-field": field_circle,
    "f443-involutory": lambda: unitary_443_foundation("involutory"),
    "f443-pseudoquadratic": lambda: unitary_443_foundation("pseudoquadratic"),
}
