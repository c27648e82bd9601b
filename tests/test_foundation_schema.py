"""The in-repo FOUNDATION_SCHEMA checker against jsonschema's Draft7Validator
as the oracle, on single-value mutations of every sample file and of the
malformed documents the other tests use; and loading a foundation without
importing jsonschema at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mforge
from mforge.catalog import (FOUNDATION_SCHEMA, FoundationFormatError,
                            check_foundation_doc)

SAMPLES = sorted((Path(__file__).resolve().parent.parent
                  / "sample_foundations").glob("*.json"))


def _tower_doc(betas):
    return {"version": 1, "vertices": ["1", "2"],
            "edges": [{"from": "1", "to": "2", "m": 3, "symbol": "T",
                       "params": "tower"}],
            "scalars": {"tower": {"base": "Q", "betas": betas}}}


def _frobenius_doc(power):
    return {"version": 1, "vertices": ["1", "2", "3"],
            "edges": [{"from": a, "to": b, "m": 3, "symbol": "T",
                       "params": "F4"}
                      for a, b in (("1", "2"), ("2", "3"), ("3", "1"))],
            "glueings": [{"triple": ["1", "2", "3"],
                          "atoms": [{"atom": "frobenius", "power": power}]}]}


BAD_DOCS = {
    "off-schema": {"version": 1, "vertices": ["1"]},
    "not-an-object": [],
    "empty": {},
    **{"betas=%r" % (b,): _tower_doc(b)
       for b in ([0.1], [True], [[1, 2]], [1.0], [-1, "-1/2"])},
    **{"frobenius=%r" % (p,): _frobenius_doc(p) for p in (1.5, True, "2")},
}

DOCS = {**{p.name: json.loads(p.read_text()) for p in SAMPLES}, **BAD_DOCS}

# each value in turn is replaced by one of these: other JSON types, True
# and 1.0 against integers, and values outside every enum
SUBSTITUTES = (None, True, False, 0, 1, 1.0, 0.1, 2, 3, 4, 5, "x", "T",
               "standard", [], ["1"], ["1", "2"], {}, {"atom": "identity"})

_DELETE = object()


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _replaced(doc, path, new):
    """doc with the value at `path` made new(old), or deleted when new(old)
    is _DELETE; only the containers along the path are copied."""
    if not path:
        return new(doc)
    out = type(doc)(doc)
    item = _replaced(doc[path[0]], path[1:], new)
    if item is _DELETE:
        del out[path[0]]
    else:
        out[path[0]] = item
    return out


def _mutations(doc):
    for path in _paths(doc):
        if path:
            yield _replaced(doc, path, lambda old: _DELETE)
        for sub in SUBSTITUTES:
            yield _replaced(doc, path, lambda old, sub=sub: sub)
        yield _replaced(doc, path, lambda old: [old])
        yield _replaced(doc, path, lambda old: {"extra": old})
        # a list one shorter and one longer: triples of length 2 and 4
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, list) and value:
            yield _replaced(doc, path, lambda old: old[:-1])
            yield _replaced(doc, path, lambda old: old + old[-1:])


def _refusal(doc):
    try:
        check_foundation_doc(doc)
    except FoundationFormatError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(DOCS))
def test_checker_agrees_with_draft7(name):
    jsonschema = pytest.importorskip("jsonschema")
    oracle = jsonschema.Draft7Validator(FOUNDATION_SCHEMA)
    single = 0
    for doc in [DOCS[name]] + list(_mutations(DOCS[name])):
        errors = list(oracle.iter_errors(doc))
        refusal = _refusal(doc)
        assert (refusal is None) == (not errors), (doc, refusal, errors)
        if len(errors) == 1:
            assert refusal == errors[0].message, doc
            single += 1
    assert single


_NO_SCHEMA_LIBRARY = """
import contextlib, io, sys
from mforge import cli
from mforge.catalog import foundation_from_file
paths = %r
for path in paths:
    foundation_from_file(path)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["foundation", "check", path, "--samples", "2",
                       "--json"]) for path in paths]
print(codes, "jsonschema" in sys.modules)
"""


def test_loading_foundations_never_imports_jsonschema():
    pkg_root = os.path.dirname(os.path.dirname(mforge.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         _NO_SCHEMA_LIBRARY % [str(p) for p in SAMPLES]],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    codes, imported = proc.stdout.rsplit(" ", 1)
    # bad_triangle_f4 is well formed and fails its check (exit 1)
    assert codes == str([int(p.name == "bad_triangle_f4.json")
                         for p in SAMPLES])
    assert imported.strip() == "False"
