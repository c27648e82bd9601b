import json
import os
import subprocess
import sys

import pytest

import mforge
from mforge.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(ROOT, "sample_foundations")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--algebra", "quaternion-Q",
                        "--suite", "moufang", "--samples", "150",
                        "--seed", "7"], capsys)
    assert code == 0
    assert "moufang" in out


def test_verify_json_deterministic(capsys):
    argv = ["verify", "--algebra", "quaternion-Q", "--suite", "alternative",
            "--samples", "100", "--seed", "3", "--json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    doc = json.loads(out1.strip())
    assert doc["passed"] is True


def test_verify_unknown_algebra(capsys):
    code, _, err = run(["verify", "--algebra", "octonion-Q",
                        "--suite", "moufang", "--samples", "10"], capsys)
    assert code == 0
    with pytest.raises(SystemExit):
        main(["verify", "--algebra", "nonsense"])


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "octonion-Q"], ["f4-census"],
    ["polygon", "exhaustive", "QP", "Xi-F4"],
    ["polygon", "hua", "T", "first", "#1"],
    ["foundation", "check", os.path.join(SAMPLES, "a2_octonion.json")],
    ["foundation", "classify", os.path.join(SAMPLES, "a2_octonion.json")],
    ["foundation", "dot", os.path.join(SAMPLES, "a2_octonion.json")],
    ["cover", "unfold", os.path.join(SAMPLES, "circle5_f5.json"),
     "--radius", "1"]], ids=lambda argv: "-".join(argv[:2]))
def test_negative_sample_counts_are_an_input_error(capsys, argv):
    for value, message in (("-3", "negative sample count -3"),
                           ("x", "invalid int value: 'x'")):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--samples", value])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert message in out.err


def test_zero_samples_take_the_default_count(capsys):
    argv = ["verify", "--algebra", "quaternion-Q", "--suite", "flexible",
            "--json"]
    _, zero, _ = run(argv + ["--samples", "0"], capsys)
    _, default, _ = run(argv, capsys)
    assert zero == default
    assert json.loads(zero)["lines"][0]["samples"] == 10000


def test_dim16_negative_control(capsys):
    code, out, _ = run(["verify", "--algebra", "dim16-Q",
                        "--suite", "alternative", "--samples", "400",
                        "--seed", "1"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_f4_census(capsys):
    code, out, _ = run(["f4-census"], capsys)
    assert code == 0
    assert "|T| = 8" in out


def test_polygon_exhaustive(capsys):
    code, out, _ = run(["polygon", "exhaustive", "QQ", "F4-space",
                        "--samples", "50"], capsys)
    assert code == 0
    assert "group.associativity" in out


def test_polygon_exhaustive_builds_one_word_group(capsys, monkeypatch):
    from mforge.polygons import WordGroup
    builds = []
    init = WordGroup.__init__
    monkeypatch.setattr(WordGroup, "__init__",
                        lambda self, desc: builds.append(desc)
                        or init(self, desc))
    code, out, _ = run(["polygon", "exhaustive", "QQ", "F4-space",
                        "--json"], capsys)
    assert code == 0
    assert len(builds) == 1
    assert [json.loads(ln)["suite"] for ln in out.splitlines()] == [
        "group-axioms", "hua.consistency"]


def test_polygon_hua(capsys):
    code, out, _ = run(["polygon", "hua", "QQ", "last", "#1",
                        "--instance", "F4-space"], capsys)
    assert code == 0


@pytest.mark.parametrize("symbol, end", [("T", "first"), ("T", "last"),
                                         ("QQ", "first"), ("QQ", "last"),
                                         ("QP", "first"), ("QP", "last")])
def test_polygon_hua_one_is_the_unit_of_the_end(capsys, symbol, end):
    # anchored at the unit of its end's Moufang set, the Hua map on that
    # end is the identity; T's default instance has infinite slot groups
    code, out, err = run(["polygon", "hua", symbol, end, "one", "--json"],
                         capsys)
    assert code == 0 and err == ""
    lines = [ln for ln in json.loads(out)["lines"]
             if ln["rule"].startswith("hua.%s[" % end)]
    assert lines
    assert all(ln["rule"] == "hua.%s[%s]" % (end, ln["note"])
               for ln in lines)


@pytest.mark.parametrize("argv, message", [
    (["T", "first", "#3"], "needs a finite slot group"),
    (["T", "last", "#3", "--instance", "quaternion-Q"],
     "needs a finite slot group"),
    (["QQ", "first", "#2"], "must be nonzero"),   # #2 of F2 is zero
    (["QQ", "last", "#x"], "invalid literal")])
def test_polygon_hua_bad_anchor_is_an_input_error(capsys, argv, message):
    code, out, err = run(["polygon", "hua"] + argv, capsys)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_foundation_check_and_classify(capsys):
    code, _, _ = run(["foundation", "check",
                      os.path.join(SAMPLES, "p3_quaternion.json"),
                      "--samples", "10"], capsys)
    assert code == 0
    code, out, _ = run(["foundation", "classify",
                        os.path.join(SAMPLES, "tetrahedron_octonion.json"),
                        "--samples", "6", "--json"], capsys)
    assert code == 1
    doc = json.loads(out.strip())
    assert doc["kind"] == "not-integrable"


def test_foundation_bad_file(capsys, tmp_path):
    code, _, err = run(["foundation", "check", str(tmp_path / "nope.json")],
                       capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["foundation", "check", str(bad)], capsys)
    assert code == 2

    def tower_file(betas):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({
            "version": 1, "vertices": ["1", "2"],
            "edges": [{"from": "1", "to": "2", "m": 3, "symbol": "T",
                       "params": "tower"}],
            "scalars": {"tower": {"base": "Q", "betas": betas}}}))
        return str(path)

    # 1.0 passes the schema, which counts it an integer
    code, _, err = run(["foundation", "check", tower_file([1.0])], capsys)
    assert code == 2 and "exact values only" in err
    for betas in ([0.1], [True], [[1, 2]]):
        code, _, err = run(["foundation", "check", tower_file(betas)],
                           capsys)
        assert code == 2 and "is not of type 'integer', 'string'" in err
    off_schema = tmp_path / "off_schema.json"
    off_schema.write_text(json.dumps({"version": 1, "vertices": ["1"]}))
    for argv in (["foundation", "check", str(off_schema)],
                 ["cover", "unfold", str(off_schema), "--radius", "2"]):
        code, _, err = run(argv, capsys)
        assert code == 2 and "'edges' is a required property" in err


def test_foundation_unknown_parameter_system_is_an_input_error(capsys,
                                                               tmp_path):
    with open(os.path.join(SAMPLES, "f443_involutory.json")) as fh:
        doc = json.load(fh)
    for edge in doc["edges"][:2]:
        edge.update(symbol="QQ", params="nope")
    path = tmp_path / "unknown_space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["foundation", "check", str(path)], capsys)
    assert code == 2 and out == ""
    assert "unknown quadratic space 'nope'" in err


def test_foundation_over_a_strong_pseudoprime_is_an_input_error(capsys,
                                                                tmp_path):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to each of the 12 prime bases up to 37
    with open(os.path.join(SAMPLES, "circle5_f5.json")) as fh:
        doc = json.load(fh)
    for edge in doc["edges"]:
        edge["params"] = "F318665857834031151167461"
    path = tmp_path / "circle5_psi12.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["foundation", "check", str(path), "--json"], capsys)
    assert code == 2 and out == ""
    assert "modulus 318665857834031151167461 is not prime" in err


def test_foundation_atom_on_the_wrong_carrier_is_an_input_error(capsys,
                                                                 tmp_path):
    # a table atom reads field scalars, scalar_conj a tower element, and
    # frobenius a field of positive characteristic
    frobenius = ({"atom": "frobenius"},
                 "a frobenius atom needs a field edge of positive "
                 "characteristic")
    for sample, params, (atom, message) in (
            ("a2_octonion.json", None, ({"atom": "table", "pairs": [[1, 1]]},
                                        "a table atom needs a field edge")),
            ("circle5_f5.json", None, ({"atom": "scalar_conj", "w": [2]},
                                       "a scalar_conj atom needs a tower "
                                       "edge")),
            ("a2_octonion.json", None, frobenius),
            ("circle5_f5.json", "Q", frobenius)):
        with open(os.path.join(SAMPLES, sample)) as fh:
            doc = json.load(fh)
        for edge in doc["edges"]:
            edge["params"] = params or edge["params"]
        doc["glueings"][0]["atoms"] = [atom]
        path = tmp_path / sample
        path.write_text(json.dumps(doc))
        code, _, err = run(["foundation", "check", str(path)], capsys)
        assert code == 2 and err == (
            "invalid foundation description: %s\n" % message), err


def _frobenius_triangle(tmp_path, power):
    """A triangle over F4 whose glueing at (1, 2, 3) is frob^power."""
    path = tmp_path / "frobenius_triangle.json"
    path.write_text(json.dumps({
        "version": 1, "vertices": ["1", "2", "3"],
        "edges": [{"from": a, "to": b, "m": 3, "symbol": "T", "params": "F4"}
                  for a, b in (("1", "2"), ("2", "3"), ("3", "1"))],
        "glueings": [
            {"triple": ["1", "2", "3"],
             "atoms": [{"atom": "frobenius", "power": power}]},
            {"triple": ["2", "3", "1"], "atoms": [{"atom": "identity"}]},
            {"triple": ["3", "1", "2"], "atoms": [{"atom": "identity"}]}]}))
    return str(path)


def test_foundation_check_signed_frobenius(capsys, tmp_path):
    # frob^-1 is the inverse Frobenius, so its reversed glueing undoes it
    for power in (1, -1, 3, -2):
        code, out, _ = run(["foundation", "check",
                            _frobenius_triangle(tmp_path, power),
                            "--samples", "8"], capsys)
        assert code == 0, (power, out)
    for power in (1.5, True, "2"):
        code, _, err = run(["foundation", "check",
                            _frobenius_triangle(tmp_path, power)], capsys)
        assert code == 2 and err.startswith(
            "invalid foundation description: a Frobenius power is an "
            "integer"), (power, err)


def test_foundation_check_failure_exit(capsys):
    code, out, _ = run(["foundation", "check",
                        os.path.join(SAMPLES, "bad_triangle_f4.json"),
                        "--samples", "10"], capsys)
    assert code == 1


def test_foundation_dot(capsys, tmp_path):
    out_path = tmp_path / "g.dot"
    code, _, _ = run(["foundation", "dot",
                      os.path.join(SAMPLES, "a2_octonion.json"),
                      "-o", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph foundation {")
    # byte-stable across runs
    code, out2, _ = run(["foundation", "dot",
                         os.path.join(SAMPLES, "a2_octonion.json")], capsys)
    assert out2 == text


def test_cover_unfold(capsys):
    code, out, _ = run(["cover", "unfold",
                        os.path.join(SAMPLES, "circle5_f5.json"),
                        "--radius", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 9


def test_env_var_seed(capsys, monkeypatch):
    monkeypatch.setenv("MFORGE_SEED", "11")
    argv = ["verify", "--algebra", "quaternion-Q", "--suite", "flexible",
            "--samples", "80", "--json"]
    _, out1, _ = run(argv, capsys)
    assert json.loads(out1.strip())["seed"] == 11


def test_calls_share_the_parser_but_not_their_arguments(capsys,
                                                        monkeypatch):
    """main builds its parser once; a call sees neither the options of the
    call before it nor a seed fallback read before MFORGE_SEED changed."""
    from mforge.cli import build_parser
    assert build_parser() is build_parser()

    def verify(suite, *extra):
        _, out, _ = run(["verify", "--algebra", "quaternion-Q", "--suite",
                         suite, "--json"] + list(extra), capsys)
        doc = json.loads(out.strip())
        return doc["seed"], doc["suite"], doc["lines"][0]["samples"]

    monkeypatch.setenv("MFORGE_SEED", "11")
    assert verify("flexible", "--seed", "4", "--samples", "20") == (
        4, "identities.flexible", 20)
    monkeypatch.setenv("MFORGE_SEED", "12")
    assert verify("alternative", "--samples", "30") == (
        12, "identities.alternative", 30)
    monkeypatch.delenv("MFORGE_SEED")
    assert verify("flexible", "--samples", "20")[0] == 0


def _child_cli(argv, **env):
    # the child imports the same mforge as this process, installed or not
    pkg_root = os.path.dirname(os.path.dirname(mforge.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mforge.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_console_script_installed():
    proc = _child_cli(["f4-census", "--json"])
    assert proc.returncode == 0


def test_hua_anchor_is_the_same_under_every_hash_salt():
    # a named anchor is drawn from a seed derived from its text; string
    # hashes are salted per process, so that seed must not come from hash()
    argv = ["polygon", "hua", "T", "first", "abc", "--instance",
            "quaternion-Q", "--json", "--seed", "3"]
    one, two = (_child_cli(argv, PYTHONHASHSEED=salt) for salt in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
