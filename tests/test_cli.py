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


def test_polygon_hua(capsys):
    code, out, _ = run(["polygon", "hua", "QQ", "last", "#1",
                        "--instance", "F4-space"], capsys)
    assert code == 0


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
    inexact = tmp_path / "inexact.json"
    inexact.write_text(json.dumps({
        "version": 1, "vertices": ["1", "2"],
        "edges": [{"from": "1", "to": "2", "m": 3, "symbol": "T",
                   "params": "tower"}],
        "scalars": {"tower": {"base": "Q", "betas": [0.1]}}}))
    code, _, err = run(["foundation", "check", str(inexact)], capsys)
    assert code == 2 and "exact values only" in err


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


def test_console_script_installed():
    # the child imports the same mforge as this process, installed or not
    pkg_root = os.path.dirname(os.path.dirname(mforge.__file__))
    path = os.pathsep.join(filter(None, [pkg_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mforge.cli", "f4-census",
                           "--json"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
