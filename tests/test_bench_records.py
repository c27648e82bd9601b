"""The committed BENCH_*.json records at the repository root: each one
parses and says what it measured and on which environment."""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_label_and_environment(path):
    record = json.loads(path.read_text())
    assert isinstance(record["label"], str) and record["label"]
    env = record["environment"]
    for key in ("python", "gmpy2", "table_backend", "nproc"):
        assert key in env, key
