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


def test_wordgroup_tree_record_pairs_every_metric_on_every_workload():
    check_paired_record("BENCH_wordgroup_tree.json")


def test_index_tables_record_pairs_every_metric_on_every_workload():
    check_paired_record("BENCH_index_tables.json")


def test_light_blas_draws_record_pairs_every_metric_on_every_workload():
    check_paired_record("BENCH_light_blas_draws.json")


def test_fp_words_record_pairs_every_metric_on_every_workload():
    check_paired_record("BENCH_fp_words.json")


def test_q_stacked_record_pairs_every_metric_and_times_each_suite():
    """Alternating 30 s pairs, at least five on q_tower and two on each
    other workload, with every end-to-end metric on both sides, the
    per-suite call times of q_tower's identity suites and the acceptance
    #1 time on both sides, and numpy in the environment."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_q_stacked.json").read_text())
    metrics = [m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["end_to_end"]]
    assert "numpy" in record["environment"]
    runs = record["perfbench"]
    for workload, least in (("q_tower", 5), ("finite_exhaustive", 2),
                            ("foundations_mix", 2)):
        (key,) = [k for k in runs if k.startswith(workload + "_")]
        pairs = runs[key]
        assert pairs["pairs"] >= least, key
        for side in ("parent", "change"):
            assert pairs[side]["correct"] and pairs[side]["failed"] == 0
            for name in metrics:
                m = pairs[side][name]
                assert len(m["runs"]) == pairs["pairs"], (key, side, name)
                assert m["quartiles"][0] <= m["median"] <= m["quartiles"][1]
    for side in ("parent", "change"):
        times = record["per_call_ms"][side]
        for suite in ("moufang", "flexible", "alternative", "inverse",
                      "minimum_equation", "norm_multiplicative",
                      "doubling_rules"):
            assert times["identities.octonion-Q.%s" % suite]["median"] > 0
        assert times["identities.dim16-Q.alternative"]["median"] > 0
        assert times["acceptance_1_s"]["median"] > 0


def test_one_exact_tier_record_pairs_every_metric_and_times_the_tiers():
    """Alternating 30 s pairs, at least five on q_tower and two on each
    other workload, with every end-to-end metric on both sides; the
    object tier against the case-by-case path on the off-tier towers,
    with equal reports; and the in-process series of q_tower's identity
    suite calls and of the F3 and F5 suites, on both sides."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_one_exact_tier.json").read_text())
    metrics = [m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["end_to_end"]]
    assert "numpy" in record["environment"]
    runs = record["perfbench"]
    for workload, least in (("q_tower", 5), ("finite_exhaustive", 2),
                            ("foundations_mix", 2)):
        (key,) = [k for k in runs if k.startswith(workload + "_")]
        pairs = runs[key]
        assert pairs["pairs"] >= least, key
        for side in ("parent", "change"):
            assert pairs[side]["correct"] and pairs[side]["failed"] == 0
            for name in metrics:
                m = pairs[side][name]
                assert len(m["runs"]) == pairs["pairs"], (key, side, name)
                assert m["quartiles"][0] <= m["median"] <= m["quartiles"][1]
    tiers = record["object_tier_ms"]
    assert len(tiers) >= 4
    for row in tiers.values():
        assert row["reports_equal"]
        for side in ("object_tier", "case_by_case"):
            times = row[side]
            assert all(t > 0 for t in (times.values() if isinstance(
                times, dict) else [times]))
    for kind in ("q_tower_suites", "F3_suites", "F5_suites"):
        for series in record["in_process_ms_per_round"][kind]:
            assert len(series["parent"]) == len(series["change"]) >= 15
            assert 0 <= series["change_faster"] <= len(series["parent"])


def check_paired_record(filename):
    """At least 10 pairs of runs per workload with every end-to-end metric,
    the one-round kernel shares and the per-call times, on both sides."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / filename).read_text())
    metrics = [m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = record["perfbench"]
    for workload in ("q_tower", "finite_exhaustive", "foundations_mix"):
        (key,) = [k for k in runs if k.startswith(workload + "_")]
        pairs = runs[key]
        assert pairs["pairs"] >= 10, key
        for side in ("parent", "change"):
            assert pairs[side]["correct"] and pairs[side]["failed"] == 0
            for name in metrics:
                m = pairs[side][name]
                assert len(m["runs"]) == pairs["pairs"], (key, side, name)
                assert m["quartiles"][0] <= m["median"] <= m["quartiles"][1]
    for side in ("parent", "change"):
        for seed in ("seed0", "seed1"):
            assert record["kernel_share_one_round"][side][seed]
        for kind in ("hua.QP-Xi-F4", "wordgroup.QP-Xi-F4.axioms"):
            assert record["per_call_ms"][side][kind]["median"] > 0
