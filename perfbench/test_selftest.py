"""Self-test of the benchmark harness on a seconds-scale workload.

Run from the repository root::

    python3 -m pytest perfbench -q

The end-to-end cases run ``lenet-glyphs-fast`` ST+AT on hardware repeat
7, whose lifetime is short (a few seconds per run).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import spans  # noqa: E402

bench.use_source_tree()

SMOKE = bench.Workload("lenet-glyphs", True, "st+at", 1)
SEED = 7


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced run, spans written to a temporary dir."""
    out = tmp_path_factory.mktemp("bench_out")
    prior = bench.OUT_DIR
    bench.OUT_DIR = out
    try:
        harness = bench.Bench("smoke", SMOKE, SEED)
        metrics, records = bench.measure_traced(harness)
    finally:
        bench.OUT_DIR = prior
    trace = json.loads((out / f"smoke-seed{SEED}-r{SEED}.spans.json").read_text())
    return harness, metrics, records, trace["spans"]


def test_harness_runs_end_to_end(traced):
    harness, metrics, records, _spans = traced
    assert harness.problems == []
    assert (harness.attempted, harness.failed) == (2, 0)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["mapping.at_candidates"] > 0
    assert 0.0 < metrics["mapping.at_prefix_pct"] < 100.0
    assert metrics["trace.attributed_pct"] >= bench.MIN_ATTRIBUTED_PCT
    untraced, traced_run = records[1], records[0]
    assert untraced["digest"] == traced_run["digest"]
    assert untraced["counts"] == traced_run["counts"]


def test_untraced_cli_prints_the_end_to_end_metrics(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setitem(bench.WORKLOADS, "smoke", SMOKE)
    argv = ["--workload", "smoke", "--seed", str(SEED), "--seconds", "0"]
    assert bench.main(argv + ["--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_result_fails_the_digest_check(traced):
    harness, _metrics, records, _spans = traced
    record = records[0]
    result = harness.last_result.to_dict()
    assert bench.result_digest(result) == record["digest"]
    reference = {"digest": record["digest"], "stats": record["stats"]}
    assert bench.check_run(record, reference) == []

    result["windows"][-1]["accuracy_after"] += 1e-12
    perturbed = dict(record, digest=bench.result_digest(result))
    assert bench.check_run(perturbed, reference) == [
        "result digest differs from the reference"
    ]
    horizon = dict(record, stats=dict(record["stats"], failed=False))
    assert "stopped at the window horizon instead of failing" in bench.check_run(
        horizon, None
    )


def test_self_times_are_never_negative(traced):
    *_rest, trace = traced
    summary = spans.summarize(trace)
    assert summary["run"]["calls"] == 1
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())


def test_children_never_exceed_their_parent(traced):
    *_rest, trace = traced
    assert spans.check_nesting(trace) == []
    bad = [["parent", -1, 0.0, 1.0, -1], ["child", 0, 0.2, 1.3, -1]]
    assert spans.check_nesting(bad) == [
        "span 1 (child) leaves its parent 0",
        "children of span 0 exceed it",
    ]


def test_prefix_time_counts_layers_upstream_of_the_scored_one():
    trace = [
        ["mapping.at_score", -1, 0.0, 10.0, 2],
        ["nn.forward", 0, 1.0, 9.0, -1],
        ["nn.Conv2D.forward", 1, 1.0, 2.0, -1],
        ["nn.MaxPool2D.forward", 1, 2.0, 4.0, -1],
        ["nn.Dense.forward", 1, 4.0, 8.0, -1],
    ]
    summary = spans.summarize(trace)
    assert summary["mapping.at_prefix"]["total_s"] == pytest.approx(3.0)
    assert summary["nn.forward"]["self_s"] == pytest.approx(1.0)
    assert summary["mapping.at_score"]["self_s"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "env",
    [
        {"REPRO_SCALAR_TUNER": "1"},
        {"REPRO_BACKEND": "torch"},
        {"REPRO_CHAOS": "crash-point"},
    ],
)
def test_hygiene_refuses_off_path_environments(env):
    assert bench.hygiene_problems(env)


def test_hygiene_refuses_disabled_value_caches():
    from repro.core.kernels import set_cache_enabled

    assert bench.hygiene_problems({}) == []
    prior = set_cache_enabled(False)
    try:
        assert bench.hygiene_problems({}) == ["the kernel value caches are disabled"]
    finally:
        set_cache_enabled(prior)
