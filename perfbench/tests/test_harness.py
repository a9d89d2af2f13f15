import json

import pytest

import harness
import layers
import run
from conftest import BENCH


@pytest.mark.parametrize(
    "n, label, beyond",
    [(1000, "p99", 10), (999, "p95", 49), (10000, "p99.9", 10), (200, "p95", 10), (20, "p50", 10)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label, beyond):
    values = list(range(n, 0, -1))  # unsorted input
    got_label, value = harness.tail(values)
    assert got_label == label
    assert sum(v > value for v in values) == beyond


def test_tail_of_a_small_sample_is_its_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert harness.tail(list(range(19)))[0] == "max"


def test_median():
    assert harness.median([5, 1, 3]) == 3
    assert harness.median([4, 1, 3, 2]) == 2.5


def test_failures_and_checks_count_against_attempts():
    tally = harness.Tally()

    def boom():
        raise ValueError("bad graph")

    assert tally.run("graph", lambda: 7) == (True, 7)
    assert tally.run("graph", boom) == (False, None)
    assert tally.check("auc", True)
    assert not tally.check("auc", False, "auc 0.4 below 0.9")
    assert tally.total_attempted == 4
    assert tally.total_failed == 2
    assert tally.failed_frac == 0.5
    assert tally.failed == {"graph": 1, "check.auc": 1}
    assert tally.messages == ["graph: ValueError: bad graph", "check.auc: auc 0.4 below 0.9"]


def test_no_attempts_is_no_failure():
    assert harness.Tally().failed_frac == 0.0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
