"""Tests of the benchmark's own summarizing code.

Run with:  python3 -m pytest perfbench/test_summary.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import (  # noqa: E402
    Invocation,
    Span,
    median,
    percentile,
    q_ratio,
    self_times,
    sweep_row_tally,
    tail_percentile,
)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 10.0
    assert percentile(values, 50.0) == 5.5
    assert percentile(values, 90.0) == pytest.approx(9.1)


def test_tail_percentile_needs_ten_samples_beyond():
    # fewer than 20 samples: not even the median has ten beyond it
    assert tail_percentile([float(v) for v in range(19)]) is None
    # 20 samples: the median qualifies, p75 does not
    q, value = tail_percentile([float(v) for v in range(20)])
    assert q == 50.0 and value == 9.5
    # 200 samples: p95 has exactly ten beyond, p99 only two
    q, _ = tail_percentile([float(v) for v in range(200)])
    assert q == 95.0


def test_self_time_subtracts_nested_children():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),  # inside a: counts against a, not op
        Span("c", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 4.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: only 1 s is covered
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_q_ratio_is_the_median_ratio():
    assert q_ratio([(0.5, 1.0), (0.9, 1.0), (0.2, 0.25)]) == pytest.approx(0.8)


def test_crashed_sweep_fails_all_its_rows():
    invocations = [
        Invocation(returncode=0, expected_rows=100, bad_rows=0),
        Invocation(returncode=1, expected_rows=40, bad_rows=0),
        Invocation(returncode=0, expected_rows=60, bad_rows=3),
    ]
    assert sweep_row_tally(invocations) == (200, 43)


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
