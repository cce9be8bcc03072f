from __future__ import annotations

import json

import pytest

from ecuchain.bench import (
    RUNS,
    MetricsReport,
    SeriesPoint,
    bench_challenge,
    bench_create,
    bench_merkle,
    bench_storage,
    linear_fit,
)


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([1, 2, 3, 4], [10, 20, 30, 40])
    assert slope == pytest.approx(10.0)
    assert intercept == pytest.approx(0.0)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_requires_two_points():
    with pytest.raises(ValueError):
        linear_fit([1], [1])


def test_default_run_count_is_ten():
    assert RUNS == 10
    assert MetricsReport(benchmark="x", x_label="vehicles").runs == 10


def test_bench_create_shape():
    report = bench_create(counts=[5, 10], runs=3)
    assert [p.x for p in report.series] == [5, 10]
    assert all(p.mean_ms > 0 for p in report.series)
    assert all(p.stddev_ms >= 0 for p in report.series)
    assert report.runs == 3


def test_bench_create_rejects_empty_counts():
    with pytest.raises(ValueError):
        bench_create(counts=[])


@pytest.mark.parametrize("bench", [bench_create, bench_challenge, bench_merkle, bench_storage])
@pytest.mark.parametrize("counts", [[0], [-2], [5, 0]], ids=["zero", "negative", "then_zero"])
def test_benches_reject_counts_below_one(bench, counts):
    """A count below 1 measures nothing: it would divide by zero, report a
    point at a negative x or extrapolate a negative size.
    """
    with pytest.raises(ValueError, match="at least 1"):
        bench(counts=counts)


@pytest.mark.parametrize("bench", [bench_create, bench_challenge, bench_merkle])
@pytest.mark.parametrize("runs", [1, 0, -1])
def test_timing_benches_reject_runs_below_two(bench, runs):
    """A standard deviation needs two runs: one or none would raise
    ``statistics.StatisticsError`` after every run was timed.
    """
    with pytest.raises(ValueError, match="at least 2"):
        bench(counts=[1], runs=runs)


@pytest.mark.parametrize("targets", [[-5], [0], [100, 0]], ids=["negative", "zero", "then_zero"])
def test_bench_storage_rejects_extrapolation_targets_below_one(targets):
    """An extrapolation to fewer than one block reports a size for a fleet
    that cannot exist (at -5 blocks, a negative one).
    """
    with pytest.raises(ValueError, match="at least 1"):
        bench_storage(counts=[1, 2], extrapolate_to=targets)


def test_bench_challenge_positive_and_more_work_per_vehicle():
    report = bench_challenge(counts=[4, 40], runs=3)
    assert all(p.mean_ms > 0 for p in report.series)
    assert report.series[1].mean_ms > report.series[0].mean_ms


def test_bench_merkle_monotone_work():
    report = bench_merkle(counts=[10, 200], runs=3)
    assert report.series[1].mean_ms > report.series[0].mean_ms


def test_bench_storage_linearity_and_footprint():
    report = bench_storage(counts=[50, 100], extrapolate_to=[1000])
    measured = {p.blocks: p.bytes for p in report.storage if p.kind == "measured"}
    envelope = 2 * measured[50] - measured[100]  # fixed overhead estimate
    assert abs(measured[100] - 2 * measured[50]) <= abs(envelope) + 64
    assert 500 <= report.per_block_bytes <= 1500
    extrapolated = [p for p in report.storage if p.kind == "extrapolated"]
    assert extrapolated[0].blocks == 1000
    assert extrapolated[0].bytes == pytest.approx(
        report.per_block_bytes * 1000, rel=0.05
    )


def test_bench_storage_extrapolates_one_count_exactly():
    """The line runs through the empty ledger as well as the measured
    points, so one measured count extrapolates to the size that many
    blocks take, and the empty ledger is not reported as a point.
    """
    report = bench_storage(counts=[10], extrapolate_to=[20])
    twenty = bench_storage(counts=[20], extrapolate_to=[1])
    assert [(p.blocks, p.kind) for p in report.storage] == [(10, "measured"), (20, "extrapolated")]
    assert report.storage[1].bytes == twenty.storage[0].bytes
    assert report.per_block_bytes == twenty.per_block_bytes


def test_csv_format_timing():
    report = MetricsReport(
        benchmark="merkle-root",
        x_label="ecus",
        series=[SeriesPoint(10, 1.5, 0.1)],
    )
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "ecus,mean_ms,stddev_ms"
    assert lines[1].startswith("10,1.5")


def test_csv_format_storage():
    report = bench_storage(counts=[10, 20], extrapolate_to=[100])
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "blocks,bytes,kind"
    assert lines[-1].endswith(",extrapolated")


def test_json_format():
    report = bench_merkle(counts=[10], runs=2)
    payload = json.loads(report.to_json())
    assert payload["benchmark"] == "merkle-root"
    assert payload["runs"] == 2
    assert payload["series"][0]["ecus"] == 10
    assert payload["series"][0]["mean_ms"] > 0
