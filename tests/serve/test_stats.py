"""ServerStats accounting, report formatting and the snapshot contract."""

import numpy as np

from repro.obs import MetricsRegistry
from repro.serve import ServerStats


def _isolated_stats() -> ServerStats:
    """Stats wired to a private registry so tests don't share state."""
    return ServerStats(metrics=MetricsRegistry())


def test_empty_report_is_all_zero():
    report = _isolated_stats().report()
    assert report.completed == 0
    assert report.throughput_ips == 0.0
    assert report.latency_ms_p99 == 0.0
    assert report.energy_uj_total == 0.0
    assert report.batch_histogram == {}
    assert "(empty)" in report.format()


def test_percentiles_and_energy_accumulate():
    stats = _isolated_stats()
    stats.record_admission()
    for latency in range(1, 101):  # 1..100 ms
        stats.record_completion(latency_ms=float(latency), queue_ms=0.5,
                                energy_uj=2.0)
    report = stats.report()
    assert report.completed == 100
    assert report.latency_ms_p50 == np.percentile(np.arange(1.0, 101.0), 50)
    assert report.latency_ms_p95 == np.percentile(np.arange(1.0, 101.0), 95)
    assert report.latency_ms_p99 == np.percentile(np.arange(1.0, 101.0), 99)
    assert report.latency_ms_max == 100.0
    assert report.energy_uj_total == 200.0
    assert report.energy_uj_per_image == 2.0
    assert report.queue_ms_mean == 0.5


def test_batch_histogram_and_mean():
    stats = _isolated_stats()
    stats.record_batch(1, queue_depth=0)
    stats.record_batch(8, queue_depth=3)
    stats.record_batch(8, queue_depth=9)
    report = stats.report()
    assert report.batch_histogram == {1: 1, 8: 2}
    assert report.mean_batch_size == (1 + 8 + 8) / 3
    assert report.max_queue_depth == 9


def test_rejections_and_failures_counted():
    stats = _isolated_stats()
    stats.record_rejection()
    stats.record_failure(3)
    report = stats.report()
    assert report.rejected == 1
    assert report.failed == 3
    assert "rejected 1" in report.format()


def test_report_format_mentions_key_metrics():
    stats = _isolated_stats()
    stats.record_admission()
    stats.record_batch(4, queue_depth=2)
    stats.record_completion(latency_ms=3.0, queue_ms=1.0, energy_uj=1.5)
    text = stats.report().format()
    for needle in ("throughput", "p50", "p95", "p99", "batch-size histogram",
                   "modeled energy", "uJ"):
        assert needle in text, needle


def test_snapshot_is_plain_dict_matching_report():
    stats = _isolated_stats()
    stats.record_admission()
    stats.record_batch(2, queue_depth=1)
    stats.record_completion(latency_ms=4.0, queue_ms=1.0, energy_uj=1.0)
    stats.record_completion(latency_ms=6.0, queue_ms=2.0, energy_uj=1.0)
    snapshot = stats.snapshot()
    report = stats.report()
    assert isinstance(snapshot, dict)
    assert snapshot["completed"] == report.completed == 2
    assert snapshot["latency_ms_p50"] == report.latency_ms_p50
    assert snapshot["energy_uj_total"] == report.energy_uj_total
    assert snapshot["batch_histogram"] == {2: 1}


def test_stats_publish_into_metrics_registry():
    registry = MetricsRegistry()
    stats = ServerStats(metrics=registry)
    stats.record_rejection()
    stats.record_batch(4, queue_depth=7)
    stats.record_completion(latency_ms=5.0, queue_ms=2.0, energy_uj=3.0)
    snap = registry.snapshot()
    assert snap["counters"]["serve.rejected"] == 1
    assert snap["counters"]["serve.completed"] == 1
    assert snap["counters"]["serve.energy_uj"] == 3.0
    assert snap["gauges"]["serve.queue_depth"] == 7
    assert snap["histograms"]["serve.latency_ms"]["count"] == 1
    assert snap["histograms"]["serve.batch_size"]["max"] == 4


def test_wall_clock_starts_at_admission_not_rejection():
    """Regression: a rejected burst must not inflate ``wall_s``.

    The clock used to start on the first *submission attempt*; a burst
    of backpressure rejections long before real traffic then stretched
    the throughput and energy-per-image denominators.
    """
    fake = {"t": 0.0}
    stats = ServerStats(metrics=MetricsRegistry(), clock=lambda: fake["t"])
    for _ in range(5):
        stats.record_rejection()   # t = 0: overload burst, nothing admitted
    fake["t"] = 100.0
    stats.record_admission()       # real traffic starts here
    fake["t"] = 101.0
    stats.record_completion(latency_ms=5.0, queue_ms=1.0, energy_uj=2.0)
    report = stats.report()
    assert report.wall_s == 1.0    # not 101.0
    assert report.throughput_ips == 1.0
    assert report.rejected == 5


def test_rejection_only_run_reports_zero_wall():
    stats = _isolated_stats()
    for _ in range(3):
        stats.record_rejection()
    report = stats.report()
    assert report.wall_s == 0.0
    assert report.throughput_ips == 0.0
    assert report.completed == 0


def test_deadline_and_degraded_counters_flow_to_report_and_metrics():
    registry = MetricsRegistry()
    stats = ServerStats(metrics=registry)
    stats.record_deadline_expired(2)
    stats.record_degraded(3)
    report = stats.report()
    assert report.deadline_expired == 2
    assert report.degraded == 3
    assert "deadline expired 2" in report.format()
    assert "degraded 3" in report.format()
    snap = registry.snapshot()
    assert snap["counters"]["serve.deadline_expired"] == 2
    assert snap["counters"]["serve.degraded"] == 3
