"""serve-bench CLI smoke tests (small budgets, fast)."""

import json

import pytest

from repro.cli import main


def test_serve_bench_reports_metrics(capsys):
    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "48", "--workers", "2", "--max-batch", "8",
        "--concurrency", "8", "--calibration", "32", "--skip-baseline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for needle in (
        "serving lenet_small at Fixed-Point (8,8)",
        "throughput",
        "p95",
        "p99",
        "batch-size histogram",
        "modeled energy",
        "uJ/image",
    ):
        assert needle in out, needle


def test_serve_bench_baseline_comparison(capsys):
    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "32", "--workers", "2", "--max-batch", "8",
        "--concurrency", "8", "--calibration", "32",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "batch=1 reference" in out
    assert "dynamic batching speedup" in out


def test_serve_bench_json_output(capsys):
    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "32", "--workers", "2", "--max-batch", "8",
        "--concurrency", "8", "--calibration", "32", "--skip-baseline",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["network"] == "lenet_small"
    assert payload["precision"] == "fixed8"
    assert payload["report"]["completed"] == 32
    assert payload["report"]["latency_ms_p95"] >= payload["report"]["latency_ms_p50"]
    assert payload["report"]["energy_uj_total"] > 0
    assert payload["client_errors"] == 0
    assert "baseline_report" not in payload


def test_serve_bench_rejects_unknown_precision():
    with pytest.raises(SystemExit):
        main(["serve-bench", "--precision", "int3"])


def test_serve_bench_chaos_run_loses_nothing(capsys):
    from repro.resilience import get_injector

    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "64", "--workers", "2", "--max-batch", "8",
        "--concurrency", "8", "--calibration", "32", "--skip-baseline",
        "--chaos", "0", "--deadline-ms", "5000", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chaos_seed"] == 0
    assert payload["lost"] == 0
    assert payload["accounted"] == payload["submitted"] == 64
    assert "injected_faults" in payload
    # the run-scoped injector was uninstalled afterwards
    assert not get_injector().armed


def test_serve_bench_deadline_flag_accounts_expiries(capsys):
    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "32", "--workers", "2", "--max-batch", "8",
        "--concurrency", "8", "--calibration", "32", "--skip-baseline",
        "--deadline-ms", "30000", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deadline_ms"] == 30000.0
    # a 30 s budget on a millisecond workload never expires, but every
    # request is still accounted for through the deadline bookkeeping
    assert payload["deadline_expired"] == 0
    assert payload["accounted"] == 32


def test_serve_bench_fleet_mode(capsys):
    code = main([
        "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
        "--requests", "32", "--max-batch", "8", "--concurrency", "8",
        "--calibration", "8", "--skip-baseline", "--replicas", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replicas"] == 2
    assert payload["report"]["completed"] == 32
    assert payload["lost"] == 0
    assert payload["client_errors"] == 0
    assert payload["fleet"]["restarts"] == 0
    assert len(payload["fleet"]["replicas"]) == 2
    # the replica-side view accounts for every request too
    assert payload["replica_compute"]["completed"] == 32


def test_serve_bench_fleet_validates_canary_flags(capsys):
    # --canary without a registry, and without a control group: both
    # are configuration errors reported before any process spawns
    assert main(["serve-bench", "--canary", "abc123"]) != 0
    assert "--canary needs --registry" in capsys.readouterr().err
    assert main([
        "serve-bench", "--registry", "/tmp/nonexistent-reg",
        "--canary", "abc123", "--replicas", "1",
    ]) != 0
    assert "--replicas >= 2" in capsys.readouterr().err
