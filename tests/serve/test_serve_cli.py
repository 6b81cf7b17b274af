"""serve-bench CLI smoke tests (small budgets, fast)."""

import contextlib
import dataclasses
import json

import pytest

from repro import cli, registry, serve
from repro.cli import main
from repro.nn.serialization import network_state
from repro.resilience import FaultInjector, use_injector
from repro.zoo import build_network


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


@pytest.mark.parametrize("replicas", ["0", "1"], ids=["inproc", "fleet"])
def test_serve_bench_serves_a_per_layer_channel_head(tmp_path, capsys,
                                                     replicas):
    """A search-style per-layer head (not one of the named points)
    serves from its channel, in process and from a replica."""
    root = str(tmp_path / "reg")
    manifest = registry.ArtifactStore(root).publish(
        network_state(build_network("lenet_small", seed=0)),
        network="lenet_small", precision="fixed:2,4,8,8:8",
        dataset="digits", accuracy=0.9, energy_uj_per_image=1.0,
    )
    registry.Channel(registry.ArtifactStore(root), "search").promote(
        manifest.digest)
    code = main([
        "serve-bench", "--registry", root, "--channel", "search",
        "--requests", "16", "--concurrency", "4", "--calibration", "8",
        "--replicas", replicas, "--skip-baseline", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["precision"] == "fixed:2,4,8,8:8"
    assert payload["registry"]["digest"] == manifest.digest
    assert payload["lost"] == 0 and payload["client_errors"] == 0
    served = payload["report"]["served_artifacts"][
        "lenet_small@fixed:2,4,8,8:8"]
    assert served["digest"] == manifest.digest


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


SMALL_RUN = [
    "serve-bench", "--network", "lenet_small", "--precision", "fixed8",
    "--requests", "16", "--workers", "2", "--max-batch", "8",
    "--concurrency", "4", "--calibration", "16", "--skip-baseline",
]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("case, expected", [
    ("clean", 0),
    ("failing", 1),
    ("failing_under_chaos", 0),
    ("lost_future", 1),
])
def test_serve_bench_exit_code_is_one_verdict(monkeypatch, fmt, case, expected):
    # one rule for both formats: typed failures fail the run unless
    # chaos was armed to cause them, and a lost future always fails
    failing = FaultInjector(seed=0).arm("engine.forward", rate=1.0)
    argv = SMALL_RUN + fmt
    installed = contextlib.nullcontext()
    if case == "failing":
        installed = use_injector(failing)
    elif case == "failing_under_chaos":
        monkeypatch.setattr(cli, "chaos_preset", lambda seed: failing)
        argv += ["--chaos", "0"]
    elif case == "lost_future":
        closed_loop = serve.run_closed_loop

        def losing(*args, **kwargs):
            return dataclasses.replace(closed_loop(*args, **kwargs), lost=1)

        monkeypatch.setattr(serve, "run_closed_loop", losing)
    with installed:
        assert main(argv) == expected
    if case.startswith("failing"):
        assert failing.counts()["engine.forward"] >= 1


@pytest.mark.parametrize("flags", [
    ["--expect", "promoted"],
    ["--sabotage-canary"],
    ["--crash-after", "2"],
    ["--replicas", "1", "--expect", "promoted"],
    ["--autotune", "--replicas", "2"],
], ids=["expect", "sabotage", "crash-after", "fleet-expect", "autotune-fleet"])
def test_serve_bench_rejects_flags_the_engine_would_ignore(
    monkeypatch, capsys, flags
):
    # rejected before any servable is built or replica spawned: with no
    # ModelStore to call, building anything would raise TypeError
    monkeypatch.setattr(serve, "ModelStore", None)
    assert main(SMALL_RUN + flags) == 2
    assert "error:" in capsys.readouterr().err
