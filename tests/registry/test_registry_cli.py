"""End-to-end registry lifecycle through the CLI."""

import json

import pytest

from repro import nn, registry
from repro.cli import main
from repro.nn.serialization import network_state
from repro.zoo import build_network


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "reg")


def seed_artifact(root, seed, accuracy, energy, precision="fixed8"):
    """Publish directly (skipping CLI training) to keep tests fast."""
    store = registry.ArtifactStore(root)
    return store.publish(
        network_state(build_network("lenet_small", seed=seed)),
        network="lenet_small",
        precision=precision,
        dataset="digits",
        accuracy=accuracy,
        energy_uj_per_image=energy,
    )


def test_publish_from_weights_file(root, tmp_path, capsys):
    weights = str(tmp_path / "w.npz")
    nn.save_network_weights(build_network("lenet_small", seed=0), weights)
    code = main([
        "registry", "publish", "--root", root,
        "--network", "lenet_small", "--precision", "fixed8",
        "--weights", weights, "--n-train", "200", "--n-test", "100",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "published lenet_small@fixed8" in out
    manifests = registry.ArtifactStore(root).list_artifacts()
    assert len(manifests) == 1
    assert manifests[0].energy_uj_per_image > 0
    assert manifests[0].memory_kb > 0


def test_list_table_and_json(root, capsys):
    manifest = seed_artifact(root, 0, 0.94, 1.3)
    assert main(["registry", "list", "--root", root]) == 0
    out = capsys.readouterr().out
    assert manifest.short_digest() in out
    assert "94.00" in out

    assert main(["registry", "list", "--root", root, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["digest"] == manifest.digest


def test_promote_rollback_lifecycle(root, capsys):
    a = seed_artifact(root, 0, 0.90, 2.0)
    b = seed_artifact(root, 1, 0.95, 1.5)
    assert main(["registry", "promote", "--root", root,
                 "--channel", "prod", a.digest[:12]]) == 0
    assert main(["registry", "promote", "--root", root,
                 "--channel", "prod", b.digest[:12]]) == 0
    out = capsys.readouterr().out
    assert "prod -> v1" in out and "prod -> v2" in out

    assert main(["registry", "rollback", "--root", root,
                 "--channel", "prod"]) == 0
    assert "rolled back to v1" in capsys.readouterr().out
    store = registry.ArtifactStore(root)
    assert registry.Channel(store, "prod").active().digest == a.digest


def test_dominated_promotion_exits_nonzero(root, capsys):
    strong = seed_artifact(root, 0, 0.95, 1.0)
    weak = seed_artifact(root, 1, 0.90, 2.0)
    assert main(["registry", "promote", "--root", root,
                 "--channel", "prod", strong.digest[:12]]) == 0
    code = main(["registry", "promote", "--root", root,
                 "--channel", "prod", weak.digest[:12]])
    assert code == 2
    assert "dominated" in capsys.readouterr().err
    # --force overrides the gate
    assert main(["registry", "promote", "--root", root, "--channel", "prod",
                 weak.digest[:12], "--force"]) == 0


def test_unknown_ref_exits_nonzero(root, capsys):
    seed_artifact(root, 0, 0.94, 1.3)
    code = main(["registry", "promote", "--root", root,
                 "--channel", "prod", "ffffffff"])
    assert code == 2
    assert "no artifact matches" in capsys.readouterr().err


def test_serve_bench_deploys_channel(root, capsys):
    manifest = seed_artifact(root, 0, 0.94, 1.3)
    assert main(["registry", "promote", "--root", root,
                 "--channel", "prod", manifest.digest[:12]]) == 0
    capsys.readouterr()
    code = main([
        "serve-bench", "--registry", root, "--channel", "prod",
        "--requests", "32", "--concurrency", "8",
        "--skip-baseline", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["network"] == "lenet_small"
    assert payload["precision"] == "fixed8"
    assert payload["registry"]["digest"] == manifest.digest
    assert payload["registry"]["version"] == 1
    served = payload["report"]["served_artifacts"]["lenet_small@fixed8"]
    assert served["digest"] == manifest.digest
    assert served["batches"] >= 1


def test_sweep_publish_creates_artifacts(root, capsys):
    code = main([
        "sweep", "--network", "lenet_small",
        "--precisions", "float32", "fixed8",
        "--n-train", "200", "--n-test", "100",
        "--float-epochs", "2", "--qat-epochs", "1",
        "--no-cache", "--publish", root, "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    artifacts = {a["precision"]: a for a in payload["artifacts"]}
    assert set(artifacts) == {"float32", "fixed8"}
    store = registry.ArtifactStore(root)
    for entry in artifacts.values():
        manifest = store.get(entry["digest"])
        assert manifest.created_by == "repro sweep --publish"
        assert manifest.energy_uj_per_image > 0
    # int8 artifact should be cheaper than float on the modeled hw
    assert (artifacts["fixed8"]["energy_uj_per_image"]
            < artifacts["float32"]["energy_uj_per_image"])


def test_sweep_publish_from_a_warm_cache_matches_cold(tmp_path, capsys):
    def sweep_publish(registry_root):
        code = main([
            "sweep", "--network", "lenet_small",
            "--precisions", "float32", "fixed8",
            "--n-train", "200", "--n-test", "100",
            "--float-epochs", "1", "--qat-epochs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--publish", str(tmp_path / registry_root), "--json",
        ])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    cold = sweep_publish("cold")
    assert {a["precision"] for a in cold["artifacts"]} == {"float32", "fixed8"}
    warm = sweep_publish("warm")
    assert (warm["cache_hits"], warm["cache_misses"]) == (2, 0)
    assert warm["results"] == cold["results"]
    assert warm["artifacts"] == cold["artifacts"]
